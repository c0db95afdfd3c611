"""The fault-injection plane: named failpoints + seeded schedules.

Modeled on the kernel's own fault-injection framework
(``CONFIG_FAULT_INJECTION``: ``failslab``, ``fail_function``,
``fail_make_request``) with one crucial difference — everything here is
*deterministic*.  A single seed drives one :class:`random.Random`; the
simulation itself is deterministic, so the sequence of failpoint hits
is deterministic, so the sequence of injected faults is a pure function
of (workload, armed schedules, seed).  Chaos runs are therefore
replayable: the same seed produces the same fault trace, byte for
byte, which :meth:`FaultPlane.trace_signature` asserts.

Hot-path contract: the plane follows the telemetry rule ("off costs one
attribute test").  Sites guard every check with ``if plane.armed:`` —
a plain bool that is False unless the plane is both enabled and has at
least one armed failpoint — so the dispatch loop pays nothing when no
chaos experiment is running.

Site naming: dotted, lowercase, most-significant first, with wildcard
matching via :mod:`fnmatch` (``helper.*`` arms every helper).  The
well-known sites are listed in :data:`KNOWN_SITES`; the plane does not
reject unknown names (a test may invent private sites), the registry
exists so ``bpftool fault list`` can show users what is wired.
"""

from __future__ import annotations

import fnmatch
import hashlib
from dataclasses import dataclass
from random import Random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# errno numbers (sites return the *negative* value, kernel-style)
ENOENT = 2
EIO = 5
E2BIG = 7
EAGAIN = 11
ENOMEM = 12
EFAULT = 14
EINVAL = 22
ENOSPC = 28
ETIMEDOUT = 110

ERRNO_NAMES: Dict[str, int] = {
    "ENOENT": ENOENT,
    "EIO": EIO,
    "E2BIG": E2BIG,
    "EAGAIN": EAGAIN,
    "ENOMEM": ENOMEM,
    "EFAULT": EFAULT,
    "EINVAL": EINVAL,
    "ENOSPC": ENOSPC,
    "ETIMEDOUT": ETIMEDOUT,
}

#: the failpoints wired into the simulation, for ``bpftool fault list``
KNOWN_SITES: Dict[str, str] = {
    "helper.<name>": (
        "eBPF helper dispatch; errno becomes the helper's return "
        "value, panic oopses through the official panic path"),
    "map.lookup": "map lookup; errno makes the lookup miss",
    "map.update": "map update; errno returned to the caller",
    "map.delete": "map delete; errno returned to the caller",
    "map.alloc": (
        "per-element map allocation (hash value kmalloc, ringbuf "
        "record); fault surfaces as -ENOMEM/-ENOSPC"),
    "pool.alloc": (
        "SafeLang per-CPU pool allocation; fault counts as an "
        "exhaustion and returns NULL to the extension"),
    "watchdog.fire": (
        "watchdog delivery; errno/panic suppress this delivery "
        "attempt, delay pushes the deadline by delay_ns"),
    "rcu.synchronize": "grace-period wait; delay stretches it",
    "load.verify": (
        "eBPF verifier entry; errno rejects the program, panic "
        "oopses as a verifier internal fault"),
    "load.signature": (
        "SafeLang signature check; any fault makes verification "
        "fail"),
    "net.nic.rx": (
        "NIC packet ingress; errno drops the packet on the wire "
        "(counted rx_drops reason=nic_drop) before any queue sees it"),
    "net.queue.enqueue": (
        "per-CPU RX queue admission; errno drops the packet as a "
        "queue overflow even when the ring has room"),
    "net.redirect": (
        "devmap redirect resolution after an XDP_REDIRECT verdict; "
        "errno makes the target NIC unreachable "
        "(rx_drops reason=redirect_gone)"),
    "fleet.rpc.send.<node>": (
        "control-channel request delivery to one fleet node; errno "
        "drops the request on the wire, delay models a slow hop "
        "(past the RPC deadline the request still lands but the "
        "client has given up), dup delivers the request twice"),
    "fleet.rpc.reply.<node>": (
        "control-channel reply delivery from one fleet node; errno "
        "drops the reply after the node applied the request (the "
        "case idempotent retries exist for), delay/dup as for send"),
    "fleet.node.crash.<node>": (
        "fleet node agent crash; panic loses the in-flight request "
        "and takes the node down for the policy's reboot span on "
        "the control clock"),
    "fleet.partition.<node>": (
        "network partition between the orchestrator and one node; "
        "any action cuts both directions for this delivery attempt "
        "(the partition heals when its schedule stops firing)"),
    "fleet.orch.crash": (
        "rollout orchestrator crash, checked after every journal "
        "append; panic kills the rollout mid-flight — "
        "RolloutOrchestrator.resume() picks it back up from the "
        "write-ahead journal"),
}


@dataclass(frozen=True)
class FaultAction:
    """What to do when a schedule fires.

    ``kind`` is one of ``"errno"`` (site fails with ``-errno``),
    ``"panic"`` (site takes the official panic path), ``"delay"``
    (``delay_ns`` virtual nanoseconds pass before the site proceeds)
    or ``"dup"`` (the site's operation is performed twice — only
    meaningful at sites modeling a delivery, e.g. the fleet control
    channel; sites without a duplication semantic ignore it).
    """

    kind: str
    errno: int = 0
    delay_ns: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("errno", "panic", "delay", "dup"):
            raise ValueError(f"unknown fault action kind {self.kind!r}")
        if self.kind == "errno" and self.errno <= 0:
            raise ValueError("errno action needs a positive errno")
        if self.kind == "delay" and self.delay_ns <= 0:
            raise ValueError("delay action needs a positive delay_ns")

    @staticmethod
    def err(errno: int) -> "FaultAction":
        """Fail with ``-errno``."""
        return FaultAction("errno", errno=errno)

    @staticmethod
    def panic() -> "FaultAction":
        """Take the official panic path at the site."""
        return FaultAction("panic")

    @staticmethod
    def delay(delay_ns: int) -> "FaultAction":
        """Stall the site for ``delay_ns`` virtual nanoseconds."""
        return FaultAction("delay", delay_ns=delay_ns)

    @staticmethod
    def dup() -> "FaultAction":
        """Perform the site's delivery twice."""
        return FaultAction("dup")

    def describe(self) -> str:
        """Human-readable form (``errno:ENOMEM``, ``delay:5000``)."""
        if self.kind == "errno":
            for name, num in ERRNO_NAMES.items():
                if num == self.errno:
                    return f"errno:{name}"
            return f"errno:{self.errno}"
        if self.kind == "delay":
            return f"delay:{self.delay_ns}"
        return self.kind


class Schedule:
    """Decides, per failpoint hit, whether the fault fires.

    Schedules are stateless with respect to the plane: they see the
    1-based hit index of *their own arm* and the plane's seeded RNG.
    Subclasses with internal state (``Scripted``) belong to exactly one
    arm.
    """

    def decide(self, hit: int, rng: Random) -> bool:
        """True when the fault should fire on this hit."""
        raise NotImplementedError

    def describe(self) -> str:
        """Parseable human-readable form (``prob:0.5``)."""
        raise NotImplementedError


class Probability(Schedule):
    """Fire on each hit with probability ``p`` (seeded, reproducible)."""

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        self.p = p

    def decide(self, hit: int, rng: Random) -> bool:
        """See :meth:`Schedule.decide`."""
        return rng.random() < self.p

    def describe(self) -> str:
        """See :meth:`Schedule.describe`."""
        return f"prob:{self.p:g}"


class NthHit(Schedule):
    """Fire on hit ``n`` exactly once — or on every multiple of ``n``
    when ``every`` is set (the kernel's ``interval=`` knob)."""

    def __init__(self, n: int, every: bool = False) -> None:
        if n < 1:
            raise ValueError("nth-hit schedule needs n >= 1")
        self.n = n
        self.every = every

    def decide(self, hit: int, rng: Random) -> bool:
        """See :meth:`Schedule.decide`."""
        if self.every:
            return hit % self.n == 0
        return hit == self.n

    def describe(self) -> str:
        """See :meth:`Schedule.describe`."""
        return f"every:{self.n}" if self.every else f"nth:{self.n}"


class OneShot(NthHit):
    """Fire on the first hit, then never again."""

    def __init__(self) -> None:
        super().__init__(1)

    def describe(self) -> str:
        """See :meth:`Schedule.describe`."""
        return "oneshot"


class Scripted(Schedule):
    """Replay an explicit fire/skip sequence, one entry per hit.

    Past the end of the script the fault never fires again — a script
    is a finite experiment, not a cycle.
    """

    def __init__(self, script: Sequence[bool]) -> None:
        self.script: Tuple[bool, ...] = tuple(bool(x) for x in script)

    def decide(self, hit: int, rng: Random) -> bool:
        """See :meth:`Schedule.decide`."""
        if hit <= len(self.script):
            return self.script[hit - 1]
        return False

    def describe(self) -> str:
        """See :meth:`Schedule.describe`."""
        return "script:" + ",".join("1" if x else "0"
                                    for x in self.script)


@dataclass
class ArmedFailpoint:
    """One armed (pattern, schedule, action) rule."""

    pattern: str
    schedule: Schedule
    action: FaultAction
    hits: int = 0
    fires: int = 0

    def matches(self, site: str) -> bool:
        """True when ``site`` falls under this rule's pattern."""
        return fnmatch.fnmatchcase(site, self.pattern)


class FaultPlane:
    """Per-kernel fault delivery: armed failpoints + the fault trace.

    Sites call ``plane.check("site.name")`` — but only behind an
    ``if plane.armed:`` guard, keeping the disabled plane free.  The
    returned :class:`FaultAction` (or None) tells the site what to do;
    errno and panic semantics are the *site's* job because only the
    site knows its error convention.  Delay is applied here on the
    virtual clock unless the site opts out (the watchdog must: its
    check runs inside a clock tick callback, where a nested
    ``clock.advance`` would recurse).

    The plane keeps no trace: each delivered fault is one ``fault``
    event on the kernel's event ring, folded into two counts and a
    running digest; :meth:`retained` reads the ring back.
    """

    def __init__(self, clock: Optional[object] = None,
                 telemetry: Optional[object] = None) -> None:
        self.clock = clock
        self.telemetry = telemetry
        #: the single-attribute hot-path gate; True iff enabled and
        #: at least one failpoint is armed
        self.armed = False
        self.enabled = False
        self.seed: Optional[int] = None
        self._rng = Random(0)
        self.reset()

    # -- control plane ------------------------------------------------------

    def enable(self, seed: int = 0) -> None:
        """Turn delivery on, reseeding the RNG (replay starts here)."""
        self.enabled = True
        self.seed = seed
        self._rng = Random(seed)
        self._update_gate()

    def disable(self) -> None:
        """Turn delivery off; armed rules are kept for inspection."""
        self.enabled = False
        self._update_gate()

    def arm(self, pattern: str, schedule: Schedule,
            action: FaultAction) -> ArmedFailpoint:
        """Arm a failpoint rule; rules are consulted in arm order and
        the first one whose schedule fires wins the hit."""
        rule = ArmedFailpoint(pattern, schedule, action)
        self.arms.append(rule)
        self._update_gate()
        return rule

    def disarm(self, pattern: str) -> int:
        """Remove every rule with exactly this pattern; returns how
        many were removed."""
        before = len(self.arms)
        self.arms = [a for a in self.arms if a.pattern != pattern]
        self._update_gate()
        return before - len(self.arms)

    def reset(self) -> None:
        """Disarm everything and clear the trace (counters included)."""
        self.arms: List[ArmedFailpoint] = []
        self.site_hits: Dict[str, int] = {}
        #: faults delivered, and how many of them were errnos (the
        #: supervisor compares the errno count across one invocation)
        self.delivered = 0
        self.errnos = 0
        self._digest = hashlib.sha256()
        self._update_gate()

    def _update_gate(self) -> None:
        self.armed = self.enabled and bool(self.arms)

    # -- delivery -----------------------------------------------------------

    def check(self, site: str,
              apply_delay: bool = True) -> Optional[FaultAction]:
        """One failpoint hit: consult armed rules, deliver at most one
        fault, trace it.  Returns the action to apply, or None."""
        if not self.armed:
            return None
        self.site_hits[site] = self.site_hits.get(site, 0) + 1
        for arm in self.arms:
            if not arm.matches(site):
                continue
            arm.hits += 1
            if not arm.schedule.decide(arm.hits, self._rng):
                continue
            arm.fires += 1
            action = arm.action
            self._digest.update(repr((
                self.delivered, site, arm.pattern, action.kind,
                action.errno, action.delay_ns, arm.hits,
                self.clock.now_ns if self.clock else 0)).encode())
            self.delivered += 1
            if action.kind == "errno":
                self.errnos += 1
            if self.telemetry is not None:
                self.telemetry.record_fault(
                    site, action.describe(),
                    {"pattern": arm.pattern, "hit": arm.hits})
            if action.kind == "delay" and apply_delay \
                    and self.clock is not None:
                self.clock.advance(action.delay_ns)
            return action
        return None

    # -- inspection ---------------------------------------------------------

    def trace_signature(self) -> str:
        """SHA-256 over the fault trace, each fault hashed as
        ``(seq, site, pattern, kind, errno, delay_ns, hit, now_ns)``:
        same seed and workload, same signature."""
        return self._digest.copy().hexdigest()

    def retained(self, ring: Iterable[object]) -> List[Tuple[int, object]]:
        """The faults the kernel event ring ``ring`` still holds, oldest
        first, each with its true sequence number: the ring keeps the
        newest events, so it holds the trace's tail."""
        events = [event for event in ring if event.kind == "fault"]
        events = events[len(events) - min(len(events), self.delivered):]
        return list(enumerate(events, self.delivered - len(events)))

    def status(self) -> List[Dict[str, object]]:
        """Per-rule counters for ``bpftool fault status``."""
        return [{
            "pattern": arm.pattern,
            "schedule": arm.schedule.describe(),
            "action": arm.action.describe(),
            "hits": arm.hits,
            "fires": arm.fires,
        } for arm in self.arms]


# -- rule parsing (bpftool's ``--arm`` and ``KernelSpec.fault_arms``) -------

def parse_action(text: str) -> FaultAction:
    """Parse ``errno:ENOMEM`` / ``errno:22`` / ``panic`` / ``dup`` /
    ``delay:5000`` into a :class:`FaultAction`."""
    kind, _, arg = text.partition(":")
    if kind == "panic":
        return FaultAction.panic()
    if kind == "dup":
        return FaultAction.dup()
    if kind == "errno":
        num = ERRNO_NAMES.get(arg.upper())
        if num is None:
            try:
                num = abs(int(arg))
            except ValueError:
                raise ValueError(f"unknown errno {arg!r}") from None
        return FaultAction.err(num)
    if kind == "delay":
        return FaultAction.delay(int(arg))
    raise ValueError(f"unknown fault action {text!r}")


def parse_schedule(text: str) -> Schedule:
    """Parse ``prob:0.5`` / ``nth:3`` / ``every:3`` / ``oneshot`` /
    ``script:1,0,1`` into a :class:`Schedule`."""
    kind, _, arg = text.partition(":")
    if kind == "oneshot":
        return OneShot()
    if kind == "prob":
        return Probability(float(arg))
    if kind == "nth":
        return NthHit(int(arg))
    if kind == "every":
        return NthHit(int(arg), every=True)
    if kind == "script":
        return Scripted([x.strip() in ("1", "true") for x in
                         arg.split(",") if x.strip() != ""])
    raise ValueError(f"unknown fault schedule {text!r}")


def parse_rule(text: str) -> Tuple[str, Schedule, FaultAction]:
    """Parse one ``SITE=SCHEDULE=ACTION`` rule
    (``helper.*=prob:0.5=errno:EINVAL``) into the arguments of
    :meth:`FaultPlane.arm`; raises ``ValueError`` naming the rule."""
    parts = text.split("=")
    if len(parts) != 3:
        raise ValueError(
            f"bad fault rule {text!r}; expected SITE=SCHEDULE=ACTION")
    site, schedule, action = parts
    try:
        return site, parse_schedule(schedule), parse_action(action)
    except ValueError as error:
        raise ValueError(f"bad fault rule {text!r}: {error}") from None
