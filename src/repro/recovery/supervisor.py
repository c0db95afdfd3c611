"""The recovery supervisor: health states, circuit breaker, escalation.

Per supervised program the supervisor keeps a health-state machine —

    HEALTHY -> DEGRADED -> QUARANTINED -> (half-open trial) -> HEALTHY

driven by a sliding-window fault counter on the virtual clock.  A
quarantined program is auto-detached from every hook chain and its
runs are refused with ``-EAGAIN`` until the breaker half-opens; then
it is auto-reloaded through the load cache (an identical-bytecode
reload skips the verifier) and given one trial run.  Transient
negative-errno failures injected by the fault plane are retried with
exponential backoff before they count as faults at all.

Containment of an oops goes through the program's
:class:`~repro.recovery.domain.FaultDomain`: unwind, verify the
containment invariant, then :meth:`~repro.kernel.kernel.Kernel.soft_reset`
clears the scoped taint.  If the invariant fails — a lock survived the
unwind, RCU stayed unbalanced, the pool leaked — or the kernel-wide
oops budget is exhausted, the supervisor *escalates*: a real panic
(:class:`~repro.errors.KernelPanic`), taint forever.

Everything the supervisor decides is published once, as a
``recovery`` event on the kernel's event ring (the audit trail, which
the kernel log and the telemetry trace render too), and folded into a
running digest, :meth:`Supervisor.audit_signature`.  The trail is a
pure function of the fault-plane seed — determinism is part of the
recovery contract, and ``tests/recovery`` enforces it.
"""

from __future__ import annotations

import enum
import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import (
    KernelOops,
    KernelPanic,
    KernelSafetyViolation,
    ReproError,
    VerifierError,
)
from repro.kernel.events import KernelEvent
from repro.recovery.domain import FaultDomain, UnwindReport

#: errnos the supervisor itself speaks
EAGAIN = 11
EFAULT = 14

_U64 = (1 << 64) - 1


def _to_u64(value: int) -> int:
    return value & _U64


def _to_s64(value: int) -> int:
    value &= _U64
    return value - (1 << 64) if value >= (1 << 63) else value


def _is_errno(value: int) -> bool:
    """True when a u64 return value decodes to a negative errno."""
    return -4095 <= _to_s64(value) <= -1


class HealthState(enum.Enum):
    """Per-program health, in escalating order of distrust."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"


@dataclass
class RecoveryPolicy:
    """Tunables for the supervisor (all time in virtual ns)."""

    #: sliding window the circuit breaker counts faults over
    window_ns: int = 1_000_000_000
    #: faults in window that mark a program DEGRADED
    degrade_threshold: int = 1
    #: faults in window that trip the breaker (auto-detach + quarantine)
    quarantine_threshold: int = 3
    #: first retry backoff for injected transient errno failures
    backoff_base_ns: int = 10_000
    #: backoff multiplier per retry / per consecutive quarantine
    backoff_factor: int = 2
    #: transient-errno retries per invocation before the failure counts
    max_retries: int = 2
    #: how long the breaker stays open before half-opening
    quarantine_ns: int = 2_000_000
    #: contained oopses the whole kernel will absorb before the
    #: supervisor stops trusting itself and escalates to a panic
    oops_budget: int = 64


def render_decision(event: KernelEvent) -> str:
    """One audit-trail line of a ``recovery`` event:
    ``[timestamp] decision tag name=value...``."""
    parts = " ".join(f"{k}={v}" for k, v in event.detail
                     if k != "decision")
    return (f"[{event.timestamp_ns}] {event.get('decision')} "
            f"{event.source}" + (f" {parts}" if parts else ""))


def _decision_lines(event: KernelEvent) -> Tuple[str, ...]:
    """A supervisor decision's dmesg line, rendered from its event."""
    return (f"recovery: {render_decision(event)}",)


@dataclass
class ProgramHealth:
    """Supervisor-side state for one program tag."""

    tag: str
    state: HealthState = HealthState.HEALTHY
    #: (timestamp_ns, kind) of recent faults, pruned to the window
    fault_log: Deque[Tuple[int, str]] = field(default_factory=deque)
    faults_total: int = 0
    retries: int = 0
    refusals: int = 0
    quarantines: int = 0
    consecutive_quarantines: int = 0
    reloads: int = 0
    contained: int = 0
    release_at_ns: Optional[int] = None
    #: half-open: the next run is a trial; success -> HEALTHY,
    #: any fault -> straight back to quarantine with a longer window
    trial: bool = False

    def as_dict(self) -> Dict[str, object]:
        """bpftool-facing snapshot."""
        return {
            "tag": self.tag,
            "state": self.state.value,
            "faults_in_window": len(self.fault_log),
            "faults_total": self.faults_total,
            "retries": self.retries,
            "refusals": self.refusals,
            "quarantines": self.quarantines,
            "reloads": self.reloads,
            "contained": self.contained,
            "release_at_ns": self.release_at_ns,
            "trial": self.trial,
        }


class Supervisor:
    """Fault containment and health management for one kernel."""

    def __init__(self, kernel: object,
                 policy: Optional[RecoveryPolicy] = None) -> None:
        self.kernel = kernel
        self.policy = policy or RecoveryPolicy()
        self._health: Dict[str, ProgramHealth] = {}
        #: decisions taken; each one is a ``recovery`` event on the
        #: kernel's ring and is folded into ``_audit_digest``
        self.decisions = 0
        self._audit_digest = hashlib.sha256()
        self.contained_total = 0
        self.escalations = 0

    # -- bookkeeping --------------------------------------------------------

    def health(self, tag: str) -> ProgramHealth:
        """The health record for one program tag (created on demand)."""
        record = self._health.get(tag)
        if record is None:
            record = ProgramHealth(tag=tag)
            self._health[tag] = record
        return record

    def statuses(self) -> List[Dict[str, object]]:
        """Every supervised program's health snapshot, stable order."""
        return [self._health[tag].as_dict()
                for tag in sorted(self._health)]

    def _audit_event(self, kind: str, tag: str,
                     **detail: object) -> None:
        self._audit_digest.update(repr((
            self.kernel.clock.now_ns, kind, tag,
            sorted(detail.items()))).encode())
        self.decisions += 1
        self.kernel.telemetry.record_recovery_event(
            kind, tag, detail, dmesg=_decision_lines)

    def audit_signature(self) -> str:
        """SHA-256 over the audit trail, each decision hashed as
        ``(timestamp_ns, decision, tag, sorted detail)``: same seed,
        same decisions."""
        return self._audit_digest.copy().hexdigest()

    def audit_for(self, tag: str) -> List[KernelEvent]:
        """The decisions about one program that the kernel's event
        ring still holds, oldest first."""
        return [event for event in self.kernel.events.ring
                if event.kind == "recovery" and event.source == tag]

    # -- health-state machine ------------------------------------------------

    def _set_state(self, record: ProgramHealth,
                   new_state: HealthState, reason: str) -> None:
        """The one place health state changes: updates the record and
        publishes the transition on the kernel event stream, so fleet
        orchestrators see every canary-relevant move without reading
        supervisor internals."""
        old = record.state
        if old is new_state:
            return
        record.state = new_state
        self.kernel.events.publish(
            "health", source=record.tag, old=old.value,
            new=new_state.value, reason=reason)

    def _prune_window(self, record: ProgramHealth, now_ns: int) -> None:
        horizon = now_ns - self.policy.window_ns
        while record.fault_log and record.fault_log[0][0] < horizon:
            record.fault_log.popleft()

    def note_fault(self, tag: str, kind: str) -> HealthState:
        """Fold one fault into the breaker; returns the new state."""
        record = self.health(tag)
        now = self.kernel.clock.now_ns
        record.fault_log.append((now, kind))
        record.faults_total += 1
        self._prune_window(record, now)
        in_window = len(record.fault_log)
        if record.trial:
            self._quarantine(record,
                             reason=f"half-open trial failed ({kind})")
        elif record.state is HealthState.QUARANTINED:
            pass  # already parked; nothing escalates from here
        elif in_window >= self.policy.quarantine_threshold:
            self._quarantine(
                record, reason=f"{in_window} faults within "
                f"{self.policy.window_ns}ns ({kind})")
        elif record.state is HealthState.HEALTHY \
                and in_window >= self.policy.degrade_threshold:
            self._set_state(record, HealthState.DEGRADED,
                            reason=f"fault:{kind}")
            self._audit_event("degraded", tag, fault=kind,
                              faults_in_window=in_window)
        return record.state

    def note_success(self, tag: str) -> None:
        """A clean run: closes a half-open trial, heals a degraded
        program whose fault window has emptied."""
        record = self.health(tag)
        now = self.kernel.clock.now_ns
        self._prune_window(record, now)
        if record.trial:
            record.trial = False
            self._set_state(record, HealthState.HEALTHY,
                            reason="trial-success")
            record.consecutive_quarantines = 0
            record.fault_log.clear()
            self._audit_event("recovered", tag,
                              reloads=record.reloads)
        elif record.state is HealthState.DEGRADED \
                and not record.fault_log:
            self._set_state(record, HealthState.HEALTHY,
                            reason="window-empty")
            self._audit_event("healed", tag)

    def _quarantine_span_ns(self, record: ProgramHealth) -> int:
        exponent = max(0, record.consecutive_quarantines - 1)
        return self.policy.quarantine_ns * \
            (self.policy.backoff_factor ** exponent)

    def _quarantine(self, record: ProgramHealth, reason: str) -> None:
        self._set_state(record, HealthState.QUARANTINED,
                        reason=reason)
        record.trial = False
        record.quarantines += 1
        record.consecutive_quarantines += 1
        now = self.kernel.clock.now_ns
        record.release_at_ns = now + self._quarantine_span_ns(record)
        detached = self.kernel.hooks.detach_everywhere(
            record.tag, "quarantine")
        self._audit_event(
            "quarantine", record.tag, reason=reason,
            detached_hooks=detached,
            release_at_ns=record.release_at_ns)

    def quarantine(self, tag: str, reason: str = "manual") -> None:
        """Operator-initiated quarantine (``bpftool prog quarantine``)."""
        self._quarantine(self.health(tag), reason=reason)

    def reset_breakers(self, sources, reason: str = "soft-reset",
                       ) -> int:
        """Reset the circuit breaker for every tag in ``sources``:
        clear the half-open trial flag, the consecutive-quarantine
        backoff, the fault window and the release deadline, and put
        the program back to HEALTHY.  Called by
        :meth:`~repro.kernel.kernel.Kernel.soft_reset` so a node
        rolled back to a prior release starts clean — note it does
        *not* reattach anything quarantine detached; redeploying the
        program is the caller's job.  Returns how many records were
        actually reset."""
        if isinstance(sources, str):
            sources = (sources,)
        reset = 0
        for tag in sorted(set(sources)):
            record = self._health.get(tag)
            if record is None:
                continue
            dirty = (record.trial or record.fault_log
                     or record.consecutive_quarantines
                     or record.release_at_ns is not None
                     or record.state is not HealthState.HEALTHY)
            if not dirty:
                continue
            record.trial = False
            record.consecutive_quarantines = 0
            record.fault_log.clear()
            record.release_at_ns = None
            self._set_state(record, HealthState.HEALTHY,
                            reason=f"breaker-reset ({reason})")
            self._audit_event("breaker-reset", tag, reason=reason)
            reset += 1
        return reset

    # -- gate: refusal and half-open ------------------------------------------

    def gate(self, tag: str,
             reloader: Optional[Callable[[], Optional[object]]] = None,
             ) -> bool:
        """Pre-dispatch check.  Returns True when the run must be
        *refused* (breaker open); on half-open it auto-reloads through
        ``reloader`` and admits a trial run."""
        record = self.health(tag)
        if record.state is not HealthState.QUARANTINED:
            return False
        now = self.kernel.clock.now_ns
        if record.release_at_ns is not None \
                and now < record.release_at_ns:
            record.refusals += 1
            if record.refusals == 1 or record.refusals % 64 == 0:
                # audit the first refusal (and a heartbeat), not all
                self._audit_event("refused", tag,
                                  refusals=record.refusals,
                                  release_at_ns=record.release_at_ns)
            return True
        # breaker half-opens: reload, then admit one trial run
        self._audit_event("half-open", tag)
        if reloader is not None and reloader() is None:
            # reload failed; stay quarantined, extend the window
            record.release_at_ns = now + self._quarantine_span_ns(record)
            self._audit_event("reload-failed", tag,
                              release_at_ns=record.release_at_ns)
            return True
        self._set_state(record, HealthState.DEGRADED,
                        reason="half-open")
        record.trial = True
        return False

    # -- containment ----------------------------------------------------------

    def contain(self, tag: str, exc: BaseException,
                domain: FaultDomain) -> UnwindReport:
        """Unwind the fault domain, verify the containment invariant,
        clear the scoped taint.  Raises
        :class:`~repro.errors.KernelPanic` when containment itself
        fails or the oops budget is exhausted."""
        report = domain.unwind()
        problems = domain.verify()
        if problems:
            self._escalate(
                f"containment invariant failed for {tag}: "
                + "; ".join(problems), source=tag)
        self.contained_total += 1
        record = self.health(tag)
        record.contained += 1
        if self.contained_total > self.policy.oops_budget:
            self._escalate(
                f"oops budget ({self.policy.oops_budget}) exhausted "
                f"containing {tag}", source=tag)
        # every oops recorded during this supervised invocation belongs
        # to the domain, whatever source string it was stamped with
        sources = {tag, getattr(exc, "source", tag)}
        sources.update(
            oops.source for oops in self.kernel.log.open_oopses
            if oops.seq >= domain.oops_mark)
        # breakers=False: mid-containment the breaker state *is* the
        # health signal — note_fault right after this must see it
        cleared = self.kernel.soft_reset(
            sources,
            reason=f"fault domain unwound "
                   f"({report.total_actions} actions)",
            breakers=False)
        category = getattr(exc, "category", type(exc).__name__)
        detail = report.as_dict()
        detail.pop("tag", None)
        self._audit_event("contain", tag, category=category,
                          oopses_cleared=cleared, **detail)
        self.kernel.telemetry.record_containment(tag, category)
        return report

    def _escalate(self, reason: str, source: str) -> None:
        self.escalations += 1
        self._audit_event("escalate", source, reason=reason)
        self.kernel.log.panic(self.kernel.clock.now_ns, reason,
                              source=source)
        raise KernelPanic(reason, source=source)

    # -- supervised eBPF dispatch ----------------------------------------------

    def run_ebpf(self, subsystem: object, prog: object,
                 thunk: Callable[[], int]) -> int:
        """One supervised program invocation: quarantine gate,
        transient-errno retry with exponential backoff, containment of
        anything that oopses."""
        tag = f"bpf:{prog.name}"
        if self.gate(tag, reloader=lambda: self._reload_ebpf(
                subsystem, prog, tag)):
            return _to_u64(-EAGAIN)
        plane = self.kernel.faults
        record = self.health(tag)
        attempt = 0
        while True:
            domain = FaultDomain(self.kernel, tag)
            mark = plane.errnos
            try:
                value = thunk()
            except KernelSafetyViolation as exc:
                self.contain(tag, exc, domain)
                self.note_fault(
                    tag, f"oops:{getattr(exc, 'category', 'oops')}")
                return _to_u64(-EFAULT)
            if plane.errnos == mark or not _is_errno(value):
                self.note_success(tag)
                return value
            if not self._retry(record, attempt, errno=-_to_s64(value)):
                # retries exhausted: the transient failure is now real
                self.note_fault(tag, f"errno:{-_to_s64(value)}")
                return value
            attempt += 1

    def _retry(self, record: ProgramHealth, attempt: int,
               **detail: object) -> bool:
        """One retry-with-backoff step after an injected errno made
        try ``attempt`` (counted from 0) fail: False once the policy's
        retries are spent, else count and audit the retry and wait
        out its backoff on the virtual clock."""
        policy = self.policy
        if attempt >= policy.max_retries:
            return False
        record.retries += 1
        backoff = policy.backoff_base_ns * policy.backoff_factor ** attempt
        self._audit_event("retry", record.tag, attempt=attempt + 1,
                          backoff_ns=backoff, **detail)
        self.kernel.clock.advance(backoff)
        return True

    def _reload_ebpf(self, subsystem: object, prog: object,
                     tag: str) -> Optional[object]:
        """Half-open auto-reload: push the accepted bytecode back
        through the load pipeline (an identical reload is a cache hit
        and skips the verifier entirely)."""
        cache = subsystem.load_cache
        hits_before = cache.hits if cache is not None else 0
        try:
            reloaded = subsystem.load_program(
                prog.insns, prog.prog_type, name=prog.name)
        except ReproError as exc:
            self._audit_event("reload-error", tag,
                              error=type(exc).__name__)
            return None
        record = self.health(tag)
        record.reloads += 1
        self._audit_event(
            "reload", tag, prog_id=reloaded.prog_id,
            cache_hit=(cache is not None
                       and cache.hits > hits_before))
        return reloaded

    # -- supervised eBPF loading -----------------------------------------------

    def load_ebpf(self, subsystem: object, name: str,
                  thunk: Callable[[], object]) -> object:
        """Supervised trip through the load pipeline: transient
        injected load errnos are retried with backoff; a verifier
        crash ([54] class) is contained — there is no run state to
        unwind — and surfaces as a plain rejection."""
        tag = f"bpf:{name}"
        plane = self.kernel.faults
        record = self.health(tag)
        attempt = 0
        while True:
            domain = FaultDomain(self.kernel, tag)
            # load.verify is the only failpoint a load reaches, so an
            # errno delivered since the mark is an injected refusal
            mark = plane.errnos
            try:
                return thunk()
            except KernelOops as exc:
                self.contain(tag, exc, domain)
                self.note_fault(tag, "load-oops")
                raise VerifierError(
                    f"verifier fault contained during load of "
                    f"({name}): {exc}") from exc
            except VerifierError:
                if plane.errnos == mark:
                    raise
                if not self._retry(record, attempt, stage="load"):
                    self.note_fault(tag, "load-errno")
                    raise
            attempt += 1
