"""The fleet control channel: a fault-modeled RPC envelope.

PR 8's orchestrator called the fleet port as if the network between
the control plane and its nodes were lossless and instantaneous.  This
module inserts the honest layer: every control-plane operation becomes
an :class:`RpcRequest` that travels through :class:`FleetTransport`,
where the existing fault-injection plane can drop it, delay it,
duplicate it, or cut the link entirely — all seeded and deterministic
on a dedicated control-plane :class:`~repro.kernel.ktime.VirtualClock`
(node time is node business; the control channel has its own).

The named failpoints (see :data:`~repro.faultinject.plane.KNOWN_SITES`):

* ``fleet.rpc.send.<node>`` — request delivery.  ``errno`` drops the
  request before the node sees it; ``delay`` models a slow hop (a
  delay at or past the RPC deadline means the request *still lands*,
  but the client has already given up — the classic timed-out-but-
  applied case); ``dup`` delivers the request twice.
* ``fleet.rpc.reply.<node>`` — reply delivery.  ``errno`` drops the
  reply *after* the node applied the request — exactly the failure
  idempotent retries exist for.
* ``fleet.node.crash.<node>`` — the node's agent crashes: the
  in-flight request is lost and the node stays down for
  ``RetryPolicy.crash_reboot_ns`` of control-clock time.
* ``fleet.partition.<node>`` — both directions cut for this attempt;
  the partition heals when its schedule stops firing.

Against all of that the client runs a retry policy: a per-attempt
deadline, exponential backoff with seeded jitter, and a bounded attempt
budget; a request that exhausts it comes back ``unreachable`` instead
of raising.  Every logical operation carries one ``request_id`` across
all its retries, and the server side keeps a durable reply cache keyed
by it — a duplicated or retried ``deploy`` is absorbed by the cache
instead of double-applying.  (The cache models the node agent's
on-disk op journal: a real fleet daemon persists exactly this so that
redelivery after an ack loss is safe.)  A cached reply is retired once
the client acknowledges that it has journaled the operation
(:meth:`FleetTransport.acknowledge`), since the id is never sent
again after that, so the cache holds only operations in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Tuple

from repro.faultinject.plane import FaultPlane
from repro.kernel.ktime import VirtualClock

#: fleet-port methods whose effects mutate node state; reads share the
#: same envelope (a census must survive the same wire) but are listed
#: for documentation — the reply cache covers both.
MUTATING_METHODS: Tuple[str, ...] = (
    "deploy", "rollback", "soak", "quarantine")


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side tunables for the control channel."""

    #: delivery attempts per logical RPC before ``unreachable``
    max_attempts: int = 4
    #: per-attempt deadline on the control clock
    rpc_timeout_ns: int = 1_000_000
    #: first backoff span; doubles per attempt (``backoff_factor``)
    base_backoff_ns: int = 250_000
    #: exponential backoff multiplier
    backoff_factor: float = 2.0
    #: backoff ceiling
    max_backoff_ns: int = 4_000_000
    #: uniform seeded jitter added to every backoff, [0, jitter_ns]
    jitter_ns: int = 50_000
    #: wire latency charged per delivery attempt
    send_latency_ns: int = 1_000
    #: how long a crashed node agent stays down on the control clock
    crash_reboot_ns: int = 2_000_000
    #: extra rollback convergence sweeps for unreachable nodes
    rollback_sweeps: int = 3
    #: control-clock pause between rollback sweeps (lets partitions
    #: heal and crashed agents reboot)
    sweep_pause_ns: int = 2_000_000

    def backoff_ns(self, attempt: int, jitter: Random) -> int:
        """The backoff span after failed ``attempt`` (1-based), with
        seeded jitter."""
        span = self.base_backoff_ns * \
            (self.backoff_factor ** (attempt - 1))
        span = min(int(span), self.max_backoff_ns)
        if self.jitter_ns > 0:
            span += jitter.randrange(self.jitter_ns + 1)
        return span


@dataclass(frozen=True)
class RpcRequest:
    """One control-plane request envelope."""

    #: stable id, shared by every retry of the same logical operation
    request_id: str
    method: str
    node_id: str
    args: Tuple[object, ...] = ()


@dataclass(frozen=True)
class RpcOutcome:
    """What the client learned about one logical RPC."""

    request_id: str
    method: str
    node_id: str
    #: True when a reply arrived (possibly after retries)
    ok: bool
    #: the inner port method's return value (None when not ok)
    value: object = None
    #: machine-readable failure class ("" on success): ``unreachable``
    error: str = ""
    #: delivery attempts consumed
    attempts: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-able form (journaled per op by the orchestrator)."""
        return {"request_id": self.request_id, "method": self.method,
                "node_id": self.node_id, "ok": self.ok,
                "error": self.error, "attempts": self.attempts}


@dataclass
class TransportStats:
    """Counters the transport keeps about its own behavior."""

    rpcs: int = 0
    attempts: int = 0
    retries: int = 0
    send_drops: int = 0
    reply_drops: int = 0
    duplicates: int = 0
    dedup_hits: int = 0
    partitioned: int = 0
    node_crashes: int = 0
    timeouts: int = 0
    unreachable: int = 0
    applied: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-able counters (stable keys)."""
        body = {k: getattr(self, k) for k in (
            "rpcs", "attempts", "retries", "send_drops", "reply_drops",
            "duplicates", "dedup_hits", "partitioned", "node_crashes",
            "timeouts", "unreachable")}
        body["applied"] = dict(sorted(self.applied.items()))
        return body


class FleetTransport:
    """Client + wire + server for the fleet control channel.

    Wraps an inner :class:`~repro.fleet.ports.FleetPort` (the "remote"
    side).  The orchestrator calls :meth:`call`; the transport runs
    the retry loop against the fault plane and hands the inner port
    the request at most once per distinct ``request_id`` — replays and
    duplicates are served from the reply cache.

    With no failpoints armed the transport is transparent: every call
    costs one ``send_latency_ns`` on the control clock and succeeds on
    the first attempt, so PR 8 scenarios behave exactly as before.
    """

    def __init__(self, inner: "object",
                 policy: Optional[RetryPolicy] = None,
                 clock: Optional[VirtualClock] = None,
                 plane: Optional[FaultPlane] = None,
                 seed: int = 0) -> None:
        """Wrap ``inner``; ``seed`` feeds the backoff jitter (the
        fault plane has its own seed via ``plane.enable``)."""
        self.inner = inner
        self.policy = policy or RetryPolicy()
        self.clock = clock or VirtualClock()
        self.plane = plane or FaultPlane(clock=self.clock)
        self.seed = seed
        self._jitter = Random(f"fleet-rpc-jitter:{seed}")
        #: durable server-side reply cache, by request id (the node
        #: agent's op journal — survives agent crashes), until the
        #: client acknowledges the id
        self._replies: Dict[str, RpcOutcome] = {}
        #: node-id -> control-clock time its crashed agent reboots
        self._down_until: Dict[str, int] = {}
        self.stats = TransportStats()

    # -- passthroughs (control-plane metadata, not node RPCs) ---------------

    def node_ids(self) -> List[str]:
        """The fleet membership list (served from the orchestrator's
        own directory, not over the per-node channel)."""
        return self.inner.node_ids()

    # -- the client ---------------------------------------------------------

    def call(self, request: RpcRequest) -> RpcOutcome:
        """Run one logical RPC through the retry loop.  Never raises
        for channel misbehavior — an unreachable node is an outcome,
        not an exception."""
        policy = self.policy
        self.stats.rpcs += 1
        attempt = 0
        while attempt < policy.max_attempts:
            attempt += 1
            self.stats.attempts += 1
            if attempt > 1:
                self.stats.retries += 1
            self.clock.advance(policy.send_latency_ns)
            if not self._deliver_request(request):
                self._give_up_attempt(attempt)
                continue
            reply = self._serve(request)
            if not self._deliver_reply(request):
                self._give_up_attempt(attempt)
                continue
            return RpcOutcome(
                request_id=request.request_id, method=request.method,
                node_id=request.node_id, ok=reply.ok,
                value=reply.value, error=reply.error,
                attempts=attempt)
        self.stats.unreachable += 1
        return RpcOutcome(
            request_id=request.request_id, method=request.method,
            node_id=request.node_id, ok=False, error="unreachable",
            attempts=attempt)

    def acknowledge(self, request_id: str) -> None:
        """The client has journaled ``request_id``'s outcome, so it
        will never send that id again: the node retires its cached
        reply.  The acknowledgement rides on the client's next message
        to the node, so it costs no RPC, no control-clock time and no
        fault-plane check."""
        self._replies.pop(request_id, None)

    def _give_up_attempt(self, attempt: int) -> None:
        """Burn the rest of the attempt's deadline, then back off."""
        self.stats.timeouts += 1
        self.clock.advance(self.policy.rpc_timeout_ns)
        if attempt < self.policy.max_attempts:
            self.clock.advance(
                self.policy.backoff_ns(attempt, self._jitter))

    # -- the wire -----------------------------------------------------------

    def _partitioned(self, node_id: str) -> bool:
        """One partition check; any armed action cuts the link."""
        action = self.plane.check(f"fleet.partition.{node_id}")
        if action is not None:
            self.stats.partitioned += 1
            return True
        return False

    def _node_down(self, node_id: str) -> bool:
        """True while the node's crashed agent is still rebooting."""
        until = self._down_until.get(node_id)
        if until is None:
            return False
        if self.clock.now_ns >= until:
            del self._down_until[node_id]
            return False
        return True

    def _deliver_request(self, request: RpcRequest) -> bool:
        """The request's trip to the node.  Returns False when the
        client will never see a reply for this attempt.  Sets
        ``_dup_request`` / ``_late_request`` side flags for
        :meth:`_serve`."""
        self._dup_request = False
        self._late_request = False
        node = request.node_id
        if not self.plane.armed:
            return True
        if self._partitioned(node):
            return False
        action = self.plane.check(f"fleet.rpc.send.{node}")
        if action is not None:
            if action.kind in ("errno", "panic"):
                self.stats.send_drops += 1
                return False
            if action.kind == "dup":
                self.stats.duplicates += 1
                self._dup_request = True
            elif action.kind == "delay" \
                    and action.delay_ns >= self.policy.rpc_timeout_ns:
                # the request limps in past the deadline: the node
                # will apply it, but this attempt already failed
                self._late_request = True
        if self._node_down(node):
            return False
        crash = self.plane.check(f"fleet.node.crash.{node}")
        if crash is not None and crash.kind == "panic":
            self.stats.node_crashes += 1
            self._down_until[node] = \
                self.clock.now_ns + self.policy.crash_reboot_ns
            return False  # in-flight request dies with the agent
        if self._late_request:
            self._serve(request)  # applied, but nobody is waiting
            return False
        return True

    def _deliver_reply(self, request: RpcRequest) -> bool:
        """The reply's trip back.  The request has already been
        applied — a dropped reply is what idempotent retry is for."""
        if not self.plane.armed:
            return True
        node = request.node_id
        if self._partitioned(node):
            return False
        action = self.plane.check(f"fleet.rpc.reply.{node}")
        if action is None:
            return True
        if action.kind in ("errno", "panic"):
            self.stats.reply_drops += 1
            return False
        if action.kind == "dup":
            # the client sees the same reply twice; the second copy
            # is ignored (same request id)
            self.stats.duplicates += 1
        elif action.kind == "delay" \
                and action.delay_ns >= self.policy.rpc_timeout_ns:
            return False  # reply arrives after the client gave up
        return True

    # -- the server (node agent) --------------------------------------------

    def _serve(self, request: RpcRequest) -> RpcOutcome:
        """Apply one delivered request, at most once per request id.
        A redelivery (retry after a lost reply, or a ``dup`` on the
        wire) returns the cached reply without re-applying."""
        if self._dup_request:
            self._dup_request = False
            self._serve(request)  # first copy lands normally
        cached = self._replies.get(request.request_id)
        if cached is not None:
            self.stats.dedup_hits += 1
            return cached
        method = getattr(self.inner, request.method)
        value = method(request.node_id, *request.args)
        self.stats.applied[request.method] = \
            self.stats.applied.get(request.method, 0) + 1
        reply = RpcOutcome(
            request_id=request.request_id, method=request.method,
            node_id=request.node_id, ok=True, value=value)
        self._replies[request.request_id] = reply
        return reply
