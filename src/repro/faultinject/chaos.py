"""Chaos replay: the attack corpus under injected faults.

Every attack case already exercises one containment mechanism; this
harness replays the *whole corpus* while the fault plane degrades the
kernel under it — helpers failing, allocators refusing, timers
slipping, loaders rejecting — and checks that containment still
composes.  Three things must hold for every (case × schedule) pair:

1. **Sandbox boundary**: nothing but :class:`~repro.errors.ReproError`
   subclasses (simulated kernel events) crosses out of the run.  A
   raw ``KeyError`` escaping means the *simulation* broke, not the
   simulated kernel.
2. **Balance**: after the run, the kernel passes every invariant in
   :mod:`repro.faultinject.invariants` — RCU nesting, preemption,
   program stacks, pool bump pointers, ringbuf reservations,
   per-extension refcounts, watchdog hooks.
3. **Official panic path**: kernel taint and the oops log agree; a
   kernel never dies without a record, or records a death it didn't
   have.

Determinism is part of the contract: the whole replay is a pure
function of the seed, which the scenario runner proves by running
everything twice and comparing fault-trace signatures.

The ``recover`` suite raises the bar from "detect the oops" to
"survive it": every case runs with the recovery supervisor enabled,
and afterwards the kernel must still be *alive* —
``check_alive()`` passes, every oops contained, zero leaked locks /
pool bytes / RCU imbalance — and per schedule a demonstration drives
one victim program through the full arc: faults → quarantine
(auto-detach) → breaker half-open → auto-reload from the load cache →
recovered.  The supervisor's audit trail is folded into the replay
signature, so the determinism check also proves quarantine decisions
and backoff timings are a pure function of the seed.

Run it: ``PYTHONPATH=src python -m repro.scenarios chaos`` (or
``recover``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.attacks.corpus import build_corpus, run_case
from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.helpers import ids
from repro.errors import ReproError
from repro.faultinject.invariants import (
    kernel_violations,
    recovery_consistent,
)
from repro.faultinject.plane import (
    EINVAL,
    ENOENT,
    ENOMEM,
    ENOSPC,
    ETIMEDOUT,
    FaultAction,
    FaultPlane,
    NthHit,
    Probability,
)
from repro.faultinject.scenario import (
    CaseResult,
    Report,
    case_seed,
    exception_outcome,
    load_retrying,
)
from repro.kernel.kernel import Kernel
from repro.recovery import HealthState

DEFAULT_SEED = 20230622  # HotOS'23


def _arm_helper_errno(plane: FaultPlane) -> None:
    """Hostile kernel services: helpers and map ops fail randomly."""
    plane.arm("helper.*", Probability(0.2), FaultAction.err(EINVAL))
    plane.arm("map.update", Probability(0.3), FaultAction.err(ENOMEM))
    plane.arm("map.delete", Probability(0.3), FaultAction.err(EINVAL))


def _arm_alloc_pressure(plane: FaultPlane) -> None:
    """Memory pressure: every allocator path is unreliable."""
    plane.arm("pool.alloc", Probability(0.5), FaultAction.err(ENOMEM))
    plane.arm("map.alloc", Probability(0.5), FaultAction.err(ENOSPC))
    plane.arm("map.lookup", Probability(0.1), FaultAction.err(ENOMEM))


def _arm_timer_chaos(plane: FaultPlane) -> None:
    """Sloppy time: watchdog delivery slips, grace periods stretch,
    helpers stall on the virtual clock."""
    plane.arm("watchdog.fire", NthHit(2, every=True),
              FaultAction.delay(200_000))
    plane.arm("rcu.synchronize", Probability(0.5),
              FaultAction.delay(1_000_000))
    plane.arm("helper.*", Probability(0.05),
              FaultAction.delay(10_000))


def _arm_load_chaos(plane: FaultPlane) -> None:
    """Control plane under attack: loads fail, one helper panics."""
    plane.arm("load.verify", Probability(0.5), FaultAction.err(EINVAL))
    plane.arm("load.signature", Probability(0.5),
              FaultAction.err(EINVAL))
    plane.arm("helper.*", NthHit(5), FaultAction.panic())


def _arm_rx_pressure(plane: FaultPlane) -> None:
    """A hostile wire: NIC ingress drops, RX rings refuse admission,
    redirect targets flap, and delivery-ring allocation starves —
    every named failpoint of the data plane's RX path."""
    plane.arm("net.nic.rx", Probability(0.05), FaultAction.err(ENOMEM))
    plane.arm("net.queue.enqueue", Probability(0.1),
              FaultAction.err(ENOSPC))
    plane.arm("net.redirect", Probability(0.2),
              FaultAction.err(ENOENT))
    plane.arm("map.alloc", Probability(0.2), FaultAction.err(ENOSPC))


#: the canned schedules ``make chaos`` replays (name -> armer)
SCHEDULES: Dict[str, Callable[[FaultPlane], None]] = {
    "helper-errno": _arm_helper_errno,
    "alloc-pressure": _arm_alloc_pressure,
    "timer-chaos": _arm_timer_chaos,
    "load-chaos": _arm_load_chaos,
    "rx-pressure": _arm_rx_pressure,
}


# -- control-plane schedules (the fleet's unreliable RPC channel) -----------

def _arm_rpc_drops(plane: FaultPlane) -> None:
    """A lossy wire: requests and replies vanish.  A dropped reply is
    the sharp case — the node applied the request, so only the reply
    cache keeps the retry from double-applying."""
    plane.arm("fleet.rpc.send.*", Probability(0.15),
              FaultAction.err(ETIMEDOUT))
    plane.arm("fleet.rpc.reply.*", Probability(0.10),
              FaultAction.err(ETIMEDOUT))


def _arm_rpc_dups(plane: FaultPlane) -> None:
    """A stuttering wire: requests arrive twice, some replies are
    lost anyway — idempotency under duplication *and* retry."""
    plane.arm("fleet.rpc.send.*", Probability(0.20), FaultAction.dup())
    plane.arm("fleet.rpc.reply.*", Probability(0.10),
              FaultAction.err(ETIMEDOUT))


def _arm_slow_wire(plane: FaultPlane) -> None:
    """A congested wire: some hops are slow, some so slow the client
    gives up while the request still lands (timed-out-but-applied —
    the request id dedup is what makes the retry safe)."""
    plane.arm("fleet.rpc.send.*", Probability(0.10),
              FaultAction.delay(1_500_000))
    plane.arm("fleet.rpc.send.*", Probability(0.15),
              FaultAction.delay(100_000))
    plane.arm("fleet.rpc.reply.*", Probability(0.05),
              FaultAction.err(ETIMEDOUT))


def _arm_partitions(plane: FaultPlane) -> None:
    """Flapping partitions: links cut both ways for a while, then
    heal when the schedule stops firing."""
    plane.arm("fleet.partition.*", Probability(0.12),
              FaultAction.err(ETIMEDOUT))


def _arm_node_crashes(plane: FaultPlane) -> None:
    """Crashing node agents: the in-flight request dies with the
    agent and the node stays down for the reboot window."""
    plane.arm("fleet.node.crash.*", Probability(0.06),
              FaultAction.panic())
    plane.arm("fleet.rpc.reply.*", Probability(0.05),
              FaultAction.err(ETIMEDOUT))


def _arm_fleet_pressure(plane: FaultPlane) -> None:
    """Everything at once: drops, dups, delays past the deadline,
    partitions and agent crashes on the same rollout."""
    plane.arm("fleet.partition.*", Probability(0.05),
              FaultAction.err(ETIMEDOUT))
    plane.arm("fleet.node.crash.*", Probability(0.03),
              FaultAction.panic())
    plane.arm("fleet.rpc.send.*", Probability(0.08),
              FaultAction.err(ETIMEDOUT))
    plane.arm("fleet.rpc.send.*", Probability(0.08), FaultAction.dup())
    plane.arm("fleet.rpc.send.*", Probability(0.05),
              FaultAction.delay(1_500_000))
    plane.arm("fleet.rpc.reply.*", Probability(0.08),
              FaultAction.err(ETIMEDOUT))


#: the canned control-plane schedules ``make fleet-chaos`` replays
#: (name -> armer for the *transport's* fault plane — node kernels
#: keep their own planes and their own chaos)
FLEET_SCHEDULES: Dict[str, Callable[[FaultPlane], None]] = {
    "rpc-drops": _arm_rpc_drops,
    "rpc-dups": _arm_rpc_dups,
    "slow-wire": _arm_slow_wire,
    "partitions": _arm_partitions,
    "node-crashes": _arm_node_crashes,
    "fleet-pressure": _arm_fleet_pressure,
}


def run_case_under_schedule(case: object, schedule: str, seed: int,
                            recover: bool = False) -> CaseResult:
    """Replay one attack case on a fresh kernel with one canned fault
    schedule armed.  With ``recover`` the kernel runs supervised and
    must end the replay *alive*, not merely balanced."""
    kernel = Kernel()
    supervisor = kernel.enable_recovery() if recover else None
    plane = kernel.faults
    plane.enable(case_seed(seed, case.case_id, schedule))
    SCHEDULES[schedule](plane)
    violations: List[str] = []
    try:
        outcome = run_case(case, kernel=kernel).value
    except Exception as exc:  # noqa: BLE001 — the point of the harness
        outcome = exception_outcome(exc, violations,
                                    "the sandbox boundary")
    violations.extend(kernel_violations(kernel))
    signature = plane.trace_signature()
    if supervisor is not None:
        try:
            kernel.check_alive()
        except ReproError as exc:
            violations.append(
                f"kernel not alive after supervised replay: {exc}")
        violations.extend(recovery_consistent(kernel))
        signature = f"{signature}:{supervisor.audit_signature()}"
    return CaseResult(case.case_id, schedule, outcome, plane.delivered,
                      signature, violations)


def _victim_prog() -> List[object]:
    """call ktime_get_ns(); r0 = 0; exit — the return value is pinned
    to 0 so injected helper errnos never leak into the exit code and a
    half-open trial run always succeeds once the trigger is disarmed."""
    return (Asm()
            .call(ids.BPF_FUNC_ktime_get_ns)
            .mov64_imm(0, 0)
            .exit_()
            .program())


#: the demo's private always-fire trigger site
_TRIGGER = "helper.bpf_ktime_get_ns"


def demonstrate_recovery(schedule: str, seed: int) -> CaseResult:
    """Drive one victim program through the full recovery arc under a
    canned schedule: repeated oopses → containment → quarantine
    (auto-detached from its hook) → refusal while the breaker is open
    → half-open auto-reload from the load cache → trial run →
    recovered.  Everything is checked; failures surface as violations
    exactly like corpus replays."""
    kernel = Kernel()
    supervisor = kernel.enable_recovery()
    plane = kernel.faults
    plane.enable(case_seed(seed, "recovery-demo", schedule))
    # the trigger is armed BEFORE the schedule so it wins the site
    # walk; panic() at a helper boundary is the [54]-style oops the
    # containment path exists for
    plane.arm(_TRIGGER, Probability(1.0), FaultAction.panic())
    SCHEDULES[schedule](plane)
    violations: List[str] = []
    bpf = BpfSubsystem(kernel)
    prog = load_retrying(bpf, _victim_prog, ProgType.KPROBE, "victim")
    if prog is None:
        return CaseResult(
            "recovery-demo", schedule, "load-refused",
            plane.delivered, plane.trace_signature(),
            ["recovery demo could not load the victim"])
    tag = f"bpf:{prog.name}"
    bpf.attach_trace(prog)  # so quarantine has a hook to detach
    health = supervisor.health(tag)
    for _ in range(16):
        bpf.run_on_current_task(prog)
        if health.state is HealthState.QUARANTINED:
            break
    if health.state is not HealthState.QUARANTINED:
        violations.append(
            "victim was never quarantined despite a 100% oops rate")
    if any(att.name == tag for att in kernel.hooks.chain("trace")):
        violations.append(
            "victim still attached to the trace hook after quarantine")
    refused = bpf.run_on_current_task(prog)
    if refused != ((-11) & ((1 << 64) - 1)):  # -EAGAIN as a u64
        violations.append(
            f"open breaker did not refuse the run (got {refused:#x})")
    # cure the victim; the breaker must now walk back on its own
    plane.disarm(_TRIGGER)
    recovered = False
    for _ in range(64):
        release = health.release_at_ns
        if release is not None \
                and kernel.clock.now_ns < release:
            kernel.clock.advance(release - kernel.clock.now_ns + 1)
        bpf.run_on_current_task(prog)
        if health.state is HealthState.HEALTHY:
            recovered = True
            break
    if not recovered:
        violations.append("victim never recovered after quarantine")
    if health.reloads < 1:
        violations.append("breaker half-opened without auto-reload")
    try:
        kernel.check_alive()
    except ReproError as exc:
        violations.append(
            f"kernel not alive after recovery demo: {exc}")
    violations.extend(kernel_violations(kernel))
    violations.extend(recovery_consistent(kernel))
    return CaseResult(
        "recovery-demo", schedule,
        "recovered" if recovered else "stuck", plane.delivered,
        f"{plane.trace_signature()}:{supervisor.audit_signature()}",
        violations)


def run_dataplane_case(schedule: str, seed: int,
                       recover: bool = False) -> CaseResult:
    """Drive seeded adversarial traffic through the batched XDP
    pipeline while a canned schedule degrades the kernel under it.

    On top of the usual isolation invariants, the replay checks the
    data plane's own books: every PASS verdict must be accounted for
    as either a delivered ring record or a counted -ENOSPC drop
    (exactness under batched multi-producer pressure), and the
    pipeline's summary/histogram signature is folded into the trace
    signature so the determinism check also proves the data plane
    is a pure function of the seed."""
    # imported here: faultinject must stay importable without the
    # net subsystem (and net imports ebpf, which imports this plane)
    from repro.net import DataPlane, LoadGen
    from repro.net import programs as xdp_programs

    kernel = Kernel()
    if recover:
        kernel.enable_recovery()
    plane = kernel.faults
    plane.enable(case_seed(seed, "dataplane", schedule))
    SCHEDULES[schedule](plane)
    violations: List[str] = []
    outcome = "completed"
    bpf = BpfSubsystem(kernel)
    data_plane = DataPlane(kernel, bpf, ringbuf_bytes=4096)
    try:
        nic = data_plane.create_nic(1, "chaos0", queue_depth=64)
        sink = data_plane.create_nic(2, "chaos-sink")
        devmap = bpf.create_map("devmap", max_entries=4)
        for slot in (0, 2):
            try:
                devmap.set_target(slot, sink.ifindex)
            except ReproError:
                pass        # injected update failure: slot stays gone
        prog = load_retrying(
            bpf, lambda: xdp_programs.redirect_by_source_prog(
                devmap.map_fd),
            ProgType.XDP, "chaos_redirect")
        if prog is None:
            return CaseResult(
                "dataplane", schedule, "load-refused",
                plane.delivered, plane.trace_signature(),
                ["dataplane replay could not load the redirect "
                 "program"])
        data_plane.attach(prog, nic)
        generator = LoadGen(
            kernel, "adversarial",
            seed=case_seed(seed, "dataplane-traffic", schedule))
        generator.drive(nic, 2000, plane=data_plane, poll_every=32)
        delivered = len(data_plane.drain())
        passed = data_plane.verdicts["pass"]
        if passed != delivered + data_plane.delivery_drops:
            violations.append(
                f"ringbuf accounting off: {passed} PASS verdicts != "
                f"{delivered} delivered + "
                f"{data_plane.delivery_drops} counted drops")
    except Exception as exc:  # noqa: BLE001 — the point of the harness
        outcome = exception_outcome(exc, violations, "the data plane")
    violations.extend(kernel_violations(kernel))
    return CaseResult(
        "dataplane", schedule, outcome, plane.delivered,
        f"{plane.trace_signature()}:{data_plane.signature()}",
        violations)


def run_chaos(seed: int = DEFAULT_SEED,
              schedules: Optional[Sequence[str]] = None,
              case_ids: Optional[Sequence[str]] = None,
              recover: bool = False) -> Report:
    """Replay the full corpus under every requested schedule; with
    ``recover``, supervised and with one recovery demo per
    schedule."""
    names = list(schedules or SCHEDULES)
    cases = build_corpus()
    if case_ids:
        wanted = set(case_ids)
        cases = [c for c in cases if c.case_id in wanted]
    results = []
    for name in names:
        results.extend(run_case_under_schedule(case, name, seed,
                                               recover=recover)
                       for case in cases)
        results.append(run_dataplane_case(name, seed,
                                          recover=recover))
        if recover:
            results.append(demonstrate_recovery(name, seed))
    return Report(seed, results)
