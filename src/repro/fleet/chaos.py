"""Fleet under fire: rollouts over an unreliable control channel.

``make fleet`` proves the control plane works when the network does.
This suite replays the canonical scenario while the *channel*
misbehaves: every schedule in
:data:`~repro.faultinject.chaos.FLEET_SCHEDULES` arms the transport's
fault plane — drops, duplicates, delays past the RPC deadline,
partitions, crashing node agents — and both the good and the planted
bad release are rolled out under it.  For every replay the suite
checks:

1. **Outcome sanity** — the bad release never completes: either its
   canary census or the wave's unreachable budget halts it, and the
   rollout ends ``rolled-back``.
2. **No node left behind** — after a rolled-back rollout, any node
   still running the withdrawn release is *accounted for*: listed
   ``unreachable`` (the operator's queue) or quarantined as stuck —
   parked, not forgotten.  Reachable nodes never keep the bad bits.
3. **Fleet integrity** — every node kernel passes the isolation
   invariants and the taint/oops books balance, exactly as in
   ``make chaos``.
4. **Crash + resume** — per schedule, the rollout is additionally run
   with ``fleet.orch.crash`` armed: the orchestrator dies at a
   journal-append boundary, ``resume()`` picks the journal up
   (repeatedly, if the crash schedule keeps firing), and the finished
   report's signature must be **bit-identical** to the uninterrupted
   run's.
5. **Determinism** — the scenario runner replays the whole suite
   twice and compares report signatures.

Run it: ``PYTHONPATH=src python -m repro.scenarios fleet-chaos``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.faultinject.chaos import FLEET_SCHEDULES
from repro.faultinject.invariants import kernel_violations
from repro.faultinject.scenario import (
    CaseResult,
    Report,
    case_seed,
    exception_outcome,
)
from repro.fleet.adapters.sim import (
    FleetScenario,
    build_scenario,
    land_through_crashes,
)
from repro.fleet.journal import MemoryJournal, OrchestratorCrash

DEFAULT_SEED = 20230622  # HotOS'23
#: nodes in each rollout's fleet
NODES = 24
#: journal-append ordinals the crash leg kills the orchestrator at
#: (a recurring schedule: the *resumed* orchestrator crashes again
#: every CRASH_EVERY live appends until the rollout finally lands)
CRASH_EVERY = 23


def _check_fleet(scenario: FleetScenario, report: object,
                 bad_release: bool) -> List[str]:
    """The god's-eye invariants: the harness may inspect nodes
    directly — the orchestrator may not."""
    violations: List[str] = []
    target = report.release_id
    accounted = set(report.stuck_nodes) | set(report.unreachable_nodes)
    for node in scenario.fleet.nodes():
        running = (node.current.release_id
                   if node.current is not None else None)
        if report.outcome == "rolled-back" and running == target:
            if node.node_id not in accounted:
                violations.append(
                    f"{node.node_id} still runs withdrawn {target} "
                    "but is neither unreachable nor quarantined")
            elif node.node_id in report.stuck_nodes \
                    and node.census() not in ("quarantined", "dead"):
                violations.append(
                    f"stuck node {node.node_id} was not parked "
                    f"(census={node.census()})")
        violations.extend(f"{node.node_id}: {problem}"
                          for problem in kernel_violations(node.kernel))
    if bad_release and report.outcome == "completed":
        violations.append(
            "the planted bad release completed a full rollout")
    return violations


def _result(schedule: str, release: str, outcome: str,
            scenario: FleetScenario, report: Optional[object],
            resumes: int, violations: List[str]) -> CaseResult:
    """One rollout's row: its signature with the resume count folded
    in, the channel faults it was dealt and its RPC accounting."""
    faults = scenario.transport.plane.delivered
    if report is None:
        return CaseResult(schedule, release, outcome, faults,
                          f":{resumes}", violations)
    return CaseResult(
        schedule, release, outcome, faults,
        f"{report.signature()}:{resumes}", violations,
        {"rpc_retries": report.rpc_retries,
         "rpc_unreachable": report.rpc_unreachable,
         "stuck": len(report.stuck_nodes),
         "unreachable": len(report.unreachable_nodes),
         "resumes": resumes})


def run_fleet_case(schedule: str, release: str,
                   seed: int) -> CaseResult:
    """One rollout of ``release`` under one channel schedule."""
    scenario = build_scenario(NODES, seed=seed)
    FLEET_SCHEDULES[schedule](scenario.transport.plane)
    target = (scenario.bad if release == "bad"
              else scenario.good)
    violations: List[str] = []
    try:
        report = scenario.orchestrator.rollout(
            target.release_id, seed=seed)
    except Exception as exc:  # noqa: BLE001 — the point of the harness
        outcome = exception_outcome(
            exc, violations, "the rollout under channel chaos",
            legal=())
        return _result(schedule, release, outcome, scenario, None, 0,
                       violations)
    violations.extend(
        _check_fleet(scenario, report, bad_release=(release == "bad")))
    return _result(schedule, release, report.outcome, scenario, report,
                   0, violations)


def run_crash_resume_case(schedule: str, release: str, seed: int,
                          baseline: CaseResult) -> CaseResult:
    """The durability leg: the rollout ``baseline`` ran uninterrupted,
    but the orchestrator is killed every :data:`CRASH_EVERY` journal
    appends and resumed from the journal until it lands — the
    finished signature must be bit-identical to the baseline's."""
    scenario = build_scenario(NODES, seed=seed)
    FLEET_SCHEDULES[schedule](scenario.transport.plane)
    target = (scenario.bad if release == "bad"
              else scenario.good)
    journal = MemoryJournal()
    crashes: List[OrchestratorCrash] = []

    def resume_in_place(crash: OrchestratorCrash) -> object:
        # the orchestrator object outlives its crash; only the
        # journal carries the rollout across
        crashes.append(crash)
        return scenario.orchestrator

    violations: List[str] = []
    try:
        report = land_through_crashes(
            scenario, target.release_id, seed, CRASH_EVERY,
            lambda: journal, resume_in_place)
    except Exception as exc:  # noqa: BLE001 — the point of the harness
        outcome = exception_outcome(
            exc, violations, "the crash/resume leg", legal=())
        return _result(schedule, release, outcome, scenario, None,
                       len(crashes), violations)
    resumes = len(crashes)
    if resumes == 0:
        violations.append(
            "crash leg never crashed — fleet.orch.crash is dead "
            "wiring")
    if not journal.complete():
        violations.append(
            "resumed rollout finished but its journal is not "
            "complete")
    # the baseline's signature carries its zero resumes
    if f"{report.signature()}:0" != baseline.signature:
        violations.append(
            f"resumed signature {report.signature()[:16]} != "
            f"uninterrupted {baseline.signature[:16]} — the journal "
            "replay diverged")
    return _result(schedule, release, f"{report.outcome}+resumed",
                   scenario, report, resumes, violations)


def run_fleet_chaos(seed: int = DEFAULT_SEED,
                    schedules: Optional[Sequence[str]] = None) -> Report:
    """Replay both releases under every requested channel schedule,
    plus the crash/resume leg per pair."""
    results: List[CaseResult] = []
    for name in schedules or FLEET_SCHEDULES:
        for release in ("good", "bad"):
            rollout_seed = case_seed(seed, f"fleet-{release}", name)
            uninterrupted = run_fleet_case(name, release, rollout_seed)
            results.append(uninterrupted)
            results.append(run_crash_resume_case(
                name, release, rollout_seed, uninterrupted))
    return Report(seed, results)
