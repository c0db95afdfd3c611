"""The ``bpftool fleet`` driving adapter.

Each command boots a fresh canonical scenario
(:func:`~repro.fleet.adapters.sim.build_scenario`) — bpftool's
one-shot model — and exercises the control plane through the same
service API the demo and the tests use:

* ``fleet status``   — publish the releases, show the fleet census
* ``fleet rollout``  — stage a release through canary waves
* ``fleet rollback`` — the planted bad release: halt + auto-rollback
* ``fleet halt``     — operator stop after a chosen wave
* ``fleet resume``   — kill the orchestrator mid-rollout (armed
  ``fleet.orch.crash``), resume a **fresh** orchestrator from the
  on-disk write-ahead journal, and prove the finished report is
  bit-identical to an uninterrupted run

Output is text by default, ``--json`` for tooling; both are
deterministic under ``--seed``.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, List

from repro.faultinject.chaos import FLEET_SCHEDULES
from repro.fleet.adapters.sim import (
    FleetScenario,
    build_scenario,
    land_through_crashes,
)
from repro.fleet.journal import FileJournal, OrchestratorCrash
from repro.fleet.services.orchestrator import RolloutOrchestrator


def _scenario(args: object) -> FleetScenario:
    """Boot the canonical scenario from common CLI arguments."""
    return build_scenario(size=args.nodes, seed=args.seed)


def _pick_release(scenario: FleetScenario, which: str) -> object:
    """Map the CLI release keyword to a published release."""
    return {"baseline": scenario.baseline, "good": scenario.good,
            "bad": scenario.bad}[which]


def _census_line(census: Dict[str, int]) -> str:
    """Render a census dict as ``state:count`` pairs."""
    return " ".join(f"{state}:{count}"
                    for state, count in sorted(census.items()))


def _print_report(scenario: FleetScenario, report: object,
                  as_json: bool) -> None:
    """Render one rollout report (plus the fleet telemetry export
    under ``--json``)."""
    if as_json:
        body = report.as_dict()
        body["telemetry"] = scenario.telemetry.snapshot()
        print(json.dumps(body, indent=2, sort_keys=True))
        return
    print(report.render())


def cmd_fleet_status(args: object) -> int:
    """``bpftool fleet status``: the registry's releases and the
    fleet's current census (baseline installed, nothing rolled out)."""
    scenario = _scenario(args)
    fleet = scenario.fleet
    census: Dict[str, int] = {}
    for node_id in fleet.node_ids():
        state = fleet.node(node_id).census()
        census[state] = census.get(state, 0) + 1
    if args.json:
        print(json.dumps({
            "nodes": len(fleet.node_ids()),
            "census": census,
            "releases": [r.as_dict()
                         for r in scenario.registry.releases()],
        }, indent=2, sort_keys=True))
        return 0
    print(f"fleet: {len(fleet.node_ids())} nodes  "
          f"census: {_census_line(census)}")
    print("releases:")
    for release in scenario.registry.releases():
        running = sum(
            1 for node_id in fleet.node_ids()
            if fleet.current_release(node_id) == release.release_id)
        print(f"  {release.release_id:24s} "
              f"hash={release.content_hash[:12]} "
              f"cert={release.certificate[:12]} "
              f"sig={release.signature[:12]} running={running}")
    return 0


def cmd_fleet_rollout(args: object) -> int:
    """``bpftool fleet rollout``: stage ``--release`` through canary
    waves; exit 0 on completion, 1 when the canary rolled it back."""
    scenario = _scenario(args)
    release = _pick_release(scenario, args.release)
    report = scenario.orchestrator.rollout(release.release_id,
                                           seed=args.seed)
    _print_report(scenario, report, args.json)
    return 0 if report.outcome == "completed" else 1


def cmd_fleet_rollback(args: object) -> int:
    """``bpftool fleet rollback``: upgrade the fleet to the good
    release, then stage the planted bad one — demonstrating the
    canary halt and the automatic rollback to the prior release."""
    scenario = _scenario(args)
    first = scenario.orchestrator.rollout(
        scenario.good.release_id, seed=args.seed)
    report = scenario.orchestrator.rollout(
        scenario.bad.release_id, seed=args.seed)
    if not args.json:
        print(f"# prior rollout: {first.release_id} -> "
              f"{first.outcome} ({first.converged_nodes} nodes)")
    _print_report(scenario, report, args.json)
    return 0 if report.outcome == "rolled-back" else 1


def cmd_fleet_resume(args: object) -> int:
    """``bpftool fleet resume``: the durability demonstration.

    Runs the rollout twice under the same seed (and optional channel
    chaos): once uninterrupted for the reference signature, once with
    ``fleet.orch.crash`` armed to kill the orchestrator every
    ``--crash-after`` journal appends.  After each crash a **new**
    orchestrator object is built over the surviving fleet and the
    journal is re-read from disk — the dead control plane shares no
    Python state with its successor beyond the journal file and the
    world it already mutated.  Exit 0 iff the resumed report's
    signature is bit-identical to the uninterrupted one."""
    reference = _scenario(args)
    scenario = _scenario(args)
    if args.chaos:
        FLEET_SCHEDULES[args.chaos](reference.transport.plane)
        FLEET_SCHEDULES[args.chaos](scenario.transport.plane)
    release = _pick_release(reference, args.release)
    baseline = reference.orchestrator.rollout(release.release_id,
                                              seed=args.seed)
    path = args.journal
    if path is None:
        handle = tempfile.NamedTemporaryFile(
            prefix="fleet-journal-", suffix=".jsonl", delete=False)
        handle.close()
        path = handle.name
    if os.path.exists(path):
        os.remove(path)  # a stale journal is not this rollout's
    crashes: List[OrchestratorCrash] = []

    def successor(crash: OrchestratorCrash) -> RolloutOrchestrator:
        crashes.append(crash)
        if not args.json:
            print(f"# crash {len(crashes)}: {crash}")
        # the control plane died: its successor shares only the
        # journal file and the fleet it already acted on
        return RolloutOrchestrator(
            scenario.fleet, scenario.registry,
            telemetry=scenario.telemetry, transport=scenario.transport)

    report = land_through_crashes(
        scenario, release.release_id, args.seed, args.crash_after,
        lambda: FileJournal(path), successor)
    match = report.signature() == baseline.signature()
    if args.json:
        body = report.as_dict()
        body["crashes"] = len(crashes)
        body["journal"] = path
        body["journal_records"] = len(FileJournal(path).records())
        body["reference_signature"] = baseline.signature()
        body["signature_match"] = match
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        print(report.render())
        print(f"# journal: {path} "
              f"({len(FileJournal(path).records())} records, "
              f"{len(crashes)} crashes survived)")
        print(f"# uninterrupted signature: {baseline.signature()}")
        print(f"# resumed signature:       {report.signature()}")
        print(f"# bit-identical: {'yes' if match else 'NO'}")
    if args.journal is None:
        os.remove(path)
    return 0 if match and crashes else 1


def cmd_fleet_halt(args: object) -> int:
    """``bpftool fleet halt``: operator stop after ``--after-wave``;
    the fleet is left split between releases, which the census
    shows."""
    scenario = _scenario(args)
    release = _pick_release(scenario, args.release)
    report = scenario.orchestrator.rollout(
        release.release_id, seed=args.seed,
        halt_after=args.after_wave)
    _print_report(scenario, report, args.json)
    return 0 if report.outcome == "halted" else 1
