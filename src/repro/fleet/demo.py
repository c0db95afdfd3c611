"""The fleet acceptance suite: ``python -m repro.scenarios fleet``.

Runs the canonical scenario over one fleet size and seed — the good
release must converge to 100% of the fleet, the planted bad release
must fail its canary wave and be fully rolled back.  The report holds
one row per release, carrying its rollout-log signature, plus a digest
of the fleet telemetry export, so the runner's double run proves the
rollouts *and* the export bit-identical.  The acceptance
configuration is the default 200 nodes.

Every release is certified for the fleet's own node image, so no node
may run its verifier during either rollout.  Each release row's
``detail`` carries the count of node-side verifier runs, and any run
is a violation.
"""

from __future__ import annotations

from typing import List

from repro.faultinject.scenario import CaseResult, Report, json_digest
from repro.fleet.adapters.sim import FleetScenario, build_scenario


def node_verifier_runs(scenario: FleetScenario) -> int:
    """Loads on the fleet's nodes that the node's own verifier checked:
    neither certified nor a load-cache hit.  Each node counts them as
    they run, so a program freed since, such as a release rolled back,
    still counts (the harness may inspect nodes)."""
    return sum(node.bpf.verifier_runs for node in scenario.fleet.nodes())


def run_fleet(seed: int = 7, nodes: int = 200) -> Report:
    """One full scenario pass: good rollout, bad rollout, export."""
    scenario = build_scenario(size=nodes, seed=seed)
    before = node_verifier_runs(scenario)
    good = scenario.orchestrator.rollout(
        scenario.good.release_id, seed=seed)
    after_good = node_verifier_runs(scenario)
    bad = scenario.orchestrator.rollout(
        scenario.bad.release_id, seed=seed)
    good_runs = after_good - before
    bad_runs = node_verifier_runs(scenario) - after_good
    variant = f"{nodes}-nodes"

    good_failures: List[str] = []
    if good.outcome != "completed":
        good_failures.append(
            f"good release did not complete: {good.outcome}")
    if good.converged_nodes != nodes:
        good_failures.append(
            f"good release reached {good.converged_nodes}/{nodes} "
            "nodes")
    if good_runs:
        good_failures.append(
            f"{good_runs} node-side verifier runs on a certified "
            "release")

    bad_failures: List[str] = []
    if bad.outcome != "rolled-back":
        bad_failures.append(
            f"bad release was not rolled back: {bad.outcome}")
    if len(bad.verdicts) != 1:
        bad_failures.append(
            f"bad release survived past its canary wave "
            f"({len(bad.verdicts)} waves ran)")
    on_bad = sum(
        1 for node_id in scenario.fleet.node_ids()
        if scenario.fleet.current_release(node_id)
        == scenario.bad.release_id)
    if on_bad:
        bad_failures.append(
            f"{on_bad} nodes still run the bad release after rollback")
    if bad.final_census.get("healthy", 0) != nodes:
        bad_failures.append(
            f"fleet not fully healthy after rollback: "
            f"{bad.final_census}")
    if bad_runs:
        bad_failures.append(
            f"{bad_runs} node-side verifier runs on a certified "
            "release")

    snapshot = scenario.telemetry.snapshot()
    export_failures = ([] if snapshot["waves"] else
                       ["telemetry export captured no wave censuses"])
    return Report(seed, [
        CaseResult("good", variant, good.outcome,
                   signature=good.signature(),
                   violations=good_failures,
                   detail=dict(good.summary(),
                               node_verifier_runs=good_runs)),
        CaseResult("bad", variant, bad.outcome,
                   signature=bad.signature(),
                   violations=bad_failures,
                   detail=dict(bad.summary(),
                               node_verifier_runs=bad_runs)),
        CaseResult("telemetry", variant, "exported",
                   signature=json_digest(snapshot),
                   violations=export_failures,
                   detail={"events": snapshot["events"]}),
    ])
