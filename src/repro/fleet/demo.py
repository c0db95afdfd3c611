"""The fleet acceptance suite: ``python -m repro.scenarios fleet``.

Runs the canonical scenario over one fleet size and seed — the good
release must converge to 100% of the fleet, the planted bad release
must fail its canary wave and be fully rolled back.  The report holds
one row per release, carrying its rollout-log signature, plus a digest
of the fleet telemetry export, so the runner's double run proves the
rollouts *and* the export bit-identical.  The acceptance
configuration is :data:`NODES` nodes.

Every release is certified for the fleet's own node image, so no node
may run its verifier during either rollout, and every node runs its
release's own dispatch table, the one the toolchain built.  Each
release row's ``detail`` carries the count of node-side verifier runs
and the number of distinct dispatch tables the nodes hold once the
rollout ends; any verifier run, and any node holding a table of its
own, is a violation.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.faultinject.scenario import CaseResult, Report, json_digest
from repro.fleet.adapters.sim import FleetScenario, build_scenario

#: fleet size of the acceptance configuration
NODES = 200


def node_verifier_runs(scenario: FleetScenario) -> int:
    """Loads on the fleet's nodes that the node's own verifier checked:
    neither certified nor a load-cache hit.  Each node counts them as
    they run, so a program freed since, such as a release rolled back,
    still counts (the harness may inspect nodes)."""
    return sum(node.bpf.verifier_runs for node in scenario.fleet.nodes())


def held_tables(scenario: FleetScenario) -> Tuple[int, int]:
    """The distinct dispatch tables the fleet's running programs hold,
    and the number of nodes whose table is not their release's own
    (a program a node built for itself).  A node's running program is
    its newest live one: a deploy loads it last, and the program it
    replaced is freed."""
    tables = set()
    copies = 0
    for node in scenario.fleet.nodes():
        if node.current is None:
            continue
        table = node.bpf.all_progs()[-1].predecoded
        tables.add(id(table))
        if table is not node.current.artifacts.predecoded:
            copies += 1
    return len(tables), copies


def table_failures(copies: int) -> List[str]:
    """The violation for ``copies`` nodes holding a table of their
    own, if any."""
    return [f"{copies} nodes hold a dispatch table of their own, not "
            "their release's"] if copies else []


def run_fleet(seed: int = 7) -> Report:
    """One full scenario pass: good rollout, bad rollout, export."""
    scenario = build_scenario(size=NODES, seed=seed)
    before = node_verifier_runs(scenario)
    good = scenario.orchestrator.rollout(
        scenario.good.release_id, seed=seed)
    after_good = node_verifier_runs(scenario)
    good_tables, good_copies = held_tables(scenario)
    bad = scenario.orchestrator.rollout(
        scenario.bad.release_id, seed=seed)
    bad_tables, bad_copies = held_tables(scenario)
    good_runs = after_good - before
    bad_runs = node_verifier_runs(scenario) - after_good
    variant = f"{NODES}-nodes"

    good_failures: List[str] = []
    if good.outcome != "completed":
        good_failures.append(
            f"good release did not complete: {good.outcome}")
    if good.converged_nodes != NODES:
        good_failures.append(
            f"good release reached {good.converged_nodes}/{NODES} "
            "nodes")
    if good_runs:
        good_failures.append(
            f"{good_runs} node-side verifier runs on a certified "
            "release")
    good_failures += table_failures(good_copies)

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
    if bad.final_census.get("healthy", 0) != NODES:
        bad_failures.append(
            f"fleet not fully healthy after rollback: "
            f"{bad.final_census}")
    if bad_runs:
        bad_failures.append(
            f"{bad_runs} node-side verifier runs on a certified "
            "release")
    bad_failures += table_failures(bad_copies)

    snapshot = scenario.telemetry.snapshot()
    export_failures = ([] if snapshot["waves"] else
                       ["telemetry export captured no wave censuses"])
    return Report(seed, [
        CaseResult("good", variant, good.outcome,
                   signature=good.signature(),
                   violations=good_failures,
                   detail=dict(good.summary(),
                               node_verifier_runs=good_runs,
                               predecoded_tables=good_tables)),
        CaseResult("bad", variant, bad.outcome,
                   signature=bad.signature(),
                   violations=bad_failures,
                   detail=dict(bad.summary(),
                               node_verifier_runs=bad_runs,
                               predecoded_tables=bad_tables)),
        CaseResult("telemetry", variant, "exported",
                   signature=json_digest(snapshot),
                   violations=export_failures,
                   detail={"events": snapshot["events"]}),
    ])
