"""End-to-end fleet rollouts: convergence, canary rollback,
bit-identical determinism, telemetry export."""

import dataclasses
import json

import pytest

from repro.ebpf.progs import ProgType
from repro.fleet.adapters.sim import (
    EXTENSION,
    SimFleet,
    bad_time_prog,
    boot_toolchain,
    build_scenario,
    default_fleet_spec,
)
from repro.fleet.services.orchestrator import RolloutOrchestrator
from repro.fleet.services.registry import ReleaseRegistry
from repro.net.programs import pass_all_prog
from repro.recovery import HealthState, RecoveryPolicy
from repro.telemetry.export import parse_prometheus

FLEET = 40
SEED = 7


@pytest.fixture
def scenario(leakcheck):
    """A wired 40-node scenario; every kernel leak-checked."""
    built = build_scenario(size=FLEET, seed=SEED)
    for node in built.fleet.nodes():
        leakcheck(node.kernel)
    return built


class TestGoodRelease:
    def test_good_release_converges_to_whole_fleet(self, scenario):
        report = scenario.orchestrator.rollout(
            scenario.good.release_id, seed=SEED)
        assert report.outcome == "completed"
        assert report.converged_nodes == FLEET
        assert report.final_census == {"healthy": FLEET}
        assert all(v.passed for v in report.verdicts)

    def test_waves_upgrade_incrementally(self, scenario):
        report = scenario.orchestrator.rollout(
            scenario.good.release_id, seed=SEED)
        sizes = [v.total for v in report.verdicts]
        assert sum(sizes) == FLEET
        assert sizes[0] < sizes[-1]  # canary wave is the smallest

    def test_halt_after_leaves_fleet_split(self, scenario):
        report = scenario.orchestrator.rollout(
            scenario.good.release_id, seed=SEED, halt_after=2)
        assert report.outcome == "halted"
        assert 0 < report.converged_nodes < FLEET


class TestBadRelease:
    def test_bad_release_halts_at_canary_wave(self, scenario):
        report = scenario.orchestrator.rollout(
            scenario.bad.release_id, seed=SEED)
        assert report.outcome == "rolled-back"
        assert len(report.verdicts) == 1  # never left wave 1
        assert not report.verdicts[0].passed

    def test_rollback_restores_every_node(self, scenario):
        scenario.orchestrator.rollout(scenario.good.release_id,
                                      seed=SEED)
        report = scenario.orchestrator.rollout(
            scenario.bad.release_id, seed=SEED)
        assert report.converged_nodes == 0
        assert report.final_census == {"healthy": FLEET}
        fleet = scenario.fleet
        assert all(fleet.current_release(n)
                   == scenario.good.release_id
                   for n in fleet.node_ids())

    def test_rolled_back_node_is_healthy_in_supervisor_terms(
            self, scenario):
        """The satellite fix end to end: after rollback, the reused
        program tag is HEALTHY — no inherited open breaker."""
        report = scenario.orchestrator.rollout(
            scenario.bad.release_id, seed=SEED)
        kinds = [e.kind for e in report.entries]
        assert "rollback" in kinds
        for node in scenario.fleet.nodes():
            record = node.kernel.recovery.health("bpf:xdp-filter")
            assert record.state is HealthState.HEALTHY
            assert not record.trial
            assert not record.fault_log

    def test_tampered_release_rejected_before_any_deploy(
            self, scenario):
        import dataclasses
        forged = dataclasses.replace(
            scenario.bad, version="3.0.0")
        scenario.registry._releases[forged.release_id] = forged
        report = scenario.orchestrator.rollout(
            forged.release_id, seed=SEED)
        assert report.outcome == "rejected"
        assert not report.verdicts


def detach_causes(node):
    """The cause each ``hook: detached`` dmesg line names, in order."""
    return [line.rsplit("(", 1)[1].rstrip(")")
            for event in node.kernel.log.grep("hook: detached")
            for line in event.lines()]


class TestDetachCause:
    def test_redeploy_and_rollback_name_themselves(self):
        """Replacing a release is not a quarantine: a deploy and a
        rollback each log their own cause, and nothing is
        quarantined."""
        scenario = build_scenario(size=2, seed=SEED)
        node = scenario.fleet.nodes()[0]
        assert node.deploy(scenario.good).ok
        assert node.rollback() == scenario.baseline.release_id
        assert detach_causes(node) == ["redeploy", "rollback"]
        record = node.kernel.recovery.health("bpf:xdp-filter")
        assert record.quarantines == 0

    def test_quarantine_names_itself(self):
        """A canary whose supervisor quarantines the bad release logs
        ``quarantine``; the rollback that follows finds it detached
        already and logs nothing more."""
        scenario = build_scenario(size=2, seed=SEED)
        report = scenario.orchestrator.rollout(
            scenario.bad.release_id, seed=SEED)
        assert report.outcome == "rolled-back"
        canaries = [node for node in scenario.fleet.nodes()
                    if node.kernel.recovery.health(
                        "bpf:xdp-filter").quarantines]
        assert canaries
        for node in canaries:
            assert detach_causes(node) == ["redeploy", "quarantine"]


class TestNodePanic:
    def test_panicked_canaries_read_dead_and_rollout_returns(self):
        """A node whose supervisor escalates to a panic is an outcome,
        not an exception: with no oops budget, the bad release's first
        contained oops panics each canary's kernel, and ``rollout()``
        still returns its report."""
        spec = dataclasses.replace(
            default_fleet_spec(SEED),
            recovery_policy=RecoveryPolicy(oops_budget=0))
        registry = ReleaseRegistry(boot_toolchain(spec))
        baseline = registry.publish(EXTENSION, "1.0.0",
                                    pass_all_prog(), ProgType.XDP)
        bad = registry.publish(EXTENSION, "2.0.0", bad_time_prog(),
                               ProgType.XDP)
        fleet = SimFleet(8, spec, trusted_key=registry.key)
        fleet.preinstall(baseline)
        report = RolloutOrchestrator(fleet, registry).rollout(
            bad.release_id, seed=SEED)
        assert report.outcome == "rolled-back"
        dead = [node for node in fleet.nodes()
                if node.census() == "dead"]
        assert dead
        assert all(node.kernel.log.panicked for node in dead)
        assert report.final_census.get("dead") == len(dead)


class TestDeterminism:
    def _run(self, seed):
        built = build_scenario(size=FLEET, seed=seed)
        good = built.orchestrator.rollout(built.good.release_id,
                                          seed=seed)
        bad = built.orchestrator.rollout(built.bad.release_id,
                                         seed=seed)
        return built, good, bad

    def test_same_seed_bit_identical(self):
        _, good_a, bad_a = self._run(3)
        _, good_b, bad_b = self._run(3)
        assert good_a.signature() == good_b.signature()
        assert bad_a.signature() == bad_b.signature()
        assert [e.render() for e in bad_a.entries] \
            == [e.render() for e in bad_b.entries]

    def test_same_seed_identical_telemetry_export(self):
        built_a, _, _ = self._run(3)
        built_b, _, _ = self._run(3)
        assert built_a.telemetry.to_json() \
            == built_b.telemetry.to_json()
        assert built_a.telemetry.to_prometheus() \
            == built_b.telemetry.to_prometheus()

    def test_different_seed_different_log(self):
        _, good_a, _ = self._run(3)
        _, good_b, _ = self._run(4)
        assert good_a.signature() != good_b.signature()


class TestTelemetryExport:
    def test_wave_census_lands_in_both_exports(self, scenario):
        scenario.orchestrator.rollout(scenario.good.release_id,
                                      seed=SEED)
        scenario.orchestrator.rollout(scenario.bad.release_id,
                                      seed=SEED)
        snapshot = json.loads(scenario.telemetry.to_json())
        assert len(snapshot["waves"]) == 5  # 4 good + 1 bad
        assert snapshot["waves"][-1]["census"]["quarantined"] > 0
        outcomes = [r["outcome"] for r in snapshot["rollouts"]]
        assert outcomes == ["completed", "rolled-back"]

        series = parse_prometheus(scenario.telemetry.to_prometheus())
        assert series[
            'repro_fleet_rollouts_total{outcome="completed"}'] == 1
        assert series[
            'repro_fleet_rollouts_total{outcome="rolled-back"}'] == 1
        assert series["repro_fleet_rollbacks_total"] >= 1
        assert series["repro_fleet_nodes"] == FLEET

    def test_event_stream_feeds_the_aggregator(self, scenario):
        scenario.orchestrator.rollout(scenario.bad.release_id,
                                      seed=SEED)
        events = scenario.telemetry.event_counts()
        assert events.get("oops", 0) > 0
        assert events.get("health", 0) > 0
        assert events.get("load", 0) > 0
