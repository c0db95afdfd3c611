"""Fleet under fire, end to end: rollouts over a misbehaving channel
must stay idempotent, converge after partitions heal, quarantine what
they cannot fix, and judge waves they cannot see."""

import pytest

from repro.faultinject.chaos import FLEET_SCHEDULES
from repro.faultinject.plane import (
    ETIMEDOUT,
    FaultAction,
    Probability,
    Scripted,
)
from repro.fleet.adapters.sim import build_scenario
from repro.fleet.services.canary import CanaryEvaluator, CanaryPolicy
from repro.fleet.services.orchestrator import RolloutOrchestrator

SIZE = 20
SEED = 11
#: the single wave-1 node for (SIZE, SEED) — pinned by the planner
WAVE1_NODE = "node-004"


@pytest.fixture
def scenario(leakcheck):
    built = build_scenario(size=SIZE, seed=SEED)
    for node in built.fleet.nodes():
        leakcheck(node.kernel)
    return built


class TestDuplicateRpcIdempotency:
    def test_duplicated_deploys_never_double_apply(self, scenario):
        """Every request is delivered twice; every node must apply
        its deploy exactly once — previous/current chains intact."""
        scenario.transport.plane.arm(
            "fleet.rpc.send.*", Probability(1.0), FaultAction.dup())
        report = scenario.orchestrator.rollout(
            scenario.good.release_id, seed=SEED)
        assert report.outcome == "completed"
        assert report.converged_nodes == SIZE
        stats = scenario.transport.stats
        assert stats.duplicates > 0
        assert stats.dedup_hits >= stats.duplicates
        assert stats.applied["deploy"] == SIZE
        for node in scenario.fleet.nodes():
            assert node.current.release_id \
                == scenario.good.release_id
            assert node.previous.release_id \
                == scenario.baseline.release_id

    def test_dup_storm_signature_is_deterministic(self):
        def run():
            built = build_scenario(size=SIZE, seed=SEED)
            FLEET_SCHEDULES["rpc-dups"](built.transport.plane)
            return built.orchestrator.rollout(
                built.good.release_id, seed=SEED).signature()
        assert run() == run()


class TestPartitionHealingMidRollback:
    def arm_partition_after_deploy(self, plane):
        """Let the wave-1 node's deploy/soak/census through (6
        partition-site hits), then cut the link long enough to defeat
        rollback attempt 1 and heal during the sweeps."""
        plane.arm(f"fleet.partition.{WAVE1_NODE}",
                  Scripted([False] * 6 + [True] * 10),
                  FaultAction.err(ETIMEDOUT))

    def test_node_converges_to_prior_release(self, scenario):
        self.arm_partition_after_deploy(scenario.transport.plane)
        report = scenario.orchestrator.rollout(
            scenario.bad.release_id, seed=SEED)
        assert report.outcome == "rolled-back"
        # the partition healed inside the sweep budget: nothing left
        # unreachable, nothing stuck, the node runs its prior release
        assert report.unreachable_nodes == []
        assert report.stuck_nodes == []
        assert scenario.fleet.current_release(WAVE1_NODE) \
            == scenario.baseline.release_id
        assert scenario.fleet.node(WAVE1_NODE).census() == "healthy"
        sweeps = [e for e in report.entries
                  if e.kind == "rollback-sweep"]
        assert sweeps, "rollback never needed a convergence sweep"

    def test_healing_rollback_is_pinned_by_signature(self):
        def run():
            built = build_scenario(size=SIZE, seed=SEED)
            self.arm_partition_after_deploy(built.transport.plane)
            return built.orchestrator.rollout(
                built.bad.release_id, seed=SEED).signature()
        assert run() == run()


class TestStuckNodesAreQuarantined:
    def sabotage_rollback(self, scenario, victim):
        """Model a node that takes the deploy but cannot roll back
        (its rollback image is gone)."""
        scenario.fleet.node(victim).rollback = lambda: None

    def test_stuck_node_is_parked_not_forgotten(self, scenario):
        self.sabotage_rollback(scenario, WAVE1_NODE)
        report = scenario.orchestrator.rollout(
            scenario.bad.release_id, seed=SEED)
        assert report.outcome == "rolled-back"
        assert report.stuck_nodes == [WAVE1_NODE]
        assert report.summary()["stuck_nodes"] == [WAVE1_NODE]
        # parked: the agent reports quarantined and the supervisor
        # holds the release's breaker open
        node = scenario.fleet.node(WAVE1_NODE)
        assert node.census() == "quarantined"
        assert node.operator_quarantined
        kinds = [e.kind for e in report.entries]
        assert "rollback-failed" in kinds
        assert "quarantine" in kinds

    def test_quarantine_cleared_by_the_next_deploy(self, scenario):
        """Operator intervention: a later successful deploy lifts the
        park."""
        self.sabotage_rollback(scenario, WAVE1_NODE)
        scenario.orchestrator.rollout(scenario.bad.release_id,
                                      seed=SEED)
        node = scenario.fleet.node(WAVE1_NODE)
        result = node.deploy(scenario.good)
        assert result.ok
        assert not node.operator_quarantined
        assert node.census() == "healthy"


class TestDeployFailuresCountAgainstTheWave:
    def test_failed_deploy_is_charged_to_the_canary(self, scenario):
        """The orchestrator's accounting, not the node's self-report:
        even if the node's census looks healthy (it still runs its
        old release), a failed deploy counts against the wave."""
        victim = scenario.fleet.node(WAVE1_NODE)
        original = victim.census
        def rosy():
            # a node agent that never admits a problem
            state = original()
            return "healthy" if state == "deploy-failed" else state
        victim.census = rosy
        # node-side sabotage: the wave-1 kernel refuses the load
        victim.kernel.faults.arm("load.verify", Probability(1.0),
                                 FaultAction.err(22))
        report = scenario.orchestrator.rollout(
            scenario.good.release_id, seed=SEED)
        assert report.outcome == "rolled-back"
        verdict = report.verdicts[0]
        assert not verdict.passed
        assert verdict.unhealthy == 1
        assert dict(verdict.census)["deploy-failed"] == 1
        kinds = [e.kind for e in report.entries]
        assert "deploy-failed" in kinds


class TestUnreachableBudget:
    def test_unseen_wave_cannot_pass(self, scenario):
        """Cut every link: the wave fails on the unreachable budget
        even though zero nodes are unhealthy."""
        scenario.transport.plane.arm(
            "fleet.partition.*", Probability(1.0),
            FaultAction.err(ETIMEDOUT))
        report = scenario.orchestrator.rollout(
            scenario.good.release_id, seed=SEED)
        assert report.outcome == "rolled-back"
        verdict = report.verdicts[0]
        assert not verdict.passed
        assert verdict.unhealthy == 0
        assert verdict.unreachable == verdict.total
        assert report.rpc_unreachable > 0

    def test_budget_is_separate_from_health(self):
        """Unreachable nodes do not count as unhealthy: each budget
        trips independently."""
        policy = CanaryPolicy(max_unhealthy_fraction=0.5,
                              max_unreachable_fraction=0.10)
        verdict = CanaryEvaluator(policy).evaluate(
            1, {"a": "unreachable", "b": "healthy", "c": "healthy",
                "d": "healthy"})
        assert verdict.unhealthy == 0
        assert verdict.unreachable == 1
        assert not verdict.passed  # 25% unreachable > 10% budget

    def test_within_budget_unreachable_wave_passes(self):
        policy = CanaryPolicy(max_unreachable_fraction=0.25)
        verdict = CanaryEvaluator(policy).evaluate(
            1, {"a": "unreachable", "b": "healthy", "c": "healthy",
                "d": "healthy"})
        assert verdict.passed


class TestChannelChaosSchedules:
    @pytest.mark.parametrize("schedule", sorted(FLEET_SCHEDULES))
    def test_bad_release_never_completes(self, schedule, leakcheck):
        """Whatever the channel does, the planted bad release must
        not reach the whole fleet."""
        built = build_scenario(size=10, seed=SEED)
        for node in built.fleet.nodes():
            leakcheck(node.kernel)
        FLEET_SCHEDULES[schedule](built.transport.plane)
        report = built.orchestrator.rollout(
            built.bad.release_id, seed=SEED)
        assert report.outcome == "rolled-back"
        bad = built.bad.release_id
        accounted = set(report.stuck_nodes) \
            | set(report.unreachable_nodes)
        for node_id in built.fleet.node_ids():
            if built.fleet.current_release(node_id) == bad:
                assert node_id in accounted
