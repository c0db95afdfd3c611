"""The fault-modeled control channel: retries, backoff, dedup,
partitions, agent crashes, timed-out-but-applied requests."""

import pytest

from repro.faultinject.plane import (
    ETIMEDOUT,
    FaultAction,
    FaultPlane,
    NthHit,
    Probability,
    Scripted,
)
from repro.fleet.adapters.sim import build_scenario
from repro.fleet.journal import MemoryJournal
from repro.fleet.transport import (
    FleetTransport,
    RetryPolicy,
    RpcRequest,
)

SEED = 7
SIZE = 6


@pytest.fixture
def scenario(leakcheck):
    built = build_scenario(size=SIZE, seed=SEED)
    for node in built.fleet.nodes():
        leakcheck(node.kernel)
    return built


def call(transport, method, node_id, *args, rid="req-1"):
    return transport.call(RpcRequest(
        request_id=rid, method=method, node_id=node_id, args=args))


class TestTransparentChannel:
    def test_clean_channel_is_one_attempt(self, scenario):
        transport = scenario.transport
        outcome = call(transport, "census", "node-000")
        assert outcome.ok
        assert outcome.value == "healthy"
        assert outcome.attempts == 1
        assert transport.stats.retries == 0

    def test_each_call_costs_wire_latency(self, scenario):
        transport = scenario.transport
        before = transport.clock.now_ns
        call(transport, "census", "node-000")
        assert transport.clock.now_ns \
            == before + transport.policy.send_latency_ns

    def test_deploy_travels_and_applies(self, scenario):
        outcome = call(scenario.transport, "deploy", "node-001",
                       scenario.good)
        assert outcome.ok and outcome.value.ok
        assert scenario.fleet.current_release("node-001") \
            == scenario.good.release_id


class TestRetryAndBackoff:
    def test_dropped_sends_are_retried(self, scenario):
        transport = scenario.transport
        transport.plane.arm("fleet.rpc.send.node-000",
                            Scripted([True, True]),
                            FaultAction.err(ETIMEDOUT))
        outcome = call(transport, "census", "node-000")
        assert outcome.ok
        assert outcome.attempts == 3
        assert transport.stats.retries == 2
        assert transport.stats.send_drops == 2

    def test_exhausted_budget_is_unreachable_not_raise(self, scenario):
        transport = scenario.transport
        transport.plane.arm("fleet.rpc.send.node-000",
                            Probability(1.0),
                            FaultAction.err(ETIMEDOUT))
        outcome = call(transport, "census", "node-000")
        assert not outcome.ok
        assert outcome.error == "unreachable"
        assert outcome.attempts == transport.policy.max_attempts
        assert transport.stats.unreachable == 1

    def test_backoff_grows_and_is_capped(self):
        policy = RetryPolicy(jitter_ns=0)
        from random import Random
        rng = Random(0)
        spans = [policy.backoff_ns(a, rng) for a in (1, 2, 3, 4, 5, 9)]
        assert spans[0] == policy.base_backoff_ns
        assert spans[1] == 2 * policy.base_backoff_ns
        assert spans[-1] == policy.max_backoff_ns
        assert spans == sorted(spans)

    def test_backoff_jitter_is_seeded(self):
        policy = RetryPolicy()
        from random import Random
        a = [policy.backoff_ns(1, Random("s")) for _ in range(3)]
        b = [policy.backoff_ns(1, Random("s")) for _ in range(3)]
        assert a == b

    def test_retries_burn_virtual_time(self, scenario):
        transport = scenario.transport
        transport.plane.arm("fleet.rpc.send.node-000",
                            Scripted([True]),
                            FaultAction.err(ETIMEDOUT))
        before = transport.clock.now_ns
        call(transport, "census", "node-000")
        spent = transport.clock.now_ns - before
        # one full timeout + one backoff + two send latencies
        assert spent >= (transport.policy.rpc_timeout_ns
                         + transport.policy.base_backoff_ns
                         + 2 * transport.policy.send_latency_ns)


class TestIdempotency:
    def test_lost_reply_retry_does_not_double_apply(self, scenario):
        """The sharp case: the node applied the deploy, the reply
        died.  The retry must be absorbed by the reply cache."""
        transport = scenario.transport
        transport.plane.arm("fleet.rpc.reply.node-002",
                            Scripted([True]),
                            FaultAction.err(ETIMEDOUT))
        outcome = call(transport, "deploy", "node-002", scenario.good)
        assert outcome.ok and outcome.value.ok
        assert outcome.attempts == 2
        assert transport.stats.applied["deploy"] == 1
        assert transport.stats.dedup_hits == 1
        # the node saw exactly one deploy: previous is the baseline
        node = scenario.fleet.node("node-002")
        assert node.previous.release_id == scenario.baseline.release_id

    def test_duplicated_request_applies_once(self, scenario):
        transport = scenario.transport
        transport.plane.arm("fleet.rpc.send.node-002",
                            Scripted([True]), FaultAction.dup())
        outcome = call(transport, "deploy", "node-002", scenario.good)
        assert outcome.ok and outcome.value.ok
        assert transport.stats.duplicates == 1
        assert transport.stats.applied["deploy"] == 1
        assert transport.stats.dedup_hits == 1

    def test_journaled_ops_leave_no_cached_reply(self, scenario):
        """The node retires a reply once the orchestrator has
        journaled its op; a lost reply inside the call is still
        absorbed by the cache first."""
        transport = scenario.transport
        transport.plane.arm("fleet.rpc.reply.node-002",
                            Scripted([True]),
                            FaultAction.err(ETIMEDOUT))
        journal = MemoryJournal()
        report = scenario.orchestrator.rollout(
            scenario.good.release_id, seed=SEED, journal=journal)
        assert report.outcome == "completed"
        assert transport.stats.dedup_hits == 1
        assert journal.ops()
        assert transport._replies == {}

    def test_distinct_request_ids_apply_separately(self, scenario):
        transport = scenario.transport
        call(transport, "soak", "node-000", 1, rid="a")
        call(transport, "soak", "node-000", 1, rid="b")
        assert transport.stats.applied["soak"] == 2
        assert transport.stats.dedup_hits == 0


class TestTimedOutButApplied:
    def test_late_request_lands_but_attempt_fails(self, scenario):
        """A delay at/past the deadline: the node applies the request,
        the client has already given up — then the retry is deduped."""
        transport = scenario.transport
        policy = transport.policy
        transport.plane.arm("fleet.rpc.send.node-003",
                            Scripted([True]),
                            FaultAction.delay(policy.rpc_timeout_ns))
        outcome = call(transport, "deploy", "node-003", scenario.good)
        assert outcome.ok and outcome.value.ok
        assert outcome.attempts == 2
        assert transport.stats.applied["deploy"] == 1
        assert transport.stats.dedup_hits == 1

    def test_short_delay_is_just_slow(self, scenario):
        transport = scenario.transport
        transport.plane.arm("fleet.rpc.send.node-003",
                            Scripted([True]), FaultAction.delay(10))
        outcome = call(transport, "census", "node-003")
        assert outcome.ok
        assert outcome.attempts == 1


class TestPartitionsAndCrashes:
    def test_partition_cuts_both_directions(self, scenario):
        transport = scenario.transport
        transport.plane.arm("fleet.partition.node-004",
                            Probability(1.0),
                            FaultAction.err(ETIMEDOUT))
        outcome = call(transport, "census", "node-004")
        assert not outcome.ok and outcome.error == "unreachable"
        assert transport.stats.partitioned \
            >= transport.policy.max_attempts
        # other nodes are unaffected
        assert call(transport, "census", "node-000", rid="r2").ok

    def test_partition_heals_when_schedule_stops(self, scenario):
        transport = scenario.transport
        transport.plane.arm("fleet.partition.node-004",
                            Scripted([True, True]),
                            FaultAction.err(ETIMEDOUT))
        outcome = call(transport, "census", "node-004")
        assert outcome.ok
        assert outcome.attempts == 3

    def test_backoff_rides_over_the_reboot_window(self, scenario):
        """The in-flight request dies with the agent, but timeout +
        backoff accumulate past the reboot window and a later retry
        of the *same* logical RPC lands."""
        transport = scenario.transport
        transport.plane.arm("fleet.node.crash.node-005",
                            NthHit(1), FaultAction.panic())
        outcome = call(transport, "census", "node-005")
        assert outcome.ok
        assert outcome.attempts == 3
        assert transport.stats.node_crashes == 1
        assert transport.stats.timeouts == 2

    def test_tight_budget_finds_the_agent_down(self, scenario):
        """With fewer attempts than the reboot window needs, the node
        is unreachable — and reachable again after the window."""
        transport = FleetTransport(scenario.fleet, seed=SEED)
        transport.policy = RetryPolicy(max_attempts=2)
        transport.plane.enable(SEED)
        transport.plane.arm("fleet.node.crash.node-005",
                            NthHit(1), FaultAction.panic())
        outcome = call(transport, "census", "node-005")
        assert not outcome.ok and outcome.error == "unreachable"
        transport.clock.advance(transport.policy.crash_reboot_ns)
        assert call(transport, "census", "node-005", rid="r2").ok


class TestStats:
    def test_stats_export_is_stable(self, scenario):
        transport = scenario.transport
        call(transport, "census", "node-000")
        body = transport.stats.as_dict()
        assert body["rpcs"] == 1
        assert body["attempts"] == 1
        assert body["applied"] == {"census": 1}
