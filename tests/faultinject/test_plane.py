"""FaultPlane unit tests: schedules, determinism, gate, parsing."""

import pytest

from repro.faultinject.plane import (
    EINVAL,
    ENOMEM,
    FaultAction,
    FaultPlane,
    NthHit,
    OneShot,
    Probability,
    Scripted,
    parse_action,
    parse_rule,
    parse_schedule,
)
from repro.kernel import Kernel


def make_plane(seed=0):
    plane = FaultPlane()
    plane.enable(seed)
    return plane


class TestGate:
    """The hot-path contract: ``plane.armed`` is the only thing sites
    ever test when nothing is injected."""

    def test_fresh_plane_is_cold(self):
        plane = FaultPlane()
        assert not plane.armed
        assert plane.check("helper.anything") is None
        assert plane.site_hits == {}  # cold checks don't even count

    def test_enable_without_arms_stays_cold(self):
        plane = FaultPlane()
        plane.enable(1)
        assert not plane.armed

    def test_arms_without_enable_stay_cold(self):
        plane = FaultPlane()
        plane.arm("x", OneShot(), FaultAction.err(EINVAL))
        assert not plane.armed

    def test_enabled_and_armed_is_hot(self):
        plane = make_plane()
        plane.arm("x", OneShot(), FaultAction.err(EINVAL))
        assert plane.armed
        plane.disable()
        assert not plane.armed

    def test_disarm_and_reset_cool_the_gate(self):
        plane = make_plane()
        plane.arm("x", OneShot(), FaultAction.err(EINVAL))
        assert plane.disarm("x") == 1
        assert not plane.armed
        plane.arm("y", OneShot(), FaultAction.err(EINVAL))
        assert plane.check("y") is not None
        plane.reset()
        assert not plane.armed
        assert (plane.delivered, plane.errnos) == (0, 0)
        assert plane.trace_signature() == FaultPlane().trace_signature()


class TestSchedules:
    def test_oneshot_fires_exactly_once(self):
        plane = make_plane()
        plane.arm("s", OneShot(), FaultAction.err(EINVAL))
        outcomes = [plane.check("s") for _ in range(5)]
        assert [a is not None for a in outcomes] == \
            [True, False, False, False, False]

    def test_nth_hit_fires_on_nth_only(self):
        plane = make_plane()
        plane.arm("s", NthHit(3), FaultAction.err(EINVAL))
        fired = [plane.check("s") is not None for _ in range(6)]
        assert fired == [False, False, True, False, False, False]

    def test_every_nth_fires_periodically(self):
        plane = make_plane()
        plane.arm("s", NthHit(2, every=True), FaultAction.err(EINVAL))
        fired = [plane.check("s") is not None for _ in range(6)]
        assert fired == [False, True, False, True, False, True]

    def test_scripted_replays_then_stops(self):
        plane = make_plane()
        plane.arm("s", Scripted([1, 0, 1]), FaultAction.err(EINVAL))
        fired = [plane.check("s") is not None for _ in range(5)]
        assert fired == [True, False, True, False, False]

    def test_probability_extremes(self):
        plane = make_plane()
        plane.arm("never", Probability(0.0), FaultAction.err(EINVAL))
        plane.arm("always", Probability(1.0), FaultAction.err(EINVAL))
        assert all(plane.check("never") is None for _ in range(20))
        assert all(plane.check("always") is not None
                   for _ in range(20))

    def test_probability_validates_range(self):
        with pytest.raises(ValueError):
            Probability(1.5)

    def test_first_matching_arm_that_fires_wins(self):
        plane = make_plane()
        plane.arm("s", NthHit(2), FaultAction.err(ENOMEM))
        plane.arm("s", OneShot(), FaultAction.err(EINVAL))
        first = plane.check("s")   # arm 1 skips (hit 1), arm 2 fires
        second = plane.check("s")  # arm 1 fires on its hit 2
        assert (first.errno, second.errno) == (EINVAL, ENOMEM)


class TestDeterminism:
    def run_workload(self, seed):
        plane = make_plane(seed)
        plane.arm("site.*", Probability(0.4),
                  FaultAction.err(EINVAL))
        for index in range(50):
            plane.check(f"site.{index % 3}")
        return plane

    def test_same_seed_same_trace(self):
        one = self.run_workload(7)
        two = self.run_workload(7)
        assert one.delivered > 0
        assert (one.delivered, one.errnos) == (two.delivered, two.errnos)
        assert one.trace_signature() == two.trace_signature()

    def test_different_seed_different_trace(self):
        assert self.run_workload(7).trace_signature() != \
            self.run_workload(8).trace_signature()

    def test_reenable_restarts_the_replay(self):
        plane = make_plane(5)
        plane.arm("s", Probability(0.5), FaultAction.err(EINVAL))
        first = [plane.check("s") is not None for _ in range(20)]
        plane.enable(5)
        second = [plane.check("s") is not None for _ in range(20)]
        assert first == second


class TestRecordsAndStatus:
    def test_record_fields(self):
        kernel = Kernel()
        plane = kernel.faults
        plane.enable(0)
        plane.arm("helper.*", OneShot(), FaultAction.err(ENOMEM))
        plane.check("helper.bpf_ktime_get_ns")
        ((seq, event),) = plane.retained(kernel.events.ring)
        assert seq == 0
        assert event.source == "helper.bpf_ktime_get_ns"
        assert event.get("pattern") == "helper.*"
        assert parse_action(event.get("action")) == \
            FaultAction.err(ENOMEM)
        assert event.get("hit") == 1
        assert (plane.delivered, plane.errnos) == (1, 1)

    def test_wildcards_match_dotted_sites(self):
        plane = make_plane()
        plane.arm("map.*", OneShot(), FaultAction.err(EINVAL))
        assert plane.check("helper.foo") is None
        assert plane.check("map.update") is not None

    def test_status_counts_hits_and_fires(self):
        plane = make_plane()
        plane.arm("s", NthHit(2, every=True), FaultAction.panic())
        for _ in range(4):
            plane.check("s")
        (row,) = plane.status()
        assert row["hits"] == 4
        assert row["fires"] == 2
        assert row["schedule"] == "every:2"
        assert row["action"] == "panic"
        assert plane.site_hits == {"s": 4}


class TestActionsAndParsing:
    def test_action_validation(self):
        with pytest.raises(ValueError):
            FaultAction("errno", errno=0)
        with pytest.raises(ValueError):
            FaultAction("delay", delay_ns=0)
        with pytest.raises(ValueError):
            FaultAction("bogus")

    @pytest.mark.parametrize("text,kind,value", [
        ("errno:ENOMEM", "errno", ENOMEM),
        ("errno:22", "errno", EINVAL),
        ("panic", "panic", 0),
        ("delay:5000", "delay", 5000),
    ])
    def test_parse_action(self, text, kind, value):
        action = parse_action(text)
        assert action.kind == kind
        if kind == "errno":
            assert action.errno == value
        if kind == "delay":
            assert action.delay_ns == value

    def test_parse_action_round_trips_describe(self):
        for text in ("errno:ENOMEM", "panic", "delay:5000"):
            assert parse_action(text).describe() == text

    def test_parse_action_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_action("explode")
        with pytest.raises(ValueError):
            parse_action("errno:EWHAT")

    @pytest.mark.parametrize("text", [
        "prob:0.5", "nth:3", "every:3", "oneshot", "script:1,0,1",
    ])
    def test_parse_schedule_round_trips_describe(self, text):
        assert parse_schedule(text).describe() == text

    def test_parse_schedule_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_schedule("sometimes")

    def test_parse_rule_gives_the_arm_arguments(self):
        site, schedule, action = parse_rule("helper.*=nth:2=errno:ENOMEM")
        assert site == "helper.*"
        assert schedule.describe() == "nth:2"
        assert action.describe() == "errno:ENOMEM"
        plane = make_plane()
        plane.arm(*parse_rule("map.update=oneshot=panic"))
        assert plane.status()[0]["pattern"] == "map.update"

    @pytest.mark.parametrize("text,words", [
        ("nonsense", "SITE=SCHEDULE=ACTION"),
        ("a=b=c=d", "SITE=SCHEDULE=ACTION"),
        ("x=sometimes=panic", "unknown fault schedule"),
        ("x=oneshot=explode", "unknown fault action"),
        ("x=prob:2=panic", "outside [0, 1]"),
    ])
    def test_parse_rule_names_the_bad_rule(self, text, words):
        with pytest.raises(ValueError) as caught:
            parse_rule(text)
        assert repr(text) in str(caught.value)
        assert words in str(caught.value)
