"""Recovery determinism: same seed, same quarantine decisions, same
backoff timings, same audit trail — the recovery contract is a pure
function of the fault-plane seed."""

import pytest

from repro.attacks.corpus import build_corpus
from repro.faultinject.chaos import (
    SCHEDULES,
    demonstrate_recovery,
    run_case_under_schedule,
    run_chaos,
)

#: same fast subset as tests/faultinject/test_chaos.py
FAST_CASES = [
    "ebpf-probe-read", "ebpf-storage-null", "ebpf-missing-release",
    "ebpf-infinite-loop", "sl-infinite-loop", "sl-pool-exhaustion",
]


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_supervised_replay_holds_invariants(schedule):
    """Every fast case survives every schedule with recovery enabled:
    kernel alive afterwards, audit trail consistent."""
    cases = [c for c in build_corpus() if c.case_id in FAST_CASES]
    for case in cases:
        result = run_case_under_schedule(case, schedule, seed=101,
                                         recover=True)
        assert result.ok, (
            f"{case.case_id} × {schedule}: " + "; ".join(
                result.violations))


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_recovery_demo_quarantines_then_reloads(schedule):
    """Under every schedule a victim program is demonstrably driven to
    quarantine and then auto-reloaded back to health."""
    result = demonstrate_recovery(schedule, seed=101)
    assert result.outcome == "recovered", "; ".join(result.violations)
    assert result.ok


def test_recovery_demo_is_deterministic():
    one = demonstrate_recovery("helper-errno", seed=77)
    two = demonstrate_recovery("helper-errno", seed=77)
    # the trace signature folds in the supervisor audit signature, so
    # equality means identical faults, decisions, and backoff timings
    assert one.signature == two.signature
    assert one.outcome == two.outcome


def test_supervised_chaos_seeds_differ():
    one = run_chaos(seed=77, case_ids=FAST_CASES, recover=True)
    two = run_chaos(seed=78, case_ids=FAST_CASES, recover=True)
    assert one.signature() != two.signature()


def test_supervised_chaos_is_pure_function_of_seed():
    one = run_chaos(seed=77, case_ids=FAST_CASES, recover=True)
    two = run_chaos(seed=77, case_ids=FAST_CASES, recover=True)
    assert one.clean, "; ".join(one.violations)
    assert one.signature() == two.signature() == (
        "01a97f3beae36939d6fb36a2da294426365b7b7b87c67b93f8a464f2583f4d40")

    def rows(report):
        return [(r.case, r.variant, r.outcome, r.faults, r.signature)
                for r in report.results]
    assert rows(one) == rows(two)


def test_supervised_and_classic_replays_are_distinct():
    """Recovery mode folds the audit signature into every trace
    signature, so the two modes can never be confused."""
    classic = run_chaos(seed=77, case_ids=FAST_CASES[:2],
                        schedules=["helper-errno"])
    supervised = run_chaos(seed=77, case_ids=FAST_CASES[:2],
                           schedules=["helper-errno"], recover=True)
    assert classic.signature() != supervised.signature()
