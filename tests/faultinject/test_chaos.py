"""Chaos replay tests: corpus × schedules, invariants, determinism.

``make chaos`` runs the full matrix; here a fast subset runs per
schedule so CI failures point at the schedule that broke, plus one
full-matrix determinism check.
"""

import pytest

from repro.attacks.corpus import build_corpus
from repro.faultinject.chaos import (
    SCHEDULES,
    case_seed,
    run_case_under_schedule,
    run_chaos,
)

#: a structurally diverse subset: helper abuse, loops, maps, ringbuf,
#: safelang containment — enough surface to hit every failpoint class
FAST_CASES = [
    "ebpf-probe-read", "ebpf-storage-null", "ebpf-missing-release",
    "ebpf-infinite-loop", "sl-infinite-loop", "sl-pool-exhaustion",
]
KNOWN_IDS = {c.case_id for c in build_corpus()}


def test_fast_case_ids_exist():
    missing = [cid for cid in FAST_CASES if cid not in KNOWN_IDS]
    assert not missing, f"stale FAST_CASES entries: {missing}"


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_invariants_hold_under_schedule(schedule):
    cases = [c for c in build_corpus() if c.case_id in FAST_CASES]
    for case in cases:
        result = run_case_under_schedule(case, schedule, seed=101)
        assert result.ok, (
            f"{case.case_id} × {schedule}: " + "; ".join(
                result.violations))


def test_replay_is_pure_function_of_seed():
    one = run_chaos(seed=77, case_ids=FAST_CASES)
    two = run_chaos(seed=77, case_ids=FAST_CASES)
    assert one.signature() == two.signature() == (
        "895e8e89c528976882ff2636a96e332a35f6acc3791b67b43206c36296872936")

    def rows(report):
        return [(r.case, r.variant, r.outcome, r.faults, r.signature)
                for r in report.results]
    assert rows(one) == rows(two)


def test_different_seeds_differ():
    one = run_chaos(seed=77, case_ids=FAST_CASES)
    two = run_chaos(seed=78, case_ids=FAST_CASES)
    assert one.signature() != two.signature()


def test_case_seed_is_stable_and_distinct():
    assert case_seed(1, "a", "s") == case_seed(1, "a", "s")
    assert case_seed(1, "a", "s") != case_seed(2, "a", "s")
    assert case_seed(1, "a", "s") != case_seed(1, "b", "s")
    assert case_seed(1, "a", "s") != case_seed(1, "a", "t")


def test_chaos_actually_injects_faults():
    report = run_chaos(seed=77, case_ids=FAST_CASES)
    assert report.total_faults > 0
    assert not report.violations


def test_cli_exit_status(monkeypatch):
    from repro import scenarios
    module, entry, table, __ = scenarios.SUITES["chaos"]
    monkeypatch.setitem(
        scenarios.SUITES, "chaos",
        (module, entry, table, {"case_ids": ["ebpf-probe-read"]}))
    assert scenarios.main(["chaos", "--schedule", "helper-errno"]) == 0
