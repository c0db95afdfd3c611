"""The scenario runner: CI's smoke profiles reproduce their pinned
results, and the exit status reports broken invariants and
nondeterminism."""

import itertools
import json

import pytest

from repro import scenarios
from repro.faultinject.scenario import CaseResult, Report

RACE_FREE_SMOKE = {"seeds": 2, "nprocs": [1, 2, 4], "distinct_outcomes": 1}

#: ``race --smoke`` findings (seed 0, budget 12, 2 corpus seeds)
RACE_SMOKE = {
    ("planted", "rcu_use_after_grace"): {
        "expected": "oops",
        "found": "UseAfterFree: use-after-free of rcu_obj at "
                 "0xffff888000000180",
        "replay_seed": 1, "schedules_run": 12, "distinct_states": 4},
    ("planted", "unlocked_counter"): {
        "expected": "race",
        "found": "data race on array_map3+0: write by unlocked-writer "
                 "(no locks) vs read by locked-writer (counter.lock)",
        "replay_seed": 0, "schedules_run": 12, "distinct_states": 12},
    ("race-free", "atomic_counter"): RACE_FREE_SMOKE,
    ("race-free", "locked_counter"): RACE_FREE_SMOKE,
    ("race-free", "percpu_counter"): RACE_FREE_SMOKE,
    ("race-free", "rcu_publish"): RACE_FREE_SMOKE,
}


def run_json(capsys, *argv):
    status = scenarios.main([*argv, "--json"])
    return status, json.loads(capsys.readouterr().out)


def test_race_smoke_findings_are_pinned(capsys):
    status, doc = run_json(capsys, "race", "--smoke")
    assert status == 0 and doc["deterministic"]
    assert {(r["variant"], r["case"]): r["detail"]
            for r in doc["results"]} == RACE_SMOKE


def test_fleet_smoke_rollout_signatures_are_pinned(capsys):
    status, doc = run_json(capsys, "fleet", "--smoke")
    assert status == 0 and doc["deterministic"]
    signatures = {r["case"]: r["signature"] for r in doc["results"]}
    assert signatures["good"] == (
        "9d9b8c47947c1d9d5976ee23bfab1228d77a25b7e70dd96dfc870ca6afa38842")
    assert signatures["bad"] == (
        "2de5593611f4b73ce149b674d2cd4a4d1d7f6c5cc397a3187cf31a92406bea7b")


def test_fleet_chaos_smoke_signature_is_pinned(capsys):
    status, doc = run_json(capsys, "fleet-chaos", "--smoke")
    assert status == 0 and doc["deterministic"]
    assert len(doc["results"]) == 8
    assert doc["signature"] == (
        "0af1c500f9402de698eb4e5eaf0df37f59ddb3eafcd21f9a972e5c5e0804c10e")


def violating_suite(seed=0):
    return Report(seed, [CaseResult("case", "variant", "broken",
                                    violations=["invariant broke"])])


_draws = itertools.count()


def drifting_suite(seed=0):
    return Report(seed, [CaseResult("case", "variant", "done",
                                    signature=str(next(_draws)))])


@pytest.mark.parametrize("entry, named", [
    ("violating_suite", "VIOLATION: case × variant: invariant broke"),
    ("drifting_suite", "NONDETERMINISM"),
])
def test_failing_suite_exits_1(monkeypatch, capsys, entry, named):
    monkeypatch.setitem(scenarios.SUITES, "fake",
                        (__name__, entry, None, {}, {}))
    assert scenarios.main(["fake"]) == 1
    assert named in capsys.readouterr().out


def test_schedule_must_belong_to_the_suite():
    with pytest.raises(SystemExit):
        scenarios.main(["race", "--schedule", "helper-errno"])
