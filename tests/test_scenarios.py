"""The scenario runner: the race, fleet and fleet-chaos suites and two
schedules of the chaos and recover suites reproduce their pinned
results, and the exit status reports broken invariants and
nondeterminism."""

import itertools
import json

import pytest

from repro import scenarios
from repro.faultinject.scenario import CaseResult, Report

RACE_FREE = {"seeds": 4, "nprocs": [1, 2, 4], "distinct_outcomes": 1}

#: ``race`` findings (seed 0, budget 32, 4 corpus seeds)
RACE = {
    ("planted", "rcu_use_after_grace"): {
        "expected": "oops",
        "found": "UseAfterFree: use-after-free of rcu_obj at "
                 "0xffff888000000180",
        "replay_seed": 1, "schedules_run": 32, "distinct_states": 5},
    ("planted", "unlocked_counter"): {
        "expected": "race",
        "found": "data race on array_map3+0: write by unlocked-writer "
                 "(no locks) vs read by locked-writer (counter.lock)",
        "replay_seed": 0, "schedules_run": 32, "distinct_states": 32},
    ("race-free", "atomic_counter"): RACE_FREE,
    ("race-free", "locked_counter"): RACE_FREE,
    ("race-free", "percpu_counter"): RACE_FREE,
    ("race-free", "rcu_publish"): RACE_FREE,
}


def run_json(capsys, *argv):
    status = scenarios.main([*argv, "--json"])
    return status, json.loads(capsys.readouterr().out)


def test_race_findings_are_pinned(capsys):
    status, doc = run_json(capsys, "race")
    assert status == 0 and doc["deterministic"]
    assert {(r["variant"], r["case"]): r["detail"]
            for r in doc["results"]} == RACE


def test_fleet_rollout_signatures_are_pinned(capsys):
    status, doc = run_json(capsys, "fleet")
    assert status == 0 and doc["deterministic"]
    signatures = {r["case"]: r["signature"] for r in doc["results"]}
    assert signatures["good"] == (
        "2a56febd478a78d250dfa3d823e84de3a19fe6f28b8b3b1f9e0a49751c020a26")
    assert signatures["bad"] == (
        "3042ce180f57f512a5a967280db78cc365ef5bb31a35faa82dc267f5d63f83f3")
    # every node runs the one table the toolchain built for its release
    assert {r["case"]: r["detail"].get("predecoded_tables")
            for r in doc["results"]} == \
        {"good": 1, "bad": 1, "telemetry": None}


def test_fleet_chaos_signature_is_pinned(capsys):
    status, doc = run_json(capsys, "fleet-chaos")
    assert status == 0 and doc["deterministic"]
    assert len(doc["results"]) == 24
    assert doc["signature"] == (
        "2b84abd1b8ed9e054f503d6e032138581970ed2864a6cf3b239ca4db6aadf1ff")


#: one ``chaos`` / ``recover`` schedule's report signature: the
#: errno retries, the load-errno retries, the contained helper panics
#: and the fault-trace and audit digests folded into every case's row
CHAOS = {
    ("helper-errno", False):
        "3f8f327d5fde03da1a0bbf75ab1b10222436f39b29e0b784e01dd3edb3300191",
    ("load-chaos", False):
        "70252b76d0790932d0d320df41bc7301a0e7cefb4357f96f8dbe193e07411569",
    ("helper-errno", True):
        "6a8112eca98aafbd20d3a5dbd0f61c156474be66b13e6019e095f3655c2b8a57",
    ("load-chaos", True):
        "6acf9726682f69da8ed959847f213ee729bdb40468c6af4fbbfd5eda8a705cc3",
}


@pytest.mark.parametrize("schedule, recover", list(CHAOS),
                         ids=[f"{s}{'-recover' if r else ''}"
                              for s, r in CHAOS])
def test_chaos_schedule_signature_is_pinned(schedule, recover):
    from repro.faultinject.chaos import run_chaos
    report = run_chaos(schedules=[schedule], recover=recover)
    assert report.clean
    assert report.signature() == CHAOS[schedule, recover]


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
                        (__name__, entry, None, {}))
    assert scenarios.main(["fake"]) == 1
    assert named in capsys.readouterr().out


def test_schedule_must_belong_to_the_suite():
    with pytest.raises(SystemExit):
        scenarios.main(["race", "--schedule", "helper-errno"])
