"""The benchmark's own tests: output contract, exact-repeat counts,
tracer self-test and the load_churn pool's known answers.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Each workload run is a fresh ``perfbench/run.py`` process with
``--seconds 1``, as the benchmark is run for real."""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    OTHER, TIMED, Tracer, installed_wrappers, missing_entry_points,
    self_test)
from perfbench.workloads import (  # noqa: E402
    WORKLOADS as BENCH_WORKLOADS, Windows, reference_slice,
    tracked_allocations)

WORKLOADS = ("xdp_firewall", "load_churn", "fleet_rollout")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, seed: int = 1, trace: int = 0,
           cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=str(cwd))


def parse(proc: subprocess.CompletedProcess):
    """(result line, detail report) of a finished run."""
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith(bench.DETAIL)
    return json.loads(lines[-1]), json.loads(lines[-2][len(bench.DETAIL):])


@pytest.fixture(scope="module")
def runs():
    """Two untraced runs and one traced run per workload, seed 1."""
    return {w: [parse(invoke(w)), parse(invoke(w)),
                parse(invoke(w, trace=1))] for w in WORKLOADS}


def test_result_line_has_every_metric(runs):
    """Last line: exactly the contract's keys, every end-to-end metric
    untraced and every per-layer metric traced, no failures."""
    for workload, (first, __, traced) in runs.items():
        for result, key in ((first, "end_to_end"), (traced, "per_layer")):
            body, __ = result
            assert set(body) == {"correct", "attempted", "failed",
                                 "metrics"}
            assert body["correct"] is True, (workload, result[1]["failures"])
            assert body["failed"] == 0 and body["attempted"] >= 1
            assert set(body["metrics"]) == {m["name"] for m in SPEC[key]}
            for metric in SPEC[key]:
                assert body["metrics"][metric["name"]]["unit"] \
                    == metric["unit"]
        assert all(value["value"] > 0
                   for value in first[0]["metrics"].values())


def test_counts_repeat_exactly(runs):
    """Two runs of one seed agree on every count; so does the traced
    run, so tracing changes no behaviour."""
    for workload, (first, second, traced) in runs.items():
        counts = first[1]["counts"]
        assert counts == second[1]["counts"], workload
        assert counts == traced[1]["counts"], workload
        assert traced[1]["untraced"]["counts"] == counts, workload
        assert counts["ebpf.interpreter.insns"] > 0


def test_trace_covers_the_timed_wall(runs):
    """The spans account for >= 90% of each timed window, and the
    wrapper cost and slowdown are reported."""
    for workload, (__, __, traced) in runs.items():
        metrics = traced[0]["metrics"]
        assert metrics["trace.untraced_share"]["value"] <= 0.10, workload
        assert metrics["trace.empty_span_ns"]["value"] > 0
        assert metrics["trace.overhead"]["value"] > 0


def test_setup_spans_stay_out_of_the_timed_shares(runs):
    """Set-up work is a share of the set-up wall, never of the timed
    one, so faster timed work cannot make a set-up span look worse."""
    metrics = runs["fleet_rollout"][2][0]["metrics"]
    for span in ("ebpf.helpers.registry_build", "kernel.boot"):
        assert metrics[f"{span}.setup_pct"]["value"] > 0, span
        assert metrics[f"{span}.busy_pct"]["value"] == 0, span
    # ring drains run between timed windows
    xdp = runs["xdp_firewall"][2][0]["metrics"]
    assert xdp["net.pipeline.drain.calls"]["value"] > 0
    assert xdp["net.pipeline.drain.busy_pct"]["value"] == 0


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_root_span_self_time_is_uncovered():
    """When the timed callable is itself a span, only the spans below
    it cover the window; otherwise the outermost spans do."""
    tracer = Tracer()
    child = tracer.wrap("kernel.clock.work", lambda: busy(0.004))

    def work():
        busy(0.004)
        child()

    root = tracer.wrap("net.pipeline.process", work)
    windows = Windows(tracer)
    windows.time(root)
    below_root = tracer.window_coverage()
    windows.time(lambda: root())
    under_plain = tracer.window_coverage() - below_root
    assert 0.3 < below_root / under_plain < 0.7
    assert tracer.phase == OTHER
    assert tracer.entries(TIMED) == 4


def test_workloads_drive_their_layers(runs):
    """Each workload's main layers are busy in its traced run."""
    expect = {
        "xdp_firewall": ("net.pipeline.process", "net.nic.fill",
                         "ebpf.maps.ring_output", "ebpf.helpers.call"),
        "load_churn": ("ebpf.verifier.verify", "ebpf.progcache.lookup",
                       "ebpf.jit.compile", "ebpf.predecode.decode"),
        "fleet_rollout": ("fleet.orchestrator.rollout",
                          "fleet.transport.call", "fleet.node.deploy",
                          "recovery.dispatch", "kernel.hooks.deliver"),
    }
    for workload, spans in expect.items():
        metrics = runs[workload][2][0]["metrics"]
        for span in spans:
            assert metrics[f"{span}.calls"]["value"] > 0, (workload, span)
            assert metrics[f"{span}.busy_pct"]["value"] > 0, (workload,
                                                               span)


def test_tracer_restores_every_original():
    assert self_test() is None
    assert installed_wrappers() == []
    assert missing_entry_points() == []


def test_reference_slice_is_blind_to_the_heap():
    """The host-speed reference allocates nothing the garbage collector
    tracks, so a program's heap cannot slow it down."""
    gc.disable()
    try:
        before = gc.get_count()[0]
        reference_slice()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


def test_tracked_allocations_survive_a_rework_of_the_index():
    """Without the private index the live allocations are counted."""
    class Reworked:
        def live_allocations(self):
            return [object()] * 3

    assert tracked_allocations(Reworked()) == 3


def test_load_stream_meets_its_hit_ratio(runs):
    """The Zipf exponent gives the target hit ratio over a run of the
    contract's length, and the cache model matches the program's load
    cache exactly on the 1-second runs."""
    churn = BENCH_WORKLOADS["load_churn"]
    count = round(SPEC["run_seconds"] * churn.units_per_second) + 1
    for seed in (1, 2, 3):
        ratio = churn.modeled_hit_ratio(churn.ranks(seed, count))
        assert abs(ratio - churn.target_hit_ratio) < 0.01, (seed, ratio)
    report = runs["load_churn"][0][1]
    counts = report["counts"]
    lookups = counts["ebpf.progcache.hits"] + counts["ebpf.progcache.misses"]
    assert counts["ebpf.progcache.hits"] / lookups \
        == report["extra"]["modeled_hit_ratio"]


def test_refuses_a_tree_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files it exits
    non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    proc = invoke("xdp_firewall", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_pool_answers_are_right():
    """Every load_churn program gets its known verdict and return."""
    from perfbench import pool
    from repro.ebpf.loader import BpfSubsystem
    from repro.errors import VerifierError
    from repro.kernel import Kernel

    kernel = Kernel(nr_cpus=2)
    bpf = BpfSubsystem(kernel)
    stats = bpf.create_map("array", key_size=4, value_size=8,
                           max_entries=4)
    devmap = bpf.create_map("devmap", max_entries=4)
    programs = pool.build_pool(7, stats.map_fd, devmap.map_fd)
    assert len(programs) > 128
    for prog in programs:
        try:
            loaded = bpf.load_program(prog.insns, prog.prog_type, prog.name)
        except VerifierError:
            assert not prog.accepted, prog.name
            continue
        assert prog.accepted, prog.name
        if prog.kind == "xdp":
            for port in pool.PORTS:
                assert bpf.run_on_packet(loaded, pool.packet(port, 5)) \
                    == prog.verdict(port, 5), prog.name
        else:
            assert bpf.run_on_current_task(loaded) == prog.returns
