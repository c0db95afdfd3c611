"""Observability overhead benchmark (``make bench``).

Measures what the telemetry subsystem costs on the dispatch hot path,
in both of its states:

* **stats off** (the default, ``kernel.bpf_stats_enabled=0``): the
  fast-path engine pays a single attribute test per invocation.  The
  regression gate holds this path to within 5% of the committed
  baseline ratio — landing telemetry must not tax users who never
  turn it on.
* **stats on**: per-run accounting (run_cnt, run_time_ns, insns,
  trace event) is amortised over the whole program run, so even the
  enabled path must stay within a loose factor of the disabled one.

As with the throughput bench, gates compare *ratios* measured on the
same host in the same run (stats-off fast / stats-off slow), never
absolute insns/sec, so they are machine-independent.  Results land in
``BENCH_obs_overhead.json`` at the repo root.
"""

import json
import time
from pathlib import Path

import pytest

from repro.ebpf.asm import Asm
from repro.ebpf.isa import R0, R2
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.kernel import Kernel

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_obs_overhead.json"
BASELINE_PATH = Path(__file__).resolve().parent / \
    "obs_overhead_baseline.json"

MIN_SECONDS = 0.4
LOOP_ITERS = 2048


def alu_loop_prog():
    """Same pure-dispatch countdown shape as the throughput bench."""
    return (Asm()
            .mov64_imm(R0, 0)
            .mov64_imm(R2, LOOP_ITERS)
            .label("loop")
            .alu64_imm("add", R0, 3)
            .alu64_imm("xor", R0, 7)
            .alu64_imm("sub", R2, 1)
            .jmp_imm("jsgt", R2, 0, "loop")
            .exit_()
            .program())


def measure(engine, stats_enabled):
    """Insns/sec for one engine with telemetry on or off."""
    kernel = Kernel()
    if stats_enabled:
        kernel.telemetry.enable()
    bpf = BpfSubsystem(kernel, engine=engine)
    prog = bpf.load_program(alu_loop_prog(), ProgType.KPROBE, "bench")
    bpf.run_on_current_task(prog)       # warm-up
    executed_before = bpf.vm.insns_executed
    runs = 0
    start = time.perf_counter()
    while True:
        bpf.run_on_current_task(prog)
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_SECONDS and runs >= 3:
            break
    insns = bpf.vm.insns_executed - executed_before
    return {"insns_per_sec": insns / elapsed,
            "runs": runs,
            "seconds": elapsed,
            "run_cnt_recorded":
                kernel.telemetry.prog("ebpf", "bench").run_cnt}


@pytest.fixture(scope="module")
def results():
    """Measure all four corners once, persist the JSON."""
    fast_off = measure("fast", stats_enabled=False)
    fast_on = measure("fast", stats_enabled=True)
    slow_off = measure("interp", stats_enabled=False)
    res = {
        "fast_stats_off": fast_off,
        "fast_stats_on": fast_on,
        "slow_stats_off": slow_off,
        # the gated ratio: fast/slow with telemetry idle, comparable
        # with the committed baseline across hosts
        "stats_off_dispatch_speedup":
            fast_off["insns_per_sec"] / slow_off["insns_per_sec"],
        # what enabling stats costs on the fast path, as a fraction
        "stats_on_overhead":
            1 - fast_on["insns_per_sec"] / fast_off["insns_per_sec"],
    }
    RESULTS_PATH.write_text(json.dumps(res, indent=2) + "\n")
    return res


class TestObservabilityOverhead:
    def test_stats_off_records_nothing(self, results):
        """Sanity: with the toggle off no run stats accumulate; with
        it on every benchmark run is visible."""
        assert results["fast_stats_off"]["run_cnt_recorded"] == 0
        assert results["fast_stats_on"]["run_cnt_recorded"] == \
            results["fast_stats_on"]["runs"] + 1   # incl. warm-up

    def test_stats_off_no_regression_vs_baseline(self, results):
        """The <5% gate: telemetry idle must not erode the fast-path
        dispatch advantage below 95% of the committed baseline."""
        baseline = json.loads(BASELINE_PATH.read_text())
        floor = 0.95 * baseline["stats_off_dispatch_speedup"]
        speedup = results["stats_off_dispatch_speedup"]
        assert speedup >= floor, (
            f"stats-off dispatch speedup {speedup:.2f}x regressed "
            f"below {floor:.2f}x (95% of baseline "
            f"{baseline['stats_off_dispatch_speedup']:.2f}x)")

    def test_stats_on_overhead_bounded(self, results):
        """Enabling stats costs one accounting record per run,
        amortised over thousands of insns — it must never halve
        throughput."""
        assert results["stats_on_overhead"] < 0.5, (
            f"stats-on overhead "
            f"{results['stats_on_overhead']:.1%} is runaway")

    def test_results_file_written(self, results):
        written = json.loads(RESULTS_PATH.read_text())
        assert written["stats_off_dispatch_speedup"] == \
            results["stats_off_dispatch_speedup"]
