"""Interpreter throughput and telemetry overhead (``make bench``).

Measures the predecoded fast path and the compiled tier against the
decode-per-step reference interpreter, what telemetry costs on the
fast path with stats off and on, and cold-vs-cached load rates, as
medians of interleaved rounds (``timing.py``).  Gates compare *ratios*
measured on the same host in the same run, never absolute insns/sec:

* either dispatch speedup may not drop more than 20% below
  ``benchmarks/throughput_baseline.json``; the compiled tier also
  carries an absolute floor of 8x (targeting 10x);
* **stats off** (the default, ``kernel.bpf_stats_enabled=0``) the
  fast path pays one attribute test per run, so the same dispatch
  speedup is held to 95% of ``benchmarks/obs_overhead_baseline.json``;
* **stats on** amortises per-run accounting over the whole run, so it
  may never halve throughput.

Results land in ``.benchmarks/BENCH_throughput.json`` and
``.benchmarks/BENCH_obs_overhead.json``.  Run via ``make bench``.
"""

import itertools
import json
from pathlib import Path

import pytest

from timing import (RESULTS_DIR, ROUNDS, Paired, interleave, medians,
                    paired, timed, write_results)

from repro.ebpf.asm import Asm
from repro.ebpf.isa import R0, R2, R3, R10
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.kernel import Kernel

RESULTS_PATH = RESULTS_DIR / "BENCH_throughput.json"
OBS_RESULTS_PATH = RESULTS_DIR / "BENCH_obs_overhead.json"
BASELINE_PATH = Path(__file__).with_name("throughput_baseline.json")
OBS_BASELINE_PATH = BASELINE_PATH.with_name("obs_overhead_baseline.json")

LOOP_ITERS = 2048
ENGINES = ("interp", "fast", "compiled")
#: loads per window of the load-cache arms (the cache holds 128)
LOAD_BATCH = 32


def alu_loop_prog():
    """ALU-heavy countdown loop: pure dispatch, no memory traffic."""
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


def mixed_loop_prog():
    """Loop mixing ALU, stack loads/stores and an atomic per round."""
    return (Asm()
            .st_imm(8, R10, -8, 0)
            .mov64_imm(R2, LOOP_ITERS)
            .label("loop")
            .mov64_imm(R3, 5)
            .atomic_op("add", 8, R10, -8, R3)
            .ldx(8, R0, R10, -8)
            .stx(8, R10, -16, R0)
            .alu64_imm("sub", R2, 1)
            .jmp_imm("jsgt", R2, 0, "loop")
            .ldx(8, R0, R10, -16)
            .exit_()
            .program())


def engine_arm(program, engine, kernel=None):
    """One program loaded on one engine and warmed up: an arm whose
    window is one whole run, with the insns it executed as the work."""
    bpf = BpfSubsystem(kernel or Kernel(), engine=engine)
    prog = bpf.load_program(program, ProgType.KPROBE, "bench")

    def run():
        before = bpf.vm.insns_executed
        bpf.run_on_current_task(prog)
        return bpf.vm.insns_executed - before
    run()                               # warm-up
    return lambda: timed(run)


def distinct_prog(seed):
    """A small, unique-per-seed program so every cold load misses."""
    asm = Asm().mov64_imm(R0, 0)
    for i in range(8):
        asm.alu64_imm("add", R0, seed * 31 + i)
    return asm.exit_().program()


def load_arms():
    """Cold loads of fresh programs vs cached reloads of the latest
    cold batch, on one subsystem; warmed up with one window of each,
    so hits and misses stay equal."""
    bpf = BpfSubsystem(Kernel())
    seeds = itertools.count()
    latest = []

    def load_all(programs):
        for program in programs:
            bpf.load_program(program, ProgType.KPROBE, "load")
        return len(programs)

    def cold():
        latest[:] = [distinct_prog(next(seeds))
                     for __ in range(LOAD_BATCH)]
        return timed(load_all, latest)

    cold(), load_all(latest)        # warm-up: a miss and a hit apiece
    return bpf.load_cache, {"cold": cold,
                            "cached": lambda: timed(load_all, latest)}


def speedups(rates):
    """Each engine's insns/sec and the paired ratios between them."""
    return {"insns_per_sec": medians(rates),
            "speedup": paired(rates, "fast", "interp"),
            "compiled_speedup": paired(rates, "compiled", "interp"),
            "compiled_over_fast": paired(rates, "compiled", "fast")}


@pytest.fixture(scope="module")
def results():
    """Measure every figure once; persist both JSON files."""
    stats_off, stats_on = Kernel(), Kernel()
    stats_on.telemetry.enable()
    dispatch_rates = interleave({
        "interp": engine_arm(alu_loop_prog(), "interp"),
        "fast": engine_arm(alu_loop_prog(), "fast", stats_off),
        "compiled": engine_arm(alu_loop_prog(), "compiled"),
        # stats on joins the same rounds, so its overhead is paired
        "fast_stats_on": engine_arm(alu_loop_prog(), "fast", stats_on),
    })
    mixed_rates = interleave({engine: engine_arm(mixed_loop_prog(), engine)
                              for engine in ENGINES})
    cache, arms = load_arms()
    load_rates = interleave(arms)
    res = {
        "dispatch": speedups(dispatch_rates),
        "mixed": speedups(mixed_rates),
        "load_cache": {
            "loads_per_sec": medians(load_rates),
            "load_speedup": paired(load_rates, "cached", "cold"),
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_hit_rate": cache.hit_rate,
        },
    }
    write_results(RESULTS_PATH, res)
    on_over_off = paired(dispatch_rates, "fast_stats_on", "fast")
    res["obs"] = {
        f"fast_stats_{state}": {
            "runs": ROUNDS,
            "run_cnt_recorded":
                kernel.telemetry.prog("ebpf", "bench").run_cnt}
        for state, kernel in (("off", stats_off), ("on", stats_on))}
    # the dispatch speedup above: one measurement, both baselines
    res["obs"]["stats_off_dispatch_speedup"] = res["dispatch"]["speedup"]
    # what enabling stats costs on the fast path, as a fraction
    res["obs"]["stats_on_overhead"] = Paired(
        [1 - ratio for ratio in on_over_off.values])
    write_results(OBS_RESULTS_PATH, res["obs"])
    return res


class TestThroughput:
    def test_fast_path_dispatch_speedup(self, results):
        """The predecoded engine must be >= 2x the reference on the
        pure-dispatch microbenchmark (the ISSUE's acceptance floor)."""
        results["dispatch"]["speedup"].at_least(2.0, "fast path")

    def test_compiled_dispatch_speedup(self, results):
        """The compiled tier must clear 8x over the reference on the
        pure-dispatch microbenchmark (the ISSUE targets 10x)."""
        results["dispatch"]["compiled_speedup"].at_least(
            8.0, "compiled tier")

    def test_compiled_beats_fast_path(self, results):
        """Removing slot-tuple dispatch must actually pay: the
        compiled tier may never lose to the engine it lowers."""
        results["dispatch"]["compiled_over_fast"].at_least(
            1.0, "compiled over fast")

    def test_mixed_workload_not_slower(self, results):
        """Memory-heavy code flushes the batch accounting often; it
        must still never be slower than the reference engine."""
        results["mixed"]["speedup"].at_least(1.0, "mixed fast")
        results["mixed"]["compiled_speedup"].at_least(1.0,
                                                      "mixed compiled")

    def test_no_regression_vs_baseline(self, results):
        """Refuse >20% regression of either speedup ratio against the
        committed baseline."""
        baseline = json.loads(BASELINE_PATH.read_text())
        for key, measured in (
                ("dispatch_speedup", results["dispatch"]["speedup"]),
                ("compiled_dispatch_speedup",
                 results["dispatch"]["compiled_speedup"])):
            measured.at_least(
                0.8 * baseline[key],
                f"{key} (80% of baseline {baseline[key]:.2f}x)")

    def test_cached_loads_faster_and_hit_rate_reported(self, results):
        cache = results["load_cache"]
        cache["load_speedup"].at_least(1.0, "cached over cold loads")
        assert cache["cache_hit_rate"] == pytest.approx(0.5)

    def test_results_file_written(self, results):
        written = json.loads(RESULTS_PATH.read_text())
        assert written["dispatch"]["speedup"]["median"] == \
            results["dispatch"]["speedup"].median


class TestObservabilityOverhead:
    def test_stats_off_records_nothing(self, results):
        """Sanity: with the toggle off no run stats accumulate; with
        it on every benchmark run is visible."""
        obs = results["obs"]
        assert obs["fast_stats_off"]["run_cnt_recorded"] == 0
        assert obs["fast_stats_on"]["run_cnt_recorded"] == \
            obs["fast_stats_on"]["runs"] + 1   # incl. warm-up

    def test_stats_off_no_regression_vs_baseline(self, results):
        """The <5% gate: telemetry idle must not erode the fast-path
        dispatch advantage below 95% of the committed baseline."""
        baseline = json.loads(OBS_BASELINE_PATH.read_text())
        results["obs"]["stats_off_dispatch_speedup"].at_least(
            0.95 * baseline["stats_off_dispatch_speedup"],
            f"stats-off dispatch speedup (95% of baseline "
            f"{baseline['stats_off_dispatch_speedup']:.2f}x)")

    def test_stats_on_overhead_bounded(self, results):
        """Enabling stats costs one accounting record per run,
        amortised over thousands of insns — it must never halve
        throughput."""
        results["obs"]["stats_on_overhead"].at_most(
            0.5, "stats-on overhead")

    def test_results_file_written(self, results):
        written = json.loads(OBS_RESULTS_PATH.read_text())
        assert written["stats_off_dispatch_speedup"]["median"] == \
            results["obs"]["stats_off_dispatch_speedup"].median
