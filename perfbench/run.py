"""The repo benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload xdp_firewall --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics in this process with no wrapper installed, each time scaled to
a reference host speed (``workloads.HostSpeed``).  ``--trace 1`` first
runs the same workload untraced in a fresh child process, then again
here with a span around every layer's entry points, and prints the
per-layer metrics.  Either way the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit); the line before it is ``perfbench-detail``
followed by the full report as JSON.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("slow_path_p50_ms", "ms"),
    ("fast_path_p50_ms", "ms"),
)

#: counts every traced run reports (0 where a workload has none)
COUNTS = (
    "ebpf.interpreter.insns", "ebpf.interpreter.helper_calls",
    "kernel.memory.tracked_end", "ebpf.maps.ring_refused",
    "ebpf.progcache.hits", "ebpf.progcache.misses",
    "ebpf.verifier.rejects", "ebpf.verifier.insns_processed",
    "ebpf.verifier.states_explored", "fleet.transport.rpcs",
    "fleet.transport.attempts", "recovery.contained",
)

DETAIL = "perfbench-detail "

#: most of a timed window the layer spans may leave uncovered
MAX_UNTRACED_SHARE = 0.10


def run_pass(workload: object, seed: int, seconds: int,
             tracer: Optional[object] = None) -> Dict[str, object]:
    """Set up, run and check one workload; returns the pass report.

    Set-up is repeated ``workload.setup_repeats`` times (once under a
    tracer) and the last build is the one measured."""
    from perfbench.tracer import OTHER, SETUP
    from perfbench.workloads import HostSpeed, Windows, summarize

    units = max(1, round(seconds * workload.units_per_second))
    builds: List[float] = []
    scaled_builds: List[float] = []
    host = HostSpeed()
    # the first build's speed is a median of as many samples as later
    for __ in range(host.recent - 1):
        host.sample()
    system = None
    for __ in range(1 if tracer else workload.setup_repeats):
        system = None
        gc.collect()
        host.sample()
        if tracer:
            tracer.phase = SETUP
        start = time.perf_counter()
        system = workload.build(seed)
        builds.append(time.perf_counter() - start)
        if tracer:
            tracer.phase = OTHER
        # at the host speed sampled just before the build
        scaled_builds.append(builds[-1] * host.factor())
    windows = Windows(tracer, host)
    out = workload.run(system, seed, units, windows)
    restored = tracer.remove() if tracer else []
    counts = dict.fromkeys(COUNTS, 0)
    counts.update(workload.counts(system, out))
    failures = workload.check(system, out, seed, seconds)
    if restored:
        failures.append(f"tracer did not restore {restored}")
    # every time at the reference host speed (see HostSpeed)
    end_to_end = {
        "setup_s": statistics.median(scaled_builds),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "throughput_per_s": out["done"] / windows.scaled_s,
        "slow_path_p50_ms": statistics.median(out["slow_ms"]),
        "fast_path_p50_ms": statistics.median(out["fast_ms"]),
    }
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "units": units, "end_to_end": end_to_end,
        "host": {"timed_factor": windows.scaled_s / windows.total_s,
                 "reference_ns": summarize(host.samples_ns)},
        "setup_builds_s": builds, "setup_scaled_s": scaled_builds,
        "timed_s": windows.total_s, "timed_scaled_s": windows.scaled_s,
        "slow_path_ms": summarize(out["slow_ms"]),
        "fast_path_ms": summarize(out["fast_ms"]),
        "attempted": out["attempted"], "failed": out["failed"],
        "failures": failures, "counts": counts,
        "gc": {"collections": out["gc"].collections,
               "pause_s": out["gc"].pause_s},
        "extra": out.get("extra", {}),
    }


def environment() -> Dict[str, object]:
    """Python, source revision, CPU count and the default engine."""
    from repro.ebpf.loader import BpfSubsystem
    from repro.kernel import Kernel

    try:
        if not (ROOT / ".git").exists():
            raise FileNotFoundError("not a git checkout")
        revision = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        # a plain copy of the tree: name the sources by their hash
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
        revision = f"src-sha256:{digest.hexdigest()[:16]}"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "revision": revision,
        "nproc": os.cpu_count(),
        "engine": BpfSubsystem(Kernel(nr_cpus=1)).vm.engine,
    }


def untraced(workload: object, seed: int, seconds: int
             ) -> Dict[str, object]:
    """One pass with every entry point asserted unwrapped."""
    from perfbench.tracer import installed_wrappers

    report = run_pass(workload, seed, seconds)
    wrapped = installed_wrappers()
    if wrapped:
        report["failures"].append(f"wrappers installed: {wrapped}")
    report["metrics"] = {name: (report["end_to_end"][name], unit)
                         for name, unit in END_TO_END}
    return report


def traced(workload: object, seed: int, seconds: int
           ) -> Dict[str, object]:
    """The untraced pass in a child process, then a traced pass here;
    returns the traced report with per-layer metrics."""
    from perfbench.tracer import (
        PHASES, SETUP, SPAN_NAMES, TIMED, Tracer, calibrate)

    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload.name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=150, cwd=str(ROOT))
    details = [line for line in child.stdout.splitlines()
               if line.startswith(DETAIL)]
    if child.returncode != 0 or not details:
        raise RuntimeError(f"untraced pass failed ({child.returncode}): "
                           f"{child.stderr[-2000:]}")
    base = json.loads(details[-1][len(DETAIL):])

    before = calibrate()
    tracer = Tracer()
    tracer.install()
    try:
        report = run_pass(workload, seed, seconds, tracer)
    finally:
        tracer.remove()
    # the host's speed drifts: take the wrapper's cost on both sides
    after = calibrate()
    wrapper_ns = tracer.wrapper_ns = (before[0] + after[0]) / 2
    tracer.wrapper_inner_ns = (before[1] + after[1]) / 2
    report["untraced"] = base
    for key in COUNTS:
        if report["counts"][key] != base["counts"][key]:
            report["failures"].append(
                f"count {key}: traced {report['counts'][key]} != "
                f"untraced {base['counts'][key]}")
    report["failures"] += base["failures"]
    if tracer.missing:
        print(f"perfbench: entry points not in the program, their spans "
              f"stay empty: {tracer.missing}", file=sys.stderr)

    # a span's timed-window time as a share of the timed wall, and its
    # set-up time as a share of the set-up wall, both less wrapper cost
    timed_ns = (report["timed_s"] * 1e9
                - tracer.entries(TIMED) * wrapper_ns)
    setup_ns = (report["setup_builds_s"][0] * 1e9
                - tracer.entries(SETUP) * wrapper_ns)
    spans = tracer.report()
    metrics: Dict[str, tuple] = {}
    for name in SPAN_NAMES:
        timed, setup = spans[name]["timed"], spans[name]["setup"]
        metrics[f"{name}.calls"] = (
            sum(spans[name][phase]["calls"] for phase in PHASES), "count")
        metrics[f"{name}.busy_pct"] = (
            100 * timed["busy_s"] * 1e9 / timed_ns, "%")
        metrics[f"{name}.self_pct"] = (
            100 * timed["self_s"] * 1e9 / timed_ns, "%")
        metrics[f"{name}.setup_pct"] = (
            100 * setup["busy_s"] * 1e9 / setup_ns, "%")
    counts = report["counts"]
    for key in COUNTS:
        metrics[key] = (counts[key], "count")
    lookups = counts["ebpf.progcache.hits"] + counts["ebpf.progcache.misses"]
    metrics["ebpf.progcache.hit_ratio"] = (
        counts["ebpf.progcache.hits"] / lookups if lookups else 0.0,
        "ratio")
    metrics["runtime.gc_collections"] = (base["gc"]["collections"],
                                         "count")
    metrics["runtime.gc_pause_s"] = (base["gc"]["pause_s"], "s")
    untraced_share = 1 - tracer.window_coverage() / timed_ns
    if untraced_share > MAX_UNTRACED_SHARE:
        report["failures"].append(
            f"spans cover only {1 - untraced_share:.1%} of the timed "
            f"wall (at least {1 - MAX_UNTRACED_SHARE:.0%} required)")
    metrics["trace.untraced_share"] = (untraced_share, "ratio")
    metrics["trace.overhead"] = (
        report["timed_scaled_s"] / base["timed_scaled_s"], "ratio")
    metrics["trace.empty_span_ns"] = (wrapper_ns, "ns")
    report["timed_corrected_s"] = timed_ns / 1e9
    report["setup_corrected_s"] = setup_ns / 1e9
    report["missing_entry_points"] = tracer.missing
    report["spans"] = spans
    report["metrics"] = metrics
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run = traced if args.trace else untraced
    report = run(workload, args.seed, args.seconds)
    report["environment"] = environment()

    print(f"{workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {report['environment']}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    for failure in report["failures"]:
        print(f"  FAIL: {failure}")
    report["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit)
                         in report["metrics"].items()}
    print(DETAIL + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
