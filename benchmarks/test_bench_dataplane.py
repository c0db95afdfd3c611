"""Data-plane packet-rate benchmarks (``make bench-net``).

Pushes seeded load-generator traffic through the batched XDP pipeline
on every execution tier and writes per-tier packets/sec plus virtual
tail latencies to ``.benchmarks/BENCH_dataplane.json``.

Every tier drives two planes, each fed the **same** seeded leg (175k
packets, 1.05M offered in a full run), in chunks interleaved across
the tiers (``timing.py``).  Staging a chunk onto the RX queue is the
same work on every tier and untimed; only :meth:`DataPlane.process_all`
is timed: the batch_runner critical section, the per-packet frame
fill, the program and verdict routing.  Gates, each ratio a median of
per-round ratios:

* the compiled tier is strictly the fastest;
* the two seeded planes of a tier have bit-identical signatures
  (verdicts, clock, ring contents, latency histograms);
* the fast/interp and compiled/interp pps ratios may not drop more
  than 20% below ``benchmarks/dataplane_baseline.json``.

``REPRO_BENCH_SMOKE=1`` (CI) shrinks every leg to 4k packets and skips
the >= 1M floor.  Run via ``make bench-net``.
"""

import itertools
import json
import os
from pathlib import Path

import pytest

from timing import (RESULTS_DIR, interleave, medians, paired, timed,
                    write_results)

from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.kernel import Kernel
from repro.net import DataPlane, LoadGen
from repro.net.programs import port_filter_prog

RESULTS_PATH = RESULTS_DIR / "BENCH_dataplane.json"
BASELINE_PATH = Path(__file__).with_name("dataplane_baseline.json")

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CHUNK = 64
SEED = 1
#: packets per plane; every tier drives two planes with the same leg
LEG = 175_000 if not SMOKE else 4_000
TIERS = ("interp", "fast", "compiled")


class Plane:
    """One data plane on one tier, fed its seeded leg a chunk per
    call."""

    def __init__(self, engine):
        self.kernel = Kernel()
        bpf = BpfSubsystem(self.kernel, engine=engine)
        self.plane = DataPlane(self.kernel, bpf)
        self.nic = self.plane.create_nic(1, "bench0", queue_depth=CHUNK)
        self.plane.attach(bpf.load_program(port_filter_prog(),
                                           ProgType.XDP, "bench_filter"),
                          self.nic)
        self.packets = LoadGen(self.kernel, "uniform",
                               seed=SEED).packets(LEG)
        self.processed = 0

    def chunk(self):
        """Stage the next chunk, then time processing it."""
        for packet in list(itertools.islice(self.packets, CHUNK)):
            self.nic.receive(packet)
        processed, seconds = timed(self.plane.process_all)
        self.plane.drain()
        self.processed += processed
        return processed, seconds

    def finish(self):
        """What the leg did, once it is done; shuts the plane down."""
        run = {"offered": LEG, "processed": self.processed,
               "signature": self.plane.signature(),
               "verdicts": {name: value for name, value
                            in sorted(self.plane.verdicts.items())
                            if value}}
        self.plane.shutdown()
        return run


def tier_arm(planes):
    """An arm whose window is the next chunk of each of ``planes``."""
    def window():
        (work_a, secs_a), (work_b, secs_b) = (p.chunk() for p in planes)
        return work_a + work_b, secs_a + secs_b
    return window


@pytest.fixture(scope="module")
def results():
    """Run every tier's two planes, interleaved; persist the JSON."""
    planes = {tier: (Plane(tier), Plane(tier)) for tier in TIERS}
    rates = interleave({tier: tier_arm(pair)
                        for tier, pair in planes.items()},
                       rounds=-(-LEG // CHUNK))
    res = {"smoke": SMOKE, "chunk": CHUNK}
    pps = medians(rates)
    for tier, pair in planes.items():
        hist = pair[0].kernel.telemetry.net_latency_histogram(
            pair[0].nic.name)
        runs = [plane.finish() for plane in pair]
        res[tier] = {
            "runs": runs,
            "pps": pps[tier],
            "offered": sum(run["offered"] for run in runs),
            "latency_ns": {"p50": hist.quantile(0.5),
                           "p99": hist.quantile(0.99),
                           "p999": hist.quantile(0.999),
                           "mean": hist.mean},
            "signatures_identical":
                runs[0]["signature"] == runs[1]["signature"],
        }
    res["total_offered"] = sum(res[tier]["offered"] for tier in TIERS)
    for num, den in (("fast", "interp"), ("compiled", "interp"),
                     ("compiled", "fast")):
        res[f"{num}_over_{den}"] = paired(rates, num, den)
    write_results(RESULTS_PATH, res)
    return res


class TestDataPlaneBench:
    def test_full_run_offers_a_million_packets(self, results):
        """The acceptance floor: a full (non-smoke) bench pushes at
        least 1M packets through the plane across its legs."""
        if SMOKE:
            pytest.skip("smoke mode: reduced packet counts")
        assert results["total_offered"] >= 1_000_000

    def test_every_packet_reached_a_verdict(self, results):
        for engine in TIERS:
            for run in results[engine]["runs"]:
                assert run["processed"] == run["offered"]

    def test_compiled_is_strictly_fastest(self, results):
        """The whole point of the compiled tier on the hot path."""
        results["compiled_over_fast"].at_least(1.0, "compiled/fast pps")
        results["compiled_over_interp"].at_least(1.0,
                                                 "compiled/interp pps")

    def test_seeded_repeat_is_bit_identical(self, results):
        """Same seed, same count, same tier: the full plane signature
        (verdicts, clock, rings, histograms) must not move a bit."""
        for engine in TIERS:
            assert results[engine]["signatures_identical"], engine

    def test_latency_percentiles_reported_and_ordered(self, results):
        for engine in TIERS:
            latency = results[engine]["latency_ns"]
            assert 0 < latency["p50"] <= latency["p99"] \
                <= latency["p999"]

    def test_no_regression_vs_baseline(self, results):
        """Refuse >20% regression of either pps ratio against the
        committed baseline."""
        baseline = json.loads(BASELINE_PATH.read_text())
        for key in ("fast_over_interp", "compiled_over_interp"):
            results[key].at_least(
                0.8 * baseline[key],
                f"{key} (80% of baseline {baseline[key]:.2f}x)")

    def test_results_file_written(self, results):
        written = json.loads(RESULTS_PATH.read_text())
        assert written["compiled"]["pps"] == results["compiled"]["pps"]
        assert written["total_offered"] == results["total_offered"]
