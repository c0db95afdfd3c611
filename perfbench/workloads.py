"""The three workloads and the measurement pass that drives them.

Each workload is a closed loop with one client.  The work a run does is
fixed by ``--seconds`` (a calibrated number of units per second), so a
run measures about that long on a 2-vCPU VM, two runs of one seed do
identical work, and memory is compared at equal work.

A pass builds the system several times (``setup_s`` is the median),
keeps the last build, generates the inputs from the seed, warms up
untimed, runs ``gc.collect()`` and then times each operation.  GC stays
enabled inside the timed windows: the garbage the code makes is part of
its cost.

Every workload times two kinds of operation, a slow path and a fast
path, and reports the median of each:

============  ==============================  ===========================
workload      slow path                       fast path
============  ==============================  ===========================
xdp_firewall  packets that take the map-      packets decided from the
              lookup helper (per packet)      header alone (per packet)
load_churn    accepted loads that miss the    loads that hit the load
              load cache                      cache
fleet_rollout a good release, rollout() to    a bad release, rollout()
              100% converged                  to every node restored
============  ==============================  ===========================
"""

from __future__ import annotations

import gc
import itertools
import json
import statistics
import time
from collections import OrderedDict
from pathlib import Path
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from repro.ebpf.asm import Asm
from repro.ebpf.helpers import ids
from repro.ebpf.isa import R0, R6
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.errors import VerifierError
from repro.fleet.adapters.sim import EXTENSION, build_scenario
from repro.kernel import Kernel
from repro.net import DataPlane, LoadGen
from repro.net.loadgen import BLOCKED_PORT, HEADER
from repro.net.programs import XDP_PASS, firewall_prog, port_filter_prog

from perfbench import pool

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, the highest percentile with at least ten samples beyond
    it, and the sample count."""
    out: Dict[str, float] = {"n": len(values)}
    if values:
        out["p50"] = statistics.median(values)
        for q in (99.9, 99, 90):
            if len(values) * (100 - q) / 100 >= 10:
                out[f"p{q:g}"] = percentile(values, q)
                break
    return out


#: one reference slice's time, in ns, on the 2-vCPU VM the bounds were
#: set on; measured times are scaled to this host speed
REFERENCE_NS = 900_000


def reference_slice() -> int:
    """Fixed pure-Python arithmetic.  It allocates nothing the garbage
    collector tracks and touches no program state, so its time follows
    the host's speed and not the program's heap or code."""
    total = 0
    for i in range(10_000):
        total += i * i % 7
    return total


class HostSpeed:
    """The host's speed during a pass, from reference slices run before
    each set-up build and at least every 100 ms between timed windows.

    The 2-vCPU host's speed drifts by 20-40% over minutes and swings
    within seconds, for every process alike; scaling each time by the
    :meth:`factor` of the moment takes that out of run-to-run
    comparisons.  A change to the program cannot move the reference."""

    interval_s = 0.1
    #: latest samples the current speed is the median of
    recent = 5

    def __init__(self) -> None:
        self.samples_ns: List[int] = []
        self._last = 0.0

    def sample(self) -> None:
        start = time.perf_counter_ns()
        reference_slice()
        self.samples_ns.append(time.perf_counter_ns() - start)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.interval_s:
            self.sample()

    def factor(self) -> float:
        """Reference time over the median of the latest slice times:
        below 1 while the host is slower.  Multiply a time by it."""
        return REFERENCE_NS / statistics.median(
            self.samples_ns[-self.recent:])


class Windows:
    """Times operations; marks each one as a timed window for the
    tracer when one is installed, and samples the host's speed between
    windows."""

    def __init__(self, tracer: Optional[object] = None,
                 host: Optional[HostSpeed] = None) -> None:
        self.tracer = tracer
        self.host = host
        #: wall time of all windows, as measured
        self.total_s = 0.0
        #: the same at the reference host speed
        self.scaled_s = 0.0
        #: host-speed factor applied to the latest window
        self.factor = 1.0

    def time(self, fn: Callable, *args: object) -> Tuple[object, float]:
        """``fn(*args)`` and its wall time in seconds, scaled to the
        reference host speed when the host is sampled."""
        tracer = self.tracer
        if tracer is not None:
            tracer.open_window(fn)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.close_window()
            self.total_s += elapsed
        if self.host is not None:
            self.factor = self.host.factor()
            self.host.maybe_sample()
        elapsed *= self.factor
        self.scaled_s += elapsed
        return result, elapsed


class GcMonitor:
    """Counts collections and their pause time through ``gc.callbacks``
    while entered."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._start = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._start

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)


def tracked_allocations(mem: object) -> int:
    """Allocations the address space still indexes, freed ones included.

    The index is private to ``KernelAddressSpace``; when a rework of
    checked memory removes it, the live allocations are counted
    instead, so the count moves rather than the run failing."""
    index = getattr(mem, "_by_base", None)
    if index is None:
        return len(mem.live_allocations())
    return len(index)


def subsystem_counts(subsystems: List[BpfSubsystem]) -> Dict[str, int]:
    """Counts of the eBPF and memory layers, summed over subsystems.
    Verifier work is summed over accepted loads that missed the cache
    (a rejection raises before its stats reach the caller)."""
    counts = dict.fromkeys(
        ("ebpf.interpreter.insns", "ebpf.interpreter.helper_calls",
         "kernel.memory.tracked_end", "ebpf.progcache.hits",
         "ebpf.progcache.misses", "ebpf.verifier.insns_processed",
         "ebpf.verifier.states_explored"), 0)
    for bpf in subsystems:
        counts["ebpf.interpreter.insns"] += bpf.vm.insns_executed
        counts["ebpf.interpreter.helper_calls"] += bpf.vm.helper_calls
        counts["kernel.memory.tracked_end"] += \
            tracked_allocations(bpf.kernel.mem)
        if bpf.load_cache is not None:
            counts["ebpf.progcache.hits"] += bpf.load_cache.hits
            counts["ebpf.progcache.misses"] += bpf.load_cache.misses
        for prog in bpf.all_progs():
            stats = prog.verifier_stats
            if not stats.from_cache:
                counts["ebpf.verifier.insns_processed"] += \
                    stats.insns_processed
                counts["ebpf.verifier.states_explored"] += \
                    stats.states_explored
    return counts


# -- xdp_firewall ---------------------------------------------------------


class XdpFirewall:
    """Seeded heavy-hitter traffic of 32-byte packets through the
    firewall on a 2-CPU DataPlane (2 RX queues, one ring per CPU).

    Packets are staged untimed, a chunk at a time.  Each chunk is split
    into the packets the firewall decides from the header alone and the
    ones that take the map-lookup helper (source 3, not the blocked
    port), preserving order within each part; each part is one timed
    ``process_all`` call, and the rings are drained between calls.  The
    benchmark models the firewall's verdicts itself while staging."""

    name = "xdp_firewall"
    #: packets per second of --seconds
    units_per_second = 17_000
    setup_repeats = 25
    chunk = 512

    def build(self, seed: int) -> Dict[str, object]:
        kernel = Kernel(nr_cpus=2)
        bpf = BpfSubsystem(kernel)
        plane = DataPlane(kernel, bpf)
        nic = plane.create_nic(1, "fw0", queue_depth=self.chunk)
        stats = bpf.create_map("array", key_size=4, value_size=8,
                               max_entries=4)
        prog = bpf.load_program(firewall_prog(stats.map_fd),
                                ProgType.XDP, "firewall")
        plane.attach(prog, nic)
        return {"bpf": bpf, "plane": plane, "nic": nic}

    def run(self, system: Dict[str, object], seed: int, units: int,
            windows: Windows) -> Dict[str, object]:
        plane, nic = system["plane"], system["nic"]
        packets = LoadGen(system["bpf"].kernel, "heavy_hitter",
                          seed=seed).packets(units + self.chunk)
        model = {"drop": 0, "pass": 0}
        elephant = 0
        delivered = 0
        per_packet: Dict[str, List[float]] = {"helper": [], "header": []}

        def process(chunk: List[bytes], timed: bool) -> None:
            nonlocal elephant, delivered
            parts: Dict[str, List[bytes]] = {"header": [], "helper": []}
            for payload in chunk:
                port, src = HEADER.unpack_from(payload)
                if port == BLOCKED_PORT:
                    model["drop"] += 1
                    parts["header"].append(payload)
                elif src == 3:
                    elephant += 1
                    model["drop" if elephant % 4 == 0 else "pass"] += 1
                    parts["helper"].append(payload)
                else:
                    model["pass"] += 1
                    parts["header"].append(payload)
            for path, part in parts.items():
                if not part:
                    continue
                for payload in part:
                    nic.receive(payload)
                if timed:
                    __, elapsed = windows.time(plane.process_all)
                    per_packet[path].append(elapsed * 1e3 / len(part))
                else:
                    plane.process_all()
                delivered += len(plane.drain())

        # warm-up: the first chunk, untimed
        process(list(itertools.islice(packets, self.chunk)), False)
        gc.collect()
        with GcMonitor() as gc_stats:
            for chunk in iter(lambda: list(itertools.islice(
                    packets, self.chunk)), []):
                process(chunk, True)
        return {"attempted": units, "done": units,
                "offered": units + self.chunk, "model": model,
                "delivered": delivered,
                "slow_ms": per_packet["helper"],
                "fast_ms": per_packet["header"], "gc": gc_stats}

    def check(self, system: Dict[str, object], out: Dict[str, object],
              seed: int, seconds: int) -> List[str]:
        plane, nic = system["plane"], system["nic"]
        failures = []
        if plane.processed != out["offered"] or nic.pending() \
                or nic.rx_drops:
            failures.append(
                f"{plane.processed} of {out['offered']} packets reached "
                f"a verdict (rx drops {nic.rx_drops})")
        verdicts = {k: v for k, v in plane.verdicts.items() if v}
        if verdicts != {k: v for k, v in out["model"].items() if v}:
            failures.append(f"verdicts {verdicts} != model {out['model']}")
        if out["delivered"] + plane.delivery_drops != verdicts.get("pass"):
            failures.append(
                f"{out['delivered']} delivered + {plane.delivery_drops} "
                f"refused != {verdicts.get('pass')} passed")
        expected = json.loads(EXPECTED_PATH.read_text()).get(
            self.name, {}).get(f"seed={seed},seconds={seconds}")
        got = {"verdicts": verdicts, "signature": plane.signature()}
        if expected is not None and got != expected:
            failures.append(f"outputs {got} != committed {expected}")
        out["extra"] = {"outputs": got}
        out["failed"] = (abs(out["offered"] - plane.processed)
                         + sum(abs(verdicts.get(k, 0) - v)
                               for k, v in out["model"].items()))
        return failures

    def counts(self, system: Dict[str, object],
               out: Dict[str, object]) -> Dict[str, int]:
        counts = subsystem_counts([system["bpf"]])
        counts["ebpf.maps.ring_refused"] = system["plane"].delivery_drops
        return counts


# -- load_churn -----------------------------------------------------------


class LoadChurn:
    """A seeded stream of load requests with Zipf popularity over a
    pool of distinct programs, larger than the 128-entry load cache,
    on one long-lived 2-CPU kernel.  Every map exists from set-up on,
    so the maps part of the load-cache key never changes.  Each
    accepted load is followed by runs: ``run_on_current_task`` for
    KPROBE programs and ``run_on_packet`` for XDP programs."""

    name = "load_churn"
    #: requests per second of --seconds
    units_per_second = 460
    setup_repeats = 25
    #: hits per cache lookup the stream is built for: the share of
    #: loads that hit the cache in the prototype this workload was
    #: sized on
    target_hit_ratio = 0.79
    #: Zipf exponent of program popularity, solved with
    #: :meth:`modeled_hit_ratio` for ``target_hit_ratio`` over the
    #: 9,201 requests of a 20 s run (seeds 1-5 give 0.787-0.792)
    zipf = 0.985
    #: runs after each accepted load ("a few"; two make a cost moved
    #: from run time into load time show on both sides)
    runs_per_load = 2

    def build(self, seed: int) -> Dict[str, object]:
        kernel = Kernel(nr_cpus=2)
        bpf = BpfSubsystem(kernel)
        stats = bpf.create_map("array", key_size=4, value_size=8,
                               max_entries=4)
        devmap = bpf.create_map("devmap", max_entries=4)
        return {"bpf": bpf, "stats_fd": stats.map_fd,
                "devmap_fd": devmap.map_fd}

    def ranks(self, seed: int, count: int,
              zipf: Optional[float] = None) -> List[int]:
        """The popularity rank of each request, in order: each program
        is requested a fixed number of times in proportion to its Zipf
        weight, in a seeded order, so seeds change the order and the
        contents, not the mix."""
        size = len(pool.layout())
        exponent = self.zipf if zipf is None else zipf
        weights = [1 / (rank + 1) ** exponent for rank in range(size)]
        total = sum(weights)
        shares = [count * weight / total for weight in weights]
        quota = [int(share) for share in shares]
        by_remainder = sorted(range(size),
                              key=lambda i: quota[i] - shares[i])
        for index in by_remainder[:count - sum(quota)]:
            quota[index] += 1
        order = [rank for rank, n in enumerate(quota) for __ in range(n)]
        Random(f"load_churn-stream:{seed}").shuffle(order)
        return order

    @staticmethod
    def modeled_hit_ratio(ranks: List[int]) -> float:
        """Hits per lookup of an LRU cache of the load cache's size fed
        ``ranks``, where rejected programs miss and are not cached."""
        accepted = pool.accepted_by_rank()
        cache: "OrderedDict[int, None]" = OrderedDict()
        hits = 0
        for rank in ranks:
            if rank in cache:
                cache.move_to_end(rank)
                hits += 1
            elif accepted[rank]:
                cache[rank] = None
                if len(cache) > pool.CACHE_ENTRIES:
                    cache.popitem(last=False)
        return hits / len(ranks)

    def requests(self, system: Dict[str, object], seed: int,
                 count: int) -> List[Tuple[pool.PoolProgram, list]]:
        """The request stream: (program, packets for its runs)."""
        programs = pool.build_pool(seed, system["stats_fd"],
                                   system["devmap_fd"])
        rng = Random(f"load_churn-packets:{seed}")
        return [(programs[rank],
                 [(rng.choice(pool.PORTS), rng.choice(pool.SOURCES))
                  for __ in range(self.runs_per_load)]
                 if programs[rank].kind == "xdp" else [])
                for rank in self.ranks(seed, count)]

    def run(self, system: Dict[str, object], seed: int, units: int,
            windows: Windows) -> Dict[str, object]:
        bpf = system["bpf"]
        stream = self.requests(system, seed, units + 1)
        loads: Dict[str, List[float]] = {"cold": [], "cached": [],
                                         "all": []}
        rejects = 0
        wrong: List[str] = []

        def request(prog: pool.PoolProgram,
                    packets: list) -> Tuple[str, float]:
            """(kind of load, its ms) after the load and its runs."""
            start = time.perf_counter()
            try:
                loaded = bpf.load_program(prog.insns, prog.prog_type,
                                          prog.name)
            except VerifierError:
                if prog.accepted:
                    wrong.append(f"{prog.name} rejected")
                return "rejected", (time.perf_counter() - start) * 1e3
            elapsed = (time.perf_counter() - start) * 1e3
            kind = "cached" if loaded.verifier_stats.from_cache else "cold"
            if not prog.accepted:
                wrong.append(f"{prog.name} accepted")
            if prog.kind == "xdp":
                for port, src in packets:
                    got = bpf.run_on_packet(loaded, pool.packet(port, src))
                    if got != prog.verdict(port, src):
                        wrong.append(f"{prog.name} ({port},{src}) -> {got}")
            else:
                for __ in range(self.runs_per_load):
                    got = bpf.run_on_current_task(loaded)
                    if got != prog.returns:
                        wrong.append(f"{prog.name} returned {got}")
            return kind, elapsed

        # warm-up: the stream's first request, untimed
        kind, __ = request(*stream[0])
        rejects += kind == "rejected"
        gc.collect()
        with GcMonitor() as gc_stats:
            for prog, packets in stream[1:]:
                (kind, load_ms), __ = windows.time(request, prog, packets)
                load_ms *= windows.factor
                loads["all"].append(load_ms)
                if kind == "rejected":
                    rejects += 1
                else:
                    loads[kind].append(load_ms)
        modeled = self.modeled_hit_ratio(self.ranks(seed, units + 1))
        return {"attempted": units, "done": units,
                "failed": len(wrong), "wrong": wrong[:5],
                "rejects": rejects, "slow_ms": loads["cold"],
                "fast_ms": loads["cached"], "gc": gc_stats,
                "extra": {"modeled_hit_ratio": modeled,
                          "load_ms": summarize(loads["all"])}}

    def check(self, system: Dict[str, object], out: Dict[str, object],
              seed: int, seconds: int) -> List[str]:
        if out["wrong"]:
            return [f"{out['failed']} requests disagreed with the known "
                    f"answer, first: {out['wrong']}"]
        return []

    def counts(self, system: Dict[str, object],
               out: Dict[str, object]) -> Dict[str, int]:
        counts = subsystem_counts([system["bpf"]])
        counts["ebpf.verifier.rejects"] = out["rejects"]
        return counts


# -- fleet_rollout --------------------------------------------------------


class FleetRollout:
    """The canonical 200-node fleet (2-CPU nodes, supervisor on, the
    trigger helper armed, the transport unarmed), then rounds of: a
    good release with new bytes rolled out to 100%, and a bad release
    with new bytes that must halt at its canary wave and roll back.
    Publishing a release is input preparation and is not timed."""

    name = "fleet_rollout"
    #: rounds (one good and one bad release) per second of --seconds
    units_per_second = 3.3
    setup_repeats = 3
    nodes = 200

    def build(self, seed: int) -> object:
        return build_scenario(size=self.nodes, seed=seed)

    @staticmethod
    def releases(seed: int, rounds: int) -> List[Tuple[list, list]]:
        """(good, bad) bytecode per round, distinct from every other
        release: the good one filters a seeded port, the bad one reads
        the armed clock helper after a seeded constant."""
        rng = Random(f"fleet_rollout:{seed}")
        ports = rng.sample(range(1024, 65536), rounds)
        return [(port_filter_prog(port),
                 Asm().mov64_imm(R6, port)
                 .call(ids.BPF_FUNC_ktime_get_ns)
                 .mov64_imm(R0, XDP_PASS).exit_().program())
                for port in ports]

    def run(self, scenario: object, seed: int, units: int,
            windows: Windows) -> Dict[str, object]:
        orchestrator, registry, fleet = (
            scenario.orchestrator, scenario.registry, scenario.fleet)
        rollout_ms, rollback_ms, reports = [], [], []
        gc.collect()
        with GcMonitor() as gc_stats:
            for index, (good, bad) in enumerate(
                    self.releases(seed, units)):
                for kind, insns, times in (
                        ("good", good, rollout_ms),
                        ("bad", bad, rollback_ms)):
                    major = 1 if kind == "good" else 2
                    release = registry.publish(
                        EXTENSION, f"{major}.{index + 2}.0", insns,
                        ProgType.XDP)
                    report, elapsed = windows.time(
                        orchestrator.rollout, release.release_id,
                        seed * 1000 + index)
                    times.append(elapsed * 1e3)
                    on_release = sum(
                        1 for node_id in fleet.node_ids()
                        if fleet.current_release(node_id)
                        == release.release_id)
                    reports.append((kind, report.summary(), on_release))
        return {"attempted": 2 * units, "done": 2 * units,
                "reports": reports, "slow_ms": rollout_ms,
                "fast_ms": rollback_ms, "gc": gc_stats}

    def check(self, scenario: object, out: Dict[str, object],
              seed: int, seconds: int) -> List[str]:
        failures = []
        for kind, report, on_release in out["reports"]:
            if kind == "good":
                ok = (report["outcome"] == "completed"
                      and report["converged_nodes"] == self.nodes
                      and on_release == self.nodes)
            else:
                ok = (report["outcome"] == "rolled-back"
                      and report["waves"] == 1 and on_release == 0
                      and report["final_census"] == {"healthy": self.nodes})
            if not ok:
                failures.append(f"{kind} {report['release']}: "
                                f"{report['outcome']} waves="
                                f"{report['waves']} on={on_release} "
                                f"census={report['final_census']}")
        out["failed"] = len(failures)
        return failures[:5]

    def counts(self, scenario: object,
               out: Dict[str, object]) -> Dict[str, int]:
        nodes = scenario.fleet.nodes()
        counts = subsystem_counts([node.bpf for node in nodes])
        counts["fleet.transport.rpcs"] = scenario.transport.stats.rpcs
        counts["fleet.transport.attempts"] = \
            scenario.transport.stats.attempts
        counts["recovery.contained"] = sum(
            node.kernel.recovery.contained_total for node in nodes)
        return counts


WORKLOADS = {w.name: w for w in (XdpFirewall(), LoadChurn(),
                                 FleetRollout())}
