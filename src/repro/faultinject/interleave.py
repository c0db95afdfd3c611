"""Interleaving scenarios: planted concurrency bugs and the race-free
corpus, plus the ``race`` suite.

The fault plane (:mod:`repro.faultinject.plane`) made *failures*
deterministic; this module does the same for *schedules*.  It carries
three kinds of scenario, all built on the deterministic SMP plane:

* **Planted bugs** — an unlocked read-modify-write racing a properly
  locked one (``unlocked_counter``: classic lock-discipline violation
  the lockset detector must flag) and an RCU writer that frees a
  just-unpublished object without waiting for a grace period
  (``rcu_use_after_grace``: some interleavings dereference freed
  memory, oopsing through the official path).  The
  :class:`~repro.analysis.racehunt.ScheduleExplorer` must find both
  within a bounded seeded budget and hand back replayable seeds.
* **Race-free corpus** — the same shapes done right: both writers
  take the lock, counters use atomic RMW, per-CPU maps keep CPUs on
  their own slices, the RCU writer synchronizes before freeing.  The
  detector must stay silent on *every* schedule (zero false
  positives), and the placement-invariant run signature must be
  bit-identical for nproc=1/2/4.

Scenario contract: a builder takes a fresh
:class:`~repro.kernel.smp.SmpScheduler`, populates its kernel, spawns
tasks, and returns a fingerprint callable evaluating to the
**placement-invariant** final state (schedule-dependent intermediate
values stay out, so the nproc differential can hash it).

Run it: ``python -m repro.scenarios race [--seed S]`` (the
``make race`` target); exits nonzero if a planted bug goes unfound, a
replay seed fails to reproduce, or the race-free corpus produces a
finding or a signature mismatch.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.racehunt import ScheduleExplorer, replay, run_schedule
from repro.ebpf.loader import BpfSubsystem
from repro.faultinject.scenario import CaseResult, Report, json_digest
from repro.kernel.kernel import Kernel
from repro.kernel.smp import SmpScheduler

#: read-modify-write iterations per task (small: interleavings, not
#: throughput, are the product here)
ITERS = 4

#: virtual ns charged per scenario iteration, so final clocks are a
#: meaningful (and placement-invariant) part of the signature
WORK_PER_ITER = 10


def _counter_map(smp: SmpScheduler):
    """A shared 8-byte counter in a real array map (fd storage)."""
    bpf = BpfSubsystem(smp.kernel)
    counter = bpf.create_map("array", value_size=8, max_entries=1)
    return counter


def _rmw(kernel: Kernel, addr: int) -> None:
    """One unlocked read-modify-write of a u64 — two yield points."""
    value = kernel.mem.read_u64(addr)
    kernel.mem.write_u64(addr, value + 1)


# -- planted bugs ------------------------------------------------------------

def scenario_unlocked_counter(smp: SmpScheduler) -> Callable[[], object]:
    """PLANTED BUG (lock discipline): one writer increments a shared
    map value under a spinlock, the other skips the lock.  Every
    interleaving carries the race; the lockset detector must flag the
    unlocked write against the locked one."""
    kernel = smp.kernel
    counter = _counter_map(smp)
    lock = kernel.locks.create("counter.lock")
    addr = counter.storage.base

    def locked_writer() -> None:
        for __ in range(ITERS):
            kernel.work(WORK_PER_ITER)
            lock.lock("locked-writer")
            _rmw(kernel, addr)
            lock.unlock("locked-writer")

    def unlocked_writer() -> None:
        for __ in range(ITERS):
            kernel.work(WORK_PER_ITER)
            _rmw(kernel, addr)  # the planted bug: no lock

    smp.spawn(locked_writer, cpu=0, name="locked-writer")
    smp.spawn(unlocked_writer, cpu=1 % len(kernel.cpus),
              name="unlocked-writer")
    return lambda: ("counter", counter.read_value(0).hex())


def scenario_rcu_use_after_grace(smp: SmpScheduler) \
        -> Callable[[], object]:
    """PLANTED BUG (RCU): the writer unpublishes the object and frees
    it immediately — no grace period.  Interleavings where the reader
    loaded the pointer before the unpublish dereference freed memory:
    a genuine use-after-free oops through the official panic path."""
    kernel = smp.kernel
    cell = kernel.mem.kmalloc(8, type_name="rcu_ptr", owner="interleave")
    obj = kernel.mem.kmalloc(8, type_name="rcu_obj", owner="interleave")
    kernel.mem.write_u64(obj.base, 0x5AFE)
    kernel.mem.write_u64(cell.base, obj.base)

    def reader() -> Optional[int]:
        kernel.work(WORK_PER_ITER)
        kernel.rcu.read_lock(holder="reader")
        try:
            with smp.atomic_scope():  # rcu_dereference (READ_ONCE)
                ptr = kernel.mem.read_u64(cell.base)
            # instruction boundary between load and dereference —
            # exactly where the missing grace period bites
            smp.yield_point("preempt", "rcu-window")
            if ptr:
                return kernel.mem.read_u64(ptr)
            return None
        finally:
            kernel.rcu.read_unlock()

    def buggy_writer() -> None:
        kernel.work(WORK_PER_ITER)
        with smp.atomic_scope():  # rcu_assign_pointer(cell, NULL)
            kernel.mem.write_u64(cell.base, 0)
        # the planted bug: no synchronize_rcu() before the free
        kernel.mem.kfree(obj)

    smp.spawn(reader, cpu=0, name="reader")
    smp.spawn(buggy_writer, cpu=1 % len(kernel.cpus), name="writer")
    return lambda: ("cell", kernel.mem.read_u64(cell.base), obj.freed)


# -- race-free corpus --------------------------------------------------------

def scenario_locked_counter(smp: SmpScheduler) -> Callable[[], object]:
    """Race-free: both writers honour the spinlock."""
    kernel = smp.kernel
    counter = _counter_map(smp)
    lock = kernel.locks.create("counter.lock")
    addr = counter.storage.base

    def writer(owner: str) -> Callable[[], None]:
        def body() -> None:
            for __ in range(ITERS):
                kernel.work(WORK_PER_ITER)
                lock.lock(owner)
                _rmw(kernel, addr)
                lock.unlock(owner)
        return body

    ncpu = len(kernel.cpus)
    smp.spawn(writer("writer-a"), cpu=0, name="writer-a")
    smp.spawn(writer("writer-b"), cpu=1 % ncpu, name="writer-b")
    return lambda: ("counter", counter.read_value(0).hex())


def scenario_atomic_counter(smp: SmpScheduler) -> Callable[[], object]:
    """Race-free: lock-free atomic increments (atomic-vs-atomic pairs
    are not races, and the RMW is one indivisible step)."""
    kernel = smp.kernel
    counter = _counter_map(smp)
    addr = counter.storage.base

    def writer() -> None:
        for __ in range(ITERS):
            kernel.work(WORK_PER_ITER)
            smp.yield_point("atomic", "counter")
            with smp.atomic_scope():
                _rmw(kernel, addr)

    ncpu = len(kernel.cpus)
    smp.spawn(writer, cpu=0, name="atomic-a")
    smp.spawn(writer, cpu=1 % ncpu, name="atomic-b")
    return lambda: ("counter", counter.read_value(0).hex())


def scenario_percpu_counter(smp: SmpScheduler) -> Callable[[], object]:
    """Race-free: per-CPU map — every task touches only the slice of
    the CPU it executes on, so nothing is shared; the userspace sum
    across CPUs is placement-invariant."""
    kernel = smp.kernel
    bpf = BpfSubsystem(kernel)
    counter = bpf.create_map("percpu_array", value_size=8, max_entries=1)
    key = (0).to_bytes(4, "little")

    def writer() -> None:
        for __ in range(ITERS):
            kernel.work(WORK_PER_ITER)
            addr = counter.lookup_addr(key)
            assert addr is not None
            with smp.atomic_scope():  # this_cpu_add: preempt-safe RMW
                _rmw(kernel, addr)

    ncpu = len(kernel.cpus)
    smp.spawn(writer, cpu=0, name="percpu-a")
    smp.spawn(writer, cpu=1 % ncpu, name="percpu-b")
    return lambda: ("sum", counter.sum_u64(0))


def scenario_rcu_publish(smp: SmpScheduler) -> Callable[[], object]:
    """Race-free: the writer waits for a real grace period before
    freeing, so a reader inside its section always dereferences live
    memory.  (The reader's observed value is schedule-dependent and
    deliberately left out of the fingerprint.)"""
    kernel = smp.kernel
    cell = kernel.mem.kmalloc(8, type_name="rcu_ptr", owner="interleave")
    obj = kernel.mem.kmalloc(8, type_name="rcu_obj", owner="interleave")
    kernel.mem.write_u64(obj.base, 0x5AFE)
    kernel.mem.write_u64(cell.base, obj.base)

    def reader() -> Optional[int]:
        kernel.work(WORK_PER_ITER)
        kernel.rcu.read_lock(holder="reader")
        try:
            with smp.atomic_scope():
                ptr = kernel.mem.read_u64(cell.base)
            smp.yield_point("preempt", "rcu-window")
            if ptr:
                return kernel.mem.read_u64(ptr)
            return None
        finally:
            kernel.rcu.read_unlock()

    def writer() -> None:
        kernel.work(WORK_PER_ITER)
        with smp.atomic_scope():
            kernel.mem.write_u64(cell.base, 0)
        kernel.rcu.synchronize()  # the discipline the bug skipped
        kernel.mem.kfree(obj)

    smp.spawn(reader, cpu=0, name="reader")
    smp.spawn(writer, cpu=1 % len(kernel.cpus), name="writer")
    return lambda: ("cell", kernel.mem.read_u64(cell.base), obj.freed,
                    kernel.rcu.gp_seq)


#: CPU counts every race-free scenario must give one signature across
NPROCS = (1, 2, 4)

#: name -> (builder, expectation); expectation is what the explorer /
#: corpus check asserts
PLANTED = {
    "unlocked_counter": (scenario_unlocked_counter, "race"),
    "rcu_use_after_grace": (scenario_rcu_use_after_grace, "oops"),
}

RACE_FREE = {
    "locked_counter": scenario_locked_counter,
    "atomic_counter": scenario_atomic_counter,
    "percpu_counter": scenario_percpu_counter,
    "rcu_publish": scenario_rcu_publish,
}


# -- harness -----------------------------------------------------------------

def run_signature(scenario: Callable, nr_cpus: int, seed: int) -> \
        Tuple[str, str, int]:
    """One run: (placement-invariant signature, trace signature,
    detector findings).

    The invariant signature hashes the scenario fingerprint, the final
    virtual clock and the race count — everything that must not depend
    on CPU placement; the trace signature additionally pins the exact
    interleaving (same seed + same nproc => identical)."""
    smp, fingerprint, deadlock = run_schedule(scenario, seed, nr_cpus)
    errors = smp.errors()
    if deadlock is not None or errors:
        raise deadlock or errors[0]
    races = len(smp.detector.races)
    digest = hashlib.sha256()
    digest.update(repr(fingerprint()).encode())
    digest.update(smp.kernel.clock.now_ns.to_bytes(8, "little"))
    digest.update(races.to_bytes(4, "little"))
    return digest.hexdigest(), smp.trace_signature(), races


def hunt_planted(budget: int, base_seed: int) -> Dict[str, object]:
    """Explore every planted scenario; returns a report and raises
    AssertionError if a bug goes unfound or a seed fails to replay."""
    report: Dict[str, object] = {}
    for name, (builder, expected) in sorted(PLANTED.items()):
        explorer = ScheduleExplorer(builder, nr_cpus=2,
                                    base_seed=base_seed)
        result = explorer.explore(budget=budget)
        wanted = result.by_kind(expected)
        if not wanted:
            raise AssertionError(
                f"{name}: planted {expected} not found in {budget} "
                f"seeded schedules (base seed {base_seed})")
        finding = wanted[0]
        # the replayable-seed contract: the reported seed reproduces
        # the identical interleaving, byte for byte
        replayed = replay(builder, finding.seed, nr_cpus=2)
        if replayed.trace_signature() != finding.trace_signature:
            raise AssertionError(
                f"{name}: seed {finding.seed} failed to reproduce its "
                f"trace")
        report[name] = {
            "expected": expected,
            "found": finding.description,
            "replay_seed": finding.seed,
            "schedules_run": result.schedules_run,
            "distinct_states": result.distinct_states,
        }
    return report


def check_race_free(budget: int, base_seed: int,
                    scenarios: Optional[Dict[str, Callable]] = None) \
        -> Dict[str, object]:
    """The nproc-invariance differential over the race-free corpus.

    For every scenario and every seed: zero detector findings on every
    nproc, one identical invariant signature across nprocs, and
    repeated same-seed runs pinning identical traces."""
    if scenarios is None:
        scenarios = RACE_FREE
    report: Dict[str, object] = {}
    for name, builder in sorted(scenarios.items()):
        signatures: set = set()
        for index in range(budget):
            seed = base_seed + index
            per_nproc: List[str] = []
            for nproc in NPROCS:
                invariant, trace, races = run_signature(
                    builder, nproc, seed)
                if races:
                    raise AssertionError(
                        f"{name}: false positive — {races} race(s) "
                        f"flagged at nproc={nproc} seed={seed}")
                invariant2, trace2, __ = run_signature(
                    builder, nproc, seed)
                if (invariant, trace) != (invariant2, trace2):
                    raise AssertionError(
                        f"{name}: nondeterministic at nproc={nproc} "
                        f"seed={seed}")
                per_nproc.append(invariant)
            if len(set(per_nproc)) != 1:
                raise AssertionError(
                    f"{name}: run signature differs across nproc "
                    f"{NPROCS} at seed={seed}")
            signatures.add(per_nproc[0])
        report[name] = {
            "seeds": budget,
            "nprocs": list(NPROCS),
            "distinct_outcomes": len(signatures),
        }
    return report


#: seeded schedules the ``race`` suite explores per planted bug
BUDGET = 32
#: seeds the ``race`` suite runs the race-free corpus under
CORPUS_SEEDS = 4


def run_race(seed: int = 0) -> Report:
    """The ``race`` suite: hunt the planted bugs with :data:`BUDGET`
    seeded schedules each, then gate the race-free corpus over
    :data:`CORPUS_SEEDS` seeds.  A failed gate is a violation; each
    scenario's report entry rides in its result's ``detail``."""
    gates = (
        ("planted", lambda: hunt_planted(BUDGET, seed), "found"),
        ("race-free", lambda: check_race_free(CORPUS_SEEDS, seed),
         "clean"),
    )
    results: List[CaseResult] = []
    for variant, gate, outcome in gates:
        try:
            entries = gate()
        except AssertionError as failure:
            results.append(CaseResult("gate", variant, "failed",
                                      violations=[str(failure)]))
            continue
        results.extend(
            CaseResult(name, variant, outcome,
                       signature=json_digest(entry), detail=entry)
            for name, entry in entries.items())
    return Report(seed, results)
