"""Race hunting: happens-before + lockset detection and a seeded
schedule explorer over the deterministic SMP plane.

Two layers:

:class:`RaceDetector`
    A FastTrack-style vector-clock detector with Eraser-style lockset
    refinement, fed by :class:`~repro.kernel.smp.SmpScheduler` hooks.
    Every access to shared storage (map values, kernel objects) is
    checked against the last conflicting accesses: a pair is a race
    when it is *conflicting* (same location, at least one write),
    *unordered* by happens-before (lock release→acquire and RCU
    grace-period edges), *unprotected* (no common lock held), and not
    atomic-vs-atomic.  Reported races carry both access sites.

:class:`ScheduleExplorer`
    Enumerates seeded interleavings of a scenario — the same shape as
    the HWLoopSe path enumeration: run, hash the outcome, dedup, keep
    going until the budget is spent.  For every distinct finding
    (detector race, oops, deadlock) it reports a **replayable seed**;
    re-running the scenario under that seed reproduces the identical
    trace, byte for byte.

Everything is deterministic: given (scenario, nr_cpus, base_seed,
budget) the explorer's findings — including their order — are a pure
function of the inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.errors import KernelDeadlock, KernelOops

#: location key: (alloc_id, offset) — byte-granular, like KASAN
Location = Tuple[int, int]


def _join(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, int]:
    """Pointwise max of two vector clocks."""
    out = dict(a)
    for key, value in b.items():
        if out.get(key, 0) < value:
            out[key] = value
    return out


@dataclass
class Access:
    """One recorded access to a shared location."""

    task: str
    write: bool
    lockset: Tuple[str, ...]
    atomic: bool
    clock: Dict[str, int] = field(repr=False)
    seq: int = 0

    def happens_before(self, other_clock: Dict[str, int]) -> bool:
        """True when this access is HB-ordered before a point whose
        vector clock is ``other_clock``."""
        return other_clock.get(self.task, 0) >= self.clock.get(self.task, 0)


@dataclass
class RaceReport:
    """One data race: two conflicting unordered unprotected accesses."""

    type_name: str
    location: Location
    first: Access
    second: Access

    def key(self) -> Tuple[object, ...]:
        """Dedup key: the racing pair irrespective of which side the
        detector saw first."""
        sides = tuple(sorted(
            ((a.task, a.write) for a in (self.first, self.second))))
        return (self.type_name, self.location[1], sides)

    def describe(self) -> str:
        """One-line dmesg-style description."""
        loc = f"{self.type_name}+{self.location[1]}"
        def side(acc: Access) -> str:
            kind = "write" if acc.write else "read"
            locks = ",".join(acc.lockset) if acc.lockset else "no locks"
            return f"{kind} by {acc.task} ({locks})"
        return (f"data race on {loc}: {side(self.first)} vs "
                f"{side(self.second)}")


class RaceDetector:
    """Vector-clock + lockset race detector (one SMP run's worth)."""

    def __init__(self) -> None:
        #: task name -> its vector clock
        self._clocks: Dict[str, Dict[str, int]] = {}
        #: lock name -> clock published at last release
        self._lock_clocks: Dict[str, Dict[str, int]] = {}
        #: the RCU pseudo-lock: joined by readers at exit, acquired by
        #: writers when their grace period completes
        self._rcu_clock: Dict[str, int] = {}
        #: location -> last write access
        self._last_write: Dict[Location, Access] = {}
        #: location -> reads since the last write
        self._reads: Dict[Location, List[Access]] = {}
        self._type_names: Dict[Location, str] = {}
        self._seq = 0
        self.races: List[RaceReport] = []
        self._seen: set = set()

    # -- scheduler hooks -----------------------------------------------------

    def begin_task(self, task: str) -> None:
        """Register a task before the run starts."""
        self._clocks.setdefault(task, {task: 1})

    def on_acquire(self, task: str, lock: str) -> None:
        """HB edge: the acquirer inherits the last releaser's clock."""
        clock = self._clocks.setdefault(task, {task: 1})
        published = self._lock_clocks.get(lock)
        if published:
            self._clocks[task] = _join(clock, published)

    def on_release(self, task: str, lock: str) -> None:
        """Publish the releaser's clock on the lock, then advance the
        releaser's own component (FastTrack release increment)."""
        clock = self._clocks.setdefault(task, {task: 1})
        self._lock_clocks[lock] = dict(clock)
        clock[task] = clock.get(task, 0) + 1

    def on_rcu_exit(self, task: str) -> None:
        """A reader left its section: publish to the RCU pseudo-lock."""
        clock = self._clocks.setdefault(task, {task: 1})
        self._rcu_clock = _join(self._rcu_clock, clock)
        clock[task] = clock.get(task, 0) + 1

    def on_rcu_sync(self, task: str) -> None:
        """A writer's grace period completed: it is now ordered after
        every reader exit published so far."""
        clock = self._clocks.setdefault(task, {task: 1})
        self._clocks[task] = _join(clock, self._rcu_clock)

    def record_access(self, task: str, alloc_id: int, type_name: str,
                      offset: int, size: int, write: bool,
                      lockset: Tuple[str, ...], atomic: bool) -> None:
        """Check one access against the location's history.

        Multi-byte accesses record one location key per touched byte
        (linear in access size), so partially-overlapping conflicting
        accesses are caught exactly, KASAN-style.
        """
        clock = self._clocks.setdefault(task, {task: 1})
        self._seq += 1
        access = Access(task=task, write=write, lockset=lockset,
                       atomic=atomic, clock=dict(clock), seq=self._seq)
        # detect per byte (partial overlaps caught exactly), but
        # report at access granularity, KCSAN-style — one finding per
        # racing pair, not one per byte
        report_loc = (alloc_id, offset)
        for byte in range(offset, offset + size):
            self._check_one(task, (alloc_id, byte), type_name, access,
                            report_loc)

    # -- internals -----------------------------------------------------------

    def _check_one(self, task: str, loc: Location, type_name: str,
                   access: Access, report_loc: Location) -> None:
        self._type_names[report_loc] = type_name
        last_write = self._last_write.get(loc)
        if last_write is not None and last_write.task != task:
            self._maybe_report(report_loc, last_write, access)
        if access.write:
            for read in self._reads.get(loc, ()):
                if read.task != task:
                    self._maybe_report(report_loc, read, access)
            self._last_write[loc] = access
            self._reads[loc] = []
        else:
            self._reads.setdefault(loc, []).append(access)

    def _maybe_report(self, loc: Location, prior: Access,
                      current: Access) -> None:
        if not (prior.write or current.write):
            return
        if prior.atomic and current.atomic:
            return
        if prior.happens_before(current.clock):
            return
        if set(prior.lockset) & set(current.lockset):
            return
        report = RaceReport(self._type_names[loc], loc, prior, current)
        key = report.key()
        if key in self._seen:
            return
        self._seen.add(key)
        self.races.append(report)


@dataclass
class Finding:
    """One distinct bad outcome the explorer discovered."""

    kind: str          # "race" | "oops" | "deadlock"
    seed: int          # replay with this seed to reproduce
    description: str
    trace_signature: str


@dataclass
class ExplorationResult:
    """Roll-up of one exploration campaign."""

    schedules_run: int
    distinct_states: int
    findings: List[Finding]

    def by_kind(self, kind: str) -> List[Finding]:
        """Findings of one kind: "race", "oops" or "deadlock"."""
        return [f for f in self.findings if f.kind == kind]

    def summary(self) -> Dict[str, object]:
        """JSON-friendly roll-up: counts per kind plus replay seeds."""
        return {
            "schedules_run": self.schedules_run,
            "distinct_states": self.distinct_states,
            "findings": len(self.findings),
            "races": len(self.by_kind("race")),
            "oopses": len(self.by_kind("oops")),
            "deadlocks": len(self.by_kind("deadlock")),
            "seeds": sorted({f.seed for f in self.findings}),
        }


#: interleaving decisions one schedule may take before its run is
#: stopped as a livelock
MAX_DECISIONS = 200_000


def run_schedule(scenario: Callable, seed: int, nr_cpus: int = 2,
                 migration_rate: float = 0.0) -> Tuple[object, ...]:
    """Run ``scenario`` once on a fresh kernel under the seeded
    interleaving ``seed`` picks: the schedule runner of the explorer,
    :func:`replay` and the ``race`` suite.  ``scenario`` gets an
    :class:`~repro.kernel.smp.SmpScheduler` with a
    :class:`RaceDetector`, spawns its tasks and may return a
    state-fingerprint callable.  Task errors are collected in
    ``smp.errors()``.  Returns (scheduler, fingerprint or None,
    the deadlock that ended the run or None)."""
    from repro.kernel.kernel import Kernel
    from repro.kernel.smp import SeededInterleaving, SmpScheduler

    smp = SmpScheduler(
        Kernel(nr_cpus=nr_cpus),
        schedule=SeededInterleaving(seed, migration_rate=migration_rate,
                                    nr_cpus=nr_cpus),
        seed=seed, detector=RaceDetector(), max_decisions=MAX_DECISIONS)
    fingerprint = scenario(smp)
    try:
        smp.run(collect_errors=True)
    except KernelDeadlock as deadlock:
        return smp, fingerprint, deadlock
    return smp, fingerprint, None


class ScheduleExplorer:
    """Enumerate seeded interleavings of a scenario, dedup by outcome.

    Each schedule is one :func:`run_schedule`, from identical initial
    state; the fingerprint's value joins the dedup hash.
    """

    def __init__(self, scenario: Callable,
                 nr_cpus: int = 2,
                 base_seed: int = 0,
                 migration_rate: float = 0.0) -> None:
        self.scenario = scenario
        self.nr_cpus = nr_cpus
        self.base_seed = base_seed
        self.migration_rate = migration_rate

    def explore(self, budget: int = 32) -> ExplorationResult:
        """Run ``budget`` seeded schedules."""
        findings: List[Finding] = []
        finding_keys: set = set()
        state_hashes: set = set()
        for index in range(budget):
            seed = self.base_seed + index
            smp, fingerprint, deadlock = run_schedule(
                self.scenario, seed, self.nr_cpus, self.migration_rate)
            signature = smp.trace_signature()
            digest = hashlib.sha256(signature.encode())
            if fingerprint is not None:
                digest.update(repr(fingerprint()).encode())
            state_hashes.add(digest.hexdigest())

            for race in smp.detector.races:
                smp.kernel.telemetry.record_race(race.type_name)
                self._add(findings, finding_keys,
                          Finding("race", seed, race.describe(),
                                  signature),
                          ("race",) + race.key())
            for exc in smp.errors():
                kind = "oops" if isinstance(exc, KernelOops) else "error"
                if isinstance(exc, KernelDeadlock):
                    kind = "deadlock"
                self._add(findings, finding_keys,
                          Finding(kind, seed,
                                  f"{type(exc).__name__}: {exc}",
                                  signature),
                          (kind, type(exc).__name__, str(exc)))
            if deadlock is not None:
                self._add(findings, finding_keys,
                          Finding("deadlock", seed,
                                  f"KernelDeadlock: {deadlock}",
                                  signature),
                          ("deadlock", str(deadlock)))
        return ExplorationResult(
            schedules_run=max(budget, 0),
            distinct_states=len(state_hashes),
            findings=findings)

    @staticmethod
    def _add(findings: List[Finding], keys: set, finding: Finding,
             key: Tuple[object, ...]) -> None:
        if key in keys:
            return
        keys.add(key)
        findings.append(finding)


def replay(scenario: Callable, seed: int, nr_cpus: int = 2,
           migration_rate: float = 0.0) -> "object":
    """Re-run ``scenario`` under one exact seed (the reproducer a
    :class:`Finding` hands you).  Returns the scheduler, post-run, so
    callers can inspect the trace/detector."""
    return run_schedule(scenario, seed, nr_cpus, migration_rate)[0]
