"""Deterministic SMP: seeded multi-CPU interleaving on the virtual clock.

`kernel/cpu.py` models CPUs, but until now dispatch was effectively
serialized: one logical thread of execution visited CPUs in turn, so
the scenario band the paper cares most about — RCU grace periods with
*real* concurrent readers, lock discipline under contention, per-CPU
vs shared-map races — simply could not occur.  This module makes
extensions genuinely race, deterministically.

The model: every logical CPU owns a FIFO run queue of tasks (eBPF
program invocations, writers, pollers).  Exactly one task executes at
any moment — concurrency is *logical*, host threads are only the
mechanism for suspending and resuming deep interpreter stacks — and
every cross-CPU interleaving decision happens at a **yield point**:

==================  =====================================================
kind                where it fires
==================  =====================================================
``lock.acquire``    :meth:`~repro.kernel.locks.SpinLock.lock` entry
``lock.release``    :meth:`~repro.kernel.locks.SpinLock.unlock`
``rcu.enter``       ``rcu_read_lock`` from an SMP task
``rcu.exit``        ``rcu_read_unlock`` from an SMP task
``rcu.sync``        grace-period advance in ``synchronize_rcu``
``map.<op>``        shared-map lookup/update/delete entry
``mem.access``      load/store hitting shared map storage or a kernel
                    object (per-CPU slices and private stacks excluded)
``ringbuf.produce`` ring-buffer record production
``helper``          every helper call (all three engines route here)
``migrate``         task moved to another CPU's queue
``ipi``             cross-CPU function-call delivery
``block``/``spawn``/``exit``  scheduler-internal transitions
==================  =====================================================

At each yield point the seeded :class:`InterleavingSchedule` picks
which CPU runs next.  Same seed, same workload => byte-identical
decision trace, pinned by a SHA-256 :meth:`SmpScheduler.trace_signature`
exactly like the fault plane's.  The race-hunting explorer
(:mod:`repro.analysis.racehunt`) enumerates seeds of
:class:`SeededInterleaving` and replays a finding from its seed; a
:class:`ScriptedInterleaving` replays an explicit choice prefix, for
tests that pin one exact interleaving.

Hot-path contract: while no scheduler is installed, ``kernel.smp`` is
None and every hook site pays one attribute test — the serial fast
paths are untouched.
"""

from __future__ import annotations

import hashlib
import threading
from random import Random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import KernelDeadlock

#: guard against a host-level hang (a bug, never a schedule): the main
#: thread refuses to wait longer than this for the run to finish
RUN_TIMEOUT_S = 120.0


class SmpAborted(Exception):
    """Raised inside suspended tasks when the run aborts (deadlock)."""


class InterleavingSchedule:
    """Decides, per yield point, which CPU's run queue advances.

    Schedules see the list of runnable CPU ids (sorted ascending), the
    1-based decision index, and the scheduler's seeded RNG.  They must
    be pure functions of those inputs plus their own construction
    arguments — that is what makes a trace replayable from its seed.
    """

    def choose(self, runnable: Sequence[int], decision: int,
               rng: Random) -> int:
        """Return the CPU id (member of ``runnable``) to run next."""
        raise NotImplementedError

    def migrate_to(self, decision: int, rng: Random) -> Optional[int]:
        """Target CPU to migrate the *current* task to at this yield
        point, or None.  Default: never migrate."""
        return None

    def describe(self) -> str:
        """Parseable human-readable form (``seeded:7``)."""
        raise NotImplementedError


class SeededInterleaving(InterleavingSchedule):
    """Uniform seeded choice among runnable CPUs — the explorer's
    random-sampling workhorse.  ``migration_rate`` > 0 additionally
    migrates the deciding task to a random CPU with that probability,
    exercising the migration/IPI yield points."""

    def __init__(self, seed: int = 0,
                 migration_rate: float = 0.0,
                 nr_cpus: int = 0) -> None:
        self.seed = seed
        self.migration_rate = migration_rate
        self.nr_cpus = nr_cpus

    def choose(self, runnable: Sequence[int], decision: int,
               rng: Random) -> int:
        """See :meth:`InterleavingSchedule.choose`."""
        return runnable[rng.randrange(len(runnable))]

    def migrate_to(self, decision: int, rng: Random) -> Optional[int]:
        """See :meth:`InterleavingSchedule.migrate_to`."""
        if self.migration_rate <= 0.0 or self.nr_cpus <= 1:
            return None
        if rng.random() < self.migration_rate:
            return rng.randrange(self.nr_cpus)
        return None

    def describe(self) -> str:
        """See :meth:`InterleavingSchedule.describe`."""
        if self.migration_rate:
            return f"seeded:{self.seed}+mig:{self.migration_rate:g}"
        return f"seeded:{self.seed}"


class RoundRobin(InterleavingSchedule):
    """Cycle CPUs in id order — the serialized baseline, useful for
    pinning that SMP with one runnable CPU degenerates to the old
    behavior."""

    def choose(self, runnable: Sequence[int], decision: int,
               rng: Random) -> int:
        """See :meth:`InterleavingSchedule.choose`."""
        return runnable[decision % len(runnable)]

    def describe(self) -> str:
        """See :meth:`InterleavingSchedule.describe`."""
        return "roundrobin"


class ScriptedInterleaving(InterleavingSchedule):
    """Replay an explicit CPU-choice prefix; past the end, fall back
    to the seeded uniform choice.  ``migrations`` maps decision index
    -> target CPU, so a test can force a migration at an exact yield
    point (the per-CPU-map regression tests do)."""

    def __init__(self, choices: Sequence[int], seed: int = 0,
                 migrations: Optional[Dict[int, int]] = None) -> None:
        self.choices: Tuple[int, ...] = tuple(choices)
        self.seed = seed
        self.migrations = dict(migrations or {})

    def choose(self, runnable: Sequence[int], decision: int,
               rng: Random) -> int:
        """See :meth:`InterleavingSchedule.choose`."""
        if decision <= len(self.choices):
            want = self.choices[decision - 1]
            if want in runnable:
                return want
        return runnable[rng.randrange(len(runnable))]

    def migrate_to(self, decision: int, rng: Random) -> Optional[int]:
        """See :meth:`InterleavingSchedule.migrate_to`."""
        return self.migrations.get(decision)

    def describe(self) -> str:
        """See :meth:`InterleavingSchedule.describe`."""
        return ("script:" + ",".join(str(c) for c in self.choices)
                + f"+seed:{self.seed}")


class SmpTask:
    """One logical context on one CPU's run queue."""

    __slots__ = ("task_id", "name", "cpu_id", "fn", "state", "result",
                 "exc", "wake", "_go", "thread", "locks_held",
                 "migrations", "vm_state")

    def __init__(self, task_id: int, name: str, cpu_id: int,
                 fn: Callable[[], object]) -> None:
        self.task_id = task_id
        self.name = name
        self.cpu_id = cpu_id
        self.fn = fn
        #: ready | running | blocked | done
        self.state = "ready"
        self.result: object = None
        self.exc: Optional[BaseException] = None
        #: predicate that must turn true before a blocked task resumes
        self.wake: Optional[Callable[[], bool]] = None
        self._go = threading.Event()
        self.thread: Optional[threading.Thread] = None
        #: names of spinlocks currently held (lockset for the detector)
        self.locks_held: List[str] = []
        self.migrations = 0
        #: saved BpfVm activation state while suspended (the VM is a
        #: shared singleton; each task owns its own program binding)
        self.vm_state: Optional[tuple] = None

    @property
    def runnable(self) -> bool:
        """True when this task could be chosen to run."""
        return self.state in ("ready", "running")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SmpTask {self.name} cpu{self.cpu_id} {self.state}>"


class SmpScheduler:
    """Per-CPU run queues + the deterministic interleaving engine.

    Usage::

        smp = SmpScheduler(kernel, seed=7)
        smp.spawn(lambda: bpf.run(prog, ctx), cpu=0, name="rx0")
        smp.spawn(writer_fn, cpu=1, name="writer")
        results = smp.run()
        smp.trace_signature()   # replayable: pure function of seed

    Host threads exist only so a task can suspend mid-interpreter;
    exactly one is ever released at a time, so execution order is a
    pure function of (workload, schedule, seed) and the decision trace
    is byte-reproducible.
    """

    def __init__(self, kernel: "object",
                 schedule: Optional[InterleavingSchedule] = None,
                 seed: int = 0,
                 detector: Optional[object] = None,
                 max_decisions: int = 2_000_000) -> None:
        self.kernel = kernel
        self.seed = seed
        self.schedule = schedule if schedule is not None \
            else SeededInterleaving(seed, nr_cpus=len(kernel.cpus))
        self._rng = Random(seed)
        #: optional race detector receiving access/sync callbacks
        #: (duck-typed; see :mod:`repro.analysis.racehunt`)
        self.detector = detector
        #: the BpfVm whose per-program activation state is context-
        #: switched with each task (set by scenarios whose tasks run
        #: eBPF programs; see :meth:`BpfVm.save_smp_state`)
        self.vm: Optional[object] = None
        self.max_decisions = max_decisions
        #: cpu_id -> FIFO run queue (head = the task that CPU runs)
        self.queues: Dict[int, List[SmpTask]] = {
            cpu.cpu_id: [] for cpu in kernel.cpus}
        self.tasks: List[SmpTask] = []
        self.active = False
        self._current: Optional[SmpTask] = None
        self._abort_reason: Optional[str] = None
        self._done = threading.Event()
        self._finish_lock = threading.Lock()
        self._decisions = 0
        #: nesting depth of an atomic RMW (accesses inside are tagged
        #: atomic for the detector and are not preemption points)
        self.atomic_depth = 0
        #: decision trace: (seq, kind, detail, task, cpu, next_cpu)
        self.trace: List[Tuple[int, str, str, str, int, int]] = []
        #: contended lock acquisitions observed (telemetry mirror)
        self.lock_contentions = 0
        self.switches = 0
        self._next_task_id = 1

    # -- population ---------------------------------------------------------

    def spawn(self, fn: Callable[[], object], cpu: Optional[int] = None,
              name: Optional[str] = None) -> SmpTask:
        """Enqueue a task on a CPU's run queue (round-robin default).

        Must be called before :meth:`run` or from a running task (the
        IPI path); spawned tasks run to completion before ``run``
        returns."""
        if cpu is None:
            cpu = (self._next_task_id - 1) % len(self.queues)
        if cpu not in self.queues:
            raise ValueError(f"no such cpu {cpu}")
        task = SmpTask(self._next_task_id,
                       name or f"task{self._next_task_id}", cpu, fn)
        self._next_task_id += 1
        self.tasks.append(task)
        self.queues[cpu].append(task)
        if self.active:
            self._start_thread(task)
            self.yield_point("spawn", task.name)
        return task

    def send_ipi(self, cpu: int, fn: Callable[[], object],
                 name: Optional[str] = None) -> SmpTask:
        """Queue a function call on another CPU (IPI-style): the target
        CPU runs it when the schedule next picks that queue's head."""
        task = self.spawn(fn, cpu=cpu,
                          name=name or f"ipi->cpu{cpu}")
        if self.active:
            self.yield_point("ipi", f"cpu{cpu}:{task.name}")
        return task

    # -- the run loop --------------------------------------------------------

    def run(self, collect_errors: bool = False) -> List[object]:
        """Execute every task to completion under the schedule.

        Returns task results in spawn order.  A task exception aborts
        its task only; the first one is re-raised after the run unless
        ``collect_errors`` is true (the explorer collects).  A genuine
        cross-CPU deadlock (every queue blocked) is recorded through
        the official oops path and raised as
        :class:`~repro.errors.KernelDeadlock`."""
        if self.active:
            raise RuntimeError("scheduler is already running")
        if not self.tasks:
            return []
        self.active = True
        self.kernel.smp = self
        mem = self.kernel.mem
        prev_note = getattr(mem, "smp_note", None)
        mem.smp_note = self._on_mem_access
        if self.detector is not None:
            for task in self.tasks:
                self.detector.begin_task(task.name)
        try:
            for task in self.tasks:
                self._start_thread(task)
            first = self._pick("start", "")
            if first is None:  # pragma: no cover - spawn guarantees one
                raise RuntimeError("no runnable task")
            self._current = first
            first.state = "running"
            self.kernel.set_current_cpu(first.cpu_id)
            first._go.set()
            if not self._done.wait(timeout=RUN_TIMEOUT_S):
                self._abort_reason = "run timeout (scheduler bug)"
                for task in self.tasks:
                    task._go.set()
                raise RuntimeError("SMP run timed out")
            for task in self.tasks:
                if task.thread is not None:
                    task.thread.join(timeout=5.0)
        finally:
            self.active = False
            self._current = None
            self.kernel.smp = None
            mem.smp_note = prev_note
            telemetry = getattr(self.kernel, "telemetry", None)
            if telemetry is not None:
                telemetry.record_smp_switches(self.switches)
        errors = [t.exc for t in self.tasks
                  if t.exc is not None
                  and not isinstance(t.exc, SmpAborted)]
        if errors and not collect_errors:
            raise errors[0]
        return [t.result for t in self.tasks]

    def errors(self) -> List[BaseException]:
        """Task exceptions from the last run (aborts excluded)."""
        return [t.exc for t in self.tasks
                if t.exc is not None
                and not isinstance(t.exc, SmpAborted)]

    # -- yield points (the hook surface) -------------------------------------

    def yield_point(self, kind: str, detail: str = "") -> None:
        """One interleaving decision.  Called from hook sites; no-op
        unless this scheduler is actively running the calling task."""
        if not self.active:
            return
        task = self._current
        if task is None or task.thread is not threading.current_thread():
            return  # hook fired outside the scheduled task (setup code)
        if self.atomic_depth > 0:
            return  # atomic RMW is a single indivisible step
        target = self.schedule.migrate_to(self._decisions + 1, self._rng)
        if target is not None and target != task.cpu_id \
                and target in self.queues:
            self._migrate(task, target)
        nxt = self._pick(kind, detail)
        if nxt is None:
            self._deadlock(f"at {kind}:{detail}")
        if nxt is not task:
            self._handoff(task, nxt)

    def wait_until(self, cond: Callable[[], bool],
                   reason: str = "") -> None:
        """Block the current task until ``cond()`` holds (spin-wait on
        the logical CPU: no virtual time passes, other CPUs run)."""
        if not self.active:
            raise RuntimeError("wait_until outside an SMP run")
        task = self._current
        if task is None or task.thread is not threading.current_thread():
            raise RuntimeError("wait_until from a non-scheduled thread")
        while not cond():
            task.state = "blocked"
            task.wake = cond
            nxt = self._pick("block", reason)
            if nxt is None:
                self._deadlock(f"waiting for {reason}")
            self._handoff(task, nxt)

    def migrate(self, cpu: int) -> None:
        """Move the current task to another CPU's run queue."""
        if not self.active or self._current is None:
            raise RuntimeError("migrate outside an SMP run")
        if cpu not in self.queues:
            raise ValueError(f"no such cpu {cpu}")
        self._migrate(self._current, cpu)
        self.yield_point("migrate", f"->cpu{cpu}")

    @property
    def current_task(self) -> Optional[SmpTask]:
        """The task executing right now (None between runs)."""
        return self._current

    def note_lock_contention(self, lock_name: str) -> None:
        """Record one contended acquire (locks.py calls this)."""
        self.lock_contentions += 1
        telemetry = getattr(self.kernel, "telemetry", None)
        if telemetry is not None:
            telemetry.record_lock_contention(
                lock_name, self.kernel.current_cpu.cpu_id)

    # -- trace ----------------------------------------------------------------

    def trace_signature(self) -> str:
        """SHA-256 over the decision trace: two runs with the same
        seed and workload must produce the same signature."""
        digest = hashlib.sha256()
        for entry in self.trace:
            digest.update(repr(entry).encode())
        return digest.hexdigest()

    def summary(self) -> Dict[str, object]:
        """JSON-ready roll-up for ``bpftool race``."""
        return {
            "schedule": self.schedule.describe(),
            "seed": self.seed,
            "tasks": len(self.tasks),
            "decisions": self._decisions,
            "switches": self.switches,
            "lock_contentions": self.lock_contentions,
            "migrations": sum(t.migrations for t in self.tasks),
            "trace_signature": self.trace_signature(),
        }

    # -- internals -------------------------------------------------------------

    def _start_thread(self, task: SmpTask) -> None:
        task.thread = threading.Thread(
            target=self._task_main, args=(task,),
            name=f"smp-{task.name}", daemon=True)
        task.thread.start()

    def _task_main(self, task: SmpTask) -> None:
        task._go.wait()
        if self._abort_reason is not None:
            task.state = "done"
            task.exc = SmpAborted(self._abort_reason)
            self._maybe_finish()
            return
        try:
            task.result = task.fn()
        except SmpAborted as exc:
            # run aborted while this task was suspended: exit quietly
            # without touching the (already final) decision trace
            task.exc = exc
            task.state = "done"
            self._maybe_finish()
            return
        except BaseException as exc:  # noqa: BLE001 - oopses included
            task.exc = exc
        task.state = "done"
        if self._abort_reason is not None:
            self._maybe_finish()
            return
        nxt = self._pick("exit", task.name)
        if nxt is None:
            if any(t.state == "blocked" for t in self.tasks):
                # last runnable task finished; the rest can never wake
                try:
                    self._deadlock("all remaining tasks blocked")
                except KernelDeadlock as exc:
                    if task.exc is None:
                        task.exc = exc
            self._done.set()
            return
        self._current = nxt
        nxt.state = "running"
        self.kernel.set_current_cpu(nxt.cpu_id)
        self.switches += 1
        if self.vm is not None:
            self.vm.restore_smp_state(nxt.vm_state)
        nxt._go.set()

    def _maybe_finish(self) -> None:
        with self._finish_lock:
            if all(t.state == "done" for t in self.tasks):
                self._done.set()

    def _runnable_cpus(self) -> List[int]:
        """CPUs whose queue head may run (blocked heads re-checked)."""
        cpus: List[int] = []
        for cpu_id in sorted(self.queues):
            queue = self.queues[cpu_id]
            while queue and queue[0].state == "done":
                queue.pop(0)
            if not queue:
                continue
            head = queue[0]
            if head.state == "blocked" and head.wake is not None \
                    and head.wake():
                head.state = "ready"
                head.wake = None
            if head.runnable:
                cpus.append(cpu_id)
        return cpus

    def _pick(self, kind: str, detail: str) -> Optional[SmpTask]:
        """One scheduling decision: choose the next queue head to run
        and log it.  Returns None when nothing is runnable."""
        runnable = self._runnable_cpus()
        if not runnable:
            return None
        self._decisions += 1
        if self._decisions > self.max_decisions \
                and kind not in ("start", "exit"):
            raise RuntimeError(
                f"interleaving decision budget exhausted "
                f"({self.max_decisions}) — livelock?")
        choice = self.schedule.choose(runnable, self._decisions, self._rng)
        if choice not in runnable:  # defensive: bad schedule
            choice = runnable[0]
        cur = self._current
        self.trace.append((self._decisions, kind, detail,
                           cur.name if cur is not None else "-",
                           cur.cpu_id if cur is not None else -1,
                           choice))
        return self.queues[choice][0]

    def _handoff(self, cur: SmpTask, nxt: SmpTask) -> None:
        """Suspend ``cur`` (the calling thread) and resume ``nxt``.

        The release order is the determinism linchpin: ``cur`` does
        nothing after setting ``nxt``'s baton except wait on its own,
        so exactly one thread is ever runnable."""
        if cur.state == "running":
            cur.state = "ready"
        self._current = nxt
        nxt.state = "running"
        self.kernel.set_current_cpu(nxt.cpu_id)
        if nxt is not cur:
            self.switches += 1
            if self.vm is not None:
                cur.vm_state = self.vm.save_smp_state()
                self.vm.restore_smp_state(nxt.vm_state)
        cur._go.clear()
        nxt._go.set()
        cur._go.wait()
        if self._abort_reason is not None:
            raise SmpAborted(self._abort_reason)

    def _migrate(self, task: SmpTask, cpu: int) -> None:
        if cpu == task.cpu_id or cpu not in self.queues:
            return
        self.queues[task.cpu_id].remove(task)
        self.queues[cpu].append(task)
        task.cpu_id = cpu
        task.migrations += 1
        if task is self._current:
            self.kernel.set_current_cpu(cpu)
        self.trace.append((self._decisions, "migrate",
                           f"{task.name}->cpu{cpu}",
                           task.name, cpu, cpu))

    def _deadlock(self, detail: str) -> None:
        """Every CPU is blocked with no wake possible: record through
        the official oops path, abort suspended tasks, and raise."""
        reason = f"SMP deadlock: {detail}"
        self._abort_reason = reason
        log = getattr(self.kernel, "log", None)
        if log is not None:
            log.record_oops(self.kernel.clock.now_ns, reason,
                            category="deadlock", source="smp")
        for task in self.tasks:
            task._go.set()
        raise KernelDeadlock(reason)

    # -- hook bridges (locks / rcu / interpreter call these) -----------------

    def _scheduled_task(self) -> Optional[SmpTask]:
        """The current task, but only from its own thread."""
        if not self.active:
            return None
        task = self._current
        if task is None or task.thread is not threading.current_thread():
            return None
        return task

    def note_lock_acquired(self, name: str) -> None:
        """Lockset bookkeeping + detector edge on a lock acquire."""
        task = self._scheduled_task()
        if task is None:
            return
        task.locks_held.append(name)
        if self.detector is not None:
            self.detector.on_acquire(task.name, name)

    def note_lock_released(self, name: str) -> None:
        """Lockset bookkeeping + detector edge on a lock release."""
        task = self._scheduled_task()
        if task is None:
            return
        if name in task.locks_held:
            task.locks_held.remove(name)
        if self.detector is not None:
            self.detector.on_release(task.name, name)

    def note_rcu_exit(self) -> None:
        """Reader left its read-side section: publish its clock to the
        RCU pseudo-lock so a later grace period orders after it."""
        task = self._scheduled_task()
        if task is None:
            return
        if self.detector is not None:
            self.detector.on_rcu_exit(task.name)

    def note_rcu_sync(self) -> None:
        """Grace period completed for the calling writer."""
        task = self._scheduled_task()
        if task is None:
            return
        if self.detector is not None:
            self.detector.on_rcu_sync(task.name)

    def atomic_scope(self) -> "_AtomicScope":
        """Context manager marking an indivisible atomic RMW: inner
        accesses are tagged atomic and are not preemption points."""
        return _AtomicScope(self)

    def _on_mem_access(self, alloc: "object", address: int, size: int,
                      write: bool) -> None:
        """KernelAddressSpace hook: every load/store lands here while
        a run is active.  Shared storage (map values, kernel objects)
        is recorded for the detector and becomes a yield point;
        private per-task storage (bpf stacks, packet frames) stays
        invisible so hot paths keep their decision counts small."""
        task = self._scheduled_task()
        if task is None:
            return
        type_name = getattr(alloc, "type_name", "")
        if type_name in PRIVATE_TYPES:
            return
        offset = address - alloc.base
        if self.detector is not None:
            self.detector.record_access(
                task.name, alloc.alloc_id, type_name, offset, size,
                write, tuple(task.locks_held), self.atomic_depth > 0)
        self.yield_point(
            "mem.access",
            f"{'w' if write else 'r'}:{type_name}+{offset}")


class _AtomicScope:
    """``with smp.atomic_scope():`` — see :meth:`SmpScheduler.atomic_scope`."""

    __slots__ = ("_smp",)

    def __init__(self, smp: SmpScheduler) -> None:
        self._smp = smp

    def __enter__(self) -> None:
        self._smp.atomic_depth += 1

    def __exit__(self, *exc: object) -> None:
        self._smp.atomic_depth -= 1


#: allocation type names that are private to one task/CPU by
#: construction — accesses to them are neither recorded nor yielded.
#: A stack frame's range is recycled to later invocations on any CPU,
#: but each gets a new allocation, and a range is never live for two
#: invocations at once
PRIVATE_TYPES = frozenset({
    "bpf_stack",      # live for one program invocation
    "xdp_frame",      # one preallocated frame per RX queue
    "xdp_ctx",        # ditto: the 32-byte SkBuff-layout context
    "skb_data",       # packet payload owned by its queue's CPU
    "safelang_pool",  # per-CPU bump allocator region
    "pt_regs",        # scratch register file per trace dispatch
    "bpf_attr",       # kcrate syscall scratch buffers
    "key",
    "val",
})
