"""RCU read-side critical sections and the stall detector.

The paper's termination-violation experiment (§2.2) runs an eBPF
program "for practically infinite time while holding the RCU read
lock, causing RCU stalls".  eBPF programs run under
``rcu_read_lock()``; a program that never terminates therefore blocks
grace periods and the kernel's RCU stall detector fires.

The simulation models exactly that: entering a program takes the RCU
read lock, the stall detector is a virtual-clock tick callback, and a
critical section that outlives the stall timeout produces a stall
warning (repeating, as the real detector does): one ``rcu_stall``
event on the kernel's event ring, whose dmesg line is rendered from
its holder and section start, and one tick of
:attr:`RcuSubsystem.stalls`.  Like the real kernel, the detector
*reports* the stall but cannot stop the offending code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import RcuStall
from repro.kernel.events import KernelEvent
from repro.kernel.ktime import NSEC_PER_SEC, VirtualClock
from repro.kernel.panic import KernelLog

#: Linux default: RCU CPU stall warnings after 21 seconds
DEFAULT_STALL_TIMEOUT_NS = 21 * NSEC_PER_SEC


def stalled_ns(event: KernelEvent) -> int:
    """How long the critical section of an ``rcu_stall`` event had
    been running when the detector warned."""
    return event.timestamp_ns - event.get("started_ns")


def _stall_lines(event: KernelEvent) -> Tuple[str, ...]:
    """A stall warning's dmesg line, rendered from its event."""
    return (f"rcu: INFO: rcu_sched self-detected stall on CPU "
            f"({event.source} stuck for "
            f"{stalled_ns(event) / NSEC_PER_SEC:.0f}s)",)


class RcuSubsystem:
    """Read-side lock nesting plus the stall detector."""

    def __init__(self, clock: VirtualClock, log: KernelLog,
                 stall_timeout_ns: int = DEFAULT_STALL_TIMEOUT_NS) -> None:
        self._clock = clock
        self._log = log
        #: optional fault-injection plane (wired by the Kernel); the
        #: ``rcu.synchronize`` failpoint stretches grace periods
        self.faults: Optional[object] = None
        self.stall_timeout_ns = stall_timeout_ns
        self._nesting = 0
        self._section_start_ns: Optional[int] = None
        self._holder = "unknown"
        self._next_report_at: Optional[int] = None
        #: stall warnings issued (each one ``rcu_stall`` event)
        self.stalls = 0
        #: backref to the owning kernel (wired by Kernel.__init__);
        #: only consulted for ``kernel.smp`` — one attribute test
        self.kernel: Optional[object] = None
        #: per-reader nesting under SMP: task name -> depth.  The
        #: serialized world keeps using the single global section
        #: (key ``__serial__``), so ``_nesting``/``_holder`` stay
        #: exactly what the leak-check invariants expect.
        self._readers: Dict[str, int] = {}
        #: completed grace periods (advances on every synchronize)
        self.gp_seq = 0
        clock.add_tick_callback("rcu-stall-detector", self._on_tick)

    @property
    def read_lock_held(self) -> bool:
        """True inside a read-side critical section."""
        return self._nesting > 0

    def readers_active(self) -> List[str]:
        """Reader keys currently inside read-side sections."""
        return sorted(k for k, d in self._readers.items() if d > 0)

    def _smp_task(self):
        """(scheduler, task) when called from a scheduled SMP task."""
        kernel = self.kernel
        if kernel is None or kernel.smp is None:
            return None, None
        smp = kernel.smp
        task = smp._scheduled_task()
        if task is None:
            return None, None
        return smp, task

    def read_lock(self, holder: str = "kernel") -> None:
        """Enter a read-side critical section (nests per reader)."""
        smp, task = self._smp_task()
        if smp is not None:
            smp.yield_point("rcu.enter", holder)
        key = task.name if task is not None else "__serial__"
        self._readers[key] = self._readers.get(key, 0) + 1
        if self._nesting == 0:
            self._section_start_ns = self._clock.now_ns
            self._holder = holder
            self._next_report_at = self._clock.now_ns + self.stall_timeout_ns
        self._nesting += 1

    def read_unlock(self) -> None:
        """Leave a read-side critical section."""
        if self._nesting == 0:
            raise RuntimeError("rcu_read_unlock without rcu_read_lock")
        smp, task = self._smp_task()
        key = task.name if task is not None else "__serial__"
        if self._readers.get(key, 0) == 0:
            raise RuntimeError(
                f"rcu_read_unlock by {key} which holds no read lock")
        self._readers[key] -= 1
        if self._readers[key] == 0:
            del self._readers[key]
        self._nesting -= 1
        if self._nesting == 0:
            self._section_start_ns = None
            self._next_report_at = None
        if smp is not None:
            smp.note_rcu_exit()
            smp.yield_point("rcu.exit", key)

    def synchronize(self) -> None:
        """Wait for a grace period.

        Serialized execution: faults (self-deadlock) if *any* read-side
        section is open, as before — nothing else could ever close it.
        Under an active SMP run: still a self-deadlock if the calling
        task itself holds the read lock; otherwise the grace period
        snapshots the readers currently inside their sections and
        **blocks the caller until every one of them exits** (readers
        that enter after the snapshot are irrelevant, like real RCU).
        Advances :attr:`gp_seq` on completion.
        """
        smp, task = self._smp_task()
        if smp is None:
            if self.read_lock_held:
                raise RcuStall(
                    "synchronize_rcu() called with RCU read lock held "
                    f"by {self._holder}: self-deadlock",
                    source=self._holder)
            self._check_sync_faults()
            self.gp_seq += 1
            return
        if self._readers.get(task.name, 0) > 0:
            raise RcuStall(
                "synchronize_rcu() called with RCU read lock held "
                f"by {task.name}: self-deadlock",
                source=task.name)
        smp.yield_point("rcu.sync", "enter")
        snapshot = self.readers_active()
        if snapshot:
            smp.wait_until(
                lambda: all(self._readers.get(k, 0) == 0
                            for k in snapshot),
                f"rcu.gp({','.join(snapshot)})")
        self._check_sync_faults()
        self.gp_seq += 1
        smp.note_rcu_sync()
        smp.yield_point("rcu.sync", f"gp{self.gp_seq}")

    def _check_sync_faults(self) -> None:
        faults = self.faults
        if faults is not None and faults.armed:
            # an injected delay stretches the grace period on the
            # virtual clock (applied by the plane); errno/panic make
            # no sense for a void wait and are ignored
            faults.check("rcu.synchronize")

    #: warnings emitted per clock advance before the detector resyncs
    #: (bulk fast-forwards would otherwise emit unbounded reports)
    MAX_REPORTS_PER_TICK = 8

    def _on_tick(self, now_ns: int) -> None:
        """Stall detector: fires repeatedly while a section overstays.

        Reports are stamped at their *scheduled* deadlines, so a bulk
        virtual-time jump (loop fast-forward) still produces the first
        warning at exactly the stall timeout, like a real periodic
        timer would have."""
        if self._next_report_at is None or now_ns < self._next_report_at:
            return
        assert self._section_start_ns is not None
        emitted = 0
        while self._next_report_at is not None \
                and now_ns >= self._next_report_at \
                and emitted < self.MAX_REPORTS_PER_TICK:
            self.stalls += 1
            self._log.events.publish(
                "rcu_stall", source=self._holder,
                timestamp_ns=self._next_report_at, dmesg=_stall_lines,
                started_ns=self._section_start_ns)
            self._next_report_at += self.stall_timeout_ns
            emitted += 1
        if now_ns >= self._next_report_at:
            # far behind after a huge jump: resync like a rate-limited
            # printk would
            self._next_report_at = now_ns + self.stall_timeout_ns


class RcuReadGuard:
    """Context manager for a read-side critical section."""

    def __init__(self, rcu: RcuSubsystem, holder: str = "kernel") -> None:
        self._rcu = rcu
        self._holder = holder

    def __enter__(self) -> None:
        self._rcu.read_lock(self._holder)

    def __exit__(self, *exc_info: object) -> None:
        self._rcu.read_unlock()
