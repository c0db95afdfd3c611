"""Spinlocks with the discipline the eBPF verifier polices.

Since ``bpf_spin_lock`` was introduced, the verifier grew logic to
check that a program "only holds one lock at a time and releases the
lock before termination" [48] (paper §2.1).  The simulated spinlock
detects the violations directly: double acquisition (self-deadlock),
release by a non-owner, and locks still held when an extension exits.

Violations go through the *official oops path* when the lock is wired
to a kernel log (the registry the :class:`~repro.kernel.kernel.Kernel`
creates does this): the oops is recorded with attribution first, then
:class:`~repro.errors.KernelDeadlock` is raised — so the recovery
supervisor sees lock abuse exactly like any other kernel fault.
Standalone locks (no log) just raise.

SMP semantics: each lock records the **owner CPU** alongside the owner
tag.  While a deterministic SMP run is active
(:mod:`repro.kernel.smp`), acquire and release are yield points, a
*cross-CPU* contended acquire genuinely spins (the task blocks, other
CPUs keep running, contention is counted in telemetry), and a
*same-CPU* contended acquire is a lockdep violation — a non-preemptible
context spinning on a lock its own CPU already holds can never make
progress, so it oopses through the official path immediately instead
of hanging the schedule.  Without an active SMP run, behavior is
unchanged: any contended acquire is surfaced as a deadlock, because
serialized execution could never release it.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import KernelDeadlock, ResourceLeak


class SpinLock:
    """A non-recursive spinlock with owner + owner-CPU tracking."""

    def __init__(self, name: str, log: Optional[object] = None,
                 clock: Optional[object] = None,
                 kernel: Optional[object] = None) -> None:
        self.name = name
        self._owner: Optional[str] = None
        #: CPU the current holder acquired on (lockdep state)
        self.owner_cpu: Optional[int] = None
        self.acquire_count = 0
        #: acquisitions that had to spin on another CPU's holder
        self.contended_count = 0
        self._log = log
        self._clock = clock
        self._kernel = kernel

    @property
    def locked(self) -> bool:
        """True while held."""
        return self._owner is not None

    @property
    def owner(self) -> Optional[str]:
        """Current holder, if any."""
        return self._owner

    def _violation(self, reason: str, source: str) -> None:
        """Record the violation as an oops (official path) and raise."""
        if self._log is not None:
            now = self._clock.now_ns if self._clock is not None else 0
            self._log.record_oops(now, reason, category="deadlock",
                                  source=source)
        raise KernelDeadlock(reason, source=source)

    def _smp(self) -> Optional[object]:
        """The active SMP scheduler, if a deterministic run is on."""
        if self._kernel is None:
            return None
        return self._kernel.smp

    def lock(self, owner: str) -> None:
        """Acquire.

        Re-acquisition by the same owner is a self-deadlock.  Under an
        active SMP run a contended acquire from *another* CPU blocks
        until the holder releases, while a contended acquire from the
        **same** CPU is a lockdep violation (nothing on that CPU can
        ever release it).  Serialized (non-SMP) execution surfaces any
        contention as a deadlock, as before.
        """
        smp = self._smp()
        if smp is not None:
            smp.yield_point("lock.acquire", self.name)
        if self._owner == owner:
            self._violation(
                f"AA deadlock: {owner} re-acquired spinlock {self.name}",
                owner)
        if self._owner is not None:
            if smp is None:
                self._violation(
                    f"deadlock: {owner} spinning on {self.name} "
                    f"held by {self._owner}",
                    owner)
            cpu = self._kernel.current_cpu.cpu_id
            if self.owner_cpu == cpu:
                self._violation(
                    f"lockdep: cpu{cpu} ({owner}) spinning on "
                    f"{self.name} already held on cpu{cpu} by "
                    f"{self._owner} — non-preemptible self-spin",
                    owner)
            self.contended_count += 1
            smp.note_lock_contention(self.name)
            smp.wait_until(lambda: self._owner is None,
                           f"lock:{self.name}")
        self._owner = owner
        self.owner_cpu = (self._kernel.current_cpu.cpu_id
                          if self._kernel is not None else None)
        self.acquire_count += 1
        if smp is not None:
            smp.note_lock_acquired(self.name)

    def unlock(self, owner: str) -> None:
        """Release.  Only the holder may release."""
        if self._owner is None:
            self._violation(
                f"{owner} unlocked {self.name} which is not held",
                owner)
        if self._owner != owner:
            self._violation(
                f"{owner} unlocked {self.name} held by {self._owner}",
                owner)
        self._owner = None
        self.owner_cpu = None
        smp = self._smp()
        if smp is not None:
            smp.note_lock_released(self.name)
            smp.yield_point("lock.release", self.name)

    def force_unlock(self, source: str = "recovery") -> Optional[str]:
        """Containment release: drop the lock regardless of owner.

        Used only by the recovery supervisor while unwinding a fault
        domain; logged (not an oops — this is the cure, not the
        disease).  Returns the previous owner, or None if unheld."""
        previous = self._owner
        if previous is None:
            return None
        self._owner = None
        self.owner_cpu = None
        if self._log is not None:
            now = self._clock.now_ns if self._clock is not None else 0
            self._log.log(
                now, f"recovery: {source} force-released spinlock "
                     f"{self.name} (was held by {previous})")
        return previous


class LockRegistry:
    """All spinlocks reachable by extensions, with exit-time auditing."""

    def __init__(self, log: Optional[object] = None,
                 clock: Optional[object] = None,
                 kernel: Optional[object] = None) -> None:
        self._locks: List[SpinLock] = []
        self._log = log
        self._clock = clock
        self._kernel = kernel

    def create(self, name: str) -> SpinLock:
        """Create and track a new spinlock."""
        lock = SpinLock(name, log=self._log, clock=self._clock,
                        kernel=self._kernel)
        self._locks.append(lock)
        return lock

    def all_locks(self) -> List[SpinLock]:
        """Every lock ever created through this registry."""
        return list(self._locks)

    def held_by(self, owner: str) -> List[SpinLock]:
        """Locks currently held by ``owner``."""
        return [lk for lk in self._locks if lk.owner == owner]

    def assert_none_held(self, owner: str) -> None:
        """Raise :class:`ResourceLeak` if ``owner`` still holds locks —
        the 'lock held at program exit' condition the verifier rejects
        statically and our runtime detects dynamically."""
        held = self.held_by(owner)
        if held:
            names = ", ".join(lk.name for lk in held)
            raise ResourceLeak(
                f"{owner} exited still holding spinlock(s): {names}",
                source=owner)
