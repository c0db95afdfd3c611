"""SMP lock discipline: owner-CPU tracking, lockdep, real contention."""

import pytest

from repro.errors import KernelDeadlock
from repro.kernel import Kernel
from repro.kernel.smp import ScriptedInterleaving, SmpScheduler


class TestLockdepSameCpu:
    def test_same_cpu_reacquire_oopses_through_panic_path(self):
        """An IRQ-style re-entry on the holder's own CPU can never
        make progress: lockdep oopses immediately via the official
        path instead of hanging the schedule."""
        kernel = Kernel(nr_cpus=2)
        lock = kernel.locks.create("dev.lock")
        smp = SmpScheduler(kernel, seed=0)
        def body():
            lock.lock("prog")
            # simulated interrupt handler on the same CPU re-enters
            lock.lock("irq")
        smp.spawn(body, cpu=0, name="prog")
        with pytest.raises(KernelDeadlock, match="lockdep"):
            smp.run()
        assert kernel.log.tainted
        oops = kernel.log.last_oops()
        assert oops.category == "deadlock"
        assert "non-preemptible self-spin" in oops.reason
        assert "cpu0" in oops.reason

    def test_aa_reacquire_still_detected_under_smp(self):
        kernel = Kernel(nr_cpus=2)
        lock = kernel.locks.create("aa.lock")
        smp = SmpScheduler(kernel, seed=0)
        def body():
            lock.lock("prog")
            lock.lock("prog")
        smp.spawn(body, cpu=0, name="prog")
        with pytest.raises(KernelDeadlock, match="AA deadlock"):
            smp.run()
        assert kernel.log.last_oops().category == "deadlock"

    def test_serialized_behavior_unchanged(self, leakcheck):
        """Without an SMP run, any contention is still an immediate
        deadlock (nothing else could ever release the lock)."""
        kernel = Kernel(nr_cpus=2)
        leakcheck(kernel)
        lock = kernel.locks.create("serial.lock")
        lock.lock("a")
        with pytest.raises(KernelDeadlock):
            lock.lock("b")


class TestCrossCpuContention:
    def test_contended_acquire_spins_until_release(self):
        """A cross-CPU contended acquire blocks (does not oops) and
        proceeds once the holder releases — strict mutual exclusion."""
        kernel = Kernel(nr_cpus=2)
        lock = kernel.locks.create("counter.lock")
        smp = SmpScheduler(kernel, seed=0)
        events = []
        def holder():
            lock.lock("holder")
            events.append("h:locked")
            smp.yield_point("helper", "hold")  # contender tries here
            events.append("h:unlocking")
            lock.unlock("holder")
        def contender():
            lock.lock("contender")
            events.append("c:locked")
            lock.unlock("contender")
        # force: holder takes the lock (decisions 1-2), the contender
        # then attempts the acquire and spins (3-4); the tail is
        # seeded but the order is already pinned by the blocking
        schedule = ScriptedInterleaving([0, 0, 1, 1])
        smp = SmpScheduler(kernel, schedule=schedule)
        smp.spawn(holder, cpu=0, name="holder")
        smp.spawn(contender, cpu=1, name="contender")
        smp.run()
        assert events.index("c:locked") > events.index("h:unlocking")
        assert lock.contended_count == 1
        assert lock.owner is None and lock.owner_cpu is None

    def test_owner_cpu_recorded_while_held(self):
        kernel = Kernel(nr_cpus=4)
        lock = kernel.locks.create("pin.lock")
        smp = SmpScheduler(kernel, seed=0)
        seen = {}
        def body():
            lock.lock("prog")
            seen["cpu"] = lock.owner_cpu
            lock.unlock("prog")
        smp.spawn(body, cpu=2, name="prog")
        smp.run()
        assert seen["cpu"] == 2
        assert lock.owner_cpu is None

    def test_contention_counted_in_telemetry(self):
        kernel = Kernel(nr_cpus=2)
        lock = kernel.locks.create("hot.lock")
        smp = SmpScheduler(kernel, seed=1)
        def writer(owner):
            def body():
                for __ in range(3):
                    lock.lock(owner)
                    smp.yield_point("helper", owner)
                    lock.unlock(owner)
            return body
        smp.spawn(writer("a"), cpu=0, name="a")
        smp.spawn(writer("b"), cpu=1, name="b")
        smp.run()
        family = kernel.telemetry._smp_contention
        total = sum(inst.value for __, inst in family.samples())
        assert total == smp.lock_contentions == lock.contended_count
        assert lock.acquire_count == 6

    def test_mutual_exclusion_holds_on_every_seed(self):
        """Across many seeds, the critical section is never entered
        by two tasks at once."""
        for seed in range(10):
            kernel = Kernel(nr_cpus=2)
            lock = kernel.locks.create("mx.lock")
            smp = SmpScheduler(kernel, seed=seed)
            inside = {"count": 0, "max": 0}
            def writer(owner):
                def run():
                    for __ in range(2):
                        lock.lock(owner)
                        inside["count"] += 1
                        inside["max"] = max(inside["max"],
                                            inside["count"])
                        smp.yield_point("helper", "cs")
                        inside["count"] -= 1
                        lock.unlock(owner)
                return run
            smp.spawn(writer("a"), cpu=0, name="a")
            smp.spawn(writer("b"), cpu=1, name="b")
            smp.run()
            assert inside["max"] == 1, f"seed {seed} broke exclusion"
