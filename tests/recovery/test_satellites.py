"""Satellite coverage: cleanup-list pool accounting, pool rewind,
spinlock violations on the official oops path, watchdog visibility,
quarantine detach, refcount reclaim."""

import pytest

from repro.core.runtime.cleanup import CleanupList
from repro.core.runtime.mempool import MemoryPool
from repro.core.runtime.watchdog import Watchdog
from repro.errors import KernelDeadlock
from repro.kernel import Kernel
from repro.kernel.locks import SpinLock


class TestCleanupPoolAccounting:
    def test_teardown_returns_the_record_block(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        pool = MemoryPool(kernel, kernel.current_cpu)
        cleanup = CleanupList(pool=pool, capacity=8)
        assert pool.used == 8 * 16        # record storage carved up front
        assert not cleanup.torn_down

        cleanup.teardown()

        assert cleanup.torn_down
        assert pool.used == 0
        assert pool.live_blocks() == []
        pool.destroy()

    def test_teardown_is_idempotent(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        pool = MemoryPool(kernel, kernel.current_cpu)
        cleanup = CleanupList(pool=pool)
        cleanup.teardown()
        cleanup.teardown()
        assert pool.used == 0
        pool.destroy()

    def test_leak_assertion_fires_before_teardown(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        pool = MemoryPool(kernel, kernel.current_cpu)
        cleanup = CleanupList(pool=pool)
        with pytest.raises(AssertionError, match="record block leaked"):
            cleanup.assert_torn_down()
        cleanup.teardown()
        cleanup.assert_torn_down()        # now passes
        pool.destroy()

    def test_poolless_cleanup_is_always_torn_down(self):
        cleanup = CleanupList()
        assert cleanup.torn_down
        cleanup.teardown()


class TestPoolRewind:
    def test_freeing_the_top_block_rewinds(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        pool = MemoryPool(kernel, kernel.current_cpu)
        a = pool.alloc(64)
        b = pool.alloc(64)
        used = pool.used
        pool.free(b)
        assert pool.used == used - 64
        pool.free(a)
        assert pool.used == 0
        pool.free(a)                      # idempotent
        assert pool.used == 0
        pool.destroy()

    def test_middle_free_reclaims_when_top_goes(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        pool = MemoryPool(kernel, kernel.current_cpu)
        a = pool.alloc(64)
        b = pool.alloc(64)
        pool.free(a)                      # middle: marked, not rewound
        assert pool.used == 128
        assert pool.live_blocks() == [b]
        pool.free(b)                      # top goes: both reclaimed
        assert pool.used == 0
        pool.destroy()


class TestSpinLockOfficialPath:
    @pytest.mark.dirty_kernel
    def test_aa_deadlock_records_an_oops(self, leakcheck):
        """Registry-created locks report violations through the
        official oops path: record first, then raise."""
        kernel = Kernel()
        leakcheck(kernel)
        lock = kernel.locks.create("map.lock")
        lock.lock("bpf:v")
        with pytest.raises(KernelDeadlock):
            lock.lock("bpf:v")
        assert kernel.log.tainted
        oops = kernel.log.last_oops()
        assert oops.category == "deadlock"
        assert oops.source == "bpf:v"
        assert "AA deadlock" in oops.reason

    @pytest.mark.dirty_kernel
    def test_unlock_violations_also_oops(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        lock = kernel.locks.create("map.lock")
        with pytest.raises(KernelDeadlock):
            lock.unlock("bpf:v")
        assert [o.category for o in kernel.log.open_oopses] == \
            ["deadlock"]

    def test_bare_spinlock_still_raises_without_a_log(self):
        lock = SpinLock("orphan")
        lock.lock("a")
        with pytest.raises(KernelDeadlock):
            lock.lock("a")

    def test_force_unlock_logs_but_never_oopses(self, leakcheck):
        """The containment release is the cure, not the disease."""
        kernel = Kernel()
        leakcheck(kernel)
        lock = kernel.locks.create("map.lock")
        lock.lock("bpf:v")
        assert lock.force_unlock(source="supervisor") == "bpf:v"
        assert not lock.locked
        assert not kernel.log.tainted
        assert kernel.log.oops_total == 0
        assert kernel.log.grep("force-released spinlock map.lock")
        assert lock.force_unlock() is None     # idempotent


class TestWatchdogVisibility:
    def test_fire_is_visible_in_dmesg(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        dog = Watchdog(kernel.clock, budget_ns=1_000, name="victim",
                       on_fire=lambda wd: kernel.telemetry
                       .record_watchdog_fire("safelang", wd.name,
                                             wd.budget_ns))
        dog.arm()
        kernel.clock.advance(2_000)
        assert dog.fired
        assert dog.fire_count == 1
        assert kernel.log.grep("watchdog: extension 'victim'")


class TestQuarantineDetach:
    def test_detach_everywhere_sweeps_all_chains(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        kernel.hooks.attach("trace", "bpf:v", lambda ctx: 0)
        kernel.hooks.attach("xdp", "bpf:v", lambda ctx: 0)
        kernel.hooks.attach("trace", "bpf:other", lambda ctx: 0)

        assert kernel.hooks.detach_everywhere("bpf:v", "quarantine") == 2
        assert [a.name for a in kernel.hooks.chain("trace")] \
            == ["bpf:other"]
        assert kernel.hooks.chain("xdp") == []
        assert kernel.hooks.detach_everywhere("bpf:v", "quarantine") == 0


class TestRefReclaim:
    def test_reclaim_returns_every_outstanding_ref(self, leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        sock = kernel.refs.create("sk0", "sock")
        sock.get("bpf:v")
        sock.get("bpf:v")
        sock.get("other")

        assert kernel.refs.reclaim("bpf:v") == 2
        assert kernel.refs.outstanding_for("bpf:v") == []
        assert len(kernel.refs.outstanding_for("other")) == 1
        kernel.refs.reclaim("other")
        kernel.refs.assert_no_leaks("bpf:v")
