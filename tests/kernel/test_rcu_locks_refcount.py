"""RCU, spinlock and refcount subsystem tests."""

import pytest

from repro.errors import KernelDeadlock, RcuStall, ResourceLeak, \
    UseAfterFree
from repro.kernel.ktime import NSEC_PER_SEC, VirtualClock
from repro.kernel.locks import LockRegistry, SpinLock
from repro.kernel.panic import KernelLog
from repro.kernel.rcu import RcuReadGuard, RcuSubsystem, stalled_ns
from repro.kernel.refcount import RefcountRegistry


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def rcu(clock):
    return RcuSubsystem(clock, KernelLog())


def stall_events(rcu):
    """The stall warnings the ring holds, oldest first."""
    return [e for e in rcu._log.events.ring if e.kind == "rcu_stall"]


class TestRcu:
    def test_read_lock_nesting(self, rcu):
        rcu.read_lock()
        rcu.read_lock()
        assert rcu.read_lock_held
        rcu.read_unlock()
        assert rcu.read_lock_held
        rcu.read_unlock()
        assert not rcu.read_lock_held

    def test_unbalanced_unlock_raises(self, rcu):
        with pytest.raises(RuntimeError):
            rcu.read_unlock()

    def test_guard_context_manager(self, rcu):
        with RcuReadGuard(rcu):
            assert rcu.read_lock_held
        assert not rcu.read_lock_held

    def test_no_stall_below_timeout(self, rcu, clock):
        rcu.read_lock()
        clock.advance(rcu.stall_timeout_ns - 1)
        assert rcu.stalls == 0

    def test_stall_detected_at_timeout(self, rcu, clock):
        rcu.read_lock(holder="prog")
        clock.advance(rcu.stall_timeout_ns)
        assert rcu.stalls == 1
        assert stall_events(rcu)[0].source == "prog"

    def test_stall_warnings_repeat(self, rcu, clock):
        rcu.read_lock()
        for __ in range(3):
            clock.advance(rcu.stall_timeout_ns)
        assert rcu.stalls == 3

    def test_bulk_advance_stamps_first_stall_at_deadline(self, rcu,
                                                         clock):
        """A fast-forward jump must still report the first stall at
        exactly the timeout (21s), not at the jump end."""
        rcu.read_lock()
        clock.advance(100 * rcu.stall_timeout_ns)
        assert rcu.stalls
        assert stalled_ns(stall_events(rcu)[0]) == rcu.stall_timeout_ns

    def test_bulk_advance_report_count_bounded(self, rcu, clock):
        rcu.read_lock()
        clock.advance(10**6 * rcu.stall_timeout_ns)
        assert rcu.stalls <= rcu.MAX_REPORTS_PER_TICK

    def test_unlock_resets_stall_tracking(self, rcu, clock):
        rcu.read_lock()
        rcu.read_unlock()
        clock.advance(10 * rcu.stall_timeout_ns)
        assert rcu.stalls == 0

    def test_stall_logged_to_dmesg(self, rcu, clock):
        rcu.read_lock(holder="bpf:stall")
        clock.advance(rcu.stall_timeout_ns)
        assert rcu._log.grep("self-detected stall")

    def test_synchronize_under_read_lock_deadlocks(self, rcu):
        rcu.read_lock()
        with pytest.raises(RcuStall):
            rcu.synchronize()

    def test_synchronize_outside_section_ok(self, rcu):
        rcu.synchronize()  # no exception


class TestSpinLock:
    def test_lock_unlock(self):
        lock = SpinLock("l")
        lock.lock("a")
        assert lock.locked and lock.owner == "a"
        lock.unlock("a")
        assert not lock.locked

    def test_aa_deadlock_detected(self):
        lock = SpinLock("l")
        lock.lock("a")
        with pytest.raises(KernelDeadlock):
            lock.lock("a")

    def test_contended_lock_detected(self):
        lock = SpinLock("l")
        lock.lock("a")
        with pytest.raises(KernelDeadlock):
            lock.lock("b")

    def test_unlock_not_held(self):
        with pytest.raises(KernelDeadlock):
            SpinLock("l").unlock("a")

    def test_unlock_wrong_owner(self):
        lock = SpinLock("l")
        lock.lock("a")
        with pytest.raises(KernelDeadlock):
            lock.unlock("b")

    def test_acquire_count(self):
        lock = SpinLock("l")
        for __ in range(3):
            lock.lock("a")
            lock.unlock("a")
        assert lock.acquire_count == 3

    def test_registry_audit_clean(self):
        registry = LockRegistry()
        lock = registry.create("l")
        lock.lock("prog")
        lock.unlock("prog")
        registry.assert_none_held("prog")

    def test_registry_audit_held_at_exit(self):
        registry = LockRegistry()
        registry.create("l").lock("prog")
        with pytest.raises(ResourceLeak):
            registry.assert_none_held("prog")

    def test_registry_held_by(self):
        registry = LockRegistry()
        a = registry.create("a")
        registry.create("b")
        a.lock("prog")
        assert registry.held_by("prog") == [a]


class TestRefcount:
    def test_initial_count_is_one(self):
        registry = RefcountRegistry()
        obj = registry.create("s", "sock")
        assert obj.refcount == 1

    def test_get_put_balance(self):
        registry = RefcountRegistry()
        obj = registry.create("s", "sock")
        obj.get("prog")
        assert obj.refcount == 2
        obj.put("prog")
        assert obj.refcount == 1

    def test_release_at_zero(self):
        registry = RefcountRegistry()
        obj = registry.create("s", "sock")
        obj.put("kernel")
        assert obj.released

    def test_get_after_release_faults(self):
        registry = RefcountRegistry()
        obj = registry.create("s", "sock")
        obj.put("kernel")
        with pytest.raises(UseAfterFree):
            obj.get("prog")

    def test_put_after_release_faults(self):
        registry = RefcountRegistry()
        obj = registry.create("s", "sock")
        obj.put("kernel")
        with pytest.raises(UseAfterFree):
            obj.put("prog")

    def test_outstanding_tracked_per_holder(self):
        registry = RefcountRegistry()
        obj = registry.create("s", "sock")
        obj.get("a")
        obj.get("b")
        obj.put("b")
        leaks = registry.outstanding_for("a")
        assert len(leaks) == 1 and leaks[0].outstanding == 1
        assert registry.outstanding_for("b") == []

    def test_assert_no_leaks_raises(self):
        registry = RefcountRegistry()
        registry.create("s", "sock").get("prog")
        with pytest.raises(ResourceLeak):
            registry.assert_no_leaks("prog")

    def test_assert_no_leaks_clean(self):
        registry = RefcountRegistry()
        obj = registry.create("s", "sock")
        obj.get("prog")
        obj.put("prog")
        registry.assert_no_leaks("prog")

    def test_multiple_gets_same_holder(self):
        registry = RefcountRegistry()
        obj = registry.create("s", "sock")
        obj.get("prog")
        obj.get("prog")
        assert registry.outstanding_for("prog")[0].outstanding == 2
