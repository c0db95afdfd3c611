"""Fault-domain tests: snapshot, unwind, containment invariant."""

import pytest

from repro.core.runtime.cleanup import CleanupList
from repro.core.runtime.mempool import MemoryPool
from repro.kernel.kernel import Kernel
from repro.recovery import FaultDomain

TAG = "bpf:victim"


def test_unwind_releases_everything_the_domain_holds(leakcheck):
    kernel = Kernel()
    leakcheck(kernel)
    lock = kernel.locks.create("map17.lock")
    domain = FaultDomain(kernel, TAG)

    lock.lock(TAG)
    kernel.rcu.read_lock(holder=TAG)
    kernel.current_cpu.preempt_disable()
    sock = kernel.refs.create("sk0", "sock")
    sock.get(TAG)
    sock.get(TAG)
    kernel.mem.kmalloc(512, type_name="bpf_stack", owner=TAG)

    report = domain.unwind()
    assert report.locks_released == 1
    assert report.rcu_rebalanced == 1
    assert report.preempt_rebalanced == 1
    assert report.refs_reclaimed == 2
    assert report.allocs_freed == 1
    assert domain.verify() == []
    assert not lock.locked
    assert not kernel.rcu.read_lock_held
    assert kernel.refs.outstanding_for(TAG) == []


def test_unwind_stops_at_the_entry_snapshot(leakcheck):
    """A domain entered inside an outer critical section never
    releases state it does not own."""
    kernel = Kernel()
    leakcheck(kernel)
    kernel.rcu.read_lock(holder="outer")
    kernel.current_cpu.preempt_disable()
    domain = FaultDomain(kernel, TAG)
    kernel.rcu.read_lock(holder=TAG)
    kernel.current_cpu.preempt_disable()

    report = domain.unwind()
    assert report.rcu_rebalanced == 1
    assert report.preempt_rebalanced == 1
    assert kernel.rcu._nesting == 1          # outer section intact
    assert kernel.current_cpu._preempt_count == 1
    assert domain.verify() == []

    kernel.current_cpu.preempt_enable()
    kernel.rcu.read_unlock()


def test_unwind_is_idempotent(leakcheck):
    kernel = Kernel()
    leakcheck(kernel)
    domain = FaultDomain(kernel, TAG)
    kernel.locks.create("l").lock(TAG)
    first = domain.unwind()
    assert first.locks_released == 1
    second = domain.unwind()
    assert second.total_actions == 0


def test_unwind_tears_down_cleanup_and_pool(leakcheck):
    kernel = Kernel()
    leakcheck(kernel)
    pool = MemoryPool(kernel, kernel.current_cpu)
    cleanup = CleanupList(pool=pool)
    assert pool.used > 0       # the record block is carved up front
    domain = FaultDomain(kernel, TAG, cleanup=cleanup, pool=pool)
    pool.alloc(64)

    report = domain.unwind()
    assert report.pool_bytes_freed > 0
    assert pool.used == 0
    assert cleanup.torn_down
    assert domain.verify() == []
    pool.destroy()


def test_verify_reports_residual_state(leakcheck):
    kernel = Kernel()
    leakcheck(kernel)
    lock = kernel.locks.create("stuck")
    domain = FaultDomain(kernel, TAG)
    lock.lock(TAG)
    problems = domain.verify()   # no unwind: the lock is residual
    assert any("leaked lock" in p for p in problems)
    lock.unlock(TAG)
    assert domain.verify() == []


def test_oops_mark_scopes_attribution():
    kernel = Kernel()
    kernel.log.record_oops(0, "pre-existing", category="oops",
                           source="elsewhere")
    domain = FaultDomain(kernel, TAG)
    assert domain.oops_mark == 1
    kernel.log.record_oops(5, "in-domain", category="oops", source=TAG)
    assert [o.reason for o in kernel.log.open_oopses
            if o.seq >= domain.oops_mark] == ["in-domain"]
