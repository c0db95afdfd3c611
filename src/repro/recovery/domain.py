"""Per-program fault domains: what a program holds, and how to unwind it.

A domain is snapshotted at dispatch entry (RCU nesting, per-CPU
preempt/irq counts) and records the program's attribution tag plus any
framework-side state (the SafeLang cleanup list and memory pool).
Everything else the program can hold — spinlocks, refcounts, program
stacks, ringbuf reservations — is already tracked *by tag* in the
kernel substrate, so the unwind needs no shadow bookkeeping: it asks
the registries.

``unwind()`` releases exactly the domain's state, in the order real
recovery code would: trusted destructors first (they release in LIFO
order and must not fail), then force-release of anything the
destructors did not cover, then control-state rebalancing (RCU,
preemption) back to the entry snapshot.  ``verify()`` afterwards is
the containment invariant: if the domain still holds anything, the
supervisor refuses to clear the taint and escalates instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional

_RINGBUF_REC = re.compile(r"ringbuf\d+_rec$")


@dataclass
class UnwindReport:
    """What one domain unwind actually did (audit-trail payload)."""

    tag: str
    destructors_run: int = 0
    locks_released: int = 0
    rcu_rebalanced: int = 0
    preempt_rebalanced: int = 0
    irq_rebalanced: int = 0
    refs_reclaimed: int = 0
    allocs_freed: int = 0
    pool_bytes_freed: int = 0

    def as_dict(self) -> Dict[str, object]:
        """Audit/trace payload."""
        return {
            "tag": self.tag,
            "destructors_run": self.destructors_run,
            "locks_released": self.locks_released,
            "rcu_rebalanced": self.rcu_rebalanced,
            "preempt_rebalanced": self.preempt_rebalanced,
            "irq_rebalanced": self.irq_rebalanced,
            "refs_reclaimed": self.refs_reclaimed,
            "allocs_freed": self.allocs_freed,
            "pool_bytes_freed": self.pool_bytes_freed,
        }

    @property
    def total_actions(self) -> int:
        """How many resources the unwind actually touched."""
        return (self.destructors_run + self.locks_released
                + self.rcu_rebalanced + self.preempt_rebalanced
                + self.irq_rebalanced + self.refs_reclaimed
                + self.allocs_freed)


class FaultDomain:
    """One supervised program invocation's resource scope."""

    def __init__(self, kernel: object, tag: str,
                 cleanup: Optional[object] = None,
                 pool: Optional[object] = None) -> None:
        self.kernel = kernel
        #: attribution tag (``bpf:{name}`` / ``safelang:{name}``) —
        #: the same string every registry tracks holders by
        self.tag = tag
        #: the SafeLang trusted-cleanup list, when the framework has one
        self.cleanup = cleanup
        #: the per-CPU pool the invocation allocates from, if any
        self.pool = pool
        # entry snapshot: unwind rebalances *down to* this, so a
        # domain entered inside an outer critical section never
        # releases state it does not own
        self._rcu_nesting = kernel.rcu._nesting
        self._preempt = {cpu.cpu_id: cpu._preempt_count
                         for cpu in kernel.cpus}
        self._irq = {cpu.cpu_id: cpu._irq_depth
                     for cpu in kernel.cpus}
        #: oops high-water mark: every oops whose ``seq`` is at or
        #: past this count happened inside the supervised invocation
        #: and is attributable to the domain regardless of its source
        #: string
        self.oops_mark = kernel.log.oops_total

    # -- unwind -------------------------------------------------------------

    def unwind(self) -> UnwindReport:
        """Release everything the domain holds; idempotent and safe on
        an already-clean domain (every step is a no-op then)."""
        kernel = self.kernel
        report = UnwindReport(tag=self.tag)

        # 1. trusted destructors (LIFO, must-not-fail by construction)
        if self.cleanup is not None:
            report.destructors_run = self.cleanup.teardown()
        if self.pool is not None:
            report.pool_bytes_freed = self.pool.used
            self.pool.reset()

        # 2. force-release what the destructors did not cover
        for lock in kernel.locks.held_by(self.tag):
            lock.force_unlock(source=f"unwind({self.tag})")
            report.locks_released += 1
        report.refs_reclaimed = kernel.refs.reclaim(self.tag)
        for alloc in list(kernel.mem.live_allocations()):
            if alloc.owner != self.tag:
                continue
            if alloc.type_name == "bpf_stack" \
                    or _RINGBUF_REC.match(alloc.type_name):
                kernel.mem.kfree(alloc)
                report.allocs_freed += 1

        # 3. rebalance control state back to the entry snapshot
        rcu = kernel.rcu
        while rcu._nesting > self._rcu_nesting:
            rcu.read_unlock()
            report.rcu_rebalanced += 1
        for cpu in kernel.cpus:
            while cpu._preempt_count > self._preempt[cpu.cpu_id]:
                cpu.preempt_enable()
                report.preempt_rebalanced += 1
            while cpu._irq_depth > self._irq[cpu.cpu_id]:
                cpu.irq_exit()
                report.irq_rebalanced += 1
        return report

    # -- containment invariant ----------------------------------------------

    def verify(self) -> List[str]:
        """Post-unwind containment invariant: the domain must hold
        nothing.  A non-empty answer means containment *failed* and
        the supervisor escalates to a panic instead of clearing taint."""
        kernel = self.kernel
        problems: List[str] = []
        held = kernel.locks.held_by(self.tag)
        if held:
            names = ", ".join(lk.name for lk in held)
            problems.append(f"leaked lock(s) after unwind: {names}")
        if kernel.rcu._nesting > self._rcu_nesting:
            problems.append(
                f"unbalanced RCU after unwind: nesting "
                f"{kernel.rcu._nesting} > entry {self._rcu_nesting}")
        for cpu in kernel.cpus:
            if cpu._preempt_count > self._preempt[cpu.cpu_id]:
                problems.append(
                    f"cpu{cpu.cpu_id} preempt_count "
                    f"{cpu._preempt_count} above entry snapshot")
        if kernel.refs.outstanding_for(self.tag):
            problems.append(
                f"{self.tag} still holds references after unwind")
        if self.pool is not None and self.pool.used != 0:
            problems.append(
                f"pool leak after unwind: {self.pool.used} bytes")
        if self.cleanup is not None and not self.cleanup.torn_down:
            problems.append("cleanup record block not returned to pool")
        for alloc in kernel.mem.live_allocations():
            if alloc.owner == self.tag and (
                    alloc.type_name == "bpf_stack"
                    or _RINGBUF_REC.match(alloc.type_name)):
                problems.append(
                    f"live {alloc.type_name} at {alloc.base:#x} "
                    "after unwind")
        return problems
