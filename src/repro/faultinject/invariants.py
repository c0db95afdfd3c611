"""Isolation invariants: what must be true of a kernel after any run.

The paper's framework promises *graceful degradation*: whatever an
extension does — and whatever faults the injection plane deals it —
the kernel afterwards is either healthy with all transient state
released, or it went down through the official panic path.  This
module states that as a checkable predicate over one
:class:`~repro.kernel.kernel.Kernel`, shared by the chaos harness and
the pytest leak-check fixtures so both enforce exactly the same
contract.

The checks deliberately cover only state that every framework path
releases in ``finally`` blocks (RCU nesting, preemption, program
stacks, pool bump pointers, watchdog hooks) or tracks by holder
(refcounts, ringbuf reservations).  Long-lived state a test sets up on
purpose — contexts (``pt_regs``, ``skb``), map storage, loaded
programs — is not a leak and is not flagged.
"""

from __future__ import annotations

import re
from typing import List

#: refcount holders whose outstanding references are extension leaks;
#: everything else (e.g. the corpus's deliberately-lost
#: ``kernel-sk-lookup-lost`` attribution) is an experiment's business
EXTENSION_HOLDER_PREFIXES = ("bpf:", "safelang:")

_RINGBUF_REC = re.compile(r"ringbuf\d+_rec$")


def collect_violations(kernel: object) -> List[str]:
    """Every isolation-invariant violation visible on ``kernel``.

    Returns human-readable strings (empty list = balanced).  Callers
    decide severity: the chaos harness fails the run, the pytest
    fixture fails the test.
    """
    violations: List[str] = []

    rcu = kernel.rcu
    if rcu.read_lock_held:
        violations.append(
            f"RCU read lock still held (nesting {rcu._nesting}, "
            f"holder {rcu._holder})")

    for cpu in kernel.cpus:
        if cpu._preempt_count != 0:
            violations.append(
                f"cpu{cpu.cpu_id}: preempt_count "
                f"{cpu._preempt_count} != 0")
        if cpu._irq_depth != 0:
            violations.append(
                f"cpu{cpu.cpu_id}: irq depth {cpu._irq_depth} != 0")
        pool = cpu.storage.get("safelang_pool")
        if pool is not None and pool.used != 0:
            violations.append(
                f"cpu{cpu.cpu_id}: pool holds {pool.used} bytes "
                "after teardown (reset missing)")

    for alloc in kernel.mem.live_allocations():
        if alloc.type_name == "bpf_stack":
            violations.append(
                f"live bpf_stack allocation at {alloc.base:#x} "
                f"(owner {alloc.owner})")
        elif _RINGBUF_REC.match(alloc.type_name):
            violations.append(
                f"outstanding ringbuf reservation at {alloc.base:#x} "
                f"({alloc.type_name}, never submitted or discarded)")

    for holder in kernel.refs.outstanding_holders():
        if not holder.startswith(EXTENSION_HOLDER_PREFIXES):
            continue
        leaked = kernel.refs.outstanding_for(holder)
        detail = ", ".join(
            f"{e.outstanding}x {e.obj.type_name}:{e.obj.name}"
            for e in leaked)
        violations.append(f"{holder} holds leaked references: {detail}")

    for name in kernel.clock.tick_callback_names():
        if name.startswith("watchdog:"):
            violations.append(f"stale watchdog tick callback {name}")

    if not kernel.log.tainted:
        # an untainted kernel must have had every extension-held lock
        # released; a tainted kernel's lock state is wreckage and is
        # judged by the containment invariant instead
        for prefix in EXTENSION_HOLDER_PREFIXES:
            for lock in kernel.locks.all_locks():
                owner = lock.owner
                if owner is not None and owner.startswith(prefix):
                    violations.append(
                        f"spinlock {lock.name} still held by {owner}")

    return violations


def panic_path_consistent(kernel: object) -> bool:
    """True when every oops is accounted for.

    Taint is computed from the open oopses, so it cannot disagree with
    them; what can go wrong is an oops that left the log other than
    through containment.  The contract is that every oops recorded is
    either still open or was contained: ``oops_total == contained +
    len(open_oopses)``.  An oops missing from both means something was
    forgiven outside the official panic path.
    """
    log = kernel.log
    return log.oops_total == log.contained + len(log.open_oopses)


def kernel_violations(kernel: object) -> List[str]:
    """:func:`collect_violations` plus the official-panic-path check:
    the one contract scenario suites and the pytest leak check hold
    every kernel to after a run."""
    violations = collect_violations(kernel)
    if not panic_path_consistent(kernel):
        log = kernel.log
        violations.append(
            "oops count mismatch: an oops left the log outside the "
            f"official panic path (total={log.oops_total}, "
            f"contained={log.contained}, open={len(log.open_oopses)})")
    return violations


def recovery_consistent(kernel: object) -> List[str]:
    """Cross-checks between the supervisor's audit trail and the
    kernel's own records; empty list = consistent.  Trivially
    consistent when recovery was never enabled."""
    problems: List[str] = []
    supervisor = kernel.recovery
    log = kernel.log
    if supervisor is None:
        if log.contained:
            problems.append(
                f"{log.contained} oopses marked contained but no "
                "supervisor was ever attached")
        return problems
    # every containment the supervisor performed must reference real
    # oops records (or have had nothing to clear), never the reverse
    if log.contained and supervisor.contained_total == 0:
        problems.append(
            f"{log.contained} oopses marked contained but the "
            "supervisor performed no containments")
    if supervisor.escalations and not log.panicked:
        problems.append(
            f"supervisor escalated {supervisor.escalations}x but the "
            "kernel never panicked")
    for record in (supervisor.statuses()):
        if record["state"] == "quarantined" \
                and record["release_at_ns"] is None:
            problems.append(
                f"{record['tag']} quarantined without a release time")
    return problems
