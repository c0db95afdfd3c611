"""The fault trace, the audit trail, oopses and RCU stalls are views
of the event ring.

The fault plane and the supervisor publish each delivered fault and
each decision once, as a ``fault`` or ``recovery`` event on the
kernel's ring, and keep only counts and running digests of them; the
kernel log keeps only the oopses not yet contained, and the stall
detector only a count of its warnings.  So ten times the faults,
decisions, oopses and stalls leave each holding what it held before,
the ring stays at its bound, and the counts and signatures still cover
every event the ring has overwritten.
"""

import hashlib
from collections import Counter, deque

from repro.ebpf.asm import Asm
from repro.ebpf.bugs import BugConfig
from repro.ebpf.helpers import ids
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.faultinject.plane import (
    EINVAL,
    FaultAction,
    Probability,
    parse_action,
)
from repro.kernel import Kernel
from repro.kernel.events import EVENT_RING_RECORDS

TAG = "bpf:h"
#: supervised runs in the small leg; the large leg runs ten times as
#: many, enough faults and decisions to wrap the ring
N = 150
#: virtual time between runs, so quarantines expire and half-open
STEP_NS = 1_000_000


def held(obj):
    """Items in the containers ``obj`` keeps as attributes."""
    return sum(len(value) for value in vars(obj).values()
               if isinstance(value, (list, dict, set, deque)))


class Witness:
    """Recomputes the fault trace and the audit trail from every event
    the bus delivers, including those the ring later overwrites."""

    def __init__(self, kernel):
        self.faults = []
        self.decisions = []
        self.fault_digest = hashlib.sha256()
        self.audit_digest = hashlib.sha256()
        kernel.events.subscribe(self.see, kinds=("fault", "recovery"))

    def see(self, event):
        if event.kind == "fault":
            action = parse_action(event.get("action"))
            self.fault_digest.update(repr((
                len(self.faults), event.source, event.get("pattern"),
                action.kind, action.errno, action.delay_ns,
                event.get("hit"), event.timestamp_ns)).encode())
            self.faults.append(event)
        else:
            detail = [(k, v) for k, v in event.detail if k != "decision"]
            self.audit_digest.update(repr((
                event.timestamp_ns, event.get("decision"), event.source,
                detail)).encode())
            self.decisions.append(event)


def test_counts_and_digests_cover_what_the_ring_overwrote(leakcheck):
    kernel = Kernel()
    leakcheck(kernel)
    supervisor = kernel.enable_recovery()
    plane = kernel.faults
    witness = Witness(kernel)
    plane.enable(11)
    # half of the helper's calls fail: retried, exhausted, degraded,
    # quarantined, refused, half-opened and reloaded in turn
    plane.arm("helper.*", Probability(0.5), FaultAction.err(EINVAL))
    bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
    prog = bpf.load_program(
        Asm().call(ids.BPF_FUNC_ktime_get_ns).exit_().program(),
        ProgType.KPROBE, "h")

    def drive(runs):
        for __ in range(runs):
            bpf.run_on_current_task(prog)
            kernel.clock.advance(STEP_NS)
        assert len(kernel.events.ring) <= EVENT_RING_RECORDS
        assert plane.delivered == len(witness.faults)
        assert plane.errnos == len(witness.faults)
        assert supervisor.decisions == len(witness.decisions)
        assert plane.trace_signature() == \
            witness.fault_digest.hexdigest()
        assert supervisor.audit_signature() == \
            witness.audit_digest.hexdigest()
        # the listings show the tail the ring still holds, numbered
        # with each fault's true place in the trace
        retained = plane.retained(kernel.events.ring)
        assert [event for __, event in retained] == \
            witness.faults[len(witness.faults) - len(retained):]
        assert [seq for seq, __ in retained] == list(range(
            plane.delivered - len(retained), plane.delivered))
        trail = supervisor.audit_for(TAG)
        assert trail == \
            witness.decisions[len(witness.decisions) - len(trail):]
        return held(plane), held(supervisor)

    small = drive(N)
    large = drive(9 * N)

    assert large == small
    assert plane.delivered > EVENT_RING_RECORDS
    assert supervisor.decisions > EVENT_RING_RECORDS
    assert plane.retained(kernel.events.ring)[0][0] > 0
    kinds = {event.get("decision") for event in witness.decisions}
    assert {"retry", "degraded", "quarantine", "refused", "half-open",
            "reload"} <= kinds


def test_oops_and_stall_counts_cover_what_the_ring_overwrote(leakcheck):
    kernel = Kernel()
    leakcheck(kernel)
    log, rcu = kernel.log, kernel.rcu
    seen = Counter()
    kernel.events.subscribe(lambda event: seen.update([event.kind]),
                            kinds=("oops", "rcu_stall"))

    def drive(cycles):
        for index in range(cycles):
            # an oops contained by soft reset, then a stall warning
            log.record_oops(kernel.clock.now_ns, f"oops {index}",
                            category="oops", source=TAG)
            assert kernel.soft_reset({TAG}, reason="unwound") == 1
            rcu.read_lock(TAG)
            kernel.clock.advance(rcu.stall_timeout_ns)
            rcu.read_unlock()
        assert len(kernel.events.ring) <= EVENT_RING_RECORDS
        assert log.oops_total == log.contained == seen["oops"]
        assert rcu.stalls == seen["rcu_stall"]
        assert log.last_oops().reason == f"oops {cycles - 1}"
        assert not log.tainted
        return held(log), held(rcu)

    small = drive(N)
    large = drive(9 * N)

    assert large == small
    assert log.oops_total == rcu.stalls == 10 * N > EVENT_RING_RECORDS
    # the ring wrapped: most oopses survive only in the counts
    assert sum(e.kind == "oops" for e in kernel.events.ring) < \
        log.oops_total // 2
