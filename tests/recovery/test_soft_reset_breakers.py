"""Pin the soft_reset / circuit-breaker contract (the rollback fix).

``kernel.soft_reset`` must reset the supervisor's breakers for the
named tags — a node rolled back to a prior release re-enters HEALTHY
cleanly — while the supervisor's own containment path (which calls
``soft_reset(breakers=False)`` mid-containment) must keep its breaker
state intact, or repeated oopses could never escalate to quarantine.
"""

import pytest

from repro.ebpf.asm import Asm
from repro.ebpf.bugs import BugConfig
from repro.ebpf.helpers import ids
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.faultinject.plane import FaultAction, NthHit
from repro.kernel import Kernel
from repro.recovery import HealthState

TRIGGER = "helper.bpf_ktime_get_ns"
TAG = "bpf:v"


def victim_prog():
    """Calls the trigger helper, then returns 0."""
    return (Asm()
            .call(ids.BPF_FUNC_ktime_get_ns)
            .mov64_imm(0, 0)
            .exit_()
            .program())


@pytest.fixture
def world(leakcheck):
    """A supervised kernel with the victim loaded and the trigger
    armed to panic on every hit."""
    kernel = Kernel()
    leakcheck(kernel)
    supervisor = kernel.enable_recovery()
    bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
    prog = bpf.load_program(victim_prog(), ProgType.KPROBE, "v")
    kernel.faults.enable(7)
    kernel.faults.arm(TRIGGER, NthHit(1, every=True),
                      FaultAction.panic())
    return kernel, supervisor, bpf, prog


def quarantine(kernel, supervisor, bpf, prog):
    """Drive the victim to QUARANTINED (3 contained oopses)."""
    for _ in range(3):
        bpf.run_on_current_task(prog)
    record = supervisor.health(TAG)
    assert record.state is HealthState.QUARANTINED
    return record


class TestSoftResetClearsBreakers:
    def test_quarantined_tag_reenters_healthy(self, world):
        kernel, supervisor, bpf, prog = world
        record = quarantine(kernel, supervisor, bpf, prog)
        kernel.faults.disarm(TRIGGER)

        kernel.soft_reset((TAG,), reason="rollback")

        assert record.state is HealthState.HEALTHY
        assert not record.fault_log
        assert not record.trial
        assert record.consecutive_quarantines == 0
        assert record.release_at_ns is None
        kinds = [e.get("decision") for e in supervisor.audit_for(TAG)]
        assert "breaker-reset" in kinds

    def test_next_run_is_a_clean_run_not_a_refusal(self, world):
        """Without the fix the breaker stays open: the next run is
        refused with -EAGAIN instead of executing."""
        kernel, supervisor, bpf, prog = world
        record = quarantine(kernel, supervisor, bpf, prog)
        kernel.faults.disarm(TRIGGER)
        refusals_before = record.refusals

        kernel.soft_reset((TAG,), reason="rollback")
        value = bpf.run_on_current_task(prog)

        assert value == 0  # executed, not -EAGAIN
        assert record.refusals == refusals_before
        assert record.state is HealthState.HEALTHY

    def test_reset_publishes_health_event(self, world):
        kernel, supervisor, bpf, prog = world
        quarantine(kernel, supervisor, bpf, prog)
        seen = []
        kernel.events.subscribe(seen.append, kinds=("health",))

        kernel.soft_reset((TAG,), reason="rollback")

        assert [(e.get("old"), e.get("new")) for e in seen] \
            == [("quarantined", "healthy")]

    def test_trial_flag_is_cleared(self, world):
        kernel, supervisor, bpf, prog = world
        record = quarantine(kernel, supervisor, bpf, prog)
        record.trial = True  # as if the breaker had half-opened

        kernel.soft_reset((TAG,), reason="rollback")

        assert not record.trial

    def test_clean_tags_are_untouched(self, world):
        """Resetting a tag with no breaker history is a no-op: no
        audit entry, no health event."""
        kernel, supervisor, _, _ = world
        decisions_before = supervisor.decisions
        reset = supervisor.reset_breakers(("bpf:never-seen",))
        assert reset == 0
        assert supervisor.decisions == decisions_before


class TestContainmentKeepsBreakers:
    def test_contain_path_does_not_clear_the_window(self, world):
        """The supervisor's own soft_reset (breakers=False) must not
        wipe the fault window, or the third oops could never trip
        quarantine."""
        kernel, supervisor, bpf, prog = world
        bpf.run_on_current_task(prog)
        record = supervisor.health(TAG)
        assert record.state is HealthState.DEGRADED
        assert len(record.fault_log) == 1  # survived the contain

        bpf.run_on_current_task(prog)
        bpf.run_on_current_task(prog)
        assert record.state is HealthState.QUARANTINED
