"""Supervisor behavior: containment, circuit breaker, retry, escalation."""

import pytest

from repro.ebpf.asm import Asm
from repro.ebpf.bugs import BugConfig
from repro.ebpf.helpers import ids
from repro.ebpf.isa import to_u64
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.errors import KernelPanic, VerifierError
from repro.faultinject.plane import (
    EINVAL,
    FaultAction,
    OneShot,
    Probability,
    Scripted,
)
from repro.kernel import Kernel
from repro.recovery import (
    FaultDomain,
    HealthState,
    RecoveryPolicy,
    Supervisor,
)

TRIGGER = "helper.bpf_ktime_get_ns"
EAGAIN = 11
EFAULT = 14


def victim_prog():
    """Calls a helper (the injection trigger), then returns 0 so only
    injected faults ever make the run look unhealthy."""
    return (Asm()
            .call(ids.BPF_FUNC_ktime_get_ns)
            .mov64_imm(0, 0)
            .exit_()
            .program())


def helper_prog():
    """r0 = ktime_get_ns(); exit — exposes injected helper errnos."""
    return (Asm()
            .call(ids.BPF_FUNC_ktime_get_ns)
            .exit_()
            .program())


def supervised_kernel(leakcheck, policy=None):
    kernel = Kernel()
    leakcheck(kernel)
    supervisor = kernel.enable_recovery(policy)
    bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
    return kernel, supervisor, bpf


class TestContainment:
    def test_oops_is_contained_and_kernel_stays_alive(self, leakcheck):
        kernel, supervisor, bpf = supervised_kernel(leakcheck)
        prog = bpf.load_program(victim_prog(), ProgType.KPROBE, "v")
        kernel.faults.enable(7)
        kernel.faults.arm(TRIGGER, OneShot(), FaultAction.panic())

        value = bpf.run_on_current_task(prog)

        assert value == to_u64(-EFAULT)
        assert not kernel.log.tainted
        assert kernel.check_alive()
        assert kernel.log.contained == 1
        assert supervisor.contained_total == 1
        health = supervisor.health("bpf:v")
        assert health.state is HealthState.DEGRADED
        assert health.contained == 1
        kinds = [e.get("decision") for e in supervisor.audit_for("bpf:v")]
        assert "contain" in kinds and "degraded" in kinds

    def test_unsupervised_kernel_still_oopses(self, leakcheck):
        """Recovery changes nothing until it is enabled."""
        kernel = Kernel()
        leakcheck(kernel)
        bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
        prog = bpf.load_program(victim_prog(), ProgType.KPROBE, "v")
        kernel.faults.enable(7)
        kernel.faults.arm(TRIGGER, OneShot(), FaultAction.panic())
        from repro.errors import KernelOops
        with pytest.raises(KernelOops):
            bpf.run_on_current_task(prog)
        assert kernel.log.tainted
        # the leakcheck contract still holds: official panic path
        kernel.log.open_oopses  # tainted kernels skip the lock check


class TestCircuitBreaker:
    def test_three_faults_quarantine_and_detach(self, leakcheck):
        kernel, supervisor, bpf = supervised_kernel(leakcheck)
        prog = bpf.load_program(victim_prog(), ProgType.KPROBE, "v")
        bpf.attach_trace(prog)
        tag = "bpf:v"
        kernel.faults.enable(7)
        kernel.faults.arm(TRIGGER, Probability(1.0),
                          FaultAction.panic())

        for _ in range(3):
            assert bpf.run_on_current_task(prog) == to_u64(-EFAULT)

        health = supervisor.health(tag)
        assert health.state is HealthState.QUARANTINED
        assert health.release_at_ns is not None
        assert not any(att.name == tag
                       for att in kernel.hooks.chain("trace"))

        # breaker open: the next run is refused without executing
        refused = bpf.run_on_current_task(prog)
        assert refused == to_u64(-EAGAIN)
        assert health.refusals == 1
        assert kernel.check_alive()

    def test_half_open_reloads_and_recovers(self, leakcheck):
        kernel, supervisor, bpf = supervised_kernel(leakcheck)
        prog = bpf.load_program(victim_prog(), ProgType.KPROBE, "v")
        tag = "bpf:v"
        kernel.faults.enable(7)
        kernel.faults.arm(TRIGGER, Probability(1.0),
                          FaultAction.panic())
        for _ in range(3):
            bpf.run_on_current_task(prog)
        health = supervisor.health(tag)
        assert health.state is HealthState.QUARANTINED

        # the misbehavior stops; wait out the quarantine window
        kernel.faults.disarm(TRIGGER)
        kernel.clock.advance(
            health.release_at_ns - kernel.clock.now_ns + 1)

        value = bpf.run_on_current_task(prog)

        assert value == 0                      # trial run succeeded
        assert health.state is HealthState.HEALTHY
        assert health.reloads == 1
        assert not health.trial
        kinds = [e.get("decision") for e in supervisor.audit_for(tag)]
        assert kinds.count("half-open") == 1
        assert "reload" in kinds and "recovered" in kinds
        # the identical bytecode came back through the load cache
        reload_events = [e for e in supervisor.audit_for(tag)
                         if e.get("decision") == "reload"]
        assert reload_events[0].get("cache_hit") is True

    def test_trial_failure_requarantines_with_longer_window(
            self, leakcheck):
        kernel, supervisor, bpf = supervised_kernel(leakcheck)
        prog = bpf.load_program(victim_prog(), ProgType.KPROBE, "v")
        tag = "bpf:v"
        kernel.faults.enable(7)
        kernel.faults.arm(TRIGGER, Probability(1.0),
                          FaultAction.panic())
        for _ in range(3):
            bpf.run_on_current_task(prog)
        health = supervisor.health(tag)

        # fault still armed: the trial run oopses again
        kernel.clock.advance(
            health.release_at_ns - kernel.clock.now_ns + 1)
        assert bpf.run_on_current_task(prog) == to_u64(-EFAULT)

        assert health.state is HealthState.QUARANTINED
        assert health.quarantines == 2
        assert health.consecutive_quarantines == 2
        spans = [e.get("release_at_ns") - e.timestamp_ns
                 for e in supervisor.audit_for(tag)
                 if e.get("decision") == "quarantine"]
        assert spans[1] == 2 * spans[0]        # exponential breaker
        assert kernel.check_alive()

    def test_manual_quarantine(self, leakcheck):
        kernel, supervisor, bpf = supervised_kernel(leakcheck)
        prog = bpf.load_program(victim_prog(), ProgType.KPROBE, "v")
        supervisor.quarantine("bpf:v", reason="operator request")
        health = supervisor.health("bpf:v")
        assert health.state is HealthState.QUARANTINED
        assert bpf.run_on_current_task(prog) == to_u64(-EAGAIN)
        quarantine = [e for e in supervisor.audit_for("bpf:v")
                      if e.get("decision") == "quarantine"][0]
        assert quarantine.get("reason") == "operator request"


class TestTransientRetry:
    def test_injected_errno_is_retried_with_backoff(self, leakcheck):
        kernel, supervisor, bpf = supervised_kernel(leakcheck)
        prog = bpf.load_program(helper_prog(), ProgType.KPROBE, "h")
        kernel.faults.enable(7)
        kernel.faults.arm(TRIGGER, Scripted([True, True, False]),
                          FaultAction.err(EINVAL))

        value = bpf.run_on_current_task(prog)

        # two transient failures, then the real helper value
        assert value != to_u64(-EINVAL)
        health = supervisor.health("bpf:h")
        assert health.retries == 2
        assert health.faults_total == 0
        assert health.state is HealthState.HEALTHY
        retries = [e for e in supervisor.audit_for("bpf:h")
                   if e.get("decision") == "retry"]
        assert [e.get("backoff_ns") for e in retries] \
            == [10_000, 20_000]
        assert [e.get("errno") for e in retries] \
            == [EINVAL, EINVAL]

    def test_exhausted_retries_count_as_a_fault(self, leakcheck):
        kernel, supervisor, bpf = supervised_kernel(leakcheck)
        prog = bpf.load_program(helper_prog(), ProgType.KPROBE, "h")
        kernel.faults.enable(7)
        kernel.faults.arm(TRIGGER, Probability(1.0),
                          FaultAction.err(EINVAL))

        value = bpf.run_on_current_task(prog)

        assert value == to_u64(-EINVAL)        # failure surfaces
        health = supervisor.health("bpf:h")
        assert health.retries == 2             # policy.max_retries
        assert health.faults_total == 1
        assert health.state is HealthState.DEGRADED
        assert [k for _, k in health.fault_log] == [f"errno:{EINVAL}"]

    def test_genuine_errno_return_is_not_retried(self, leakcheck):
        """Only *injected* errnos are treated as transient: a program
        that legitimately returns an errno-shaped value runs once."""
        kernel, supervisor, bpf = supervised_kernel(leakcheck)
        prog = bpf.load_program(
            Asm().mov64_imm(0, -EINVAL).exit_().program(),
            ProgType.KPROBE, "legit")
        assert bpf.run_on_current_task(prog) == to_u64(-EINVAL)
        health = supervisor.health("bpf:legit")
        assert health.retries == 0
        assert health.faults_total == 0
        assert health.state is HealthState.HEALTHY


class TestSupervisedLoad:
    def test_transient_load_errno_is_retried(self, leakcheck):
        kernel, supervisor, bpf = supervised_kernel(leakcheck)
        kernel.faults.enable(7)
        kernel.faults.arm("load.verify", Scripted([True, True, False]),
                          FaultAction.err(EINVAL))

        prog = bpf.load_program(victim_prog(), ProgType.KPROBE, "v")

        assert prog.name == "v"
        health = supervisor.health("bpf:v")
        assert health.retries == 2
        assert health.faults_total == 0

    def test_verifier_crash_is_contained(self, leakcheck):
        kernel, supervisor, bpf = supervised_kernel(leakcheck)
        kernel.faults.enable(7)
        kernel.faults.arm("load.verify", OneShot(),
                          FaultAction.panic())

        with pytest.raises(VerifierError, match="contained"):
            bpf.load_program(victim_prog(), ProgType.KPROBE, "v")

        assert not kernel.log.tainted
        assert kernel.check_alive()
        assert supervisor.health("bpf:v").state is HealthState.DEGRADED

        # the crash was transient: an unfaulted reload succeeds
        prog = bpf.load_program(victim_prog(), ProgType.KPROBE, "v")
        assert bpf.run_on_current_task(prog) == 0


class TestEscalation:
    @pytest.mark.dirty_kernel
    def test_oops_budget_exhaustion_panics(self, leakcheck):
        policy = RecoveryPolicy(oops_budget=1, quarantine_threshold=99)
        kernel, supervisor, bpf = supervised_kernel(leakcheck, policy)
        prog = bpf.load_program(victim_prog(), ProgType.KPROBE, "v")
        kernel.faults.enable(7)
        kernel.faults.arm(TRIGGER, Probability(1.0),
                          FaultAction.panic())

        assert bpf.run_on_current_task(prog) == to_u64(-EFAULT)
        with pytest.raises(KernelPanic, match="oops budget"):
            bpf.run_on_current_task(prog)

        assert kernel.log.panicked
        assert kernel.log.tainted
        assert supervisor.escalations == 1
        assert supervisor.audit_for("bpf:v")[-1].get("decision") \
            == "escalate"

    @pytest.mark.dirty_kernel
    def test_containment_invariant_failure_panics(
            self, leakcheck, monkeypatch):
        kernel = Kernel()
        leakcheck(kernel)
        supervisor = Supervisor(kernel)
        domain = FaultDomain(kernel, "bpf:broken")
        monkeypatch.setattr(
            domain, "verify",
            lambda: ["leaked lock map.lock still held"])

        with pytest.raises(KernelPanic,
                           match="containment invariant failed"):
            supervisor.contain("bpf:broken", RuntimeError("boom"),
                               domain)

        assert kernel.log.panicked
        assert supervisor.escalations == 1
        assert supervisor.contained_total == 0
