"""KernelSpec: declarative construction and the constructor shim."""

import pytest

from repro.ebpf.loader import BpfSubsystem
from repro.kernel import Kernel, KernelSpec
from repro.recovery import RecoveryPolicy


class TestBoot:
    def test_defaults_match_legacy_constructor(self):
        via_spec = Kernel.from_spec(KernelSpec())
        legacy = Kernel()
        assert len(via_spec.cpus) == len(legacy.cpus) == 4
        assert via_spec.recovery is None
        assert not via_spec.telemetry.stats_enabled

    def test_spec_is_recorded_on_the_kernel(self):
        spec = KernelSpec(nr_cpus=2)
        kernel = Kernel.from_spec(spec)
        assert kernel.spec is spec
        assert len(kernel.cpus) == 2

    def test_stats_and_recovery_applied_at_boot(self):
        kernel = Kernel.from_spec(
            KernelSpec(stats_enabled=True, recovery=True))
        assert kernel.telemetry.stats_enabled
        assert kernel.recovery is not None

    def test_policy_implies_recovery(self):
        policy = RecoveryPolicy(quarantine_threshold=9)
        spec = KernelSpec(recovery_policy=policy)
        assert spec.wants_recovery
        kernel = Kernel.from_spec(spec)
        assert kernel.recovery.policy.quarantine_threshold == 9

    def test_fault_arms_applied_at_boot(self):
        spec = KernelSpec().with_faults(
            5, "helper.bpf_ktime_get_ns=every:1=panic")
        kernel = Kernel.from_spec(spec)
        assert kernel.faults.enabled
        assert len(kernel.faults.arms) == 1

    def test_with_faults_accumulates_arms(self):
        spec = KernelSpec().with_faults(1, "a.site=oneshot=panic") \
            .with_faults(1, "b.site=oneshot=panic")
        assert len(spec.fault_arms) == 2

    def test_bad_arm_is_loud(self):
        spec = KernelSpec(fault_arms=("not-an-arm",))
        with pytest.raises(ValueError, match="SITE=SCHEDULE=ACTION"):
            Kernel.from_spec(spec)

    def test_equal_specs_are_interchangeable(self):
        """Frozen + hashable: a fleet can key caches by spec."""
        a = KernelSpec(nr_cpus=2, recovery=True)
        b = KernelSpec(nr_cpus=2, recovery=True)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestSubsystemSide:
    def test_from_spec_threads_toggles(self, leakcheck):
        spec = KernelSpec(use_jit=False, use_load_cache=False)
        kernel = Kernel.from_spec(spec)
        leakcheck(kernel)
        bpf = BpfSubsystem.from_spec(kernel)
        assert bpf.use_jit is False
        assert bpf.load_cache is None

    def test_from_spec_defaults_to_kernel_spec(self, leakcheck):
        kernel = Kernel.from_spec(KernelSpec(use_jit=False))
        leakcheck(kernel)
        bpf = BpfSubsystem.from_spec(kernel)
        assert bpf.use_jit is False

    def test_describe_is_one_line(self):
        spec = KernelSpec(recovery=True, stats_enabled=True).with_faults(
            3, "x=oneshot=panic")
        text = spec.describe()
        assert "recovery=on" in text
        assert "seed=3" in text
