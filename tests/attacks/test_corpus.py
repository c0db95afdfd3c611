"""Attack-corpus tests: every case, buggy era and patched."""

import pytest

from repro.attacks import Outcome, build_corpus, run_case
from repro.ebpf.bugs import BugConfig
from repro.kernel import Kernel
from repro.kernel.rcu import stalled_ns

CORPUS = build_corpus()


@pytest.mark.parametrize("case", CORPUS,
                         ids=[c.case_id for c in CORPUS])
def test_case_matches_expected_outcome(case):
    """Each attack produces its documented outcome on a buggy-era
    kernel — this parametrized test IS the Table 2 matrix."""
    assert run_case(case) == case.expected


class TestCorpusIsolation:
    """Whatever the outcome — harmless, contained, or a full
    compromise — the framework must release every transient resource
    it took while the case ran.  The chaos harness enforces this same
    contract under injected faults; this is the fault-free baseline,
    via the shared ``leakcheck`` fixture."""

    @pytest.mark.parametrize("case", CORPUS,
                             ids=[c.case_id for c in CORPUS])
    def test_transient_state_balanced_after_case(self, case,
                                                 leakcheck):
        kernel = Kernel()
        leakcheck(kernel)
        run_case(case, kernel=kernel)


class TestCorpusShape:
    def test_every_property_covered_in_both_frameworks(self):
        properties = {c.safety_property for c in CORPUS}
        assert len(properties) == 6
        for prop in properties:
            frameworks = {c.framework for c in CORPUS
                          if c.safety_property == prop}
            assert "ebpf" in frameworks
            # stack property intentionally has no SafeLang reject case

    def test_ebpf_has_verified_compromises(self):
        compromised = [c for c in CORPUS
                       if c.framework == "ebpf"
                       and c.expected == Outcome.KERNEL_COMPROMISED]
        assert len(compromised) >= 5

    def test_safelang_never_compromised(self):
        assert all(c.expected != Outcome.KERNEL_COMPROMISED
                   for c in CORPUS if c.framework == "safelang")

    def test_safelang_uses_both_mechanisms(self):
        outcomes = {c.expected for c in CORPUS
                    if c.framework == "safelang"}
        assert Outcome.REJECTED_STATIC in outcomes
        assert Outcome.CONTAINED in outcomes

    def test_case_ids_unique(self):
        ids_ = [c.case_id for c in CORPUS]
        assert len(ids_) == len(set(ids_))


class TestPatchedKernel:
    """The helper/verifier-bug attacks stop compromising once the
    2021-2022 fixes are applied — but the structural escapes remain."""

    @pytest.mark.parametrize("case_id", [
        "ebpf-sys-bpf-crash", "ebpf-storage-null", "ebpf-jit-hijack",
        "ebpf-reqsk-leak",
    ])
    def test_bug_attacks_harmless_when_patched(self, case_id):
        case = next(c for c in CORPUS if c.case_id == case_id)
        outcome = run_case(case, bugs=BugConfig.all_patched())
        assert outcome == Outcome.HARMLESS

    def test_ptr_arith_rejected_when_patched(self):
        case = next(c for c in CORPUS
                    if c.case_id == "ebpf-ptr-arith")
        outcome = run_case(case, bugs=BugConfig.all_patched())
        assert outcome == Outcome.REJECTED_STATIC

    def test_probe_read_still_escapes_when_patched(self):
        """The paper's deeper point: patching bugs does not remove the
        escape hatch *by design* — probe_read still reads anything."""
        case = next(c for c in CORPUS
                    if c.case_id == "ebpf-probe-read")
        outcome = run_case(case, bugs=BugConfig.all_patched())
        assert outcome == Outcome.KERNEL_COMPROMISED

    def test_rcu_stall_still_fires_when_patched(self):
        """Same for termination: bpf_loop is working as intended."""
        case = next(c for c in CORPUS
                    if c.case_id == "ebpf-rcu-stall")
        outcome = run_case(case, bugs=BugConfig.all_patched())
        assert outcome == Outcome.KERNEL_COMPROMISED


class TestKernelStateAfterAttacks:
    def test_crash_attack_taints_kernel(self):
        case = next(c for c in CORPUS
                    if c.case_id == "ebpf-sys-bpf-crash")
        kernel = Kernel()
        run_case(case, kernel=kernel)
        assert not kernel.healthy
        assert kernel.log.last_oops().category == "null-deref"

    def test_safelang_attacks_leave_kernel_clean(self):
        for case in CORPUS:
            if case.framework != "safelang":
                continue
            kernel = Kernel()
            run_case(case, kernel=kernel)
            assert kernel.healthy, case.case_id
            assert not kernel.rcu.stalls, case.case_id

    def test_rcu_stall_attack_reports_stalls(self):
        case = next(c for c in CORPUS
                    if c.case_id == "ebpf-rcu-stall")
        kernel = Kernel()
        run_case(case, kernel=kernel)
        assert kernel.rcu.stalls
        first = next(e for e in kernel.events.ring
                     if e.kind == "rcu_stall")
        assert stalled_ns(first) == kernel.rcu.stall_timeout_ns
