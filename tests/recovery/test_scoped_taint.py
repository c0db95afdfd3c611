"""Scoped taint and kernel soft-reset semantics."""

import pytest

from repro.errors import KernelSafetyViolation
from repro.faultinject.invariants import (
    kernel_violations,
    panic_path_consistent,
)
from repro.kernel import Kernel
from repro.kernel.panic import OopsRecord


class TestMarkContained:
    def test_containment_clears_scoped_taint(self):
        kernel = Kernel()
        log = kernel.log
        log.record_oops(100, "null deref", category="page-fault",
                        source="bpf:v")
        assert log.tainted

        marked = log.mark_contained({"bpf:v"}, 200,
                                    "fault domain unwound")
        assert marked == 1
        assert not log.tainted
        assert (log.oops_total, log.contained) == (1, 1)
        assert log.open_oopses == []
        # the audit trail lands in dmesg
        assert log.grep("recovery: contained oops")[-1].lines() == (
            "recovery: contained oops (page-fault: null deref) "
            "[bpf:v]: fault domain unwound",)

    def test_taint_from_other_sources_survives(self):
        """Soft-reset is scoped: containing one extension's oops does
        not forgive another's."""
        kernel = Kernel()
        log = kernel.log
        log.record_oops(100, "a", category="oops", source="bpf:a")
        log.record_oops(110, "b", category="oops", source="bpf:b")

        assert log.mark_contained({"bpf:a"}, 200, "unwound") == 1
        assert log.tainted                  # bpf:b's oops remains
        assert [o.source for o in log.open_oopses] == ["bpf:b"]

        assert log.mark_contained({"bpf:b"}, 300, "unwound") == 1
        assert not log.tainted

    def test_mark_contained_is_idempotent(self):
        kernel = Kernel()
        kernel.log.record_oops(1, "x", category="oops", source="s")
        assert kernel.log.mark_contained({"s"}, 2, "r") == 1
        assert kernel.log.mark_contained({"s"}, 3, "again") == 0
        assert kernel.log.contained == 1
        assert len(kernel.log.grep("recovery: contained oops")) == 1

    def test_panic_is_permanent(self):
        """A real panic can never be soft-reset away."""
        kernel = Kernel()
        log = kernel.log
        log.record_oops(100, "x", category="oops", source="bpf:v")
        log.panic(150, "containment failed", source="bpf:v")

        log.mark_contained({"bpf:v"}, 200, "attempted forgiveness")
        assert log.panicked
        assert log.tainted
        with pytest.raises(KernelSafetyViolation, match="panicked"):
            kernel.check_alive()


class TestSoftReset:
    def test_soft_reset_filters_by_source(self):
        kernel = Kernel()
        kernel.log.record_oops(1, "mine", category="oops",
                               source="bpf:v")
        kernel.log.record_oops(2, "theirs", category="oops",
                               source="safelang:w")
        cleared = kernel.soft_reset({"bpf:v"}, reason="unwound")
        assert cleared == 1
        assert kernel.log.tainted

    def test_check_alive_semantics(self):
        kernel = Kernel()
        assert kernel.check_alive()

        kernel.log.record_oops(1, "x", category="oops", source="s")
        with pytest.raises(KernelSafetyViolation, match="tainted"):
            kernel.check_alive()

        kernel.soft_reset({"s"}, reason="unwound")
        assert kernel.check_alive()


class TestPanicPathConsistency:
    def test_contained_kernel_is_consistent(self):
        kernel = Kernel()
        assert panic_path_consistent(kernel)
        kernel.log.record_oops(1, "x", category="oops", source="s")
        assert panic_path_consistent(kernel)     # tainted + oops agree
        kernel.soft_reset({"s"}, reason="unwound")
        assert panic_path_consistent(kernel)     # clear + contained

    def test_taint_without_record_is_inconsistent(self):
        """An open oops that record_oops never counted taints the
        kernel without a record of the oops behind it."""
        kernel = Kernel()
        kernel.log.open_oopses.append(
            OopsRecord(0, 1, "x", "oops", "s"))  # tainted off-path
        assert kernel.log.tainted
        assert kernel.log.oops_total == 0
        assert not panic_path_consistent(kernel)
        assert any("oops count mismatch" in v
                   for v in kernel_violations(kernel))

    def test_panic_without_taint_is_inconsistent(self):
        """Taint is derived, so a panic always taints; the panic does
        not hide an oops whose own taint was cleared off-path."""
        kernel = Kernel()
        kernel.log.record_oops(1, "x", category="oops", source="s")
        kernel.log.panic(2, "containment failed", source="s")
        kernel.log.open_oopses.clear()           # oops taint dropped
        assert kernel.log.tainted                # the panic still taints
        assert not panic_path_consistent(kernel)
        assert any("oops count mismatch" in v
                   for v in kernel_violations(kernel))

    def test_oops_dropped_off_path_is_inconsistent(self):
        """Every oops is open or contained: one that leaves the log
        any other way was forgiven outside the official path."""
        kernel = Kernel()
        kernel.log.record_oops(1, "x", category="oops", source="s")
        kernel.log.open_oopses.pop()             # forgiven off-path
        assert not kernel.log.tainted
        assert not panic_path_consistent(kernel)
        assert any("oops count mismatch" in v
                   for v in kernel_violations(kernel))
