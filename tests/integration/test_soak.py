"""Soak tests: long mixed workloads must not leak or degrade.

A kernel instance hosting both frameworks is driven through hundreds
of interleaved invocations; afterwards, kernel memory attributable to
per-invocation machinery must be flat, every refcount balanced, every
lock free, RCU quiescent, and the memory pool reset.
"""

import struct

import pytest

from repro.core import SafeExtensionFramework
from repro.ebpf import Asm, BpfSubsystem, ProgType
from repro.ebpf.helpers import ids
from repro.ebpf.isa import R0, R1, R2, R3, R4, R5, R10
from repro.errors import KernelOops
from repro.faultinject.plane import FaultAction, OneShot
from repro.kernel import Kernel

ROUNDS = 150


@pytest.fixture(scope="module")
def world():
    kernel = Kernel()
    kernel.create_socket(src_ip=0x0A000001, src_port=443)
    bpf = BpfSubsystem(kernel)
    framework = SafeExtensionFramework(kernel)
    counter = bpf.create_map("array", key_size=4, value_size=8,
                             max_entries=2)

    ebpf_prog = bpf.load_program(
        (Asm()
         .st_imm(4, R10, -4, 0)
         .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
         .ld_map_fd(R1, counter.map_fd)
         .call(ids.BPF_FUNC_map_lookup_elem)
         .jmp_imm("jne", R0, 0, "hit")
         .mov64_imm(R0, 2).exit_()
         .label("hit")
         .ldx(8, R1, R0, 0)
         .alu64_imm("add", R1, 1)
         .stx(8, R0, 0, R1)
         .mov64_imm(R0, 2)
         .exit_()
         .program()), ProgType.XDP, "soak_count")

    sl_prog = framework.install("""
    fn prog(ctx: XdpCtx) -> i64 {
        match sk_lookup_tcp(167772161, 443) {
            Some(s) => {
                map_update(0, 1, s.src_port());
            },
            None => { },
        }
        match map_lookup(0, 1) {
            Some(v) => { return (v & 3) as i64; },
            None => { },
        }
        return 2;
    }
    """, "soak_sl", maps=[counter])
    return kernel, bpf, framework, ebpf_prog, sl_prog, counter


class TestSoak:
    def test_interleaved_rounds_stay_clean(self, world):
        kernel, bpf, framework, ebpf_prog, sl_prog, counter = world
        # warm up so steady-state allocations exist
        bpf.run_on_packet(ebpf_prog, b"warm")
        framework.run_on_packet(sl_prog, b"warm")

        live_before = kernel.mem.live_bytes
        for round_no in range(ROUNDS):
            kernel.set_current_cpu(round_no % len(kernel.cpus))
            verdict = bpf.run_on_packet(ebpf_prog,
                                        b"x" * (round_no % 32 + 1))
            assert verdict == 2
            result = framework.run_on_packet(sl_prog, b"y")
            assert not result.panicked and not result.terminated
        # each round's skbs are freed once their verdicts are known;
        # nothing may accumulate
        assert kernel.mem.live_bytes == live_before

    def test_everything_balanced_after_soak(self, world):
        kernel, bpf, framework, __, __sl, __c = world
        assert kernel.healthy
        assert not kernel.rcu.read_lock_held
        assert kernel.rcu.stall_reports == []
        kernel.refs.assert_no_leaks("safelang:soak_sl")
        kernel.refs.assert_no_leaks("bpf:soak_count")
        for lock_owner in ("safelang:soak_sl", "bpf:soak_count"):
            kernel.locks.assert_none_held(lock_owner)
        assert framework.vm.pool.used == 0

    def test_counter_reflects_all_rounds(self, world):
        kernel, bpf, framework, ebpf_prog, __, counter = world
        count = struct.unpack("<Q", counter.read_value(0))[0]
        assert count >= ROUNDS  # every eBPF round incremented

    def test_virtual_time_monotone_through_soak(self, world):
        kernel = world[0]
        before = kernel.clock.now_ns
        world[1].run_on_packet(world[3], b"z")
        assert kernel.clock.now_ns > before


class TestPerCallContexts:
    """Every path that builds a context for one call frees it once the
    verdict is known: 1,000 calls leave the live allocations as they
    were."""

    CALLS = 1000

    @pytest.fixture
    def paths(self):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel)
        framework = SafeExtensionFramework(kernel)
        xdp = bpf.load_program(Asm().mov64_imm(R0, 2).exit_().program(),
                               ProgType.XDP, "ctx_xdp")
        trace = bpf.load_program(
            Asm().mov64_imm(R0, 0).exit_().program(),
            ProgType.KPROBE, "ctx_trace")
        safelang = framework.install(
            "fn prog(ctx: XdpCtx) -> i64 { return 2; }", "ctx_sl")
        bpf.attach_xdp(xdp)
        framework.attach_xdp(safelang)
        return kernel, {
            "bpf.run_on_packet": lambda: bpf.run_on_packet(xdp, b"pkt"),
            "bpf.run_on_current_task":
                lambda: bpf.run_on_current_task(trace),
            "hooks.deliver_packet":
                lambda: kernel.hooks.deliver_packet(b"pkt"),
            "framework.run_on_packet":
                lambda: framework.run_on_packet(safelang, b"pkt"),
        }

    @pytest.mark.parametrize("path", (
        "bpf.run_on_packet", "bpf.run_on_current_task",
        "hooks.deliver_packet", "framework.run_on_packet"))
    def test_calls_leave_live_allocations_unchanged(self, paths, path):
        kernel, calls = paths
        before = kernel.mem.live_allocations()
        for __ in range(self.CALLS):
            calls[path]()
        assert kernel.mem.live_allocations() == before
        assert kernel.healthy

    @pytest.mark.parametrize("prog_type", (ProgType.XDP,
                                           ProgType.KPROBE))
    def test_context_is_freed_when_the_program_oopses(self, prog_type):
        kernel = Kernel()
        bpf = BpfSubsystem(kernel)
        prog = bpf.load_program(
            Asm().call(ids.BPF_FUNC_ktime_get_ns).mov64_imm(R0, 2)
            .exit_().program(), prog_type, "ctx_oops")
        run = (bpf.run_on_packet if prog_type == ProgType.XDP
               else lambda p, __: bpf.run_on_current_task(p))
        before = kernel.mem.live_allocations()
        kernel.faults.enable(1)
        kernel.faults.arm("helper.*", OneShot(), FaultAction.panic())
        with pytest.raises(KernelOops):
            run(prog, b"pkt")
        assert kernel.mem.live_allocations() == before


class TestRepeatedLoadUnloadChurn:
    def test_many_loads_accounted(self):
        """Loading many programs/extensions must not corrupt shared
        state (ids unique, log coherent)."""
        kernel = Kernel()
        bpf = BpfSubsystem(kernel)
        framework = SafeExtensionFramework(kernel)
        prog_ids = set()
        for index in range(40):
            prog = bpf.load_program(
                Asm().mov64_imm(R0, index % 3).exit_().program(),
                ProgType.KPROBE, f"churn{index}")
            prog_ids.add(prog.prog_id)
            loaded = framework.install(
                f"fn prog(ctx: XdpCtx) -> i64 {{ return {index}; }}",
                f"churn{index}")
            assert framework.run_on_packet(loaded, b"p").value == index
        assert len(prog_ids) == 40
        assert len(kernel.log.grep("bpf: loaded prog")) == 40
        assert len(kernel.log.grep("safelang: loaded extension")) == 40
