"""Helper-implementation tests: behaviours and Table 1 bug paths."""

import dataclasses
import struct

import pytest

from repro.ebpf.asm import Asm
from repro.ebpf.bugs import BugConfig
from repro.ebpf.helpers import ids
from repro.ebpf.helpers.base import FuncProto, HelperSpec, RetType
from repro.ebpf.helpers.registry import build_default_registry, \
    shared_registry
from repro.ebpf.isa import R0, R1, R2, R3, R4, R5, R6, R10
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.errors import MemoryFault, NullDereference, UseAfterFree
from repro.kernel import Kernel


def load_run(bpf, asm, name="t"):
    prog = bpf.load_program(asm.program(), ProgType.KPROBE, name)
    return bpf.run_on_current_task(prog)


class TestCoreHelpers:
    def test_pid_tgid_packs_both(self, bpf, kernel):
        result = load_run(
            bpf, Asm().call(ids.BPF_FUNC_get_current_pid_tgid).exit_())
        task = kernel.current_task
        assert result == (task.tgid << 32) | task.pid

    def test_ktime_returns_clock(self, bpf, kernel):
        kernel.clock.advance(12345)
        result = load_run(
            bpf, Asm().call(ids.BPF_FUNC_ktime_get_ns).exit_())
        assert result >= 12345

    def test_get_current_comm_writes_buffer(self, bpf, kernel):
        asm = (Asm()
               .mov64_reg(R1, R10).alu64_imm("add", R1, -16)
               .mov64_imm(R2, 16)
               .call(ids.BPF_FUNC_get_current_comm)
               .ldx(1, R0, R10, -16)
               .exit_())
        result = load_run(bpf, asm)
        assert result == ord(kernel.current_task.comm[0])

    def test_get_current_task_returns_kernel_addr(self, bpf, kernel):
        result = load_run(
            bpf, Asm().call(ids.BPF_FUNC_get_current_task).exit_())
        assert result == kernel.current_task.address

    def test_trace_printk_logs(self, bpf, kernel):
        asm = (Asm()
               .st_imm(4, R10, -8, 0x69682121)  # "!!hi" LE -> "!!ih"?
               .st_imm(4, R10, -4, 0)
               .mov64_reg(R1, R10).alu64_imm("add", R1, -8)
               .mov64_imm(R2, 8)
               .call(ids.BPF_FUNC_trace_printk)
               .mov64_imm(R0, 0)
               .exit_())
        load_run(bpf, asm)
        assert kernel.log.grep("bpf_trace_printk")

    def test_probe_read_valid_address(self, bpf, kernel):
        task = kernel.current_task
        asm = (Asm()
               .mov64_reg(R1, R10).alu64_imm("add", R1, -8)
               .mov64_imm(R2, 4)
               .ld_imm64(R3, task.address)      # read pid field
               .call(ids.BPF_FUNC_probe_read)
               .ldx(4, R0, R10, -8)
               .exit_())
        assert load_run(bpf, asm) == task.pid

    def test_probe_read_bad_address_returns_efault(self, bpf):
        asm = (Asm()
               .mov64_reg(R1, R10).alu64_imm("add", R1, -8)
               .mov64_imm(R2, 8)
               .ld_imm64(R3, 0xFFFF_8880_DEAD_0000)
               .call(ids.BPF_FUNC_probe_read)
               .exit_())
        result = load_run(bpf, asm)
        assert result == (1 << 64) - 14  # -EFAULT, no oops

    def test_probe_read_failure_does_not_crash(self, bpf, kernel):
        self.test_probe_read_bad_address_returns_efault(bpf)
        assert kernel.healthy


class TestMapHelpers:
    def test_lookup_update_through_bytecode(self, bpf):
        amap = bpf.create_map("array", key_size=4, value_size=8,
                              max_entries=2)
        asm = (Asm()
               .st_imm(4, R10, -4, 1)
               .st_imm(8, R10, -16, 777)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
               .mov64_reg(R3, R10).alu64_imm("add", R3, -16)
               .ld_map_fd(R1, amap.map_fd)
               .mov64_imm(R4, 0)
               .call(ids.BPF_FUNC_map_update_elem)
               .exit_())
        assert load_run(bpf, asm) == 0
        assert amap.read_value(1) == struct.pack("<Q", 777)

    def test_delete_through_bytecode(self, bpf):
        hmap = bpf.create_map("hash", key_size=4, value_size=8,
                              max_entries=2)
        hmap.update(struct.pack("<I", 5), struct.pack("<Q", 1))
        asm = (Asm()
               .st_imm(4, R10, -4, 5)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
               .ld_map_fd(R1, hmap.map_fd)
               .call(ids.BPF_FUNC_map_delete_elem)
               .exit_())
        assert load_run(bpf, asm) == 0
        assert len(hmap) == 0


class TestStringHelpers:
    def strtol_prog(self, text: bytes):
        asm = Asm()
        padded = text.ljust(8, b"\x00")
        asm.st_imm(4, R10, -16, int.from_bytes(padded[:4], "little"))
        asm.st_imm(4, R10, -12, int.from_bytes(padded[4:8], "little"))
        (asm.mov64_reg(R1, R10).alu64_imm("add", R1, -16)
            .mov64_imm(R2, 8)
            .mov64_imm(R3, 10)
            .mov64_reg(R4, R10).alu64_imm("add", R4, -8)
            .st_imm(8, R10, -8, 0)
            .call(ids.BPF_FUNC_strtol)
            .mov64_reg(R6, R0)
            .ldx(8, R0, R10, -8)
            .exit_())
        return asm

    def test_strtol_parses(self, bpf):
        assert load_run(bpf, self.strtol_prog(b"1234")) == 1234

    def test_strtol_negative(self, bpf):
        result = load_run(bpf, self.strtol_prog(b"-42"))
        assert result == (1 << 64) - 42

    def test_strtol_garbage_stops(self, bpf):
        assert load_run(bpf, self.strtol_prog(b"77xy")) == 77

    def test_strncmp_equal(self, bpf):
        asm = (Asm()
               .st_imm(4, R10, -8, 0x61626364)
               .st_imm(4, R10, -16, 0x61626364)
               .mov64_reg(R1, R10).alu64_imm("add", R1, -8)
               .mov64_imm(R2, 4)
               .mov64_reg(R3, R10).alu64_imm("add", R3, -16)
               .call(ids.BPF_FUNC_strncmp)
               .exit_())
        assert load_run(bpf, asm) == 0


class TestRingbufHelpers:
    def test_output_through_bytecode(self, bpf):
        rb = bpf.create_map("ringbuf", max_entries=4096)
        asm = (Asm()
               .st_imm(8, R10, -8, 0xABCD)
               .ld_map_fd(R1, rb.map_fd)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -8)
               .mov64_imm(R3, 8)
               .mov64_imm(R4, 0)
               .call(ids.BPF_FUNC_ringbuf_output)
               .exit_())
        assert load_run(bpf, asm) == 0
        assert rb.drain() == [struct.pack("<Q", 0xABCD)]

    def test_reserve_submit_through_bytecode(self, bpf):
        rb = bpf.create_map("ringbuf", max_entries=4096)
        asm = (Asm()
               .ld_map_fd(R1, rb.map_fd)
               .mov64_imm(R2, 8)
               .mov64_imm(R3, 0)
               .call(ids.BPF_FUNC_ringbuf_reserve)
               .jmp_imm("jne", R0, 0, "got")
               .mov64_imm(R0, 1)
               .exit_()
               .label("got")
               .st_imm(8, R0, 0, 99)
               .mov64_reg(R1, R0)
               .mov64_imm(R2, 0)
               .call(ids.BPF_FUNC_ringbuf_submit)
               .mov64_imm(R0, 0)
               .exit_())
        assert load_run(bpf, asm) == 0
        assert rb.drain() == [struct.pack("<Q", 99)]


class TestBuggyHelpers:
    """Table 1 bug paths: fire on buggy kernels, silent when patched."""

    def storage_null_prog(self, ts_map):
        return (Asm()
                .ld_map_fd(R1, ts_map.map_fd)
                .mov64_imm(R2, 0)
                .mov64_imm(R3, 0)
                .mov64_imm(R4, 1)
                .call(ids.BPF_FUNC_task_storage_get)
                .mov64_imm(R0, 0)
                .exit_())

    def test_task_storage_null_crashes_buggy(self, kernel):
        bpf = BpfSubsystem(kernel)
        ts = bpf.create_map("task_storage", value_size=8)
        prog = bpf.load_program(self.storage_null_prog(ts).program(),
                                ProgType.KPROBE, "t")
        with pytest.raises(NullDereference):
            bpf.run_on_current_task(prog)
        assert not kernel.healthy

    def test_task_storage_null_safe_when_patched(self, kernel):
        bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
        ts = bpf.create_map("task_storage", value_size=8)
        prog = bpf.load_program(self.storage_null_prog(ts).program(),
                                ProgType.KPROBE, "t")
        assert bpf.run_on_current_task(prog) == 0
        assert kernel.healthy

    def test_task_storage_valid_task_works(self, kernel):
        bpf = BpfSubsystem(kernel)
        ts = bpf.create_map("task_storage", value_size=8)
        asm = (Asm()
               .call(ids.BPF_FUNC_get_current_task)
               .mov64_reg(R6, R0)
               .ld_map_fd(R1, ts.map_fd)
               .mov64_reg(R2, R6)
               .mov64_imm(R3, 0)
               .mov64_imm(R4, 1)
               .call(ids.BPF_FUNC_task_storage_get)
               .jmp_imm("jne", R0, 0, "ok")
               .mov64_imm(R0, 1).exit_()
               .label("ok")
               .mov64_imm(R0, 0)
               .exit_())
        assert load_run(bpf, asm) == 0

    def task_stack_prog(self, task):
        return (Asm()
                .ld_imm64(R1, task.address)
                .mov64_reg(R2, R10).alu64_imm("add", R2, -64)
                .st_imm(8, R10, -64, 0)
                .mov64_imm(R3, 64)
                .mov64_imm(R4, 0)
                .call(ids.BPF_FUNC_get_task_stack)
                .exit_())

    def test_task_stack_uaf_when_buggy(self, kernel):
        bpf = BpfSubsystem(kernel)
        victim = kernel.create_task()
        kernel.mem.kfree(victim.kernel_stack)  # concurrent exit
        prog = bpf.load_program(self.task_stack_prog(victim).program(),
                                ProgType.KPROBE, "t")
        with pytest.raises(UseAfterFree):
            bpf.run_on_current_task(prog)

    def test_task_stack_efault_when_patched(self, kernel):
        bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
        victim = kernel.create_task()
        kernel.mem.kfree(victim.kernel_stack)
        prog = bpf.load_program(self.task_stack_prog(victim).program(),
                                ProgType.KPROBE, "t")
        result = bpf.run_on_current_task(prog)
        assert result == (1 << 64) - 14  # -EFAULT
        assert kernel.healthy

    def test_task_stack_live_task_works_in_both(self, kernel):
        for bugs in (BugConfig(), BugConfig.all_patched()):
            k = Kernel()
            bpf = BpfSubsystem(k, bugs=bugs)
            victim = k.create_task()
            prog = bpf.load_program(
                self.task_stack_prog(victim).program(),
                ProgType.KPROBE, "t")
            assert bpf.run_on_current_task(prog) > 0

    def test_sk_lookup_reqsk_leak_only_when_buggy(self):
        for bugs, expect_leak in ((BugConfig(), True),
                                  (BugConfig.all_patched(), False)):
            kernel = Kernel()
            sock = kernel.create_socket(src_ip=0x0A000001, src_port=80)
            sock.write_field("state", 12)
            sock.pending_reqsk = kernel.create_request_sock("r")
            bpf = BpfSubsystem(kernel, bugs=bugs)
            asm = (Asm()
                   .st_imm(4, R10, -12, 0)
                   .st_imm(4, R10, -8, 0x0A000001)
                   .st_imm(2, R10, -4, 0)
                   .st_imm(2, R10, -2, 80)
                   .mov64_reg(R2, R10).alu64_imm("add", R2, -12)
                   .mov64_imm(R3, 12)
                   .mov64_imm(R4, 0)
                   .mov64_imm(R5, 0)
                   .call(ids.BPF_FUNC_sk_lookup_tcp)
                   .jmp_imm("jne", R0, 0, "found")
                   .mov64_imm(R0, 0).exit_()
                   .label("found")
                   .mov64_reg(R1, R0)
                   .call(ids.BPF_FUNC_sk_release)
                   .mov64_imm(R0, 0)
                   .exit_())
            prog = bpf.load_program(asm.program(), ProgType.XDP, "t")
            bpf.run_on_packet(prog, b"x")
            leaked = kernel.refs.outstanding_for(
                "kernel-sk-lookup-lost")
            assert bool(leaked) == expect_leak
            # the program itself balanced its refs either way
            kernel.refs.assert_no_leaks("bpf:t")

    def test_sys_bpf_map_create_works(self, bpf):
        asm = (Asm()
               .st_imm(4, R10, -16, 1)    # map_type (ignored)
               .st_imm(4, R10, -12, 4)    # key_size
               .st_imm(4, R10, -8, 8)     # value_size
               .st_imm(4, R10, -4, 8)     # max_entries
               .mov64_imm(R1, 0)          # BPF_MAP_CREATE
               .mov64_reg(R2, R10).alu64_imm("add", R2, -16)
               .mov64_imm(R3, 16)
               .call(ids.BPF_FUNC_sys_bpf)
               .exit_())
        fd = load_run(bpf, asm)
        assert bpf.map_by_fd(fd) is not None

    def test_sys_bpf_null_key_crashes_buggy(self, kernel):
        bpf = BpfSubsystem(kernel)
        hmap = bpf.create_map("hash", key_size=4, value_size=4,
                              max_entries=4)
        asm = (Asm()
               .st_imm(4, R10, -32, hmap.map_fd)
               .st_imm(4, R10, -28, 0)
               .st_imm(8, R10, -24, 0)
               .st_imm(8, R10, -16, 0)
               .st_imm(8, R10, -8, 0)
               .mov64_imm(R1, 2)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -32)
               .mov64_imm(R3, 32)
               .call(ids.BPF_FUNC_sys_bpf)
               .mov64_imm(R0, 0)
               .exit_())
        prog = bpf.load_program(asm.program(), ProgType.KPROBE, "t")
        with pytest.raises(NullDereference):
            bpf.run_on_current_task(prog)

    def test_sys_bpf_null_key_efault_patched(self, kernel):
        bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
        hmap = bpf.create_map("hash", key_size=4, value_size=4,
                              max_entries=4)
        asm = (Asm()
               .st_imm(4, R10, -32, hmap.map_fd)
               .st_imm(4, R10, -28, 0)
               .st_imm(8, R10, -24, 0)
               .st_imm(8, R10, -16, 0)
               .st_imm(8, R10, -8, 0)
               .mov64_imm(R1, 2)
               .mov64_reg(R2, R10).alu64_imm("add", R2, -32)
               .mov64_imm(R3, 32)
               .call(ids.BPF_FUNC_sys_bpf)
               .exit_())
        result = load_run(bpf, asm)
        assert result == (1 << 64) - 14  # -EFAULT
        assert kernel.healthy


class TestRegistryPopulation:
    def test_249_helpers(self, bpf):
        assert len(bpf.registry) == 249

    def test_36_implemented(self, bpf):
        assert len(bpf.registry.implemented()) == 36

    def test_paper_distribution(self, bpf):
        sizes = [s.callgraph_size for s in bpf.registry.all_specs()]
        n = len(sizes)
        assert sum(1 for s in sizes if s >= 30) / n == \
            pytest.approx(0.522, abs=0.01)
        assert sum(1 for s in sizes if s >= 500) / n == \
            pytest.approx(0.345, abs=0.01)
        assert max(sizes) == 4845

    def test_retire_count_matches_moat_study(self, bpf):
        retire = [s for s in bpf.registry.all_specs()
                  if s.classification == "retire"]
        assert len(retire) == 16

    def test_named_helpers_present(self, bpf):
        for name in ("bpf_sys_bpf", "bpf_loop", "bpf_strtol",
                     "bpf_strncmp", "bpf_get_current_pid_tgid",
                     "bpf_sk_lookup_tcp", "bpf_task_storage_get"):
            assert bpf.registry.by_name(name) is not None

    def test_duplicate_registration_rejected(self):
        registry = build_default_registry()
        spec = registry.by_name("bpf_loop")
        clone = HelperSpec(spec.helper_id, "bpf_clone",
                           FuncProto([], RetType.INTEGER))
        with pytest.raises(ValueError):
            registry.register(clone)


class TestSharedCatalog:
    def test_default_subsystems_share_one_frozen_catalog(self):
        first = BpfSubsystem(Kernel())
        second = BpfSubsystem(Kernel())
        assert first.registry is second.registry
        assert first.registry is shared_registry()
        extra = HelperSpec(9999, "bpf_extra",
                           FuncProto([], RetType.INTEGER))
        with pytest.raises(RuntimeError, match="frozen"):
            first.registry.register(extra)
        assert first.registry.by_name("bpf_extra") is None

    def test_default_registry_is_a_fresh_writable_copy(self):
        registry = build_default_registry()
        assert registry is not shared_registry()
        assert len(registry) == len(shared_registry()) == 249
        registry.register(HelperSpec(9999, "bpf_extra",
                                     FuncProto([], RetType.INTEGER)))
        assert len(registry) == 250
        assert shared_registry().by_name("bpf_extra") is None

    def test_specs_are_immutable(self):
        spec = shared_registry().by_name("bpf_loop")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.impl = None


class TestNewerHelpers:
    def test_probe_read_str_copies_string(self, bpf, kernel):
        src = kernel.mem.kmalloc(32)
        kernel.mem.write(src.base, b"hello\x00garbage")
        asm = (Asm()
               .mov64_reg(R1, R10).alu64_imm("add", R1, -16)
               .mov64_imm(R2, 16)
               .ld_imm64(R3, src.base)
               .call(ids.BPF_FUNC_probe_read_str)
               .exit_())
        result = load_run(bpf, asm)
        assert result == 6  # "hello\0"

    def test_probe_read_str_bad_pointer(self, bpf):
        asm = (Asm()
               .mov64_reg(R1, R10).alu64_imm("add", R1, -16)
               .mov64_imm(R2, 16)
               .ld_imm64(R3, 0xFFFF_8880_DEAD_0000)
               .call(ids.BPF_FUNC_probe_read_str)
               .exit_())
        assert load_run(bpf, asm) == (1 << 64) - 14  # -EFAULT

    def test_probe_read_str_truncates_to_size(self, bpf, kernel):
        src = kernel.mem.kmalloc(32)
        kernel.mem.write(src.base, b"0123456789ABCDEF\x00")
        asm = (Asm()
               .mov64_reg(R1, R10).alu64_imm("add", R1, -8)
               .mov64_imm(R2, 8)
               .ld_imm64(R3, src.base)
               .call(ids.BPF_FUNC_probe_read_str)
               .exit_())
        assert load_run(bpf, asm) == 8  # 7 chars + forced NUL

    def test_jiffies_and_boot_clock(self, bpf, kernel):
        kernel.clock.advance(8_000_000)  # 8ms = 2 jiffies at 250 HZ
        asm = Asm().call(ids.BPF_FUNC_jiffies64).exit_()
        assert load_run(bpf, asm) >= 2
        asm2 = Asm().call(ids.BPF_FUNC_ktime_get_boot_ns).exit_()
        assert load_run(bpf, asm2) >= 8_000_000

    def test_perf_event_output_streams(self, bpf):
        pe = bpf.create_map("perf_event_array", max_entries=4096)
        asm = (Asm()
               .mov64_reg(R6, R1)
               .st_imm(8, R10, -8, 0xCAFE)
               .mov64_reg(R1, R6)
               .ld_map_fd(R2, pe.map_fd)
               .mov64_imm(R3, 0)
               .mov64_reg(R4, R10).alu64_imm("add", R4, -8)
               .mov64_imm(R5, 8)
               .call(ids.BPF_FUNC_perf_event_output)
               .exit_())
        assert load_run(bpf, asm) == 0
        assert pe.drain() == [struct.pack("<Q", 0xCAFE)]

    def test_snprintf_formats(self, bpf, kernel):
        fmt = kernel.mem.kmalloc(32)
        kernel.mem.write(fmt.base, b"pid=%d hex=%x\x00")
        asm = (Asm()
               # data array: two u64s on the stack
               .st_imm(8, R10, -16, 42)
               .st_imm(8, R10, -8, 255)
               .mov64_reg(R1, R10).alu64_imm("add", R1, -64)
               .st_imm(8, R10, -64, 0)   # init head of out buffer
               .mov64_imm(R2, 32)
               .ld_imm64(R3, fmt.base)
               .mov64_reg(R4, R10).alu64_imm("add", R4, -16)
               .mov64_imm(R5, 16)
               .call(ids.BPF_FUNC_snprintf)
               .mov64_reg(R6, R0)
               .ldx(1, R0, R10, -64)
               .exit_())
        result = load_run(bpf, asm)
        assert result == ord("p")
        # and the whole rendering landed on the stack
        # (read via the map-free kernel view)

    def test_snprintf_rejects_bad_spec(self, bpf, kernel):
        fmt = kernel.mem.kmalloc(16)
        kernel.mem.write(fmt.base, b"%s\x00")   # %s unsupported
        asm = (Asm()
               .st_imm(8, R10, -8, 1)
               .mov64_reg(R1, R10).alu64_imm("add", R1, -32)
               .st_imm(8, R10, -32, 0)
               .mov64_imm(R2, 16)
               .ld_imm64(R3, fmt.base)
               .mov64_reg(R4, R10).alu64_imm("add", R4, -8)
               .mov64_imm(R5, 8)
               .call(ids.BPF_FUNC_snprintf)
               .exit_())
        assert load_run(bpf, asm) == (1 << 64) - 22  # -EINVAL
