"""Verifier tests: ALU rules, pointer arithmetic, memory access."""

import pytest

from repro.ebpf.asm import Asm
from repro.ebpf.bugs import BugConfig
from repro.ebpf.helpers import ids
from repro.ebpf.isa import R0, R1, R2, R3, R4, R5, R6, R10
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.errors import VerifierError


def expect_reject(load, program, needle, **kwargs):
    with pytest.raises(VerifierError) as exc_info:
        load(program, **kwargs)
    assert needle in str(exc_info.value), str(exc_info.value)


class TestScalarAlu:
    def test_div_by_zero_const_rejected(self, load):
        program = (Asm().mov64_imm(R0, 8).alu64_imm("div", R0, 0)
                   .exit_().program())
        expect_reject(load, program, "division by zero")

    def test_mod_by_zero_const_rejected(self, load):
        program = (Asm().mov64_imm(R0, 8).alu64_imm("mod", R0, 0)
                   .exit_().program())
        expect_reject(load, program, "division by zero")

    def test_oversize_shift_rejected(self, load):
        program = (Asm().mov64_imm(R0, 1).alu64_imm("lsh", R0, 64)
                   .exit_().program())
        expect_reject(load, program, "invalid shift")

    def test_alu32_shift_32_rejected(self, load):
        program = (Asm().mov64_imm(R0, 1).alu32_imm("lsh", R0, 32)
                   .exit_().program())
        expect_reject(load, program, "invalid shift")

    def test_alu32_rsh_reads_the_subregister(self, patched_bpf):
        # every engine shifts r0's low 32 bits (0), not the whole
        # 0x1_0000_0000 (0x8000_0000): r0 ends at -0x8000_0008, so
        # the store lands 2 GiB below fp, not at fp-8
        program = (Asm().ld_imm64(R0, 1 << 32)
                   .alu32_imm("rsh", R0, 1)
                   .ld_imm64(R2, 0x80000008)
                   .alu64_reg("sub", R0, R2)
                   .mov64_reg(R1, R10)
                   .alu64_reg("add", R1, R0)
                   .st_imm(8, R1, 0, 0x41)
                   .mov64_imm(R0, 0).exit_().program())
        expect_reject(
            lambda insns: patched_bpf.load_program(
                insns, ProgType.KPROBE, "test"),
            program, "invalid stack access off=-2147483656 size=8")

    def test_shift_63_ok(self, load):
        load(Asm().mov64_imm(R0, 1).alu64_imm("lsh", R0, 63)
             .mov64_imm(R0, 0).exit_().program())

    def test_neg_scalar_ok(self, load):
        load(Asm().mov64_imm(R0, 5).neg64(R0).mov64_imm(R0, 0)
             .exit_().program())

    def test_neg_pointer_rejected(self, load):
        program = (Asm().mov64_reg(R2, R10).neg64(R2)
                   .mov64_imm(R0, 0).exit_().program())
        expect_reject(load, program, "negation")

    def test_bounds_tracked_through_and(self, load):
        # r0 &= 3 makes return provably in [0, 3] -> legal for XDP
        program = (Asm()
                   .ldx(4, R0, R1, 0)
                   .alu64_imm("and", R0, 3)
                   .exit_()
                   .program())
        load(program, prog_type=ProgType.XDP)

    def test_mov32_truncates_bounds(self, load):
        # after alu32 mov, the value fits in 32 bits
        program = (Asm()
                   .ldx(4, R0, R1, 0)
                   .alu32_reg("mov", R0, R0)
                   .alu64_imm("and", R0, 1)
                   .exit_()
                   .program())
        load(program, prog_type=ProgType.XDP)


class TestPointerArithmetic:
    def test_stack_plus_const_ok(self, load):
        program = (Asm()
                   .mov64_reg(R2, R10)
                   .alu64_imm("add", R2, -8)
                   .st_imm(8, R2, 0, 1)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        load(program)

    def test_pointer_minus_pointer_rejected_unpriv(self, load):
        program = (Asm()
                   .mov64_reg(R2, R10)
                   .alu64_reg("sub", R2, R10)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        expect_reject(load, program, "pointer")

    def test_pointer_minus_pointer_ok_privileged(self, load):
        program = (Asm()
                   .mov64_reg(R2, R10)
                   .alu64_reg("sub", R2, R10)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        load(program, allow_ptr_leaks=True)

    def test_pointer_mul_rejected(self, load):
        program = (Asm()
                   .mov64_reg(R2, R10)
                   .alu64_imm("mul", R2, 2)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        expect_reject(load, program, "mul")

    def test_scalar_minus_pointer_rejected(self, load):
        program = (Asm()
                   .mov64_imm(R2, 100)
                   .alu64_reg("sub", R2, R10)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        expect_reject(load, program, "pointer")

    def test_32bit_pointer_arith_rejected(self, load):
        program = (Asm()
                   .mov64_reg(R2, R10)
                   .alu32_imm("add", R2, 4)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        expect_reject(load, program, "32-bit arithmetic")

    def test_ctx_plus_const_ok(self, load):
        program = (Asm()
                   .mov64_reg(R2, R1)
                   .alu64_imm("add", R2, 4)
                   .ldx(4, R0, R2, 0)   # = ctx field at offset 4
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        load(program)

    def test_or_null_arith_rejected_when_patched(self, kernel):
        bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
        hmap = bpf.create_map("hash", key_size=4, value_size=8,
                              max_entries=4)
        program = (Asm()
                   .st_imm(4, R10, -4, 0)
                   .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
                   .ld_map_fd(R1, hmap.map_fd)
                   .call(ids.BPF_FUNC_map_lookup_elem)
                   .alu64_imm("add", R0, 16)   # before null check!
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        with pytest.raises(VerifierError) as exc_info:
            bpf.load_program(program, ProgType.KPROBE, "t")
        assert "or_null" in str(exc_info.value) or \
            "prohibited" in str(exc_info.value)


class TestStackAccess:
    def test_read_uninitialized_stack_rejected(self, load):
        program = (Asm().ldx(8, R0, R10, -8).exit_().program())
        expect_reject(load, program, "uninitialized")

    def test_write_then_read_ok(self, load):
        program = (Asm()
                   .st_imm(8, R10, -8, 42)
                   .ldx(8, R0, R10, -8)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        load(program)

    def test_below_stack_rejected(self, load):
        program = (Asm().st_imm(8, R10, -520, 1).mov64_imm(R0, 0)
                   .exit_().program())
        expect_reject(load, program, "invalid stack access")

    def test_above_fp_rejected(self, load):
        program = (Asm().st_imm(8, R10, 8, 1).mov64_imm(R0, 0)
                   .exit_().program())
        expect_reject(load, program, "invalid stack access")

    def test_misaligned_stack_access_rejected(self, load):
        program = (Asm().st_imm(4, R10, -7, 1).mov64_imm(R0, 0)
                   .exit_().program())
        expect_reject(load, program, "misaligned")

    def test_spill_and_fill_pointer(self, load):
        program = (Asm()
                   .stx(8, R10, -8, R1)     # spill ctx
                   .ldx(8, R2, R10, -8)     # fill it back
                   .ldx(4, R0, R2, 0)       # still usable as ctx
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        load(program)

    def test_partial_spill_of_pointer_rejected(self, load):
        program = (Asm()
                   .stx(4, R10, -4, R1)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        expect_reject(load, program, "partial spill")

    def test_partial_read_of_spilled_pointer_rejected(self, load):
        program = (Asm()
                   .stx(8, R10, -8, R1)
                   .ldx(4, R0, R10, -8)
                   .exit_()
                   .program())
        expect_reject(load, program, "partial read")

    def test_corrupting_spilled_pointer_rejected(self, load):
        program = (Asm()
                   .stx(8, R10, -8, R1)
                   .st_imm(1, R10, -8, 0x41)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        expect_reject(load, program, "corrupting")

    def test_variable_stack_offset_rejected(self, load):
        program = (Asm()
                   .ldx(8, R2, R1, 0)        # unknown scalar
                   .mov64_reg(R3, R10)
                   .alu64_reg("add", R3, R2)
                   .st_imm(8, R3, -8, 1)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        expect_reject(load, program, "variable stack")

    def test_scalar_deref_rejected(self, load):
        program = (Asm()
                   .mov64_imm(R2, 0x1234)
                   .ldx(8, R0, R2, 0)
                   .exit_()
                   .program())
        expect_reject(load, program, "scalar")


class TestMapAccess:
    @pytest.fixture
    def setup(self, bpf):
        amap = bpf.create_map("array", key_size=4, value_size=16,
                              max_entries=4)

        def build(after_lookup):
            asm = (Asm()
                   .st_imm(4, R10, -4, 0)
                   .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
                   .ld_map_fd(R1, amap.map_fd)
                   .call(ids.BPF_FUNC_map_lookup_elem)
                   .jmp_imm("jne", R0, 0, "have")
                   .mov64_imm(R0, 0).exit_()
                   .label("have"))
            after_lookup(asm)
            asm.mov64_imm(R0, 0).exit_()
            return asm.program()
        return bpf, build

    def test_in_bounds_access(self, setup):
        bpf, build = setup
        program = build(lambda asm: asm.st_imm(8, R0, 8, 1))
        bpf.load_program(program, ProgType.KPROBE, "t")

    def test_access_past_value_size_rejected(self, setup):
        bpf, build = setup
        program = build(lambda asm: asm.st_imm(8, R0, 16, 1))
        with pytest.raises(VerifierError) as exc_info:
            bpf.load_program(program, ProgType.KPROBE, "t")
        assert "map value" in str(exc_info.value)

    def test_negative_offset_rejected(self, setup):
        bpf, build = setup
        program = build(lambda asm: asm.st_imm(8, R0, -8, 1))
        with pytest.raises(VerifierError):
            bpf.load_program(program, ProgType.KPROBE, "t")

    def test_unchecked_or_null_deref_rejected(self, bpf):
        amap = bpf.create_map("array", key_size=4, value_size=8,
                              max_entries=4)
        program = (Asm()
                   .st_imm(4, R10, -4, 0)
                   .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
                   .ld_map_fd(R1, amap.map_fd)
                   .call(ids.BPF_FUNC_map_lookup_elem)
                   .ldx(8, R0, R0, 0)   # no null check!
                   .exit_()
                   .program())
        with pytest.raises(VerifierError) as exc_info:
            bpf.load_program(program, ProgType.KPROBE, "t")
        assert "NULL" in str(exc_info.value)

    def test_bounded_variable_offset_ok(self, setup):
        bpf, build = setup

        def body(asm):
            (asm.ldx(8, R3, R0, 0)
                .alu64_imm("and", R3, 7)     # r3 in [0, 7]
                .alu64_reg("add", R0, R3)    # value + [0,7]
                .st_imm(8, R0, 0, 1))        # max off 7+8 <= 16
        bpf.load_program(build(body), ProgType.KPROBE, "t")

    def test_unbounded_variable_offset_rejected(self, setup):
        bpf, build = setup

        def body(asm):
            (asm.ldx(8, R3, R0, 0)           # unknown scalar
                .alu64_reg("add", R0, R3)
                .st_imm(8, R0, 0, 1))
        with pytest.raises(VerifierError):
            bpf.load_program(build(body), ProgType.KPROBE, "t")


class TestCtxAndPacket:
    def test_ctx_field_load(self, load):
        load(Asm().ldx(4, R0, R1, 0).mov64_imm(R0, 0).exit_()
             .program(), prog_type=ProgType.XDP)

    def test_ctx_out_of_range_rejected(self, load):
        expect_reject(load,
                      Asm().ldx(8, R0, R1, 400).exit_().program(),
                      "context", prog_type=ProgType.XDP)

    def test_ctx_write_readonly_rejected(self, load):
        program = (Asm().st_imm(4, R1, 0, 7).mov64_imm(R0, 0)
                   .exit_().program())
        expect_reject(load, program, "read-only",
                      prog_type=ProgType.XDP)

    def test_ctx_write_writable_field_ok(self, load):
        # 'mark' at offset 24 is writable
        load(Asm().st_imm(4, R1, 24, 7).mov64_imm(R0, 0).exit_()
             .program(), prog_type=ProgType.XDP)

    def test_packet_access_without_check_rejected(self, load):
        program = (Asm()
                   .ldx(8, R2, R1, 8)
                   .ldx(1, R0, R2, 0)
                   .exit_()
                   .program())
        expect_reject(load, program, "packet",
                      prog_type=ProgType.XDP)

    def test_packet_access_with_check_ok(self, load):
        program = (Asm()
                   .ldx(8, R2, R1, 8)
                   .ldx(8, R3, R1, 16)
                   .mov64_reg(R4, R2).alu64_imm("add", R4, 14)
                   .jmp_reg("jgt", R4, R3, "out")
                   .ldx(1, R0, R2, 13)
                   .label("out")
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        load(program, prog_type=ProgType.XDP)

    def test_packet_access_beyond_proven_range_rejected(self, load):
        program = (Asm()
                   .ldx(8, R2, R1, 8)
                   .ldx(8, R3, R1, 16)
                   .mov64_reg(R4, R2).alu64_imm("add", R4, 14)
                   .jmp_reg("jgt", R4, R3, "out")
                   .ldx(1, R0, R2, 14)     # one past the proven 14
                   .label("out")
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        expect_reject(load, program, "packet",
                      prog_type=ProgType.XDP)

    def test_pkt_end_deref_rejected(self, load):
        program = (Asm()
                   .ldx(8, R3, R1, 16)
                   .ldx(1, R0, R3, 0)
                   .exit_()
                   .program())
        expect_reject(load, program, "pkt_end",
                      prog_type=ProgType.XDP)

    def test_write_into_packet_ok_xdp(self, load):
        program = (Asm()
                   .ldx(8, R2, R1, 8)
                   .ldx(8, R3, R1, 16)
                   .mov64_reg(R4, R2).alu64_imm("add", R4, 2)
                   .jmp_reg("jgt", R4, R3, "out")
                   .st_imm(1, R2, 0, 0xAA)
                   .label("out")
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        load(program, prog_type=ProgType.XDP)


class TestPointerLeaks:
    def test_store_pointer_to_map_rejected_when_patched(self, kernel):
        bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
        amap = bpf.create_map("array", key_size=4, value_size=8,
                              max_entries=1)
        program = (Asm()
                   .st_imm(4, R10, -4, 0)
                   .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
                   .ld_map_fd(R1, amap.map_fd)
                   .call(ids.BPF_FUNC_map_lookup_elem)
                   .jmp_imm("jne", R0, 0, "have")
                   .mov64_imm(R0, 0).exit_()
                   .label("have")
                   .stx(8, R0, 0, R10)      # leak fp into the map
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        with pytest.raises(VerifierError) as exc_info:
            bpf.load_program(program, ProgType.KPROBE, "t")
        assert "leak" in str(exc_info.value)

    def test_store_pointer_allowed_privileged(self, kernel):
        bpf = BpfSubsystem(kernel, bugs=BugConfig.all_patched())
        amap = bpf.create_map("array", key_size=4, value_size=8,
                              max_entries=1)
        program = (Asm()
                   .st_imm(4, R10, -4, 0)
                   .mov64_reg(R2, R10).alu64_imm("add", R2, -4)
                   .ld_map_fd(R1, amap.map_fd)
                   .call(ids.BPF_FUNC_map_lookup_elem)
                   .jmp_imm("jne", R0, 0, "have")
                   .mov64_imm(R0, 0).exit_()
                   .label("have")
                   .stx(8, R0, 0, R10)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        bpf.load_program(program, ProgType.KPROBE, "t",
                         allow_ptr_leaks=True)
