"""BPF_ATOMIC sub-operation tests (OR/AND/XOR, FETCH, XCHG, CMPXCHG).

Regression coverage for the bug where the interpreter ignored
``insn.imm`` and treated *every* atomic as XADD: an atomic XOR with
imm=BPF_XOR silently added instead.  Both execution engines and the
verifier must now honour the sub-op encoding.
"""

import pytest

from repro.ebpf import isa
from repro.ebpf.asm import Asm
from repro.ebpf.isa import Insn, R0, R2, R3, R10
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.progs import ProgType
from repro.errors import BpfRuntimeError, VerifierError
from repro.kernel import Kernel


def run_value(bpf, program):
    prog = bpf.load_program(program, ProgType.KPROBE, "t")
    return bpf.run_on_current_task(prog)


class TestAtomicSubOps:
    @pytest.mark.parametrize("op,seed,operand,expected", [
        ("add", 40, 2, 42),
        ("or", 0b1100, 0b1010, 0b1110),
        ("and", 0b1100, 0b1010, 0b1000),
        ("xor", 0b1100, 0b1010, 0b0110),
    ])
    def test_sub_op_result_in_memory(self, bpf, op, seed, operand,
                                     expected):
        program = (Asm()
                   .st_imm(8, R10, -8, seed)
                   .mov64_imm(R2, operand)
                   .atomic_op(op, 8, R10, -8, R2)
                   .ldx(8, R0, R10, -8)
                   .exit_()
                   .program())
        assert run_value(bpf, program) == expected

    def test_xor_is_not_silently_an_add(self, bpf):
        # the original bug: imm=BPF_XOR executed as XADD, so
        # 6 ^ 6 "became" 12 instead of 0
        program = (Asm()
                   .st_imm(8, R10, -8, 6)
                   .mov64_imm(R2, 6)
                   .atomic_op("xor", 8, R10, -8, R2)
                   .ldx(8, R0, R10, -8)
                   .exit_()
                   .program())
        assert run_value(bpf, program) == 0

    @pytest.mark.parametrize("op,seed,operand,old", [
        ("add", 40, 2, 40),
        ("or", 0b1100, 0b1010, 0b1100),
        ("and", 0b1100, 0b1010, 0b1100),
        ("xor", 0b1100, 0b1010, 0b1100),
    ])
    def test_fetch_returns_old_value(self, bpf, op, seed, operand,
                                     old):
        program = (Asm()
                   .st_imm(8, R10, -8, seed)
                   .mov64_imm(R2, operand)
                   .atomic_op(op, 8, R10, -8, R2, fetch=True)
                   .mov64_reg(R0, R2)     # fetch landed in R2
                   .exit_()
                   .program())
        assert run_value(bpf, program) == old

    def test_fetch_4byte_zero_extends(self, bpf):
        program = (Asm()
                   .st_imm(4, R10, -8, -1)    # 0xFFFFFFFF
                   .st_imm(4, R10, -4, 0)
                   .mov64_imm(R2, 1)
                   .atomic_op("add", 4, R10, -8, R2, fetch=True)
                   .mov64_reg(R0, R2)
                   .exit_()
                   .program())
        assert run_value(bpf, program) == 0xFFFF_FFFF

    def test_xchg(self, bpf):
        program = (Asm()
                   .st_imm(8, R10, -8, 7)
                   .mov64_imm(R2, 99)
                   .atomic_xchg(8, R10, -8, R2)
                   .ldx(8, R3, R10, -8)       # memory now 99
                   .alu64_reg("mul", R3, R2)  # R2 fetched old 7
                   .mov64_reg(R0, R3)
                   .exit_()
                   .program())
        assert run_value(bpf, program) == 99 * 7

    def test_cmpxchg_match_swaps(self, bpf):
        program = (Asm()
                   .st_imm(8, R10, -8, 7)
                   .mov64_imm(R0, 7)          # comparand matches
                   .mov64_imm(R2, 99)
                   .atomic_cmpxchg(8, R10, -8, R2)
                   .ldx(8, R0, R10, -8)       # swapped in
                   .exit_()
                   .program())
        assert run_value(bpf, program) == 99

    def test_cmpxchg_mismatch_leaves_memory(self, bpf):
        program = (Asm()
                   .st_imm(8, R10, -8, 7)
                   .mov64_imm(R0, 8)          # comparand mismatches
                   .mov64_imm(R2, 99)
                   .atomic_cmpxchg(8, R10, -8, R2)
                   .ldx(8, R3, R10, -8)       # still 7
                   .alu64_imm("mul", R3, 100)
                   .alu64_reg("add", R3, R0)  # R0 got old value 7
                   .mov64_reg(R0, R3)
                   .exit_()
                   .program())
        assert run_value(bpf, program) == 707

    @pytest.mark.parametrize("engine", ["fast", "interp"])
    def test_unknown_sub_op_raises_at_runtime(self, kernel, engine):
        """An unverified atomic with a junk sub-op must raise, not
        silently execute as XADD — on both engines."""
        from repro.ebpf.interpreter import BpfVm
        from repro.ebpf.loader import LoadedProgram
        from repro.ebpf.verifier.analyzer import VerifierStats

        bpf = BpfSubsystem(kernel)
        vm = BpfVm(kernel, bpf, engine=engine)
        insns = (Asm()
                 .st_imm(8, R10, -8, 0)
                 .mov64_imm(R2, 1)
                 .program())
        insns.append(Insn(
            isa.BPF_STX | isa.BPF_DW | isa.BPF_ATOMIC,
            R10, R2, -8, 0x30))  # 0x30 = BPF_DIV: not an atomic op
        insns.extend(Asm().mov64_imm(R0, 0).exit_().program())
        prog = LoadedProgram(1, "wild", ProgType.KPROBE, insns,
                             VerifierStats())
        regs = kernel.mem.kmalloc(64, type_name="pt_regs",
                                  owner="test")
        with pytest.raises(BpfRuntimeError, match="atomic"):
            vm.run(prog, regs.base)


class TestAtomicVerifierSubOps:
    @pytest.mark.parametrize("op", ["or", "and", "xor"])
    def test_sub_ops_verify(self, load, op):
        program = (Asm()
                   .st_imm(8, R10, -8, 5)
                   .mov64_imm(R2, 3)
                   .atomic_op(op, 8, R10, -8, R2, fetch=True)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        load(program)

    def test_fetch_result_is_usable(self, load):
        # after a fetch, src holds a scalar the program may compute on
        program = (Asm()
                   .st_imm(8, R10, -8, 5)
                   .mov64_imm(R2, 3)
                   .atomic_op("xor", 8, R10, -8, R2, fetch=True)
                   .mov64_reg(R0, R2)
                   .exit_()
                   .program())
        load(program)

    def test_cmpxchg_verifies_and_clobbers_r0(self, load):
        program = (Asm()
                   .st_imm(8, R10, -8, 5)
                   .mov64_imm(R0, 5)
                   .mov64_imm(R2, 9)
                   .atomic_cmpxchg(8, R10, -8, R2)
                   .exit_()                   # R0 = old value: valid
                   .program())
        load(program)

    def test_cmpxchg_pointer_comparand_rejected(self, load):
        program = (Asm()
                   .st_imm(8, R10, -8, 5)
                   .mov64_reg(R0, R10)        # pointer comparand?!
                   .mov64_imm(R2, 9)
                   .atomic_cmpxchg(8, R10, -8, R2)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        with pytest.raises(VerifierError, match="pointer"):
            load(program)

    def test_xchg_of_pointer_rejected(self, load):
        program = (Asm()
                   .st_imm(8, R10, -8, 0)
                   .atomic_xchg(8, R10, -8, R10)
                   .mov64_imm(R0, 0)
                   .exit_()
                   .program())
        with pytest.raises(VerifierError, match="pointer"):
            load(program)

    def test_unknown_sub_op_rejected(self, load):
        program = [
            Insn(isa.BPF_ST | isa.BPF_DW | isa.BPF_MEM, R10, 0, -8, 0),
            Insn(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, R2, 0, 0, 1),
            Insn(isa.BPF_STX | isa.BPF_DW | isa.BPF_ATOMIC,
                 R10, R2, -8, 0x30),
            Insn(isa.BPF_ALU64 | isa.BPF_MOV | isa.BPF_K, R0, 0, 0, 0),
            Insn(isa.BPF_JMP | isa.BPF_EXIT),
        ]
        with pytest.raises(VerifierError, match="atomic"):
            load(program)
