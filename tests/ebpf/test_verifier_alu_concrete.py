"""The verifier's scalar ALU transfer against concrete execution.

Each case loads ``r0 = a; r1 = b; r0 <op>= r1`` (or an immediate)
then ``exit`` on a patched kernel, runs it on the reference
interpreter, and requires the abstract R0 the verifier exits with to
contain the value the run returns: the instruction where an abstract
state stops containing the concrete one is a soundness hole.  Every
ALU op is covered, 32- and 64-bit, in register and immediate forms,
over the edge values 0, 1, 2^31, 2^32, 2^63 and 2^64-1 plus seeded
random ones.
"""

import random

import pytest

from repro.ebpf import Asm, ProgType, isa
from repro.ebpf.bugs import BugConfig
from repro.ebpf.isa import R0, R1, Insn
from repro.ebpf.loader import BpfSubsystem
from repro.ebpf.verifier.analyzer import Verifier, VerifierConfig
from repro.ebpf.verifier.regstate import u64_to_s64
from repro.errors import VerifierError
from repro.kernel import Kernel

U32 = (1 << 32) - 1
U64 = (1 << 64) - 1

_RNG = random.Random(30)
VALUES = (0, 1, 1 << 31, 1 << 32, 1 << 63, U64) \
    + tuple(_RNG.getrandbits(64) for __ in range(4))
SHIFTS = (0, 1, 31, 32, 63) + tuple(_RNG.randrange(64) for __ in range(3))

OPS = ("add", "sub", "mul", "div", "mod", "and", "or", "xor",
       "lsh", "rsh", "arsh", "mov", "neg")
CASES = [(op, width, form) for op in OPS for width in (64, 32)
         for form in (("imm",) if op == "neg" else ("reg", "imm"))]


class _ExitR0(Verifier):
    """Keeps the abstract R0 of the program's one exit."""

    def _do_exit(self, state, insn_idx):
        self.r0 = state.cur.regs[0].copy()
        return super()._do_exit(state, insn_idx)


def as_imm(value: int) -> int:
    """The low 32 bits of ``value`` as a signed immediate."""
    low = value & U32
    return low - (1 << 32) if low & (1 << 31) else low


def alu_program(op: str, width: int, form: str, a: int, b: int) -> list:
    asm = Asm().ld_imm64(R0, a).ld_imm64(R1, b)
    if op == "neg":
        cls = isa.BPF_ALU64 if width == 64 else isa.BPF_ALU
        asm.raw(Insn(cls | isa.BPF_NEG, R0, 0, 0, 0))
    elif form == "reg":
        emit = asm.alu64_reg if width == 64 else asm.alu32_reg
        emit(op, R0, R1)
    else:
        emit = asm.alu64_imm if width == 64 else asm.alu32_imm
        emit(op, R0, as_imm(b))
    return asm.exit_().program()


def contains(reg, value: int) -> bool:
    return (reg.var_off.contains_value(value)
            and reg.umin <= value <= reg.umax
            and reg.smin <= u64_to_s64(value) <= reg.smax)


@pytest.mark.parametrize("op,width,form", CASES,
                         ids=[f"{op}{width}-{form}"
                              for op, width, form in CASES])
def test_abstract_r0_contains_the_run(op, width, form):
    bugs = BugConfig.all_patched()
    bpf = BpfSubsystem(Kernel(), bugs=bugs, engine="interp",
                       use_load_cache=False)
    operands = SHIFTS if op in ("lsh", "rsh", "arsh") \
        else (0,) if op == "neg" else VALUES
    checked, disagreements = 0, []
    for a in VALUES:
        for b in operands:
            insns = alu_program(op, width, form, a, b)
            verifier = _ExitR0(insns, ProgType.KPROBE, bpf.registry, {},
                               VerifierConfig(bugs=bugs))
            try:
                verifier.verify()
            except VerifierError as error:
                # the only rejections: an immediate zero divisor and
                # a shift amount of at least the operand width
                assert ("division by zero" in str(error)
                        or "invalid shift" in str(error)), error
                continue
            prog = bpf.load_program(insns, ProgType.KPROBE, "alu")
            ran = bpf.run_on_current_task(prog)
            checked += 1
            reg = verifier.r0
            # a constant pair stays a constant, except where the
            # transfer keeps a range on purpose (mod) or a register
            # divisor is zero (div)
            exact = reg.is_const or op in ("div", "mod")
            if not (contains(reg, ran) and exact):
                disagreements.append(
                    f"a={a:#x} b={b:#x}: verifier {reg}, run {ran:#x}")
    assert checked >= len(VALUES)
    assert not disagreements, "\n".join(disagreements[:5])
