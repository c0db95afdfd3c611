"""The verifier's constant-operand ALU fold.

``Verifier._do_alu`` computes a 64-bit op in ``bounds.CONST_FOLDS`` on
plain integers when both operands are known constants.  The generic
transfer in ``bounds.SCALAR_OPS`` stays the reference: the fold must
give the state it gives, field for field, and leave every verdict,
counter and log line as it was.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ebpf import Asm, ProgType
from repro.ebpf.helpers.registry import build_default_registry
from repro.ebpf.isa import R0, R1, R4
from repro.ebpf.verifier import bounds
from repro.ebpf.verifier.analyzer import Verifier, VerifierConfig
from repro.ebpf.verifier.regstate import RegState, U64_MAX
from repro.experiments.exp_verification_cost import straight_line_program

REGISTRY = build_default_registry()

EDGES = (0, 1, 1 << 31, 1 << 32, 1 << 63, U64_MAX)
operands = st.one_of(st.sampled_from(EDGES), st.integers(0, U64_MAX))
shifts = st.integers(0, 63)


class _ExitR0(Verifier):
    """Keeps the abstract R0 of the program's one exit."""

    def _do_exit(self, state, insn_idx):
        self.r0 = state.cur.regs[0].copy()
        return super()._do_exit(state, insn_idx)


def exit_r0(program) -> RegState:
    verifier = _ExitR0(program, ProgType.KPROBE, REGISTRY, {})
    verifier.verify()
    return verifier.r0


def verified(program) -> tuple:
    """Verdict, counters and full ``log_level=2`` log of one load."""
    verifier = Verifier(program, ProgType.KPROBE, REGISTRY, {},
                        VerifierConfig(log_level=2))
    try:
        verifier.verify()
        verdict = "ok"
    except Exception as error:  # noqa: BLE001 - the type is the result
        verdict = f"{type(error).__name__}: {error}"
    stats = verifier.stats
    return (verdict, stats.insns_processed, stats.states_explored,
            stats.prune_hits, stats.peak_pending, tuple(stats.log))


@pytest.mark.parametrize("op", sorted(bounds.CONST_FOLDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fold_equals_generic_transfer(op, data):
    a = data.draw(operands, label="dst")
    b = data.draw(shifts if op in ("lsh", "rsh", "arsh") else operands,
                  label="src")
    generic = RegState.const_scalar(a)
    bounds.SCALAR_OPS[op](generic, RegState.const_scalar(b))
    folded = RegState.const_scalar(a)
    folded.set_const(bounds.CONST_FOLDS[op](a, b))
    assert folded == generic


def test_mod_keeps_its_range():
    r0 = exit_r0(Asm().mov64_imm(R0, 10).alu64_imm("mod", R0, 3)
                 .exit_().program())
    assert not r0.is_const
    assert (r0.umin, r0.umax, r0.smin, r0.smax) == (0, 2, 0, 2)


def test_div_by_zero_register_stays_unknown():
    r0 = exit_r0(Asm().mov64_imm(R0, 10).mov64_imm(R1, 0)
                 .alu64_reg("div", R0, R1).exit_().program())
    assert not r0.is_const and r0.umax == U64_MAX


def test_register_source_folds():
    r0 = exit_r0(Asm().mov64_imm(R0, -8).mov64_imm(R1, 2)
                 .alu64_reg("arsh", R0, R1)
                 .alu64_reg("mul", R0, R0).exit_().program())
    assert r0 == RegState.const_scalar(4)


def test_straight_line_calls_no_settle_bounds(monkeypatch):
    calls = []
    settle = RegState.settle_bounds

    def counting(reg):
        calls.append(reg)
        settle(reg)
    monkeypatch.setattr(RegState, "settle_bounds", counting)
    program = straight_line_program(1024)
    alu_ops = len(program) - 2           # between the mov and the exit
    exit_r0(program)
    assert calls == []
    # the generic transfer settles at least once per op
    monkeypatch.setattr(bounds, "CONST_FOLDS", {})
    exit_r0(program)
    assert len(calls) >= alu_ops


def test_const_tnum_with_empty_bounds_is_not_folded(monkeypatch):
    # jset is never decided, so the fall side of "r4 & 0x57d1_e7c0" is
    # walked although the constant r4 always takes the jump: refining
    # r4 there leaves a constant tnum whose bounds are empty.  The
    # generic transfer carries those bounds on; the fold would not.
    program = (Asm().mov64_imm(R4, -211937894)
               .jmp_imm("jset", R4, 1473374144, "out")
               .alu64_imm("sub", R4, 613331493)
               .alu64_imm("div", R4, 4096)
               .mov64_reg(R0, R4)
               .label("out").mov64_imm(R0, 0).exit_().program())
    folded = verified(program)
    monkeypatch.setattr(bounds, "CONST_FOLDS", {})
    assert folded == verified(program)
