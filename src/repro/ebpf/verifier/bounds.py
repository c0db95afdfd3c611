"""Scalar bounds arithmetic: ``adjust_scalar_min_max_vals``.

Given two scalar register states and an ALU op, compute the result's
tnum and 64-bit signed/unsigned ranges.  Ports the structure of the
kernel's per-op ``scalar_min_max_*`` helpers; where the kernel gives
up (division, unknown shifts) we give up identically, because that
imprecision is part of what the paper's §2.1 complains about (false
positives forcing developers to "massage correct eBPF code").

These transfers are 64-bit; the analyzer coerces the operands of a
32-bit op to their subregisters first.  :data:`CONST_FOLDS` is the
exact constant case kept beside them, as ``Tnum.mul`` keeps its
const x const path: for each op in it, two constant operands make
the generic transfer return exactly the constant the concrete op
computes, so the analyzer computes that constant on plain integers
and builds no operand state.  An op whose transfer returns anything
else for constants stays out of it.
"""

from __future__ import annotations

import operator

from repro.ebpf.verifier.regstate import (
    RegState,
    S64_MAX,
    S64_MIN,
    U64_MAX,
    u64_to_s64,
)
from repro.ebpf.verifier.tnum import Tnum


def alu_add(dst: RegState, src: RegState) -> None:
    """dst += src."""
    # signed: overflow in either bound poisons both
    smin = dst.smin + src.smin
    smax = dst.smax + src.smax
    if smin < S64_MIN or smax > S64_MAX:
        dst.smin, dst.smax = S64_MIN, S64_MAX
    else:
        dst.smin, dst.smax = smin, smax
    # unsigned: wraparound check
    umin = dst.umin + src.umin
    umax = dst.umax + src.umax
    if umax > U64_MAX:
        dst.umin, dst.umax = 0, U64_MAX
    else:
        dst.umin, dst.umax = umin, umax
    dst.var_off = dst.var_off.add(src.var_off)
    dst.settle_bounds()


def alu_sub(dst: RegState, src: RegState) -> None:
    """dst -= src."""
    smin = dst.smin - src.smax
    smax = dst.smax - src.smin
    if smin < S64_MIN or smax > S64_MAX:
        dst.smin, dst.smax = S64_MIN, S64_MAX
    else:
        dst.smin, dst.smax = smin, smax
    if dst.umin < src.umax:
        # can wrap below zero
        dst.umin, dst.umax = 0, U64_MAX
    else:
        dst.umin = dst.umin - src.umax
        dst.umax = dst.umax - src.umin
    dst.var_off = dst.var_off.sub(src.var_off)
    dst.settle_bounds()


def alu_mul(dst: RegState, src: RegState) -> None:
    """dst *= src."""
    var_off = dst.var_off.mul(src.var_off)
    if dst.umax * src.umax <= U64_MAX:
        umin = dst.umin * src.umin
        umax = dst.umax * src.umax
        if dst.smin >= 0 and src.smin >= 0:
            smin, smax = u64_to_s64(umin) if umin <= S64_MAX else S64_MIN, \
                u64_to_s64(umax) if umax <= S64_MAX else S64_MAX
            if umax > S64_MAX:
                smin, smax = S64_MIN, S64_MAX
        else:
            smin, smax = S64_MIN, S64_MAX
        dst.umin, dst.umax = umin, umax
        dst.smin, dst.smax = smin, smax
    else:
        dst.umin, dst.umax = 0, U64_MAX
        dst.smin, dst.smax = S64_MIN, S64_MAX
    dst.var_off = var_off
    dst.settle_bounds()


def _reset_then_settle(dst: RegState, var_off: Tnum) -> None:
    """Derive all ranges from a freshly computed tnum."""
    dst.var_off = var_off
    dst.smin, dst.smax = S64_MIN, S64_MAX
    dst.umin, dst.umax = 0, U64_MAX
    dst.settle_bounds()


def alu_and(dst: RegState, src: RegState) -> None:
    """dst &= src — bounds follow the tnum; additionally the result
    cannot exceed either operand (kernel ``scalar_min_max_and``)."""
    var_off = dst.var_off.and_(src.var_off)
    upper = min(dst.umax, src.umax)
    _reset_then_settle(dst, var_off)
    dst.umax = min(dst.umax, upper)
    dst.settle_bounds()


def alu_or(dst: RegState, src: RegState) -> None:
    """dst |= src — result at least as large as either operand."""
    var_off = dst.var_off.or_(src.var_off)
    lower = max(dst.umin, src.umin)
    _reset_then_settle(dst, var_off)
    dst.umin = max(dst.umin, lower)
    dst.settle_bounds()


def alu_xor(dst: RegState, src: RegState) -> None:
    """dst ^= src."""
    _reset_then_settle(dst, dst.var_off.xor(src.var_off))


def alu_lsh(dst: RegState, src: RegState) -> None:
    """dst <<= src (src must be a known constant < 64; checked by
    the analyzer)."""
    shift = src.const_value
    _reset_then_settle(dst, dst.var_off.lshift(shift))


def alu_rsh(dst: RegState, src: RegState) -> None:
    """dst >>= src (logical)."""
    shift = src.const_value
    _reset_then_settle(dst, dst.var_off.rshift(shift))


def alu_arsh(dst: RegState, src: RegState) -> None:
    """dst s>>= src (arithmetic)."""
    shift = src.const_value
    _reset_then_settle(dst, dst.var_off.arshift(shift))


def alu_div(dst: RegState, src: RegState) -> None:
    """dst /= src (unsigned).  The kernel tracks nothing here."""
    if src.is_const and src.const_value != 0 and dst.umax <= U64_MAX:
        divisor = src.const_value
        umin = dst.umin // divisor
        umax = dst.umax // divisor
        _reset_then_settle(dst, Tnum.range(umin, umax))
        dst.umin, dst.umax = umin, umax
        dst.settle_bounds()
    else:
        dst.mark_unknown()


def alu_mod(dst: RegState, src: RegState) -> None:
    """dst %= src (unsigned) — result in [0, divisor-1] for known
    divisors."""
    if src.is_const and src.const_value != 0:
        divisor = src.const_value
        _reset_then_settle(dst, Tnum.range(0, divisor - 1))
        dst.umin, dst.umax = 0, divisor - 1
        dst.settle_bounds()
    else:
        dst.mark_unknown()


def alu_neg(dst: RegState) -> None:
    """dst = -dst."""
    _reset_then_settle(dst, dst.var_off.neg())


SCALAR_OPS = {
    "add": alu_add, "sub": alu_sub, "mul": alu_mul,
    "and": alu_and, "or": alu_or, "xor": alu_xor,
    "lsh": alu_lsh, "rsh": alu_rsh, "arsh": alu_arsh,
    "div": alu_div, "mod": alu_mod,
}

#: 64-bit op -> its result on two unsigned 64-bit constants (shift
#: amounts below 64); ``RegState.set_const`` wraps it to 64 bits.
#: div and mod stay out: mod's transfer keeps the range [0, d-1], as
#: the kernel's does, and div's makes a zero divisor unknown.
CONST_FOLDS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "lsh": operator.lshift, "rsh": operator.rshift,
    "arsh": lambda value, shift: u64_to_s64(value) >> shift,
}
