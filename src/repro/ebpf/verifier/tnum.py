"""Tristate numbers: the verifier's bit-level abstract domain.

A tnum ``(value, mask)`` represents the set of 64-bit integers that
agree with ``value`` on every bit where ``mask`` is 0; bits where
``mask`` is 1 are unknown.  This is the abstraction the Linux verifier
uses for tracking partial knowledge of register contents
(``kernel/bpf/tnum.c``), proven sound and optimal for add/sub/mul by
Vishwanathan et al. [50].

The arithmetic below is a line-for-line port of the kernel's
implementation, with Python integers wrapped to 64 bits.  ``tnum_mul``
runs its loop on plain integers, with a const x const fast path.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

U64 = (1 << 64) - 1


class Tnum:
    """A tristate number.  Immutable, equal and hashed by
    ``(value, mask)``; operations return new tnums.

    The invariant -- ``value & mask == 0`` and both fields fit in 64
    bits -- is checked by the public constructor ``Tnum(value, mask)``.
    The results of operations are built unchecked by :func:`_tnum`:
    given valid operands, the algebra below cannot break the
    invariant, and every operand was built one of these two ways.
    """

    __slots__ = ("value", "mask")

    def __init__(self, value: int, mask: int) -> None:
        if value & mask:
            raise ValueError(
                f"tnum invariant violated: value {value:#x} and "
                f"mask {mask:#x} overlap")
        if not (0 <= value <= U64 and 0 <= mask <= U64):
            raise ValueError("tnum fields must fit in 64 bits")
        _set_value(self, value)
        _set_mask(self, mask)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Tnum:
            return NotImplemented
        return self.value == other.value and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.value, self.mask))

    def __repr__(self) -> str:
        return f"Tnum(value={self.value!r}, mask={self.mask!r})"

    def __reduce__(self) -> tuple:
        return (Tnum, (self.value, self.mask))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def const(cls, value: int) -> "Tnum":
        """A fully known value."""
        return _tnum(value & U64, 0)

    @classmethod
    def unknown(cls) -> "Tnum":
        """A fully unknown value."""
        return TNUM_UNKNOWN

    @classmethod
    def range(cls, umin: int, umax: int) -> "Tnum":
        """The tightest tnum containing every value in [umin, umax]."""
        chi = umin ^ umax
        bits = chi.bit_length()
        if bits > 63:
            return TNUM_UNKNOWN
        delta = (1 << bits) - 1
        return cls(umin & ~delta, delta)

    # -- predicates ----------------------------------------------------------

    @property
    def is_const(self) -> bool:
        """True when every bit is known."""
        return self.mask == 0

    @property
    def is_unknown(self) -> bool:
        """True when no bit is known."""
        return self.mask == U64

    def is_aligned(self, size: int) -> bool:
        """True when the value is provably ``size``-aligned."""
        if size == 0:
            return True
        return ((self.value | self.mask) & (size - 1)) == 0

    def contains(self, other: "Tnum") -> bool:
        """``tnum_in``: is every concretization of ``other`` also a
        concretization of ``self``?"""
        if other.mask & ~self.mask:
            return False
        return self.value == (other.value & ~self.mask)

    def contains_value(self, value: int) -> bool:
        """Does ``value`` belong to this tnum's set?"""
        return (value & ~self.mask) == self.value

    # -- arithmetic ------------------------------------------------------------

    def add(self, other: "Tnum") -> "Tnum":
        """Abstract 64-bit addition (kernel ``tnum_add``)."""
        sm = (self.mask + other.mask) & U64
        sv = (self.value + other.value) & U64
        sigma = (sm + sv) & U64
        chi = sigma ^ sv
        mu = chi | self.mask | other.mask
        return _tnum(sv & ~mu, mu)

    def sub(self, other: "Tnum") -> "Tnum":
        """Abstract 64-bit subtraction (kernel ``tnum_sub``)."""
        dv = (self.value - other.value) & U64
        alpha = (dv + self.mask) & U64
        beta = (dv - other.mask) & U64
        chi = alpha ^ beta
        mu = chi | self.mask | other.mask
        return _tnum(dv & ~mu, mu)

    def and_(self, other: "Tnum") -> "Tnum":
        """Abstract bitwise AND."""
        alpha = self.value | self.mask
        beta = other.value | other.mask
        v = self.value & other.value
        return _tnum(v, alpha & beta & ~v)

    def or_(self, other: "Tnum") -> "Tnum":
        """Abstract bitwise OR."""
        v = self.value | other.value
        mu = self.mask | other.mask
        return _tnum(v, mu & ~v)

    def xor(self, other: "Tnum") -> "Tnum":
        """Abstract bitwise XOR."""
        v = self.value ^ other.value
        mu = self.mask | other.mask
        return _tnum(v & ~mu, mu)

    def mul(self, other: "Tnum") -> "Tnum":
        """Abstract 64-bit multiplication (kernel ``tnum_mul``,
        the half-multiply-accumulate formulation of [50]).

        The loop runs on plain integers.  The accumulator starts at
        ``TNUM(0, 0)`` and only ever gains ``TNUM(0, m)`` terms, so its
        value stays 0 and ``tnum_add`` reduces to its mask update.
        With both masks zero every term is zero, so a const x const
        product is exactly ``const(a * b)``."""
        a_value, a_mask = self.value, self.mask
        b_value, b_mask = other.value, other.mask
        acc_v = (a_value * b_value) & U64
        if not (a_mask or b_mask):
            return _tnum(acc_v, 0)
        acc_m = 0
        while a_value or a_mask:
            if a_value & 1:
                term = b_mask
            elif a_mask & 1:
                term = b_value | b_mask
            else:
                term = 0
            acc_m |= ((acc_m + term) & U64) | term
            a_value >>= 1
            a_mask >>= 1
            b_value = (b_value << 1) & U64
            b_mask = (b_mask << 1) & U64
        # tnum_add(TNUM(acc_v, 0), TNUM(0, acc_m))
        mu = (((acc_v + acc_m) & U64) ^ acc_v) | acc_m
        return _tnum(acc_v & ~mu, mu)

    def lshift(self, shift: int) -> "Tnum":
        """Abstract left shift by a known amount."""
        return _tnum((self.value << shift) & U64,
                     (self.mask << shift) & U64)

    def rshift(self, shift: int) -> "Tnum":
        """Abstract logical right shift by a known amount."""
        return _tnum(self.value >> shift, self.mask >> shift)

    def arshift(self, shift: int) -> "Tnum":
        """Abstract arithmetic right shift by a known amount."""
        def sar(x: int) -> int:
            if x & (1 << 63):
                return ((x >> shift) | (U64 << (64 - shift))) & U64
            return x >> shift
        if shift == 0:
            return self
        return _tnum(sar(self.value), sar(self.mask))

    def neg(self) -> "Tnum":
        """Abstract negation (0 - x)."""
        return TNUM_ZERO.sub(self)

    # -- lattice ops -----------------------------------------------------------

    def intersect(self, other: "Tnum") -> "Tnum":
        """Combine two sources of knowledge about the same value."""
        v = self.value | other.value
        mu = self.mask & other.mask
        return _tnum(v & ~mu, mu)

    def union(self, other: "Tnum") -> "Tnum":
        """Least upper bound: forget bits on which the two disagree."""
        v = self.value & other.value
        mu = self.mask | other.mask | (self.value ^ other.value)
        return _tnum(v & ~mu, mu)

    def cast(self, size: int) -> "Tnum":
        """Truncate to ``size`` bytes (zero-extending semantics)."""
        if size == 8:
            return self
        keep = (1 << (size * 8)) - 1
        return _tnum(self.value & keep, self.mask & keep)

    def scast(self, size: int) -> "Tnum":
        """Truncate to ``size`` bytes and sign-extend (kernel
        ``tnum_scast``).  Value and mask are extended separately, so
        an unknown sign bit leaves every upper bit unknown."""
        if size == 8:
            return self
        keep = (1 << (size * 8)) - 1
        sign = 1 << (size * 8 - 1)

        def extend(x: int) -> int:
            x &= keep
            return x | (U64 ^ keep) if x & sign else x
        return _tnum(extend(self.value), extend(self.mask))

    # -- bounds helpers ----------------------------------------------------------

    @property
    def umin(self) -> int:
        """Smallest unsigned value in the set."""
        return self.value

    @property
    def umax(self) -> int:
        """Largest unsigned value in the set."""
        return self.value | self.mask

    def __str__(self) -> str:
        if self.is_const:
            return f"{self.value:#x}"
        if self.is_unknown:
            return "unknown"
        return f"(value={self.value:#x}; mask={self.mask:#x})"


_new = object.__new__
_set_value = Tnum.value.__set__
_set_mask = Tnum.mask.__set__


def _tnum(value: int, mask: int) -> Tnum:
    """Build an operation's result without the invariant check; the
    caller's algebra guarantees it (see :class:`Tnum`)."""
    tnum = _new(Tnum)
    _set_value(tnum, value)
    _set_mask(tnum, mask)
    return tnum


TNUM_UNKNOWN = _tnum(0, U64)
TNUM_ZERO = _tnum(0, 0)
