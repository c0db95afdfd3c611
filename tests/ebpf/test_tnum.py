"""Tristate-number tests, including hypothesis soundness properties.

The key property for every abstract operation: if concrete values x, y
are contained in tnums A, B, then op(x, y) is contained in op(A, B)
(soundness, per Vishwanathan et al. [50]).  Operations build their
results without the constructor's invariant check, so every soundness
test also checks the invariant on the result.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ebpf.verifier.tnum import Tnum, U64


def masks():
    """Strategy: no unknown bits (a constant), a few, or any."""
    sparse = st.lists(st.integers(0, 63), max_size=4).map(
        lambda bits: sum(1 << bit for bit in set(bits)))
    return st.one_of(st.just(0), sparse, st.integers(0, U64))


def tnums():
    """Strategy: a tnum built through the checked constructor."""
    return st.builds(lambda value, mask: Tnum(value & ~mask, mask),
                     st.integers(0, U64), masks())


def valid(tnum: Tnum) -> Tnum:
    """Assert the tnum invariant and pass the tnum through."""
    assert tnum.value & tnum.mask == 0
    assert 0 <= tnum.value <= U64 and 0 <= tnum.mask <= U64
    return tnum


def kernel_tnum_mul(a: Tnum, b: Tnum) -> Tnum:
    """The kernel's ``tnum_mul`` loop, literally: the oracle for
    :meth:`Tnum.mul`."""
    acc_v = (a.value * b.value) & U64
    acc_m = Tnum(0, 0)
    while a.value or a.mask:
        if a.value & 1:
            acc_m = acc_m.add(Tnum(0, b.mask))
        elif a.mask & 1:
            acc_m = acc_m.add(Tnum(0, b.value | b.mask))
        a = a.rshift(1)
        b = b.lshift(1)
    return Tnum(acc_v, 0).add(acc_m)


def tnum_with_member():
    """Strategy: a (tnum, member value) pair."""
    @st.composite
    def build(draw):
        value = draw(st.integers(0, U64))
        mask = draw(masks())
        known = value & ~mask
        tnum = Tnum(known, mask)
        # pick a member: known bits fixed, unknown bits arbitrary
        noise = draw(st.integers(0, U64))
        member = known | (noise & mask)
        return tnum, member
    return build()


class TestConstruction:
    def test_const(self):
        t = Tnum.const(42)
        assert t.is_const and t.value == 42

    def test_const_wraps(self):
        assert Tnum.const(-1).value == U64

    def test_unknown(self):
        t = Tnum.unknown()
        assert t.is_unknown and t.mask == U64

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            Tnum(1, 1)  # overlapping value and mask

    def test_fields_must_fit_in_64_bits(self):
        with pytest.raises(ValueError):
            Tnum(1 << 64, 0)
        with pytest.raises(ValueError):
            Tnum(0, -1)

    def test_immutable(self):
        t = Tnum.const(3)
        with pytest.raises(AttributeError):
            t.value = 4
        with pytest.raises(AttributeError):
            t.mask = 1
        assert t == Tnum.const(3)

    @settings(max_examples=200)
    @given(tnums(), tnums())
    def test_results_equal_and_hash_equal_to_checked_tnums(self, a, b):
        for result in (a.add(b), a.mul(b), a.and_(b), a.union(b)):
            rebuilt = Tnum(result.value, result.mask)  # checked
            assert rebuilt == result and hash(rebuilt) == hash(result)
            assert len({rebuilt, result}) == 1
        assert Tnum.const(5) != Tnum(4, 1)

    def test_range_exact_for_pow2(self):
        t = Tnum.range(0, 255)
        assert t.value == 0 and t.mask == 255

    def test_range_single_value(self):
        t = Tnum.range(7, 7)
        assert t.is_const and t.value == 7

    def test_range_contains_endpoints(self):
        t = Tnum.range(100, 200)
        assert t.contains_value(100)
        assert t.contains_value(200)


class TestPredicates:
    def test_contains_value(self):
        t = Tnum(0b1000, 0b0111)
        assert t.contains_value(0b1000)
        assert t.contains_value(0b1111)
        assert not t.contains_value(0b0111)

    def test_contains_tnum(self):
        wide = Tnum(0, 0xFF)
        narrow = Tnum(0x10, 0x0F)
        assert wide.contains(narrow)
        assert not narrow.contains(wide)

    def test_is_aligned(self):
        assert Tnum.const(8).is_aligned(8)
        assert not Tnum.const(4).is_aligned(8)
        assert not Tnum(0, 0b111).is_aligned(8)
        assert Tnum(0, ~0b111 & U64).is_aligned(8)

    def test_umin_umax(self):
        t = Tnum(0b100, 0b011)
        assert t.umin == 4 and t.umax == 7


class TestConcreteOps:
    def test_add_consts(self):
        assert Tnum.const(3).add(Tnum.const(4)) == Tnum.const(7)

    def test_add_wraps(self):
        assert Tnum.const(U64).add(Tnum.const(1)) == Tnum.const(0)

    def test_sub_consts(self):
        assert Tnum.const(10).sub(Tnum.const(4)) == Tnum.const(6)

    def test_mul_consts(self):
        assert Tnum.const(6).mul(Tnum.const(7)) == Tnum.const(42)

    def test_and_known_zero_bits(self):
        t = Tnum.unknown().and_(Tnum.const(0xFF))
        assert t.umax <= 0xFF

    def test_or_known_one_bits(self):
        t = Tnum.unknown().or_(Tnum.const(0x80))
        assert t.value & 0x80

    def test_shifts(self):
        t = Tnum.const(0b101)
        assert t.lshift(2) == Tnum.const(0b10100)
        assert t.rshift(1) == Tnum.const(0b10)

    def test_arshift_sign(self):
        negative = Tnum.const(1 << 63)
        shifted = negative.arshift(1)
        assert shifted.value >> 62 == 0b11

    def test_neg(self):
        assert Tnum.const(5).neg() == Tnum.const(U64 - 4)

    def test_cast_truncates(self):
        t = Tnum.const(0x1_0000_00FF).cast(4)
        assert t == Tnum.const(0xFF)

    def test_intersect_merges_knowledge(self):
        a = Tnum(0x10, 0x0F)    # high nibble known 1
        b = Tnum(0x01, 0xF0)    # low nibble known 1
        merged = a.intersect(b)
        assert merged == Tnum.const(0x11)

    def test_union_forgets_disagreement(self):
        u = Tnum.const(0b01).union(Tnum.const(0b10))
        assert u.contains_value(0b01)
        assert u.contains_value(0b10)


class TestSoundness:
    """op(member, member) must stay inside op(tnum, tnum)."""

    @settings(max_examples=200)
    @given(tnum_with_member(), tnum_with_member())
    def test_add_sound(self, a, b):
        (ta, xa), (tb, xb) = a, b
        assert valid(ta.add(tb)).contains_value((xa + xb) & U64)

    @settings(max_examples=200)
    @given(tnum_with_member(), tnum_with_member())
    def test_sub_sound(self, a, b):
        (ta, xa), (tb, xb) = a, b
        assert valid(ta.sub(tb)).contains_value((xa - xb) & U64)

    @settings(max_examples=200)
    @given(tnum_with_member(), tnum_with_member())
    def test_mul_sound(self, a, b):
        (ta, xa), (tb, xb) = a, b
        assert valid(ta.mul(tb)).contains_value((xa * xb) & U64)

    @settings(max_examples=200)
    @given(tnum_with_member(), tnum_with_member())
    def test_and_sound(self, a, b):
        (ta, xa), (tb, xb) = a, b
        assert valid(ta.and_(tb)).contains_value(xa & xb)

    @settings(max_examples=200)
    @given(tnum_with_member(), tnum_with_member())
    def test_or_sound(self, a, b):
        (ta, xa), (tb, xb) = a, b
        assert valid(ta.or_(tb)).contains_value(xa | xb)

    @settings(max_examples=200)
    @given(tnum_with_member(), tnum_with_member())
    def test_xor_sound(self, a, b):
        (ta, xa), (tb, xb) = a, b
        assert valid(ta.xor(tb)).contains_value(xa ^ xb)

    @settings(max_examples=200)
    @given(tnum_with_member(), st.integers(0, 63))
    def test_lshift_sound(self, a, shift):
        ta, xa = a
        assert valid(ta.lshift(shift)).contains_value((xa << shift) & U64)

    @settings(max_examples=200)
    @given(tnum_with_member(), st.integers(0, 63))
    def test_rshift_sound(self, a, shift):
        ta, xa = a
        assert valid(ta.rshift(shift)).contains_value(xa >> shift)

    @settings(max_examples=200)
    @given(tnum_with_member(), st.integers(0, 63))
    def test_arshift_sound(self, a, shift):
        ta, xa = a
        signed = xa - (1 << 64) if xa & (1 << 63) else xa
        expected = (signed >> shift) & U64
        assert valid(ta.arshift(shift)).contains_value(expected)

    @settings(max_examples=200)
    @given(tnum_with_member(), tnum_with_member())
    def test_union_sound_both_sides(self, a, b):
        (ta, xa), (tb, xb) = a, b
        joined = valid(ta.union(tb))
        assert joined.contains_value(xa)
        assert joined.contains_value(xb)

    @settings(max_examples=200)
    @given(st.integers(0, U64), st.integers(0, U64))
    def test_range_sound(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        t = valid(Tnum.range(lo, hi))
        assert t.contains_value(lo)
        assert t.contains_value(hi)
        assert t.contains_value((lo + hi) // 2) or True  # envelope only

    @settings(max_examples=200)
    @given(tnum_with_member(), st.integers(1, 8))
    def test_cast_sound(self, a, size):
        ta, xa = a
        keep = (1 << (size * 8)) - 1
        assert valid(ta.cast(size)).contains_value(xa & keep)

    @settings(max_examples=200)
    @given(tnum_with_member())
    def test_neg_sound(self, a):
        ta, xa = a
        assert valid(ta.neg()).contains_value(-xa & U64)

    @settings(max_examples=200)
    @given(tnum_with_member(), masks())
    def test_intersect_sound(self, a, mask):
        ta, xa = a
        other = Tnum(xa & ~mask, mask)  # a second tnum holding xa
        assert valid(ta.intersect(other)).contains_value(xa)


class TestMulMatchesKernelLoop:
    """``Tnum.mul`` runs the kernel loop on plain ints, with a
    const x const fast path; both must equal the literal loop."""

    @settings(max_examples=500)
    @given(tnums(), tnums())
    def test_mul_equals_kernel_loop(self, a, b):
        assert valid(a.mul(b)) == kernel_tnum_mul(a, b)

    @settings(max_examples=200)
    @given(st.integers(0, U64), st.integers(0, U64))
    def test_const_fast_path_equals_kernel_loop(self, x, y):
        product = Tnum.const(x).mul(Tnum.const(y))
        assert product == kernel_tnum_mul(Tnum.const(x), Tnum.const(y))
        assert product == Tnum.const(x * y)

    def test_mixed_operands(self):
        unknown_low = Tnum(0, 0xF)
        for const in (0, 1, 3, 1 << 63, U64):
            for a, b in ((Tnum.const(const), unknown_low),
                         (unknown_low, Tnum.const(const))):
                assert a.mul(b) == kernel_tnum_mul(a, b)
