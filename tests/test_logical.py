import random

import pytest
from hypothesis import given, settings

from logizono.binvec import BinaryMatrix, BinaryVector, Gate, bv_op
from logizono.errors import CapacityError, DimensionError
from logizono.explicit import set_minkowski, set_not
from logizono.logical import (LogicalZonotope, _basis, lz_and, lz_compact,
                              lz_contains, lz_enclose_points, lz_evaluate,
                              lz_nand, lz_nor, lz_not, lz_or, lz_reduce,
                              lz_xnor, lz_xor)

from conftest import logical_zonotopes, lz_pairs

EXACT = {Gate.XOR: lz_xor, Gate.XNOR: lz_xnor}
SOUND = {Gate.AND: lz_and, Gate.OR: lz_or,
         Gate.NAND: lz_nand, Gate.NOR: lz_nor}


def bv(bits):
    return BinaryVector.from_bits(bits)


def test_singleton():
    z = LogicalZonotope.singleton(bv([1, 0]))
    assert z.gamma == 0
    assert lz_evaluate(z).points == frozenset({bv([1, 0])})


def test_xor_worked_example():
    a = LogicalZonotope(bv([0, 0]), BinaryMatrix(2, (bv([1, 0]),)))
    b = LogicalZonotope.singleton(bv([0, 1]))
    got = lz_evaluate(lz_xor(a, b))
    assert got.points == frozenset({bv([0, 1]), bv([1, 1])})


def test_shape_mismatch():
    with pytest.raises(DimensionError):
        lz_xor(LogicalZonotope.singleton(bv([0])),
               LogicalZonotope.singleton(bv([0, 0])))
    with pytest.raises(DimensionError):
        LogicalZonotope(bv([0]), BinaryMatrix(2, ()))


@given(lz_pairs())
def test_xor_xnor_exact(pair):
    a, b = pair
    sa, sb = lz_evaluate(a), lz_evaluate(b)
    for gate, fn in EXACT.items():
        got = lz_evaluate(fn(a, b))
        assert got.points == set_minkowski(sa, sb, gate).points


@given(lz_pairs())
@settings(max_examples=60)
def test_other_gates_sound(pair):
    a, b = pair
    sa, sb = lz_evaluate(a), lz_evaluate(b)
    for gate, fn in SOUND.items():
        got = lz_evaluate(fn(a, b))
        assert set_minkowski(sa, sb, gate).points <= got.points


@given(logical_zonotopes())
def test_not_exact(z):
    assert lz_evaluate(lz_not(z)).points == set_not(lz_evaluate(z)).points
    assert lz_evaluate(lz_not(lz_not(z))).points == lz_evaluate(z).points


def test_and_overapproximates_when_operands_vary():
    g = BinaryMatrix(1, (bv([1]),))
    a = LogicalZonotope(bv([0]), g)
    b = LogicalZonotope(bv([1]), g)
    # pointwise products of two {0,1} sets still form {0,1}; the
    # generator-space AND keeps that and stays sound
    got = lz_evaluate(lz_and(a, b))
    assert frozenset({bv([0]), bv([1])}) <= got.points


def test_enclose_points_covers_inputs():
    pts = [bv([0, 0, 1]), bv([1, 1, 0]), bv([0, 1, 1])]
    z = lz_enclose_points(pts)
    got = lz_evaluate(z)
    for p in pts:
        assert p in got.points
        assert lz_contains(z, p)


def test_enclose_points_empty_rejected():
    with pytest.raises(ValueError):
        lz_enclose_points([])


@given(logical_zonotopes())
def test_reduce_preserves_set(z):
    r = lz_reduce(z)
    assert r.gamma <= z.dim
    assert lz_evaluate(r).points == lz_evaluate(z).points
    assert len(lz_evaluate(r)) == 1 << r.gamma


@given(logical_zonotopes())
def test_compact_preserves_set(z):
    assert lz_evaluate(lz_compact(z)).points == lz_evaluate(z).points


@given(logical_zonotopes(max_dim=3))
def test_contains_matches_enumeration(z):
    members = lz_evaluate(z).points
    for bits in range(1 << z.dim):
        point = BinaryVector(z.dim, bits)
        assert lz_contains(z, point) == (point in members)


def test_evaluate_cap():
    z = LogicalZonotope(bv([0, 0]), BinaryMatrix(2, (bv([1, 0]), bv([0, 1]))))
    with pytest.raises(CapacityError) as err:
        lz_evaluate(z, cap=3)
    assert "needs 4 elements" in str(err.value)
    assert len(lz_evaluate(z, cap=4)) == 4


def test_sizes_are_powers_of_two():
    pts = [BinaryVector(3, b) for b in (0, 1, 2, 7)]
    z = lz_enclose_points(pts)
    assert len(lz_evaluate(z)) in (1, 2, 4, 8)


def random_columns(rng):
    """A random column list at widths 1-12: possibly empty, with repeats,
    zero columns and more columns than the width."""
    n = rng.randint(1, 12)
    cols = [rng.getrandbits(n) for _ in range(rng.randint(0, n + 3))]
    cols += [0] * rng.randint(0, 2) + rng.sample(cols, min(len(cols), 2))
    rng.shuffle(cols)
    return n, cols


def span(cols):
    out = {0}
    for g in cols:
        out |= {x ^ g for x in out}
    return out


def rank(cols):
    # the dimension of the span, by counting its members
    return len(span(cols)).bit_length() - 1


def remix(rng, cols):
    """The columns shuffled, each then XORed with an earlier one (which
    keeps their span), and a few XORs of them appended."""
    cols = cols[:]
    rng.shuffle(cols)
    for i in range(1, len(cols)):
        cols[i] ^= cols[rng.randrange(i)]
    return cols + [a ^ b for a, b in zip(cols, cols[1:3])]


def test_basis_is_an_echelon_basis_of_the_span():
    rng = random.Random(0)
    for _ in range(200):
        n, cols = random_columns(rng)
        basis = _basis(cols)
        leads = [g.bit_length() for g in basis]
        assert leads == sorted(set(leads), reverse=True), cols
        assert 0 not in leads, cols
        assert span(basis) == span(cols), cols
        assert len(basis) == rank(cols), cols
        # reduced: no element holds another's leading bit, so the basis
        # is the span's one reduced echelon basis
        for g in basis:
            assert [h >> (g.bit_length() - 1) & 1 for h in basis] == [
                h == g for h in basis], cols
        mixed = remix(rng, cols)
        assert _basis(mixed) == basis, (cols, mixed)
        # two zonotopes of one set reduce to one canonical form
        c = rng.getrandbits(n)
        shift = rng.choice(sorted(span(cols)))
        a = lz_reduce(LogicalZonotope.from_bits(n, c, cols))
        b = lz_reduce(LogicalZonotope.from_bits(n, c ^ shift, mixed))
        assert (a.cbits, a.gbits) == (b.cbits, b.gbits), (cols, mixed)


def test_contains_and_reduce_agree_with_enumeration():
    rng = random.Random(1)
    for _ in range(200):
        n, cols = random_columns(rng)
        c = BinaryVector(n, rng.getrandbits(n))
        z = LogicalZonotope(c, BinaryMatrix(n, tuple(BinaryVector(n, g)
                                                     for g in cols)))
        members = lz_evaluate(z)
        assert members.bits == {c.bits ^ x for x in span(cols)}, cols
        assert lz_evaluate(lz_reduce(z)) == members, cols
        if n <= 6:
            for bits in range(1 << n):
                point = BinaryVector(n, bits)
                assert lz_contains(z, point) == (point in members), cols


def test_constructor_keeps_vectors_and_engine_builds_them_on_read(built):
    c = bv([1, 0, 1])
    G = BinaryMatrix(3, (bv([0, 1, 1]), bv([1, 1, 0])))
    z = LogicalZonotope(c, G)
    assert z.c == c and z.G == G
    built[0] = 0
    engine = LogicalZonotope.from_bits(3, 0b101, (0b110, 0b011))
    assert engine == z and hash(engine) == hash(z)
    assert built[0] == 0
    assert engine.c == c and engine.G == G
    assert built[0] == 3


def test_mismatched_widths_raise():
    with pytest.raises(DimensionError):
        LogicalZonotope(bv([0, 1]), BinaryMatrix(3, (bv([0, 1, 1]),)))
    with pytest.raises(DimensionError):
        lz_enclose_points([bv([0, 1]), bv([0, 1, 1])])
    for gate in (*EXACT.values(), *SOUND.values()):
        with pytest.raises(DimensionError):
            gate(LogicalZonotope.singleton(bv([0])),
                 LogicalZonotope.singleton(bv([0, 0])))


def test_derived_gates_are_their_de_morgan_compositions():
    # each derived gate is built in one construction, and must give the
    # very zonotope of its composition: same center, same columns in the
    # same order
    composed = {
        lz_nand: lambda a, b: lz_not(lz_and(a, b)),
        lz_or: lambda a, b: lz_not(lz_and(lz_not(a), lz_not(b))),
        lz_nor: lambda a, b: lz_and(lz_not(a), lz_not(b)),
        lz_xnor: lambda a, b: lz_not(lz_xor(a, b)),
    }
    rng = random.Random(2)
    for _ in range(300):
        n, cols = random_columns(rng)
        other = [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]
        other += [0] * rng.randint(0, 1)
        a = LogicalZonotope.from_bits(n, rng.getrandbits(n), cols)
        b = LogicalZonotope.from_bits(n, rng.getrandbits(n), other)
        for gate, want in composed.items():
            for x, y in ((a, b), (b, a)):
                got, ref = gate(x, y), want(x, y)
                assert (got.dim, got.cbits, got.gbits) == (
                    ref.dim, ref.cbits, ref.gbits), (gate, cols, other)
