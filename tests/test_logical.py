import pytest
from hypothesis import given, settings

from logizono.binvec import BinaryMatrix, BinaryVector, Gate, bv_op
from logizono.errors import CapacityError, DimensionError
from logizono.explicit import set_minkowski, set_not
from logizono.logical import (LogicalZonotope, lz_and, lz_compact,
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
