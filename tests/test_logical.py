import operator
import random
from functools import partial

import pytest
from hypothesis import given, settings

from logizono.binvec import (DE_MORGAN, INT_GATES, BinaryMatrix,
                             BinaryVector, Gate, bv_op)
from logizono.errors import CapacityError, DimensionError
from logizono.explicit import set_minkowski, set_not
from logizono.logical import (GATES, LogicalZonotope, _basis, _canonical,
                              _echelon, lz_and, lz_compact, lz_contains,
                              lz_enclose_points, lz_evaluate, lz_nand, lz_nor,
                              lz_not, lz_or, lz_points, lz_reduce, lz_xnor,
                              lz_xor, packed_ops, packed_points)
from logizono.model import _LZ_GATES, _PZ_EXACT
from logizono.poly import (MINK_GATES, PolyLogicalZonotope, pz_evaluate,
                           pz_not, unique_id)
from logizono.reach import _BITMAP_WIDTH, _set_ops, _value_set

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


def test_contains_rejects_a_point_of_another_width():
    z = lz_enclose_points([bv([0, 1]), bv([1, 1])])
    with pytest.raises(DimensionError, match="dim 2 vs 3"):
        lz_contains(z, bv([0, 1, 1]))


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


def test_packed_ops_match_the_public_gates_and_reduce():
    # the logical lane's packed pairs against the LogicalZonotope API:
    # every gate and NOT gives the same center and columns, and the
    # echelon basis of any columns, put in canonical form as the lane's
    # fixpoint key does, is lz_reduce's
    rng = random.Random(3)
    for _ in range(300):
        n, cols = random_columns(rng)
        other = [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]
        other += [0] * rng.randint(0, 1) + cols[:rng.randint(0, 2)]
        a = LogicalZonotope.from_bits(n, rng.getrandbits(n), cols)
        b = LogicalZonotope.from_bits(n, rng.getrandbits(n), other)
        const, not_, gates = packed_ops(n)
        # the lane's columns come as tuples from lz_reduce, lists after
        pair = {a: (a.cbits, a.gbits), b: (b.cbits, list(b.gbits))}
        for z in (a, b):
            assert not_(pair[z]) == (lz_not(z).cbits, pair[z][1])
        for gate in Gate:
            for x, y in ((a, b), (b, a)):
                want = GATES[gate](x, y)
                c, g = gates[gate](pair[x], pair[y])
                assert (c, tuple(g)) == (want.cbits, want.gbits), (gate, x, y)
        assert const(BinaryVector(n, a.cbits)) == (a.cbits, ())
        echelon = _echelon(cols)
        leads = [g.bit_length() for g in echelon]
        assert len(set(leads)) == len(leads) and 0 not in leads, cols
        assert len(echelon) == rank(cols) <= n, cols
        assert span(echelon) == span(cols), cols
        want = lz_reduce(a)
        assert _canonical(a.cbits, echelon) == (want.cbits,
                                                list(want.gbits)), cols


def random_points(rng):
    """A random point list at widths 1-70: 1-8 points, some lists all
    one point, others with a point repeated."""
    n = rng.randint(1, 70)
    pts = [BinaryVector(n, rng.getrandbits(n))
           for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.2:
        pts = [pts[0]] * len(pts)
    elif rng.random() < 0.5:
        pts.insert(rng.randrange(len(pts) + 1), rng.choice(pts))
    return pts


def test_packed_points_hold_the_reduced_enclosure():
    # the logical lane enters each step's inputs as packed_points: the
    # set of lz_reduce(lz_enclose_points(...)) in an echelon basis, whose
    # canonical form is lz_reduce's and whose points are the enclosure's
    rng = random.Random(7)
    for _ in range(300):
        pts = random_points(rng)
        pair = packed_points(pts)
        z = lz_reduce(lz_enclose_points(pts))
        assert _canonical(*pair) == (z.cbits, list(z.gbits)), pts
        assert lz_points(pts[0].dim, *pair) == lz_evaluate(
            lz_enclose_points(pts)), pts


def test_echelon_and_packed_points_at_the_edges():
    # at most one column is its own basis, a 0 none; packed_points leaves
    # out the first point's difference, which is always 0
    assert _echelon([]) == _echelon([0]) == _echelon((0,)) == []
    assert _echelon([6]) == _echelon((6,)) == [6]
    p, q, r = (BinaryVector(4, x) for x in (0b0101, 0b0110, 0b1100))
    for pts in ([p], [p, p], [p, q], [q, p, q], [p, q, p], [p, q, q],
                [p, q, r, BinaryVector(4, p.bits ^ q.bits ^ r.bits)]):
        c, basis = packed_points(pts)
        assert c == pts[0].bits and 0 not in basis, pts
        assert len(basis) == rank(basis), pts
        z = lz_reduce(lz_enclose_points(pts))
        assert _canonical(c, basis) == (z.cbits, list(z.gbits)), pts
        assert lz_points(4, c, basis) == lz_evaluate(z), pts


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


def composed(table, not_, gate):
    """gate as its DE_MORGAN entry spelled out: table's AND or XOR, with
    not_ on both operands and on the result as the entry's flags say."""
    base, flip_in, flip_out = DE_MORGAN[gate]

    def fn(a, b):
        if flip_in:
            a, b = not_(a), not_(b)
        out = table[base](a, b)
        return not_(out) if flip_out else out
    return fn


def random_pz(rng, n, ids):
    h = rng.randint(0, 3)
    return PolyLogicalZonotope(
        BinaryVector(n, rng.getrandbits(n)),
        BinaryMatrix(n, tuple(BinaryVector(n, rng.getrandbits(n))
                              for _ in range(h))),
        BinaryMatrix(len(ids), tuple(BinaryVector(len(ids),
                                                  rng.getrandbits(len(ids)))
                                     for _ in range(h))), ids)


def test_derived_gates_are_their_de_morgan_compositions():
    # every algebra's gate table against DE_MORGAN: the logical gates must
    # build the very zonotope of their composition (same center, same
    # columns in the same order), the poly gates its set, and the native
    # ORs of INT_GATES and the set images the same ints and sets
    rng = random.Random(2)
    for _ in range(300):
        n, cols = random_columns(rng)
        other = [rng.getrandbits(n) for _ in range(rng.randint(0, 4))]
        other += [0] * rng.randint(0, 1)
        ids = unique_id(3)  # the two poly operands share a factor
        m = (1 << n) - 1
        wide = n + _BITMAP_WIDTH  # set images on frozensets, not bitmaps
        algebras = [
            (_LZ_GATES, lz_not,
             LogicalZonotope.from_bits(n, rng.getrandbits(n), cols),
             LogicalZonotope.from_bits(n, rng.getrandbits(n), other),
             lambda z: (z.dim, z.cbits, z.gbits)),
            (_PZ_EXACT, pz_not, random_pz(rng, n, ids[:2]),
             random_pz(rng, n, ids[1:]), pz_evaluate),
            (MINK_GATES, pz_not, random_pz(rng, n, ids[:2]),
             random_pz(rng, n, ids[1:]), pz_evaluate),
            ({g: partial(fn, m=m) for g, fn in INT_GATES.items()},
             partial(operator.xor, m), rng.getrandbits(n),
             rng.getrandbits(n), lambda v: v),
        ]
        for width in (n, wide):
            _, not_, gates = _set_ops(width, 2**40)
            algebras.append((gates, not_, *(
                _value_set(width, [rng.getrandbits(width)
                                   for _ in range(rng.randint(1, 6))])
                for _ in range(2)), lambda v: v))
        for table, not_, a, b, key in algebras:
            for gate in Gate:
                want = composed(table, not_, gate)
                for x, y in ((a, b), (b, a)):
                    assert key(table[gate](x, y)) == key(want(x, y)), (
                        gate, x, y)
