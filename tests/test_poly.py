import itertools

import pytest
from hypothesis import given, settings

from logizono import poly
from logizono.binvec import DE_MORGAN, BinaryMatrix, BinaryVector, Gate
from logizono.cases import boolean10_model
from logizono.errors import CapacityError, DimensionError
from logizono.explicit import set_minkowski, set_not
from logizono.model import eval_expr
from logizono.poly import (PolyLogicalZonotope, eval_at, merge_id,
                           pz_compact, pz_contains, pz_enclose_points,
                           pz_encode_points, pz_evaluate, pz_exact_and,
                           pz_exact_nand, pz_exact_nor, pz_exact_or,
                           pz_exact_xnor, pz_exact_xor, pz_mink_and,
                           pz_mink_nand, pz_mink_nor, pz_mink_or,
                           pz_mink_xnor, pz_mink_xor, pz_not, pz_simplify,
                           unique_id, value_table)
from logizono.reach import reach

from conftest import poly_zonotopes, pz_pairs

MINK = {Gate.XOR: pz_mink_xor, Gate.AND: pz_mink_and, Gate.OR: pz_mink_or,
        Gate.XNOR: pz_mink_xnor, Gate.NAND: pz_mink_nand,
        Gate.NOR: pz_mink_nor}
EXACT = {Gate.XOR: pz_exact_xor, Gate.AND: pz_exact_and,
         Gate.OR: pz_exact_or, Gate.XNOR: pz_exact_xnor,
         Gate.NAND: pz_exact_nand, Gate.NOR: pz_exact_nor}
SCALAR = {
    Gate.XOR: lambda a, b: a ^ b,
    Gate.AND: lambda a, b: a & b,
    Gate.OR: lambda a, b: a | b,
    Gate.XNOR: lambda a, b: ~(a ^ b),
    Gate.NAND: lambda a, b: ~(a & b),
    Gate.NOR: lambda a, b: ~(a | b),
}


def bv(bits):
    return BinaryVector.from_bits(bits)


def mat(dim, *cols):
    return BinaryMatrix(dim, tuple(bv(c) for c in cols))


def example_zonotope():
    """Three-dimensional zonotope with two generators over two factors
    whose evaluation is exactly three points."""
    return PolyLogicalZonotope(
        bv([0, 1, 0]), mat(3, [0, 1, 1], [1, 1, 1]),
        mat(2, [1, 0], [1, 1]), (1001, 1002))


def test_worked_example_evaluates_to_three_points():
    got = pz_evaluate(example_zonotope())
    assert got.points == frozenset(
        {bv([0, 1, 0]), bv([0, 0, 1]), bv([1, 1, 0])})


def test_invariants_enforced():
    with pytest.raises(DimensionError):
        PolyLogicalZonotope(bv([0, 0]), mat(1, [1]), mat(0), ())
    with pytest.raises(DimensionError):
        PolyLogicalZonotope(bv([0]), mat(1, [1]), mat(0), ())
    with pytest.raises(DimensionError):
        PolyLogicalZonotope(bv([0]), mat(1, [1]), mat(2, [1, 0]), (1,))
    with pytest.raises(ValueError):
        PolyLogicalZonotope(bv([0]), mat(1, [1], [1]),
                            mat(2, [1, 0], [0, 1]), (7, 7))


def test_unique_ids_are_fresh_and_increasing():
    a = unique_id(3)
    b = unique_id(2)
    assert len(set(a + b)) == 5
    assert list(a) == sorted(a) and max(a) < min(b)
    assert unique_id(0) == ()


def test_merge_id_layout():
    a = example_zonotope()
    b = PolyLogicalZonotope(
        bv([1, 0, 0]), mat(3, [1, 0, 0], [0, 0, 1]),
        mat(2, [0, 1], [1, 1]), (1001, 1003))
    a2, b2 = merge_id(a, b)
    assert a2.id == b2.id == (1001, 1002, 1003)
    assert list(a2.E.columns) == [bv([1, 0, 0]), bv([1, 1, 0])]
    assert list(b2.E.columns) == [bv([0, 0, 1]), bv([1, 0, 1])]
    # every joint assignment evaluates as before
    for bits in itertools.product((0, 1), repeat=3):
        asg = dict(zip(a2.id, bits))
        assert eval_at(a2, asg) == eval_at(a, {i: asg[i] for i in a.id})
        assert eval_at(b2, asg) == eval_at(b, {i: asg[i] for i in b.id})


@given(pz_pairs())
@settings(max_examples=60)
def test_minkowski_gates_are_pointwise_images(pair):
    a, b = pair
    sa, sb = pz_evaluate(a), pz_evaluate(b)
    for gate, fn in MINK.items():
        got = fn(a, b)
        assert got.p == a.p + b.p
        assert not set(got.id) & (set(a.id) | set(b.id))
        assert pz_evaluate(got).points == set_minkowski(sa, sb, gate).points


@given(poly_zonotopes())
@settings(max_examples=60)
def test_minkowski_gates_rename_a_shared_operand(z):
    # unlike pz_exact_xor(z, z), both operands range over all of S
    s = pz_evaluate(z)
    for gate, fn in MINK.items():
        assert pz_evaluate(fn(z, z)) == set_minkowski(s, s, gate)


@given(pz_pairs())
@settings(max_examples=60)
def test_exact_gates_respect_shared_factors(pair):
    a, b = pair
    am, bm = merge_id(a, b)
    for gate, fn in EXACT.items():
        got = fn(am, bm)
        assert set(got.id) == set(am.id)
        for bits in itertools.product((0, 1), repeat=len(am.id)):
            asg = dict(zip(am.id, bits))
            va = eval_at(am, asg).bits
            vb = eval_at(bm, asg).bits
            mask = (1 << a.dim) - 1
            assert eval_at(got, asg).bits == SCALAR[gate](va, vb) & mask


@given(poly_zonotopes())
def test_self_cancellation(z):
    # with shared factors x ^ x collapses to zero and x & x to x
    zero = pz_evaluate(pz_exact_xor(z, z))
    assert zero.points == frozenset({BinaryVector(z.dim, 0)})
    assert pz_evaluate(pz_exact_and(z, z)).points == pz_evaluate(z).points


def test_self_xor_compacts_to_nothing():
    z = example_zonotope()
    out = pz_compact(pz_exact_xor(z, z))
    assert out.h == 0 and out.p == 0
    # the independent version of the same expression keeps both points
    both = pz_mink_xor(z, z)
    assert BinaryVector(3, 0) in pz_evaluate(both).points
    assert len(pz_evaluate(both)) > 1


@given(poly_zonotopes())
def test_not_exact(z):
    assert pz_evaluate(pz_not(z)).points == set_not(pz_evaluate(z)).points


def test_enclose_points():
    pts = [bv([0, 0]), bv([1, 1]), bv([1, 0])]
    z = pz_enclose_points(pts)
    assert z.p == len(pts) - 1
    got = pz_evaluate(z)
    for p in pts:
        assert p in got.points
        assert pz_contains(z, p)


def test_encode_points_is_exact():
    for m in (1, 2, 3, 5, 8):
        pts = {BinaryVector(4, (7 * i + 3) % 16) for i in range(m)}
        z = pz_encode_points(pts)
        assert z.p == max(len(pts) - 1, 0).bit_length()
        assert pz_evaluate(z).points == frozenset(pts)


def test_unique_id_rejects_a_negative_count():
    with pytest.raises(ValueError, match="count must be >= 0"):
        unique_id(-1)
    assert unique_id(0) == ()


def test_point_constructors_reject_mixed_widths():
    # in either order: encoding sorts the points by their bits, and once
    # took a narrower point's bits into a wider zonotope silently
    pts = [BinaryVector(3, 1), BinaryVector(2, 2)]
    for build in (pz_encode_points, pz_enclose_points):
        for order in (pts, pts[::-1]):
            with pytest.raises(DimensionError):
                build(order)


@pytest.mark.parametrize("base", [Gate.AND, Gate.XOR])
def test_derived_gates_call_the_base_at_call_time(monkeypatch, base):
    # benchmarks/spans.py replaces poly.pz_exact_and to count its calls: a
    # derived gate holding a direct reference to the original escapes it
    name = "pz_exact_" + base.value
    original = getattr(poly, name)
    calls = []

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(poly, name, counted)
    z = example_zonotope()
    derived = [fn for gate, fn in (*EXACT.items(), *MINK.items())
               if DE_MORGAN[gate][0] is base and fn is not original]
    assert len(derived) == (7 if base is Gate.AND else 3)
    for fn in derived:
        calls.clear()
        fn(z, z)
        assert len(calls) == 1, fn


@given(poly_zonotopes(max_p=3))
def test_value_table_matches_eval_at(z):
    table = value_table(z)
    for i in range(1 << z.p):
        asg = {ident: (i >> k) & 1 for k, ident in enumerate(z.id)}
        assert table[i] == eval_at(z, asg).bits


@given(poly_zonotopes())
def test_compact_preserves_every_assignment(z):
    out = pz_compact(z)
    assert out.h <= z.h
    for bits in itertools.product((0, 1), repeat=z.p):
        asg = dict(zip(z.id, bits))
        sub = {i: asg[i] for i in out.id}
        assert eval_at(out, sub) == eval_at(z, asg)


@given(poly_zonotopes())
def test_simplify_preserves_set(z):
    out = pz_simplify(z)
    assert out.h <= z.h
    assert pz_evaluate(out).points == pz_evaluate(z).points


@given(poly_zonotopes())
def test_from_bits_of_public_ints_is_the_same_zonotope(z):
    back = PolyLogicalZonotope.from_bits(z.dim, z.cbits, list(z.gbits),
                                         list(z.ebits), list(z.id))
    assert back == z and hash(back) == hash(z)
    assert (back.c, back.G, back.E) == (z.c, z.G, z.E)
    assert (back.h, back.p) == (z.h, z.p)


@pytest.mark.parametrize("mode", ["exact", "minkowski"])
def test_engine_operations_build_no_vectors(built, mode):
    # zonotopes are held as packed ints: the operations build no
    # BinaryVector, and only the public constructor, a read of .c, .G or
    # .E, and eval_at's result do
    model = boolean10_model(0)
    env = {v.name: pz_encode_points(v.init) for v in model.state_vars}
    env |= {v.name: pz_encode_points(model.input_set(v, 0))
            for v in model.input_vars}
    built[0] = 0
    for name in model.order:
        env[name + "'"] = eval_expr(model.updates[name], env, "poly", mode)
    assert built[0] == 0
    a, b = merge_id(env["B1'"], env["B2"])
    both = pz_compact(pz_exact_xor(a, b))
    table = value_table(both, a.id)
    sets = {name: pz_evaluate(env[name + "'"]) for name in model.order}
    assert built[0] == 0
    # each update's set is the oracle's first step
    truth = reach(model, 1, "explicit").record(1).var_sets
    assert sets == truth
    assert set(table) == pz_evaluate(pz_exact_xor(a, b)).bits


def test_json_round_trip():
    z = example_zonotope()
    doc = z.to_json()
    back = PolyLogicalZonotope.from_json(doc)
    assert (back.c, back.G, back.E) == (z.c, z.G, z.E)
    assert doc["id"] == [1, 2]
    assert pz_evaluate(back).points == pz_evaluate(z).points


def test_json_ids_do_not_depend_on_allocation():
    pts = [bv([0, 0, 1]), bv([1, 1, 0]), bv([1, 0, 1])]
    first = pz_encode_points(pts)
    unique_id(50)
    second = pz_encode_points(pts)
    assert first.id != second.id
    assert first.to_json() == second.to_json()
    back = PolyLogicalZonotope.from_json(second.to_json())
    assert pz_evaluate(back).points == frozenset(pts)


def test_json_documents_get_fresh_factor_ids():
    # to_json numbers every document's ids from 1, and the process holds
    # ids of its own: neither may turn into a factor shared by accident
    pair = [bv([0, 0]), bv([1, 1])]
    a, b = (PolyLogicalZonotope.from_json(pz_encode_points(pair).to_json())
            for _ in range(2))
    assert pz_evaluate(pz_exact_xor(a, b)).points == frozenset(pair)
    bit = pz_encode_points([bv([0]), bv([1])])
    doc = {"c": "0", "G": ["1"], "E": ["1"], "id": list(bit.id)}
    both = pz_exact_xor(PolyLogicalZonotope.from_json(doc), bit)
    assert pz_evaluate(both).points == frozenset({bv([0]), bv([1])})


def test_singleton():
    z = PolyLogicalZonotope.singleton(bv([1, 0, 1]))
    assert z.h == 0 and z.p == 0
    assert pz_evaluate(z).points == frozenset({bv([1, 0, 1])})


def test_factor_cap():
    pts = [BinaryVector(3, b) for b in range(8)]
    z = pz_enclose_points(pts)
    with pytest.raises(CapacityError):
        pz_evaluate(z, cap=3)


def test_cap_counts_value_table_entries():
    z = pz_encode_points([BinaryVector(2, b) for b in range(4)])
    assert z.p == 2
    assert len(pz_evaluate(z, cap=4)) == 4
    with pytest.raises(CapacityError) as err:
        pz_evaluate(z, cap=3)
    assert "needs 4 elements, over the cap of 3" in str(err.value)
