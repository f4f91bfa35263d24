import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logizono.binvec import BinaryVector, Gate, bv_op
from logizono.cases import intersection_model
from logizono.errors import CapacityError, DimensionError
from logizono.explicit import ExplicitSet, set_minkowski, set_not, split_joint
from logizono.model import eval_concrete, next_state_refs, parse_model
from logizono.reach import reach

from conftest import random_lane_model


def eset(*texts):
    return ExplicitSet.from_strings(texts)


def test_xor_with_zero_identity():
    assert set_minkowski(eset("0"), eset("0", "1"), Gate.XOR).points == \
        eset("0", "1").points


def test_and_with_one_identity():
    assert set_minkowski(eset("0", "1"), eset("1"), Gate.AND).points == \
        eset("0", "1").points


def test_pairwise_image():
    got = set_minkowski(eset("01", "10"), eset("11"), Gate.XOR)
    assert got.points == eset("10", "01").points


def test_not_pointwise():
    assert set_not(eset("0", "1")).points == eset("1", "0").points
    assert set_not(eset("00")).points == eset("11").points


def test_int_backed_set_equals_vector_built_set():
    vectors = ExplicitSet(3, frozenset(BinaryVector(3, b) for b in (5, 0, 3)))
    ints = ExplicitSet.from_bits(3, [3, 5, 0])
    assert ints == vectors and hash(ints) == hash(vectors)
    assert {vectors: "found"}[ints] == "found"
    assert ints.bits == vectors.bits == frozenset({0, 3, 5})
    assert ints != ExplicitSet.from_bits(4, [0, 3, 5])
    assert ints != ExplicitSet.from_bits(3, [0, 3])


def test_int_backed_set_len_membership_and_order():
    vectors = ExplicitSet(3, frozenset(BinaryVector(3, b) for b in (5, 0, 3)))
    ints = ExplicitSet.from_bits(3, [3, 5, 0])
    assert len(ints) == len(vectors) == 3
    for b in range(8):
        assert (BinaryVector(3, b) in ints) == (BinaryVector(3, b) in vectors)
    assert BinaryVector(4, 5) not in ints
    assert "101" not in ints
    assert list(ints) == list(vectors) == [BinaryVector(3, b)
                                          for b in (0, 3, 5)]
    assert ints.to_strings() == ["000", "110", "101"]


def test_points_built_on_first_read_then_cached(built):
    s = ExplicitSet.from_bits(4, range(10))
    assert built[0] == 0
    first = s.points
    assert built[0] == 10
    assert s.points is first
    assert built[0] == 10
    assert first == frozenset(BinaryVector(4, b) for b in range(10))


def test_from_bits_keeps_a_given_frozenset():
    # the exact lane builds each step's frozenset once and hands it over
    bits = frozenset({0, 3, 5})
    assert ExplicitSet.from_bits(3, bits).bits is bits
    listed = ExplicitSet.from_bits(3, [0, 3, 5])
    assert isinstance(listed.bits, frozenset) and listed.bits == bits


def test_points_check_each_value_against_the_width():
    s = ExplicitSet.from_bits(2, [1, 4])
    with pytest.raises(ValueError, match="outside the declared dimension"):
        s.points


def test_public_constructor_still_validates():
    with pytest.raises(DimensionError):
        ExplicitSet(2, frozenset({BinaryVector(2, 1), BinaryVector(3, 1)}))
    for make in (lambda: ExplicitSet(2, frozenset()),
                 lambda: ExplicitSet.from_bits(2, [])):
        with pytest.raises(ValueError, match="must be non-empty"):
            make()


@pytest.mark.parametrize("make", [ExplicitSet.from_points,
                                  ExplicitSet.from_strings])
def test_empty_input_is_rejected_by_name(make):
    with pytest.raises(ValueError, match="explicit set must be non-empty"):
        make([])


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        set_minkowski(eset("0"), eset("00"), Gate.XOR)


@st.composite
def small_sets(draw):
    n = draw(st.integers(1, 3))
    pts = draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1,
                       max_size=1 << n))
    return ExplicitSet(n, frozenset(BinaryVector(n, b) for b in pts))


@given(small_sets(), small_sets())
def test_image_matches_reenumeration(a, b):
    if a.dim != b.dim:
        return
    for gate in Gate:
        got = set_minkowski(a, b, gate)
        want = {bv_op(x, y, gate) for x in a.points for y in b.points}
        assert got.points == frozenset(want)
        assert len(got) <= len(a) * len(b)


@given(small_sets())
def test_not_involution(s):
    assert set_not(set_not(s)).points == s.points


def oracle_sets(model, steps, **kw):
    """[R_0, ..., R_steps], the joint sets of the explicit lane's records."""
    return [r.joint_set for r in reach(model, steps, "explicit", **kw).records]


def test_reach_identity_model():
    model = parse_model({
        "vars": [{"name": "x", "role": "state", "dim": 2,
                  "init": ["00", "11"]}],
        "updates": {"x": "x"},
    })
    sets = oracle_sets(model, 4)
    for s in sets:
        assert s.points == eset("00", "11").points


def test_reach_period_two_flip():
    model = parse_model({
        "vars": [{"name": "x", "role": "state", "dim": 2, "init": ["00"]}],
        "updates": {"x": "!x"},
    })
    sets = oracle_sets(model, 2)
    assert sets[1].points == eset("11").points
    assert sets[2].points == eset("00").points


def test_reach_joint_follows_declaration_order():
    # updates run b first, but the joint vector is a then b as declared
    model = parse_model({
        "vars": [{"name": "a", "role": "state", "dim": 1, "init": ["0"]},
                 {"name": "b", "role": "state", "dim": 2, "init": ["01"]}],
        "updates": {"a": "!a", "b": "b"},
        "order": ["b", "a"],
    })
    for broken in (False, True):
        sets = oracle_sets(model, 2, break_next_state_deps=broken)
        assert [s.to_strings() for s in sets] == [["001"], ["101"], ["001"]]


def test_reach_singletons_simulate_trajectory():
    model = parse_model({
        "vars": [{"name": "x", "role": "state", "dim": 1, "init": ["1"]},
                 {"name": "u", "role": "input", "dim": 1, "set": ["1"]}],
        "updates": {"x": "x ^ u"},
    })
    sets = oracle_sets(model, 3)
    assert [len(s) for s in sets] == [1, 1, 1, 1]
    assert sets[1].points == eset("0").points


def test_reach_point_cap():
    model = parse_model({
        "vars": [{"name": "x", "role": "state", "dim": 3,
                  "init": ["000"]},
                 {"name": "u", "role": "input", "dim": 3,
                  "set": ["000", "001", "010", "100", "111"]}],
        "updates": {"x": "x ^ u"},
    })
    with pytest.raises(CapacityError) as err:
        reach(model, 3, "explicit", cap=2)
    assert err.value.step == 1


def reference_reach(model, steps, break_deps):
    """The two-pass oracle walk, kept as a reference: in break mode a first
    pass over every (state, input) sample collects each variable's next
    values, and a second pass evaluates every update with the primed
    references drawn independently from those values."""
    def joint(vecs):
        bits = off = 0
        for v in vecs:
            bits |= v.bits << off
            off += v.dim
        return BinaryVector(off, bits)

    def samples(reached, k):
        input_sets = [model.input_set(v, k) for v in model.input_vars]
        for state in reached:
            for sample in itertools.product(*input_sets):
                env = split_joint(model, state)
                env.update((v.name, val)
                           for v, val in zip(model.input_vars, sample))
                yield env

    axes = sorted({r for name in model.order
                   for r in next_state_refs(model.updates[name])})
    reached = {joint(vecs) for vecs in
               itertools.product(*[v.init for v in model.state_vars])}
    result = [reached]
    for k in range(steps):
        nexts = {name: set() for name in model.order}
        seen = set()
        for env in samples(reached, k):
            for name in model.order:
                env[name + "'"] = eval_concrete(model.updates[name], env)
                nexts[name].add(env[name + "'"])
            seen.add(joint([env[v.name + "'"] for v in model.state_vars]))
        if break_deps:
            seen = set()
            for env in samples(reached, k):
                for combo in itertools.product(*[nexts[a] for a in axes]):
                    env2 = dict(env)
                    env2.update((a + "'", val) for a, val in zip(axes, combo))
                    seen.add(joint([eval_concrete(model.updates[v.name], env2)
                                    for v in model.state_vars]))
        reached = seen
        result.append(reached)
    return result


@pytest.mark.parametrize("broken", [False, True])
def test_oracle_matches_two_pass_reference(broken):
    rng = random.Random(31)
    cases = [random_lane_model(rng) for _ in range(100)]
    cases.append((intersection_model(), 2))
    for model, horizon in cases:
        want = reference_reach(model, horizon, broken)
        got = oracle_sets(model, horizon, break_next_state_deps=broken)
        assert [s.points for s in got] == want
