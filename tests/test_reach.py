import importlib
import json
import math
import random
from types import SimpleNamespace

import pytest

from logizono import cli, explicit as ex, logical as lz
from logizono.binvec import BinaryMatrix, BinaryVector, Gate
from logizono.cases import (boolean10_model, boolean_document,
                             intersection_model)
from logizono.errors import DEFAULT_CAP, CapacityError, ModelError
from logizono.model import (ALGEBRAS, MODES, Const, InputVar, Model, Not,
                            VarRef, eval_expr, parse_expr, parse_model)
from logizono.poly import PolyLogicalZonotope, pz_encode_points, unique_id
from logizono.reach import (_exact_step, _lane_bytes, _set_ops, _value_set,
                            _values, joint_size, poly_joint_set, reach,
                            reach_report)

from conftest import FUNCS, GATES, random_lane_model


# the package's reach attribute is the function; this is its module
reach_module = importlib.import_module("logizono.reach")


def bv(text):
    return BinaryVector.from_string(text)


def identity_model():
    return parse_model({
        "vars": [{"name": "x", "role": "state", "dim": 2,
                  "init": ["00", "11"]}],
        "updates": {"x": "x"},
    })


def random_model(rng, n_state=2, dim=2):
    """Small random model with one free input per state variable."""
    doc = {"vars": [], "updates": {}, "order": []}
    names = [f"s{i}" for i in range(n_state)]
    all_refs = names + [f"u{i}" for i in range(n_state)]
    for i, name in enumerate(names):
        init = sorted({format(rng.getrandbits(dim), f"0{dim}b")
                       for _ in range(rng.randint(1, 2))})
        doc["vars"].append({"name": name, "role": "state", "dim": dim,
                            "init": init})
        pool = sorted({format(rng.getrandbits(dim), f"0{dim}b")
                       for _ in range(rng.randint(1, 2))})
        doc["vars"].append({"name": f"u{i}", "role": "input", "dim": dim,
                            "set": pool})
    for name in names:
        a, b, c = (rng.choice(all_refs) for _ in range(3))
        if rng.random() < 0.5:
            expr = f"{a} {rng.choice(GATES)} ({b} {rng.choice(GATES)} {c})"
        else:
            expr = f"{rng.choice(FUNCS)}({a}, !{b})"
        doc["updates"][name] = expr
        doc["order"].append(name)
    return parse_model(doc)


def test_identity_model_all_lanes():
    model = identity_model()
    for algebra, mode in (("explicit", "minkowski"), ("logical", "minkowski"),
                          ("poly", "minkowski"), ("poly", "exact")):
        res = reach(model, 3, algebra, mode)
        assert len(res.records) == 4
        for rec in res.records:
            assert rec.var_sets["x"].points == frozenset({bv("00"), bv("11")})
            assert rec.joint_size == 2


def test_fixpoint_shortcut_preserves_reported_values():
    model = identity_model()
    res = reach(model, 50, "logical")
    assert res.fixpoint_at >= 1
    assert res.sizes() == [2] * 51


def test_step_counting():
    model = identity_model()
    res = reach(model, [1, 3], "poly", "exact")
    assert res.record(3).step == 3
    with pytest.raises(IndexError):
        res.record(4)


def test_argument_validation():
    model = identity_model()
    with pytest.raises(ModelError):
        reach(model, 1, "fuzzy")
    with pytest.raises(ModelError):
        reach(model, 1, "logical", "exact")
    with pytest.raises(ModelError):
        reach(model, 1, "poly", break_next_state_deps=True)
    for algebra in ("poly", "logical", "explicit"):
        with pytest.raises(ModelError, match="unknown mode 'fuzzy'"):
            reach(model, 1, algebra, "fuzzy")


@pytest.mark.parametrize("algebra, mode, broken, message", [
    ("fuzzy", "minkowski", False, "unknown algebra 'fuzzy'"),
    ("logical", "exact", False, "exact mode requires the poly algebra"),
    ("explicit", "exact", False, "exact mode requires the poly algebra"),
    ("poly", "fuzzy", False, "unknown mode 'fuzzy'"),
    ("logical", "minkowski", True,
     "break-next-state-deps applies to the explicit oracle only"),
    ("poly", "minkowski", True,
     "break-next-state-deps applies to the explicit oracle only"),
    ("poly", "exact", True,
     "break-next-state-deps applies to the explicit oracle only"),
])
def test_one_algebra_check(capsys, algebra, mode, broken, message):
    # reach, eval_expr and the reach command reject a bad lane alike
    with pytest.raises(ModelError) as err:
        reach(identity_model(), 1, algebra, mode,
              break_next_state_deps=broken)
    assert str(err.value) == message
    if not broken:  # eval_expr has no steps, so no dependencies to break
        with pytest.raises(ModelError) as err:
            eval_expr(parse_expr("x"), {}, algebra, mode)
        assert str(err.value) == message
    argv = ["reach", "--model", "intersection", "--algebra", algebra,
            "--mode", mode] + ["--break-next-state-deps"] * broken
    if algebra in ALGEBRAS and mode in MODES:
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        # a name outside the tuples is not among the command's choices
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == cli.EXIT_USAGE
        assert "invalid choice: 'fuzzy'" in capsys.readouterr().err


def test_random_models_soundness_and_exactness():
    rng = random.Random(7)
    for trial in range(12):
        model = random_model(rng)
        oracle = reach(model, 3, "explicit")
        exact = reach(model, 3, "poly", "exact")
        mink = reach(model, 3, "poly", "minkowski")
        logical = reach(model, 3, "logical", cap=2**30)
        for k in range(4):
            truth = oracle.record(k)
            # per-variable sets: exact matches, the others contain
            for name, s in truth.var_sets.items():
                assert exact.record(k).var_sets[name].points == s.points
                assert s.points <= mink.record(k).var_sets[name].points
                assert s.points <= logical.record(k).var_sets[name].points
            # joint: exact poly tracks the oracle, everything else bounds it
            assert exact.record(k).joint_size == truth.joint_size
            assert exact.record(k).joint_set.points == truth.joint_set.points
            assert mink.record(k).joint_size >= truth.joint_size
            assert logical.record(k).joint_size >= truth.joint_size


def test_next_state_reference_changes_result():
    doc = {
        "vars": [
            {"name": "a", "role": "state", "dim": 1, "init": ["0", "1"]},
            {"name": "b", "role": "state", "dim": 1, "init": ["0"]},
        ],
        "updates": {"a": "!a", "b": "a'"},
        "order": ["a", "b"],
    }
    model = parse_model(doc)
    res = reach(model, 1, "explicit")
    # b copies the freshly computed a, so their joint stays perfectly
    # correlated: two states, not four
    assert res.record(1).joint_size == 2
    broken = reach(model, 1, "explicit", break_next_state_deps=True)
    assert broken.record(1).joint_size == 4


def test_per_step_inputs_consumed_in_order():
    doc = {
        "vars": [
            {"name": "x", "role": "state", "dim": 1, "init": ["0"]},
            {"name": "u", "role": "input", "dim": 1,
             "steps": [["1"], ["0"]]},
        ],
        "updates": {"x": "x ^ u"},
    }
    model = parse_model(doc)
    res = reach(model, 2, "poly", "exact")
    assert [r.var_sets["x"].points for r in res.records] == [
        frozenset({bv("0")}), frozenset({bv("1")}), frozenset({bv("1")})]


def test_joint_size_components():
    a = pz_encode_points([bv("0"), bv("1")])
    b = pz_encode_points([bv("0"), bv("1")])
    state = {"a": a, "b": b}
    # distinct factor vectors multiply
    assert joint_size(state) == 4
    # a shared factor vector correlates the variables
    (ident,) = unique_id(1)
    same = PolyLogicalZonotope(bv("0"), BinaryMatrix(1, (bv("1"),)),
                               BinaryMatrix(1, (bv("1"),)), (ident,))
    corr = {"a": same, "b": same}
    assert joint_size(corr) == 2
    assert poly_joint_set(corr).points == frozenset({bv("00"), bv("11")})


def test_joint_size_cap_counts_table_entries():
    # three shared factors: a value table of 8 entries, 8 distinct points
    z = pz_encode_points([BinaryVector(3, b) for b in range(8)])
    state = {"a": z, "b": z}
    assert joint_size(state, cap=8) == 8
    with pytest.raises(CapacityError) as err:
        joint_size(state, cap=7)
    assert "needs 8 elements" in str(err.value)


def test_logical_lane_checks_cap_before_enumerating():
    dim = 20
    init = ["0" * dim] + ["0" * i + "1" + "0" * (dim - 1 - i)
                          for i in range(dim)]
    model = parse_model({
        "vars": [{"name": "x", "role": "state", "dim": dim, "init": init}],
        "updates": {"x": "x"},
    })
    # the lane holds a zonotope of 20 generators and never lists its
    # points, so the run passes the cap; reading var_sets lists them
    got = reach(model, 0, "logical", cap=10)
    assert got.sizes() == [2**dim]
    with pytest.raises(CapacityError) as err:
        got.record(0).var_sets["x"]
    assert str(err.value) == \
        f"set of x at step 0 needs {2**dim} elements, over the cap of 10"
    # x = x is a fixpoint at step 1: the records copied past it share its
    # var_sets, and their error names the fixpoint's step
    got = reach(model, 3, "logical", cap=10)
    assert got.fixpoint_at == 1
    with pytest.raises(CapacityError) as err:
        got.record(3).var_sets["x"]
    assert err.value.step == 1


def test_var_sets_split_one_variable_per_read():
    # x holds 2 values under a cap of 10; y's zonotope of 20 generators
    # holds 2^20, so only reading y meets the cap
    wide = ["0" * 20] + ["0" * i + "1" + "0" * (19 - i) for i in range(20)]
    model = parse_model({
        "vars": [{"name": "y", "role": "state", "dim": 20, "init": wide},
                 {"name": "x", "role": "state", "dim": 2,
                  "init": ["01", "10"]}],
        "updates": {"x": "x", "y": "y"},
    })
    var_sets = reach(model, 1, "logical", cap=10).record(1).var_sets
    assert list(var_sets) == ["y", "x"] and len(var_sets) == 2
    assert "x" in var_sets and "z" not in var_sets
    assert var_sets["x"].to_strings() == ["10", "01"]
    with pytest.raises(KeyError):
        var_sets["z"]
    with pytest.raises(CapacityError) as err:
        var_sets["y"]
    assert err.value.step == 1
    assert str(err.value).startswith("set of y at step 1 needs ")
    # x is kept from its first read
    assert var_sets["x"] is var_sets["x"]


def test_logical_lane_runs_wide_models_under_the_default_cap():
    # three coupled 256-bit maps: the joint sizes reach 2^621, and only
    # listing a variable's set meets the cap
    got = reach(parse_model(boolean_document(0, 256)), 8, "logical")
    assert [s.bit_length() - 1 for s in got.sizes()] == [
        3, 14, 51, 176, 474, 575, 595, 621, 612]
    assert all(s & (s - 1) == 0 for s in got.sizes())
    # reading a variable lists that variable only
    with pytest.raises(CapacityError) as err:
        got.record(8).var_sets["B2"]
    assert err.value.step == 8
    assert str(err.value).startswith("set of B2 at step 8 needs ")
    assert str(err.value).endswith(f"over the cap of {DEFAULT_CAP}")
    # 21 bits: a variable's 2^21 points once raised at step 4
    narrow = reach(parse_model(boolean_document(0, 21)), 8, "logical")
    assert len(narrow.records) == 9 and narrow.fixpoint_at == -1
    assert narrow.sizes() == reach(parse_model(boolean_document(0, 21)), 8,
                                   "logical", cap=2**80).sizes()


def test_minkowski_gate_checks_cap_before_building():
    # 700 x 700 operand pairs: a frozenset image may hold 490000 values of
    # 30 bits, a bitmap image all 4096 values of 12 bits
    for dim, bound in ((30, 490000), (12, 4096)):
        bits = [format(v, f"0{dim}b")
                for v in random.Random(30).sample(range(2**dim), 1400)]
        model = parse_model({
            "vars": [{"name": "x", "role": "state", "dim": dim,
                      "init": bits[:700]},
                     {"name": "u", "role": "input", "dim": dim,
                      "set": bits[700:]}],
            "updates": {"x": "x ^ u"},
        })
        with pytest.raises(CapacityError) as err:
            reach(model, 1, "poly", "minkowski", cap=1000)
        assert err.value.step == 1
        assert f"gate image at step 1 needs {bound} elements" in str(
            err.value)
    # the gates are built once per width and cap, so the second run reuses
    # the first one's width-10 gates; each run names its own step
    for _ in range(2):
        with pytest.raises(CapacityError) as err:
            reach(boolean10_model(0), 8, "poly", "minkowski", cap=128)
        assert err.value.step == 3
        assert "gate image at step 3 needs 1024 elements" in str(err.value)


def test_minkowski_cap_bounds_frozenset_images_not_pairs():
    # above 12 bits the cap bounds what an image holds, min(a·b, 2^dim),
    # and not the a·b operand pairs it may read: 300 x 300 pairs of 13-bit
    # values pass a cap of 2^13, which bounds sizes and not time
    dim = 13
    values = random.Random(13).sample(range(2**dim), 600)
    xs, us = values[:300], values[300:]
    model = parse_model({
        "vars": [{"name": "x", "role": "state", "dim": dim,
                  "init": [format(v, f"0{dim}b") for v in xs]},
                 {"name": "u", "role": "input", "dim": dim,
                  "set": [format(v, f"0{dim}b") for v in us]}],
        "updates": {"x": "x ^ u"},
    })
    got = reach(model, 1, "poly", "minkowski", cap=2**dim)
    assert got.record(1).var_sets["x"].bits == {x ^ u for x in xs
                                                for u in us}


def test_negative_steps_rejected():
    with pytest.raises(ModelError):
        reach(identity_model(), [1, -1], "logical")
    with pytest.raises(ModelError):
        reach(identity_model(), -1, "poly", "exact")


def test_joint_cap():
    doc = {
        "vars": [
            {"name": "x", "role": "state", "dim": 4,
             "init": [format(i, "04b") for i in range(16)]},
            {"name": "y", "role": "state", "dim": 4,
             "init": [format(i, "04b") for i in range(16)]},
        ],
        "updates": {"x": "x", "y": "y"},
    }
    model = parse_model(doc)
    with pytest.raises(CapacityError):
        reach(model, 1, "poly", "exact", cap=100)
    # 256 joint states, 16 per variable: the lanes that never build the
    # joint set compute nothing here, the Minkowski lane copies each set
    # and the logical lane holds zonotopes, so no cap is met
    for algebra in ("logical", "poly"):
        assert reach(model, 1, algebra, cap=15).sizes() == [256, 256]


def test_reports_round_trip():
    model = identity_model()
    res = reach(model, 3, "logical")
    csv_text = reach_report(res, [0, 1, 3], seed=5)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "# seed=5"
    assert lines[1] == "steps,time_seconds,size"
    assert [ln.split(",")[0] for ln in lines[2:]] == ["0", "1", "3"]
    assert [ln.split(",")[2] for ln in lines[2:]] == ["2", "2", "2"]

    doc = json.loads(reach_report(res, [0, 3], fmt="json", seed=5,
                                  dump_sets=True))
    assert doc["algebra"] == "logical"
    assert doc["rows"][1] == {"steps": 3,
                              "time_seconds": doc["rows"][1]["time_seconds"],
                              "size": 2}
    assert doc["sets"]["3"]["x"] == sorted(["00", "11"])
    with pytest.raises(ModelError, match="unknown format 'xml'"):
        reach_report(res, [0], fmt="xml")


def test_oracle_rows_report_each_steps_own_time(monkeypatch):
    # two clock readings per step from step 1; step k takes k seconds, and
    # step 0, R_0, is recorded as free without reading the clock
    readings = iter([10.0, 11.0, 20.0, 22.0, 30.0, 33.0])
    monkeypatch.setattr(reach_module, "time",
                        SimpleNamespace(perf_counter=readings.__next__))
    res = reach(intersection_model(), 3, "explicit")
    assert [r.wall_time for r in res.records] == [0.0, 1.0, 2.0, 3.0]
    rows = reach_report(res, [1, 2, 3]).splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == [
        "1.000000", "2.000000", "3.000000"]


def test_reach_is_deterministic():
    rng = random.Random(3)
    model = random_model(rng, n_state=2, dim=3)
    a = reach(model, 4, "poly", "exact")
    b = reach(model, 4, "poly", "exact")
    assert a.sizes() == b.sizes()
    for ra, rb in zip(a.records, b.records):
        for name in ra.var_sets:
            assert ra.var_sets[name].points == rb.var_sets[name].points


def oracle_fixpoint(model, oracle):
    if not all(v.constant for v in model.input_vars):
        return -1
    for k in range(1, len(oracle.records)):
        if oracle.record(k).joint_set == oracle.record(k - 1).joint_set:
            return k
    return -1


def assert_exact_lane_matches_oracle(model, horizon):
    oracle = reach(model, horizon, "explicit")
    exact = reach(model, horizon, "poly", "exact")
    assert exact.fixpoint_at == oracle_fixpoint(model, oracle)
    for k in range(horizon + 1):
        truth, got = oracle.record(k), exact.record(k)
        assert got.joint_set == truth.joint_set
        assert got.joint_size == truth.joint_size
        assert got.var_sets == truth.var_sets


@pytest.mark.parametrize("wide", [False, True])
def test_exact_lane_matches_oracle_on_random_models(wide):
    rng = random.Random(11 + wide)
    for _ in range(40 if not wide else 15):
        assert_exact_lane_matches_oracle(*random_lane_model(rng, wide))


# joint widths on both sides of each lane size, with the lane bytes chosen
@pytest.mark.parametrize("width, nbytes", [
    (8, 1), (9, 2), (16, 2), (17, 4), (32, 4), (33, 8), (64, 8), (65, 9)])
def test_exact_lane_matches_oracle_at_lane_boundaries(width, nbytes):
    rng = random.Random(width)
    for _ in range(12):
        model, horizon = random_lane_model(rng, width=width)
        assert _lane_bytes(model) == nbytes
        assert_exact_lane_matches_oracle(model, horizon)


@pytest.mark.parametrize("algebra, mode", [
    ("explicit", "minkowski"), ("poly", "exact"), ("poly", "minkowski"),
    ("logical", "minkowski")])
def test_records_split_var_sets_only_when_read(monkeypatch, algebra, mode):
    model = intersection_model()
    oracle = reach(model, 4, "explicit")
    splits = []

    class Counted(reach_module._Projections):
        def __init__(self, split, model, state, step):
            def counted(model, state):
                splits.append(state)
                return split(model, state)
            super().__init__(counted, model, state, step)

    monkeypatch.setattr(reach_module, "_Projections", Counted)
    horizon = 4 if algebra == "explicit" else 10
    got = reach(model, horizon, algebra, mode)
    assert splits == []
    for k in range(horizon + 1):
        truth, sets = oracle.record(min(k, 4)).var_sets, got.record(k).var_sets
        if algebra == "explicit" or mode == "exact":
            assert sets == truth
        else:
            assert all(truth[n].bits <= sets[n].bits for n in truth)
    if algebra == "explicit":
        # the oracle takes no shortcut: one split per record
        assert got.fixpoint_at == -1 and len(splits) == 5
    else:
        # records 0-2 split once each; record 3 and the records filled in
        # after the fixpoint share a single split
        assert got.fixpoint_at == 3 and len(splits) == 4
        assert got.record(10).var_sets is got.record(3).var_sets


@pytest.mark.parametrize("algebra, mode, broken, lane", [
    ("explicit", "minkowski", False, "explicit"),
    ("explicit", "minkowski", True, "explicit"),
    ("logical", "minkowski", False, "logical"),
    ("poly", "minkowski", False, "minkowski"),
    ("poly", "exact", False, "exact")])
def test_each_lane_steps_once_per_iterated_step(monkeypatch, algebra, mode,
                                                broken, lane):
    # a counter wrapped over a lane entry's step, as a tracer wraps it,
    # sees one call per step the run iterates: every step on the oracle,
    # with or without broken dependencies, and up to the fixpoint on the
    # others (intersection's is step 3, and its twin with per-step inputs
    # has none)
    entry = reach_module._LANES[lane]
    step, calls = entry.step, []

    def counted(model, state, k, cap, **kwargs):
        calls.append(k)
        return step(model, state, k, cap, **kwargs)

    monkeypatch.setattr(entry, "step", counted)
    horizon = 2 if lane == "explicit" else 5
    model = intersection_model()
    for model, fixpoint in ((model, 3),
                            (constant_inputs_per_step(model, horizon), -1)):
        calls.clear()
        got = reach(model, horizon, algebra, mode,
                    break_next_state_deps=broken)
        want = -1 if lane == "explicit" else fixpoint
        assert got.fixpoint_at == want
        assert calls == list(range(horizon if want == -1 else want))


def constant_inputs_per_step(model, horizon):
    """A twin of model whose constant input sets are written out as
    per-step lists, so a run of it never takes the fixpoint shortcut."""
    return Model(model.state_vars, tuple(
        InputVar(v.name, v.dim, per_step=(v.constant,) * horizon)
        if v.constant else v for v in model.input_vars),
        model.updates, model.order)


@pytest.mark.parametrize("algebra, mode", [
    ("poly", "minkowski"), ("logical", "minkowski")])
def test_fixpoint_is_the_first_repeat_of_the_sets(algebra, mode):
    rng = random.Random(41)
    fixpoints = 0
    for _ in range(150):
        model, horizon = random_lane_model(rng)
        got = reach(model, horizon, algebra, mode, cap=2**60)
        twin = reach(constant_inputs_per_step(model, horizon), horizon,
                     algebra, mode, cap=2**60)
        assert twin.fixpoint_at == -1
        want = -1
        if all(v.constant for v in model.input_vars):
            want = next((k for k in range(1, horizon + 1)
                         if twin.record(k).var_sets
                         == twin.record(k - 1).var_sets), -1)
        assert got.fixpoint_at == want
        assert got.sizes() == twin.sizes()
        for a, b in zip(got.records, twin.records):
            assert a.var_sets == b.var_sets
        fixpoints += want >= 0
    assert fixpoints >= 20


@pytest.mark.parametrize("algebra, mode", [
    ("poly", "exact"), ("poly", "minkowski")])
def test_capacity_error_names_the_step(algebra, mode):
    doc = {
        "vars": [
            {"name": "x", "role": "state", "dim": 3, "init": ["000"]},
            {"name": "u", "role": "input", "dim": 3,
             "steps": [["000", "001"], [format(i, "03b") for i in range(8)]]},
        ],
        "updates": {"x": "x ^ u"},
    }
    model = parse_model(doc)
    assert reach(model, 2, algebra, mode, cap=8).sizes() == [1, 2, 8]
    with pytest.raises(CapacityError) as err:
        reach(model, 2, algebra, mode, cap=4)
    assert err.value.step == 2


def assert_exact_lane_raises_at_first_step_over_cap(model, horizon):
    sizes = reach(model, horizon, "poly", "exact", cap=2**40).sizes()
    caps = {c for s in sizes for c in (s - 1, s, s + 1)} | {0, 1}
    for cap in sorted(caps):
        over = [k for k, s in enumerate(sizes) if s > cap]
        if not over:
            assert reach(model, horizon, "poly", "exact", cap=cap).sizes() \
                == sizes
            continue
        with pytest.raises(CapacityError) as err:
            reach(model, horizon, "poly", "exact", cap=cap)
        assert (err.value.what, err.value.step) == ("joint set", over[0])
        # the count is the size at the merge that passed the cap
        assert cap < err.value.count <= sizes[over[0]]


@pytest.mark.parametrize("seed", range(10))
def test_exact_lane_cap_rule_on_boolean10(seed):
    assert_exact_lane_raises_at_first_step_over_cap(boolean10_model(seed), 5)


def test_exact_lane_cap_rule_on_random_models():
    rng = random.Random(23)
    for _ in range(25):
        assert_exact_lane_raises_at_first_step_over_cap(
            *random_lane_model(rng))


def test_exact_step_cap_below_one_combinations_lanes():
    # 16 lanes per input combination against a cap of 4: pending lanes are
    # merged before each further combination, so the step raises only when
    # the set it builds holds more than 4 vectors
    joint = ex.ExplicitSet.from_bits(4, range(16))
    for update, size in (("(x & 0011) ^ u", 4), ("x & u", 4), ("x ^ u", 16)):
        model = parse_model({
            "vars": [
                {"name": "x", "role": "state", "dim": 4,
                 "init": [format(i, "04b") for i in range(16)]},
                {"name": "u", "role": "input", "dim": 4,
                 "set": ["0000", "0001", "0011"]},
            ],
            "updates": {"x": update},
        })
        if size <= 4:
            got = _exact_step(model, joint, 0, 4)
            assert got == _exact_step(model, joint, 0, 2**40)
            assert len(got) == size
        else:
            with pytest.raises(CapacityError) as err:
                _exact_step(model, joint, 0, 4)
            assert err.value.what == "joint set" and err.value.count > 4


def minkowski_image(expr, env):
    """Naive Minkowski evaluation: every operand ranges independently."""
    if isinstance(expr, VarRef):
        return env[expr.key]
    if isinstance(expr, Const):
        return ex.ExplicitSet.singleton(expr.value)
    if isinstance(expr, Not):
        return ex.set_not(minkowski_image(expr.child, env))
    return ex.set_minkowski(minkowski_image(expr.left, env),
                            minkowski_image(expr.right, env), expr.kind)


def assert_minkowski_lane_composes_images(model, horizon):
    mink = reach(model, horizon, "poly", "minkowski", cap=2**60)
    for k in range(horizon):
        env = dict(mink.record(k).var_sets)
        for var in model.input_vars:
            env[var.name] = ex.ExplicitSet.from_points(
                model.input_set(var, k))
        for name in model.order:
            env[name + "'"] = minkowski_image(model.updates[name], env)
        got = mink.record(k + 1)
        assert got.var_sets == {v.name: env[v.name + "'"]
                                for v in model.state_vars}
        assert got.joint_size == math.prod(
            len(s) for s in got.var_sets.values())


def test_minkowski_lane_composes_pointwise_images():
    rng = random.Random(23)
    for _ in range(60):
        assert_minkowski_lane_composes_images(*random_lane_model(rng))


def test_minkowski_lane_across_the_bitmap_width():
    # 3 and 12 bits hold bitmaps, 13 and 40 bits frozensets
    doc = {"vars": [], "updates": {
        "a": "NAND(a, !u3) ^ a",
        "b": "NOR(b, u12) | XNOR(!b, u12)",
        "c": "XNOR(c, u13) & NAND(c, !u13)",
        "d": "NOR(d, u40) ^ XNOR(!d, u40)",
    }}
    rng = random.Random(40)

    def vectors(dim, count):
        return [format(rng.getrandbits(dim), f"0{dim}b")
                for _ in range(count)]

    for name, dim in (("a", 3), ("b", 12), ("c", 13), ("d", 40)):
        doc["vars"] += [
            {"name": name, "role": "state", "dim": dim,
             "init": vectors(dim, 3)},
            {"name": f"u{dim}", "role": "input", "dim": dim,
             "set": vectors(dim, 2)}]
    model = parse_model(doc)
    assert {v.dim for v in model.state_vars} == {3, 12, 13, 40}
    assert_minkowski_lane_composes_images(model, 3)


def gate_operands(rng, width, full):
    """Two operand value lists of unequal size (where the width allows),
    one of them every value of the width when full is set."""
    space = 1 << width
    sizes = [rng.randint(1, min(space, 4 if full else 48)) for _ in range(2)]
    if full:
        sizes[rng.randrange(2)] = space
    if sizes[0] == sizes[1] > 1:
        sizes[1] -= 1
    return [rng.sample(range(space), n) for n in sizes]


# bitmaps up to 12 bits, frozensets at 13 and 30
@pytest.mark.parametrize("width", [*range(1, 14), 30])
def test_set_gates_match_oracle_images(width):
    rng = random.Random(width)
    m = (1 << width) - 1
    _, not_, gates = _set_ops(width, 2**40)
    saturated = 0
    operands = [gate_operands(rng, width, width <= 13 and trial == 0)
                for trial in range(6)]
    # the saturation boundary up to 13 bits: both operands the values whose
    # top bit is 0, their sizes adding up to 2^width, then one more value
    # in the second; the oracle enumerates their pairs up to 7 bits
    low = list(range(1 << width - 1)) if width <= 13 else []
    more = low + [m]
    if width <= 7:
        operands += [(low, low), (low, more)]
    for a, b in operands:
        for x, y in ((a, b), (b, a)):
            ex_x = ex.ExplicitSet.from_bits(width, x)
            assert set(_values(not_(_value_set(width, x)))) == \
                ex.set_not(ex_x).bits
            for gate in Gate:
                got = set(_values(gates[gate](_value_set(width, x),
                                              _value_set(width, y))))
                want = ex.set_minkowski(ex_x,
                                        ex.ExplicitSet.from_bits(width, y),
                                        gate)
                assert got == want.bits, (gate, x, y)
                saturated += len(got) == m + 1
    # XOR and XNOR with a full operand always fill the image
    assert saturated >= 4 if width <= 13 else saturated == 0
    if width > 13:
        return
    # on the boundary the XOR image is the first operand and the XNOR
    # image its complement, neither full; one more value fills both
    high = {x ^ m for x in low}
    full = set(range(m + 1))
    for x, y, xor, xnor in ((low, low, set(low), high),
                            (low, more, full, full), (more, low, full, full)):
        x, y = _value_set(width, x), _value_set(width, y)
        assert set(_values(gates[Gate.XOR](x, y))) == xor
        assert set(_values(gates[Gate.XNOR](x, y))) == xnor
    assert set(_values(not_(_value_set(width, low)))) == high


class CountingValues:
    """A sized iterable of ints that counts the values read from it."""

    def __init__(self, values):
        self.values = list(values)
        self.read = 0

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        for v in self.values:
            self.read += 1
            yield v


def test_set_gate_image_stops_once_full(monkeypatch):
    m = (1 << 13) - 1
    full = frozenset(range(m + 1))
    gates = _set_ops(13, 2**40)[2]
    for order in (lambda x, y: (x, y), lambda x, y: (y, x)):
        small = CountingValues([3, 5, 9])
        assert gates[Gate.XOR](*order(small, full)) == full
        assert small.read == 0
        # the operands' sizes add up to more than 2^13, so XNOR reads
        # neither operand either
        wide = CountingValues(range(m + 1))
        assert gates[Gate.XNOR](*order(frozenset({3, 5, 9}), wide)) == full
        assert wide.read == 0
    # on a bitmap, XOR with a full operand is decided by the counts alone:
    # gates built on a counting move table look none of its entries up
    lookups = []
    table = reach_module._moving(10)

    class CountedTable:
        def __getitem__(self, y):
            lookups.append(y)
            return table[y]

    monkeypatch.setattr(reach_module, "_moving", lambda dim: CountedTable())
    reach_module._set_ops.cache_clear()
    try:
        gates = _set_ops(10, 2**40)[2]
        small, full = _value_set(10, [3, 5, 9]), (1 << 2**10) - 1
        for order in (lambda x, y: (x, y), lambda x, y: (y, x)):
            assert gates[Gate.XOR](*order(small, full)) == full
            assert lookups == []
        # an image that is not full reads one entry per value
        gates[Gate.XOR](small, _value_set(10, [0, 1, 2, 7]))
        assert len(lookups) == 3
    finally:
        monkeypatch.undo()
        reach_module._set_ops.cache_clear()


@pytest.mark.parametrize("dim", range(1, 13))
def test_move_table_holds_the_masks_of_each_values_set_bits(dim):
    masks = reach_module._masks(dim)
    table = reach_module._moving(dim)
    assert len(table) == 1 << dim
    for y, entry in enumerate(table):
        assert entry == tuple(masks[i] for i in range(dim) if y >> i & 1)


@pytest.mark.parametrize("width", range(1, 13))
def test_bitmap_images_match_oracle_on_empty_full_and_single_moves(width):
    # the smaller operand holds 0 and m, whose entries are empty and full
    # for XOR and OR and the reverse for AND, and pairs of values one bit
    # apart, r and r + 1 next to each other in the walk, so the stepped
    # XOR image moves along a single bit between them
    rng = random.Random(width)
    m = (1 << width) - 1
    _, _, gates = _set_ops(width, 2**40)
    for _ in range(4):
        r, v = rng.randrange(0, m + 1, 2), rng.randrange(m + 1)
        small = sorted({0, m, r, r | 1, v, v ^ 1 << rng.randrange(width)})
        large = rng.sample(range(m + 1), min(m + 1, len(small) +
                                              rng.randint(1, 12)))
        for x, y in ((small, large), (large, small)):
            ex_x, ex_y = (ex.ExplicitSet.from_bits(width, z) for z in (x, y))
            for gate in Gate:
                got = gates[gate](_value_set(width, x), _value_set(width, y))
                assert set(_values(got)) == \
                    ex.set_minkowski(ex_x, ex_y, gate).bits, (gate, x, y)


@pytest.mark.parametrize("mode", ["exact", "minkowski"])
def test_poly_lanes_build_vectors_only_when_points_are_read(built, mode):
    model = intersection_model()
    built[0] = 0  # parsing the model builds its literal vectors
    got = reach(model, 5, "poly", mode)
    assert built[0] == 0
    oracle = reach(model, 5, "explicit")
    for k in range(6):
        truth, rec = oracle.record(k), got.record(k)
        if mode == "exact":
            assert rec.joint_set.points == truth.joint_set.points
        for name, s in truth.var_sets.items():
            assert s.points <= rec.var_sets[name].points


def test_logical_records_enumerate_without_reducing(monkeypatch):
    # only the initial sets are reduced (lz_reduce, whose _basis runs
    # _echelon too); each step's inputs enter as packed_points, one
    # _echelon call each, and each update result is finished with one
    # _echelon call: the records and the splits of every var_sets read
    # enumerate the echelon bases as they are
    calls = {"_basis": 0, "_echelon": 0, "lz_reduce": 0,
             "lz_enclose_points": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in calls:
        monkeypatch.setattr(lz, name, counted(name, getattr(lz, name)))
    model = boolean10_model(0)
    got = reach(model, 8, "logical", cap=2**40)
    assert got.fixpoint_at == -1
    assert all(len(r.var_sets[v.name]) > 0
               for r in got.records for v in model.state_vars)
    n_state, n_input = len(model.state_vars), len(model.input_vars)
    # the initial sets, then each step's inputs and results
    assert calls == {"_basis": n_state, "lz_reduce": n_state,
                     "lz_enclose_points": n_state,
                     "_echelon": n_state + 8 * n_input + 8 * n_state}


def test_logical_lane_sizes_are_pinned():
    # the logical lane may return any sound superset, so only these
    # literal sizes catch a looser gate
    want = {
        0: [8, 4096, 4194304, 4194304, 67108864, 33554432, 67108864,
            33554432, 134217728],
        2: [8, 2048, 2097152, 67108864, 67108864, 134217728, 33554432,
            33554432, 33554432],
        6: [8, 16384, 134217728, 67108864, 67108864, 134217728, 16777216,
            33554432, 33554432],
    }
    for seed, sizes in want.items():
        got = reach(boolean10_model(seed), 8, "logical", cap=2**40)
        assert got.sizes() == sizes, seed


def logical_reference(model, horizon):
    """The logical lane spelled out on LogicalZonotopes: eval_expr over the
    step's reduced inputs, every update's result reduced (lz_reduce). The
    states up to the first repeat under constant inputs, and its step."""
    def encode(points):
        return lz.lz_reduce(lz.lz_enclose_points(points))

    states = [{v.name: encode(v.init) for v in model.state_vars}]
    constant = all(v.constant for v in model.input_vars)
    for k in range(horizon):
        env = dict(states[-1])
        env.update((v.name, encode(model.input_set(v, k)))
                   for v in model.input_vars)
        for name in model.order:
            env[name + "'"] = eval_expr(model.updates[name], env, "logical")
        states.append({v.name: lz.lz_reduce(env[v.name + "'"])
                       for v in model.state_vars})
        if constant and states[-1] == states[-2]:
            return states, k + 1
    return states, -1


def test_logical_lane_matches_the_zonotope_reference():
    rng = random.Random(43)
    fixpoints = 0
    for _ in range(150):
        model, horizon = random_lane_model(rng)
        got = reach(model, horizon, "logical", cap=2**40)
        states, fixpoint = logical_reference(model, horizon)
        assert got.fixpoint_at == fixpoint
        for k, record in enumerate(got.records):
            state = states[min(k, len(states) - 1)]
            assert record.joint_size == 1 << sum(z.gamma
                                                 for z in state.values())
            assert dict(record.var_sets) == {
                name: lz.lz_evaluate(z) for name, z in state.items()}
        fixpoints += fixpoint >= 0
    assert fixpoints >= 20


def test_logical_fixpoint_compares_canonical_forms():
    # x holds every 2-bit value at each step, but x ^ u moves the center
    # by u's reduced center, 01, every step, so no two successive states
    # hold the same center and columns: only their canonical forms repeat
    model = parse_model({
        "vars": [
            {"name": "x", "role": "state", "dim": 2,
             "init": ["00", "01", "10", "11"]},
            {"name": "u", "role": "input", "dim": 2, "set": ["01", "10"]},
        ],
        "updates": {"x": "x ^ u"},
    })
    got = reach(model, 6, "logical")
    assert got.fixpoint_at == 1
    assert got.sizes() == [4] * 7


def test_logical_lane_builds_no_vectors(built):
    # each logical zonotope is held as packed ints, gates and records
    # alike; BinaryVectors are built only when a caller reads .c, .G or
    # a record's .points
    runs = [(intersection_model(), 5, 5, {}),
            (boolean10_model(0), 8, 4, {"cap": 2**40})]
    for model, steps, oracle_steps, kwargs in runs:
        built[0] = 0  # parsing the model builds its literal vectors
        got = reach(model, steps, "logical", **kwargs)
        assert built[0] == 0
        # the oracle is checked over the steps it reaches in under a second
        oracle = reach(model, oracle_steps, "explicit", **kwargs)
        for k in range(oracle_steps + 1):
            for name, s in oracle.record(k).var_sets.items():
                assert s.points <= got.record(k).var_sets[name].points
