import itertools
import operator
import random
import re
from functools import partial

import pytest

from logizono.binvec import INT_GATES, BinaryVector, Gate
from logizono.errors import ModelError
from logizono.explicit import ExplicitSet
from logizono.logical import LogicalZonotope, lz_evaluate
from logizono.model import (MAX_DEPTH, Const, GateExpr, Not, VarRef,
                            compile_expr, eval_concrete, eval_expr,
                            expr_refs, next_state_refs, parse_expr,
                            parse_model, print_expr)
from logizono.poly import pz_enclose_points, pz_evaluate


def bv(text):
    return BinaryVector.from_string(text)


# --- parsing ----------------------------------------------------------------

def test_parse_precedence():
    expr = parse_expr("a | b ^ c & d")
    assert expr == GateExpr(Gate.OR, VarRef("a"),
                            GateExpr(Gate.XOR, VarRef("b"),
                                     GateExpr(Gate.AND, VarRef("c"),
                                              VarRef("d"))))


def test_parse_not_binds_tightest():
    expr = parse_expr("!a & b")
    assert expr == GateExpr(Gate.AND, Not(VarRef("a")), VarRef("b"))
    assert parse_expr("!!a") == Not(Not(VarRef("a")))


def test_parse_parentheses():
    expr = parse_expr("(a | b) & c")
    assert expr.kind == Gate.AND
    assert expr.left.kind == Gate.OR


def test_parse_function_gates():
    assert parse_expr("NAND(a, b)") == GateExpr(Gate.NAND, VarRef("a"),
                                                VarRef("b"))
    assert parse_expr("NOR(a, b)").kind == Gate.NOR
    assert parse_expr("XNOR(a ^ b, c)").left.kind == Gate.XOR


def test_parse_primed_and_const():
    expr = parse_expr("x' ^ 101")
    assert expr.left == VarRef("x", primed=True)
    assert expr.right == Const(bv("101"))
    assert next_state_refs(expr) == {"x"}


def test_parse_errors_carry_positions():
    with pytest.raises(ModelError) as err:
        parse_expr("a & ")
    assert err.value.position is not None
    with pytest.raises(ModelError):
        parse_expr("a @ b")
    with pytest.raises(ModelError):
        parse_expr("(a | b")
    with pytest.raises(ModelError):
        parse_expr("NAND(a)")
    with pytest.raises(ModelError):
        parse_expr("a b")
    # a primed name is a variable, never a gate
    with pytest.raises(ModelError) as err:
        parse_expr("NAND'(a, b)")
    assert err.value.position == 6


def test_print_parse_round_trip():
    for text in ("a | b ^ c & d", "!a & (b | c)", "NAND(x', y) ^ 0110",
                 "XNOR(a, NOR(b, !c))"):
        expr = parse_expr(text)
        assert parse_expr(print_expr(expr)) == expr


@pytest.mark.parametrize("update, position", [
    ("!" * 5000 + "x", 102),
    ("(" * 300 + "x" + ")" * 300, 102),
    (" & ".join(["x"] * 5000), 1),
])
def test_deep_nesting_is_a_model_error(update, position):
    doc = {"vars": [{"name": "x", "dim": 1, "init": ["0"]}],
           "updates": {"x": update}}
    with pytest.raises(ModelError) as err:
        parse_model(doc)
    assert str(err.value) == (f"updates.x: nested deeper than 100 levels "
                              f"at position {position}")


def test_expr_refs():
    refs = list(expr_refs(parse_expr("a & b' | !a")))
    assert [r.key for r in refs] == ["a", "b'", "a"]


# --- model validation -------------------------------------------------------

def base_doc():
    return {
        "vars": [
            {"name": "x", "role": "state", "dim": 2, "init": ["00", "11"]},
            {"name": "u", "role": "input", "dim": 2, "set": ["01"]},
        ],
        "updates": {"x": "x ^ u"},
    }


def test_parse_model_accepts_dict_and_text():
    import json
    m1 = parse_model(base_doc())
    m2 = parse_model(json.dumps(base_doc()))
    assert m1.order == m2.order == ("x",)
    assert m1.state("x").init == (bv("00"), bv("11"))
    assert m1.input_vars[0].constant == (bv("01"),)


def test_per_step_inputs():
    doc = base_doc()
    doc["vars"][1] = {"name": "u", "role": "input", "dim": 2,
                      "steps": [["00"], ["11"]]}
    m = parse_model(doc)
    assert m.input_set(m.input_vars[0], 1) == (bv("11"),)
    with pytest.raises(ModelError):
        m.input_set(m.input_vars[0], 2)


def test_rejects_undeclared_reference():
    doc = base_doc()
    doc["updates"]["x"] = "x ^ w"
    with pytest.raises(ModelError):
        parse_model(doc)


def test_rejects_forward_primed_reference():
    doc = {
        "vars": [
            {"name": "a", "role": "state", "dim": 1, "init": ["0"]},
            {"name": "b", "role": "state", "dim": 1, "init": ["0"]},
        ],
        "updates": {"a": "b'", "b": "a"},
        "order": ["a", "b"],
    }
    with pytest.raises(ModelError):
        parse_model(doc)
    # the other order computes b first, so b' is available
    doc["order"] = ["b", "a"]
    parse_model(doc)


def test_rejects_primed_input():
    doc = base_doc()
    doc["updates"]["x"] = "x ^ u'"
    with pytest.raises(ModelError):
        parse_model(doc)


def test_rejects_missing_update_and_bad_order():
    doc = base_doc()
    doc["order"] = ["x", "x"]
    with pytest.raises(ModelError):
        parse_model(doc)
    doc = base_doc()
    del doc["updates"]["x"]
    with pytest.raises(ModelError):
        parse_model(doc)


def test_rejects_dim_mismatch_and_empty_sets():
    doc = base_doc()
    doc["vars"][0]["init"] = ["0"]
    with pytest.raises(ModelError):
        parse_model(doc)
    doc = base_doc()
    doc["vars"][1]["set"] = []
    with pytest.raises(ModelError):
        parse_model(doc)


@pytest.mark.parametrize("edit, path", [
    (lambda d: d["vars"][0].pop("dim"), "vars[0].dim: missing"),
    (lambda d: d["vars"][0].update(dim="2"),
     "vars[0].dim: expected an integer"),
    (lambda d: d["vars"][0].update(dim=True),
     "vars[0].dim: expected an integer"),
    (lambda d: d["vars"][0].update(dim=0), "vars[0].dim: must be at least 1"),
    (lambda d: d["vars"][0].pop("name"), "vars[0].name: missing"),
    (lambda d: d["vars"][0].update(name="2x"), "vars[0].name:"),
    (lambda d: d["vars"][0].update(role="output"), "vars[0].role:"),
    (lambda d: d["vars"][0].update(init="00"),
     "vars[0].init: expected a list"),
    (lambda d: d["vars"][0].update(init=["0a"]), "vars[0].init[0]:"),
    (lambda d: d["vars"][1].pop("set"), "vars[1].steps: missing"),
    (lambda d: d["vars"][1].update(set=[]), "vars[1].set: set must be"),
    (lambda d: d["vars"].__setitem__(1, {"name": "u", "role": "input",
                                         "dim": 2, "steps": []}),
     "vars[1].steps: per-step input list is empty"),
    (lambda d: d["updates"].update(z="x"),
     "updates.z: not a declared state"),
    (lambda d: d["vars"].__setitem__(1, "u"), "vars[1]: expected an object"),
    (lambda d: d.update(vars={}), "vars: expected a list"),
    (lambda d: d.update(updates=["x"]), "updates: expected an object"),
    (lambda d: d["updates"].update(x=3), "updates.x: expected a string"),
    (lambda d: d.update(order=[1]), "order[0]: expected a string"),
])
def test_schema_errors_name_the_json_path(edit, path):
    doc = base_doc()
    edit(doc)
    with pytest.raises(ModelError) as err:
        parse_model(doc)
    assert str(err.value).startswith(path)


def test_rejects_non_object_document():
    for doc in ([base_doc()], "[1, 2]", "3"):
        with pytest.raises(ModelError, match="model: expected an object"):
            parse_model(doc)


def test_rejects_duplicate_variable_names():
    doc = base_doc()
    doc["vars"].append({"name": "x", "role": "state", "dim": 2,
                        "init": ["00"]})
    with pytest.raises(ModelError, match=r"vars\[2\].name: duplicate .*'x'"):
        parse_model(doc)
    doc = base_doc()
    doc["vars"][1]["name"] = "x"
    with pytest.raises(ModelError, match="duplicate"):
        parse_model(doc)


@pytest.mark.parametrize("update, position, operand, width", [
    ("x & 1", 5, "'1'", 1),
    ("x ^ (u | 101)", 10, "'101'", 3),
    ("NAND(x, y)", 9, "'y'", 3),
    ("!y' ^ x", 2, "\"y'\"", 3),
])
def test_widths_checked_at_parse_time(update, position, operand, width):
    doc = base_doc()
    doc["vars"].insert(0, {"name": "y", "role": "state", "dim": 3,
                           "init": ["000"]})
    doc["updates"] = {"x": update, "y": "y"}
    doc["order"] = ["y", "x"]
    with pytest.raises(ModelError) as err:
        parse_model(doc)
    assert err.value.position == position
    assert str(err.value) == (f"updates.x: operand {operand} at position "
                              f"{position} has width {width}, expected 2")


def test_update_syntax_errors_name_update_and_position():
    doc = base_doc()
    doc["updates"]["x"] = "x &  @"
    with pytest.raises(ModelError) as err:
        parse_model(doc)
    assert err.value.position == 6
    assert str(err.value) == ("updates.x: unexpected character '@' "
                              "at position 6")


# --- evaluation -------------------------------------------------------------

def naive_eval(expr, env, m):
    """expr over packed ints of the width whose all-ones int is m, by
    recursion on the tree."""
    if isinstance(expr, VarRef):
        return env[expr.key]
    if isinstance(expr, Const):
        return expr.value.bits
    if isinstance(expr, Not):
        return naive_eval(expr.child, env, m) ^ m
    return INT_GATES[expr.kind](naive_eval(expr.left, env, m),
                                naive_eval(expr.right, env, m), m)


def random_tree(rng, depth, n, keys):
    """A random update of width n over the reference keys, depth levels
    deep along one path, with small random subtrees off that path."""
    if depth == 0:
        if rng.random() < 0.25:
            return Const(BinaryVector(n, rng.getrandbits(n)))
        name = rng.choice(keys)
        return VarRef(name.rstrip("'"), primed=name.endswith("'"))
    if rng.random() < 0.3:
        return Not(random_tree(rng, depth - 1, n, keys))
    deep = random_tree(rng, depth - 1, n, keys)
    side = random_tree(rng, rng.randint(0, min(depth - 1, 3)), n, keys)
    left, right = (deep, side) if rng.random() < 0.5 else (side, deep)
    return GateExpr(rng.choice(list(Gate)), left, right)


def test_compile_expr_matches_a_naive_evaluator():
    # compiled once, a program is evaluated on many envs, over packed ints
    # through INT_GATES: every gate, NOT, literals and primed references,
    # nested up to MAX_DEPTH levels
    rng = random.Random(11)
    keys = ["a", "b", "u", "a'"]
    depths = [0, 1, 2, MAX_DEPTH] + [rng.randint(0, MAX_DEPTH)
                                     for _ in range(150)]
    texts = []
    for depth in depths:
        n = rng.randint(1, 70)
        m = (1 << n) - 1
        expr = random_tree(rng, depth, n, keys)
        program = compile_expr(expr, operator.attrgetter("bits"),
                               partial(operator.xor, m),
                               {kind: partial(fn, m=m)
                                for kind, fn in INT_GATES.items()})
        for _ in range(4):
            env = {key: rng.getrandbits(n) for key in keys}
            assert program(env) == naive_eval(expr, env, m), print_expr(expr)
        texts.append(print_expr(expr))
    for token in (r"NAND\(", r"(?<!X)NOR\(", r"XNOR\(", " & ", r" \| ",
                  r" \^ ", "!", "'", r"\b[01]+\b"):
        assert any(re.search(token, text) for text in texts), token


def test_eval_concrete():
    env = {"a": bv("10"), "b": bv("11"), "c'": bv("01")}
    expr = parse_expr("(a & b) ^ !c'")
    assert eval_concrete(expr, env) == bv("00")


def test_eval_explicit_shares_samples():
    # x ^ x over a two-point set must collapse to {0}; independent
    # sampling would give {0, 1}
    env = {"x": ExplicitSet.from_strings(["0", "1"])}
    got = eval_expr(parse_expr("x ^ x"), env, "explicit")
    assert got.points == frozenset({bv("0")})


def test_eval_logical_matches_explicit_on_xor():
    env_lz = {"x": LogicalZonotope.singleton(bv("01")),
              "y": LogicalZonotope.singleton(bv("11"))}
    got = eval_expr(parse_expr("x ^ !y"), env_lz, "logical")
    assert lz_evaluate(got).points == frozenset({bv("01")})


def test_eval_poly_exact_cancels_shared_factors():
    z = pz_enclose_points([bv("00"), bv("11"), bv("10")])
    got = eval_expr(parse_expr("x ^ x"), {"x": z}, "poly", "exact")
    assert pz_evaluate(got).points == frozenset({bv("00")})
    got = eval_expr(parse_expr("x ^ x"), {"x": z}, "poly", "minkowski")
    assert len(pz_evaluate(got)) > 1


def test_eval_expr_mode_checks():
    env = {"x": ExplicitSet.from_strings(["0"])}
    with pytest.raises(ModelError):
        eval_expr(parse_expr("x"), env, "explicit", "exact")
    with pytest.raises(ModelError):
        eval_expr(parse_expr("x"), env, "explicit", "bogus")
    with pytest.raises(ModelError):
        eval_expr(parse_expr("x"), env, "fuzzy")


def test_eval_const_only_expression():
    got = eval_expr(parse_expr("101 ^ 011"), {}, "explicit")
    assert got.points == frozenset({bv("110")})


def test_explicit_eval_matches_truth_table():
    # enumerate every env over 1-bit sets and compare against direct
    # concrete evaluation of all combinations
    expr = parse_expr("NAND(a, b) ^ (a | !b)")
    sets = [["0"], ["1"], ["0", "1"]]
    for sa, sb in itertools.product(sets, repeat=2):
        env = {"a": ExplicitSet.from_strings(sa),
               "b": ExplicitSet.from_strings(sb)}
        got = eval_expr(expr, env, "explicit")
        want = {eval_concrete(expr, {"a": bv(x), "b": bv(y)})
                for x in sa for y in sb}
        assert got.points == frozenset(want)
