import contextlib
import copy
import io
import json
import os
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from logizono import cli
from logizono.binvec import Gate
from logizono.errors import SearchFailure


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_reach_bundled_fixture_csv(capsys):
    rc, out, _ = run(capsys, ["reach", "--model", "intersection",
                              "--algebra", "logical", "--steps", "0,2",
                              "--seed", "7"])
    lines = out.strip().splitlines()
    assert rc == cli.EXIT_OK
    assert lines[0] == "# seed=7"
    assert lines[1] == "steps,time_seconds,size"
    assert lines[2].startswith("0,") and lines[3].startswith("2,")
    assert lines[2].split(",")[2] == "16"


@pytest.mark.parametrize("name", ["intersection", "intersection.json",
                                  "boolean10", "boolean10.json"])
def test_reach_bundled_model_reports_its_name(capsys, name):
    rc, out, _ = run(capsys, ["reach", "--model", name, "--steps", "0",
                              "--format", "json"])
    assert rc == cli.EXIT_OK
    assert json.loads(out)["model"] == name.removesuffix(".json")


def test_reach_file_wins_over_bundled_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "boolean10").write_text(json.dumps(
        {"vars": [{"name": "x", "dim": 1, "init": ["0"]}],
         "updates": {"x": "!x"}}))
    rc, out, _ = run(capsys, ["reach", "--model", "boolean10", "--steps",
                              "0", "--format", "json"])
    assert rc == cli.EXIT_OK
    report = json.loads(out)
    assert (report["model"], report["rows"][0]["size"]) == ("boolean10", 1)


def test_reach_is_deterministic_across_runs(capsys):
    argv = ["reach", "--model", "intersection", "--algebra", "poly",
            "--mode", "exact", "--steps", "3", "--format", "json"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == cli.EXIT_OK
    d1, d2 = json.loads(out1), json.loads(out2)
    assert [r["size"] for r in d1["rows"]] == [r["size"] for r in d2["rows"]]


def test_reach_writes_output_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    rc, out, _ = run(capsys, ["reach", "--model", "intersection",
                              "--algebra", "logical", "--steps", "1",
                              "--out", str(target)])
    assert rc == cli.EXIT_OK
    assert out == ""
    assert "steps,time_seconds,size" in target.read_text()


def test_reach_missing_model_exits_usage(capsys):
    # lfsr is a case study run by `logizono lfsr`, not a bundled model
    for name in ("no_such_model", "lfsr", "lfsr.json"):
        rc, _, err = run(capsys, ["reach", "--model", name])
        assert rc == cli.EXIT_USAGE
        assert "not found" in err


@pytest.mark.parametrize("argv", [
    ["reach", "--model", "{dir}"],
    ["eval", "--input", "{dir}"],
    ["reach", "--model", "boolean10", "--out", "{dir}"],
])
def test_directory_for_a_file_exits_usage(tmp_path, capsys, argv):
    # reading or writing a directory fails with an OSError that is not a
    # FileNotFoundError; it is still a usage error, not a traceback
    rc, _, err = run(capsys, [a.format(dir=tmp_path) for a in argv])
    assert rc == cli.EXIT_USAGE
    assert err.startswith("error:") and "Traceback" not in err


def test_reach_capacity_exit(tmp_path, capsys):
    doc = {
        "vars": [
            {"name": "x", "role": "state", "dim": 4,
             "init": [format(i, "04b") for i in range(16)]},
            {"name": "y", "role": "state", "dim": 4,
             "init": [format(i, "04b") for i in range(16)]},
        ],
        "updates": {"x": "x", "y": "y"},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    runs = [
        (["--algebra", "poly", "--mode", "exact", "--cap", "100"],
         cli.EXIT_CAPACITY),
        # the logical lane lists a variable's 16 points only for --dump-sets
        (["--algebra", "logical", "--cap", "10", "--format", "csv"],
         cli.EXIT_OK),
        (["--algebra", "logical", "--cap", "10", "--format", "json",
          "--dump-sets"], cli.EXIT_CAPACITY),
    ]
    for args, code in runs:
        rc, out, err = run(capsys, ["reach", "--model", str(path),
                                    "--steps", "1"] + args)
        assert rc == code
        if code == cli.EXIT_OK:
            assert out.splitlines()[-1].endswith(",256")
        else:
            assert "capacity" in err.lower()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == cli.EXIT_USAGE


def test_eval_poly_document(tmp_path, capsys):
    doc = {"c": "010", "G": ["011", "111"], "E": ["10", "11"],
           "id": [1, 2]}
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, ["eval", "--input", str(path)])
    assert rc == cli.EXIT_OK
    assert sorted(out.split()) == sorted(["010", "001", "110"])


def test_eval_logical_document(tmp_path, capsys):
    doc = {"c": "00", "G": ["10", "01"]}
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, ["eval", "--input", str(path)])
    assert rc == cli.EXIT_OK
    assert sorted(out.split()) == ["00", "01", "10", "11"]


def test_eval_capacity_exit(tmp_path, capsys):
    p = 30
    doc = {"c": "0", "G": ["1"] * p,
           "E": [format(1 << i, f"0{p}b")[::-1] for i in range(p)],
           "id": list(range(1, p + 1))}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, ["eval", "--input", str(path)])
    assert rc == cli.EXIT_CAPACITY


def test_cap_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOGIZONO_CAP", "8")
    doc = {"c": "0000", "G": ["1000", "0100", "0010", "0001"]}
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, ["eval", "--input", str(path)])
    assert rc == cli.EXIT_CAPACITY


def test_cap_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("LOGIZONO_CAP", "8")
    argv = ["reach", "--model", "intersection", "--algebra", "poly",
            "--mode", "exact", "--steps", "2"]
    rc, _, err = run(capsys, argv)
    assert rc == cli.EXIT_CAPACITY
    assert "over the cap of 8" in err
    rc, out, _ = run(capsys, argv + ["--cap", "1000000"])
    assert rc == cli.EXIT_OK
    assert out.splitlines()[-1].startswith("2,")


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_cap_below_one_exits_usage(capsys, monkeypatch, cap):
    argv = ["reach", "--model", "intersection", "--steps", "1"]
    rc, out, err = run(capsys, argv + ["--cap", cap])
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: cap {cap}: must be at least 1\n"
    monkeypatch.setenv("LOGIZONO_CAP", cap)
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: cap {cap}: must be at least 1\n"
    rc, _, err = run(capsys, argv + ["--cap", "1"])
    assert rc == cli.EXIT_CAPACITY
    assert "over the cap of 1" in err


def test_reach_negative_steps_exits_usage(capsys):
    rc, out, err = run(capsys, ["reach", "--model", "intersection",
                                "--steps", "1,-1"])
    assert rc == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: steps: must be non-negative, found -1\n"


def test_reach_dump_sets_needs_json(capsys):
    argv = ["reach", "--model", "intersection", "--algebra", "poly",
            "--mode", "exact", "--steps", "2", "--dump-sets"]
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err == "error: --dump-sets needs --format json\n"
    rc, out, _ = run(capsys, argv + ["--format", "json"])
    assert rc == cli.EXIT_OK
    assert set(json.loads(out)["sets"]) == {"2"}


def test_lfsr_round_trip(capsys):
    rc, out, _ = run(capsys, ["lfsr", "--lk", "12", "--seed", "0"])
    assert rc == cli.EXIT_OK
    assert "# seed=0" in out
    assert "recovered=true" in out
    assert "lk=12 lm=24" in out
    # six decimals, as in reach's CSV: a sub-millisecond search is not 0.000
    assert re.search(r" time_seconds=\d+\.\d{6} ", out)


def test_lfsr_short_message_warns(capsys):
    rc, out, err = run(capsys, ["lfsr", "--lk", "8", "--lm", "4",
                                "--seed", "0"])
    # four bits leave several keys, and the search returns another one
    assert rc == cli.EXIT_FAIL
    assert "recovered=false " in out and "lk=8 lm=4" in out
    assert err == ("warning: 4 keystream bits may not determine a "
                   "8-bit key\n")


def test_lfsr_key_hex(capsys):
    rc, out, _ = run(capsys, ["lfsr", "--lk", "16", "--key-hex", "BEEF",
                              "--seed", "3"])
    assert rc == cli.EXIT_OK
    assert "key=0xBEEF" in out


@pytest.mark.parametrize("argv", [
    ["--lk", "1", "--taps", "1", "--out-taps", "1"],
    ["--lk", "1"],
    ["--lk", "0", "--taps", "1", "--out-taps", "1"],
])
def test_lfsr_short_register_exits_usage(capsys, argv):
    rc, out, err = run(capsys, ["lfsr", *argv])
    assert rc == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: register length ")
    assert "at least 2 cells" in err


@pytest.mark.parametrize("key", ["FFFF", "100", "-1"])
def test_lfsr_key_wider_than_register_exits_usage(capsys, key):
    rc, out, err = run(capsys, ["lfsr", "--lk", "8", "--key-hex", key])
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: key {key}: does not fit 8 bits\n"


def test_lfsr_key_filling_register(capsys):
    rc, out, _ = run(capsys, ["lfsr", "--lk", "8", "--key-hex", "FF"])
    assert rc == cli.EXIT_OK
    assert "key=0xFF" in out


@pytest.mark.parametrize("flag", ["--key-hex", "--taps", "--out-taps"])
def test_lfsr_empty_value_exits_usage(capsys, flag):
    # an empty value is a usage error, not a request for the default
    rc, out, err = run(capsys, ["lfsr", "--lk", "8", flag, ""])
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: {flag}: expected a value, found an empty one\n"


@pytest.mark.parametrize("flag, taps", [("--taps", "8,7,8"),
                                         ("--out-taps", "8,8")])
def test_lfsr_repeated_tap_exits_usage(capsys, flag, taps):
    # a repeated tap cancels in the XOR: --out-taps 8,8 gives an all-zero
    # keystream, which every key fits
    rc, out, err = run(capsys, ["lfsr", "--lk", "8", flag, taps,
                                "--seed", "1"])
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: {flag}: tap 8 repeated\n"


@pytest.mark.parametrize("argv, env, message", [
    (["reach", "--model", "intersection"], "abc", "LOGIZONO_CAP: 'abc'"),
    (["reach", "--model", "intersection", "--steps", "1,x"], None,
     "--steps: 'x'"),
    (["lfsr", "--lk", "8", "--key-hex", "zz"], None, "--key-hex: 'zz'"),
    (["lfsr", "--lk", "8", "--taps", "8,x"], None, "--taps: 'x'"),
    (["lfsr", "--lk", "8", "--out-taps", "8,7.5"], None,
     "--out-taps: '7.5'"),
], ids=["LOGIZONO_CAP", "steps", "key-hex", "taps", "out-taps"])
def test_non_integer_value_names_its_setting(capsys, monkeypatch, argv,
                                             env, message):
    if env is not None:
        monkeypatch.setenv("LOGIZONO_CAP", env)
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: {message} is not an integer\n"


@pytest.mark.parametrize("lm", ["0", "-3"])
def test_lfsr_message_length_below_one_exits_usage(capsys, lm):
    rc, out, err = run(capsys, ["lfsr", "--lk", "8", "--lm", lm])
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: message length {lm}: at least 1 bit\n"


def test_lfsr_search_failure_maps_to_exit_code(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise SearchFailure("no key")
    monkeypatch.setattr(cli.cases, "lfsr_recover_key", boom)
    rc, _, err = run(capsys, ["lfsr", "--lk", "8", "--seed", "0"])
    assert rc == cli.EXIT_SEARCH
    assert "search failure" in err


def test_selftest(capsys):
    rc, out, _ = run(capsys, ["selftest", "--trials", "25", "--seed", "1"])
    assert rc == cli.EXIT_OK
    assert "failures=0" in out


def test_selftest_checks_the_minkowski_lane_gates(capsys, monkeypatch):
    # a lane whose XOR image is its AND image fails the selftest
    set_ops = cli._set_ops

    def broken(n, cap):
        const, not_, gates = set_ops(n, cap)
        return const, not_, {**gates, Gate.XOR: gates[Gate.AND]}

    monkeypatch.setattr(cli, "_set_ops", broken)
    rc, out, _ = run(capsys, ["selftest", "--trials", "25", "--seed", "1"])
    assert rc == cli.EXIT_FAIL
    assert "failures=0" not in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_selftest_trials_below_one_exits_usage(capsys, trials):
    rc, out, err = run(capsys, ["selftest", "--trials", trials])
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: --trials {trials}: must be at least 1\n"


@pytest.mark.parametrize("doc, message", [
    ({"vars": [{"name": "x", "init": ["0"]}], "updates": {"x": "!x"}},
     "vars[0].dim: missing"),
    ([1, 2], "model: expected an object, found a list"),
    ({"vars": [{"name": "x", "dim": 1, "init": ["0", "1"]},
               {"name": "x", "dim": 1, "init": ["0"]}],
      "updates": {"x": "!x"}}, "vars[1].name: duplicate variable 'x'"),
    ({"vars": [{"name": "x", "dim": 2, "init": ["00"]}],
      "updates": {"x": "x & 1"}}, "updates.x: operand '1' at position 5"),
    ({"vars": [{"name": "x", "dim": 1, "init": ["0"]}],
      "updates": {"x": "!" * 5000 + "x"}},
     "updates.x: nested deeper than 100 levels at position 102"),
    ({"vars": [{"name": "x", "dim": 1, "init": ["0"]}],
      "updates": {"x": "(" * 300 + "x" + ")" * 300}},
     "updates.x: nested deeper than 100 levels at position 102"),
    # a JSON string holding a model is not decoded a second time
    pytest.param(json.dumps({"vars": [{"name": "x", "dim": 1, "init": ["0"]}],
                             "updates": {"x": "!x"}}),
                 "model: expected an object, found a string",
                 id="doc6-json-string"),
    # a model with no state variable has nothing to reach
    ({}, "vars: no state variable"),
    ({"vars": []}, "vars: no state variable"),
    ({"vars": [{"name": "u", "role": "input", "dim": 1, "set": ["0", "1"]}],
      "updates": {}}, "vars: no state variable"),
])
def test_reach_malformed_model_exits_usage(tmp_path, capsys, doc, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["reach", "--model", str(path),
                                "--algebra", "poly", "--mode", "exact"])
    assert rc == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("doc, message", [
    ({"c": "01"}, "G: missing"),
    ([1, 2], "zonotope: expected an object, found a list"),
    ({"c": "010", "G": ["011"], "E": ["1"]}, "id: missing"),
    ({"c": 1, "G": []}, "c: expected a string, found an integer"),
    ({"c": "01", "G": ["01", "0x"]},
     "G[1]: expected a bitstring of 2 bits, found '0x'"),
    ({"c": "0", "G": ["1"], "E": ["1"], "id": ["a"]},
     "id[0]: expected an integer, found a string"),
    ({"c": "0", "G": ["1", "1"], "E": ["10", "01"], "id": [3, 3]},
     "id: identifiers must be pairwise distinct"),
])
def test_eval_malformed_zonotope_exits_usage(tmp_path, capsys, doc, message):
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["eval", "--input", str(path)])
    assert rc == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["reach", "--model"], ["eval", "--input"]])
def test_deeply_nested_json_exits_usage(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    rc, out, err = run(capsys, argv + [str(path)])
    assert rc == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: {path}: nested too deeply to decode\n"


@pytest.mark.parametrize("argv", [["reach", "--model"], ["eval", "--input"]])
@pytest.mark.parametrize("data", [b'{"vars": [', b'{"c": "\xff"}'],
                         ids=["truncated", "not-utf8"])
def test_undecodable_file_exits_usage_naming_it(tmp_path, capsys, argv, data):
    # a truncated JSON file and one that is not UTF-8
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    rc, out, err = run(capsys, argv + [str(path)])
    assert rc == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


# --- fuzzing: any input file gives exit 0, 2 or 3 and never a traceback ------

VALID_MODEL = {
    "vars": [
        {"name": "x", "role": "state", "dim": 2, "init": ["00", "11"]},
        {"name": "y", "role": "state", "dim": 2, "init": ["01"]},
        {"name": "u", "role": "input", "dim": 2, "set": ["01", "10"]},
        {"name": "v", "role": "input", "dim": 2,
         "steps": [["11"], ["00", "01"]]},
    ],
    "updates": {"x": "x ^ u", "y": "NAND(y, x') | v"},
    "order": ["x", "y"],
}

VALID_ZONOTOPES = [
    {"c": "010", "G": ["011", "111"], "E": ["10", "11"], "id": [1, 2]},
    {"c": "00", "G": ["10", "01"]},
]

KEYS = ("vars", "updates", "order", "name", "role", "dim", "init", "set",
        "steps", "c", "G", "E", "id")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(["0", "01", "110", "x & !x",
                                             "input", "state"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4),
                                     inner, max_size=4)),
    max_leaves=12)


def _paths(doc, path=()):
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def mutated(draw, valid):
    """valid with one to three values replaced by arbitrary JSON, or
    removed from their object."""
    doc = copy.deepcopy(draw(st.sampled_from(valid)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(json_values)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def run_file(tmp_dir, doc, argv):
    path = tmp_dir / "input.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"LOGIZONO_CAP": "4096"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([a.replace("INPUT", str(path)) for a in argv])
    return rc, err.getvalue()


LANES = [["--algebra", "poly", "--mode", "minkowski"],
         ["--algebra", "poly", "--mode", "exact"],
         ["--algebra", "logical"], ["--algebra", "explicit"]]


@settings(max_examples=100, deadline=None)
@given(doc=json_values | mutated([VALID_MODEL]), lane=st.sampled_from(LANES))
def test_fuzz_reach_exits_cleanly(tmp_path_factory, doc, lane):
    rc, err = run_file(tmp_path_factory.getbasetemp(), doc,
                       ["reach", "--model", "INPUT", "--steps", "0,2",
                        "--cap", "4096"] + lane)
    assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_CAPACITY)
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(doc=json_values | mutated(VALID_ZONOTOPES))
def test_fuzz_eval_exits_cleanly(tmp_path_factory, doc):
    rc, err = run_file(tmp_path_factory.getbasetemp(), doc,
                       ["eval", "--input", "INPUT"])
    assert rc in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_CAPACITY)
    assert "Traceback" not in err
