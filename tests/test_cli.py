import json

import pytest

from logizono import cli
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
    rc, _, err = run(capsys, ["reach", "--model", "no_such_model"])
    assert rc == cli.EXIT_USAGE
    assert "not found" in err


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
    rc, _, err = run(capsys, ["reach", "--model", str(path),
                              "--algebra", "poly", "--mode", "exact",
                              "--steps", "1", "--cap", "100"])
    assert rc == cli.EXIT_CAPACITY
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


def test_lfsr_round_trip(capsys):
    rc, out, _ = run(capsys, ["lfsr", "--lk", "12", "--seed", "0"])
    assert rc == cli.EXIT_OK
    assert "# seed=0" in out
    assert "recovered=true" in out
    assert "lk=12 lm=24" in out


def test_lfsr_key_hex(capsys):
    rc, out, _ = run(capsys, ["lfsr", "--lk", "16", "--key-hex", "BEEF",
                              "--seed", "3"])
    assert rc == cli.EXIT_OK
    assert "key=0xBEEF" in out


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


@pytest.mark.parametrize("doc, message", [
    ({"vars": [{"name": "x", "init": ["0"]}], "updates": {"x": "!x"}},
     "vars[0].dim: missing"),
    ([1, 2], "model: expected an object, found a list"),
    ({"vars": [{"name": "x", "dim": 1, "init": ["0", "1"]},
               {"name": "x", "dim": 1, "init": ["0"]}],
      "updates": {"x": "!x"}}, "vars[1].name: duplicate variable 'x'"),
    ({"vars": [{"name": "x", "dim": 2, "init": ["00"]}],
      "updates": {"x": "x & 1"}}, "updates.x: operand '1' at position 5"),
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
])
def test_eval_malformed_zonotope_exits_usage(tmp_path, capsys, doc, message):
    path = tmp_path / "z.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["eval", "--input", str(path)])
    assert rc == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"
