"""Tests of the benchmark itself: python3 -m pytest benchmarks"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import (  # noqa: E402
    POOL, WORKLOADS, permute_document, reference_keystream)


@pytest.fixture(scope="module")
def lib():
    sys.path.insert(0, str(run.SRC))
    return run.load_library()


def traced(tmp_path, workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1",
         "--trace-dir", str(tmp_path)],
        capture_output=True, text=True, check=True, cwd=ROOT)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    spans = json.loads(
        (tmp_path / f"trace-{workload}-seed{seed}.json").read_text())
    return result, spans


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    return [traced(tmp_path_factory.mktemp(f"run{i}"), "b10-logical", 3)
            for i in range(2)]


def test_tampered_sizes_are_counted_wrong(lib):
    workload = WORKLOADS["b10-logical"]()
    doc = permute_document(lib.cases.boolean10_document(POOL[0]),
                           random.Random(0).sample(range(10), 10))
    [model] = workload.prepare(lib, [doc])
    good = (0, workload.summarize(model, workload.run(model)))
    sizes, sets = good[1]
    shrunk = (sizes[:3] + (1,) + sizes[4:], sets)
    grown = (sizes[:7] + (sizes[7] + 1,) + sizes[8:], sets)
    answers = [good, (0, shrunk), (0, grown), None, good]
    flags, _ = run.verify(workload, [model], answers)
    # shrunk falls below the oracle at step 3; grown is still sound but
    # differs from the first answer for the same model; None raised
    assert flags == [False, True, True, True, False]


def test_exact_answer_must_equal_the_oracle():
    workload = WORKLOADS["b10-exact"]()
    oracle = ((8, "a"), (56, "b"))
    answers = [(0, oracle), (0, ((8, "a"), (56, "c"))),
               (0, ((8, "a"), (57, "b")))]
    assert workload.wrong(answers, [oracle]) == [False, True, True]


def test_wrong_key_is_counted_wrong(lib):
    workload = WORKLOADS["lfsr60"]()
    query = workload.prepare(lib, workload.documents(lib, random.Random(5)))[0]
    key = workload.run(query)
    planted, message, cipher = query
    flipped = list(planted)
    flipped[30] ^= 1
    answers = [(0, workload.summarize(query, key)),
               (0, workload.summarize((flipped, message, cipher), key)), None]
    assert workload.wrong(answers, []) == [False, True, True]


def test_reference_register_matches_the_library(lib):
    key = [random.Random(2).getrandbits(1) for _ in range(60)]
    spec = lib.LfsrSpec()
    assert reference_keystream(key, 120) == lib.lfsr_keystream(spec, key)


def test_p90_is_withheld_below_ten_samples_beyond_it():
    assert run.p90([0.1] * 99) is None
    assert run.p90([float(i) for i in range(100)]) == pytest.approx(89.9)


def test_traced_runs_with_one_seed_give_the_same_counts(traced_pair):
    (first, _), (second, _) = traced_pair
    assert first["correct"] and second["correct"]

    def counts(result):
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] != "s" and name != "trace.overhead_ratio"}

    assert counts(first) == counts(second)
    assert counts(first)["logical.lz_reduce.calls"] > 0


def test_self_times_stay_within_each_query_wall_time(traced_pair):
    for _, dump in traced_pair:
        own = {}
        child = [0] * len(dump["spans"])
        for _, start, end, parent, _ in dump["spans"]:
            if parent >= 0:
                child[parent] += end - start
        for (_, start, end, _, query), c in zip(dump["spans"], child):
            assert end - start - c >= 0
            own[query] = own.get(query, 0) + end - start - c
        assert dump["queries"]
        for q in dump["queries"]:
            assert own[q["id"]] <= q["wall_ns"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lfsr60",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
