"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmarks/spread.py --workload b10-logical --seeds 10 --seconds 20

Runs the benchmark once per seed (1..N, or --first onwards), one run at a
time, and prints for each metric its median and the distance between its
first and third quartiles as a share of the median, the figure a bound in
BENCHMARK.json must cover.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    runs = []
    for seed in range(args.first, args.first + args.seeds):
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of "
                     f"{result['attempted']} answers failed the check")
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
    for name in runs[0]:
        median, iqr = spread([r[name] for r in runs])
        print(f"{name:16s} median {median:.6g}  iqr/median {iqr:.4f}")


if __name__ == "__main__":
    main()
