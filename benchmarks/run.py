"""Benchmark of the logizono library: time to verdict per query.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark imports the library from
the checkout's `src/` directory and calls it from one process on one
thread, as a closed loop: each query is sent after the previous one
returns. It runs whole cycles (every distinct query of the run once)
until --seconds have passed, then checks every answer, prints each metric
on its own line with its unit and sample count, and prints one JSON
object as its last line.

Every reported time is scaled to a reference machine speed. The speed of
the baseline machine (see README.md) drifts with other tenants' load, by up to
2.5x over tens of seconds, and no CPU pinning or frequency control is
available. So a fixed slice of pure-Python work, the probe, is timed
right before and right after each timed call, and the call's wall time is
multiplied by PROBE_S over the mean of those two probe times. The raw
median is printed beside the scaled one.

--trace 0 reports the end-to-end metrics. --trace 1 spends the first half
of --seconds untraced and the second half traced, and reports the
per-layer metrics; the spans go to --trace-dir.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5  # set-ups per run; setup_s is their median

# The probe's time on the baseline machine (README.md) in its fast state;
# scaled times are wall times at that probe speed.
PROBE_S = 0.0011
# Probing before and after a query lasts this share of the query's last
# time each, so a long query is scaled by the speed around it, not by one
# millisecond's.
PROBE_SHARE = 0.05

END_TO_END = (
    ("query_s.p50", "s"),
    ("queries_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit; a name ending in .self_s is read off the spans
PER_LAYER = (
    ("reach.self_s", "s"),
    ("reach.steps_iterated", "count"),
    ("reach.poly_joint_set.calls", "count"),
    ("reach.poly_joint_set.self_s", "s"),
    ("reach.poly_joint_set.points", "count"),
    ("reach.joint_size.calls", "count"),
    ("reach.joint_size.self_s", "s"),
    ("poly.value_table.calls", "count"),
    ("poly.value_table.self_s", "s"),
    ("poly.value_table.entries", "count"),
    ("poly.value_table.distinct_ratio", "ratio"),
    ("poly.pz_exact_and.calls", "count"),
    ("poly.pz_exact_and.self_s", "s"),
    ("poly.pz_exact_and.gen_pairs", "count"),
    ("poly.pz_compact.self_s", "s"),
    ("poly.pz_compact.kept_ratio", "ratio"),
    ("poly.pz_encode_points.calls", "count"),
    ("poly.pz_encode_points.self_s", "s"),
    ("poly.pz_evaluate.self_s", "s"),
    ("poly.peak_p", "count"),
    ("poly.peak_h", "count"),
    ("explicit.set_minkowski.calls", "count"),
    ("explicit.set_minkowski.self_s", "s"),
    ("explicit.set_minkowski.pairs", "count"),
    ("explicit.set_minkowski.distinct_ratio", "ratio"),
    ("explicit.reach_explicit.s", "s"),
    ("logical.lz_reduce.calls", "count"),
    ("logical.lz_reduce.self_s", "s"),
    ("logical.lz_evaluate.self_s", "s"),
    ("logical.lz_and.gen_pairs", "count"),
    ("model.parse_model.s", "s"),
    ("model.eval_expr.calls", "count"),
    ("model.eval_expr.self_s", "s"),
    ("model.eval_concrete.calls", "count"),
    ("binvec.BinaryVector.built", "count"),
    ("cases.lfsr_recover_key.self_s", "s"),
    ("cases.lfsr_keystream.calls", "count"),
    ("cases.lfsr_keystream.self_s", "s"),
    ("cases.combos_tried", "count"),
    ("trace.overhead_ratio", "ratio"),
)

# per-query counts that are ratios of two summed counts
RATIOS = {
    "poly.value_table.distinct_ratio":
        ("poly.value_table.distinct", "poly.value_table.entries"),
    "poly.pz_compact.kept_ratio":
        ("poly.pz_compact.gens_out", "poly.pz_compact.gens_in"),
    "explicit.set_minkowski.distinct_ratio":
        ("explicit.set_minkowski.distinct", "explicit.set_minkowski.pairs"),
}
PEAKS = ("poly.peak_p", "poly.peak_h")


def load_library():
    """Import logizono afresh from the checkout; return the package."""
    for name in [n for n in sys.modules
                 if n == "logizono" or n.startswith("logizono.")]:
        del sys.modules[name]
    lib = importlib.import_module("logizono")
    if Path(lib.__file__).resolve().parent != SRC / "logizono":
        raise ImportError(f"logizono loaded from {lib.__file__}, not {SRC}")
    return lib


def probe():
    """A fixed slice of pure-Python work: int arithmetic, small tuples and a
    set of ints, like the library's own inner loops."""
    seen = set()
    x = 12345
    for _ in range(5000):
        x = (x * 1103515245 + 12345) & 0x3FFFFFFF
        seen.add((x >> 7, x & 127)[0])
    return len(seen)


def probe_s(window=0.0):
    """Mean probe time over at least window seconds (at least one probe)."""
    n = 0
    t0 = perf_counter()
    while True:
        probe()
        n += 1
        elapsed = perf_counter() - t0
        if elapsed >= window:
            return elapsed / n


class Loop:
    """The closed loop: whole cycles, each sending every distinct query once."""

    def __init__(self, workload, rng):
        self.workload = workload
        self.docs = workload.documents(load_library(), rng)
        self.setups = []  # scaled seconds
        self.parses = []  # scaled seconds per model
        for _ in range(SETUPS):
            self.set_up()
        self.samples = []  # (query index, raw seconds, scale)
        self.answers = []  # (query index, summary), or None if it raised
        self.distinct = {}
        self.last = {}  # query index -> its last raw time

    def set_up(self):
        """Import the library afresh and prepare the run's queries."""
        before = probe_s()
        t0 = perf_counter()
        lib = load_library()
        self.queries = self.workload.prepare(lib, self.docs)
        t = perf_counter() - t0
        scale = 2 * PROBE_S / (before + probe_s())
        self.setups.append(t * scale)
        self.parses.append(self.workload.parse_s * scale)

    def run(self, seconds, tracer=None):
        """Run whole cycles until seconds have passed."""
        workload = self.workload
        start = perf_counter()
        while perf_counter() - start < seconds:
            for index, query in enumerate(self.queries):
                before = probe_s(PROBE_SHARE * self.last.get(index, 0.0))
                t0 = perf_counter()
                try:
                    if tracer is None:
                        result = workload.run(query)
                    else:
                        result = tracer.query(len(self.samples), workload.root,
                                              workload.run, query, tracer)
                except Exception as exc:  # a raised query counts as wrong
                    result = exc
                t = perf_counter() - t0
                scale = 2 * PROBE_S / (before + probe_s(PROBE_SHARE * t))
                self.samples.append((index, t, scale))
                self.last[index] = t
                if isinstance(result, Exception):
                    self.answers.append(None)
                    print(f"query {len(self.samples)} raised {result!r}",
                          file=sys.stderr)
                    continue
                summary = workload.summarize(query, result)
                # repeats share one copy, so memory does not grow with them
                summary = self.distinct.setdefault(summary, summary)
                self.answers.append((index, summary))

    def times(self, first=0, scaled=True):
        return [t * scale if scaled else t
                for _, t, scale in self.samples[first:]]


def rate(times):
    return len(times) / sum(times)


def p90(times):
    """The 90th percentile, or None with fewer than 10 samples beyond it."""
    if len(times) < 100:
        return None
    return statistics.quantiles(times, n=10)[-1]


def verify(workload, queries, answers):
    """Flags per answer, and the oracle's scaled time per distinct query."""
    if workload.oracle is None:
        return workload.wrong(answers, []), []
    oracles = []
    oracle_s = []
    for query in queries:
        before = probe_s()
        t0 = perf_counter()
        oracles.append(workload.oracle(query))
        t = perf_counter() - t0
        oracle_s.append(
            t * 2 * PROBE_S / (before + probe_s(PROBE_SHARE * t)))
    return workload.wrong(answers, oracles), oracle_s


def per_layer(tracer, scales, oracle_s, parse_s, overhead):
    """Per-query layer metrics from one traced phase.

    scales maps each traced query id to the scale of its wall time.
    """
    counts = tracer.counts
    self_ns = tracer.self_ns_by_name(scales)
    queries = len(scales)
    out = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            # the reach layer's own span is the reach.reach query root
            span = "reach.reach" if name == "reach.self_s" else name[:-7]
            out[name] = self_ns[span] / 1e9 / queries
        elif name in RATIOS:
            num, den = RATIOS[name]
            out[name] = counts[num] / counts[den] if counts[den] else 0.0
        elif name in PEAKS:
            out[name] = counts[name]
        elif name == "explicit.reach_explicit.s":
            out[name] = statistics.fmean(oracle_s) if oracle_s else 0.0
        elif name == "model.parse_model.s":
            out[name] = parse_s
        elif name == "model.eval_concrete.calls":
            out[name] = counts[name] / len(oracle_s) if oracle_s else 0.0
        elif name == "trace.overhead_ratio":
            out[name] = overhead
        else:
            out[name] = counts[name] / queries
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=ROOT / ".bench_out",
                        help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    if not (SRC / "logizono" / "__init__.py").is_file():
        print(f"no library source at {SRC / 'logizono'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    loop = Loop(workload, random.Random(f"{args.workload}/{args.seed}"))
    if args.trace:
        loop.run(args.seconds / 2)
        untraced = loop.times()
        first = len(loop.samples)
        tracer = Tracer()
        tracer.install()
        try:
            loop.run(args.seconds / 2, tracer)
            flags, oracle_s = verify(workload, loop.queries, loop.answers)
        finally:
            tracer.uninstall()
        traced = loop.times(first)
        scales = {first + i: scale
                  for i, (_, _, scale) in enumerate(loop.samples[first:])}
        metrics = per_layer(tracer, scales, oracle_s,
                            statistics.median(loop.parses),
                            rate(untraced) / rate(traced))
        units = dict(PER_LAYER)
        sampled = len(traced)
    else:
        tracer = None
        loop.run(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        flags, oracle_s = verify(workload, loop.queries, loop.answers)
        times = loop.times()
        metrics = {
            "query_s.p50": statistics.median(times),
            "queries_per_s": rate(times),
            "setup_s": statistics.median(loop.setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        sampled = len(times)

    times = loop.times()
    n = len(times)
    failed = sum(flags)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  queries {n}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units[name]}  (n={sampled})")
    if not args.trace:
        high = p90(times)
        print(f"{'query_s.p90':40s} " + (f"{high:.6g} s  (n={n})" if high
              else f"withheld  (n={n}; needs at least 100 queries)"))
        raw = loop.times(scaled=False)
        print(f"{'unscaled query_s.p50':40s} {statistics.median(raw):.6g} s"
              f"  (n={n}; wall time scaled by "
              f"{statistics.median(s for _, _, s in loop.samples):.4g})")
    print(f"{'wrong_ratio':40s} {failed / n:.6g} ratio  ({failed}/{n})")
    if tracer is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        path = args.trace_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, **tracer.dump()}))
        print(f"spans written to {path}")
    print(json.dumps({
        "correct": failed == 0, "attempted": n, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
