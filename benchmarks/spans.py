"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the library's public functions from outside, under the
names their callers look up at run time:

- module globals, because `reach` imports `eval_expr` by name and the
  functions of one module call each other through that module's globals
  (so `pz_exact_nand` reaches the wrapped `pz_exact_and`);
- the gate tables in `logizono.model`, which hold direct references to
  the `lz_*` and `pz_*` gates;
- `BinaryVector.__post_init__`, which every construction runs.

No library file changes: `install` patches the loaded modules and
`uninstall` puts every original back.

A span is `[name, start_ns, end_ns, parent_index, query_id]`. Spans are
recorded only inside a query, so input generation and verification add
none. Counts are taken at the same boundaries. Work a counter does itself
(such as counting the distinct values of a table) runs in a child span
named `trace.count`, so it lands in no layer's self time.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.queries = []  # (query_id, wall_ns) in the order run
        self._stack = []
        self._query = None
        self._depth = 0
        self._patches = []

    # --- recording --------------------------------------------------------

    def query(self, qid, name, fn, *args, **kwargs):
        """Run fn as query qid, under a root span called name."""
        self._query = qid
        t0 = perf_counter_ns()
        try:
            return self._span(name, fn, args, kwargs)
        finally:
            self.queries.append((qid, perf_counter_ns() - t0))
            self._query = None

    def _span(self, name, fn, args, kwargs):
        span = [name, 0, 0, self._stack[-1] if self._stack else -1,
                self._query]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name, fn, count=None):
        """fn under a span called name; count(counts, result, *args) after."""
        def traced(*args, **kwargs):
            if self._query is None:
                return fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            out = self._span(name, fn, args, kwargs)
            if count is not None:
                self._span(COUNT_SPAN, count, (self.counts, out) + args, {})
            return out
        return traced

    # --- patching ---------------------------------------------------------

    def _patch(self, target, key, new):
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = new
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, new)

    def install(self):
        """Wrap the public functions of the loaded logizono modules."""
        mod = {m: sys.modules["logizono." + m] for m in (
            "reach", "poly", "logical", "explicit", "model", "binvec",
            "cases")}
        reach, poly, logical, explicit, model, binvec, cases = mod.values()
        gate_and = binvec.Gate.AND

        self._patch(reach, "poly_joint_set", self.wrap(
            "reach.poly_joint_set", reach.poly_joint_set, _count_joint))
        self._patch(reach, "joint_size",
                    self.wrap("reach.joint_size", reach.joint_size))
        self._patch(reach, "eval_expr",
                    self.wrap("model.eval_expr", reach.eval_expr))

        self._patch(poly, "value_table", self.wrap(
            "poly.value_table", poly.value_table, _count_table))
        pz_and = self.wrap("poly.pz_exact_and", poly.pz_exact_and,
                           _count_pz_and)
        self._patch(poly, "pz_exact_and", pz_and)
        self._patch(model._PZ_EXACT, gate_and, pz_and)
        self._patch(poly, "pz_compact", self.wrap(
            "poly.pz_compact", poly.pz_compact, _count_compact))
        for name in ("pz_encode_points", "pz_evaluate"):
            self._patch(poly, name,
                        self.wrap("poly." + name, getattr(poly, name)))

        self._patch(explicit, "set_minkowski", self.wrap(
            "explicit.set_minkowski", explicit.set_minkowski,
            _count_minkowski))

        for name in ("lz_reduce", "lz_evaluate"):
            self._patch(logical, name,
                        self.wrap("logical." + name, getattr(logical, name)))
        lz_and = self.wrap("logical.lz_and", logical.lz_and, _count_lz_and)
        self._patch(logical, "lz_and", lz_and)
        self._patch(model._LZ_GATES, gate_and, lz_and)

        self._patch(cases, "lfsr_keystream", self.wrap(
            "cases.lfsr_keystream", cases.lfsr_keystream))

        post_init = binvec.BinaryVector.__post_init__

        def counted_post_init(vec):
            if self._query is not None:
                self.counts["binvec.BinaryVector.built"] += 1
            post_init(vec)

        self._patch(binvec.BinaryVector, "__post_init__", counted_post_init)

        # the oracle looks eval_concrete up in model's globals, and so does
        # its own recursion: count top-level calls only
        concrete = model.eval_concrete

        def counted_concrete(expr, env):
            if self._depth:
                return concrete(expr, env)
            self.counts["model.eval_concrete.calls"] += 1
            self._depth += 1
            try:
                return concrete(expr, env)
            finally:
                self._depth -= 1

        self._patch(model, "eval_concrete", counted_concrete)

    def uninstall(self):
        while self._patches:
            target, key, original = self._patches.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # --- aggregation ------------------------------------------------------

    def self_ns_by_name(self, scales):
        """Self time per span name (a span's duration minus its children's),
        each span's scaled by its query's scale."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, query), c in zip(self.spans, child):
            out[name] += (end - start - c) * scales[query]
        return out

    def dump(self):
        return {"queries": [{"id": q, "wall_ns": w} for q, w in self.queries],
                "spans": self.spans}


def _peak(counts, key, value):
    if value > counts[key]:
        counts[key] = value


def _count_joint(counts, out, *args):
    counts["reach.poly_joint_set.points"] += len(out)


def _count_table(counts, out, a, id_order=None):
    counts["poly.value_table.entries"] += len(out)
    counts["poly.value_table.distinct"] += len(set(out))
    _peak(counts, "poly.peak_p", len(out).bit_length() - 1)
    _peak(counts, "poly.peak_h", a.h)


def _count_pz_and(counts, out, a, b):
    counts["poly.pz_exact_and.gen_pairs"] += a.h * b.h
    _peak(counts, "poly.peak_p", out.p)
    _peak(counts, "poly.peak_h", out.h)


def _count_compact(counts, out, a):
    counts["poly.pz_compact.gens_in"] += a.h
    counts["poly.pz_compact.gens_out"] += out.h


def _count_minkowski(counts, out, a, b, gate):
    counts["explicit.set_minkowski.pairs"] += len(a) * len(b)
    counts["explicit.set_minkowski.distinct"] += len(out)


def _count_lz_and(counts, out, a, b):
    counts["logical.lz_and.gen_pairs"] += a.gamma * b.gamma
