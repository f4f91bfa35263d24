"""The benchmark's four workloads: inputs, queries and answer checks.

A query is one call that returns a verdict: one `reach(...)` run to its
horizon, or one key recovery. The library receives only the generated
model documents and ciphertexts. Every answer is checked after the timed
loop, against the explicit oracle or against the planted key.
"""

from __future__ import annotations

import hashlib
from array import array
from time import perf_counter

# Three boolean10 models of the family. A run draws a permutation of the
# ten bit positions for each of them, and the order in which they are
# queried, from its own seed. All gates act bitwise, so a permuted model
# reaches the permuted sets: the inputs differ from run to run while the
# work per query stays the same. Drawing the model seeds themselves from
# the run seed would change the work per query by up to 3x from run to
# run, and a run has room for only a few models. Seeds 0, 2 and 6 give
# each lane's median a model to sit on: on the exact lane seeds 2 and 6
# cost the same and seed 0 a third less, on the minkowski lane the three
# differ by a third or more. Seed 1 in place of 6 put the exact median
# between two models 12% apart, and it moved with the noise.
POOL = (0, 2, 6)

# Under the default joint cap of 2**20, reach raises CapacityError on the
# minkowski and logical lanes at 8 steps (joint sizes reach about 1.5e7
# and 1.1e9), so every boolean10 query passes this cap explicitly.
CAP = 2**40

# The oracle checks the minkowski and logical lanes up to this step.
ORACLE_STEPS = 5

# Keys per lfsr60 run; each cycle recovers every one of them.
KEYS = 8


def permute_document(doc, perm):
    """The document with every vector's bit positions permuted."""
    def vec(text):
        return "".join(text[i] for i in perm)

    out = dict(doc)
    out["vars"] = []
    for var in doc["vars"]:
        var = dict(var)
        for key in ("init", "set"):
            if key in var:
                var[key] = [vec(t) for t in var[key]]
        if "steps" in var:
            var["steps"] = [[vec(t) for t in s] for s in var["steps"]]
        out["vars"].append(var)
    return out


def set_digest(points):
    """Digest of an ExplicitSet's points, independent of their order."""
    bits = array("Q", sorted(p.bits for p in points))
    return hashlib.sha256(bits.tobytes()).hexdigest()


class Boolean10:
    """Reachability on permuted boolean10 models, checked by the oracle.

    exact=True: the joint set must equal the oracle's at every step.
    Otherwise, at every step up to ORACLE_STEPS, each variable's set must
    contain the oracle's projection and the joint size must be at least
    the oracle's, and all queries of one model must give the same sizes.
    """

    root = "reach.reach"

    def __init__(self, algebra, mode, horizon):
        self.algebra = algebra
        self.mode = mode
        self.horizon = horizon
        self.exact = mode == "exact"

    def documents(self, lib, rng):
        docs = []
        for seed in POOL:
            doc = lib.cases.boolean10_document(seed)
            docs.append(permute_document(doc, rng.sample(range(10), 10)))
        rng.shuffle(docs)
        return docs

    def prepare(self, lib, docs):
        """The run's distinct queries: one parsed model per document."""
        self.lib = lib
        t0 = perf_counter()
        models = [lib.parse_model(doc) for doc in docs]
        self.parse_s = (perf_counter() - t0) / len(models)
        return models

    def run(self, model, tracer=None):
        result = self.lib.reach(model, self.horizon, self.algebra, self.mode,
                                cap=CAP)
        if tracer is not None:
            fix = result.fixpoint_at
            tracer.counts["reach.steps_iterated"] += (
                fix if fix >= 0 else len(result.records) - 1)
        return result

    def summarize(self, model, result):
        """What the check needs from one answer."""
        if self.exact:
            return tuple((r.joint_size, set_digest(r.joint_set.points))
                         for r in result.records)
        sets = tuple(
            tuple(frozenset(p.bits for p in r.var_sets[name].points)
                  for name in sorted(r.var_sets))
            for r in result.records[:ORACLE_STEPS + 1])
        return tuple(result.sizes()), sets

    def oracle(self, model):
        steps = self.horizon if self.exact else ORACLE_STEPS
        return self.summarize(model, self.lib.reach(model, steps, "explicit"))

    def wrong(self, answers, oracles):
        """One flag per answer: True when it fails its check.

        answers holds (query index, summary) pairs, or None for a query
        that raised; oracles holds one oracle() value per distinct query.
        """
        first = {}
        verdict = {}
        flags = []
        for answer in answers:
            if answer is None:
                flags.append(True)
                continue
            index, summary = answer
            if self.exact:
                flags.append(summary != oracles[index])
                continue
            sizes = summary[0]
            first.setdefault(index, sizes)
            if answer not in verdict:
                verdict[answer] = _sound(summary, oracles[index])
            flags.append(sizes != first[index] or not verdict[answer])
        return flags


def _sound(summary, oracle):
    """Each step's sets contain the oracle's and its size is no smaller."""
    (sizes, sets), (o_sizes, o_sets) = summary, oracle
    if len(sets) != len(o_sets):
        return False
    for size, o_size, var_sets, o_var_sets in zip(sizes, o_sizes, sets, o_sets):
        if size < o_size or len(var_sets) != len(o_var_sets):
            return False
        if not all(o <= s for s, o in zip(var_sets, o_var_sets)):
            return False
    return True


def reference_keystream(key, length, taps=(60, 59, 58, 14),
                        out_taps=(60, 59)):
    """The LFSR of LfsrSpec(), written out independently of the library."""
    cells = list(key)  # cells[0] is cell 1
    out = []
    for _ in range(length):
        bit = 0
        for t in out_taps:
            bit ^= cells[t - 1]
        fb = 0
        for t in taps:
            fb ^= cells[t - 1]
        out.append(bit)
        cells = [fb] + cells[:-1]
    return out


class Lfsr60:
    """Key recovery for the paper's 60-bit register, 120-bit messages.

    A run draws KEYS random keys and messages and encrypts them with the
    benchmark's own reference register. The search tries the four values
    of the first two key bits in order, so a key's cost is one to four
    passes of the same work; with those bits random, the median query
    would sit between two of the four cost levels and jump between them
    from run to run. Every key therefore starts with 11, which makes each
    query the full four-pass search, and its other 58 bits are random.
    """

    root = "cases.lfsr_recover_key"
    oracle = None  # the planted key is the check
    parse_s = 0.0  # no model to parse

    def documents(self, lib, rng):
        docs = []
        for _ in range(KEYS):
            key = [1, 1] + [rng.getrandbits(1) for _ in range(58)]
            message = [rng.getrandbits(1) for _ in range(120)]
            stream = reference_keystream(key, len(message))
            docs.append((key, message, [m ^ s for m, s in zip(message, stream)]))
        return docs

    def prepare(self, lib, docs):
        self.lib = lib
        self.spec = lib.LfsrSpec()
        return docs

    def run(self, query, tracer=None):
        _, message, cipher = query
        if tracer is None:
            return self.lib.lfsr_recover_key(self.spec, message, cipher)
        tried = set()
        key = self.lib.lfsr_recover_key(
            self.spec, message, cipher,
            instrument=lambda first_two, j, bits: tried.add(first_two))
        tracer.counts["cases.combos_tried"] += len(tried)
        return key

    def summarize(self, query, result):
        return tuple(query[0]), tuple(result)

    def wrong(self, answers, oracles):
        return [a is None or a[1][0] != a[1][1] for a in answers]


WORKLOADS = {
    "b10-exact": lambda: Boolean10("poly", "exact", 5),
    "b10-mink": lambda: Boolean10("poly", "minkowski", 8),
    "b10-logical": lambda: Boolean10("logical", "minkowski", 8),
    "lfsr60": Lfsr60,
}
