"""Enumerated sets of binary vectors: the brute-force correctness oracle.

Every generator-space operation in the library is validated against the
pointwise semantics implemented here.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from .binvec import BinaryVector, Gate, Value, bv_not, bv_op
from .errors import DimensionError, check_cap


class ExplicitSet(Value):
    """A non-empty set of dim-bit vectors, held as the frozenset of their
    packed ints. .points, the set of BinaryVectors, is built on first read
    through the public BinaryVector constructor, then kept."""

    _fields = ("dim", "bits")

    def __init__(self, dim, points):
        points = frozenset(points)
        if any(p.dim != dim for p in points):
            raise DimensionError("point dimension mismatch")
        self._set(dim, frozenset(p.bits for p in points))
        self.__dict__["points"] = points

    @classmethod
    def from_bits(cls, dim, bits):
        """The set of the given packed ints, for the engine: .points checks
        each one against dim when it builds its vector. A frozenset given
        is kept as .bits, not copied."""
        s = cls.__new__(cls)
        s._set(dim, frozenset(bits))
        return s

    def _set(self, dim, bits):
        if not bits:
            raise ValueError("explicit set must be non-empty")
        self._init(dim, bits)

    def __reduce__(self):
        return self.from_bits, super().__reduce__()[1]

    @cached_property
    def points(self):
        return frozenset(BinaryVector(self.dim, b) for b in self.bits)

    @staticmethod
    def from_points(points):
        points = list(points)
        return ExplicitSet(points[0].dim if points else 0, points)

    @staticmethod
    def from_strings(texts):
        return ExplicitSet.from_points(BinaryVector.from_string(t) for t in texts)

    @staticmethod
    def singleton(point):
        return ExplicitSet(point.dim, (point,))

    def __len__(self):
        return len(self.bits)

    def __contains__(self, point):
        return (isinstance(point, BinaryVector) and point.dim == self.dim
                and point.bits in self.bits)

    def __iter__(self):
        return iter(sorted(self.points, key=lambda p: p.bits))

    def to_strings(self):
        return [p.to_string() for p in self]


def set_minkowski(a: ExplicitSet, b: ExplicitSet, gate: Gate) -> ExplicitSet:
    """Pointwise image of a two-input gate over all operand pairs."""
    if a.dim != b.dim:
        raise DimensionError(f"dim {a.dim} vs {b.dim}")
    return ExplicitSet(a.dim, (bv_op(x, y, gate)
                               for x in a.points for y in b.points))


def set_not(a: ExplicitSet) -> ExplicitSet:
    return ExplicitSet(a.dim, (bv_not(p) for p in a.points))


def initial_joint(model, cap):
    """R_0: the product of the state variables' initial sets, as a joint
    ExplicitSet."""
    check_cap("joint set", math.prod(len(set(v.init))
                                     for v in model.state_vars), cap)
    return ExplicitSet.from_bits(
        sum(v.dim for v in model.state_vars),
        map(_joint, itertools.product(*[v.init for v in model.state_vars])))


def explicit_step(model, reached, k, cap, break_deps=False):
    """R_(k+1), the joint ExplicitSet one step after reached, R_k: exact
    reachability over joint states, the oracle.

    The joint state is the concatenation of all state variables in
    declaration order. The step enumerates every (state, input) sample
    and evaluates all updates against that one shared sample, so a
    reference to an already-computed next-state value inside a later
    update resolves consistently within the sample.

    With break_deps, next-state references instead range independently
    over the set of values the referenced update can take at this step,
    which mimics analyses that cannot carry the intra-step dependency:
    those values are the projections of the step's ordinary successors,
    and the samples are walked again once per combination of them.
    """
    from .model import next_state_refs

    input_sets = [model.input_set(v, k) for v in model.input_vars]
    nxt = _successors(model, reached, input_sets, [{}], cap)
    if not break_deps:
        return nxt
    axes = sorted(set().union(*map(next_state_refs, model.updates.values())))
    parts = [split_joint(model, p) for p in nxt.points]
    values = [{q[a] for q in parts} for a in axes]
    fixed = [{a + "'": v for a, v in zip(axes, combo)}
             for combo in itertools.product(*values)]
    return _successors(model, reached, input_sets, fixed, cap)


def _successors(model, reached, input_sets, fixed, cap):
    """The joint vectors the updates give from reached, each (state, input)
    sample walked once per mapping in fixed: a primed reference reads its
    fixed value when the mapping has one, else the value computed earlier
    in the sample. An update is compiled once, and run once per distinct
    tuple of the values it reads, so at most once per sample if it reads
    no primed one."""
    from .model import compile_concrete, expr_refs

    inputs = [v.name for v in model.input_vars]
    programs = {n: compile_concrete(e) for n, e in model.updates.items()}
    reads = {name: sorted({r.key for r in expr_refs(expr)})
             for name, expr in model.updates.items()}
    memo = {}  # (name, the bits of the values it reads) -> its value
    seen = set()
    for state in reached.points:
        env_state = split_joint(model, state)
        for sample in itertools.product(*input_sets):
            env_state.update(zip(inputs, sample))
            for primed in fixed:
                env = {**env_state, **primed}
                vals = {}
                for name in model.order:
                    key = (name, *[env[r].bits for r in reads[name]])
                    if key not in memo:
                        memo[key] = programs[name](env)
                    vals[name] = memo[key]
                    env.setdefault(name + "'", vals[name])
                # the joint vector follows declaration order, not the
                # evaluation order
                bits = _joint(vals[v.name] for v in model.state_vars)
                if bits not in seen:
                    check_cap("joint set", len(seen) + 1, cap)
                    seen.add(bits)
    return ExplicitSet.from_bits(reached.dim, seen)


def _joint(vecs):
    """The packed int of the vectors laid end to end, the first lowest."""
    bits = off = 0
    for v in vecs:
        bits |= v.bits << off
        off += v.dim
    return bits


def split_joint(model, v):
    """The state variables' vectors in joint vector v, by name."""
    out = {}
    off = 0
    for var in model.state_vars:
        out[var.name] = BinaryVector(var.dim,
                                     (v.bits >> off) & ((1 << var.dim) - 1))
        off += var.dim
    return out
