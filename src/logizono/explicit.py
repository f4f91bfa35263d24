"""Enumerated sets of binary vectors: the brute-force correctness oracle.

Every generator-space operation in the library is validated against the
pointwise semantics implemented here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .binvec import BinaryVector, Gate, bv_not, bv_op
from .errors import DEFAULT_CAP, DimensionError, check_cap


@dataclass(frozen=True, init=False)
class ExplicitSet:
    """A non-empty set of dim-bit vectors, held as the frozenset of their
    packed ints. .points, the set of BinaryVectors, is built on first read
    through the public BinaryVector constructor, then kept."""

    dim: int
    bits: frozenset

    def __init__(self, dim, points):
        points = frozenset(points)
        if any(p.dim != dim for p in points):
            raise DimensionError("point dimension mismatch")
        self._set(dim, frozenset(p.bits for p in points))
        self.__dict__["points"] = points

    @classmethod
    def from_bits(cls, dim, bits):
        """The set of the given packed ints, for the engine: .points checks
        each one against dim when it builds its vector."""
        s = cls.__new__(cls)
        s._set(dim, frozenset(bits))
        return s

    def _set(self, dim, bits):
        if not bits:
            raise ValueError("explicit set must be non-empty")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bits", bits)

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


def reach_explicit(model, steps, *, break_next_state_deps=False,
                   cap=DEFAULT_CAP):
    """Exact N-step reachability over joint states.

    The joint state is the concatenation of all state variables in
    declaration order. Each step enumerates every (state, input) sample
    and evaluates all updates against that one shared sample, so a
    reference to an already-computed next-state value inside a later
    update resolves consistently within the sample.

    With break_next_state_deps, next-state references instead range
    independently over the set of values the referenced update can take
    at this step, which mimics analyses that cannot carry the intra-step
    dependency.

    Returns the list [R_0, ..., R_steps] of joint ExplicitSets.
    """
    from .model import eval_concrete, next_state_refs

    names = [v.name for v in model.state_vars]
    order = model.order

    def joint(vecs):
        bits = 0
        off = 0
        for v in vecs:
            bits |= v.bits << off
            off += v.dim
        return BinaryVector(off, bits)

    sizes = [len(set(v.init)) for v in model.state_vars]
    check_cap("joint set", math.prod(sizes), cap, step=0)
    initial = [
        joint(vecs)
        for vecs in itertools.product(*[v.init for v in model.state_vars])
    ]
    result = [ExplicitSet.from_points(initial)]

    primed_refs = {name: sorted(next_state_refs(model.updates[name]))
                   for name in order}

    for k in range(steps):
        input_sets = [model.input_set(v, k) for v in model.input_vars]
        seen = set()
        if break_next_state_deps:
            next_sets = _next_value_sets(model, result[-1], input_sets)
        for state in result[-1].points:
            env_base = split_joint(model, state)
            for sample in itertools.product(*input_sets):
                env = dict(env_base)
                for var, val in zip(model.input_vars, sample):
                    env[var.name] = val
                if break_next_state_deps:
                    for vecs in _independent_primed(model, env, primed_refs,
                                                    next_sets):
                        _record(vecs, joint, seen, cap, k)
                else:
                    for name in order:
                        env[name + "'"] = eval_concrete(model.updates[name],
                                                        env)
                    # the joint vector follows declaration order, not the
                    # evaluation order
                    _record([env[name + "'"] for name in names], joint,
                            seen, cap, k)
        result.append(ExplicitSet.from_points(seen))
    return result


def split_joint(model, v):
    """The state variables' vectors in joint vector v, by name."""
    out = {}
    off = 0
    for var in model.state_vars:
        out[var.name] = BinaryVector(var.dim,
                                     (v.bits >> off) & ((1 << var.dim) - 1))
        off += var.dim
    return out


def _record(vecs, joint, seen, cap, step):
    v = joint(vecs)
    if v not in seen:
        check_cap("joint set", len(seen) + 1, cap, step=step + 1)
        seen.add(v)


def _next_value_sets(model, reached, input_sets):
    """Per-variable sets of possible next values, dependency-preserving."""
    from .model import eval_concrete

    out = {name: set() for name in model.order}
    for state in reached.points:
        env_base = split_joint(model, state)
        for sample in itertools.product(*input_sets):
            env = dict(env_base)
            for var, val in zip(model.input_vars, sample):
                env[var.name] = val
            for name in model.order:
                v = eval_concrete(model.updates[name], env)
                env[name + "'"] = v
                out[name].add(v)
    return {name: sorted(vals, key=lambda p: p.bits)
            for name, vals in out.items()}


def _independent_primed(model, env, primed_refs, next_sets):
    """Yield next-state tuples with primed references drawn independently."""
    from .model import eval_concrete

    axes = sorted({r for name in model.order for r in primed_refs[name]})
    for combo in itertools.product(*[next_sets[a] for a in axes]):
        env2 = dict(env)
        for a, val in zip(axes, combo):
            env2[a + "'"] = val
        vals = {name: eval_concrete(model.updates[name], env2)
                for name in model.order}
        yield [vals[v.name] for v in model.state_vars]
