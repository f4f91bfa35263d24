"""N-step reachability over the explicit, logical, and poly algebras.

Each lane is one entry of _LANES, which reach looks up once and runs
through one loop; a new lane is one more entry. Each step evaluates every
update in model.order against the step's input sets (a primed reference
reads the next-state value computed earlier in the same step) and records
the joint size, the number of distinct concatenated state vectors, and
the lane's state. The cap is checked where a set or table is computed,
never on a record: the initial joint product, a step's successor set, a
gate image, and a zonotope's points when var_sets is read. A lane raises
a CapacityError without a step, and reach adds the step being built. A
record splits a variable's set off the state when that variable is first
read in var_sets, and keeps it; the others are not computed. The sets
hold packed ints; an ExplicitSet builds its .points, the BinaryVectors,
only when they are first read. No lane runs the pz_* gates on polynomial
logical zonotopes, the paper's method: the poly lanes hold the sets those
gates represent. What each lane carries from one step to the next:

- explicit: the oracle, the set of reached joint vectors, from the same
  R_0 as the exact lane (explicit.initial_joint); each step
  (explicit.explicit_step) enumerates every (state, input) sample.
- logical: one logical zonotope per variable as the packed pair (cbits,
  columns). A step's input sets enter through logical.packed_points, the
  initial sets through lz_reduce(lz_enclose_points(...)): one set, two
  bases. Updates run compiled on logical.packed_ops in generator space,
  and each result's columns become an echelon basis (logical._echelon):
  the same set, at most dim columns. The joint size is the product of the
  2^len(basis) set sizes; a record's split enumerates each basis as it is.
- poly, minkowski: one set of values per variable, an int bitmap (bit x
  set when x is in the set) up to 12 bits and a frozenset of ints above.
  A step runs each compiled update over those sets: a gate is its
  pointwise image with the operands ranging independently, which is what
  the pz_mink_* gates compute, and _set_ops builds the gates once per
  width and cap. The variables vary independently, so the joint size is the
  product of the set sizes. Each set is the one that a variable's
  polynomial logical zonotope represents under the Minkowski gates; the
  lane holds no zonotope.
- poly, exact: the set of reached joint vectors. A step packs it into one
  big int, one lane per vector, and applies each gate to all lanes with
  one bitwise operation, once per combination of input values
  (_exact_step). A record packs the set the same way once, at the first
  read of var_sets, and takes each variable's set off the lanes by shift
  and mask. This is the set that the exact pz_* gates' zonotopes
  represent, reached without their generator products; the lane holds
  no zonotope.

The logical and Minkowski lanes share one step (_per_variable). When the
inputs are the same every step and a step's state equals the one before,
the run has hit a fixpoint and the remaining steps share the last record;
the oracle takes no such shortcut. States are compared by the lane's
key: the state itself, or on the logical lane each pair's canonical form
(logical._canonical). On every lane equal sets give equal keys.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
import sys
import time
from array import array
from collections.abc import Mapping
from functools import cache, cached_property, partial
from types import MappingProxyType, SimpleNamespace

from .binvec import INT_GATES, Gate, Value
from .errors import DEFAULT_CAP, CapacityError, ModelError, check_cap
from . import explicit as ex
from . import logical as lz
from . import poly as pz
# lanes run compiled updates, not eval_expr; benchmarks/spans.py wraps it
from .model import check_algebra, eval_expr  # noqa: F401


class StepRecord(Value):
    # var_sets: name -> ExplicitSet of ints, .points built on demand, each
    # split off the lane's state when first read; joint_set: the same, of
    # joint vectors, on the oracle and exact lanes
    __slots__ = _fields = ("step", "var_sets", "joint_size", "wall_time",
                           "joint_set")

    def __init__(self, step, var_sets, joint_size, wall_time, joint_set=None):
        self._init(step, var_sets, joint_size, wall_time, joint_set)


class ReachResult(Value):
    __slots__ = _fields = ("algebra", "mode", "records", "fixpoint_at")

    # fixpoint_at: the first step whose state repeats the previous one
    def __init__(self, algebra, mode, records, fixpoint_at=-1):
        self._init(algebra, mode, records, fixpoint_at)

    def sizes(self):
        return [r.joint_size for r in self.records]

    def record(self, step):
        return self.records[step]


# --- joint enumeration ------------------------------------------------------

def _components(state):
    """Group poly state variables into id-sharing connected components."""
    names = list(state)
    parent = {n: n for n in names}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner = {}
    for n in names:
        for ident in state[n].id:
            if ident in owner:
                parent[find(n)] = find(owner[ident])
            else:
                owner[ident] = n
    groups = {}
    for n in names:
        groups.setdefault(find(n), []).append(n)
    return list(groups.values())


def _component_vectors(state, names, cap):
    """Distinct joint vectors of one id-sharing component, each variable at
    its offset in the joint vector and the other variables zero."""
    ids = sorted({i for n in names for i in state[n].id})
    check_cap("joint value table", 1 << len(ids), cap)
    tables = []
    off = 0
    for n, z in state.items():
        if n in names:
            tables.append((pz.value_table(z, ids), off))
        off += z.dim
    out = set()
    for i in range(1 << len(ids)):
        vec = 0
        for t, off in tables:
            vec |= t[i] << off
        out.add(vec)
    return out


def poly_joint_set(state, cap=DEFAULT_CAP):
    """Joint set over the union of all identifiers, as an ExplicitSet."""
    vectors = [0]
    for comp in _components(state):
        placed = _component_vectors(state, comp, cap)
        check_cap("joint set", len(vectors) * len(placed), cap)
        vectors = [v | q for v in vectors for q in placed]
    return ex.ExplicitSet.from_bits(sum(z.dim for z in state.values()),
                                    vectors)


def joint_size(state, cap=DEFAULT_CAP):
    """Count of distinct concatenated state vectors of a poly zonotope
    state: each group of variables sharing identifiers is enumerated over
    its k shared factors; groups contribute multiplicatively.

    cap is the most elements any one value table may hold; a 2^k table
    above it raises CapacityError. The count itself is never checked.
    """
    return math.prod(len(_component_vectors(state, comp, cap))
                     for comp in _components(state))


# --- the engine -------------------------------------------------------------

def reach(model, steps, algebra, mode="minkowski", *,
          break_next_state_deps=False, cap=DEFAULT_CAP):
    """Run reachability for max(steps) steps, recording every step.

    steps may be an int or a list of step counts, none negative. cap is
    the most elements any one set or table may hold; it is checked before
    each set is built, and the CapacityError names the step in .step.
    """
    requested = [steps] if isinstance(steps, int) else sorted(steps)
    if requested and requested[0] < 0:
        raise ModelError(
            f"steps: must be non-negative, found {requested[0]}")
    horizon = max(requested) if requested else 0
    check_algebra(algebra, mode, break_next_state_deps)
    lane = _LANES[mode if algebra == "poly" else algebra]
    step = (partial(lane.step, break_deps=True) if break_next_state_deps
            else lane.step)
    split, size = partial(lane.split, cap=cap), lane.size
    k = 0
    try:
        state = lane.initial(model, cap)
        records = [_record(model, split, size, state, 0, 0.0)]
        constant = lane.fixpoint and all(
            v.constant for v in model.input_vars)
        key = constant and lane.key(state)
        fixpoint_at = -1
        for k in range(1, horizon + 1):
            t0 = time.perf_counter()
            state = step(model, state, k - 1, cap)
            records.append(_record(model, split, size, state, k,
                                   time.perf_counter() - t0))
            # the last key on the left, the new one stored on the right
            if constant and key == (key := lane.key(state)):
                fixpoint_at = k
                last = records[-1]
                records += [StepRecord(j, last.var_sets, last.joint_size, 0.0,
                                       last.joint_set)
                            for j in range(k + 1, horizon + 1)]
                break
    except CapacityError as err:
        if err.step is None:
            err.step = k
        raise
    return ReachResult(algebra, mode, tuple(records), fixpoint_at)


def _split_oracle(model, joint, cap):
    """Each variable's set by name, by the oracle's own split of its joint
    set, which is made once."""
    parts = [ex.split_joint(model, p) for p in joint.points]
    return lambda name: ex.ExplicitSet(model.state(name).dim,
                                       [q[name] for q in parts])


def _record(model, split, size, state, step, elapsed):
    """Record of a lane's state: its joint size, size(state), and var_sets
    split off the state when first read; a joint ExplicitSet state, the
    oracle's or the exact lane's, is also the joint_set. It checks nothing:
    the lane checked what it computed, and the split what it enumerates."""
    joint = state if isinstance(state, ex.ExplicitSet) else None
    return StepRecord(step, _Projections(split, model, state, step),
                      size(state), elapsed, joint)


class _Projections(Mapping):
    """The var_sets of a lane's state, in model.state_vars order. Each
    variable's set is computed when that variable is first read, by
    split(model, state)(name), then kept; split is called once, at the
    first read. A CapacityError names step, the step of the record built
    with these var_sets; the records copied past a fixpoint share them,
    so theirs names the fixpoint's step."""

    def __init__(self, split, model, state, step):
        self._split, self._model, self._state = split, model, state
        self._step = step
        self._sets = {}

    @cached_property
    def _one(self):
        return self._split(self._model, self._state)

    def __getitem__(self, name):
        if name not in self._sets:
            self._model.state(name)  # a KeyError if name is no state variable
            try:
                self._sets[name] = self._one(name)
            except CapacityError as err:
                if err.step is None:
                    err.step = self._step
                raise
        return self._sets[name]

    def __contains__(self, name):
        return any(v.name == name for v in self._model.state_vars)

    def __iter__(self):
        return (v.name for v in self._model.state_vars)

    def __len__(self):
        return len(self._model.state_vars)


# --- gates over sets of ints -----------------------------------------------

_BITMAP_WIDTH = 12


def _value_set(dim, values):
    """The set of the given ints for a variable of width dim: up to
    _BITMAP_WIDTH bits an int bitmap, bit x set when x is in the set (the
    sum of the distinct powers 2^x); wider, where a bitmap would need 2^dim
    bits, a frozenset."""
    return (frozenset(values) if dim > _BITMAP_WIDTH
            else sum({1 << x for x in values}))


def _values(s):
    """The ints in a set; a bitmap's come lowest first, as they are read."""
    if isinstance(s, frozenset):
        yield from s
        return
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


# each gate as an AND, OR or XOR image and the number of operands to
# complement first, by De Morgan: NAND is the OR of the complements, NOR
# the AND of the complements, XNOR the XOR with one operand complemented
_IMAGES = {
    Gate.AND: ("__and__", 0), Gate.OR: ("__or__", 0),
    Gate.XOR: ("__xor__", 0), Gate.NAND: ("__or__", 2),
    Gate.NOR: ("__and__", 2), Gate.XNOR: ("__xor__", 1),
}


@cache
def _set_ops(dim, cap):
    """compile_expr's const, not_ and gates over the sets of width dim,
    bitmaps up to _BITMAP_WIDTH bits and frozensets above, built once per
    width and cap and shared by every caller, so the gates come in a
    read-only mapping. A gate is its pointwise image, whose bound,
    min(a·b, 2^dim) values, is checked against cap before it is built;
    NOT complements each value, and is checked on its count.

    An XOR or XNOR image of sets whose sizes add up to more than 2^dim
    holds every value: for each z, z ^ a and b (or b's complement) are too
    large to be disjoint. Any other image is the larger operand moved by
    each value y of the smaller one, y ^ m where the gate complements it;
    it stops once it holds all 2^dim values, since no pair can add more.
    """
    m = (1 << dim) - 1
    const, count, complement, full, moves = (
        _bitmaps if dim <= _BITMAP_WIDTH else _frozensets)(dim)

    def not_(a):
        check_cap("gate image", count(a), cap)
        return complement(a)

    def gate(method, flips):
        move, flip = moves[method], m if flips else 0

        def image(a, b):
            na, nb = count(a), count(b)
            check_cap("gate image", min(na * nb, m + 1), cap)
            if method == "__xor__" and na + nb > m + 1:
                return full()
            small, large = (a, b) if na <= nb else (b, a)
            if flips == 2:
                large = complement(large)
            return move(small, large, flip)
        return image
    return const, not_, MappingProxyType(
        {kind: gate(*spec) for kind, spec in _IMAGES.items()})


def _frozensets(dim):
    """_set_ops' sets of width dim as frozensets of ints; the full set is
    built only when asked for, and a move maps the larger operand through
    y ^ flip for each value y of the smaller one."""
    m = (1 << dim) - 1

    def move(method):
        def image(small, large, flip):
            out = set()
            for y in small:
                out.update(map(getattr(y ^ flip, method), large))
                if len(out) > m:
                    break
            return frozenset(out)
        return image
    return (lambda value: frozenset((value.bits,)), len,
            lambda a: frozenset([x ^ m for x in a]),
            lambda: frozenset(range(m + 1)),
            {method: move(method) for method in ("__xor__", "__and__",
                                                 "__or__")})


@cache
def _masks(dim):
    """(s, low, high) for each bit i < dim, s = 2^i: the bitmaps of the
    x < 2^dim whose bit i is 0 and of those whose bit i is 1."""
    full = (1 << (1 << dim)) - 1
    return tuple((s, low, low << s) for s in (1 << i for i in range(dim))
                 for low in [full // ((1 << 2 * s) - 1) * ((1 << s) - 1)])


@cache
def _moving(dim):
    """For each y < 2^dim, the _masks(dim) entries at the set bits of y.
    The table doubles once per bit: the entries of the y with bit i set
    are those of y - 2^i with bit i's masks added."""
    table = [()]
    for mask in _masks(dim):
        table += [t + (mask,) for t in table]
    return tuple(table)


# each byte with its bits in reverse order
_REVERSED_BITS = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _bitmaps(dim):
    """_set_ops' sets of width dim as bitmaps: an image is the union of
    the larger operand moved by each value y of the smaller one, and a
    complement is the bitmap read backwards, since x ^ m = m - x.

    {x op y : x in b} moves b once along each bit of y that changes x: a
    set bit for XOR and OR, a clear one for AND (so and_image flips y by
    m), and the reverse when the operands are complemented; one _moving
    lookup gives those bits. XOR moves commute and undo themselves, so
    the image for y is the one for the value before it moved along the
    bits where the two differ."""
    m, moving = (1 << dim) - 1, _moving(dim)
    full = (1 << (m + 1)) - 1
    # the bytes that hold the 2^dim bits; below 3 bits that is one byte,
    # and its reversal puts the bitmap above shift padding bits
    size = (m + 8) // 8
    shift = 8 * size - (m + 1)

    def complement(b):
        return int.from_bytes(
            b.to_bytes(size, "little").translate(_REVERSED_BITS),
            "big") >> shift

    # (small, large, flip) -> the image, for each value y of small moving
    # large along the bits of y ^ flip
    def xor_image(small, large, flip):
        out, b, last = 0, large, flip
        while small:
            low = small & -small
            y = low.bit_length() - 1
            for s, lo, hi in moving[y ^ last]:
                b = (b & lo) << s | (b & hi) >> s
            out |= b
            if out == full:
                break
            last = y
            small ^= low
        return out

    def and_image(small, large, flip):
        out, flip = 0, flip ^ m
        while small:
            low = small & -small
            b = large
            for s, lo, hi in moving[(low.bit_length() - 1) ^ flip]:
                b = (b | b >> s) & lo
            out |= b
            if out == full:
                break
            small ^= low
        return out

    def or_image(small, large, flip):
        out = 0
        while small:
            low = small & -small
            b = large
            for s, lo, hi in moving[(low.bit_length() - 1) ^ flip]:
                b = (b | b << s) & hi
            out |= b
            if out == full:
                break
            small ^= low
        return out

    return (lambda value: 1 << value.bits, int.bit_count, complement,
            lambda: full, {"__xor__": xor_image, "__and__": and_image,
                           "__or__": or_image})


# --- the lanes that keep one value per variable -----------------------------

def _per_variable(encode, ops, finish, size, split, key, init=None):
    """The _LANES entry of a lane that keeps one value per state variable.
    encode(var, points) is the value of an input's set for a step, and of
    a variable's initial set unless init(var, points) is given; ops(dim,
    cap) gives the const, not_ and gates each update is compiled against
    (Model.compiled); finish makes an update's result a state value."""
    def step(model, state, k, cap):
        env = dict(state)
        for var in model.input_vars:
            env[var.name] = encode(var, model.input_set(var, k))
        for key, program in model.compiled(ops, cap):
            env[key] = program(env)
        return {v.name: finish(env[v.name + "'"]) for v in model.state_vars}

    return SimpleNamespace(
        initial=lambda model, cap: {v.name: (init or encode)(v, v.init)
                                    for v in model.state_vars},
        step=step, size=size, split=split, fixpoint=True, key=key)


def _same(value):
    return value


_PAIR = operator.attrgetter("cbits", "gbits")


# --- poly exact lane: joint vectors as ints in model.state_vars order -------
# The state is the ExplicitSet of reached joint vectors. The step and
# _split pack it into one int, one fixed-width lane per vector.

_ORDER = sys.byteorder
# unsigned array typecodes by item size: 1, 2, 4 and 8 bytes
_TYPECODES = {array(t).itemsize: t for t in "BHILQ"}


def _lane_bytes(model):
    """Bytes per lane: the smallest array item that holds the joint width,
    or as many bytes as the width needs above 64 bits."""
    width = sum(v.dim for v in model.state_vars)
    return next((n for n in sorted(_TYPECODES) if 8 * n >= width),
                (width + 7) // 8)


def _exact_step(model, joint, k, cap):
    """The exact-lane state one step after joint.

    The updates are compiled against gates on this step's lanes and run
    once per combination of input values, each input value replicated
    into every lane. Each combination's unpacked lanes wait in a list,
    and the step's frozenset is built from them in one union, which the
    ExplicitSet keeps without a copy. Pending lanes are merged into the
    set before their count plus its size would pass cap, and the cap is
    checked after each merge: the step raises iff the set it builds holds
    more than cap vectors, and holds at most cap plus one combination's
    lanes at a time.
    """
    env, ones, count, nbytes = _pack(model, joint)
    widths = {}  # dim -> compile_expr's const, not_ and gates on its lanes
    for dim in {v.dim for v in model.state_vars}:
        mask = ((1 << dim) - 1) * ones
        widths[dim] = (lambda value: value.bits * ones,
                       partial(operator.xor, mask),
                       {kind: partial(fn, m=mask)
                        for kind, fn in INT_GATES.items()})
    programs = model.compile_updates(widths.__getitem__)
    # the results in reverse, each shifted in below the ones before it
    placed = [(v.name + "'", v.dim) for v in reversed(model.state_vars)]
    names = [v.name for v in model.input_vars]
    choices = [[u * ones for u in sorted({p.bits for p in
                                          model.input_set(v, k)})]
               for v in model.input_vars]
    out, pending = frozenset(), []
    for combo in itertools.product(*choices):
        env.update(zip(names, combo))
        for key, program in programs:
            env[key] = program(env)
        nxt = 0
        for key, dim in placed:
            nxt = nxt << dim | env[key]
        if pending and len(out) + (len(pending) + 1) * count > cap:
            out = _merge(out, pending, cap)
        pending.append(_unpack(nxt, count, nbytes))
    return ex.ExplicitSet.from_bits(joint.dim, _merge(out, pending, cap))


def _merge(out, pending, cap):
    """out with the pending lanes added, a new frozenset; pending is
    emptied and the cap checked on the result."""
    out = out.union(*pending)
    pending.clear()
    check_cap("joint set", len(out), cap)
    return out


def _pack(model, joint):
    """The joint vectors packed into one int, one lane each, and each state
    variable's lanes, its bits at the bottom of every lane, by name; also
    a 1 at the bottom of every lane, the lane count and the bytes per
    lane."""
    count, nbytes = len(joint), _lane_bytes(model)
    if nbytes in _TYPECODES:
        data = array(_TYPECODES[nbytes], joint.bits).tobytes()
    else:
        data = b"".join([p.to_bytes(nbytes, _ORDER) for p in joint.bits])
    packed = int.from_bytes(data, _ORDER)
    ones = int.from_bytes((1).to_bytes(nbytes, _ORDER) * count, _ORDER)
    lanes, off = {}, 0
    for var in model.state_vars:
        lanes[var.name] = (packed >> off) & (((1 << var.dim) - 1) * ones)
        off += var.dim
    return lanes, ones, count, nbytes


def _unpack(packed, count, nbytes):
    data = packed.to_bytes(count * nbytes, _ORDER)
    if nbytes in _TYPECODES:
        return array(_TYPECODES[nbytes], data)
    return [int.from_bytes(data[i:i + nbytes], _ORDER)
            for i in range(0, len(data), nbytes)]


def _split(model, joint, cap):
    """Each variable's set of the exact-lane state joint by name, packed
    once; a variable's lanes are unpacked when it is read."""
    lanes, _, count, nbytes = _pack(model, joint)
    return lambda name: ex.ExplicitSet.from_bits(
        model.state(name).dim, _unpack(lanes[name], count, nbytes))


# --- the lanes --------------------------------------------------------------
# Each entry gives initial(model, cap), the state at step 0; step(model,
# state, k, cap), the state after step k; size(state), its joint size;
# split(model, state, cap), a function of a variable's name giving its
# ExplicitSet; fixpoint, whether a state repeated under constant inputs
# ends the run; and key(state), equal iff the sets are. reach reads
# these attributes at each run.

_LANES = {
    "explicit": SimpleNamespace(
        initial=ex.initial_joint, step=ex.explicit_step, size=len,
        split=_split_oracle, fixpoint=False, key=_same),
    "logical": _per_variable(
        encode=lambda var, points: lz.packed_points(points),
        # benchmarks/test_bench.py needs logical.lz_reduce.calls > 0 here
        init=lambda var, points: _PAIR(
            lz.lz_reduce(lz.lz_enclose_points(points))),
        ops=lambda dim, cap: lz.packed_ops(dim),
        finish=lambda pair: (pair[0], lz._echelon(pair[1])),
        # echelon bases: 2^len(basis) points each, enumerated as they are
        size=lambda st: 1 << sum(len(basis) for _, basis in st.values()),
        split=lambda model, st, cap: lambda name: lz.lz_points(
            model.state(name).dim, *st[name], cap, f"set of {name}"),
        key=lambda st: {name: lz._canonical(*pair)
                        for name, pair in st.items()}),
    "minkowski": _per_variable(
        encode=lambda var, points: _value_set(var.dim,
                                              (p.bits for p in points)),
        ops=_set_ops, finish=_same,
        size=lambda st: math.prod(len(s) if isinstance(s, frozenset)
                                  else s.bit_count() for s in st.values()),
        split=lambda model, st, cap: lambda name: ex.ExplicitSet.from_bits(
            model.state(name).dim, _values(st[name])), key=_same),
    "exact": SimpleNamespace(
        initial=ex.initial_joint, step=_exact_step, size=len, split=_split,
        fixpoint=True, key=_same),
}


# --- reporting --------------------------------------------------------------

def reach_report(result, requested_steps, fmt="csv", *, model_path=None,
                 seed=None, dump_sets=False):
    """Render a result as CSV text or a JSON document."""
    rows = [(n, result.record(n).wall_time, result.record(n).joint_size)
            for n in requested_steps]
    if fmt == "csv":
        buf = io.StringIO()
        if seed is not None:
            buf.write(f"# seed={seed}\n")
        writer = csv.writer(buf)
        writer.writerow(["steps", "time_seconds", "size"])
        for n, t, s in rows:
            writer.writerow([n, f"{t:.6f}", s])
        return buf.getvalue()
    if fmt == "json":
        doc = {
            "algebra": result.algebra,
            "mode": result.mode,
            "seed": seed,
            "model": model_path,
            "rows": [{"steps": n, "time_seconds": t, "size": s}
                     for n, t, s in rows],
        }
        if dump_sets:
            doc["sets"] = {
                str(n): {name: sorted(s.to_strings())
                         for name, s in result.record(n).var_sets.items()}
                for n in requested_steps
            }
        return json.dumps(doc, indent=2)
    raise ModelError(f"unknown format {fmt!r}")
