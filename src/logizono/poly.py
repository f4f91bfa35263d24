"""Polynomial logical zonotopes: dependent factors with an exponent matrix.

The represented set is
    { c xor (xor_i (and_k a_k^E[k,i]) g_i) : a in {0,1}^p }
with a^0 = 1, so an all-zero exponent column makes its generator
unconditional. Factors are named by globally unique identifiers; two
zonotopes sharing an identifier share that factor, which is what makes
the exact operations dependency-aware. The exact gates other than AND
and XOR are their binvec.DE_MORGAN compositions with NOT, and each
Minkowski gate is its exact gate over fresh factors.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import itemgetter

from .binvec import (DE_MORGAN, BinaryMatrix, BinaryVector, Gate, bv_not,
                     bv_op)
from .errors import DEFAULT_CAP, DimensionError, check_cap
from .explicit import ExplicitSet
from .logical import and_columns

_id_lock = threading.Lock()
_id_next = 1


def unique_id(count):
    """Allocate count fresh, globally unique, strictly increasing ids."""
    global _id_next
    if count < 0:
        raise ValueError("count must be >= 0")
    with _id_lock:
        start = _id_next
        _id_next += count
    return tuple(range(start, start + count))


@dataclass(frozen=True)
class PolyLogicalZonotope:
    c: BinaryVector
    G: BinaryMatrix  # n x h dependent generators
    E: BinaryMatrix  # p x h exponent matrix, one column per generator
    id: tuple  # p distinct factor identifiers

    def __post_init__(self):
        if self.G.rows != self.c.dim:
            raise DimensionError("generator rows must match center dimension")
        if self.E.cols != self.G.cols:
            raise DimensionError("E must have one column per generator")
        if self.E.rows != len(self.id):
            raise DimensionError("E must have one row per identifier")
        if len(set(self.id)) != len(self.id):
            raise ValueError("identifiers must be pairwise distinct")

    @staticmethod
    def singleton(point):
        return PolyLogicalZonotope(
            point, BinaryMatrix.empty(point.dim), BinaryMatrix.empty(0), ())

    @property
    def dim(self):
        return self.c.dim

    @property
    def h(self):
        return self.G.cols

    @property
    def p(self):
        return len(self.id)

    def to_json(self):
        return {
            "c": self.c.to_string(),
            "G": self.G.to_strings(),
            "E": self.E.to_strings(),
            # renumbered 1..p, independent of the process's allocations
            "id": list(range(1, self.p + 1)),
        }

    @staticmethod
    def from_json(doc):
        """Read a to_json document; a ModelError names the bad field."""
        from .model import _field, _matrix, _typed, _vector

        _typed(doc, dict, "zonotope")
        text = _field(doc, "c", str, "")
        c = _vector(text, len(text), "c")
        ids = tuple(_typed(i, int, f"id[{j}]")
                    for j, i in enumerate(_field(doc, "id", list, "")))
        return PolyLogicalZonotope(c, _matrix(doc, "G", c.dim),
                                   _matrix(doc, "E", len(ids)), ids)


def merge_id(a, b):
    """Rewrite both zonotopes onto one common identifier vector.

    The merged vector lists a's identifiers first, then b's identifiers
    that a lacks; exponent rows are zero-padded or permuted accordingly.
    Both results represent exactly the same sets as the inputs.
    """
    extra = tuple(i for i in b.id if i not in set(a.id))
    merged = a.id + extra
    ea = BinaryMatrix(len(merged), tuple(
        BinaryVector(len(merged), col.bits) for col in a.E.columns))
    b_row = {ident: r for r, ident in enumerate(b.id)}
    eb_cols = []
    for col in b.E.columns:
        bits = 0
        for r, ident in enumerate(merged):
            if ident in b_row:
                bits |= ((col.bits >> b_row[ident]) & 1) << r
        eb_cols.append(BinaryVector(len(merged), bits))
    a2 = PolyLogicalZonotope(a.c, a.G, ea, merged)
    b2 = PolyLogicalZonotope(b.c, b.G, BinaryMatrix(len(merged), tuple(eb_cols)),
                             merged)
    return a2, b2


def _fresh(a):
    """a over newly allocated identifiers: a factor no other zonotope has."""
    return PolyLogicalZonotope(a.c, a.G, a.E, unique_id(a.p))


def pz_not(a):
    return PolyLogicalZonotope(bv_not(a.c), a.G, a.E, a.id)


def pz_exact_xor(a, b):
    a, b = merge_id(a, b)
    return PolyLogicalZonotope(
        bv_op(a.c, b.c, Gate.XOR), a.G.hstack(b.G), a.E.hstack(b.E), a.id)


def pz_exact_and(a, b):
    a, b = merge_id(a, b)
    ecols = list(b.E.columns) + list(a.E.columns)
    for c1 in a.E.columns:
        for c2 in b.E.columns:
            ecols.append(BinaryVector(len(a.id), c1.bits | c2.bits))
    gcols = and_columns(a.c.bits, [g.bits for g in a.G.columns],
                        b.c.bits, [g.bits for g in b.G.columns])
    return PolyLogicalZonotope(
        bv_op(a.c, b.c, Gate.AND),
        BinaryMatrix(a.dim, tuple(BinaryVector(a.dim, g) for g in gcols)),
        BinaryMatrix(len(a.id), tuple(ecols)), a.id)


def _gate(base, flip_in, flip_out, fresh):
    """DE_MORGAN's entry (base, flip_in, flip_out) from pz_not and this
    module's pz_exact_and or pz_exact_xor, read at each call. With fresh,
    over fresh factors: the Minkowski gate, whose AND gates cross terms by
    the conjunction of both operands' monomials."""
    def gate(a, b):
        if fresh:
            a, b = _fresh(a), _fresh(b)
        if flip_in:
            a, b = pz_not(a), pz_not(b)
        out = pz_exact_and(a, b) if base is Gate.AND else pz_exact_xor(a, b)
        return pz_not(out) if flip_out else out
    return gate


EXACT_GATES = {gate: _gate(*DE_MORGAN[gate], False) for gate in Gate}
EXACT_GATES |= {Gate.AND: pz_exact_and, Gate.XOR: pz_exact_xor}
MINK_GATES = {gate: _gate(*DE_MORGAN[gate], True) for gate in Gate}
pz_exact_or, pz_exact_xnor, pz_exact_nand, pz_exact_nor = itemgetter(
    Gate.OR, Gate.XNOR, Gate.NAND, Gate.NOR)(EXACT_GATES)
(pz_mink_xor, pz_mink_and, pz_mink_or, pz_mink_xnor, pz_mink_nand,
 pz_mink_nor) = itemgetter(Gate.XOR, Gate.AND, Gate.OR, Gate.XNOR,
                           Gate.NAND, Gate.NOR)(MINK_GATES)


def pz_enclose_points(points):
    """Zonotope containing every given point, one factor per generator."""
    points = list(points)
    if not points:
        raise ValueError("at least one point required")
    c = points[0]
    gcols = tuple(bv_op(s, c, Gate.XOR) for s in points[1:])
    k = len(gcols)
    ecols = tuple(BinaryVector(k, 1 << i) for i in range(k)) if k else ()
    return PolyLogicalZonotope(
        c, BinaryMatrix(c.dim, gcols), BinaryMatrix(k, ecols), unique_id(k))


def eval_at(a, assignment):
    """Evaluate for one factor assignment, a mapping id -> 0/1."""
    alpha = [assignment[i] for i in a.id]
    out = a.c.bits
    for g, e in zip(a.G.columns, a.E.columns):
        if all(alpha[k] for k in range(a.p) if (e.bits >> k) & 1):
            out ^= g.bits
    return BinaryVector(a.dim, out)


def value_table(a, id_order=None):
    """Values of a for every assignment over id_order, as packed ints.

    Entry i holds the value for the assignment where factor id_order[k]
    equals bit k of i. Computed by scattering generators onto their
    monomials and applying the XOR zeta transform, so the cost is
    O(h + p * 2^p) instead of O(h * 2^p).
    """
    if id_order is None:
        id_order = a.id
    pos = {ident: k for k, ident in enumerate(id_order)}
    p = len(id_order)
    table = [0] * (1 << p)
    table[0] = a.c.bits
    for g, e in zip(a.G.columns, a.E.columns):
        idx = 0
        for r, ident in enumerate(a.id):
            if (e.bits >> r) & 1:
                idx |= 1 << pos[ident]
        table[idx] ^= g.bits
    return _zeta(table, p)


def _zeta(table, p):
    """The XOR zeta transform of a 2^p table, in place: entry i becomes the
    XOR of the entries at every subset of i's bits. It is its own
    inverse, so it also turns values into monomial coefficients."""
    for k in range(p):
        bit = 1 << k
        for i in range(1 << p):
            if i & bit:
                table[i] ^= table[i ^ bit]
    return table


def pz_evaluate(a, cap=DEFAULT_CAP) -> ExplicitSet:
    """Enumerate the represented set through its value table of 2^p
    entries; a table of more than cap entries raises CapacityError
    before it is built."""
    check_cap("polynomial zonotope value table", 1 << a.p, cap)
    return ExplicitSet.from_bits(a.dim, value_table(a))


def pz_contains(a, point, cap=DEFAULT_CAP):
    if a.dim != point.dim:
        raise DimensionError(f"dim {a.dim} vs {point.dim}")
    return point in pz_evaluate(a, cap=cap)


def pz_simplify(a, cap=DEFAULT_CAP):
    """Greedily drop generators whose removal keeps the same point set,
    then drop identifier rows no remaining generator uses."""
    target = pz_evaluate(a, cap=cap)
    gcols = list(a.G.columns)
    ecols = list(a.E.columns)
    i = 0
    while i < len(gcols):
        trial = PolyLogicalZonotope(
            a.c,
            BinaryMatrix(a.dim, tuple(gcols[:i] + gcols[i + 1:])),
            BinaryMatrix(a.p, tuple(ecols[:i] + ecols[i + 1:])),
            a.id)
        if pz_evaluate(trial, cap=cap) == target:
            del gcols[i]
            del ecols[i]
        else:
            i += 1
    reduced = PolyLogicalZonotope(
        a.c, BinaryMatrix(a.dim, tuple(gcols)),
        BinaryMatrix(a.p, tuple(ecols)), a.id)
    return _drop_unused_rows(reduced)


def pz_compact(a):
    """Cheap reduction preserving eval_at for every assignment: drop zero
    generators, XOR-merge generators with identical exponent columns, and
    drop identifier rows that gate nothing."""
    merged = {}  # exponent column -> XOR of its generators, in first order
    for g, e in zip(a.G.columns, a.E.columns):
        merged[e.bits] = merged.get(e.bits, 0) ^ g.bits
    gcols = [BinaryVector(a.dim, g) for g in merged.values() if g]
    ecols = [BinaryVector(a.p, e) for e, g in merged.items() if g]
    out = PolyLogicalZonotope(
        a.c, BinaryMatrix(a.dim, tuple(gcols)),
        BinaryMatrix(a.p, tuple(ecols)), a.id)
    return _drop_unused_rows(out)


def _drop_unused_rows(a):
    used = 0
    for e in a.E.columns:
        used |= e.bits
    keep = [k for k in range(a.p) if (used >> k) & 1]
    if len(keep) == a.p:
        return a
    ecols = []
    for e in a.E.columns:
        bits = 0
        for r, k in enumerate(keep):
            bits |= ((e.bits >> k) & 1) << r
        ecols.append(BinaryVector(len(keep), bits))
    return PolyLogicalZonotope(
        a.c, a.G, BinaryMatrix(len(keep), tuple(ecols)),
        tuple(a.id[k] for k in keep))


def pz_encode_points(points):
    """Exact encoding of a finite point set.

    Maps ceil(log2 m) fresh factors onto the m given points (padding by
    repeating the last point) and converts each coordinate's truth table
    to its XOR-of-monomials normal form, yielding a zonotope whose
    evaluation is exactly the given set.
    """
    points = sorted(set(points), key=lambda v: v.bits)
    if not points:
        raise ValueError("at least one point required")
    n = points[0].dim
    if any(v.dim != n for v in points):
        raise DimensionError("point dimension mismatch")
    m = len(points)
    p = max(m - 1, 0).bit_length()
    table = _zeta([points[min(i, m - 1)].bits for i in range(1 << p)], p)
    gcols = []
    ecols = []
    for idx in range(1, 1 << p):
        if table[idx]:
            gcols.append(BinaryVector(n, table[idx]))
            ecols.append(BinaryVector(p, idx))
    c = BinaryVector(n, table[0])
    return PolyLogicalZonotope(
        c, BinaryMatrix(n, tuple(gcols)), BinaryMatrix(p, tuple(ecols)),
        unique_id(p))
