"""Polynomial logical zonotopes: dependent factors with an exponent matrix.

The represented set is
    { c xor (xor_i (and_k a_k^E[k,i]) g_i) : a in {0,1}^p }
with a^0 = 1, so an all-zero exponent column makes its generator
unconditional. Factors are named by globally unique identifiers; two
zonotopes sharing an identifier share that factor, which is what makes
the exact operations dependency-aware. The exact gates other than AND
and XOR are their binvec.DE_MORGAN compositions with NOT, and each
Minkowski gate is its exact gate over fresh factors.

Like logical zonotopes, these hold packed ints (logical.PackedZonotope),
and every operation here works on the ints: BinaryVectors and
BinaryMatrix are built only at the API and JSON boundary, by the public
constructor, by the first read of .c, .G or .E, and by eval_at's result.
"""

from __future__ import annotations

import threading
from functools import cached_property
from operator import itemgetter

from .binvec import DE_MORGAN, BinaryVector, Gate
from .errors import DEFAULT_CAP, DimensionError, ModelError, check_cap
from .explicit import ExplicitSet
from .logical import (PackedZonotope, and_columns, check_dims,
                      columns_matrix, lz_enclose_points)

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


class PolyLogicalZonotope(PackedZonotope):
    """A polynomial logical zonotope held as packed ints: besides the
    center and generator columns (see logical.PackedZonotope), ebits holds
    one int per exponent column, bit k for factor id[k], and id the p
    distinct factor identifiers. .E is built on first read, as .c and .G
    are."""

    _fields = PackedZonotope._fields + ("ebits", "id")

    def __init__(self, c, G, E, id):
        self._keep(c, G, [e.bits for e in E.columns], id, E=E)
        if E.cols != G.cols:
            raise DimensionError("E must have one column per generator")
        if E.rows != len(self.id):
            raise DimensionError("E must have one row per identifier")
        if len(set(self.id)) != len(self.id):
            raise ValueError("identifiers must be pairwise distinct")

    @cached_property
    def E(self):
        return columns_matrix(self.p, self.ebits)

    @staticmethod
    def singleton(point):
        return PolyLogicalZonotope.from_bits(point.dim, point.bits, (), (),
                                             ())

    @property
    def h(self):
        return len(self.gbits)

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
        """Read a to_json document onto fresh factor ids, so that it shares
        no factor with another zonotope; a ModelError names the bad field."""
        from .model import _field, _matrix, _typed

        c, G = PackedZonotope._c_and_G(doc)
        ids = [_typed(i, int, f"id[{j}]")
               for j, i in enumerate(_field(doc, "id", list, ""))]
        if len(set(ids)) != len(ids):
            raise ModelError("id: identifiers must be pairwise distinct")
        return PolyLogicalZonotope(c, G, _matrix(doc, "E", len(ids)),
                                   unique_id(len(ids)))


def _zonotope(a, cbits, gbits, ebits, ids=None):
    """The engine's zonotope of a's width, over a's factors unless ids."""
    return PolyLogicalZonotope.from_bits(a.dim, cbits, gbits, ebits,
                                         a.id if ids is None else ids)


def _moved(bits, moves):
    """bits with bit s moved to bit d for each (s, d) in moves, and every
    other bit dropped."""
    out = 0
    for s, d in moves:
        out |= (bits >> s & 1) << d
    return out


def merge_id(a, b):
    """Rewrite both zonotopes onto one common identifier vector.

    The merged vector lists a's identifiers first, then b's identifiers
    that a lacks; exponent rows are zero-padded or permuted accordingly.
    Both results represent exactly the same sets as the inputs.
    """
    known = set(a.id)
    merged = a.id + tuple(i for i in b.id if i not in known)
    row = {ident: r for r, ident in enumerate(merged)}
    moves = [(k, row[ident]) for k, ident in enumerate(b.id)]
    return (_zonotope(a, a.cbits, a.gbits, a.ebits, merged),
            _zonotope(b, b.cbits, b.gbits,
                      [_moved(e, moves) for e in b.ebits], merged))


def _fresh(a):
    """a over newly allocated identifiers: a factor no other zonotope has."""
    return _zonotope(a, a.cbits, a.gbits, a.ebits, unique_id(a.p))


def pz_not(a):
    return _zonotope(a, a.cbits ^ ((1 << a.dim) - 1), a.gbits, a.ebits)


def pz_exact_xor(a, b):
    check_dims(a, b)
    a, b = merge_id(a, b)
    return _zonotope(a, a.cbits ^ b.cbits, a.gbits + b.gbits,
                     a.ebits + b.ebits)


def pz_exact_and(a, b):
    check_dims(a, b)
    a, b = merge_id(a, b)
    ebits = b.ebits + a.ebits + tuple(e1 | e2 for e1 in a.ebits
                                      for e2 in b.ebits)
    return _zonotope(a, a.cbits & b.cbits,
                     and_columns(a.cbits, a.gbits, b.cbits, b.gbits), ebits)


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
    z = lz_enclose_points(points)
    return _zonotope(z, z.cbits, z.gbits, [1 << k for k in range(z.gamma)],
                     unique_id(z.gamma))


def eval_at(a, assignment):
    """Evaluate for one factor assignment, a mapping id -> 0/1."""
    alpha = sum(bool(assignment[i]) << k for k, i in enumerate(a.id))
    out = a.cbits
    for g, e in zip(a.gbits, a.ebits):
        if e & alpha == e:
            out ^= g
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
    moves = [(r, pos[ident]) for r, ident in enumerate(a.id)]
    p = len(id_order)
    table = [0] * (1 << p)
    table[0] = a.cbits
    for g, e in zip(a.gbits, a.ebits):
        table[_moved(e, moves)] ^= g
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
    check_dims(a, point)
    return point in pz_evaluate(a, cap=cap)


def pz_simplify(a, cap=DEFAULT_CAP):
    """Greedily drop generators whose removal keeps the same point set,
    then drop identifier rows no remaining generator uses."""
    target = pz_evaluate(a, cap=cap)
    gbits, ebits = list(a.gbits), list(a.ebits)
    i = 0
    while i < len(gbits):
        trial = _zonotope(a, a.cbits, gbits[:i] + gbits[i + 1:],
                          ebits[:i] + ebits[i + 1:])
        if pz_evaluate(trial, cap=cap) == target:
            del gbits[i]
            del ebits[i]
        else:
            i += 1
    return _drop_unused_rows(_zonotope(a, a.cbits, gbits, ebits))


def pz_compact(a):
    """Cheap reduction preserving eval_at for every assignment: drop zero
    generators, XOR-merge generators with identical exponent columns, and
    drop identifier rows that gate nothing."""
    merged = {}  # exponent column -> XOR of its generators, in first order
    for g, e in zip(a.gbits, a.ebits):
        merged[e] = merged.get(e, 0) ^ g
    kept = [(g, e) for e, g in merged.items() if g]
    return _drop_unused_rows(_zonotope(a, a.cbits, [g for g, _ in kept],
                                       [e for _, e in kept]))


def _drop_unused_rows(a):
    used = 0
    for e in a.ebits:
        used |= e
    keep = [k for k in range(a.p) if used >> k & 1]
    if len(keep) == a.p:
        return a
    moves = [(k, r) for r, k in enumerate(keep)]
    return _zonotope(a, a.cbits, a.gbits, [_moved(e, moves) for e in a.ebits],
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
    monomials = [i for i in range(1, 1 << p) if table[i]]
    return PolyLogicalZonotope.from_bits(
        n, table[0], [table[i] for i in monomials], monomials, unique_id(p))
