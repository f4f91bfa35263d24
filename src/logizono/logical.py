"""Logical zonotopes: center plus independent binary generators.

The represented set is { c xor (xor_i g_i b_i) : b in {0,1}^gamma }.
XOR, NOT and XNOR are exact in generator space; AND (and the gates
derived from it) over-approximate, never missing a point. Each gate is
built from its binvec.DE_MORGAN entry in one construction: XNOR is XOR
with the center flipped, and NAND, OR and NOR are each one AND, on the
operands or their complements.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter

from .binvec import DE_MORGAN, BinaryMatrix, BinaryVector, Gate, Value
from .errors import DEFAULT_CAP, DimensionError, check_cap
from .explicit import ExplicitSet


class PackedZonotope(Value):
    """The packed layout of both zonotope kinds: the center's bits (cbits),
    one int per generator column (gbits), and any further fields, all
    tuples. .c and .G, the BinaryVector center and BinaryMatrix, are built
    on first read through their public constructors, then kept."""

    _fields = ("dim", "cbits", "gbits")

    @classmethod
    def from_bits(cls, dim, cbits, gbits, *more):
        """The zonotope of the given packed ints, for the engine, with any
        further fields after gbits: the vectors check the ints against
        their widths when they are built."""
        z = cls.__new__(cls)
        z.__dict__.update(dim=dim, cbits=cbits, gbits=tuple(gbits))
        if more:
            z.__dict__.update(zip(cls._fields[3:], map(tuple, more)))
        return z

    def __reduce__(self):
        return self.from_bits, super().__reduce__()[1]

    @staticmethod
    def _c_and_G(doc):
        """c and G of a JSON document; a ModelError names the bad field."""
        from .model import _field, _matrix, _typed, _vector

        _typed(doc, dict, "zonotope")
        text = _field(doc, "c", str, "")
        c = _vector(text, len(text), "c")
        return c, _matrix(doc, "G", c.dim)

    def _keep(self, c, G, *more, **vectors):
        """A public constructor's body: check G against c, set the packed
        fields from c, G and the further fields, and keep the vectors."""
        if G.rows != c.dim:
            raise DimensionError("generator rows must match center dimension")
        packed = self.from_bits(c.dim, c.bits, [g.bits for g in G.columns],
                                *more)
        self.__dict__.update(vars(packed), c=c, G=G, **vectors)

    @cached_property
    def c(self):
        return BinaryVector(self.dim, self.cbits)

    @cached_property
    def G(self):
        return columns_matrix(self.dim, self.gbits)


def columns_matrix(rows, columns):
    """The BinaryMatrix of packed int columns, each checked against rows."""
    return BinaryMatrix(rows, tuple(BinaryVector(rows, x) for x in columns))


class LogicalZonotope(PackedZonotope):
    """A logical zonotope held as packed ints (see PackedZonotope)."""

    def __init__(self, c, G):
        self._keep(c, G)

    @classmethod
    def from_json(cls, doc):
        """Read a {"c": ..., "G": [...]} document."""
        return cls(*cls._c_and_G(doc))

    @staticmethod
    def singleton(point):
        return LogicalZonotope.from_bits(point.dim, point.bits, ())

    @property
    def gamma(self):
        return len(self.gbits)


def lz_not(a: LogicalZonotope) -> LogicalZonotope:
    return LogicalZonotope.from_bits(a.dim, a.cbits ^ _ones(a), a.gbits)


def _ones(a):
    return (1 << a.dim) - 1


def and_columns(ac, ag, bc, bg):
    """Generator columns of a AND b, as packed ints, for logical and
    polynomial logical zonotopes alike, from each operand's center and
    columns: a's center & each of b's columns, b's center & each of a's,
    then every pair of columns, a's outer."""
    return ([ac & g for g in bg] + [bc & g for g in ag]
            + [g1 & g2 for g1 in ag for g2 in bg])


def check_dims(a, b):
    if a.dim != b.dim:
        raise DimensionError(f"dim {a.dim} vs {b.dim}")


def _gate(base, flip_in, flip_out):
    """DE_MORGAN's entry (base, flip_in, flip_out) in one construction: a
    complement XORs a center with all ones, and cancels on both operands
    of XOR. XOR and XNOR are exact; AND, NAND, OR and NOR over-approximate,
    the result containing every pointwise product."""
    if base is Gate.XOR:
        def gate(a, b):
            check_dims(a, b)
            c = a.cbits ^ b.cbits
            return LogicalZonotope.from_bits(
                a.dim, c ^ _ones(a) if flip_out else c, a.gbits + b.gbits)
        return gate

    def gate(a, b):
        check_dims(a, b)
        ones = _ones(a)
        ac, bc = a.cbits ^ ones * flip_in, b.cbits ^ ones * flip_in
        return LogicalZonotope.from_bits(a.dim, (ac & bc) ^ ones * flip_out,
                                         and_columns(ac, a.gbits, bc, b.gbits))
    return gate


GATES = {gate: _gate(*DE_MORGAN[gate]) for gate in Gate}
lz_xor, lz_and, lz_or, lz_xnor, lz_nand, lz_nor = itemgetter(
    Gate.XOR, Gate.AND, Gate.OR, Gate.XNOR, Gate.NAND, Gate.NOR)(GATES)


def lz_enclose_points(points) -> LogicalZonotope:
    """Zonotope containing every given point (possibly more)."""
    points = list(points)
    if not points:
        raise ValueError("at least one point required")
    c = points[0]
    if any(p.dim != c.dim for p in points):
        raise DimensionError("point dimension mismatch")
    return LogicalZonotope.from_bits(
        c.dim, c.bits, [p.bits ^ c.bits for p in points[1:]])


def lz_evaluate(a: LogicalZonotope, cap=DEFAULT_CAP) -> ExplicitSet:
    """Enumerate the represented set.

    The generators are first reduced to an independent basis, which
    preserves the set exactly, then enumerated by lz_points.
    """
    return lz_points(a.dim, a.cbits, _basis(a.gbits), cap)


def lz_points(dim, cbits, basis, cap=DEFAULT_CAP,
              what="logical zonotope set") -> ExplicitSet:
    """The set cbits xor span(basis), for independent packed int columns
    such as a reduced zonotope's: gamma of them give 2^gamma points, all
    distinct, and more than cap points raise a CapacityError naming what
    before any is built."""
    check_cap(what, 1 << len(basis), cap)
    points = [cbits]
    for g in basis:
        points += [x ^ g for x in points]
    return ExplicitSet.from_bits(dim, points)


def lz_contains(a: LogicalZonotope, point: BinaryVector) -> bool:
    if a.dim != point.dim:
        raise DimensionError(f"dim {a.dim} vs {point.dim}")
    # point is in the set iff point xor c lies in the span of the generators
    return _reduced(point.bits ^ a.cbits, _basis(a.gbits)) == 0


def lz_compact(a: LogicalZonotope) -> LogicalZonotope:
    """Drop all-zero generator columns and duplicate columns."""
    cols = dict.fromkeys(g for g in a.gbits if g)  # in first-seen order
    return LogicalZonotope.from_bits(a.dim, a.cbits, cols)


def lz_reduce(a: LogicalZonotope) -> LogicalZonotope:
    """The canonical form of a: every subset XOR of its columns is
    reachable, so its set is the center plus their span, and this keeps
    the set with the reduced echelon basis of that span (at most dim
    generators) and the center reduced against it. Zonotopes of one set
    get equal cbits and gbits."""
    basis = _basis(a.gbits)
    return LogicalZonotope.from_bits(a.dim, _reduced(a.cbits, basis), basis)


def _basis(columns):
    """The reduced echelon basis of the span of the packed int columns,
    largest leading bit first: no element holds another's leading bit.
    Elimination skips repeated columns, which always reduce to zero, and
    keeps one element per leading bit; then one ascending pass clears
    each element's bits at the smaller ones' leading bits."""
    lead = {}  # bit_length() -> the basis element with that leading bit
    for x in dict.fromkeys(columns):
        while x:
            n = x.bit_length()
            if n not in lead:
                lead[n] = x
                break
            x ^= lead[n]
    basis = []
    for n in sorted(lead):
        basis.append(_reduced(lead[n], basis))
    return basis[::-1]


def _reduced(x, basis):
    """x XORed with each echelon basis element that lowers it, in turn."""
    for g in basis:
        if x ^ g < x:
            x ^= g
    return x
