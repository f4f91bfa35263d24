"""Logical zonotopes: center plus independent binary generators.

The represented set is { c xor (xor_i g_i b_i) : b in {0,1}^gamma }.
XOR, NOT and XNOR are exact in generator space; AND (and the gates
derived from it) over-approximate, never missing a point. Each gate is
built from its binvec.DE_MORGAN entry in one construction: XNOR is XOR
with the center flipped, and NAND, OR and NOR are each one AND, on the
operands or their complements.

Each construction is a core on packed pairs (cbits, columns): GATES wraps
it for LogicalZonotopes and packed_ops(dim) hands it to model.compile_expr.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from operator import itemgetter
from types import MappingProxyType

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
    return LogicalZonotope.from_bits(a.dim, a.cbits ^ ((1 << a.dim) - 1),
                                     a.gbits)


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


def _core(base, flip_in, flip_out, ones, a, b):
    """DE_MORGAN's entry (base, flip_in, flip_out) in one construction on
    packed pairs (cbits, columns) of the width whose all-ones int is ones:
    a complement XORs a center with ones, and cancels on both operands of
    XOR. XOR and XNOR are exact; AND, NAND, OR and NOR over-approximate,
    the result containing every pointwise product."""
    if base is Gate.XOR:
        return a[0] ^ b[0] ^ ones * flip_out, [*a[1], *b[1]]
    ac, bc = a[0] ^ ones * flip_in, b[0] ^ ones * flip_in
    return (ac & bc) ^ ones * flip_out, and_columns(ac, a[1], bc, b[1])


@cache
def packed_ops(dim):
    """model.compile_expr's const, not_ and gates on packed pairs of width
    dim, built once per width and shared, so the gates come read-only."""
    ones = (1 << dim) - 1
    return (lambda value: (value.bits, ()), lambda a: (a[0] ^ ones, a[1]),
            MappingProxyType({gate: partial(_core, *DE_MORGAN[gate], ones)
                              for gate in Gate}))


def _gate(gate, a, b):
    check_dims(a, b)
    return LogicalZonotope.from_bits(a.dim, *packed_ops(a.dim)[2][gate](
        (a.cbits, a.gbits), (b.cbits, b.gbits)))


GATES = {gate: partial(_gate, gate) for gate in Gate}
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


def packed_points(points):
    """lz_reduce(lz_enclose_points(points))'s set as a packed pair, in an
    echelon basis of the points' differences from the first; unchecked."""
    c = points[0].bits
    return c, _echelon([p.bits ^ c for p in points[1:]])


def lz_evaluate(a: LogicalZonotope, cap=DEFAULT_CAP) -> ExplicitSet:
    """Enumerate the represented set: lz_points over an echelon basis of
    the columns, which spans the same set."""
    return lz_points(a.dim, a.cbits, _echelon(a.gbits), cap)


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
    return LogicalZonotope.from_bits(a.dim, *_canonical(a.cbits, a.gbits))


def _canonical(cbits, columns):
    """(cbits, columns) as lz_reduce gives them."""
    basis = _basis(columns)
    return _reduced(cbits, basis), basis


def _echelon(columns):
    """An echelon basis of the span of the packed int columns, in no set
    order: elimination alone, skipping repeats, which reduce to zero."""
    if len(columns) < 2:
        return [x for x in columns if x]
    lead = {}  # bit_length() -> the basis element with that leading bit
    for x in set(columns):
        while x:
            n = x.bit_length()
            if n not in lead:
                lead[n] = x
                break
            x ^= lead[n]
    return list(lead.values())


def _basis(columns):
    """The reduced echelon basis of the span of the packed int columns,
    largest leading bit first: _echelon's, after one ascending pass that
    clears each element's bits at the smaller ones' leading bits."""
    basis = []
    for x in sorted(_echelon(columns)):
        basis.append(_reduced(x, basis))
    return basis[::-1]


def _reduced(x, basis):
    """x XORed with each echelon basis element that lowers it, in turn."""
    for g in basis:
        if x ^ g < x:
            x ^= g
    return x
