"""Logical zonotopes: center plus independent binary generators.

The represented set is { c xor (xor_i g_i b_i) : b in {0,1}^gamma }.
XOR, NOT and XNOR are exact in generator space; AND (and the gates
derived from it) over-approximate, never missing a point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binvec import BinaryMatrix, BinaryVector, Gate, bv_not, bv_op
from .errors import DEFAULT_CAP, DimensionError, check_cap
from .explicit import ExplicitSet


@dataclass(frozen=True)
class LogicalZonotope:
    c: BinaryVector
    G: BinaryMatrix

    def __post_init__(self):
        if self.G.rows != self.c.dim:
            raise DimensionError("generator rows must match center dimension")

    @staticmethod
    def singleton(point):
        return LogicalZonotope(point, BinaryMatrix.empty(point.dim))

    @property
    def dim(self):
        return self.c.dim

    @property
    def gamma(self):
        return self.G.cols


def _check(a, b):
    if a.dim != b.dim:
        raise DimensionError(f"dim {a.dim} vs {b.dim}")


def lz_xor(a: LogicalZonotope, b: LogicalZonotope) -> LogicalZonotope:
    _check(a, b)
    return LogicalZonotope(bv_op(a.c, b.c, Gate.XOR), a.G.hstack(b.G))


def lz_not(a: LogicalZonotope) -> LogicalZonotope:
    return LogicalZonotope(bv_not(a.c), a.G)


def lz_xnor(a, b):
    return lz_not(lz_xor(a, b))


def lz_and(a: LogicalZonotope, b: LogicalZonotope) -> LogicalZonotope:
    """Over-approximating AND; the result contains every pointwise product."""
    _check(a, b)
    return LogicalZonotope(bv_op(a.c, b.c, Gate.AND), and_generators(a, b))


def and_generators(a, b):
    """Generator columns of a AND b, for logical and polynomial logical
    zonotopes alike: a.c & each of b's generators, b.c & each of a's, then
    every pair of generators, a's outer."""
    cols = []
    for g in b.G.columns:
        cols.append(bv_op(a.c, g, Gate.AND))
    for g in a.G.columns:
        cols.append(bv_op(b.c, g, Gate.AND))
    for g1 in a.G.columns:
        for g2 in b.G.columns:
            cols.append(bv_op(g1, g2, Gate.AND))
    return BinaryMatrix(a.dim, tuple(cols))


def lz_nand(a, b):
    return lz_not(lz_and(a, b))


def lz_or(a, b):
    return lz_nand(lz_not(a), lz_not(b))


def lz_nor(a, b):
    return lz_not(lz_or(a, b))


def lz_enclose_points(points) -> LogicalZonotope:
    """Zonotope containing every given point (possibly more)."""
    points = list(points)
    if not points:
        raise ValueError("at least one point required")
    c = points[0]
    cols = [bv_op(s, c, Gate.XOR) for s in points[1:]]
    return LogicalZonotope(c, BinaryMatrix(c.dim, tuple(cols)))


def lz_evaluate(a: LogicalZonotope, cap=DEFAULT_CAP) -> ExplicitSet:
    """Enumerate the represented set.

    The generators are first reduced to an independent basis, which
    preserves the set exactly; gamma independent generators give 2^gamma
    points, and more than cap points raise CapacityError before any is
    built.
    """
    basis = _basis(a)
    check_cap("logical zonotope set", 1 << len(basis), cap)
    points = {a.c.bits}
    for g in basis:
        points |= {x ^ g for x in points}
    return ExplicitSet.from_bits(a.dim, points)


def lz_contains(a: LogicalZonotope, point: BinaryVector) -> bool:
    if a.dim != point.dim:
        raise DimensionError(f"dim {a.dim} vs {point.dim}")
    # point is in the set iff point xor c lies in the span of the generators
    x = point.bits ^ a.c.bits
    for g in _basis(a):
        x = min(x, x ^ g)
    return x == 0


def lz_compact(a: LogicalZonotope) -> LogicalZonotope:
    """Drop all-zero generator columns and duplicate columns."""
    cols = {g.bits: g for g in a.G.columns if g.bits}  # in first-seen order
    return LogicalZonotope(a.c, BinaryMatrix(a.dim, tuple(cols.values())))


def lz_reduce(a: LogicalZonotope) -> LogicalZonotope:
    """Replace the generators by an independent basis of their span.

    Because every subset XOR of generator columns is reachable, the
    represented set is the affine span of the columns shifted by the
    center, so this preserves the set exactly while bounding the
    generator count by the dimension.
    """
    cols = tuple(BinaryVector(a.dim, b) for b in _basis(a))
    return LogicalZonotope(a.c, BinaryMatrix(a.dim, cols))


def _basis(a):
    """An independent basis of the span of a's generators, as packed ints,
    largest first."""
    basis = []
    for g in a.G.columns:
        x = g.bits
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
            basis.sort(reverse=True)
    return basis
