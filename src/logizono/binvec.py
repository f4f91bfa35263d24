"""Bit-exact binary vectors and matrices over {0, 1}.

Vectors are immutable and bit-packed into a single Python integer,
least-significant-bit first. The textual form is a string of '0'/'1'
characters with index 1 leftmost, matching model files and CLI output.
"""

from __future__ import annotations

import enum
from operator import attrgetter

from .errors import DimensionError


class Value:
    """The base of the immutable value classes. A subclass names its fields
    in _fields and sets them with _init. Those in _compared, all by
    default, give the repr, the hash and equality, which also needs the
    same class. Pickling and copying call the constructor on every field,
    or from_bits where the constructor takes vectors. Unlike dataclasses,
    it generates no code at import."""

    __slots__ = ()

    def __init_subclass__(cls):
        if "_fields" in vars(cls):  # else the parent's hold
            cls._compared = vars(cls).get("_compared", cls._fields)
            cls._key = property(attrgetter(*cls._compared))

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "{}({})".format(type(self).__name__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._compared))

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Gate(enum.Enum):
    XOR = "xor"
    AND = "and"
    OR = "or"
    XNOR = "xnor"
    NAND = "nand"
    NOR = "nor"
    __hash__ = object.__hash__  # members are singletons: hash by identity


# each gate as (base, flip_in, flip_out): AND or XOR over both operands
# complemented when flip_in, with the result complemented when flip_out
DE_MORGAN = {
    Gate.XOR: (Gate.XOR, 0, 0), Gate.AND: (Gate.AND, 0, 0),
    Gate.OR: (Gate.AND, 1, 1), Gate.XNOR: (Gate.XOR, 0, 1),
    Gate.NAND: (Gate.AND, 0, 1), Gate.NOR: (Gate.AND, 1, 0),
}


def _mask(dim):
    return (1 << dim) - 1


class BinaryVector(Value):
    __slots__ = _fields = ("dim", "bits")

    def __init__(self, dim, bits):
        # the oracle builds many vectors: set the two slots without _init
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bits", bits)
        self.__post_init__()

    def __post_init__(self):
        # dim 0 is permitted so factor-free exponent matrices can still
        # carry one column per generator
        if self.dim < 0:
            raise DimensionError("vector dimension must be >= 0")
        if not 0 <= self.bits <= _mask(self.dim):
            raise ValueError("payload has bits outside the declared dimension")

    @staticmethod
    def from_bits(values):
        values = list(values)
        bits = 0
        for i, v in enumerate(values):
            if v not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            bits |= v << i
        return BinaryVector(len(values), bits)

    @staticmethod
    def from_string(text):
        return BinaryVector.from_bits(int(ch) for ch in text.strip())

    @staticmethod
    def zeros(dim):
        return BinaryVector(dim, 0)

    @staticmethod
    def ones(dim):
        return BinaryVector(dim, _mask(dim))

    def __getitem__(self, i):
        if not 0 <= i < self.dim:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __iter__(self):
        return iter((self.bits >> i) & 1 for i in range(self.dim))

    def to_string(self):
        return "".join(str(b) for b in self)

    def __str__(self):
        return self.to_string()

    def is_zero(self):
        return self.bits == 0


# the gates over packed ints, one bitwise operation each, with a native OR
# rather than DE_MORGAN's AND of complements; m is the all-ones mask of the
# operands' width (in every lane, when an int packs many lanes)
INT_GATES = {
    Gate.AND: lambda a, b, m: a & b,
    Gate.XOR: lambda a, b, m: a ^ b,
    Gate.OR: lambda a, b, m: a | b,
    Gate.NAND: lambda a, b, m: (a & b) ^ m,
    Gate.NOR: lambda a, b, m: (a | b) ^ m,
    Gate.XNOR: lambda a, b, m: a ^ b ^ m,
}


def bv_op(a: BinaryVector, b: BinaryVector, gate: Gate) -> BinaryVector:
    """Apply a two-input gate elementwise."""
    if a.dim != b.dim:
        raise DimensionError(f"dim {a.dim} vs {b.dim}")
    return BinaryVector(a.dim, INT_GATES[gate](a.bits, b.bits, _mask(a.dim)))


def bv_not(a: BinaryVector) -> BinaryVector:
    return BinaryVector(a.dim, ~a.bits & _mask(a.dim))


class BinaryMatrix(Value):
    """A column-major binary matrix; columns are BinaryVectors of dim rows."""

    __slots__ = _fields = ("rows", "columns")

    def __init__(self, rows, columns):
        for col in columns:
            if col.dim != rows:
                raise DimensionError("column dimension does not match row count")
        self._init(rows, columns)

    @property
    def cols(self):
        return len(self.columns)

    def col(self, i):
        return self.columns[i]

    def hstack(self, other):
        if other.rows != self.rows:
            raise DimensionError("row counts differ")
        return BinaryMatrix(self.rows, self.columns + other.columns)

    def to_strings(self):
        return [col.to_string() for col in self.columns]
