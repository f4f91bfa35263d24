import random

import pytest
from hypothesis import strategies as st

from logizono.binvec import BinaryMatrix, BinaryVector
from logizono.logical import LogicalZonotope
from logizono.poly import PolyLogicalZonotope, unique_id


def bv(n, bits):
    return BinaryVector(n, bits)


@pytest.fixture
def built(monkeypatch):
    """A one-item list holding the count of BinaryVectors built since."""
    count = [0]
    post_init = BinaryVector.__post_init__

    def counted(vec):
        count[0] += 1
        post_init(vec)

    monkeypatch.setattr(BinaryVector, "__post_init__", counted)
    return count


@st.composite
def binary_vectors(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    return BinaryVector(n, draw(st.integers(0, (1 << n) - 1)))


@st.composite
def vector_pairs(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    bits = st.integers(0, (1 << n) - 1)
    return BinaryVector(n, draw(bits)), BinaryVector(n, draw(bits))


@st.composite
def logical_zonotopes(draw, n=None, max_dim=4, max_gamma=3):
    if n is None:
        n = draw(st.integers(1, max_dim))
    bits = st.integers(0, (1 << n) - 1)
    gamma = draw(st.integers(0, max_gamma))
    cols = tuple(BinaryVector(n, draw(bits)) for _ in range(gamma))
    return LogicalZonotope(BinaryVector(n, draw(bits)), BinaryMatrix(n, cols))


@st.composite
def lz_pairs(draw, max_dim=4, max_gamma=3):
    n = draw(st.integers(1, max_dim))
    return (draw(logical_zonotopes(n=n, max_gamma=max_gamma)),
            draw(logical_zonotopes(n=n, max_gamma=max_gamma)))


@st.composite
def poly_zonotopes(draw, n=None, max_dim=4, max_h=3, max_p=3):
    if n is None:
        n = draw(st.integers(1, max_dim))
    h = draw(st.integers(0, max_h))
    p = draw(st.integers(0, max_p))
    nbits = st.integers(0, (1 << n) - 1)
    pbits = st.integers(0, (1 << p) - 1)
    gcols = tuple(BinaryVector(n, draw(nbits)) for _ in range(h))
    ecols = tuple(BinaryVector(p, draw(pbits)) for _ in range(h))
    return PolyLogicalZonotope(
        BinaryVector(n, draw(nbits)), BinaryMatrix(n, gcols),
        BinaryMatrix(p, ecols), unique_id(p))


@st.composite
def pz_pairs(draw, max_dim=4, max_h=3, max_p=3):
    n = draw(st.integers(1, max_dim))
    return (draw(poly_zonotopes(n=n, max_h=max_h, max_p=max_p)),
            draw(poly_zonotopes(n=n, max_h=max_h, max_p=max_p)))


def random_pz(rng: random.Random, n, max_h=3, max_p=3):
    h = rng.randint(0, max_h)
    p = rng.randint(0, max_p)
    gcols = tuple(BinaryVector(n, rng.getrandbits(n)) for _ in range(h))
    ecols = tuple(BinaryVector(p, rng.getrandbits(p)) for _ in range(h))
    return PolyLogicalZonotope(
        BinaryVector(n, rng.getrandbits(n)), BinaryMatrix(n, gcols),
        BinaryMatrix(p, ecols), unique_id(p))


def random_lz(rng: random.Random, n, max_gamma=3):
    gamma = rng.randint(0, max_gamma)
    cols = tuple(BinaryVector(n, rng.getrandbits(n)) for _ in range(gamma))
    return LogicalZonotope(BinaryVector(n, rng.getrandbits(n)),
                           BinaryMatrix(n, cols))
