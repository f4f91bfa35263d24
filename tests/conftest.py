import random

import pytest
from hypothesis import strategies as st

from logizono.binvec import BinaryMatrix, BinaryVector
from logizono.logical import LogicalZonotope
from logizono.model import parse_model
from logizono.poly import PolyLogicalZonotope, unique_id


GATES = ["^", "&", "|"]
FUNCS = ["NAND", "NOR", "XNOR"]


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


def random_lane_model(rng, wide=False, width=None):
    """Random model with mixed widths, per-step and constant inputs,
    constants and primed references.

    Every operand of an update has the width of the variable it updates,
    and the updates run in a shuffled order. With wide=True one or two
    state variables are 66-72 bits, so the joint vector is wider than 64
    bits. With width set, the state variables split exactly that many
    joint bits between them.
    """
    horizon = 4
    n_state = rng.randint(1, 3)
    # mostly one shared width, so primed references have operands to match
    shared = rng.randint(1, 3)
    dims = [shared if rng.random() < 0.7 else rng.randint(1, 3)
            for _ in range(n_state)]
    if wide:
        dims = [rng.randint(66, 72)] * rng.randint(1, 2) + dims[1:]
        n_state = len(dims)
    if width:
        cuts = sorted(rng.sample(range(1, width), n_state - 1))
        dims = [b - a for a, b in zip([0, *cuts], [*cuts, width])]

    def vectors(dim, count):
        return sorted({format(rng.getrandbits(dim), f"0{dim}b")
                       for _ in range(count)})

    doc = {"vars": [], "updates": {}, "order": []}
    names = [f"s{i}" for i in range(n_state)]
    for name, dim in zip(names, dims):
        doc["vars"].append({"name": name, "role": "state", "dim": dim,
                            "init": vectors(dim, rng.randint(1, 4))})
    for i, dim in enumerate(dims):
        var = {"name": f"u{i}", "role": "input", "dim": dim}
        if rng.random() < 0.5:
            var["set"] = vectors(dim, rng.randint(1, 3))
        else:
            var["steps"] = [vectors(dim, rng.randint(1, 3))
                            for _ in range(horizon)]
        doc["vars"].append(var)
    order = names[:]
    rng.shuffle(order)

    def expr(dim, done, depth):
        if depth == 0 or rng.random() < 0.3:
            if done and rng.random() < 0.3:
                return rng.choice(done) + "'"
            refs = [n for n, d in zip(names, dims) if d == dim]
            refs += [f"u{i}" for i, d in enumerate(dims) if d == dim]
            choice = rng.randrange(len(refs) + 1)
            if choice == len(refs):
                return format(rng.getrandbits(dim), f"0{dim}b")
            return refs[choice]
        pick = rng.random()
        if pick < 0.2:
            return "!" + expr(dim, done, depth - 1)
        a = expr(dim, done, depth - 1)
        b = expr(dim, done, depth - 1)
        if pick < 0.4:
            return f"{rng.choice(FUNCS)}({a}, {b})"
        return f"({a} {rng.choice(GATES)} {b})"

    done = []
    for name in order:
        dim = dims[names.index(name)]
        doc["updates"][name] = expr(
            dim, [n for n in done if dims[names.index(n)] == dim], 3)
        done.append(name)
    doc["order"] = order
    return parse_model(doc), horizon
