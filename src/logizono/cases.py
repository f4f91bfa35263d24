"""Ready-made case studies, defined only here: the MODELS bundled for
`logizono reach --model NAME` (the intersection protocol, and boolean10:
seed 0 of an n-bit Boolean function family), and LFSR key search."""

from __future__ import annotations

import functools
import random

from .binvec import BinaryVector, Value
from .errors import ModelError, SearchFailure
from .model import Model, parse_model


def intersection_document() -> dict:
    """Model document for the four-vehicle crossing protocol.

    Each vehicle i has a passing flag p_i and a came-first flag c_i:
        p_i(k+1) = up_i(k) & !p_i(k) & !c_i(k)
        c_i(k+1) = !p_i(k+1) & (uc_i(k) | (!p_i(k) & p_i(k+1)))
    Vehicles 1 and 3 may request to pass (up free); 2 and 4 never do.
    Initially vehicle 1 is passing and came first, vehicle 3 is neither,
    and vehicles 2 and 4 are unknown.
    """
    doc = {"vars": [], "updates": {}, "order": []}
    init_p = {1: ["1"], 2: ["0", "1"], 3: ["0"], 4: ["0", "1"]}
    for i in (1, 2, 3, 4):
        doc["vars"].append({"name": f"p{i}", "role": "state", "dim": 1,
                            "init": init_p[i]})
    for i in (1, 2, 3, 4):
        doc["vars"].append({"name": f"c{i}", "role": "state", "dim": 1,
                            "init": init_p[i]})
    for i in (1, 2, 3, 4):
        doc["vars"].append({"name": f"up{i}", "role": "input", "dim": 1,
                            "set": ["0", "1"] if i in (1, 3) else ["0"]})
        doc["vars"].append({"name": f"uc{i}", "role": "input", "dim": 1,
                            "set": ["0", "1"]})
    for i in (1, 2, 3, 4):
        doc["updates"][f"p{i}"] = f"up{i} & !p{i} & !c{i}"
        doc["updates"][f"c{i}"] = f"!p{i}' & (uc{i} | (!p{i} & p{i}'))"
        doc["order"].append(f"p{i}")
    doc["order"] += [f"c{i}" for i in (1, 2, 3, 4)]
    return doc


def intersection_model() -> Model:
    return parse_model(intersection_document())


def boolean_document(seed, n=10, steps=8) -> dict:
    """Model document for three coupled n-bit maps with two-valued
    initial and input sets.

    The update structure is fixed; the concrete vectors are drawn from
    the seed so runs are reproducible. Input sets are re-drawn per step.
    """
    if n < 1:
        raise ModelError(f"n: must be at least 1, found {n}")
    rng = random.Random(seed)

    def draw_pair():
        a = rng.getrandbits(n)
        b = rng.getrandbits(n)
        while b == a:
            b = rng.getrandbits(n)
        return [format(a, f"0{n}b"), format(b, f"0{n}b")]

    doc = {"vars": [], "updates": {}, "order": ["B1", "B2", "B3"]}
    for name in ("B1", "B2", "B3"):
        doc["vars"].append({"name": name, "role": "state", "dim": n,
                            "init": draw_pair()})
    for name in ("U1", "U2", "U3"):
        doc["vars"].append({"name": name, "role": "input", "dim": n,
                            "steps": [draw_pair() for _ in range(steps)]})
    doc["updates"]["B1"] = "U1 | XNOR(B2, B1)"
    doc["updates"]["B2"] = "XNOR(B2, B1 & U2)"
    doc["updates"]["B3"] = "NAND(B3, XNOR(U2, U3))"
    doc["seed"] = seed
    return doc


def boolean10_document(seed, steps=8) -> dict:
    return boolean_document(seed, 10, steps)


def boolean10_model(seed, steps=8) -> Model:
    return parse_model(boolean10_document(seed, steps))


MODELS = {"intersection": intersection_document,
          "boolean10": lambda: boolean10_document(0)}


# --- LFSR -------------------------------------------------------------------

def default_taps(lk):
    """Feedback taps for a register of lk cells, scaled from the 60-bit
    reference layout {60, 59, 58, 14}. Below 4 cells the taps are the top
    two: at lk = 3 the scaled 3/2/1 feed back an odd number of cells and
    the default output taps read an even one, so a key and its complement
    would share a keystream; 3/2 (x^3 + x^2 + 1) tells all keys apart."""
    if lk < 4:
        return (lk, lk - 1)
    return (lk, lk - 1, lk - 2, max(1, round(14 * lk / 60)))


class LfsrSpec(Value):
    __slots__ = _fields = ("lk", "taps", "out_taps", "lm")

    def __init__(self, lk=60, taps=None, out_taps=None, lm=None):
        if lk < 2:
            raise ValueError(f"register length {lk}: at least 2 cells")
        taps = default_taps(lk) if taps is None else tuple(taps)
        out_taps = (lk, lk - 1) if out_taps is None else tuple(out_taps)
        lm = 2 * lk if lm is None else lm
        if lm < 1:
            raise ValueError(f"message length {lm}: at least 1 bit")
        if not (taps and out_taps):
            raise ValueError("feedback and output taps must be non-empty")
        for t in taps + out_taps:
            if not 1 <= t <= lk:
                raise ValueError(f"tap {t} outside 1..{lk}")
        self._init(lk, taps, out_taps, lm)

    @staticmethod
    def scaled(lk, lm=None):
        return LfsrSpec(lk, lm=lm)


def lfsr_keystream(spec, key, length=None):
    """The output bit per clock for spec.lm (or `length`) clocks, over any
    values supporting ^: cell 1 takes the feedback XOR, cell lk shifts out."""
    length = spec.lm if length is None else max(length, 0)
    if len(key) != spec.lk:
        raise ValueError(f"key width {len(key)} != {spec.lk}")
    lk = spec.lk
    # the register as one sequence: cell j at clock k is seq[k + lk - j],
    # and each clock appends seq[n], the XOR of seq[n - t] over the taps
    seq = list(key)[::-1]
    tap0, *taps = spec.taps
    for n in range(lk, lk + length):
        fb = seq[n - tap0]
        for t in taps:
            fb ^= seq[n - t]
        seq.append(fb)
    out0, *outs = [lk - t for t in spec.out_taps]
    out = seq[out0:out0 + length]
    for o in outs:
        out = [a ^ b for a, b in zip(out, seq[o:o + length])]
    return out


def lfsr_encrypt(spec, key, message):
    """XOR each message bit with the corresponding keystream bit."""
    stream = lfsr_keystream(spec, key, len(message))
    return [m ^ s for m, s in zip(message, stream)]


_BITS, _DIGITS = frozenset((0, 1)), bytes.maketrans(b"\0\1", b"01")


def _packed(bits, name):
    """`bits`, each the int 0 or 1, as one int with entry i at bit i."""
    try:
        raw = bytes(bits)
    except (TypeError, ValueError):  # a float, or an int outside a byte
        raw = b"\2"
    if raw.translate(None, b"\0\1"):
        i = next(i for i, b in enumerate(bits)
                 if b not in _BITS or not hasattr(b, "__index__"))
        raise ValueError(f"{name}[{i}] = {bits[i]!r}: expected 0 or 1")
    return int(b"0" + raw.translate(_DIGITS)[::-1], 2)


def _solve(pivots, d):
    """The search's GF(2)-linear pass over d: returns (key, residual)."""
    key = 0
    for bit, pivot, col in pivots:
        if d & pivot:
            key |= bit
            d ^= col
    return key, d


@functools.lru_cache(maxsize=32)
def _check_plan(spec, length):
    """The key search's tests on `length` stream bits, stream bit i as bit i
    of lk ints: cols[b] for the bits that read key bit b, steps[j] for those
    whose highest key bit is j (1 if none is above 1). A clock moves key bit
    b - 1 into key bit b's cell, fed back if that cell is tapped an odd
    number of times: cols[b] is cols[b - 1] a clock on, ^ cols[0] if fed.
    Each step j > 1 with stream bits gets a pivot (1 << j, its lowest bit,
    cols[j]); offsets[b] is `_solve` on branch b's two columns, key | b."""
    cols = [_packed(lfsr_keystream(spec, [1] + [0] * (spec.lk - 1),
                                   length + spec.lk - 1), "stream")]
    for b in range(1, spec.lk):
        cols.append(cols[-1] >> 1 ^ cols[0] * (spec.taps.count(b) & 1))
    full = (1 << length) - 1
    cols = tuple(c & full for c in cols)
    steps, above = [0] * spec.lk, 0
    for j in range(spec.lk - 1, 1, -1):
        steps[j], above = cols[j] & ~above, above | cols[j]
    steps[1] = full & ~above
    pivots = tuple((1 << j, s & -s, cols[j])
                   for j, s in enumerate(steps) if j > 1 and s)
    (k0, r0), (k1, r1) = _solve(pivots, cols[0]), _solve(pivots, cols[1])
    offsets = ((0, 0), (1 | k0, r0), (2 | k1, r1), (3 | k0 ^ k1, r0 ^ r1))
    return cols, tuple(steps), pivots, offsets


def lfsr_recover_key(spec, message, cipher, *, instrument=None):
    """Exhaustive key search over per-bit key sets.

    The first two key bits are tried over their four combinations. Each
    later bit j is tentatively 0 while bits j+1.. stay {0, 1}; if the
    cipher-bit sets under that assumption miss the ciphertext, bit j is 1.
    That test reads `_check_plan`'s steps[j] after XORing in the columns
    of the set bits, so a branch is one linear pass, `_solve`: the pass on
    message XOR cipher plus the branch's offset. The first branch with a
    zero residual gives the key. An `instrument` gets bits 0..j, then None,
    at step j of each branch tried, bits from its first failed step on 1.
    """
    message, cipher = list(message), list(cipher)
    if len(message) != len(cipher):
        raise ValueError("message and ciphertext lengths differ")
    mc = _packed(message, "message") ^ _packed(cipher, "cipher")
    _, steps, pivots, offsets = _check_plan(spec, len(message))
    found, d = _solve(pivots, mc)
    for first_two, (key, residual) in enumerate(offsets):
        key, residual = key ^ found, residual ^ d
        if instrument is not None:
            lk = spec.lk
            f = next((j for j in range(1, lk) if residual & steps[j]), lk)
            bits = [key >> i & 1 if i < max(f, 2) else 1 for i in range(lk)]
            for j in range(2, lk):
                instrument(first_two, j, bits[:j + 1] + [None] * (lk - 1 - j))
        if not residual:
            return BinaryVector(spec.lk, key)
    raise SearchFailure("no key reproduces the ciphertext; check the taps "
                        "and message length")
