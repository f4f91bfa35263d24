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
    reference layout {60, 59, 58, 14}; a register of fewer than 3 cells
    keeps the taps it has."""
    low = max(1, round(14 * lk / 60))
    taps = [t for t in (lk, lk - 1, lk - 2) if t >= 1]
    if low not in taps:
        taps.append(low)
    return tuple(taps)


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
    """Clock the register and collect the output bit per clock.

    Cell 1 receives the feedback XOR; cell lk shifts out. Works over any
    values supporting ^: on concrete 0/1 bits it gives the keystream, and
    on the one-hot ints 1 << i it gives each stream bit's key-bit mask,
    since XOR is linear. Returns a list of length spec.lm (or `length`).
    """
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


@functools.lru_cache(maxsize=32)
def _check_plan(spec, length):
    """The key search's checks: per step j, (mask_i, i) for each stream
    bit i whose highest key bit is j, or 1 if none is above 1, so every
    stream bit sits in exactly one of steps 1..lk-1. One plan serves every
    search under the same register and message length."""
    at_step = [[] for _ in range(spec.lk)]
    one_hot = [1 << i for i in range(spec.lk)]
    for i, mask in enumerate(lfsr_keystream(spec, one_hot, length)):
        at_step[max(mask.bit_length() - 1, 1)].append((mask, i))
    return tuple(map(tuple, at_step))


def lfsr_recover_key(spec, message, cipher, *, instrument=None):
    """Exhaustive key search over per-bit key sets.

    The first two key bits are tried over their four combinations. Each
    remaining bit j is tentatively fixed to 0 while bits j+1.. stay the
    full set {0, 1}; if the cipher-bit sets generated under that
    assumption fail to contain the observed ciphertext, bit j must be 1.
    XOR is exact over these sets, so stream bit i is the parity of
    mask_i & key, where mask_i comes from clocking the register on the
    one-hot key masks 1 << i: a single value once the highest key bit in
    mask_i is fixed and {0, 1} before. Step 1 (the first two bits) and
    each step j after it check only the stream bits they fix, each one int
    parity against m_i ^ c_i. Every stream bit is checked at exactly one
    step, so a candidate that passed every check reproduces the
    ciphertext. The masks, grouped by step, are built once per register
    and message length (`_check_plan`) and shared by every search under
    them. Without an `instrument`, a branch ends at its first failed
    check; with one, it runs over every bit and reports bits 0..j of the
    key, then None for each bit above j.
    """
    message = list(message)
    cipher = list(cipher)
    if len(message) != len(cipher):
        raise ValueError("message and ciphertext lengths differ")
    plan = _check_plan(spec, len(message))
    mc = [m ^ c for m, c in zip(message, cipher)]

    def holds(j, key):
        for mask, i in plan[j]:
            if (mask & key).bit_count() & 1 != mc[i]:
                return False
        return True

    for first_two in range(4):
        key = first_two
        ok = holds(1, key)  # every stream bit fixed so far matches
        for j in range(2, spec.lk):
            if not (ok and holds(j, key)):
                key |= 1 << j
                ok = ok and holds(j, key)
            if instrument is not None:
                bits = [(key >> i) & 1 for i in range(j + 1)]
                instrument(first_two, j, bits + [None] * (spec.lk - 1 - j))
            elif not ok:
                break
        if ok:
            return BinaryVector(spec.lk, key)
    raise SearchFailure("no key reproduces the ciphertext; check the taps "
                        "and message length")
