import functools
import operator
import random

import pytest

from logizono.binvec import BinaryVector
from logizono import cases
from logizono.cases import (LfsrSpec, boolean10_document, boolean10_model,
                            boolean_document, default_taps,
                            intersection_model, lfsr_encrypt,
                            lfsr_keystream, lfsr_recover_key)
from logizono.errors import ModelError, SearchFailure
from logizono.reach import reach


# --- intersection protocol --------------------------------------------------

def test_intersection_model_structure():
    model = intersection_model()
    names = [v.name for v in model.state_vars]
    assert names == [f"p{i}" for i in (1, 2, 3, 4)] + \
        [f"c{i}" for i in (1, 2, 3, 4)]
    assert model.order == tuple(names)
    assert len(model.input_vars) == 8
    # vehicle 1 starts out passing, vehicle 3 does not, 2 and 4 unknown
    assert model.state("p1").init == (BinaryVector.from_string("1"),)
    assert model.state("p3").init == (BinaryVector.from_string("0"),)
    assert len(model.state("p2").init) == 2


def test_intersection_silent_vehicles_never_pass():
    # vehicles 2 and 4 never request to pass, so their passing flag is 0
    # from the first step onward
    model = intersection_model()
    res = reach(model, 3, "explicit")
    zero = frozenset({BinaryVector.from_string("0")})
    for rec in res.records[1:]:
        assert rec.var_sets["p2"].points == zero
        assert rec.var_sets["p4"].points == zero
    assert res.sizes()[0] == 16


def test_intersection_exact_tracks_oracle():
    model = intersection_model()
    oracle = reach(model, 3, "explicit")
    exact = reach(model, 3, "poly", "exact")
    assert exact.sizes() == oracle.sizes()


# --- 10-bit Boolean function family -----------------------------------------

def test_boolean10_reproducible():
    d1 = boolean10_document(42)
    d2 = boolean10_document(42)
    d3 = boolean10_document(43)
    assert d1 == d2
    assert d1 != d3
    assert d1["seed"] == 42


def test_boolean_document_at_ten_bits_is_boolean10():
    for seed in range(10):
        assert boolean_document(seed, 10) == boolean10_document(seed)
        assert boolean_document(seed, 10, 3) == boolean10_document(seed, 3)


def test_boolean_document_width():
    def pairs(doc):
        for v in doc["vars"]:
            yield from [v["init"]] if "init" in v else v["steps"]

    doc = boolean_document(5, 33, steps=2)
    assert {v["dim"] for v in doc["vars"]} == {33}
    for pair in pairs(doc):
        assert len(set(pair)) == 2 and {len(b) for b in pair} == {33}
    # one bit still draws two distinct values; zero bits have none
    assert all(sorted(p) == ["0", "1"] for p in pairs(boolean_document(0, 1)))
    with pytest.raises(ModelError):
        boolean_document(0, 0)


def test_boolean10_shape():
    model = boolean10_model(0, steps=4)
    assert [v.name for v in model.state_vars] == ["B1", "B2", "B3"]
    for v in model.state_vars:
        assert v.dim == 10
        assert len(v.init) == 2
    for v in model.input_vars:
        assert len(v.per_step) == 4
        assert all(len(s) == 2 for s in v.per_step)


def test_boolean10_poly_exact_matches_oracle():
    model = boolean10_model(1, steps=3)
    oracle = reach(model, 2, "explicit")
    exact = reach(model, 2, "poly", "exact")
    assert exact.sizes() == oracle.sizes()
    mink = reach(model, 2, "poly", "minkowski")
    logical = reach(model, 2, "logical", cap=2**40)
    for k in range(3):
        assert mink.record(k).joint_size >= oracle.record(k).joint_size
        assert logical.record(k).joint_size >= mink.record(k).joint_size


# --- LFSR -------------------------------------------------------------------

def reference_keystream(spec, key):
    """Independent register simulation using explicit index arithmetic."""
    cells = {j: key[j - 1] for j in range(1, spec.lk + 1)}
    out = []
    for _ in range(spec.lm):
        bit = 0
        for t in spec.out_taps:
            bit ^= cells[t]
        fb = 0
        for t in spec.taps:
            fb ^= cells[t]
        out.append(bit)
        for j in range(spec.lk, 1, -1):
            cells[j] = cells[j - 1]
        cells[1] = fb
    return out


class AffineBit:
    """A 1-bit set: a constant XORed with a span of free key bits.

    This is a 1-bit logical zonotope whose generators are the free key
    bits touching the value, kept as a bitmask so repeated contributions
    cancel exactly under XOR. The represented set is {const} when the
    mask is empty and {0, 1} otherwise.
    """

    __slots__ = ("const", "mask")

    def __init__(self, const, mask=0):
        self.const = const & 1
        self.mask = mask

    def __xor__(self, other):
        if isinstance(other, AffineBit):
            return AffineBit(self.const ^ other.const, self.mask ^ other.mask)
        return AffineBit(self.const ^ (other & 1), self.mask)

    __rxor__ = __xor__

    def contains(self, bit):
        return bool(self.mask) or self.const == bit


def key_bit_sets(bits):
    """Per-bit AffineBits from a list of 0, 1, or None (meaning {0, 1})."""
    return [AffineBit(0, 1 << i) if b is None else AffineBit(b)
            for i, b in enumerate(bits)]


def test_keystream_matches_reference():
    rng = random.Random(9)
    for lk in (8, 16, 60):
        spec = LfsrSpec.scaled(lk)
        key = [rng.getrandbits(1) for _ in range(lk)]
        assert lfsr_keystream(spec, key) == reference_keystream(spec, key)


def test_default_taps():
    assert default_taps(60) == (60, 59, 58, 14)
    assert default_taps(3) == (3, 2)
    for lk in (*range(2, 9), 16, 24, 30):
        taps = default_taps(lk)
        assert len(set(taps)) == len(taps)
        assert all(1 <= t <= lk for t in taps)
        assert lk in taps


def test_default_register_tells_every_key_apart():
    # at lk = 3 the scaled taps 3/2/1 gave a key and its complement one
    # keystream; no default register may map two keys to one stream
    for lk in range(2, 13):
        spec = LfsrSpec(lk)
        keys = ([k >> i & 1 for i in range(lk)] for k in range(1 << lk))
        streams = {tuple(lfsr_keystream(spec, key)) for key in keys}
        assert len(streams) == 1 << lk, spec


def test_spec_defaults_follow_the_register_length():
    assert LfsrSpec() == LfsrSpec(60, (60, 59, 58, 14), (60, 59), 120)
    assert LfsrSpec(8) == LfsrSpec(8, (8, 7, 6, 2), (8, 7), 16)
    assert LfsrSpec(8, lm=5) == LfsrSpec.scaled(8, 5)
    assert LfsrSpec(12, out_taps=(3,)).taps == default_taps(12)
    with pytest.raises(ValueError, match="at least 2 cells"):
        LfsrSpec(1)


def test_spec_validation():
    with pytest.raises(ValueError):
        LfsrSpec(8, (9,), (8,), 16)
    for taps, out_taps in (((8,), ()), ((), (8,))):
        with pytest.raises(ValueError, match="taps must be non-empty"):
            LfsrSpec(8, taps, out_taps, 16)
    for lm in (0, -3):
        with pytest.raises(ValueError, match="message length"):
            LfsrSpec(8, (8,), (8,), lm)


def test_encrypt_is_involution():
    rng = random.Random(2)
    spec = LfsrSpec.scaled(16)
    key = [rng.getrandbits(1) for _ in range(16)]
    message = [rng.getrandbits(1) for _ in range(spec.lm)]
    cipher = lfsr_encrypt(spec, key, message)
    assert lfsr_encrypt(spec, key, cipher) == message


def test_affine_bit_is_exact_over_xor():
    rng = random.Random(5)
    for _ in range(50):
        keybits = [rng.getrandbits(1) for _ in range(6)]
        known = [b if rng.random() < 0.5 else None
                 for b in keybits]
        sets = key_bit_sets(known)
        # fold a random XOR combination and compare against the concrete
        # value computed from the actual key bits
        acc = AffineBit(rng.getrandbits(1))
        concrete = acc.const
        for i in rng.sample(range(6), rng.randint(1, 6)):
            acc = acc ^ sets[i]
            concrete ^= keybits[i]
        assert acc.contains(concrete)


def test_key_recovery_round_trip():
    rng = random.Random(11)
    for lk in (8, 12, 16):
        spec = LfsrSpec.scaled(lk)
        key = [rng.getrandbits(1) for _ in range(lk)]
        message = [rng.getrandbits(1) for _ in range(spec.lm)]
        cipher = lfsr_encrypt(spec, key, message)
        recovered = lfsr_recover_key(spec, message, cipher)
        assert list(recovered) == key


def test_key_recovery_resolves_bits_in_order():
    spec = LfsrSpec.scaled(12)
    rng = random.Random(4)
    key = [rng.getrandbits(1) for _ in range(12)]
    message = [rng.getrandbits(1) for _ in range(spec.lm)]
    cipher = lfsr_encrypt(spec, key, message)
    seen = []
    lfsr_recover_key(spec, message, cipher,
                     instrument=lambda combo, j, bits: seen.append((combo, j)))
    # within each first-two-bits branch, bit positions resolve ascending
    by_combo = {}
    for combo, j in seen:
        by_combo.setdefault(combo, []).append(j)
    for js in by_combo.values():
        assert js == sorted(js)
        assert js[0] == 2


def test_key_recovery_rejects_corrupted_cipher():
    spec = LfsrSpec.scaled(10)
    rng = random.Random(6)
    key = [rng.getrandbits(1) for _ in range(10)]
    message = [rng.getrandbits(1) for _ in range(spec.lm)]
    cipher = lfsr_encrypt(spec, key, message)
    cipher[3] ^= 1
    with pytest.raises(SearchFailure):
        lfsr_recover_key(spec, message, cipher)


def test_recovery_input_validation():
    spec = LfsrSpec.scaled(8)
    with pytest.raises(ValueError):
        lfsr_recover_key(spec, [0, 1], [0])
    with pytest.raises(ValueError):
        lfsr_keystream(spec, [0] * 7)
    # a bit that is not 0 or 1 is named, not read as its low bit
    message, cipher = [0] * spec.lm, [0] * spec.lm
    for bits, name in ((message, "message"), (cipher, "cipher")):
        for bad in (2, 3, -1, 256, 1.0, 0.0):
            bits[5] = bad
            with pytest.raises(ValueError, match=rf"{name}\[5\] = {bad}"):
                lfsr_recover_key(spec, message, cipher)
        bits[5] = 0
    # a bool is an int, so a message of bools is accepted
    key = [1, 1, 0, 1, 0, 0, 1, 0]
    message = [bool(i % 3) for i in range(spec.lm)]
    cipher = lfsr_encrypt(spec, key, message)
    assert list(lfsr_recover_key(spec, message, cipher)) == key


def reference_recover_key(spec, message, cipher, *, instrument):
    """The per-bit search that re-clocks the register over key-bit sets for
    every tentative bit, kept as the reference for lfsr_recover_key."""
    for first_two in range(4):
        bits = [None] * spec.lk
        bits[0] = first_two & 1
        bits[1] = (first_two >> 1) & 1
        for j in range(2, spec.lk):
            bits[j] = 0
            stream = lfsr_keystream(spec, key_bit_sets(bits), len(message))
            if not all((s ^ m).contains(c)
                       for s, m, c in zip(stream, message, cipher)):
                bits[j] = 1
            instrument(first_two, j, list(bits))
        if lfsr_encrypt(spec, bits, message) == cipher:
            return BinaryVector.from_bits(bits)
    raise SearchFailure("no key reproduces the ciphertext")


def _search_outcome(search, spec, message, cipher):
    calls = []
    try:
        result = search(spec, message, cipher,
                        instrument=lambda *args: calls.append(args))
    except SearchFailure:
        result = SearchFailure
    return result, calls


def test_key_recovery_matches_per_bit_reference():
    rng = random.Random(21)
    specs = [LfsrSpec.scaled(rng.randint(8, 30)) for _ in range(24)]
    # lm < lk leaves the key underdetermined; an output tap XORed with
    # itself gives stream bits that depend on no key bit
    specs += [LfsrSpec(), LfsrSpec(), LfsrSpec.scaled(16, lm=10),
              LfsrSpec(10, default_taps(10), (10, 10), 20)]
    # lk = 2 runs no search step and lk = 3 one, so their step-1 checks
    # decide alone or nearly; specs 30 and 33 get a corrupted cipher
    specs += [LfsrSpec(2), LfsrSpec(2, lm=1), LfsrSpec(2),
              LfsrSpec(3, (3, 2)), LfsrSpec(3, lm=2), LfsrSpec(3)]
    # random taps, possibly repeated, cancelling output taps and messages
    # shorter than the key: the plan's columns follow each tap's count
    # parity; 3/2/1 gives a key and its complement one keystream
    specs.append(LfsrSpec(3, (3, 2, 1)))
    for _ in range(40):
        lk = rng.randint(2, 20)
        taps = tuple(rng.randint(1, lk) for _ in range(rng.randint(1, 5)))
        outs = tuple(rng.randint(1, lk) for _ in range(rng.randint(1, 3)))
        specs.append(LfsrSpec(lk, taps, outs, rng.randint(1, 2 * lk + 4)))
    for n, spec in enumerate(specs):
        key = [rng.getrandbits(1) for _ in range(spec.lk)]
        message = [rng.getrandbits(1) for _ in range(spec.lm)]
        cipher = lfsr_encrypt(spec, key, message)
        if n % 3 == 0:
            cipher[rng.randrange(spec.lm)] ^= 1
        want = _search_outcome(reference_recover_key, spec, message, cipher)
        assert _search_outcome(lfsr_recover_key, spec, message,
                               cipher) == want, spec
        # without an instrument a branch ends at its first failed check,
        # which must not change the key found or the failure
        assert _search_outcome(_uninstrumented, spec, message,
                               cipher)[0] == want[0], spec


def _uninstrumented(spec, message, cipher, *, instrument):
    return lfsr_recover_key(spec, message, cipher)


def test_check_plan_is_shared_per_register_and_length():
    rng = random.Random(30)
    # two registers with different taps, and one of them at two message
    # lengths, interleaved so each search follows one on another plan
    runs = [(LfsrSpec(12), 24), (LfsrSpec(12, (12, 5)), 24),
            (LfsrSpec(12), 15)]
    for _ in range(3):
        for spec, lm in runs:
            key = [rng.getrandbits(1) for _ in range(spec.lk)]
            message = [rng.getrandbits(1) for _ in range(lm)]
            cipher = lfsr_encrypt(spec, key, message)
            want = _search_outcome(reference_recover_key, spec, message,
                                   cipher)[0]
            assert _search_outcome(_uninstrumented, spec, message,
                                   cipher)[0] == want, (spec, lm)
            pivots = cases._check_plan(spec, lm)[2]
            _assert_solve_is_linear(rng, pivots, lm)
    plan = cases._check_plan(LfsrSpec(8), 16)
    assert cases._check_plan(LfsrSpec(8, (8, 7, 6, 2), (8, 7), 16),
                             16) is plan
    assert isinstance(plan, tuple)
    assert all(isinstance(part, tuple) for part in plan)


def test_list_taps_build_the_tuple_spec():
    listed = LfsrSpec(8, [8, 7, 6, 2], [8, 7])
    twin = LfsrSpec(8, (8, 7, 6, 2), (8, 7))
    assert listed == twin
    assert hash(listed) == hash(twin)
    assert (listed.taps, listed.out_taps) == ((8, 7, 6, 2), (8, 7))
    assert LfsrSpec(8, [8, 7, 6, 2]) == twin
    rng = random.Random(8)
    key = [rng.getrandbits(1) for _ in range(8)]
    message = [rng.getrandbits(1) for _ in range(16)]
    cipher = lfsr_encrypt(twin, key, message)
    assert lfsr_encrypt(listed, key, message) == cipher
    assert list(lfsr_recover_key(listed, message, cipher)) == key


def test_one_hot_stream_is_the_symbolic_stream():
    rng = random.Random(14)
    specs = [LfsrSpec(10, default_taps(10), (10, 10), 20),
             LfsrSpec.scaled(16, lm=10), LfsrSpec()]
    # random taps, possibly repeated, and messages shorter than the key
    for _ in range(40):
        lk = rng.randint(2, 24)
        taps = tuple(rng.randint(1, lk) for _ in range(rng.randint(1, 4)))
        outs = tuple(rng.randint(1, lk) for _ in range(rng.randint(1, 3)))
        specs.append(LfsrSpec(lk, taps, outs, rng.randint(1, 2 * lk + 4)))
    for spec in specs:
        masks = lfsr_keystream(spec, [1 << i for i in range(spec.lk)])
        symbolic = lfsr_keystream(spec, key_bit_sets([None] * spec.lk))
        assert all(s.const == 0 for s in symbolic)
        assert masks == [s.mask for s in symbolic], spec
        for _ in range(5):
            key = [rng.getrandbits(1) for _ in range(spec.lk)]
            packed = sum(b << i for i, b in enumerate(key))
            assert [(mask & packed).bit_count() & 1 for mask in masks] == \
                lfsr_keystream(spec, key), spec


def test_key_recovery_never_re_encrypts(monkeypatch):
    # a key starting with 11 fails a check in each of the three branches
    # tried before its own
    rng = random.Random(60)
    spec = LfsrSpec()
    key = [1, 1] + [rng.getrandbits(1) for _ in range(58)]
    message = [rng.getrandbits(1) for _ in range(spec.lm)]
    cipher = lfsr_encrypt(spec, key, message)
    encrypts, streams = [], []
    monkeypatch.setattr(cases, "lfsr_encrypt",
                        lambda *args: encrypts.append(args) or
                        lfsr_encrypt(*args))
    monkeypatch.setattr(cases, "lfsr_keystream",
                        lambda *args: streams.append(args) or
                        lfsr_keystream(*args))
    cases._check_plan.cache_clear()
    branches = set()
    recovered = lfsr_recover_key(
        spec, message, cipher,
        instrument=lambda first_two, j, bits: branches.add(first_two))
    assert list(recovered) == key
    assert branches == {0, 1, 2, 3}
    # the register is clocked once, for the plan: on key bit 0 alone, for
    # the message and the 59 clocks that carry it to key bit 59's column
    assert streams == [(spec, [1] + [0] * 59, spec.lm + 59)]
    # a flipped cipher bit fails a check in every branch
    cipher[3] ^= 1
    with pytest.raises(SearchFailure):
        lfsr_recover_key(spec, message, cipher)
    assert encrypts == []
    assert len(streams) == 1


def test_check_plan_files_each_stream_bit_once():
    rng = random.Random(31)
    specs = [LfsrSpec(2), LfsrSpec(2, lm=1), LfsrSpec(3, lm=2),
             LfsrSpec(10, default_taps(10), (10, 10), 20),
             LfsrSpec(6, out_taps=(6, 6, 2)), LfsrSpec.scaled(16, lm=10)]
    # random taps, possibly repeated, and messages shorter than the key
    for _ in range(40):
        lk = rng.randint(2, 24)
        taps = tuple(rng.randint(1, lk) for _ in range(rng.randint(1, 4)))
        outs = tuple(rng.randint(1, lk) for _ in range(rng.randint(1, 3)))
        specs.append(LfsrSpec(lk, taps, outs, rng.randint(1, 2 * lk + 4)))
    for spec in specs:
        cols, steps, pivots, offsets = cases._check_plan(spec, spec.lm)
        assert len(cols) == len(steps) == spec.lk and steps[0] == 0, spec
        # the steps partition the stream
        assert sum(s.bit_count() for s in steps) == spec.lm, spec
        assert functools.reduce(operator.or_, steps) == (1 << spec.lm) - 1
        symbolic = reference_keystream(spec, key_bit_sets([None] * spec.lk))
        for i, s in enumerate(symbolic):
            read = [k for k in range(spec.lk) if s.mask >> k & 1]
            assert steps[max(read + [1])] >> i & 1, (spec, i)
            assert [c >> i & 1 for c in cols] == \
                [s.mask >> k & 1 for k in range(spec.lk)], (spec, i)
        # every search step with stream bits has one pivot: a bit of its
        # step, the lowest
        assert [bit.bit_length() - 1 for bit, _, _ in pivots] == \
            [j for j in range(2, spec.lk) if steps[j]], spec
        for bit, pivot, col in pivots:
            j = bit.bit_length() - 1
            assert pivot & steps[j] == pivot == steps[j] & -steps[j], spec
            assert col == cols[j], spec
        _assert_solve_is_linear(rng, pivots, spec.lm)
        # each branch's offset is the pass on its columns of key bits 0, 1
        for b in range(4):
            key, residual = cases._solve(
                pivots, cols[0] * (b & 1) ^ cols[1] * (b >> 1))
            assert offsets[b] == (b | key, residual), (spec, b)


def _assert_solve_is_linear(rng, pivots, length):
    # the pass is linear over GF(2), in its key and its residual alike
    for _ in range(8):
        a, b = rng.getrandbits(length), rng.getrandbits(length)
        ka, ra = cases._solve(pivots, a)
        kb, rb = cases._solve(pivots, b)
        assert cases._solve(pivots, a ^ b) == (ka ^ kb, ra ^ rb), pivots
