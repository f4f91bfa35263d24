"""Command-line front end.

Subcommands: reach (run a model file, or a model bundled in cases.MODELS
by name, and report sizes/times), lfsr (round-trip key search), eval
(enumerate a serialized zonotope), selftest (randomized oracle checks).

reach and eval share one capacity budget: the most elements a set or
table may hold, checked where one is computed (a joint set, a gate image,
a 2^p value table, a logical run's sets only when --dump-sets lists them).
`reach --cap` sets it, else the env var LOGIZONO_CAP, else 2^20.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

from .binvec import BinaryVector, Gate, bv_op
from .errors import DEFAULT_CAP, CapacityError, ModelError, SearchFailure
from . import cases, explicit as ex, logical as lz, poly as pz
from .model import ALGEBRAS, MODES, load_model, parse_model, read_json
from .reach import (_BITMAP_WIDTH, _set_ops, _value_set, _values, reach,
                    reach_report)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_SEARCH = 4


def _int(text, name, base=10):
    """int(text, base), or a usage error that names the flag or variable."""
    try:
        return int(text, base)
    except ValueError:
        raise ModelError(f"{name}: {text!r} is not an integer") from None


def _cap(flag=None):
    """The capacity budget: --cap, else LOGIZONO_CAP, else DEFAULT_CAP."""
    if flag is None:
        text = os.environ.get("LOGIZONO_CAP")
        flag = _int(text, "LOGIZONO_CAP") if text else DEFAULT_CAP
    if flag < 1:
        raise ModelError(f"cap {flag}: must be at least 1")
    return flag


def _resolve_model(spec_text):
    if os.path.exists(spec_text):
        return load_model(spec_text), spec_text
    name = spec_text.removesuffix(".json")
    if name in cases.MODELS:
        return parse_model(cases.MODELS[name]()), name
    raise ModelError(f"model file not found: {spec_text}")


def cmd_reach(args):
    if args.dump_sets and args.format != "json":
        raise ModelError("--dump-sets needs --format json")
    model, path = _resolve_model(args.model)
    steps = sorted(_int(s, "--steps") for s in args.steps.split(","))
    result = reach(model, steps, args.algebra, args.mode,
                   break_next_state_deps=args.break_next_state_deps,
                   cap=_cap(args.cap))
    text = reach_report(result, steps, args.format, model_path=path,
                        seed=args.seed, dump_sets=args.dump_sets)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _taps(text, flag):
    """The comma-separated taps of flag, or None when it is not given. A
    tap repeated cancels itself in the XOR, so it is a usage error here;
    LfsrSpec itself accepts it."""
    if text is None:
        return None
    taps = tuple(_int(t, flag) for t in text.split(","))
    for t in taps:
        if taps.count(t) > 1:
            raise ModelError(f"{flag}: tap {t} repeated")
    return taps


def cmd_lfsr(args):
    rng = random.Random(args.seed)
    for flag, value in (("--taps", args.taps), ("--out-taps", args.out_taps),
                        ("--key-hex", args.key_hex)):
        if value == "":
            raise ValueError(f"{flag}: expected a value, found an empty one")
    taps, out_taps = (_taps(text, flag) for flag, text in
                      (("--taps", args.taps), ("--out-taps", args.out_taps)))
    value = (_int(args.key_hex, "--key-hex", 16)
             if args.key_hex is not None else None)
    spec = cases.LfsrSpec(args.lk, taps, out_taps, args.lm)
    lk, lm = spec.lk, spec.lm
    if value is None:
        key = [rng.getrandbits(1) for _ in range(lk)]
    elif 0 <= value < 1 << lk:
        key = [(value >> (lk - 1 - i)) & 1 for i in range(lk)]
    else:
        raise ValueError(f"key {args.key_hex}: does not fit {lk} bits")
    message = [rng.getrandbits(1) for _ in range(lm)]
    cipher = cases.lfsr_encrypt(spec, key, message)
    if lm < lk:
        print(f"warning: {lm} keystream bits may not determine a "
              f"{lk}-bit key", file=sys.stderr)
    t0 = time.perf_counter()
    recovered = cases.lfsr_recover_key(spec, message, cipher)
    elapsed = time.perf_counter() - t0
    ok = list(recovered) == key
    print(f"# seed={args.seed}")
    print(f"recovered={'true' if ok else 'false'} "
          f"time_seconds={elapsed:.6f} lk={lk} lm={lm}")
    if args.key_hex is not None and ok:
        print(f"key=0x{int(''.join(map(str, recovered)), 2):X}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_eval(args):
    doc = read_json(args.input)
    poly = isinstance(doc, dict) and "E" in doc
    z = (pz.PolyLogicalZonotope if poly else lz.LogicalZonotope).from_json(doc)
    points = (pz.pz_evaluate if poly else lz.lz_evaluate)(z, cap=_cap())
    for p in points:
        print(p.to_string())
    return EXIT_OK


def cmd_selftest(args):
    if args.trials < 1:
        raise ModelError(f"--trials {args.trials}: must be at least 1")
    rng = random.Random(args.seed)
    exact_gates = (Gate.XOR, Gate.XNOR)
    failures = 0
    for trial in range(args.trials):
        n = rng.randint(1, 4)
        a, b = _random_pz(rng, n), _random_pz(rng, n)
        pa, pb = _random_points(rng, n), _random_points(rng, n)
        la, lb = lz.lz_enclose_points(pa), lz.lz_enclose_points(pb)
        ea, eb = lz.lz_evaluate(la), lz.lz_evaluate(lb)
        for points, enclosed in ((pa, ea), (pb, eb)):
            failures += lz.lz_points(n, *lz.packed_points(points)) != enclosed
        sa = pz.pz_evaluate(a)
        for gate in Gate:
            # a and b have distinct factors, so the exact gate is also
            # the pointwise image; a shared operand gives {g(x, x)}
            want = ex.set_minkowski(sa, pz.pz_evaluate(b), gate)
            same = ex.ExplicitSet.from_points(bv_op(x, x, gate) for x in sa)
            for got, image in ((pz.MINK_GATES[gate](a, b), want),
                               (pz.EXACT_GATES[gate](a, b), want),
                               (pz.EXACT_GATES[gate](a, a), same)):
                failures += pz.pz_evaluate(got) != image
            lwant = ex.set_minkowski(ea, eb, gate)
            lgot = lz.lz_evaluate(lz.GATES[gate](la, lb))
            failures += (lgot != lwant if gate in exact_gates
                         else not lwant.bits <= lgot.bits)
        failures += _check_set_ops(rng)
    print(f"selftest trials={args.trials} failures={failures}")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _check_set_ops(rng):
    """Failures of the Minkowski lane's own gates and NOT, on widths 1 to
    _BITMAP_WIDTH + 1, so on bitmaps and on frozensets, against
    set_minkowski and set_not."""
    n = rng.randint(1, _BITMAP_WIDTH + 1)
    _, not_, gates = _set_ops(n, DEFAULT_CAP)
    a, b = ([rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
            for _ in range(2))
    if n <= 8 and rng.random() < 0.4:  # in about 1/4 of trials a full
        a = range(1 << n)  # operand (closed forms), cheap for set_minkowski
    ea, eb = ex.ExplicitSet.from_bits(n, a), ex.ExplicitSet.from_bits(n, b)
    sa, sb = _value_set(n, a), _value_set(n, b)
    failures = set(_values(not_(sa))) != ex.set_not(ea).bits
    for gate in Gate:
        failures += (set(_values(gates[gate](sa, sb)))
                     != ex.set_minkowski(ea, eb, gate).bits)
    return failures


def _random_pz(rng, n):
    h = rng.randint(0, 3)
    p = rng.randint(0, 3)
    return pz.PolyLogicalZonotope.from_bits(
        n, rng.getrandbits(n), [rng.getrandbits(n) for _ in range(h)],
        [rng.getrandbits(p) for _ in range(h)], pz.unique_id(p))


def _random_points(rng, n):
    return [BinaryVector(n, rng.getrandbits(n))
            for _ in range(rng.randint(1, 4))]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="logizono",
        description="Set-based reachability for logical systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reach", help="run reachability on a model")
    p.add_argument("--model", required=True,
                   help="model file path or bundled model name")
    p.add_argument("--steps", default="5")
    p.add_argument("--algebra", default="poly", choices=ALGEBRAS)
    p.add_argument("--mode", default="minkowski", choices=MODES)
    p.add_argument("--break-next-state-deps", action="store_true")
    p.add_argument("--out")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--dump-sets", action="store_true")
    p.add_argument("--cap", type=int,
                   help="most elements one set or table may hold")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("lfsr", help="round-trip LFSR key search")
    p.add_argument("--lk", type=int, default=60)
    p.add_argument("--taps")
    p.add_argument("--out-taps")
    p.add_argument("--lm", type=int)
    p.add_argument("--key-hex")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lfsr)

    p = sub.add_parser("eval", help="enumerate a serialized zonotope")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="randomized oracle-equivalence suite")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return EXIT_CAPACITY
    except SearchFailure as err:
        print(f"search failure: {err}", file=sys.stderr)
        return EXIT_SEARCH


if __name__ == "__main__":
    sys.exit(main())
