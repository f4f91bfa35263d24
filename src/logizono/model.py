"""Model description language: variables, initial/input sets, updates.

Expressions use `!` for NOT, infix `&`, `^`, `|` (precedence ! > & > ^ > |),
function forms NAND(a,b) / NOR(a,b) / XNOR(a,b), parentheses, and bitstring
literals. A trailing apostrophe on a state identifier references its
already-computed next-state value within the same step.
"""

from __future__ import annotations

import json
import re
from functools import partial
from operator import itemgetter

from .binvec import BinaryMatrix, BinaryVector, Gate, Value, bv_not, bv_op
from .errors import ModelError
from . import explicit as ex
from . import logical as lz
from . import poly as pz


# --- expression trees -------------------------------------------------------

class VarRef(Value):
    __slots__ = _fields = ("name", "primed", "pos")
    _compared = ("name", "primed")

    def __init__(self, name, primed=False, pos=None):  # pos is 1-based
        self._init(name, primed, pos)

    @property
    def key(self):
        return self.name + "'" if self.primed else self.name


class Const(Value):
    __slots__ = _fields = ("value", "pos")
    _compared = ("value",)

    def __init__(self, value, pos=None):  # pos is 1-based
        self._init(value, pos)


class Not(Value):
    __slots__ = _fields = ("child",)

    def __init__(self, child):
        self._init(child)


class GateExpr(Value):
    __slots__ = _fields = ("kind", "left", "right")

    def __init__(self, kind, left, right):
        self._init(kind, left, right)


_FUNC_GATES = {"NAND": Gate.NAND, "NOR": Gate.NOR, "XNOR": Gate.XNOR}
# infix operators, loosest binding first
_INFIX = (("|", Gate.OR), ("^", Gate.XOR), ("&", Gate.AND))

# most nesting levels in an update: every walk over it stays far below the
# interpreter's recursion limit
MAX_DEPTH = 100

_TOKEN = re.compile(r"\s*(?:(?P<bits>[01]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*'?)"
                    r"|(?P<punct>[!&^|(),]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:]
            if rest.strip():
                bad = pos + len(rest) - len(rest.lstrip())
                raise ModelError(
                    f"unexpected character {text[bad]!r}", position=bad + 1)
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # open parse_unary calls, outside this one

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.take()
        if text != value:
            raise ModelError(f"expected {value!r}, found {text or 'end'!r}",
                             position=pos)

    def parse(self):
        expr = self.parse_infix()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ModelError(f"unexpected token {text!r}", position=pos)
        return expr

    def parse_infix(self, level=0):
        """A left-associative chain of the infix operators from level on."""
        if level == len(_INFIX):
            return self.parse_unary()
        op, gate = _INFIX[level]
        left = self.parse_infix(level + 1)
        while self.peek()[1] == op:
            self.take()
            left = GateExpr(gate, left, self.parse_infix(level + 1))
        return left

    def parse_unary(self):
        # every nested operand passes through here
        kind, text, pos = self.peek()
        if self.depth > MAX_DEPTH:
            raise ModelError(f"nested deeper than {MAX_DEPTH} levels",
                             position=pos)
        self.depth += 1
        if text == "!":
            self.take()
            expr = Not(self.parse_unary())
        else:
            expr = self.parse_atom()
        self.depth -= 1
        return expr

    def parse_atom(self):
        kind, text, pos = self.take()
        if text == "(":
            expr = self.parse_infix()
            self.expect(")")
            return expr
        if kind == "bits":
            return Const(BinaryVector.from_string(text), pos)
        if kind == "name":
            base = text.rstrip("'")
            if text.upper() in _FUNC_GATES and self.peek()[1] == "(":
                self.take()
                left = self.parse_infix()
                self.expect(",")
                right = self.parse_infix()
                self.expect(")")
                return GateExpr(_FUNC_GATES[base.upper()], left, right)
            return VarRef(base, primed=text.endswith("'"), pos=pos)
        raise ModelError(f"expected an operand, found {text or 'end'!r}",
                         position=pos)


def parse_expr(text) -> object:
    return _Parser(text).parse()


def print_expr(expr):
    if isinstance(expr, VarRef):
        return expr.key
    if isinstance(expr, Const):
        return expr.value.to_string()
    if isinstance(expr, Not):
        return "!" + print_expr(expr.child)
    left, right = print_expr(expr.left), print_expr(expr.right)
    for op, gate in _INFIX:
        if gate is expr.kind:
            return f"({left} {op} {right})"
    name = next(n for n, gate in _FUNC_GATES.items() if gate is expr.kind)
    return f"{name}({left}, {right})"


def _leaves(expr):
    """The VarRef and Const operands of expr, left to right, each with its
    depth in the tree. Iterative, so a deep tree cannot overflow it."""
    stack = [(expr, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Not):
            stack.append((node.child, depth + 1))
        elif isinstance(node, GateExpr):
            stack += ((node.right, depth + 1), (node.left, depth + 1))
        else:
            yield node, depth


def expr_refs(expr):
    return (leaf for leaf, _ in _leaves(expr) if isinstance(leaf, VarRef))


def next_state_refs(expr):
    return {r.name for r in expr_refs(expr) if r.primed}


# --- models -----------------------------------------------------------------

class StateVar(Value):
    __slots__ = _fields = ("name", "dim", "init")

    def __init__(self, name, dim, init):  # init: a tuple of BinaryVectors
        self._init(name, dim, init)


class InputVar(Value):
    __slots__ = _fields = ("name", "dim", "constant", "per_step")

    # constant: the same set every step; per_step: one set per step
    def __init__(self, name, dim, constant=(), per_step=()):
        self._init(name, dim, constant, per_step)


class Model(Value):
    _fields = ("state_vars", "input_vars", "updates", "order")
    __slots__ = _fields + ("_programs",)  # not in eq, hash, repr or pickle

    def __init__(self, state_vars, input_vars, updates, order):
        self._init(state_vars, input_vars, updates, order)
        object.__setattr__(self, "_programs", {})

    def compile_updates(self, ops):
        """Each update in self.order as (its primed key, its compile_expr
        program against ops(dim) for the width dim of its variable)."""
        return tuple((name + "'", compile_expr(self.updates[name],
                                                *ops(self.state(name).dim)))
                     for name in self.order)

    def compiled(self, ops, cap):
        """compile_updates against ops(dim, cap), compiled at the first call
        with this ops callable and cap and kept on the model."""
        if (ops, cap) not in self._programs:
            self._programs[ops, cap] = self.compile_updates(
                lambda dim: ops(dim, cap))
        return self._programs[ops, cap]

    def input_set(self, var, step):
        if var.constant:
            return var.constant
        if step < len(var.per_step):
            return var.per_step[step]
        raise ModelError(
            f"input {var.name!r} has no set for step {step}")

    def state(self, name):
        for v in self.state_vars:
            if v.name == name:
                return v
        raise KeyError(name)


_JSON_TYPES = ((bool, "a boolean"), (dict, "an object"), (list, "a list"),
               (str, "a string"), (int, "an integer"), (float, "a number"))
_LABELS = dict(_JSON_TYPES)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_BITS = frozenset("01")
_MISSING = object()


def _json_type(value):
    for kind, label in _JSON_TYPES:
        if isinstance(value, kind):
            return label
    return "null"


def _typed(value, kind, path):
    """value, if it has the JSON type of kind; a ModelError at path if not."""
    label = _LABELS[kind]
    if type(value) is not kind and _json_type(value) != label:
        raise ModelError(
            f"{path}: expected {label}, found {_json_type(value)}")
    return value


def _field(obj, key, kind, path, default=_MISSING):
    path = f"{path}.{key}" if path else key
    if key not in obj:
        if default is _MISSING:
            raise ModelError(f"{path}: missing")
        return default
    return _typed(obj[key], kind, path)


def _vector(text, dim, path):
    if not (isinstance(text, str) and len(text) == dim
            and set(text) <= _BITS):
        raise ModelError(f"{path}: expected a bitstring of {dim} bits, "
                         f"found {text!r}")
    # index 1 is leftmost and least significant
    return BinaryVector(dim, int(text[::-1] or "0", 2))


def _vectors(texts, dim, path):
    _typed(texts, list, path)
    if not texts:
        raise ModelError(f"{path}: set must be non-empty")
    return tuple(_vector(t, dim, f"{path}[{j}]") for j, t in enumerate(texts))


def _matrix(doc, key, rows):
    """The columns doc[key], bitstrings of rows bits, as a BinaryMatrix."""
    texts = _field(doc, key, list, "")
    return BinaryMatrix(rows, tuple(_vector(t, rows, f"{key}[{j}]")
                                    for j, t in enumerate(texts)))


def _parse_var(var, path):
    _typed(var, dict, path)
    name = _field(var, "name", str, path)
    if not _IDENT.fullmatch(name):
        raise ModelError(f"{path}.name: {name!r} is not an identifier")
    dim = _field(var, "dim", int, path)
    if dim < 1:
        raise ModelError(f"{path}.dim: must be at least 1, found {dim}")
    role = _field(var, "role", str, path, "state")
    if role == "state":
        return StateVar(name, dim, _vectors(_field(var, "init", list, path),
                                            dim, path + ".init"))
    if role != "input":
        raise ModelError(f"{path}.role: unknown role {role!r}")
    if "set" in var:
        return InputVar(name, dim, constant=_vectors(var["set"], dim,
                                                     path + ".set"))
    steps = _field(var, "steps", list, path)
    if not steps:
        raise ModelError(f"{path}.steps: per-step input list is empty")
    return InputVar(name, dim, per_step=tuple(
        _vectors(s, dim, f"{path}.steps[{j}]") for j, s in enumerate(steps)))


def _parse_update(text, path):
    _typed(text, str, path)
    try:
        return parse_expr(text)
    except ModelError as err:
        raise ModelError(f"{path}: {err} at position {err.position}",
                         position=err.position) from None


def _check_update(name, expr, dims, states, seen):
    """References, next-state references and operand widths of one update:
    every operand has the width of the variable it updates."""
    path = f"updates.{name}"
    for leaf, depth in _leaves(expr):
        where = f"at position {leaf.pos}"
        if depth > MAX_DEPTH:
            # a long chain such as a & a & ... nests without parentheses
            raise ModelError(f"{path}: nested deeper than {MAX_DEPTH} "
                             f"levels {where}", position=leaf.pos)
        if isinstance(leaf, Const):
            label, width = leaf.value.to_string(), leaf.value.dim
        else:
            label = leaf.key
            if leaf.name not in dims:
                raise ModelError(f"{path}: undeclared {leaf.name!r} {where}",
                                 position=leaf.pos)
            if leaf.primed and leaf.name not in states:
                raise ModelError(f"{path}: next-state reference {label!r} "
                                 f"{where} is not a state", position=leaf.pos)
            if leaf.primed and leaf.name not in seen:
                raise ModelError(f"{path}: {label!r} {where} is read before "
                                 f"it is computed", position=leaf.pos)
            width = dims[leaf.name]
        if width != dims[name]:
            raise ModelError(f"{path}: operand {label!r} {where} has width "
                             f"{width}, expected {dims[name]}",
                             position=leaf.pos)


def parse_model(document) -> Model:
    """Parse and validate a JSON model document (JSON text or a dict).

    Errors name the offending place as a JSON path, such as vars[0].dim,
    and, inside an update, the 1-based position in its expression.
    """
    if isinstance(document, str):
        document = json.loads(document)
    _typed(document, dict, "model")
    states = []
    inputs = []
    dims = {}
    for i, doc in enumerate(_field(document, "vars", list, "", [])):
        var = _parse_var(doc, f"vars[{i}]")
        if var.name in dims:
            raise ModelError(f"vars[{i}].name: duplicate variable "
                             f"{var.name!r}")
        dims[var.name] = var.dim
        (states if isinstance(var, StateVar) else inputs).append(var)
    if not states:
        raise ModelError("vars: no state variable")
    state_names = [v.name for v in states]
    updates = {}
    for name, text in _field(document, "updates", dict, "", {}).items():
        if name not in state_names:
            raise ModelError(f"updates.{name}: not a declared state")
        updates[name] = _parse_update(text, f"updates.{name}")
    order = _field(document, "order", list, "", state_names)
    for j, name in enumerate(order):
        _typed(name, str, f"order[{j}]")
    if sorted(order) != sorted(state_names):
        raise ModelError("order: must list every state variable exactly once")
    states_set = set(state_names)
    seen = set()
    for name in order:
        if name not in updates:
            raise ModelError(f"updates.{name}: missing")
        _check_update(name, updates[name], dims, states_set, seen)
        seen.add(name)
    return Model(tuple(states), tuple(inputs), updates, tuple(order))


def read_json(path):
    """The decoded JSON document in the file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ModelError(f"{path}: nested too deeply to decode") from None
        except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
            raise ModelError(f"{path}: {err}") from None


def load_model(path) -> Model:
    return parse_model(_typed(read_json(path), dict, "model"))


# --- evaluation -------------------------------------------------------------

def compile_expr(expr, const, not_, gates):
    """expr in one value domain as a function of env, which maps reference
    keys to values, from one walk of the tree: const(vector) gives each
    literal's value, gates[kind](x, y) each gate, not_(x) x's complement."""
    def build(node):
        if isinstance(node, VarRef):
            return itemgetter(node.key)
        if isinstance(node, Const):
            value = const(node.value)
            return lambda env: value
        if isinstance(node, Not):
            child = build(node.child)
            return lambda env: not_(child(env))
        gate = gates[node.kind]
        left, right = build(node.left), build(node.right)
        return lambda env: gate(left(env), right(env))
    return build(expr)


_BV_GATES = {kind: partial(bv_op, gate=kind) for kind in Gate}


def eval_concrete(expr, env):
    """Evaluate over concrete BinaryVectors; env maps reference keys."""
    return compile_expr(expr, lambda value: value, bv_not, _BV_GATES)(env)


_LZ_GATES = lz.GATES
_PZ_EXACT = pz.EXACT_GATES


def _compacted(gates, kind, a, b):
    return pz.pz_compact(gates[kind](a, b))


# compacting after every gate keeps intermediate generator counts bounded
# by the number of distinct monomials without touching any per-assignment
# value; the gate and pz_compact are looked up at each call
_PZ_COMPACTING = {mode: {kind: partial(_compacted, gates, kind)
                         for kind in gates}
                  for mode, gates in (("exact", _PZ_EXACT),
                                      ("minkowski", pz.MINK_GATES))}


ALGEBRAS = ("explicit", "logical", "poly")
MODES = ("minkowski", "exact")


def check_algebra(algebra, mode, break_deps=False):
    """Raise ModelError unless algebra and mode name a lane: exact mode
    needs poly, and break_deps (broken next-state deps) the oracle."""
    if algebra not in ALGEBRAS:
        raise ModelError(f"unknown algebra {algebra!r}")
    if mode not in MODES:
        raise ModelError(f"unknown mode {mode!r}")
    if mode == "exact" and algebra != "poly":
        raise ModelError("exact mode requires the poly algebra")
    if break_deps and algebra != "explicit":
        raise ModelError(
            "break-next-state-deps applies to the explicit oracle only")


def eval_expr(expr, env, algebra, mode="minkowski"):
    """Evaluate an expression against a set algebra.

    algebra is one of ALGEBRAS and mode one of MODES; mode "exact" is only
    meaningful for poly, where repeated references to one variable then
    share factors. The explicit algebra enumerates concrete samples with
    one shared sample per distinct variable, preserving dependencies.
    """
    check_algebra(algebra, mode)
    if algebra == "explicit":
        return _eval_explicit(expr, env)
    if algebra == "logical":
        return compile_expr(expr, lz.LogicalZonotope.singleton, lz.lz_not,
                            _LZ_GATES)(env)
    return compile_expr(expr, pz.PolyLogicalZonotope.singleton, pz.pz_not,
                        _PZ_COMPACTING[mode])(env)


def _eval_explicit(expr, env):
    import itertools

    keys = sorted({r.key for r in expr_refs(expr)})
    sets = [list(env[k]) for k in keys]  # ExplicitSets or point lists
    program = compile_expr(expr, lambda value: value, bv_not, _BV_GATES)
    return ex.ExplicitSet.from_points(
        program(dict(zip(keys, combo))) for combo in itertools.product(*sets))
