import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import logizono
from logizono.binvec import BinaryMatrix, BinaryVector, Gate
from logizono.cases import LfsrSpec, boolean10_document
from logizono.explicit import ExplicitSet
from logizono.logical import LogicalZonotope, PackedZonotope
from logizono.model import (Const, GateExpr, InputVar, Model, Not, StateVar,
                            VarRef, parse_model)
from logizono.poly import PolyLogicalZonotope, pz_encode_points
from logizono.reach import ReachResult, StepRecord, reach


def bv(text):
    return BinaryVector.from_string(text)


def matrix(rows, *texts):
    return BinaryMatrix(rows, tuple(bv(t) for t in texts))


def record():
    return StepRecord(2, {"x": ExplicitSet.from_strings(["01", "10"])}, 2,
                      0.25, ExplicitSet.from_strings(["01", "10"]))


# each value class with a function of i that builds a fresh object of it;
# those built for VarRef and Const differ only in their pos, i + 1
SAMPLES = {
    BinaryVector: lambda i: bv("101"),
    BinaryMatrix: lambda i: matrix(3, "100", "011"),
    ExplicitSet: lambda i: ExplicitSet.from_strings(["01", "11"]),
    # PackedZonotope has no public constructor: LogicalZonotope is it
    LogicalZonotope: lambda i: LogicalZonotope(bv("010"), matrix(3, "011")),
    PolyLogicalZonotope: lambda i: PolyLogicalZonotope(
        bv("010"), matrix(3, "011", "111"), matrix(2, "10", "11"), (4, 9)),
    VarRef: lambda i: VarRef("a", True, pos=i + 1),
    Const: lambda i: Const(bv("01"), pos=i + 1),
    Not: lambda i: Not(VarRef("a")),
    GateExpr: lambda i: GateExpr(Gate.NAND, VarRef("a"), Const(bv("1"))),
    StateVar: lambda i: StateVar("x", 2, (bv("01"), bv("10"))),
    InputVar: lambda i: InputVar("u", 1, per_step=((bv("0"),), (bv("1"),))),
    Model: lambda i: Model((StateVar("x", 1, (bv("0"),)),), (),
                         {"x": Not(VarRef("x"))}, ("x",)),
    StepRecord: lambda i: record(),
    ReachResult: lambda i: ReachResult("poly", "exact", (record(),), 3),
    LfsrSpec: lambda i: LfsrSpec(8, (8, 7, 6, 2), (8, 7), 16),
}
# a dict field (Model.updates, StepRecord.var_sets) makes these unhashable
UNHASHABLE = {Model, StepRecord, ReachResult}
# the classes that keep a cached_property in an instance __dict__
WITH_DICT = {ExplicitSet, LogicalZonotope, PolyLogicalZonotope}


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    x, y = SAMPLES[cls](0), SAMPLES[cls](1)
    assert type(x) is cls and x is not y
    assert x == y and not x != y
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)
    assert hasattr(x, "__dict__") == (cls in WITH_DICT)

    # an object of another class is unequal, even with the same fields
    make, args = x.__reduce__()
    twin_class = type("Twin", (cls,), {})
    twin = (twin_class if make is cls else
            getattr(twin_class, make.__name__))(*args)
    assert twin.__reduce__()[1] == args
    assert x != twin and twin != x
    others = [SAMPLES[c](0) for c in SAMPLES if c is not cls]
    assert all(x != o for o in others)

    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(y, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y

    # pickling and copying rebuild the object with every field, pos too
    for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert type(clone) is cls and clone == x
        assert clone.__reduce__()[1] == args
    assert repr(x) == repr(y)


def test_a_model_that_ran_is_still_its_document():
    # a run keeps the model's compiled updates on it, outside its fields:
    # it still equals, pickles and copies as a fresh parse of its document
    doc = boolean10_document(0)
    ran = parse_model(doc)
    for algebra, mode in (("logical", "minkowski"), ("poly", "minkowski"),
                          ("poly", "exact")):
        reach(ran, 3, algebra, mode, cap=2**40)
    fresh = parse_model(doc)
    assert len(ran._programs) == 2 and not fresh._programs
    assert ran == fresh and repr(ran) == repr(fresh)
    assert pickle.dumps(ran) == pickle.dumps(fresh)
    for clone in (pickle.loads(pickle.dumps(ran)), copy.copy(ran),
                  copy.deepcopy(ran)):
        assert type(clone) is Model and clone == fresh
        assert clone.__reduce__()[1] == fresh.__reduce__()[1]


def test_pos_is_kept_but_not_compared():
    a, b = VarRef("a", pos=1), VarRef("a", pos=2)
    assert a == b and hash(a) == hash(b) and (a.pos, b.pos) == (1, 2)
    assert VarRef("a") != VarRef("a", primed=True)
    assert Const(bv("1"), 1) == Const(bv("1"), 4) != Const(bv("0"), 1)
    assert repr(a) == "VarRef(name='a', primed=False)"


@pytest.mark.parametrize("build, error", [
    (lambda: BinaryVector(-1, 0), ValueError),
    (lambda: BinaryVector(2, 4), ValueError),
    (lambda: BinaryVector(2, -1), ValueError),
    (lambda: matrix(3, "101", "01"), ValueError),
    (lambda: LfsrSpec(1), ValueError),
    (lambda: LfsrSpec(lm=0), ValueError),
    (lambda: LfsrSpec(8, (), (8,), 16), ValueError),
    (lambda: LfsrSpec(8, (9,), (8,), 16), ValueError),
    (lambda: BinaryVector.from_bits([0, 2, 1]), ValueError),
    (lambda: pz_encode_points([]), ValueError),
])
def test_constructors_still_validate(build, error):
    # DimensionError is a ValueError
    with pytest.raises(error):
        build()


def test_defaults_are_kept():
    assert LfsrSpec() == LfsrSpec(60, (60, 59, 58, 14), (60, 59), 120)
    assert VarRef("a").primed is False and VarRef("a").pos is None
    u = InputVar("u", 2)
    assert (u.constant, u.per_step) == ((), ())
    assert StepRecord(0, {}, 1, 0.0).joint_set is None
    assert ReachResult("logical", "minkowski", ()).fixpoint_at == -1


def test_no_class_in_the_package_is_a_dataclass():
    # a dataclass generates and execs its methods at import, and the
    # dataclasses module imports inspect: as 15 dataclasses, the value
    # classes made a fresh `import logizono` take about 1.5 times as long
    # without a bytecode cache, and 2 to 4 times with one (Python 3.10-3.13)
    modules = [importlib.import_module(f"logizono.{info.name}")
               for info in pkgutil.iter_modules(logizono.__path__)]
    classes = [obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and obj.__module__ == module.__name__]
    assert PackedZonotope in classes and len(modules) >= 9
    assert [c for c in classes if dataclasses.is_dataclass(c)] == []
