"""The package's value types against a dataclasses oracle.

Each value type is a plain class on exactq.Value.  Its observable
behaviour must stay that of the frozen dataclass it replaced: the same
repr, equality only within one class, the hash of the field tuple, keyword
and positional construction, no assignment or deletion, and the old
construction checks and normalisations, with the factor checks that
descriptors make through stackalg._grouped.  dataclasses is imported only
here.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F

import pytest

from wallcross.arrangement import ProductArrangement, SymmetricFolding, crossing_graph
from wallcross.exactq import MoebiusMap, Value
from wallcross.invariants import FanoNumerics
from wallcross.stackalg import Descriptor, FiniteGroupoidModel, Orbit, _grouped
from wallcross.wallsets import FamilyRecord, WallSet

WS = WallSet((F(1, 5), F(1, 3)))
ARR = ProductArrangement((("a", WS), ("a", WS)))

# (constructor call, field names in constructor order)
CASES = [
    (lambda: MoebiusMap(9, 0, 1, 8), "a b c d"),
    (lambda: WS, "walls"),
    (
        lambda: FamilyRecord("x", 1, F(2), "line", (F(1), F(2)), WS, WS, MoebiusMap(1, 0, 0, 1)),
        "id dimension volume moduli_note hilbert c_walls t_walls reparam",
    ),
    (lambda: FanoNumerics(2, F(3), (F(1), F(3, 2), F(3, 2))), "dimension volume hilbert"),
    (lambda: ARR, "factors"),
    (lambda: crossing_graph(ARR), "nodes edges"),
    (lambda: SymmetricFolding(ARR, ((0, 1),)), "arrangement grouping"),
    (lambda: Descriptor((("a", 1), ("b", 2))), "groups"),
    (lambda: Orbit((0, 1), 2), "points stabilizer_order"),
    (lambda: FiniteGroupoidModel(("a", "b"), ((1, 0),)), "carrier generators"),
]


def test_every_value_type_is_covered():
    covered = {type(make()) for make, _ in CASES}
    assert len(covered) == 10
    assert all(issubclass(cls, Value) for cls in covered)


@pytest.mark.parametrize("make, names", CASES, ids=[type(make()).__name__ for make, _ in CASES])
def test_value_type_matches_dataclass_oracle(make, names):
    x, y = make(), make()
    cls, fields = type(x), names.split()
    values = tuple(getattr(x, f) for f in fields)
    oracle = dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)(*values)
    assert repr(x) == repr(oracle)
    assert hash(x) == hash(oracle) == hash(values)
    assert x == y and not x != y and hash(x) == hash(y)
    assert x != oracle and oracle != x
    assert cls(*values) == x and cls(**dict(zip(fields, values))) == x
    sub = type("Sub", (cls,), {})(*values)
    assert sub != x and x != sub
    for name in [*fields, "other"]:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, f) for f in fields) == values


def test_same_fields_different_class_are_unequal():
    class Left(Value):
        def __init__(self, name):
            self.__dict__.update(name=name)

    class Right(Value):
        __init__ = Left.__init__

    assert Left("x") == Left("x") and Left("x") != Right("x") and Right("x") != Left("x")
    assert hash(Left("x")) == hash(Right("x"))
    assert len({Left("x"), Right("x"), Left("x")}) == 2


def test_keyword_defaults():
    rec = FamilyRecord(id="x", dimension=1, volume=2, moduli_note="n", hilbert=(1, 2))
    assert (rec.c_walls, rec.t_walls, rec.reparam) == (None, None, None)
    assert rec.volume == F(2) and type(rec.volume) is F


def test_construction_normalises():
    assert MoebiusMap(2, 0, 4, 6).coefficients() == (1, 0, 2, 3)
    assert MoebiusMap(-1, 0, 0, -1) == MoebiusMap(1, 0, 0, 1)
    assert WallSet(["1/2"]).walls == (F(1, 2),)
    num = FanoNumerics(1, 2, (1, 2, 0, 0))
    assert num.volume == F(2) and num.hilbert == (F(1), F(2))
    # the factor multiset behind a descriptor: counts summed per iso class
    assert _grouped(["b", "a", "b", "b"], [{"c"}, {"b", "a"}]) == [["a", 4]]
    model = FiniteGroupoidModel(["p", "q"], [[1, 0]])
    assert model.carrier == ("p", "q") and model.generators == ((1, 0),)
    rec = FamilyRecord("x", 1, 2, "n", [1, 2, 0], reparam=MoebiusMap(1, 0, 0, 1))
    assert rec.hilbert == (F(1), F(2))


@pytest.mark.parametrize(
    "make, error, match",
    [
        (lambda: MoebiusMap(1, 2, 2, 4), ValueError, "vanishing determinant"),
        (lambda: MoebiusMap(1.0, 0, 0, 1), TypeError, "integer coefficients"),
        (lambda: WallSet((F(1, 2), F(1, 3))), ValueError, "not strictly increasing"),
        (lambda: WallSet((F(1),)), ValueError, "outside"),
        (lambda: FamilyRecord("", 1, 2, "n", (1, 2)), ValueError, "empty family id"),
        (lambda: FamilyRecord("x", 1, 3, "n", (1, 2)), ValueError, "expected volume"),
        (
            lambda: FamilyRecord("x", 1, 2, "n", (1, 2), WS, WallSet(()), MoebiusMap(1, 0, 0, 1)),
            ValueError,
            "reparam image",
        ),
        (lambda: FanoNumerics(-1, 1, (1,)), ValueError, "negative dimension"),
        (lambda: FanoNumerics(1, 0, (1,)), ValueError, "volume must be positive"),
        (lambda: _grouped({"a": 0}, ()), ValueError, "must be >= 1"),
        (lambda: _grouped((), ({"a", "b"}, {"b", "c"})), ValueError, "disjoint"),
        (lambda: FiniteGroupoidModel((0, 1), ((0, 0),)), ValueError, "not a permutation"),
    ],
)
def test_construction_checks(make, error, match):
    with pytest.raises(error, match=match):
        make()
