import random
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _models
from _models import (
    assert_product_laws,
    brute_canonicalize,
    brute_cardinality,
    brute_grouped,
    brute_multiset_count,
    brute_stabilizer_orders,
    product_generators_oracle,
    random_model,
    random_model_pair,
)
from wallcross import stackalg
from wallcross.errors import BoundExceededError
from wallcross.stackalg import (
    Descriptor,
    FiniteGroupoidModel,
    MapKind,
    _grouped,
    canonicalize,
    classify_product_map,
    groupoid_cardinality,
    orbit_space,
    product_model,
    sym_quotient_model,
)

F = Fraction

S3_GENS = ((1, 2, 0), (1, 0, 2))

# the point ids of the compiled-in registry, as its callers pass them
POINTS = frozenset({"p1"})


def test_canonicalize_two_distinct_factors():
    desc = canonicalize({"dp3": 1, "dp4": 1}, (), POINTS)
    assert desc == Descriptor((("dp3", 1), ("dp4", 1)))
    assert str(desc) == "dp3 x dp4"


def test_canonicalize_repeated_factor():
    desc = canonicalize({"dp4": 2, "p1": 1}, (), POINTS)
    assert desc == Descriptor((("dp4", 2),))
    assert str(desc) == "[dp4^2/S2]"


def test_canonicalize_points_only():
    assert canonicalize({"p1": 3}, (), POINTS) == Descriptor(())
    assert str(Descriptor(())) == "pt"


def test_canonicalize_mixed():
    desc = canonicalize({"dp3": 1, "dp4": 2, "p1": 2}, (), POINTS)
    assert desc == Descriptor((("dp3", 1), ("dp4", 2)))
    assert str(desc) == "dp3 x [dp4^2/S2]"


def test_canonicalize_iso_classes_merge():
    desc = canonicalize({"dp3": 1, "dp4": 1}, ({"dp3", "dp4"},), POINTS)
    assert desc == Descriptor((("dp3", 2),))  # least id of the class
    assert str(desc) == "[dp3^2/S2]"


def test_canonicalize_input_order_invariance():
    rng = random.Random(99)
    items = ["dp3", "dp4", "dp4", "p1", "dp3", "dp3"]
    reference = canonicalize(items, (), POINTS)
    assert str(reference) == "[dp3^3/S3] x [dp4^2/S2]"
    for _ in range(10):
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert canonicalize(shuffled, (), POINTS) == reference


IDS = "abcdp"


def _factor_ids(desc) -> list[str]:
    """The factor list a descriptor stands for, one id per slot."""
    return [rep for rep, power in desc.groups for _ in range(power)]


def _rendered(desc):
    return str(desc), desc.to_json()


FACTORS = st.lists(st.sampled_from(IDS), max_size=8)
# labels[i] names the iso class of IDS[i]; classes of one id are dropped
LABELS = st.lists(st.integers(0, 2), min_size=len(IDS), max_size=len(IDS))
POINT_SETS = st.frozensets(st.sampled_from(IDS))


def _iso(labels):
    return [{i for i, lab in zip(IDS, labels) if lab == label} for label in set(labels)]


@settings(max_examples=150)
@given(FACTORS, LABELS, POINT_SETS, st.data())
def test_canonicalize_idempotent_and_order_free(factors, labels, points, data):
    iso = _iso(labels)
    desc = canonicalize(factors, iso, points)
    assert _rendered(desc) == brute_canonicalize(factors, iso, points)
    assert _rendered(canonicalize(_factor_ids(desc), iso, points)) == _rendered(desc)
    assert _rendered(canonicalize(data.draw(st.permutations(factors)), iso, points)) == _rendered(desc)


@settings(max_examples=200)
@given(FACTORS, LABELS, POINT_SETS)
# iso classes that mix point and non-point ids, the point the least id or not
@example(["a", "b", "b", "p"], [0, 0, 1, 1, 1], frozenset({"a"}))
@example(["c", "d", "p", "p"], [1, 1, 0, 0, 0], frozenset({"p", "c"}))
@example(["a", "p", "p"], [0, 1, 1, 1, 0], frozenset({"p"}))
def test_canonicalize_matches_brute_force_grouping(factors, labels, points):
    iso = _iso(labels)
    assert _rendered(canonicalize(factors, iso, points)) == brute_canonicalize(factors, iso, points)
    assert _grouped(factors, iso) == brute_grouped(factors, iso)
    counts = {fid: factors.count(fid) for fid in factors}
    assert _grouped(counts, iso, points) == brute_grouped(counts, iso, points)


def test_canonicalize_explicit_point_ids():
    desc = canonicalize({"a": 1, "z": 1}, (), frozenset({"z"}))
    assert _rendered(desc) == ("a", {"kind": "atom", "id": "a"})
    assert _rendered(canonicalize({"z": 4}, (), frozenset({"z"}))) == ("pt", {"kind": "point"})
    assert str(canonicalize({"p1": 1, "dp3": 1}, (), frozenset())) == "dp3 x p1"


def test_default_point_ids(registry):
    assert stackalg.point_ids(registry) == POINTS
    extended = {**registry, "q": registry["p1"]}
    assert stackalg.point_ids(extended) == frozenset({"p1", "q"})
    assert stackalg.point_ids({}) == frozenset()


def test_descriptor_sort_order():
    # atoms before symmetric quotients, whatever their ids
    desc = canonicalize({"aa": 2, "bb": 3, "zz": 1, "yy": 1}, (), frozenset())
    assert desc.groups == (("yy", 1), ("zz", 1), ("aa", 2), ("bb", 3))
    assert str(desc) == "yy x zz x [aa^2/S2] x [bb^3/S3]"
    desc = canonicalize({"aa": 3, "zz": 1}, (), frozenset())
    assert str(desc) == "zz x [aa^3/S3]"


def test_descriptor_json():
    desc = canonicalize({"dp3": 1, "dp4": 2}, (), POINTS)
    assert desc.to_json() == {
        "kind": "product",
        "children": [
            {"kind": "atom", "id": "dp3"},
            {"kind": "sym", "base": {"kind": "atom", "id": "dp4"}, "power": 2},
        ],
    }
    assert Descriptor(()).to_json() == {"kind": "point"}


def test_factor_multiset_normalization():
    assert _grouped(["a", "b", "a"], ()) == [["a", 2], ["b", 1]]
    assert _grouped({"b": 2, "a": 1}, ()) == [["a", 1], ["b", 2]]
    assert _grouped({"a": 1}, ()) == [["a", 1]]
    assert _grouped([], ()) == [] and _grouped({}, ()) == []
    # a class of one id asserts nothing, also when it repeats an id
    assert _grouped(["b", "a"], [{"a"}, ["a", "a"], {"a", "b"}]) == [["a", 2]]
    with pytest.raises(ValueError, match="^multiplicity of a must be >= 1, got 0$"):
        _grouped({"a": 0}, ())
    # a dropped id is still checked, and before the iso classes
    with pytest.raises(ValueError, match="^multiplicity of p must be >= 1, got -1$"):
        _grouped({"p": -1}, ({"a", "b"}, {"b", "c"}), frozenset({"p"}))
    with pytest.raises(ValueError, match="^iso classes must be disjoint$"):
        _grouped({"a": 1}, (frozenset({"a", "b"}), frozenset({"b", "c"})))
    with pytest.raises(ValueError, match="^iso classes must be disjoint$"):
        _grouped([], ({"a", "b"}, {"a", "b"}))


@pytest.mark.parametrize("mult", [1.5, 2.9, 2.0, True, "2", None])
def test_multiplicity_must_be_an_int(mult):
    """A multiplicity that is not an int is refused, not truncated: 1.5 was
    read as 1, 2.9 as 2 and True as 1.  A dropped id is checked too."""
    want = f"^multiplicity of dp3 must be an int, got {re.escape(repr(mult))}$"
    with pytest.raises(ValueError, match=want):
        canonicalize({"dp3": mult, "dp4": 1}, [], frozenset())
    with pytest.raises(ValueError, match=want):
        classify_product_map({"dp3": mult})
    with pytest.raises(ValueError, match=want):
        _grouped({"dp3": mult}, (), frozenset({"dp3"}))


def test_factor_multiset_grouping():
    assert _grouped({"dp3": 1, "dp4": 1}, ({"dp3", "dp4"},)) == [["dp3", 2]]
    assert _grouped({"dp3": 2, "p1": 1}, ()) == [["dp3", 2], ["p1", 1]]
    assert _grouped({"dp3": 2, "p1": 1}, (), POINTS) == [["dp3", 2]]
    # the representative is the least present id, not the least of the class
    assert _grouped({"dp5": 2, "dp4": 1}, ({"dp3", "dp4", "dp5"},)) == [["dp4", 3]]
    assert _grouped(["a", "b", "c"], ({"a", "b", "c"},), frozenset({"a"})) == [["b", 2]]


@pytest.mark.parametrize("factors", [{1: 1, "1": 1}, [1, "1"], {("a",): 2}, [None, "a"]])
def test_factor_ids_must_be_str(factors):
    """A factor id that is not a str is refused, not mapped through str:
    {1: 1, "1": 1} used to give [1^2/S2].  A dropped id is checked too."""
    bad = next(fid for fid in factors if not isinstance(fid, str))
    want = f"^factor id {re.escape(repr(bad))} is not a str$"
    with pytest.raises(ValueError, match=want):
        canonicalize(factors, [], frozenset())
    with pytest.raises(ValueError, match=want):
        classify_product_map(factors)
    with pytest.raises(ValueError, match=want):
        _grouped(factors, (), frozenset({bad}))


@pytest.mark.parametrize("iso", [["ab"], [{"a", "b"}, "cd"], ["a"]])
def test_iso_class_must_not_be_a_str(iso):
    """A str class would be read one character at a time: ["ab"] made the
    factors "a" and "b" one class, an S2-gerbe and [a^2/S2]."""
    bad = next(cls for cls in iso if isinstance(cls, str))
    want = f"^iso class {re.escape(repr(bad))} is a str, not a collection of ids$"
    with pytest.raises(ValueError, match=want):
        classify_product_map(["a", "b"], iso)
    with pytest.raises(ValueError, match=want):
        canonicalize(["a", "b"], iso, frozenset())


def test_classify_product_map():
    assert classify_product_map({"dp3": 1, "dp4": 1}) is MapKind.ISOMORPHISM
    assert classify_product_map({"dp3": 2}) is MapKind.S2_GERBE
    assert (
        classify_product_map({"dp3": 1, "dp4": 1}, iso=({"dp3", "dp4"},))
        is MapKind.S2_GERBE
    )
    assert MapKind.S2_GERBE.value == "s2-gerbe"
    assert MapKind.ISOMORPHISM.value == "isomorphism"
    with pytest.raises(ValueError, match="^need exactly 2 factor slots, got 3$"):
        classify_product_map({"dp3": 3})
    with pytest.raises(ValueError, match="^need exactly 2 factor slots, got 1$"):
        classify_product_map({"dp3": 1})
    with pytest.raises(ValueError, match="^need exactly 2 factor slots, got 3$"):
        classify_product_map({"dp3": 1, "dp4": 1, "p1": 1})


@settings(max_examples=200)
@given(st.lists(st.sampled_from(IDS), max_size=4), LABELS)
def test_classify_matches_brute_oracle(factors, labels):
    iso = _iso(labels)
    if len(factors) != 2:
        with pytest.raises(ValueError, match=f"^need exactly 2 factor slots, got {len(factors)}$"):
            classify_product_map(factors, iso)
        return
    a, b = factors
    same = a == b or any(a in cls and b in cls for cls in iso)
    expected = MapKind.S2_GERBE if same else MapKind.ISOMORPHISM
    assert classify_product_map(factors, iso) is expected
    assert classify_product_map({a: 2} if a == b else {b: 1, a: 1}, iso) is expected


def test_classify_is_slot_symmetric():
    assert classify_product_map({"dp4": 1, "dp3": 1}) == classify_product_map(
        {"dp3": 1, "dp4": 1}
    )


def test_s3_orbit_space():
    model = FiniteGroupoidModel(("x", "y", "z"), S3_GENS)
    assert model.group_order() == 6
    orbits = orbit_space(model)
    assert len(orbits) == 1
    assert orbits[0].points == ("x", "y", "z")
    assert orbits[0].stabilizer_order == 2
    assert orbits[0].points[0] == "x"
    assert orbits[0].size == 3
    assert groupoid_cardinality(model) == F(1, 2)


def test_trivial_group_orbit_space():
    model = FiniteGroupoidModel(("w", "x", "y", "z"), ())
    assert model.group_order() == 1
    orbits = orbit_space(model)
    assert len(orbits) == 4
    assert all(o.stabilizer_order == 1 and o.size == 1 for o in orbits)
    assert groupoid_cardinality(model) == 4


def test_half_point_cardinality():
    model = FiniteGroupoidModel(("a", "b", "c"), ((1, 0, 2),))
    orbits = orbit_space(model)
    assert [(o.points, o.stabilizer_order) for o in orbits] == [
        (("a", "b"), 1),
        (("c",), 2),
    ]
    assert groupoid_cardinality(model) == F(3, 2)


def test_model_validates_generators():
    with pytest.raises(ValueError):
        FiniteGroupoidModel(("a", "b"), ((0, 0),))
    with pytest.raises(ValueError):
        FiniteGroupoidModel(("a", "b"), ((0, 1, 2),))
    # entries equal to ints but of another type: 1.0 and True sort as 1
    for gen in [(1.0, 0), (True, 0), (1, False), (F(1), 0), ("b", "a")]:
        with pytest.raises(ValueError, match=r"^not a permutation of 0\.\.1: "):
            FiniteGroupoidModel((0, 1), [gen])


def test_carrier_points_must_be_distinct():
    """A carrier with a repeated point used to build, and counted one point
    as two: ("a", "a") had groupoid cardinality 1."""
    with pytest.raises(ValueError, match="^carrier of 2 points has only 1 distinct$"):
        FiniteGroupoidModel(("a", "a"), ((1, 0),))
    with pytest.raises(ValueError, match="^carrier of 3 points has only 2 distinct$"):
        FiniteGroupoidModel([0, 1, 0], ())
    # product_model skips the check: pairs of distinct points are distinct
    prod = product_model(FiniteGroupoidModel("ab", ((1, 0),)), FiniteGroupoidModel((0, 1, 2), ()))
    assert len(set(prod.carrier)) == len(prod.carrier) == 6


def test_group_order_bound_enforced(monkeypatch):
    """The bound is checked while the group is built: S4 has order 24 > 10.
    A group built before the bound is lowered is not checked again."""
    s4 = (tuple(range(4)), ((1, 2, 3, 0), (1, 0, 2, 3)))
    built = FiniteGroupoidModel(*s4)
    assert built.group_order() == 24
    monkeypatch.setattr(stackalg, "MAX_GROUP_ORDER", 10)
    assert built.group_order() == 24
    with pytest.raises(BoundExceededError, match="^generated group exceeds order bound 10$"):
        FiniteGroupoidModel(*s4).group_order()
    with pytest.raises(BoundExceededError, match="^generated group exceeds order bound 10$"):
        orbit_space(FiniteGroupoidModel(*s4))
    monkeypatch.setattr(stackalg, "MAX_GROUP_ORDER", 23)  # one below the order refuses
    with pytest.raises(BoundExceededError, match="^generated group exceeds order bound 23$"):
        FiniteGroupoidModel(*s4).group_order()
    monkeypatch.setattr(stackalg, "MAX_GROUP_ORDER", 24)  # at the bound it builds
    assert [o.stabilizer_order for o in orbit_space(FiniteGroupoidModel(*s4))] == [6]


def counted_closures(monkeypatch) -> list:
    """The generator sets stackalg._closure is called with from now on."""
    calls = []
    closure = stackalg._closure
    monkeypatch.setattr(
        stackalg, "_closure", lambda gens, n: calls.append(gens) or closure(gens, n)
    )
    return calls


def test_group_is_closed_once_per_model(monkeypatch):
    calls = counted_closures(monkeypatch)
    model = FiniteGroupoidModel(tuple(range(4)), ((1, 2, 3, 0), (1, 0, 2, 3)))
    assert len(model.elements()) == model.group_order() == 24
    assert [o.stabilizer_order for o in orbit_space(model)] == [6]
    assert groupoid_cardinality(model) == F(1, 6)
    assert len(product_model(model, model).carrier) == 16
    assert calls == [model.generators]


def test_memoized_group_leaves_the_value_alone():
    model = FiniteGroupoidModel(("x", "y", "z"), S3_GENS)
    twin = FiniteGroupoidModel(("x", "y", "z"), S3_GENS)
    before = (hash(model), repr(model), vars(model).copy())
    assert model.group_order() == 6
    assert orbit_space(model)[0].stabilizer_order == 2 and sym_quotient_model(model, 2) == 1
    assert (hash(model), repr(model), vars(model)) == before
    assert model == twin and hash(model) == hash(twin) and repr(model) == repr(twin)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.data())
def test_group_order_matches_sympy(n, data):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    gens = data.draw(st.lists(st.permutations(range(n)), max_size=3))
    model = FiniteGroupoidModel(tuple(range(n)), gens)
    group = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(range(n)))] + [combinatorics.Permutation(g) for g in gens]
    )
    assert model.group_order() == group.order()


@settings(max_examples=50, derandomize=True)
@given(st.integers(0, 2**32))
def test_product_generators_match_per_entry_oracle(seed):
    """The table-built lifts equal the per-entry lifts, and the product,
    built without the constructor's check, passes it."""
    a, b = random_model_pair(random.Random(seed))
    prod = product_model(a, b)
    assert prod.generators == product_generators_oracle(a, b)
    rebuilt = FiniteGroupoidModel(prod.carrier, prod.generators)
    assert (rebuilt, repr(rebuilt), hash(rebuilt)) == (prod, repr(prod), hash(prod))


def test_product_model_example():
    s3 = FiniteGroupoidModel(("x", "y", "z"), S3_GENS)
    swap = FiniteGroupoidModel(("a", "b"), ((1, 0),))
    prod = product_model(s3, swap)
    assert prod.group_order() == 12
    orbits = orbit_space(prod)
    assert len(orbits) == 1
    assert orbits[0].size == 6
    assert orbits[0].stabilizer_order == 2  # 2 * 1
    assert orbits[0].points[0] == ("x", "a")


def test_product_model_unit_law():
    one = FiniteGroupoidModel(("*",), ())
    s3 = FiniteGroupoidModel(("x", "y", "z"), S3_GENS)
    left = orbit_space(product_model(one, s3))
    right = orbit_space(product_model(s3, one))
    base = orbit_space(s3)
    assert [(o.size, o.stabilizer_order) for o in left] == [
        (o.size, o.stabilizer_order) for o in base
    ]
    assert [(o.size, o.stabilizer_order) for o in right] == [
        (o.size, o.stabilizer_order) for o in base
    ]
    assert [tuple(p[1] for p in o.points) for o in left] == [o.points for o in base]


def test_product_with_an_empty_carrier():
    empty = FiniteGroupoidModel((), ())
    s3 = FiniteGroupoidModel(("x", "y", "z"), S3_GENS)
    for a, b in ((s3, empty), (empty, s3)):
        prod = product_model(a, b)
        assert prod.carrier == () and prod.generators == product_generators_oracle(a, b)
        assert orbit_space(prod) == () and groupoid_cardinality(prod) == 0


def test_product_model_bound_check_precedes_closure(monkeypatch):
    s3a = FiniteGroupoidModel(tuple(range(3)), S3_GENS)
    monkeypatch.setattr(stackalg, "MAX_GROUP_ORDER", 10)
    with pytest.raises(BoundExceededError, match="product group order 36 exceeds bound 10"):
        product_model(s3a, s3a)
    monkeypatch.setattr(stackalg, "MAX_GROUP_ORDER", 35)
    with pytest.raises(BoundExceededError, match="product group order 36 exceeds bound 35"):
        product_model(s3a, s3a)
    monkeypatch.setattr(stackalg, "MAX_GROUP_ORDER", 36)  # at the bound it builds
    assert product_model(s3a, s3a).group_order() == 36


def test_product_model_carrier_bound_precedes_closure(monkeypatch):
    calls = counted_closures(monkeypatch)
    monkeypatch.setattr(stackalg, "MAX_CARRIER", 8)
    three = FiniteGroupoidModel(tuple(range(3)), ())
    with pytest.raises(BoundExceededError, match="^product carrier of 9 points exceeds bound 8$"):
        product_model(three, three)
    assert calls == []  # refused before either group is closed, so before any pair
    monkeypatch.setattr(stackalg, "MAX_CARRIER", 9)  # at the bound it builds
    assert len(product_model(three, three).carrier) == 9


def test_product_laws_random_pairs():
    rng = random.Random(616)
    for _ in range(30):
        a, b = random_model_pair(rng)
        assert_product_laws(a, b)


def test_product_laws_fail_on_a_wrong_product(monkeypatch):
    """The oracle's asserts are rewritten by pytest (tests/conftest.py), so
    a wrong product fails them under python -O too."""
    monkeypatch.setattr(_models, "product_model", lambda a, b: a)
    s3 = FiniteGroupoidModel(tuple(range(3)), S3_GENS)
    with pytest.raises(AssertionError):
        assert_product_laws(s3, s3)


def test_sym_quotient_counts():
    six = FiniteGroupoidModel(tuple(range(6)), ())
    assert sym_quotient_model(six, 2) == 21
    assert sym_quotient_model(six, 3) == 56
    assert sym_quotient_model(six, 1) == 6
    one = FiniteGroupoidModel(("*",), ())
    assert sym_quotient_model(one, 5) == 1
    s3 = FiniteGroupoidModel(tuple(range(3)), S3_GENS)
    assert sym_quotient_model(s3, 4) == 1  # a single orbit underneath
    with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
        sym_quotient_model(six, 0)


@pytest.mark.parametrize("k", [True, 2.0, "2", None])
def test_sym_quotient_k_must_be_an_int(k):
    """k=True was read as 1, and 2.0 and "2" escaped as a TypeError from
    math.comb or from the comparison."""
    six = FiniteGroupoidModel(tuple(range(6)), ())
    with pytest.raises(ValueError, match=f"^k must be an int, got {re.escape(repr(k))}$"):
        sym_quotient_model(six, k)


def test_sym_quotient_past_enumeration_scale():
    # 120^3 = 1,728,000 k-tuples: the count must not come from enumerating them
    big = FiniteGroupoidModel(tuple(range(120)), ())
    assert sym_quotient_model(big, 3) == comb(122, 3) == 295_240


@settings(max_examples=150)
@given(st.integers(0, 2**32), st.integers(1, 3))
def test_closed_forms_match_brute_force_oracles(seed, k):
    model = random_model(random.Random(seed))
    orbits = orbit_space(model)
    assert [o.stabilizer_order for o in orbits] == brute_stabilizer_orders(model)
    assert groupoid_cardinality(model) == brute_cardinality(model)
    assert sym_quotient_model(model, k) == brute_multiset_count(len(orbits), k)


def test_cardinality_equals_carrier_over_group():
    """The closed form against stabilizers counted over the group, and that
    count against |carrier| / |G|."""
    rng = random.Random(717)
    for _ in range(25):
        model = random_model(rng)
        counted = brute_cardinality(model)
        assert groupoid_cardinality(model) == counted
        assert counted == F(len(model.carrier), model.group_order())


def test_memoized_orbit_data_match_a_fresh_model():
    """The second call returns the memo, and it equals what a fresh model
    with the same fields computes and the stabilizers counted over G."""
    rng = random.Random(919)
    for _ in range(25):
        model = random_model(rng)
        if rng.random() < 0.5:
            model = product_model(model, random_model(rng, max_points=3))
        parts, orbits = model.orbit_partition(), orbit_space(model)
        assert model.orbit_partition() is parts and orbit_space(model) is orbits
        fresh = FiniteGroupoidModel(model.carrier, model.generators)
        assert orbit_space(fresh) == orbits and fresh.orbit_partition() == parts
        assert [o.stabilizer_order for o in orbits] == brute_stabilizer_orders(fresh)


def test_orbit_partition_matches_orbit_space():
    rng = random.Random(818)
    for _ in range(25):
        model = random_model(rng)
        parts = model.orbit_partition()
        assert sorted(i for block in parts for i in block) == list(
            range(len(model.carrier))
        )
        spaces = orbit_space(model)
        assert [o.points for o in spaces] == [
            tuple(model.carrier[i] for i in block) for block in parts
        ]
        for o in spaces:
            assert o.size * o.stabilizer_order == model.group_order()
