import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _models import hand_built_registry
from wallcross import cli, invariants, wallsets
from wallcross.arrangement import ProductArrangement, cell_json, cell_str
from wallcross.errors import MissingDataError, PoleError
from wallcross.exactq import MoebiusMap
from wallcross.wallsets import FamilyRecord, WallSet, load_registry

F = Fraction

DP3_C = (F(2, 11), F(4, 13), F(2, 5), F(10, 19), F(2, 3))
DP3_T = (F(1, 5), F(1, 3), F(3, 7), F(5, 9), F(9, 13))
DP4_C = (F(1, 7), F(1, 4), F(1, 3), F(1, 2), F(5, 8))
DP4_T = (F(1, 6), F(2, 7), F(3, 8), F(6, 11), F(2, 3))


def test_registry_families_present(registry):
    assert {"dp1", "dp2", "dp3", "dp4", "p1"} <= set(registry)


def test_registry_dp3_record(registry):
    rec = registry["dp3"]
    assert rec.dimension == 2
    assert rec.volume == 3
    assert rec.hilbert == (F(1), F(3, 2), F(3, 2))
    assert rec.walls("c").walls == DP3_C
    assert rec.walls("t").walls == DP3_T
    assert rec.reparam == MoebiusMap(9, 0, 1, 8)
    assert not rec.is_point
    assert "P(1,2,3,4,5)" in rec.moduli_note


def test_registry_dp4_record(registry):
    rec = registry["dp4"]
    assert rec.dimension == 2
    assert rec.volume == 4
    assert rec.hilbert == (F(1), F(2), F(2))
    assert rec.walls("c").walls == DP4_C
    assert rec.walls("t").walls == DP4_T
    assert rec.reparam == MoebiusMap(6, 0, 1, 5)
    assert "P(1,2,3)" in rec.moduli_note


def test_registry_p1_record(registry):
    rec = registry["p1"]
    assert rec.dimension == 1
    assert rec.volume == 2
    assert rec.hilbert == (F(1), F(2))
    assert rec.is_point
    assert rec.walls("c").walls == ()
    assert rec.walls("t").walls == ()
    assert rec.reparam == MoebiusMap(1, 0, 0, 1)


def test_registry_families_without_wall_tables(registry):
    for fid in ("dp1", "dp2"):
        rec = registry[fid]
        assert rec.c_walls is None and rec.t_walls is None
        assert not rec.is_point
        with pytest.raises(MissingDataError):
            rec.walls("c")
        with pytest.raises(MissingDataError):
            rec.walls("t")
    assert registry["dp1"].volume == 1 and registry["dp1"].dimension == 2
    assert registry["dp2"].volume == 2 and registry["dp2"].dimension == 2
    assert "Kirwan" in registry["dp2"].moduli_note


def test_wallset_rejects_bad_tables():
    with pytest.raises(ValueError):
        WallSet((F(0), F(1, 2)))  # endpoint stored
    with pytest.raises(ValueError):
        WallSet((F(1, 2), F(1)))  # endpoint stored
    with pytest.raises(ValueError):
        WallSet((F(1, 2), F(1, 3)))  # out of order
    with pytest.raises(ValueError):
        WallSet((F(1, 3), F(1, 3)))  # duplicate
    with pytest.raises(ValueError):
        WallSet((F(-1, 2),))  # outside (0, 1)
    with pytest.raises(ValueError):
        WallSet((F(3, 2),))


def test_chambers_tile_the_interval(registry):
    ws = registry["dp3"].walls("c")
    chs = ws.chambers()
    assert len(chs) == 6
    assert chs[0] == (F(0), F(2, 11))
    assert chs[-1] == (F(2, 3), F(1))
    for (_, upper), (lower, _) in zip(chs, chs[1:]):
        assert upper == lower
    dp4 = registry["dp4"].walls("c").chambers()
    assert dp4[-1] == (F(5, 8), F(1))
    assert WallSet(()).chambers() == ((F(0), F(1)),)


def test_locate_in_dp3_c_walls(registry):
    ws = registry["dp3"].walls("c")
    # 1/2 lies past walls 2/11, 4/13, 2/5 and before 10/19, so chamber 3
    assert ws.locate(F(1, 2)) == 6  # chamber 3
    assert ws.locate(F(2, 5)) == 5  # wall 2
    assert ws.locate(F(1, 100)) == 0
    assert ws.locate(F(99, 100)) == 10
    for bad in (F(0), F(1), F(-1, 2), F(3, 2)):
        with pytest.raises(ValueError, match=rf"^{bad} outside the open interval \(0, 1\)$"):
            ws.locate(bad)


def test_locate_random_consistency():
    rng = random.Random(1111)
    for _ in range(50):
        n = rng.randint(0, 6)
        values = sorted({F(rng.randint(1, 99), 100) for _ in range(n)})
        ws = WallSet(tuple(values))
        for i, w in enumerate(ws.walls):
            assert ws.locate(w) == 2 * i + 1
        for i, (lower, upper) in enumerate(ws.chambers()):
            assert ws.locate((lower + upper) / 2) == 2 * i


# points of (0, 1) with denominators dividing 60, so that walls are often hit
unit_points = st.integers(1, 59).map(lambda n: F(n, 60))
wall_sets = st.lists(unit_points, max_size=6, unique=True).map(sorted)


@settings(max_examples=100)
@given(wall_sets, st.lists(unit_points, min_size=1, max_size=6))
def test_chambers_tile_the_interval_as_locate_says(walls, points):
    ws = WallSet(tuple(walls))
    chambers = ws.chambers()
    # contiguous and covering (0, 1): each chamber ends at the next wall
    assert len(chambers) == len(walls) + 1
    assert chambers[0][0] == 0 and chambers[-1][1] == 1
    for (_, upper), wall, (lower, _) in zip(chambers, walls, chambers[1:]):
        assert upper == wall == lower
    for x in points:
        i, on_wall = divmod(ws.locate(x), 2)
        assert on_wall == (x in walls)
        if on_wall:
            assert x == walls[i]
        else:
            assert chambers[i][0] < x < chambers[i][1]


@settings(max_examples=50)
@given(st.lists(st.tuples(wall_sets, unit_points), min_size=1, max_size=3))
def test_product_locate_is_the_per_factor_positions(factors):
    sets = [WallSet(tuple(walls)) for walls, _ in factors]
    arr = ProductArrangement(tuple((f"f{i}", ws) for i, ws in enumerate(sets)))
    point = [x for _, x in factors]
    assert arr.locate(point) == tuple(ws.locate(x) for ws, x in zip(sets, point))


def test_coord_ordering_and_forms():
    ws = WallSet((F(1, 5), F(1, 4), F(1, 3), F(1, 2)))
    # chamber 0, wall 0, chamber 3, wall 3 rank left to right along (0, 1)
    assert [ws.locate(x) for x in (F(1, 10), F(1, 5), F(2, 5), F(1, 2))] == [0, 1, 6, 7]
    assert cell_str((6, 5)) == "(chamber 3, wall 2)"
    assert cell_json((4, 3)) == {
        "coords": [{"kind": "chamber", "index": 2}, {"kind": "wall", "index": 1}],
        "codim": 1,
    }


def test_c_to_t_translation(registry):
    for fid, t_walls in (("dp3", DP3_T), ("dp4", DP4_T), ("p1", ())):
        rec = registry[fid]
        assert rec.c_walls.map(rec.reparam).walls == rec.t_walls.walls == t_walls
    for c, t in zip(DP3_C, DP3_T):
        assert registry["dp3"].reparam(c) == t
    for c, t in zip(DP4_C, DP4_T):
        assert registry["dp4"].reparam(c) == t


def test_wallset_map_requires_monotone_image():
    ws = WallSet((F(1, 3), F(1, 2)))
    assert ws.map(MoebiusMap(1, 0, 0, 1)) == ws
    mapped = ws.map(MoebiusMap(9, 0, 1, 8))
    assert mapped.walls == (F(9, 25), F(9, 17))
    # a map sending some wall outside (0, 1) is rejected by WallSet validation
    with pytest.raises(ValueError):
        ws.map(MoebiusMap(1, 1, 0, 1))


def test_family_record_checks_internal_consistency():
    with pytest.raises(ValueError):
        FamilyRecord(
            id="bad",
            dimension=1,
            volume=2,
            moduli_note="x",
            hilbert=(F(1), F(1)),  # leading term says volume 1, not 2
        )
    with pytest.raises(ValueError):
        FamilyRecord(
            id="bad",
            dimension=1,
            volume=2,
            moduli_note="x",
            hilbert=(F(2), F(2)),  # value at 0 must be 1
        )
    with pytest.raises(ValueError):
        FamilyRecord(
            id="bad",
            dimension=1,
            volume=2,
            moduli_note="x",
            hilbert=(F(1), F(2)),
            c_walls=WallSet((F(1, 3),)),
            t_walls=WallSet((F(1, 2),)),  # disagrees with identity reparam
            reparam=MoebiusMap(1, 0, 0, 1),
        )


def test_family_record_takes_the_reparam_image_as_t_walls():
    """Given c-walls and a reparam but no t-walls, the record's t-walls are
    the image, and it equals the record given those t-walls."""
    hilbert, c_walls, reparam = (F(1), F(3, 2), F(3, 2)), WallSet(DP3_C), MoebiusMap(9, 0, 1, 8)
    rec = FamilyRecord("x", 2, 3, "n", hilbert, c_walls, None, reparam)
    assert rec.t_walls == WallSet(DP3_T)
    assert rec == FamilyRecord("x", 2, 3, "n", hilbert, c_walls, WallSet(DP3_T), reparam)
    assert FamilyRecord("x", 2, 3, "n", hilbert, c_walls).t_walls is None  # no reparam


def test_wallset_json_and_str(registry):
    ws = registry["dp3"].walls("t")
    assert ws.to_json() == ["1/5", "1/3", "3/7", "5/9", "9/13"]
    assert str(ws) == "1/5 1/3 3/7 5/9 9/13"
    assert len(ws) == 5
    assert list(ws) == list(DP3_T)
    assert str(WallSet(())) == ""
    assert WallSet(()).to_json() == []


def test_overlay_adds_family(tmp_path):
    overlay = {
        "toy": {
            "dimension": 1,
            "volume": 2,
            "moduli_note": "toy line",
            "hilbert": ["1", "2"],
            "c_walls": ["1/3", "1/2"],
            "reparam": [1, 0, 0, 1],
        }
    }
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps(overlay))
    reg = load_registry(path)
    assert load_registry(str(path)) == reg  # a str path and a PathLike both work
    rec = reg["toy"]
    assert rec.walls("c").walls == (F(1, 3), F(1, 2))
    assert rec.walls("t").walls == (F(1, 3), F(1, 2))  # derived via reparam
    assert {"dp3", "dp4"} <= set(reg)  # built-ins still present


def test_overlay_replaces_family(tmp_path):
    overlay = {
        "dp3": {
            "dimension": 2,
            "volume": 3,
            "moduli_note": "replaced",
            "hilbert": ["1", "3/2", "3/2"],
            "c_walls": ["1/2"],
            "reparam": [9, 0, 1, 8],
        }
    }
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps(overlay))
    reg = load_registry(path)
    assert reg["dp3"].moduli_note == "replaced"
    assert reg["dp3"].walls("t").walls == (MoebiusMap(9, 0, 1, 8)(F(1, 2)),)


def test_registry_decodes_to_the_hand_built_records(tmp_path):
    """The built-in families, decoded from overlay data, equal the records
    built field by field, in value and key order; an overlay record keeps a
    replaced id's place, and a new id follows the built-ins."""
    want = hand_built_registry()
    assert list(load_registry().items()) == list(want.items())
    overlay = {
        "dp3": {"dimension": 1, "volume": "1/2", "moduli_note": "replaced",
                "hilbert": [1, "1/2"], "c_walls": ["1/4"], "reparam": [1, 0, 0, 1]},
        "a0": {"dimension": 1, "volume": 2, "moduli_note": "new", "hilbert": ["1", "2"]},
    }
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps(overlay))
    ws = WallSet((F(1, 4),))
    want["dp3"] = FamilyRecord("dp3", 1, F(1, 2), "replaced", (F(1), F(1, 2)), ws, ws,
                               MoebiusMap(1, 0, 0, 1))
    want["a0"] = FamilyRecord("a0", 1, F(2), "new", (F(1), F(2)))
    assert list(load_registry(path).items()) == list(want.items())
    assert list(want) == ["dp1", "dp2", "dp3", "dp4", "p1", "a0"]


def test_overlay_rejects_malformed_files(tmp_path):
    bad_shape = tmp_path / "bad1.json"
    bad_shape.write_text(json.dumps(["not", "a", "mapping"]))
    with pytest.raises(ValueError):
        load_registry(bad_shape)

    bad_walls = tmp_path / "bad2.json"
    bad_walls.write_text(
        json.dumps(
            {
                "toy": {
                    "dimension": 1,
                    "volume": 2,
                    "moduli_note": "x",
                    "hilbert": ["1", "2"],
                    "c_walls": ["1/2", "1/3"],
                    "reparam": [1, 0, 0, 1],
                }
            }
        )
    )
    with pytest.raises(ValueError):
        load_registry(bad_walls)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dimension", 1.9),
        ("dimension", 1.0),
        ("dimension", "1"),
        ("dimension", True),
        ("reparam", [1.7, 0, 0, 1]),
        ("reparam", [True, 0, 0, 1]),
        ("reparam", ["1", 0, 0, 1]),
    ],
)
def test_overlay_rejects_non_integer_fields(tmp_path, field, value):
    """The dimension is checked by FanoNumerics alone, a reparam entry by the
    decoder, before MoebiusMap would raise a TypeError."""
    record = {
        "dimension": 1,
        "volume": 2,
        "moduli_note": "toy line",
        "hilbert": ["1", "2"],
        "c_walls": ["1/3", "1/2"],
        "reparam": [1, 0, 0, 1],
    }
    record[field] = value
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps({"toy": record}))
    with pytest.raises(ValueError) as info:
        load_registry(path)
    message = (f"dimension must be an int, got {value!r}" if field == "dimension"
               else f"reparam entry {value[0]!r} is not an integer")
    assert str(info.value) == f"registry record 'toy': {message}"


TOY = {"dimension": 1, "volume": 2, "moduli_note": "toy line", "hilbert": ["1", "2"]}


@pytest.mark.parametrize(
    "record, error, message",
    [
        (["not", "a", "mapping"], ValueError, "not a JSON object"),
        (dict(TOY, c_walls=["1/2", "1/3"]), ValueError, "walls not strictly increasing: 1/2 1/3"),
        (dict(TOY, c_walls=["1/2"], reparam=[1, 0, 2, -1]), PoleError,
         "(x)/(2x - 1) has a pole at 1/2"),
        (dict(TOY, c_wals=["1/3"]), ValueError, "unknown field(s): c_wals"),
        (dict(TOY, walls=[], c_wals=["1/3"]), ValueError, "unknown field(s): c_wals, walls"),
        ({"dimension": 1, "hilbert": ["1", "2"]}, ValueError, "missing field(s): volume, moduli_note"),
    ],
)
def test_overlay_refusals_name_the_record(tmp_path, record, error, message):
    """A refusal raised by the decoder or by a constructor it calls keeps its
    type, so the CLI's exit code is unchanged, and names the record once."""
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps({"toy": record}))
    with pytest.raises(error) as info:
        load_registry(path)
    assert type(info.value) is error
    assert str(info.value) == f"registry record 'toy': {message}"


@pytest.mark.parametrize(
    "text, message",
    [
        # json.dumps never repeats a key, so these files are written by hand
        (f'{{"toy": {json.dumps(TOY)}, "toy": {json.dumps(TOY)}}}',
         "registry overlay repeats key 'toy'"),
        ('{"toy": {"dimension": 1, "volume": 2, "volume": 3}}',
         "registry record 'toy': repeats key 'volume'"),
        ('{"toy": {"hilbert": [{"a": 1, "a": 1}]}}', "registry record 'toy': repeats key 'a'"),
    ],
    ids=["record", "field", "nested"],
)
def test_overlay_refuses_repeated_keys(tmp_path, text, message):
    """A repeated key at any level is refused, where json.load alone would keep
    the last one; a repeat inside a record names the record."""
    path = tmp_path / "overlay.json"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_registry(path)
    assert str(info.value) == message


def test_overlay_nested_too_deeply_is_refused(data_dir):
    """Nesting past the interpreter's recursion limit is a ValueError, not a
    RecursionError: from json.load for the committed overlay, whose 20,000
    levels pass the parser's own limit on every supported Python (10,000 on
    3.13), so its manifest entry is the same on each; and from the decoder,
    in the record's name, for a record that json.load returned (from Python
    3.12 on, json.load counts its depth apart from the interpreter's frames
    and parses deeper than the decoder can walk)."""
    with pytest.raises(ValueError) as info:
        load_registry(data_dir / "overlay_deep.json")
    assert str(info.value) == "registry overlay nested too deeply"
    hilbert = ["1"]
    for _ in range(5000):
        hilbert = [hilbert]
    record = tuple(dict(TOY, hilbert=hilbert).items())  # as object_pairs_hook=tuple gives it
    with pytest.raises(ValueError) as info:
        wallsets._record_from_json("toy", record)
    assert str(info.value) == "registry record 'toy': nested too deeply"


def test_overlay_dimension_bound_precedes_arithmetic(tmp_path, monkeypatch):
    """A dimension above MAX_DIMENSION is refused before the consistency
    check computes its factorial; at the bound, every problem is still
    reported."""
    from wallcross import invariants

    calls = []
    factorial = invariants.factorial
    monkeypatch.setattr(invariants, "factorial", lambda n: calls.append(n) or factorial(n))
    record = {"dimension": 3000, "volume": 2, "moduli_note": "x", "hilbert": ["2", "2"]}
    path = tmp_path / "overlay.json"
    path.write_text(json.dumps({"big": record}))
    with pytest.raises(ValueError, match="^registry record 'big': dimension 3000 above the bound"):
        load_registry(path)
    assert calls and 3000 not in calls  # only the compiled-in records were checked
    path.write_text(json.dumps({"big": dict(record, dimension=invariants.MAX_DIMENSION)}))
    with pytest.raises(ValueError) as info:
        load_registry(path)
    assert str(info.value).startswith(
        "registry record 'big': hilbert(0) = 2, expected 1; hilbert degree 1, expected 100; "
        "100! * lead = "
    )
    assert calls[-1] == 100


def test_registry_internal_consistency(registry):
    from wallcross.invariants import consistency_check
    from math import factorial

    for rec in registry.values():
        assert consistency_check(rec.numerics()) == []
        assert rec.hilbert[0] == 1
        assert factorial(rec.dimension) * rec.hilbert[-1] == rec.volume
        if rec.c_walls is not None and rec.reparam is not None:
            assert rec.c_walls.map(rec.reparam) == rec.walls("t")
            a, b, c, d = rec.reparam.coefficients()
            assert a * d - b * c > 0
            assert rec.reparam(F(1, 2)) > 0  # no pole in (0, 1)


def test_numerics_is_the_object_built_at_construction(registry, monkeypatch):
    """A record keeps the FanoNumerics it checked, so `check`'s 25 product
    pairs build none; the memo is a slot, not a field of the value."""
    rec = registry["dp3"]
    assert rec.numerics() is rec.numerics()
    assert (rec.numerics().dimension, rec.numerics().volume) == (2, 3)
    assert "_numerics" not in vars(rec)
    built = []
    init = invariants.FanoNumerics.__init__
    monkeypatch.setattr(invariants.FanoNumerics, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    assert cli._check_products(registry) == "product volume/hilbert identity holds (25 pairs)"
    assert built == []
