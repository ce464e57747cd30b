import hashlib
import inspect
import itertools
import json
import random
import re
import sys
from contextlib import contextmanager
from decimal import ROUND_HALF_UP, Decimal, getcontext
from fractions import Fraction
from math import comb

import pytest
from _models import brute_burnside_orbit_count, cells_oracle, group_images, orbits_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from wallcross import arrangement
from wallcross.arrangement import (
    MAX_CELLS,
    ProductArrangement,
    SymmetricFolding,
    build_product,
    cell_codim,
    cell_json,
    cell_str,
    crossing_graph,
    grouping_by_id,
    render,
)
from wallcross.errors import BoundExceededError, UnsupportedError
from wallcross.wallsets import WallSet

F = Fraction

getcontext().prec = 50


def svg_coord(value: Fraction) -> str:
    """Independent 6-decimal rendering of an SVG coordinate via decimal."""
    d = Decimal(value.numerator) / Decimal(value.denominator)
    return str(d.quantize(Decimal("0.000001"), rounding=ROUND_HALF_UP))


def codim_count_oracle(wall_counts, j):
    """Elementary symmetric count: choose which j factors sit on a wall."""
    total = 0
    for subset in itertools.combinations(range(len(wall_counts)), j):
        prod = 1
        for i, w in enumerate(wall_counts):
            prod *= w if i in subset else w + 1
        total += prod
    return total


def decode(cell):
    """(kind, index) per position: even positions are chambers, odd ones walls."""
    return tuple(("wall" if p % 2 else "chamber", p // 2) for p in cell)


def random_wallset(rng, max_walls=4):
    n = rng.randint(0, max_walls)
    values = sorted({F(rng.randint(1, 59), 60) for _ in range(n)})
    return WallSet(tuple(values))


def test_two_factor_cell_counts(registry):
    arr = build_product([registry["dp3"], registry["dp4"]])
    assert arr.k == 2
    assert arr.wall_counts == (5, 5)
    assert len(arr.cells(0)) == 36
    assert len(arr.cells(1)) == 60  # 5*6 + 6*5
    assert len(arr.cells(2)) == 25
    assert len(arr.all_cells()) == 121  # 11 * 11


def test_no_factor_and_single_factor_counts(registry):
    empty = build_product([])
    assert empty.k == 0
    assert [cell_json(c) for c in empty.cells(0)] == [{"coords": [], "codim": 0}]
    single = build_product([registry["dp3"]])
    assert len(single.cells(0)) == 6
    assert len(single.cells(1)) == 5
    assert len(single.all_cells()) == 11


def test_cells_rejects_bad_codim(registry):
    arr = build_product([registry["dp3"], registry["dp4"]])
    with pytest.raises(ValueError, match=r"^codim -1 outside 0\.\.2$"):
        arr.cells(-1)
    with pytest.raises(ValueError, match=r"^codim 3 outside 0\.\.2$"):
        arr.cells(3)


def test_cells_are_lex_sorted(registry):
    arr = build_product([registry["dp3"], registry["dp4"]])
    for j in range(3):
        cells = arr.cells(j)
        assert list(cells) == sorted(cells)
        assert len(set(cells)) == len(cells)
    assert arr.cells(0)[0] == (0, 0)
    assert arr.cells(2)[0] == (1, 1)
    assert cell_str(arr.cells(2)[0]) == "(wall 0, wall 0)"


def test_locate_points(registry):
    arr = build_product([registry["dp3"], registry["dp4"]])
    cell = arr.locate((F(1, 2), F(1, 5)))
    assert cell == (6, 2)
    assert cell_codim(cell) == 0
    assert cell_str(cell) == "(chamber 3, chamber 1)"
    on_walls = arr.locate((F(2, 5), F(1, 4)))
    assert on_walls == (5, 3)
    assert cell_codim(on_walls) == 2
    assert cell_str(on_walls) == "(wall 2, wall 1)"
    mixed = arr.locate((F(2, 5), F(9, 10)))
    assert mixed == (5, 10)
    assert cell_codim(mixed) == 1
    assert cell_json(mixed) == {
        "coords": [{"kind": "wall", "index": 2}, {"kind": "chamber", "index": 5}],
        "codim": 1,
    }
    with pytest.raises(ValueError, match=r"^point of length 1 in a 2-factor arrangement$"):
        arr.locate((F(1, 2),))
    with pytest.raises(ValueError, match=r"^0 outside the open interval \(0, 1\)$"):
        arr.locate((F(1, 2), F(0)))


def test_cell_count_formulas_random():
    rng = random.Random(2024)
    for _ in range(40):
        k = rng.randint(0, 3)
        factors = [(f"f{i}", random_wallset(rng)) for i in range(k)]
        arr = ProductArrangement(tuple(factors))
        for j in range(k + 1):
            cells = arr.cells(j)
            assert len(cells) == codim_count_oracle(arr.wall_counts, j)
            assert [decode(c) for c in cells] == cells_oracle(arr.wall_counts, j)
            assert all(cell_codim(c) == j for c in cells)
        total = 1
        for w in arr.wall_counts:
            total *= 2 * w + 1
        assert len(arr.all_cells()) == total


def test_cell_counts_closed_form_matches_enumeration_random():
    rng = random.Random(2025)
    for _ in range(60):
        k = rng.randint(0, 4)
        arr = ProductArrangement(tuple((f"f{i}", random_wallset(rng)) for i in range(k)))
        counts = arr.cell_counts
        assert len(counts) == k + 1
        assert counts == tuple(len(arr.cells(j)) for j in range(k + 1))
        assert counts == tuple(codim_count_oracle(arr.wall_counts, j) for j in range(k + 1))


def no_walk(*args):
    raise AssertionError("the lex walk ran past the bound")


def test_cells_bounded_before_enumeration(registry, monkeypatch):
    dp3 = registry["dp3"]
    arr = build_product([dp3] * 9)
    counts = arr.cell_counts
    assert counts[0] == 6**9 and counts[9] == 5**9
    # singleton parts leave one representative per cell
    unfolded = SymmetricFolding(arr, [(i,) for i in range(9)])
    monkeypatch.setattr(arrangement, "_lex_walk", no_walk)
    for j in range(9):
        assert counts[j] > MAX_CELLS
        with pytest.raises(BoundExceededError):
            arr.cells(j)
    with pytest.raises(BoundExceededError):
        crossing_graph(arr)
    # orbits bounds each codimension as cells does; codim 9 has 5**9 and is
    # within the bound, so it is not enumerated here
    for j in range(9):
        assert unfolded.orbit_count(j) == counts[j]
        with pytest.raises(BoundExceededError, match=rf"^{counts[j]} codim-{j} orbit repr"):
            unfolded.orbits(j)
    # the largest codimension of dp3^6 stays inside the bound
    assert max(build_product([dp3] * 6).cell_counts) == 540_000 <= MAX_CELLS


def test_cells_refuse_exactly_the_codims_past_the_bound(registry, monkeypatch):
    arr = build_product([registry["dp3"], registry["dp4"]])
    assert arr.cell_counts == (36, 60, 25)
    monkeypatch.setattr(arrangement, "MAX_CELLS", 60)  # a codimension at the bound is listed
    assert len(arr.cells(1)) == 60
    monkeypatch.setattr(arrangement, "MAX_CELLS", 59)
    with pytest.raises(BoundExceededError, match="^60 codim-1 cells, above the bound 59$"):
        arr.cells(1)
    assert len(arr.cells(0)) == 36


def test_orbits_refuse_exactly_the_codims_past_the_bound(registry, monkeypatch):
    arr = build_product([registry["dp3"], registry["dp4"], registry["dp3"]])
    folding = SymmetricFolding(arr, grouping_by_id(arr))  # parts (0, 2) and (1,)
    counts = [folding.burnside_orbit_count(j) for j in range(4)]
    assert counts == [126, 285, 240, 75]
    bound = 126  # a codimension at the bound is still listed
    monkeypatch.setattr(arrangement, "MAX_CELLS", bound)
    for j, count in enumerate(counts):
        if count <= bound:
            assert len(folding.orbits(j)) == count
            continue
        with monkeypatch.context() as patch:
            patch.setattr(arrangement, "_lex_walk", no_walk)
            message = rf"^{count} codim-{j} orbit representatives, above the bound {bound}$"
            with pytest.raises(BoundExceededError, match=message):
                folding.orbits(j)


def test_burnside_polynomial_is_built_once_per_folding(registry, monkeypatch):
    arr = build_product([registry["dp3"]] * 4)
    folding = SymmetricFolding(arr, grouping_by_id(arr))
    calls, perm = [], arrangement.perm
    monkeypatch.setattr(arrangement, "perm", lambda *args: calls.append(args) or perm(*args))
    first = [folding.burnside_orbit_count(j) for j in range(5)]
    built = len(calls)
    assert built > 0 and first == [126, 280, 315, 210, 70]
    assert [folding.burnside_orbit_count(j) for j in range(5)] == first
    assert len(calls) == built
    # the memo is no field of the value: a fresh folding is equal, with the same hash
    fresh = SymmetricFolding(arr, grouping_by_id(arr))
    assert folding == fresh and hash(folding) == hash(fresh) and vars(folding) == vars(fresh)


def test_cell_counts_are_built_once_per_arrangement(monkeypatch):
    """cells reads cell_counts for its bound at each codimension; the closed
    form behind them is built at the first read.  100 wall-free factors."""
    arr = ProductArrangement(tuple((f"f{i}", WallSet(())) for i in range(100)))
    calls, counts = [], arrangement._representative_counts
    monkeypatch.setattr(arrangement, "_representative_counts",
                        lambda parts: calls.append(parts) or counts(parts))
    assert [arr.cells(j) for j in range(101)] == [((0,) * 100,)] + [()] * 100
    assert len(calls) == 1
    fresh = ProductArrangement(arr.factors)
    assert arr == fresh and hash(arr) == hash(fresh) and vars(arr) == vars(fresh)


def test_orbit_counts_are_built_once_per_folding(monkeypatch):
    """The text report asks orbit_count at each of the k + 1 codimensions;
    the closed form behind them is built at the first.  100 factors with
    distinct one-wall sets make 100 singleton parts."""
    arr = ProductArrangement(tuple((f"f{i}", WallSet((Fraction(1, i + 2),))) for i in range(100)))
    folding = SymmetricFolding(arr, grouping_by_id(arr))
    calls, counts = [], arrangement._representative_counts
    monkeypatch.setattr(arrangement, "_representative_counts",
                        lambda parts: calls.append(parts) or counts(parts))
    assert [folding.orbit_count(j) for j in range(101)] == [
        comb(100, j) * 2 ** (100 - j) for j in range(101)]
    assert len(calls) == 1
    fresh = SymmetricFolding(arr, grouping_by_id(arr))
    assert folding == fresh and hash(folding) == hash(fresh) and vars(folding) == vars(fresh)


def test_crossing_graph_two_factors(registry):
    arr = build_product([registry["dp3"], registry["dp4"]])
    graph = crossing_graph(arr)
    assert len(graph.nodes) == 36
    assert len(graph.edges) == 60
    assert graph.is_connected()
    labels = [label for _, _, label in graph.edges]
    assert len(set(labels)) == 60
    assert set(labels) == set(arr.cells(1))
    for a, b, label in graph.edges:
        a, b, label = map(decode, (a, b, label))
        pos = next(i for i, (kind, _) in enumerate(label) if kind == "wall")
        idx = label[pos][1]
        assert a[pos] == ("chamber", idx)
        assert b[pos] == ("chamber", idx + 1)
        for i in range(arr.k):
            if i != pos:
                assert a[i] == b[i] == label[i]


def test_crossing_graph_no_factors():
    graph = crossing_graph(build_product([]))
    assert graph.nodes == ((),) and graph.edges == ()
    assert graph.is_connected()


def test_crossing_graph_single_factor_is_path(registry):
    arr = build_product([registry["dp3"]])
    graph = crossing_graph(arr)
    assert len(graph.nodes) == 6
    got = {(decode(a)[0][1], decode(b)[0][1]) for a, b, _ in graph.edges}
    assert got == {(i, i + 1) for i in range(5)}
    assert graph.is_connected()


def test_crossing_graph_is_box_product_of_paths():
    rng = random.Random(555)
    for _ in range(25):
        k = rng.randint(1, 3)
        factors = [(f"f{i}", random_wallset(rng)) for i in range(k)]
        arr = ProductArrangement(tuple(factors))
        graph = crossing_graph(arr)

        def chamber_tuple(cell):
            coords = decode(cell)
            assert all(kind == "chamber" for kind, _ in coords)
            return tuple(index for _, index in coords)

        nodes = {chamber_tuple(n) for n in graph.nodes}
        expected_nodes = set(
            itertools.product(*(range(w + 1) for w in arr.wall_counts))
        )
        assert nodes == expected_nodes
        got_edges = {
            frozenset((chamber_tuple(a), chamber_tuple(b)))
            for a, b, _ in graph.edges
        }
        expected_edges = set()
        for u in expected_nodes:
            for i in range(k):
                v = u[:i] + (u[i] + 1,) + u[i + 1 :]
                if v in expected_nodes:
                    expected_edges.add(frozenset((u, v)))
        assert got_edges == expected_edges
        assert len(graph.edges) == len(arr.cells(1))


def test_fold_two_equal_factors(registry):
    arr = build_product([registry["dp3"], registry["dp3"]])
    folding = SymmetricFolding(arr, [(0, 1)])
    assert folding.group_order() == 2
    assert [folding.orbit_count(j) for j in range(3)] == [21, 30, 15]
    assert [folding.burnside_orbit_count(j) for j in range(3)] == [21, 30, 15]
    # mirror cells share one orbit; the representative is the lex-least member
    a = (4, 0)  # chambers (2, 0)
    b = (0, 4)
    assert min(group_images(folding.grouping, a)) == b
    sizes = dict(folding.orbits(0))
    assert a not in sizes
    assert sizes[b] == 2  # the orbit {a, b}
    diagonal = (8, 8)
    assert sizes[diagonal] == 1


def test_burnside_rejects_bad_codim(registry):
    folding = SymmetricFolding(build_product([registry["dp3"]] * 2), [(0, 1)])
    for codim in (-1, 3):
        for count in (folding.burnside_orbit_count, folding.orbit_count, folding.orbits):
            with pytest.raises(ValueError, match=rf"^codim {codim} outside 0\.\.2$"):
                count(codim)


def test_burnside_enumerates_no_group_element(registry, monkeypatch):
    # dp3^12 in one part: S_12 has 479,001,600 elements
    arr = build_product([registry["dp3"]] * 12)
    folding = SymmetricFolding(arr, grouping_by_id(arr))
    monkeypatch.setattr(arrangement, "_lex_walk", no_walk)
    w = 5
    for j in range(13):
        # multisets of j walls from w, times multisets of 12 - j chambers from w + 1
        assert folding.burnside_orbit_count(j) == comb(w + j - 1, j) * comb(w + 12 - j, 12 - j)


def test_fold_singleton_groups_do_nothing(registry):
    arr = build_product([registry["dp3"], registry["dp4"]])
    folding = SymmetricFolding(arr, [(0,), (1,)])
    assert folding.group_order() == 1
    for j in range(3):
        assert folding.orbit_count(j) == len(arr.cells(j))
        assert folding.burnside_orbit_count(j) == len(arr.cells(j))
        assert folding.orbits(j) == tuple((cell, 1) for cell in arr.cells(j))


def test_fold_three_equal_factors(registry):
    arr = build_product([registry["dp3"]] * 3)
    folding = SymmetricFolding(arr, [(0, 1, 2)])
    assert folding.group_order() == 6
    assert folding.orbit_count(0) == 56  # multisets of 3 chambers from 6
    assert folding.burnside_orbit_count(0) == 56
    assert folding.orbit_count(1) == folding.burnside_orbit_count(1) == 105
    assert folding.orbit_count(3) == folding.burnside_orbit_count(3) == 35


def test_fold_rejects_bad_groupings(registry):
    arr = build_product([registry["dp3"], registry["dp4"]])
    with pytest.raises(ValueError,
                       match=r"^grouped factors \['dp3', 'dp4'\] carry different wall sets$"):
        SymmetricFolding(arr, [(0, 1)])
    with pytest.raises(ValueError):
        SymmetricFolding(arr, [(0,)])  # not a partition: 1 missing
    with pytest.raises(ValueError):
        SymmetricFolding(arr, [(0, 0), (1,)])
    with pytest.raises(ValueError):
        SymmetricFolding(arr, [(0, 1), ()])


def test_direct_construction_checks_the_grouping(registry):
    """The constructor is the one way to build a folding, so it refuses what no
    folding is: a part over unequal wall sets, a position missing or repeated."""
    with pytest.raises(ValueError,
                       match=r"^grouped factors \['dp3', 'p1'\] carry different wall sets$"):
        SymmetricFolding(build_product([registry["dp3"], registry["p1"]]), [(0, 1)])
    arr = build_product([registry["dp3"]] * 2)
    for grouping in ([(0,)], [(0, 0)]):
        with pytest.raises(ValueError, match=r"is not a partition of 0\.\.1$"):
            SymmetricFolding(arr, grouping)
    # any iterable of iterables is kept as a tuple of tuples
    assert SymmetricFolding(arr, iter([[1, 0]])).grouping == ((1, 0),)


@pytest.mark.parametrize(
    "grouping", [[(True, False)], [(1, False)], [("0", 1)], [(0.0, 1)], [(0, 1.0)]]
)
def test_folding_positions_must_be_ints(registry, grouping):
    arr = build_product([registry["dp3"]] * 2)
    with pytest.raises(ValueError, match=r"is not a partition of 0\.\.1$") as info:
        SymmetricFolding(arr, grouping)
    assert type(info.value) is ValueError


def test_render_takes_an_arrangement_or_a_folding(registry):
    """The folding carries its arrangement, so render is given the product once."""
    assert list(inspect.signature(render).parameters) == ["product", "fmt"]
    arr = build_product([registry["dp3"]] * 2)
    folded = render(SymmetricFolding(arr, [(0, 1)]), "text")
    assert folded.startswith(render(arr, "text"))
    assert "folding by family id: dp3 -> positions 0,1" in folded.splitlines()


def test_grouping_by_id(registry):
    arr = build_product(
        [registry["dp3"], registry["dp4"], registry["dp3"], registry["p1"]]
    )
    assert grouping_by_id(arr) == ((0, 2), (1,), (3,))
    folded = SymmetricFolding(arr, grouping_by_id(arr))
    assert folded.group_order() == 2


def test_burnside_matches_enumeration_random():
    rng = random.Random(8080)
    for _ in range(30):
        parts_spec = []
        pos = 0
        for _ in range(rng.randint(1, 2)):
            size = rng.randint(1, 3)
            parts_spec.append((size, random_wallset(rng, max_walls=3)))
            pos += size
        if pos > 4:
            continue
        factors = []
        grouping = []
        start = 0
        for size, ws in parts_spec:
            factors.extend((f"f{start + j}", ws) for j in range(size))
            grouping.append(tuple(range(start, start + size)))
            start += size
        arr = ProductArrangement(tuple(factors))
        folding = SymmetricFolding(arr, grouping)
        for j in range(arr.k + 1):
            assert folding.orbit_count(j) == folding.burnside_orbit_count(j)
            assert_orbits_partition(folding, j)
        assert sum(size for _, size in folding.orbits(0)) == len(arr.cells(0))


def assert_orbits_partition(folding, j):
    """Orbits are the group orbits of the codim-j cells, in representative
    order, each given by its lex-least member and its size."""
    orbits = folding.orbits(j)
    assert orbits == orbits_oracle(folding, j)
    for rep, size in orbits:
        assert min(group_images(folding.grouping, rep)) == rep
        assert len(group_images(folding.grouping, rep)) == size
    assert sum(size for _, size in orbits) == len(folding.arrangement.cells(j))


@st.composite
def folded_products(draw, max_walls=3):
    """An arrangement of up to 4 factors and a set partition of its
    positions, parts listed out of order, with interleaving slots and one
    random wall count (0 to max_walls) per part."""
    k = draw(st.integers(0, 4))
    blocks: dict[int, list[int]] = {}
    for pos in range(k):
        blocks.setdefault(draw(st.integers(0, k - 1)), []).append(pos)
    grouping = draw(st.permutations([draw(st.permutations(p)) for p in blocks.values()]))
    walls = [None] * k
    for part in grouping:
        w = draw(st.integers(0, max_walls))
        for pos in part:
            walls[pos] = WallSet(tuple(F(i + 1, w + 1) for i in range(w)))
    return ProductArrangement(tuple((f"f{pos}", ws) for pos, ws in enumerate(walls))), grouping


@settings(max_examples=100)
@given(folded_products())
def test_representative_orbits_match_bucketing_and_burnside(case):
    arr, grouping = case
    folding = SymmetricFolding(arr, grouping)
    for j in range(arr.k + 1):
        orbits = folding.orbits(j)
        assert orbits == orbits_oracle(folding, j)
        assert len(orbits) == folding.orbit_count(j) == folding.burnside_orbit_count(j)
        assert sum(size for _, size in orbits) == arr.cell_counts[j]


@settings(max_examples=100)
@given(folded_products(max_walls=4))
def test_burnside_matches_group_walk_and_enumeration(case):
    arr, grouping = case
    folding = SymmetricFolding(arr, grouping)
    for j in range(arr.k + 1):
        count = folding.burnside_orbit_count(j)
        assert count == brute_burnside_orbit_count(folding, j) == folding.orbit_count(j)


def test_fold_unsorted_part_keeps_lex_least_representatives(registry):
    arr = build_product([registry["dp3"]] * 3)
    folding = SymmetricFolding(arr, [(2, 0), (1,)])
    assert min(group_images(folding.grouping, (4, 1, 0))) == (0, 1, 4)
    assert (0, 1, 4) in dict(folding.orbits(1)) and (4, 1, 0) not in dict(folding.orbits(1))
    for j in range(arr.k + 1):
        assert_orbits_partition(folding, j)


def test_render_json_shapes(registry):
    doc = json.loads(render(build_product([]), "json"))
    assert doc["cells"] == [{"coords": [], "codim": 0}]
    assert doc["cell_counts"] == {"0": 1}
    assert doc["factors"] == []

    arr = build_product([registry["dp3"], registry["dp4"]])
    doc = json.loads(render(arr, "json"))
    assert doc["cell_counts"] == {"0": 36, "1": 60, "2": 25}
    assert doc["factors"][0] == {
        "id": "dp3",
        "walls": ["2/11", "4/13", "2/5", "10/19", "2/3"],
    }
    assert len(doc["cells"]) == 121
    assert "folding" not in doc

    folding = SymmetricFolding(
        build_product([registry["dp3"], registry["dp3"]]), [(0, 1)]
    )
    doc = json.loads(render(folding, "json"))
    assert doc["folding"]["orbit_counts"] == {"0": 21, "1": 30, "2": 15}
    assert doc["folding"]["grouping"] == [[0, 1]]
    sizes = [o["size"] for o in doc["folding"]["orbits"] if o["codim"] == 0]
    assert sorted(set(sizes)) == [1, 2] and sum(sizes) == 36


def render_json_oracle(arr, folding=None):
    """The JSON report as a dict document, each cell decoded by this module,
    dumped by one json.dumps(indent=2, sort_keys=True) call."""

    def cell_doc(cell, codim):
        return {"coords": [{"kind": k, "index": i} for k, i in decode(cell)], "codim": codim}

    cell_counts, cells, orbit_counts, orbits = {}, [], {}, []
    for j in range(arr.k + 1):
        codim_cells = arr.cells(j)
        cell_counts[str(j)] = len(codim_cells)
        cells.extend(cell_doc(cell, j) for cell in codim_cells)
        if folding is not None:
            codim_orbits = folding.orbits(j)
            orbit_counts[str(j)] = len(codim_orbits)
            orbits.extend(
                {"codim": j, "representative": cell_doc(rep, j), "size": size}
                for rep, size in codim_orbits
            )
    doc = {
        "factors": [{"id": fid, "walls": ws.to_json()} for fid, ws in arr.factors],
        "cell_counts": cell_counts,
        "cells": cells,
    }
    if folding is not None:
        doc["folding"] = {
            "grouping": [list(part) for part in folding.grouping],
            "orbit_counts": orbit_counts,
            "orbits": orbits,
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def assert_same_text(got, want):
    """got == want, reporting the first differing line: pytest's own diff of
    texts this long takes minutes."""
    if got != want:
        pairs = itertools.zip_longest(got.split("\n"), want.split("\n"))
        line, (a, b) = next((i, pair) for i, pair in enumerate(pairs) if pair[0] != pair[1])
        pytest.fail(f"{len(got)} vs {len(want)} chars; first differing line {line}: {a!r}, {b!r}")


@settings(max_examples=60)
@given(folded_products(), st.data())
def test_render_json_matches_oracle(case, data):
    arr, grouping = case
    # ids that need escaping or look like the writer's own marker
    ids = data.draw(st.lists(st.sampled_from(["@", '"@"', "d\u00e9", "a\\b", "f"]),
                             min_size=arr.k, max_size=arr.k))
    arr = ProductArrangement(tuple((fid, ws) for fid, (_, ws) in zip(ids, arr.factors)))
    assert_same_text(render(arr, "json"), render_json_oracle(arr))
    folding = SymmetricFolding(arr, grouping)
    assert_same_text(render(folding, "json"), render_json_oracle(arr, folding))


@pytest.mark.parametrize("fold", [False, True])
@pytest.mark.parametrize("k", [0, 10])
def test_render_json_fixed_cases(registry, k, fold):
    # k = 0: one cell with empty coords; ten p1 factors: key "10" sorts before "2"
    arr = build_product([registry["p1"]] * k)
    folding = SymmetricFolding(arr, grouping_by_id(arr)) if fold else None
    text = render(folding or arr, "json")
    assert_same_text(text, render_json_oracle(arr, folding))
    if k == 0:
        assert '"coords": []' in text
    else:
        assert text.index('"10": 0') < text.index('"2": 0')


def walk_codes():
    """The code objects of arrangement's lex walk and of the functions nested in it."""
    codes, todo = set(), [arrangement._lex_walk.__code__]
    while todo:
        codes.add(code := todo.pop())
        todo += [c for c in code.co_consts if isinstance(c, type(code))]
    return codes


@contextmanager
def line_budget(budget):
    """Count the lines that the lex walk runs, failing past the budget: a
    deterministic measure of its work, which a loop over every wall slot or
    codimension split of k factors, 2^k or more, cannot stay within."""
    codes, ran = walk_codes(), [0]

    def line(frame, event, arg):
        if event == "line":
            ran[0] += 1
            if ran[0] > budget:
                raise AssertionError(f"more than {budget} lines of the walk run")
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code in codes else None)
    try:
        yield ran
    finally:
        sys.settrace(previous)


def test_wall_free_factors_offer_no_wall_slot(registry):
    p1s = build_product([registry["p1"]] * 40)
    distinct = ProductArrangement(tuple((f"f{i:02d}", WallSet(())) for i in range(40)))
    folding = SymmetricFolding(distinct, grouping_by_id(distinct))
    # 1,000 lines for each of eight sweeps over the 41 codimensions: cells,
    # orbits, and the cells (and orbits, folded) of each JSON report and its oracle
    with line_budget(8 * 1000):
        assert [len(p1s.cells(j)) for j in range(41)] == [1] + [0] * 40
        assert_same_text(render(p1s, "json"), render_json_oracle(p1s))
        assert [folding.orbit_count(j) for j in range(41)] == [1] + [0] * 40
        assert [len(folding.orbits(j)) for j in range(41)] == [1] + [0] * 40
        assert_same_text(render(folding, "json"), render_json_oracle(distinct, folding))


def test_orbit_listing_work_is_bounded_by_the_output():
    """30 one-wall families, each twice and interleaved, folded by id: 30
    parts of two slots.  Codims 60, 59 and 58 have 1, 60 and 1,830
    representatives, and the walk runs at most k (2w + 1) (N + k) lines to
    list N of them, where a walk over each part's codimension split would
    visit 3^30 vectors (and one without its memo runs 593,585 lines at
    codim 58)."""
    walls = [(f"f{i:02d}", WallSet((F(1, i + 2),))) for i in range(30)]
    arr = ProductArrangement(tuple(walls * 2))
    folding = SymmetricFolding(arr, grouping_by_id(arr))
    assert folding.grouping == tuple((i, i + 30) for i in range(30))
    for j, count in ((60, 1), (59, 60), (58, 1830)):
        assert folding.orbit_count(j) == count  # the closed form, built outside the budget
        with line_budget(180 * (count + 60)):
            orbits = folding.orbits(j)
        assert len(orbits) == count
        # lex-least in its orbit: each part's two slots nondecreasing (2^30 images to min over)
        assert all(rep[a] <= rep[b] for rep, _ in orbits for a, b in folding.grouping)
        assert sum(size for _, size in orbits) == arr.cell_counts[j] == comb(60, j) * 2 ** (60 - j)


def record_calls(monkeypatch, owner, name, calls):
    """Wrap owner.name(self, codim) so that each call appends its codim to calls."""
    original = getattr(owner, name)

    def recording(self, codim):
        calls.append(codim)
        return original(self, codim)

    monkeypatch.setattr(owner, name, recording)


def test_render_json_builds_no_coord_and_enumerates_once(registry, monkeypatch):
    arr = build_product([registry["dp3"]] * 3)
    folding = SymmetricFolding(arr, grouping_by_id(arr))
    expected = render_json_oracle(arr, folding)

    def fail(*args):
        raise AssertionError("the JSON writer decoded a cell through cell_json or cell_str")

    monkeypatch.setattr(arrangement, "cell_json", fail)
    monkeypatch.setattr(arrangement, "cell_str", fail)
    cell_calls, orbit_calls, dumped = [], [], []
    record_calls(monkeypatch, arrangement.ProductArrangement, "cells", cell_calls)
    record_calls(monkeypatch, arrangement.SymmetricFolding, "orbits", orbit_calls)
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: dumped.append(dumps(*a, **k)) or dumped[-1])
    assert_same_text(render(folding, "json"), expected)
    assert cell_calls == orbit_calls == [0, 1, 2, 3]
    # json.dumps writes only the small skeleton, never the cells
    assert len(dumped) == 1 and len(dumped[0]) < 1000 < len(expected)


def test_orbits_visit_only_their_codimension(registry, monkeypatch):
    arr = build_product([registry["dp3"]] * 3)
    folding = SymmetricFolding(arr, [(0, 2), (1,)])
    walk, calls = arrangement._lex_walk, []
    monkeypatch.setattr(
        arrangement, "_lex_walk", lambda w, parts, codim: calls.append(codim) or walk(w, parts, codim)
    )
    for j in range(arr.k + 1):
        calls.clear()
        orbits = folding.orbits(j)
        # one walk, at codim j, and every representative sized as the bucketing sizes it
        assert calls == [j]
        assert all(cell_codim(rep) == j for rep, _ in orbits)
        assert orbits == orbits_oracle(folding, j)


def test_render_ascii(registry):
    out = render(build_product([]), "ascii")
    assert out == "(no factors: a single chamber)\n"

    out = render(build_product([registry["dp3"]]), "ascii")
    lines = out.splitlines()
    assert lines[0] == "0 -----------|------|-----|-------|-------|-------------------- 1"
    assert "dp3 walls: 2/11 4/13 2/5 10/19 2/3" in lines[1]

    out = render(build_product([registry["dp3"], registry["dp4"]]), "ascii")
    lines = out.splitlines()
    assert lines[0].startswith("+") and lines[0].endswith("+")
    assert "x (dp3) walls:" in out and "y (dp4) walls:" in out

    with pytest.raises(UnsupportedError, match=r"^ascii diagrams support at most 2 factors, got 3$"):
        render(build_product([registry["dp3"]] * 3), "ascii")


def test_render_ascii_walls_rounding_onto_the_border():
    ws = WallSet((Fraction(1, 200), Fraction(199, 200)))
    out = render(ProductArrangement((("a", ws), ("b", ws))), "ascii")
    edge, inner = "+" + "-" * 59 + "+", "|" + " " * 59 + "|"
    walls = ["x (a) walls: 1/200 199/200", "y (b) walls: 1/200 199/200"]
    assert out == "\n".join([edge, *[inner] * 29, edge, *walls]) + "\n"


def test_render_text_no_factors():
    assert render(build_product([]), "text") == (
        "families: \ncodim-0 cells: 1\ntotal cells: 1\n"
        "crossing graph: 1 node, 0 edges, connected\n"
    )


@pytest.mark.parametrize(
    "ids, grouping, header",
    [
        ("ab", [(0, 1)], "folding: a=b -> positions 0,1"),
        ("aa", [(0,), (1,)], "folding: a -> positions 0, a -> positions 1"),
        ("aab", [(0, 2, 1)], "folding: a=b -> positions 0,2,1"),
        ("aba", [(0, 2), (1,)], "folding by family id: a -> positions 0,2, b -> positions 1"),
    ],
    ids=["two-ids", "split", "unsorted", "by-id"],
)
def test_render_text_names_the_folding(ids, grouping, header):
    """Only a grouping by family id is labelled so; any other folding names
    each part by its distinct ids."""
    ws = WallSet((F(1, 3),))
    arr = ProductArrangement(tuple((fid, ws) for fid in ids))
    assert header in render(SymmetricFolding(arr, grouping), "text").splitlines()


def test_render_rejects_unknown_format(registry):
    with pytest.raises(ValueError):
        render(build_product([registry["dp3"]]), "png")


def test_render_svg_wall_positions(registry):
    arr = build_product([registry["dp3"], registry["dp4"]])
    svg = render(arr, "svg")
    assert svg == render(arr, "svg")  # byte-determinism
    # vertical lines at 72 + 720 * w for the dp3 c-walls
    for w in registry["dp3"].walls("c"):
        x = svg_coord(72 + 720 * w)
        assert f'<line x1="{x}" y1="24.000000" x2="{x}" y2="744.000000"' in svg
    # horizontal lines at 24 + 720 * (1 - w) for the dp4 c-walls
    for w in registry["dp4"].walls("c"):
        y = svg_coord(24 + 720 * (1 - w))
        assert f'<line x1="72.000000" y1="{y}" x2="792.000000" y2="{y}"' in svg
    for tick in ("2/11", "4/13", "2/5", "10/19", "2/3", "1/7", "1/4", "1/3", "1/2", "5/8"):
        assert f">{tick}</text>" in svg
    assert svg.count("<line") == 10
    with pytest.raises(UnsupportedError, match=r"^svg diagrams support at most 2 factors, got 3$"):
        render(build_product([registry["dp3"]] * 3), "svg")


def test_render_svg_folded_labels(registry):
    arr = build_product([registry["dp3"], registry["dp3"]])
    folding = SymmetricFolding(arr, [(0, 1)])
    svg = render(folding, "svg")
    labels = re.findall(
        r'<text x="([0-9.]+)" y="([0-9.]+)" font-family="monospace" '
        r'font-size="12" text-anchor="middle">(\d+)</text>',
        svg,
    )
    assert len(labels) == 36
    assert len({lab for _, _, lab in labels}) == 21
    by_pos = {(x, y): lab for x, y, lab in labels}

    chambers = registry["dp3"].walls("c").chambers()

    def center(ix, iy):
        (x0, x1), (y0, y1) = chambers[ix], chambers[iy]
        cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
        return (svg_coord(72 + cx * 720), svg_coord(24 + (1 - cy) * 720 + 4))

    assert by_pos[center(2, 0)] == by_pos[center(0, 2)]
    assert by_pos[center(1, 4)] == by_pos[center(4, 1)]
    assert by_pos[center(3, 3)] != by_pos[center(3, 2)]
    assert "stroke-dasharray" in svg  # the fold diagonal is drawn


def test_render_svg_folded_200_walls_digest():
    ws = WallSet(tuple(F(i, 201) for i in range(1, 201)))
    arr = ProductArrangement((("a", ws), ("a", ws)))
    svg = render(SymmetricFolding(arr, [(0, 1)]), "svg")
    assert svg.count('font-size="12"') == 201**2
    digest = "169e7205c65712bc7fe742fefcccfb34ace441347f7f5709b69ed7d2d3b2b9da"
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_render_svg_walks_nothing(registry, data_dir, monkeypatch):
    def listed(*args):
        raise AssertionError("the SVG writer listed cells or orbits")

    monkeypatch.setattr(arrangement, "_lex_walk", listed)
    arr = build_product([registry["dp3"], registry["dp3"]])
    svg = render(SymmetricFolding(arr, [(0, 1)]), "svg")
    assert svg == (data_dir / "dp3_dp3_fold_c.svg").read_text()


def test_render_svg_refuses_labels_past_the_bound(registry, data_dir, monkeypatch):
    # 36 chambers: labelled at a bound of 36, refused at 35, unfolded drawn at either
    arr = build_product([registry["dp3"], registry["dp3"]])
    folding = SymmetricFolding(arr, [(0, 1)])
    monkeypatch.setattr(arrangement, "MAX_CELLS", 36)
    assert render(folding, "svg") == (data_dir / "dp3_dp3_fold_c.svg").read_text()
    monkeypatch.setattr(arrangement, "MAX_CELLS", 35)
    with pytest.raises(BoundExceededError, match=r"^36 codim-0 cells, above the bound 35$"):
        render(folding, "svg")
    assert render(arr, "svg").count("<line") == 10


@st.composite
def two_factor_foldings(draw):
    """Two factors of 0 to 8 walls each: one folded part over equal wall sets,
    in either slot order, or two singleton parts in either order."""
    walls = st.lists(st.integers(1, 99), unique=True, max_size=8)
    ws = [WallSet(tuple(F(i, 100) for i in sorted(draw(walls))))]
    if draw(st.booleans()):
        grouping = [draw(st.permutations([0, 1]))]
        ws.append(ws[0])
    else:
        grouping = draw(st.permutations([(0,), (1,)]))
        ws.append(WallSet(tuple(F(i, 100) for i in sorted(draw(walls)))))
    arr = ProductArrangement((("f0", ws[0]), ("f1", ws[1])))
    return arr, SymmetricFolding(arr, grouping)


@settings(max_examples=50)
@given(two_factor_foldings())
def test_render_svg_labels_number_orbits_in_listing_order(case):
    arr, folding = case
    labels = re.findall(
        r'<text x="([0-9.]+)" y="([0-9.]+)" font-family="monospace" '
        r'font-size="12" text-anchor="middle">(\d+)</text>',
        render(folding, "svg"),
    )
    reps = [rep for rep, _ in orbits_oracle(folding, 0)]
    expected = [
        (svg_coord(72 + (x0 + x1) / 2 * 720), svg_coord(24 + (1 - (y0 + y1) / 2) * 720 + 4),
         str(reps.index(min(group_images(folding.grouping, (2 * a, 2 * b))))))
        for a, (x0, x1) in enumerate(arr.factors[0][1].chambers())
        for b, (y0, y1) in enumerate(arr.factors[1][1].chambers())
    ]
    assert labels == expected


def test_render_svg_no_factors_ticks_the_x_axis():
    assert render(build_product([]), "svg") == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="816" height="792" viewBox="0 0 816 792">\n'
        '<rect x="72.000000" y="24.000000" width="720" height="720" '
        'fill="white" stroke="black" stroke-width="1.5"/>\n'
        '<text x="72.000000" y="764.000000" font-family="monospace" font-size="13" '
        'text-anchor="middle">0</text>\n'
        '<text x="792.000000" y="764.000000" font-family="monospace" font-size="13" '
        'text-anchor="middle">1</text>\n'
        "</svg>\n"
    )


@pytest.mark.parametrize("fold", [False, True])
def test_render_svg_one_factor_digest(registry, fold):
    # five vertical walls and seven x ticks; folding one factor draws nothing extra
    arr = build_product([registry["dp3"]])
    svg = render(SymmetricFolding(arr, grouping_by_id(arr)) if fold else arr, "svg")
    assert (svg.count("<line"), svg.count("<text")) == (5, 7)
    digest = "0c557b483a9283aff36fdef5fa49e0f26efefb9a085bcf14e787b8b2031a96de"
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_codim_sum_identity(registry):
    # sum over codims of codim-count equals the total cell count
    arr = build_product([registry["dp3"], registry["dp4"], registry["p1"]])
    assert arr.wall_counts == (5, 5, 0)
    total = sum(len(arr.cells(j)) for j in range(arr.k + 1))
    assert total == len(arr.all_cells()) == 11 * 11 * 1
