"""End-to-end acceptance suite: one test per criterion, exact comparisons.

Each test prints a single PASS line (shown under pytest -s; under pytest -v
the test name itself reports the criterion).  Every numeric comparison is
exact rational equality; the only tolerances are the two wall-clock budgets
stated in criteria 1 and 6.
"""

import itertools
import random
import time
from decimal import ROUND_HALF_UP, Decimal, getcontext
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import wallcross.gitwalls as gitwalls
from _models import assert_product_laws, poly_mul_oracle, random_model_pair
from wallcross.arrangement import SymmetricFolding, build_product, crossing_graph, render
from wallcross.cli import main
from wallcross.invariants import (
    FanoNumerics,
    consistency_check,
    product_numerics,
)
from wallcross.stackalg import (
    Descriptor,
    MapKind,
    canonicalize,
    classify_product_map,
    point_ids,
)
from wallcross.wallsets import load_registry

F = Fraction

DATA_DIR = Path(__file__).parent / "data"

getcontext().prec = 50


def test_criterion_1_git_wall_reproduction(capsys):
    gitwalls.candidate_weights.cache_clear()  # time the cold computation
    start = time.monotonic()
    code = main(["git-walls", "--degree", "3"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "1/5 1/3 3/7 5/9 9/13"
    assert elapsed < 60.0
    assert gitwalls.compute_walls(3, 3).walls == (
        F(1, 5),
        F(1, 3),
        F(3, 7),
        F(5, 9),
        F(9, 13),
    )
    with capsys.disabled():
        print(f"\nPASS acceptance 1: degree-3 walls reproduced in {elapsed:.2f}s")


def test_criterion_2_reparametrization_commutation(capsys):
    registry = load_registry()
    expected = {
        "dp3": [
            ("2/11", "1/5"),
            ("4/13", "1/3"),
            ("2/5", "3/7"),
            ("10/19", "5/9"),
            ("2/3", "9/13"),
        ],
        "dp4": [
            ("1/7", "1/6"),
            ("1/4", "2/7"),
            ("1/3", "3/8"),
            ("1/2", "6/11"),
            ("5/8", "2/3"),
        ],
    }
    pairs = 0
    for fid, table in expected.items():
        rec = registry[fid]
        assert rec.c_walls.map(rec.reparam) == rec.t_walls
        for c_str, t_str in table:
            c = F(*map(int, c_str.split("/")))
            t = F(*map(int, t_str.split("/")))
            assert rec.reparam(c) == t
            assert rec.reparam.inverse()(t) == c
            pairs += 1
    assert pairs == 10
    with capsys.disabled():
        print("PASS acceptance 2: all ten c-to-t wall pairs map exactly")


def test_criterion_3_product_arrangement(capsys):
    registry = load_registry()
    arr = build_product([registry["dp3"], registry["dp4"]])
    counts = [len(arr.cells(j)) for j in range(3)]
    assert counts == [36, 60, 25]
    graph = crossing_graph(arr)
    assert len(graph.nodes) == 36
    assert len(graph.edges) == 60
    assert graph.is_connected()
    with capsys.disabled():
        print("PASS acceptance 3: dp3 x dp4 cells 36/60/25, graph 36/60 connected")


def test_criterion_4_figure_reproduction(capsys):
    registry = load_registry()
    arr = build_product([registry["dp3"], registry["dp4"]])
    svg = render(arr, "svg")
    golden = (DATA_DIR / "dp3_dp4_c.svg").read_text()
    assert svg == golden  # byte comparison against the frozen diagram

    # independent check of all ten interior grid-line positions
    def fixed6(value: Fraction) -> str:
        d = Decimal(value.numerator) / Decimal(value.denominator)
        return str(d.quantize(Decimal("0.000001"), rounding=ROUND_HALF_UP))

    for w in registry["dp3"].walls("c"):
        x = fixed6(72 + 720 * w)
        assert f'<line x1="{x}" y1="24.000000" x2="{x}" y2="744.000000"' in svg
    for w in registry["dp4"].walls("c"):
        y = fixed6(24 + 720 * (1 - w))
        assert f'<line x1="72.000000" y1="{y}" x2="792.000000" y2="{y}"' in svg
    assert svg.count("<line") == 10
    with capsys.disabled():
        print("PASS acceptance 4: SVG matches golden file, ten exact grid lines")


def test_criterion_5_symmetric_folding(capsys):
    registry = load_registry()
    two = SymmetricFolding(
        build_product([registry["dp3"], registry["dp3"]]), [(0, 1)]
    )
    assert len(two.orbits(0)) == 21  # explicit orbit enumeration
    assert two.burnside_orbit_count(0) == 21  # Burnside average
    three = SymmetricFolding(build_product([registry["dp3"]] * 3), [(0, 1, 2)])
    assert len(three.orbits(0)) == 56
    assert three.burnside_orbit_count(0) == 56
    assert comb(6 + 2 - 1, 2) == 21 and comb(6 + 3 - 1, 3) == 56
    with capsys.disabled():
        print("PASS acceptance 5: folded chamber orbits 21 and 56, two ways each")


def test_criterion_6_finite_groupoid_oracle(capsys):
    rng = random.Random(20260817)
    start = time.monotonic()
    pairs = 0
    for _ in range(200):
        a, b = random_model_pair(rng)
        assert len(a.carrier) <= 8 and len(b.carrier) <= 8
        assert a.group_order() <= 10_000 and b.group_order() <= 10_000
        assert_product_laws(a, b)
        pairs += 1
    elapsed = time.monotonic() - start
    assert pairs == 200
    assert elapsed < 30.0
    with capsys.disabled():
        print(
            f"PASS acceptance 6: {pairs} random product models verified "
            f"in {elapsed:.2f}s, zero failures"
        )


def test_criterion_7_volume_hilbert_identity(capsys):
    registry = load_registry()
    records = sorted(registry.values(), key=lambda r: r.id)
    checked = 0
    for ra, rb in itertools.product(records, records):
        a, b = ra.numerics(), rb.numerics()
        product = product_numerics(a, b)
        n, vol = product.dimension, product.volume
        assert vol == comb(n, a.dimension) * a.volume * b.volume
        assert factorial(n) * poly_mul_oracle(a.hilbert, b.hilbert)[-1] == vol
        assert consistency_check(product) == []
        checked += 1
    assert checked == len(records) ** 2

    rng = random.Random(424243)
    for _ in range(100):
        nums = []
        for _ in range(2):
            n = rng.randint(0, 3)
            if n == 0:
                nums.append(FanoNumerics(0, F(1), (F(1),)))
                continue
            lead = F(rng.randint(1, 12), rng.randint(1, 6))
            coeffs = (
                [F(1)]
                + [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n - 1)]
                + [lead]
            )
            nums.append(FanoNumerics(n, factorial(n) * lead, coeffs))
        a, b = nums
        product = product_numerics(a, b)
        n, vol = product.dimension, product.volume
        assert factorial(n) * poly_mul_oracle(a.hilbert, b.hilbert)[-1] == vol
        assert vol == comb(n, a.dimension) * a.volume * b.volume
        assert consistency_check(product) == []
    with capsys.disabled():
        print(
            "PASS acceptance 7: volume/Hilbert identity exact on "
            f"{checked} registry pairs and 100 random products"
        )


def test_criterion_8_descriptor_algebra(capsys):
    points = point_ids(load_registry())
    desc = canonicalize({"dp3": 1, "dp4": 1}, (), points)
    assert desc == Descriptor((("dp3", 1), ("dp4", 1))) and str(desc) == "dp3 x dp4"
    assert str(canonicalize({"dp3": 2}, (), points)) == "[dp3^2/S2]"
    assert canonicalize({"p1": 1, "dp3": 1}, (), points).to_json() == {"kind": "atom", "id": "dp3"}
    assert canonicalize({"p1": 2}, (), points).to_json() == {"kind": "point"}
    assert classify_product_map({"dp3": 1, "dp4": 1}) is MapKind.ISOMORPHISM
    assert classify_product_map({"dp3": 2}) is MapKind.S2_GERBE
    with capsys.disabled():
        print("PASS acceptance 8: descriptor canonical forms and map kinds exact")
