"""Independent references for every output the benchmark checks.

Nothing here imports wallcross.  Wall tables are the published registry
tables, counts come from closed forms, diagrams from a separate renderer
written to the documented format, and the exploratory GIT atlas is a set of
regression goldens frozen from the program at the seed (it has no
acceptance claim of its own).

Two kinds of finding come out of a check:
  * a problem string (wrong output), which counts against the run;
  * CountDrift, raised when a count that must never change did change;
    the benchmark stops instead of producing a number.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from fractions import Fraction
from math import comb, factorial, gcd


class CountDrift(Exception):
    """A deterministic count differs from its asserted value."""


def expect_count(name: str, got, want) -> None:
    if got != want:
        raise CountDrift(f"{name}: got {got!r}, expected {want!r}")


def fmt(q: Fraction) -> str:
    return str(Fraction(q))


def dumps(doc) -> str:
    """The CLI's JSON layout: two-space indent, sorted keys, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def plural(n: int, word: str) -> str:
    return f"{n} {word}" + ("" if n == 1 else "s")


# -- registry tables ----------------------------------------------------------

WALLS = {
    ("dp3", "c"): ("2/11", "4/13", "2/5", "10/19", "2/3"),
    ("dp3", "t"): ("1/5", "1/3", "3/7", "5/9", "9/13"),
    ("dp4", "c"): ("1/7", "1/4", "1/3", "1/2", "5/8"),
    ("dp4", "t"): ("1/6", "2/7", "3/8", "6/11", "2/3"),
    ("p1", "c"): (),
    ("p1", "t"): (),
}
# c -> t reparametrizations x -> (a x + b) / (c x + d)
REPARAM = {"dp3": (9, 0, 1, 8), "dp4": (6, 0, 1, 5), "p1": (1, 0, 0, 1)}
ALL_IDS = ("dp1", "dp2", "dp3", "dp4", "p1")
POINT_IDS = frozenset({"p1"})


def moebius(coeffs, x: Fraction) -> Fraction:
    a, b, c, d = coeffs
    return (a * x + b) / (c * x + d)


def _check_tables() -> None:
    for fid, coeffs in REPARAM.items():
        image = tuple(fmt(moebius(coeffs, Fraction(w))) for w in WALLS[(fid, "c")])
        if image != WALLS[(fid, "t")]:
            raise AssertionError(f"reference tables disagree for {fid}")


_check_tables()


def walls_of(fid: str, space: str = "c") -> tuple[Fraction, ...]:
    return tuple(Fraction(w) for w in WALLS[(fid, space)])


# -- GIT walls ----------------------------------------------------------------

GIT_T33 = WALLS[("dp3", "t")]

# (n, d) -> (probes, candidates, walls).  (3, 3) is the registry table; the
# other rows are regression goldens frozen from the program at the seed.
GIT_ATLAS = {
    (3, 3): (49, 35, GIT_T33),
    (3, 4): (183, 127, ("4/23", "4/17", "4/15", "2/7", "1/3", "4/11", "4/9", "1/2",
                        "4/7", "8/13", "2/3", "12/17", "3/4", "4/5", "8/9", "10/11",
                        "12/13", "28/29")),
    (4, 2): (42, 33, ("1/2",)),
    (2, 3): (5, 2, ("3/5",)),
    (2, 4): (7, 5, ("1/2", "4/5")),
    (2, 5): (11, 8, ("1/7", "1/4", "2/5", "5/8")),
    (2, 6): (13, 11, ("3/7", "3/5", "2/3", "3/4", "6/7")),
    (3, 2): (9, 5, ("2/3",)),
}


def check_git_report(n: int, d: int, doc: dict, probes: int | None) -> list[str]:
    """Walls, counts and every witness of a wall report.

    A witness (r, m, j) must be a normalized weight vector r, a degree-d
    monomial m in n + 1 variables and a threshold j with -<m, r>/r_j = t.
    """
    want_probes, want_cands, want_walls = GIT_ATLAS[(n, d)]
    if probes is not None:
        expect_count(f"gitwalls probes ({n},{d})", probes, want_probes)
    expect_count(f"gitwalls candidates ({n},{d})", len(doc["candidates"]), want_cands)
    expect_count(f"gitwalls walls ({n},{d})", len(doc["walls"]), len(want_walls))
    problems = []
    if tuple(doc["walls"]) != want_walls:
        problems.append(f"({n},{d}) walls {doc['walls']} != {list(want_walls)}")
    cands = [Fraction(c) for c in doc["candidates"]]
    if cands != sorted(set(cands)) or not all(0 < c < 1 for c in cands):
        problems.append(f"({n},{d}) candidates not sorted distinct in (0, 1)")
    if set(doc["witnesses"]) != set(doc["walls"]):
        problems.append(f"({n},{d}) witness keys differ from walls")
    for t, wits in doc["witnesses"].items():
        if not wits:
            problems.append(f"({n},{d}) wall {t} has no witness")
        for wit in wits:
            r, m, j = wit["r"], wit["m"], wit["j"]
            ok = (
                len(r) == len(m) == n + 1
                and all(a >= b for a, b in zip(r, r[1:]))
                and sum(r) == 0
                and any(r)
                and gcd(*r) == 1
                and sum(m) == d
                and min(m) >= 0
                and 0 <= j <= n
                and r[j] != 0
                and Fraction(-sum(e * w for e, w in zip(m, r)), r[j]) == Fraction(t)
            )
            if not ok:
                problems.append(f"({n},{d}) bad witness {wit} for wall {t}")
                break
    return problems


def git_walls_text() -> str:
    walls = " ".join(GIT_T33)
    return f"{walls}\nregistry t-walls (dp3): {walls}\nmatch: yes\n"


# -- product arrangements -----------------------------------------------------


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def cell_counts(wall_counts) -> list[int]:
    """Cells by codimension: coefficients of prod((w + 1) + w x).

    With k equal factors this is C(k, j) w^j (w + 1)^(k - j)."""
    poly = [1]
    for w in wall_counts:
        poly = _poly_mul(poly, [w + 1, w])
    k = len(wall_counts)
    if len(set(wall_counts)) == 1:
        w = wall_counts[0]
        closed = [comb(k, j) * w**j * (w + 1) ** (k - j) for j in range(k + 1)]
        if closed != poly:
            raise AssertionError("cell count closed form disagrees")
    return poly


def orbit_counts(wall_counts, grouping) -> list[int]:
    """Folded orbits by codimension: per group of s factors with w walls,
    sum_j C(w + j - 1, j) C(w + s - j, s - j) x^j, multiplied over groups."""
    poly = [1]
    for part in grouping:
        s, w = len(part), wall_counts[part[0]]
        poly = _poly_mul(
            poly, [comb(w + j - 1, j) * comb(w + s - j, s - j) for j in range(s + 1)]
        )
    return poly


def grouping_by_id(ids) -> list[list[int]]:
    order: dict[str, list[int]] = {}
    for pos, fid in enumerate(ids):
        order.setdefault(fid, []).append(pos)
    return list(order.values())


def product_text(ids, walls: dict, fold: bool) -> str:
    """Expected text report of `product` from closed forms."""
    wc = [len(walls[fid]) for fid in ids]
    counts = cell_counts(wc)
    lines = ["families: " + ", ".join(ids)]
    for i, (fid, w) in enumerate(zip(ids, wc)):
        lines.append(f"factor {i} ({fid}): {plural(w + 1, 'chamber')}, {plural(w, 'wall')}")
    lines += [f"codim-{j} cells: {c}" for j, c in enumerate(counts)]
    lines.append(f"total cells: {sum(counts)}")
    lines.append(
        f"crossing graph: {plural(counts[0], 'node')}, "
        f"{plural(counts[1] if len(counts) > 1 else 0, 'edge')}, connected"
    )
    if fold:
        grouping = grouping_by_id(ids)
        lines.append(
            "folding by family id: "
            + ", ".join(
                f"{ids[part[0]]} -> positions {','.join(map(str, part))}"
                for part in grouping
            )
        )
        for j, o in enumerate(orbit_counts(wc, grouping)):
            lines.append(f"codim-{j} orbits: {o} (enumeration) = {o} (burnside)")
    return "\n".join(lines) + "\n"


def _cell_json(positions) -> dict:
    return {
        "coords": [
            {"kind": "wall" if p % 2 else "chamber", "index": p // 2} for p in positions
        ],
        "codim": sum(p % 2 for p in positions),
    }


def product_json(ids, walls: dict, fold: bool) -> str:
    """Expected `product --format json` document, built by direct enumeration
    of position tuples (chamber i -> 2i, wall i -> 2i + 1)."""
    wc = [len(walls[fid]) for fid in ids]
    k = len(ids)
    cells = sorted(
        itertools.product(*(range(2 * w + 1) for w in wc)),
        key=lambda pos: (sum(p % 2 for p in pos), pos),
    )
    doc = {
        "factors": [{"id": fid, "walls": [fmt(w) for w in walls[fid]]} for fid in ids],
        "cell_counts": {str(j): c for j, c in enumerate(cell_counts(wc))},
        "cells": [_cell_json(pos) for pos in cells],
    }
    if fold:
        grouping = grouping_by_id(ids)
        orbits = []
        for choice in itertools.product(
            *(
                itertools.combinations_with_replacement(range(2 * wc[part[0]] + 1), len(part))
                for part in grouping
            )
        ):
            rep = [0] * k
            size = 1
            for part, values in zip(grouping, choice):
                for pos, v in zip(part, values):
                    rep[pos] = v
                size *= factorial(len(part))
                for v in set(values):
                    size //= factorial(values.count(v))
            orbits.append((sum(p % 2 for p in rep), tuple(rep), size))
        orbits.sort()
        doc["folding"] = {
            "grouping": grouping,
            "orbit_counts": {
                str(j): c for j, c in enumerate(orbit_counts(wc, grouping))
            },
            "orbits": [
                {"codim": j, "representative": _cell_json(rep), "size": size}
                for j, rep, size in orbits
            ],
        }
    return dumps(doc)


# -- diagrams -----------------------------------------------------------------

_BOX, _LEFT, _RIGHT, _TOP, _BOTTOM = 720, 72, 24, 24, 48


def _fix6(q: Fraction) -> str:
    scaled = Fraction(q) * 10**6
    n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    return f"{n // 10**6}.{n % 10**6:06d}"


def svg_2d(xw, yw, folded: bool) -> str:
    """Expected two-factor SVG.  Folded diagrams label each top cell with
    the index of its orbit {i, j} in lexicographic order of (min, max)."""
    X = lambda v: _fix6(_LEFT + Fraction(v) * _BOX)  # noqa: E731
    Y = lambda v: _fix6(_TOP + (1 - Fraction(v)) * _BOX)  # noqa: E731
    width, height = _LEFT + _BOX + _RIGHT, _TOP + _BOX + _BOTTOM
    left, right, bottom, top = X(0), X(1), Y(0), Y(1)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="{left}" y="{top}" width="{_BOX}" height="{_BOX}" '
        'fill="white" stroke="black" stroke-width="1.5"/>',
    ]
    out += [
        f'<line x1="{X(w)}" y1="{top}" x2="{X(w)}" y2="{bottom}" stroke="black" stroke-width="1"/>'
        for w in xw
    ]
    out += [
        f'<line x1="{left}" y1="{Y(w)}" x2="{right}" y2="{Y(w)}" stroke="black" stroke-width="1"/>'
        for w in yw
    ]
    label_y = _fix6(Fraction(_TOP + _BOX + 20))
    out += [
        f'<text x="{X(w)}" y="{label_y}" font-family="monospace" font-size="13" '
        f'text-anchor="middle">{fmt(w)}</text>'
        for w in (0, *xw, 1)
    ]
    out += [
        f'<text x="{_fix6(Fraction(_LEFT - 8))}" y="{_fix6(_TOP + (1 - Fraction(w)) * _BOX + 4)}" '
        f'font-family="monospace" font-size="13" text-anchor="end">{fmt(w)}</text>'
        for w in (0, *yw, 1)
    ]
    if folded:
        out.append(
            f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{top}" '
            'stroke="black" stroke-width="0.75" stroke-dasharray="6 4"/>'
        )
        xb, yb = (0, *xw, 1), (0, *yw, 1)
        chambers = len(xw) + 1
        for i in range(len(xb) - 1):
            for j in range(len(yb) - 1):
                a, b = min(i, j), max(i, j)
                index = sum(chambers - r for r in range(a)) + (b - a)
                cx = (Fraction(xb[i]) + Fraction(xb[i + 1])) / 2
                cy = (Fraction(yb[j]) + Fraction(yb[j + 1])) / 2
                out.append(
                    f'<text x="{X(cx)}" y="{_fix6(_TOP + (1 - cy) * _BOX + 4)}" '
                    'font-family="monospace" font-size="12" text-anchor="middle">'
                    f"{index}</text>"
                )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def ascii_2d(fid_x, xw, fid_y, yw, cols: int = 60, rows: int = 30) -> str:
    xs = {round(Fraction(w) * cols) for w in xw}
    ys = {round(Fraction(w) * rows) for w in yw}
    grid = []
    for row in range(rows + 1):
        y_hit = rows - row in ys
        line = ""
        for col in range(cols + 1):
            x_hit = col in xs
            bx, by = col in (0, cols), row in (0, rows)
            if bx and by:
                line += "+"
            elif by:
                line += "+" if x_hit else "-"
            elif bx:
                line += "+" if y_hit else "|"
            elif x_hit:
                line += "+" if y_hit else "|"
            else:
                line += "-" if y_hit else " "
        grid.append(line)
    grid.append(f"x ({fid_x}) walls: {' '.join(fmt(w) for w in xw)}")
    grid.append(f"y ({fid_y}) walls: {' '.join(fmt(w) for w in yw)}")
    return "\n".join(grid) + "\n"


# -- point location -----------------------------------------------------------


def locate(walls, x: Fraction) -> tuple[str, int]:
    i = bisect_left(walls, x)
    if i < len(walls) and walls[i] == x:
        return "wall", i
    return "chamber", i


def chamber_output(ids, point, as_json: bool) -> str:
    coords = [locate(walls_of(fid), x) for fid, x in zip(ids, point)]
    codim = sum(kind == "wall" for kind, _ in coords)
    if as_json:
        return dumps(
            {
                "families": list(ids),
                "space": "c",
                "point": [fmt(x) for x in point],
                "cell": {
                    "coords": [{"kind": kd, "index": i} for kd, i in coords],
                    "codim": codim,
                },
            }
        )
    return (
        "point: " + ", ".join(fmt(x) for x in point) + "\n"
        + "cell: (" + ", ".join(f"{kd} {i}" for kd, i in coords) + ")\n"
        + f"codim: {codim}\n"
    )


# -- descriptor algebra -------------------------------------------------------


def descriptor(factors, iso_pairs, point_ids=POINT_IDS):
    """(text, json) of the canonical descriptor: points dropped, each iso
    class becomes its least present id, powered to [id^s/Ss] when s >= 2."""
    cls_of = {}
    for pair in iso_pairs:
        for fid in pair:
            cls_of[fid] = frozenset(pair)
    groups: dict[frozenset, list] = {}
    for fid in factors:
        if fid in point_ids:
            continue
        entry = groups.setdefault(cls_of.get(fid, frozenset((fid,))), [set(), 0])
        entry[0].add(fid)
        entry[1] += 1
    nodes = []
    for present, mult in groups.values():
        rep = min(present)
        if mult == 1:
            nodes.append(((0, rep), rep, {"kind": "atom", "id": rep}))
        else:
            nodes.append(
                (
                    (2, (0, rep), mult),
                    f"[{rep}^{mult}/S{mult}]",
                    {"kind": "sym", "base": {"kind": "atom", "id": rep}, "power": mult},
                )
            )
    nodes.sort(key=lambda node: node[0])
    if not nodes:
        return "pt", {"kind": "point"}
    if len(nodes) == 1:
        return nodes[0][1], nodes[0][2]
    return " x ".join(n[1] for n in nodes), {
        "kind": "product",
        "children": [n[2] for n in nodes],
    }


def product_map(factors, iso_pairs) -> str:
    a, b = factors
    same = a == b or any(a in pair and b in pair for pair in iso_pairs)
    return "s2-gerbe" if same else "isomorphism"


def stack_output(factors, iso_pairs, as_json: bool) -> str:
    text, doc = descriptor(factors, iso_pairs)
    kind = product_map(factors, iso_pairs) if len(factors) == 2 else None
    if as_json:
        return dumps(
            {
                "factors": list(factors),
                "iso": sorted(sorted(p) for p in iso_pairs),
                "descriptor": doc,
                "product_map": kind,
            }
        )
    out = "factors: " + ", ".join(factors) + "\n" + f"descriptor: {text}\n"
    if kind is not None:
        out += f"product map: {kind}\n"
    return out


# -- rationals and numerics ---------------------------------------------------


def canonical_rational(p: int, q: int) -> str:
    """Reduced "p/q" with positive denominator, "p" when q divides p."""
    if q < 0:
        p, q = -p, -q
    g = gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def canonical_moebius(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int]:
    g = gcd(a, b, c, d)
    lead = next(v for v in (a, b, c, d) if v)
    if lead < 0:
        g = -g
    return (a // g, b // g, c // g, d // g)


def poly_mul(f, g) -> list[Fraction]:
    return _poly_mul([Fraction(v) for v in f], [Fraction(v) for v in g])


def numerics_problems(dim: int, volume: Fraction, hilbert) -> int:
    """How many of the three invariants a numerics triple violates:
    hilbert(0) = 1, deg hilbert = dim, dim! * lead = volume."""
    h = [Fraction(v) for v in hilbert]
    while h and h[-1] == 0:
        h.pop()
    bad = 0
    bad += (h[0] if h else 0) != 1
    bad += len(h) - 1 != dim
    bad += factorial(dim) * (h[-1] if h else 0) != volume
    return bad
