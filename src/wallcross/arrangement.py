"""Axis-parallel product chamber complexes on the unit k-cube.

A product arrangement is a tuple of factors, each a family id with a wall
set on (0, 1).  A cell is a plain tuple of positions, one int per factor, in
the encoding of WallSet.locate: chamber i is 2i and wall i is 2i + 1, so the
positions of one factor run left to right along the interval, tuple order is
the lexicographic cell order, and the codimension is the number of odd
entries; cell_json, cell_str and the JSON writer name position p by
KINDS[p & 1] and index p >> 1.  With w_i walls in factor i there are
prod(w_i + 1) top cells, prod(2 w_i + 1) cells in total, and the codim-j
count is the coefficient of x^j in prod((w_i + 1) + w_i x).

The crossing graph has the top cells as nodes and one edge per codim-1 cell,
joining the two chambers adjacent across that wall; it is the box product of
per-factor path graphs, so it is connected with cell_counts[0] nodes and
cell_counts[1] edges, which is what the "text" report prints.

A SymmetricFolding quotients the arrangement by permutations of factor
positions inside the parts of a partition that its constructor checks: the
positions of a part must carry equal wall sets (the computable proxy for
isomorphic factors; the caller asserts the isomorphism).  Orbit
representatives follow the lexicographically-least-cell convention, a
labeling choice, not canon: each part's positions nondecreasing along its
slots.  Orbit counts come two independent ways, building no cell: a closed
form for those representatives, one sorted position multiset per part,
C(w + c - 1, c) C(w + n - c, n - c) at codim c for n positions and w walls
(c walls and n - c chambers, with repetition; singleton parts give the cell
counts), and the Burnside average of fixed-cell counts, summed over each
part's symmetric group by a recursion on the cycle through its last
position, so no group element is enumerated either.  The text report labels
the first "(enumeration)": orbits lists that many, for JSON only, by the lex
walk behind cells, sized by one multiplicity pass over each part's slots, and
like cells refuses a codimension past MAX_CELLS first.  The folded SVG lists
none, numbering orbits in the order lex order meets their representatives.

render takes an arrangement or a folding, which carries its arrangement, and
dispatches to one renderer per product format, each returning the whole document:
"text" for any k, the counts by the closed form and, when folded, the orbit
counts both ways (ConsistencyError if they disagree); "svg" and "ascii" for
k <= 2 (exact-fraction ticks, SVG positions rounded half up to 6 decimals;
the SVG puts factor 0 on x, rightward, and factor 1 on y, upward);
"json" for any k in the layout of json.dumps(indent=2, sort_keys=True),
written as text cached per position, no dict per cell.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial, perm, prod

from .errors import BoundExceededError, ConsistencyError, UnsupportedError
from .exactq import Value, format_rational
from .wallsets import WallSet

# cells and orbits refuse a codim of more than this before building any; dp3^6 peaks at 540,000.
MAX_CELLS = 2_000_000
# A product refuses more factors than this before any count: cell_counts costs
# O(k^2) big-int steps, and at 100 factors the total prod(2w + 1) that the text
# report prints stays under Python's 4,300-digit str(int) limit for any wall
# table that fits in memory (each factor would need 10^42 walls to pass it).
MAX_FACTORS = 100

RENDER_FORMATS = ("text", "json", "ascii", "svg")

KINDS = ("chamber", "wall")


def cell_codim(cell: tuple[int, ...]) -> int:
    return sum(p & 1 for p in cell)


def cell_json(cell: tuple[int, ...]) -> dict:
    coords = [{"kind": KINDS[p & 1], "index": p >> 1} for p in cell]
    return {"coords": coords, "codim": cell_codim(cell)}


def cell_str(cell: tuple[int, ...]) -> str:
    return "(" + ", ".join(f"{KINDS[p & 1]} {p >> 1}" for p in cell) + ")"


def _representative_counts(parts) -> list[int]:
    """Counts by codimension of one sorted position multiset per (w, n) part."""
    counts = [1]
    for w, n in parts:
        nxt = [0] * (len(counts) + n)
        for c in range(n + 1):
            ways = (comb(w + c - 1, c) if c else 1) * comb(w + n - c, n - c)
            for j, val in enumerate(counts):
                nxt[j + c] += ways * val
        counts = nxt
    return counts


def _at_codim(counts, codim: int) -> int:
    """counts[codim] from a list of k + 1 counts by codimension, for a codim in 0..k."""
    if not 0 <= codim < len(counts):
        raise ValueError(f"codim {codim} outside 0..{len(counts) - 1}")
    return counts[codim]


def _lex_walk(wall_counts: tuple[int, ...], parts, codim: int) -> list[tuple[int, ...]]:
    """Position tuples with codim odd entries, slot i in 0..2 wall_counts[i],
    nondecreasing along each part's slots, in lex order with no sort.  Each suffix
    is built once per (slot, walls left, last value of each open part), and a value
    is tried only if the walls left still fit, so the work is k (2w + 1) times output."""
    k, room = len(wall_counts), len(wall_counts) - wall_counts.count(0)
    if codim > room:
        return []
    part_of, later = [0] * k, [0] * k  # each slot's part, and its part's slots after it
    for n, part in enumerate(parts):
        for rank, slot in enumerate(sorted(part)):
            part_of[slot], later[slot] = n, len(part) - 1 - rank
    memo: dict[tuple, list] = {}

    def walk(i: int, walls: int, room: int, lasts: tuple[int, ...]) -> list:
        if i == k:
            return [()]
        if (out := memo.get((i, walls, lasts))) is None:
            n, top, low = part_of[i], 2 * wall_counts[i], lasts[part_of[i]]
            out = memo[i, walls, lasts] = []
            for p in range(low, top + 1):
                # a part on its top chamber takes no more walls
                left = room - (low < top) - (later[i] if p == top > low else 0)
                if 0 <= walls - (p & 1) <= left:
                    nxt = lasts[:n] + (p if later[i] else 0,) + lasts[n + 1 :]
                    out.extend(map((p,).__add__, walk(i + 1, walls - (p & 1), left, nxt)))
        return out

    out = walk(0, codim, room, (0,) * len(parts))
    memo.clear()  # walk's closure refers to itself, so only the cycle collector frees it
    return out


class ProductArrangement(Value):
    """Factors as (family id, wall set) pairs, in fixed order."""

    __slots__ = ("_cell_counts",)  # memo: a slot, so not a field of the value

    def __init__(self, factors: tuple[tuple[str, WallSet], ...]) -> None:
        if len(factors) > MAX_FACTORS:
            raise BoundExceededError(f"{len(factors)} factors, above the bound {MAX_FACTORS}")
        self.__dict__.update(factors=factors)

    @property
    def k(self) -> int:
        return len(self.factors)

    @property
    def wall_counts(self) -> tuple[int, ...]:
        return tuple(len(ws) for _, ws in self.factors)

    @property
    def cell_counts(self) -> tuple[int, ...]:
        """Cells per codimension by the closed form: one-position parts."""
        if not hasattr(self, "_cell_counts"):  # built once per arrangement
            counts = tuple(_representative_counts((w, 1) for w in self.wall_counts))
            object.__setattr__(self, "_cell_counts", counts)
        return self._cell_counts

    def cells(self, codim: int) -> tuple[tuple[int, ...], ...]:
        """All cells of the given codimension in lex order: the walk over singleton parts."""
        if (count := _at_codim(self.cell_counts, codim)) > MAX_CELLS:
            raise BoundExceededError(f"{count} codim-{codim} cells, above the bound {MAX_CELLS}")
        return tuple(_lex_walk(self.wall_counts, tuple((i,) for i in range(self.k)), codim))

    def all_cells(self) -> tuple[tuple[int, ...], ...]:
        return tuple(cell for codim in range(self.k + 1) for cell in self.cells(codim))

    def locate(self, point) -> tuple[int, ...]:
        """Cell containing a point with one (0, 1)-coordinate per factor."""
        point = tuple(point)
        if len(point) != self.k:
            raise ValueError(f"point of length {len(point)} in a {self.k}-factor arrangement")
        return tuple(ws.locate(x) for (_, ws), x in zip(self.factors, point))


def build_product(records, space: str = "c") -> ProductArrangement:
    """Arrangement whose factors are the FamilyRecords' wall sets in the given
    scale; records without the requested walls raise MissingDataError."""
    return ProductArrangement(tuple((rec.id, rec.walls(space)) for rec in records))


class CrossingGraph(Value):
    """Top cells as nodes; one labeled edge per codim-1 cell."""

    def __init__(
        self,
        nodes: tuple[tuple[int, ...], ...],
        edges: tuple[tuple[tuple[int, ...], ...], ...],  # (side, side, codim-1 label)
    ) -> None:
        self.__dict__.update(nodes=nodes, edges=edges)

    def is_connected(self) -> bool:
        if not self.nodes:
            return True
        adj: dict[tuple[int, ...], list] = {node: [] for node in self.nodes}
        for a, b, _ in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {self.nodes[0]}
        stack = [self.nodes[0]]
        while stack:
            for other in adj[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == len(self.nodes)


def crossing_graph(arr: ProductArrangement) -> CrossingGraph:
    """Adjacency of top cells across codim-1 cells.

    The two sides of a codim-1 cell replace its unique wall position p by
    the chamber positions p - 1 and p + 1; every codim-1 cell labels exactly
    one edge, so the graph is the box product of per-factor paths.
    """
    edges = []
    for p in arr.cells(1) if arr.k else ():
        i = next(i for i, x in enumerate(p) if x & 1)
        below, above = (p[:i] + (p[i] + s,) + p[i + 1 :] for s in (-1, 1))
        edges.append((below, above, p))
    return CrossingGraph(arr.cells(0), tuple(edges))


class SymmetricFolding(Value):
    """Quotient bookkeeping for an arrangement and a grouping, kept as a tuple of tuples,
    that partitions 0..k-1 into non-empty parts of int positions (ValueError otherwise),
    each part of one wall set (ValueError otherwise too); singletons fold nothing."""

    __slots__ = ("_burnside", "_representatives")  # memos: slots, so not fields of the value

    def __init__(self, arrangement: ProductArrangement, grouping) -> None:
        grouping = tuple(tuple(part) for part in grouping)
        flat, k = [pos for part in grouping for pos in part], arrangement.k
        # types before the sort: True and 0.0 equal ints there, and a str does not sort with them
        if not all(grouping) or not set(map(type, flat)) <= {int} or sorted(flat) != [*range(k)]:
            raise ValueError(f"grouping {grouping} is not a partition of 0..{k - 1}")
        for part in grouping:
            if len({arrangement.factors[pos][1] for pos in part}) > 1:
                ids = [arrangement.factors[pos][0] for pos in part]
                raise ValueError(f"grouped factors {ids} carry different wall sets")
        self.__dict__.update(arrangement=arrangement, grouping=grouping)

    def orbits(self, codim: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(representative, size) pairs of the codim orbits in lex order: the walk over the
        folding's parts names them, and each part's n! / prod(m_v!) orderings multiply in
        one pass over its slots, the t-th by t / m_v for its value's multiplicity so far."""
        if (count := self.orbit_count(codim)) > MAX_CELLS:
            raise BoundExceededError(
                f"{count} codim-{codim} orbit representatives, above the bound {MAX_CELLS}"
            )
        multi, orbits = [part for part in self.grouping if len(part) > 1], []
        for rep in _lex_walk(self.arrangement.wall_counts, self.grouping, codim):
            size = 1
            for part in multi:
                seen: dict[int, int] = {}
                for t, slot in enumerate(part, 1):
                    seen[p] = seen.get(p := rep[slot], 0) + 1
                    size = size * t // seen[p]  # each partial product is whole, so exact
            orbits.append((rep, size))
        return tuple(orbits)

    def orbit_count(self, codim: int) -> int:
        """Orbit representatives of the given codimension by the closed form, listing none."""
        if not hasattr(self, "_representatives"):  # built once per folding
            walls = self.arrangement.wall_counts
            counts = _representative_counts((walls[part[0]], len(part)) for part in self.grouping)
            object.__setattr__(self, "_representatives", counts)
        return _at_codim(self._representatives, codim)

    def group_order(self) -> int:
        return prod(factorial(len(part)) for part in self.grouping)

    def burnside_orbit_count(self, codim: int) -> int:
        """Burnside average of fixed-cell counts, enumerating no group element
        and no cell.

        A cell is fixed by a position permutation iff it is constant on the
        permutation's cycles, so a cycle of length l in a part with w walls
        offers w + 1 chambers at codim +0 and w walls at codim +l.  Over S_n
        the cycle through the part's last position takes its l - 1 other
        positions in perm(n - 1, l - 1) orders, so the fixed-cell sums by
        codimension obey sums[n] = sum over l of perm(n - 1, l - 1)
        ((w + 1) + w x^l) sums[n - l] (the exponential formula); parts
        multiply as polynomials in the codimension x."""
        if not hasattr(self, "_burnside"):  # built once per folding
            total = [1]  # fixed-cell sums by codimension over the parts so far
            for part in self.grouping:
                w = self.arrangement.wall_counts[part[0]]
                sums = [total]  # the recursion is linear, so it starts from the product
                for n in range(1, len(part) + 1):
                    nxt = [0] * (len(total) + n)
                    for l in range(1, n + 1):
                        ways = perm(n - 1, l - 1)
                        for j, val in enumerate(sums[n - l]):
                            nxt[j] += ways * (w + 1) * val
                            nxt[j + l] += ways * w * val
                    sums.append(nxt)
                total = sums[-1]
            object.__setattr__(self, "_burnside", total)
        total, order = _at_codim(self._burnside, codim), self.group_order()
        if total % order:
            raise ConsistencyError(f"Burnside sum {total} not divisible by {order}")
        return total // order


def grouping_by_id(arr: ProductArrangement) -> tuple[tuple[int, ...], ...]:
    """Positions grouped by equal family id, in first-appearance order."""
    order: dict[str, list[int]] = {}
    for pos, (fid, _) in enumerate(arr.factors):
        order.setdefault(fid, []).append(pos)
    return tuple(tuple(v) for v in order.values())


# -- rendering ---------------------------------------------------------------

BOX = 720  # unit square in SVG user units
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72, 24, 24, 48
ASCII_COLS, ASCII_ROWS = 60, 30


def _fmt6(value: int | Fraction) -> str:
    """Nonnegative int or Fraction to a fixed 6-decimal string, rounding half up."""
    scaled = value * 10**6
    n = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    return f"{n // 10**6}.{n % 10**6:06d}"


def _plural(n: int, word: str) -> str:
    return f"{n} {word}" + ("" if n == 1 else "s")


def render(product: ProductArrangement | SymmetricFolding, fmt: str) -> str:
    """Render an arrangement, or a folding with its arrangement; "svg" and "ascii"
    accept at most 2 factors."""
    folding = product if isinstance(product, SymmetricFolding) else None
    arr = product if folding is None else folding.arrangement
    if fmt not in RENDER_FORMATS:
        raise ValueError(f"unknown render format {fmt!r}; choose from {RENDER_FORMATS}")
    if fmt == "text":
        return _render_text(arr, folding)
    if fmt == "json":
        return _render_json(arr, folding)
    if arr.k > 2:
        raise UnsupportedError(f"{fmt} diagrams support at most 2 factors, got {arr.k}")
    return _render_svg(arr, folding) if fmt == "svg" else _render_ascii(arr)


def _render_text(arr: ProductArrangement, folding: SymmetricFolding | None) -> str:
    """The report; a folding adds its grouping and its orbit counts, taken two
    ways and refused with a ConsistencyError where they disagree."""
    counts = arr.cell_counts
    lines = [
        "families: " + ", ".join(fid for fid, _ in arr.factors),
        *(f"factor {i} ({fid}): {_plural(len(ws) + 1, 'chamber')}, {_plural(len(ws), 'wall')}"
          for i, (fid, ws) in enumerate(arr.factors)),
        *(f"codim-{j} cells: {count}" for j, count in enumerate(counts)),
        f"total cells: {sum(counts)}",
        # a box product of paths: one node per chamber, one edge per codim-1
        # cell, of which k = 0 has none
        f"crossing graph: {_plural(counts[0], 'node')}, {_plural(sum(counts[1:2]), 'edge')}, "
        "connected",
    ]
    if folding is not None:
        groups = ", ".join(
            "=".join(dict.fromkeys(arr.factors[pos][0] for pos in part))
            + f" -> positions {','.join(map(str, part))}"
            for part in folding.grouping
        )
        by_id = " by family id" if folding.grouping == grouping_by_id(arr) else ""
        lines.append(f"folding{by_id}: {groups}")
        for j in range(arr.k + 1):
            direct, burnside = folding.orbit_count(j), folding.burnside_orbit_count(j)
            if direct != burnside:
                raise ConsistencyError(f"codim-{j} orbit counts disagree: {direct} (enumeration), "
                                       f"{burnside} (burnside)")
            lines.append(f"codim-{j} orbits: {direct} (enumeration) = {burnside} (burnside)")
    return "\n".join(lines) + "\n"


def _render_json(arr: ProductArrangement, folding: SymmetricFolding | None) -> str:
    """What json.dumps(indent=2, sort_keys=True) gives for the report document,
    written without building it: a dumped skeleton marks where the cells and the
    orbits go, and each coords list is joined from fragments cached per position."""
    def coords_writer(pad: str):
        close = "\n" + pad[2:] + "]"
        frag = [f'{pad}{{\n{pad}  "index": {p >> 1},\n{pad}  "kind": "{KINDS[p & 1]}"\n{pad}}}'
                for p in range(2 * max(arr.wall_counts, default=0) + 1)].__getitem__
        return lambda cell: "[\n" + ",\n".join(map(frag, cell)) + close if cell else "[]"

    cell_text, rep_text = coords_writer(" " * 8), coords_writer(" " * 12)
    cell_counts, cells, orbit_counts, orbits = {}, [], {}, []
    for j in range(arr.k + 1):
        cell_counts[str(j)] = len(codim_cells := arr.cells(j))
        cell_head = f'    {{\n      "codim": {j},\n      "coords": '
        cells.extend(cell_head + cell_text(cell) + "\n    }," for cell in codim_cells)
        if folding is not None:
            orbit_counts[str(j)] = len(codim_orbits := folding.orbits(j))
            orbit_head = f'      {{\n        "codim": {j},\n        "representative": {{\n'
            orbits.extend(
                f'{orbit_head}          "codim": {j},\n          "coords": {rep_text(rep)}\n'
                f'        }},\n        "size": {size}\n      }},'
                for rep, size in codim_orbits
            )
    factors = [{"id": fid, "walls": ws.to_json()} for fid, ws in arr.factors]
    doc = {"cell_counts": cell_counts, "cells": ["@"], "factors": factors}
    if folding is not None:
        doc["folding"] = {"grouping": folding.grouping, "orbit_counts": orbit_counts,
                          "orbits": ["@"]}
    lines, rest = [], json.dumps(doc, indent=2, sort_keys=True)
    for marker, items in (('\n    "@"\n', cells), ('\n      "@"\n', orbits)):
        if items:  # orbits is empty unfolded
            items[-1] = items[-1][:-1]  # no comma after the last item
            before, rest = rest.split(marker)
            lines += [before, *items]
    return "\n".join([*lines, rest]) + "\n"


def _render_svg(arr: ProductArrangement, folding: SymmetricFolding | None) -> str:
    def x(value, offset=0):  # factor 0, rightward from the left margin
        return _fmt6(MARGIN_LEFT + value * BOX + offset)

    def y(value, offset=0):  # factor 1, upward from the bottom margin
        return _fmt6(MARGIN_TOP + (1 - value) * BOX + offset)

    width, height = MARGIN_LEFT + BOX + MARGIN_RIGHT, MARGIN_TOP + BOX + MARGIN_BOTTOM
    left, right, bottom, top = x(0), x(1), y(0), y(1)
    walls = [ws for _, ws in arr.factors]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="{left}" y="{top}" width="{BOX}" height="{BOX}" '
        'fill="white" stroke="black" stroke-width="1.5"/>',
    ]
    for i, ws in enumerate(walls):
        for w in ws:
            x1, y1, x2, y2 = (x(w), top, x(w), bottom) if i == 0 else (left, y(w), right, y(w))
            parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                         'stroke="black" stroke-width="1"/>')
    for i, ws in enumerate(walls or [()]):  # no factors still ticks 0 and 1 on x
        for w in (Fraction(0), *ws, Fraction(1)):
            tx, ty, anchor = (x(w), y(0, 20), "middle") if i == 0 else (x(0, -8), y(w, 4), "end")
            parts.append(f'<text x="{tx}" y="{ty}" font-family="monospace" font-size="13" '
                         f'text-anchor="{anchor}">{format_rational(w)}</text>')
    if folding is not None and arr.k == 2:
        if (count := arr.cell_counts[0]) > MAX_CELLS:  # one orbit label per chamber
            raise BoundExceededError(f"{count} codim-0 cells, above the bound {MAX_CELLS}")
        parts.append(f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{top}" '
                     'stroke="black" stroke-width="0.75" stroke-dasharray="6 4"/>')
        # one coordinate string per chamber centre of each axis
        xs = [x(sum(c) / 2) for c in walls[0].chambers()]
        ys = [y(sum(c) / 2, 4) for c in walls[1].chambers()]
        folded, label = len(folding.grouping) == 1, {}
        for a, cx in enumerate(xs):
            for b, cy in enumerate(ys):
                key = (min(a, b), max(a, b)) if folded else (a, b)
                parts.append(f'<text x="{cx}" y="{cy}" font-family="monospace" font-size="12" '
                             f'text-anchor="middle">{label.setdefault(key, len(label))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_ascii(arr: ProductArrangement) -> str:
    if arr.k == 0:
        return "(no factors: a single chamber)\n"
    if arr.k == 1:
        fid, ws = arr.factors[0]
        canvas = ["-"] * (ASCII_COLS + 1)
        for w in ws:
            canvas[round(w * ASCII_COLS)] = "|"
        return f"0 {''.join(canvas)} 1\n{fid} walls: {ws if len(ws) else '(none)'}\n"
    (fid_x, ws_x), (fid_y, ws_y) = arr.factors
    # border lines are walls too; row 0 is the top of the square
    cols = {0, ASCII_COLS} | {round(w * ASCII_COLS) for w in ws_x}
    rows = {0, ASCII_ROWS} | {ASCII_ROWS - round(w * ASCII_ROWS) for w in ws_y}
    grid = [
        "".join(" -|+"[2 * (col in cols) + (row in rows)] for col in range(ASCII_COLS + 1))
        for row in range(ASCII_ROWS + 1)
    ]
    grid += [f"x ({fid_x}) walls: {ws_x}", f"y ({fid_y}) walls: {ws_y}"]
    return "\n".join(grid) + "\n"
