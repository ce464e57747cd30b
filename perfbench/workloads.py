"""Seeded inputs for the four workloads and the check of each output.

Every input is made from the workload seed.  A Job is one request the
benchmark sends as a cold process; its check turns (rc, stdout, stderr,
extra) into a list of problems, using only the references in oracles.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from typing import Callable

import oracles as ref
from oracles import expect_count

WORKLOADS = ("git-atlas", "product-ladder", "cli-mix", "algebra-mix")
VERBS = ("check", "walls", "product", "chamber", "stack", "git-walls")


@dataclass
class Job:
    name: str
    # {"kind": "cli", "argv": [...]}, optionally with "git_after": [n, d];
    # or {"kind": "git", "n": n, "d": d}
    request: dict
    check: Callable[[int, str, str, dict], list[str]]


def cli_job(name: str, argv: list[str], check) -> Job:
    return Job(name, {"kind": "cli", "argv": argv}, check)


# -- checks -------------------------------------------------------------------


def exact(want: str):
    def check(rc, out, err, extra):
        if rc == 0 and out == want and err == "":
            return []
        return [f"rc={rc}, output differs from the reference ({len(out)} vs {len(want)} chars)"]

    return check


def exit_code(code: int):
    prefix = "usage error:" if code == 1 else "error:"

    def check(rc, out, err, extra):
        if rc == code and out == "" and err.startswith(prefix):
            return []
        return [f"expected exit {code} with {prefix!r}, got rc={rc} err={err[:80]!r}"]

    return check


def check_ok(rc, out, err, extra):
    lines = out.splitlines()
    if rc == 0 and len(lines) == 6 and all(l.startswith("ok ") for l in lines[:5]) \
            and lines[5] == "all checks passed":
        return []
    return [f"check verb: rc={rc}, output {out[-80:]!r}"]


def git_json(n: int, d: int, probes_seen: bool = True):
    """A JSON wall report.  The probe count is asserted where the job runs in
    a worker that can count them; a cold CLI process does not print it."""

    def check(rc, out, err, extra):
        if rc != 0:
            return [f"git ({n},{d}): rc={rc} {err[:80]!r}"]
        doc = json.loads(out)
        problems = ref.check_git_report(n, d, doc, extra["probes"] if probes_seen else None)
        if (n, d) == (3, 3) and doc.get("registry_match") is not True:
            problems.append("git-walls json: registry_match is not true")
        return problems

    return check


_CELLS = re.compile(r"^codim-(\d+) cells: (\d+)$", re.M)
_ORBITS = re.compile(r"^codim-(\d+) orbits: (\d+) \(enumeration\) = (\d+) \(burnside\)$", re.M)


def codim_counts(out: str, fold: bool) -> tuple[list[int], list[tuple[int, int]]]:
    """Cells, and (enumerated, Burnside) orbits when folded, by codimension,
    as a text product report prints them."""
    cells = [int(n) for _, n in _CELLS.findall(out)]
    orbits = [(int(e), int(b)) for _, e, b in _ORBITS.findall(out)] if fold else []
    return cells, orbits


def product_text(ids, walls, fold: bool):
    """Cell and orbit counts are asserted against the closed forms before the
    whole report is compared."""
    wc = [len(walls[fid]) for fid in ids]
    want = ref.product_text(ids, walls, fold)
    label = f"product {','.join(ids)}"
    cells = ref.cell_counts(wc)
    orbits = [(n, n) for n in ref.orbit_counts(wc, ref.grouping_by_id(ids))] if fold else []

    def check(rc, out, err, extra):
        if rc == 0:
            got_cells, got_orbits = codim_counts(out, fold)
            expect_count(f"{label} cells by codimension", got_cells, cells)
            expect_count(f"{label} orbits by codimension (enumeration, Burnside)",
                         got_orbits, orbits)
        return exact(want)(rc, out, err, extra)

    return check


def sized(want: str, label: str, size: int | None = None):
    """Exact output whose byte length is a count asserted on every run."""
    size = len(want.encode()) if size is None else size

    def check(rc, out, err, extra):
        if rc == 0:
            expect_count(f"{label} bytes", len(out.encode()), size)
        return exact(want)(rc, out, err, extra)

    return check


# -- git-atlas ----------------------------------------------------------------

GIT_JOBS = ((3, 3), (3, 4), (4, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2))


def git_atlas(seed: int) -> list[Job]:
    jobs = []
    for n, d in GIT_JOBS:
        name = f"git-{n}-{d}"
        if (n, d) == (3, 3):
            argv = ["git-walls", "--degree", "3", "--format", "json"]
            jobs.append(Job(name, {"kind": "cli", "argv": argv, "git_after": [3, 3]},
                            git_json(3, 3)))
        else:
            jobs.append(Job(name, {"kind": "git", "n": n, "d": d}, git_json(n, d)))
    random.Random(seed).shuffle(jobs)
    return jobs


# -- product-ladder -----------------------------------------------------------

JSON_DP3_4_BYTES = 5_391_850


def synthetic_walls(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    walls: set[Fraction] = set()
    while len(walls) < count:
        q = rng.randrange(2, 100)
        walls.add(Fraction(rng.randrange(1, q), q))
    return tuple(sorted(walls))


def write_overlay(path: Path, fid: str, walls) -> str:
    """A registry overlay file with one synthetic two-dimensional family."""
    path.write_text(json.dumps({
        fid: {
            "dimension": 2,
            "volume": "3",
            "moduli_note": f"synthetic {len(walls)}-wall family",
            "hilbert": ["1", "3/2", "3/2"],
            "c_walls": [ref.fmt(w) for w in walls],
        }
    }))
    return str(path)


def product_ladder(seed: int, tmp: Path) -> tuple[list[Job], str]:
    rng = random.Random(seed)
    s20 = synthetic_walls(rng, 20)
    overlay = write_overlay(tmp / "s20.json", "s20", s20)
    walls = {"dp3": ref.walls_of("dp3")}
    jobs = []
    for k in (2, 3, 4):
        ids = ["dp3"] * k
        jobs.append(cli_job(
            f"fold-dp3-{k}", ["product", "--families", ",".join(ids), "--fold"],
            product_text(ids, walls, True)))
    ids = ["dp3"] * 4
    jobs.append(cli_job(
        "json-dp3-4", ["product", "--families", ",".join(ids), "--fold", "--format", "json"],
        sized(ref.product_json(ids, walls, True), "json-dp3-4", JSON_DP3_4_BYTES)))
    jobs.append(cli_job(
        "svg-s20",
        ["product", "--families", "s20,s20", "--fold", "--format", "svg", "--registry", overlay],
        sized(ref.svg_2d(s20, s20, True), "svg-s20")))
    rng.shuffle(jobs)
    return jobs, overlay


def cells_dp3_5() -> Job:
    """The unfolded dp3^5 rung (161,051 cells).  Only the traced run uses it:
    its time swings with allocation and GC churn far more than the rest of
    the ladder, so it is kept out of the timed pass."""
    ids = ["dp3"] * 5
    return cli_job("cells-dp3-5", ["product", "--families", ",".join(ids)],
                   product_text(ids, {"dp3": ref.walls_of("dp3")}, False))


# -- cli-mix ------------------------------------------------------------------

INVALID = (
    (["walls", "--family", "zz9"], 2),  # unknown id
    (["walls", "--family", "dp1"], 2),  # no wall table registered
    (["chamber", "--families", "dp3,dp4", "--point", "3/2,1/5"], 2),  # outside (0, 1)
    (["chamber", "--families", "dp3", "--point", "0"], 2),
    (["chamber", "--families", "dp3,dp4", "--point", "1/2"], 2),  # wrong length
    (["git-walls", "--degree", "4"], 2),
    (["walls"], 1),  # missing --family
    (["frobnicate"], 1),
    (["product", "--families", "dp3", "--format", "pdf"], 1),
)

GOLDEN_SVG = Path("tests") / "data" / "dp3_dp4_c.svg"


def _point(rng: random.Random, fid: str) -> Fraction:
    walls = ref.walls_of(fid)
    if walls and rng.random() < 0.25:
        return rng.choice(walls)
    q = rng.randrange(2, 98)
    return Fraction(rng.randrange(1, q), q)


# The request mix is the "CLI examples" block of README.md: each of its 15
# example lines is sent EXAMPLE_REPEATS times a pass, with the verb, flags
# and format of the example and seeded families, points and factors.  One
# request in ten is invalid, drawn from INVALID.
EXAMPLE_REPEATS = 3
INVALID_SHARE = 10


def _walls(rng: random.Random, space: str, as_json: bool) -> Job:
    fid = rng.choice(("dp3", "dp4", "p1"))
    walls = list(ref.WALLS[(fid, space)])
    argv = ["walls", "--family", fid] + (["--space", "t"] if space == "t" else [])
    if as_json:
        return cli_job("walls", argv + ["--format", "json"], exact(
            ref.dumps({"family": fid, "space": space, "walls": walls})))
    return cli_job("walls", argv, exact(" ".join(walls) + "\n"))


def _product(rng: random.Random, form: str, walls: dict, golden: str) -> Job:
    ids = ["dp3", "dp4"] if rng.random() < 0.5 else ["dp4", "dp3"]
    argv = ["product", "--families", ",".join(ids)]
    if form == "text":
        return cli_job("product", argv, product_text(ids, walls, False))
    if form == "fold-json":
        ids = [rng.choice(ids)] * 2
        return cli_job("product", ["product", "--families", ",".join(ids), "--fold",
                                   "--format", "json"], exact(ref.product_json(ids, walls, True)))
    if form == "svg":  # the golden file is the dp3 x dp4 diagram
        return cli_job("product", ["product", "--families", "dp3,dp4", "--format", "svg"],
                       exact(golden))
    x, y = ids
    return cli_job("product", argv + ["--format", "ascii"],
                   exact(ref.ascii_2d(x, walls[x], y, walls[y])))


def _chamber(rng: random.Random) -> Job:
    ids = [rng.choice(("dp3", "dp4", "p1")) for _ in range(rng.choice((1, 2, 3)))]
    point = [_point(rng, fid) for fid in ids]
    argv = ["chamber", "--families", ",".join(ids),
            "--point", ",".join(ref.fmt(x) for x in point)]
    return cli_job("chamber", argv, exact(ref.chamber_output(ids, point, False)))


def _stack(rng: random.Random, iso: bool, as_json: bool) -> Job:
    factors = [rng.choice(ref.ALL_IDS) for _ in range(rng.randrange(1, 5))]
    pairs = [tuple(sorted(rng.sample(("dp1", "dp2", "dp3", "dp4"), 2)))] if iso else []
    argv = ["stack", "--factors", ",".join(factors)]
    argv += ["--iso", "=".join(pairs[0])] if iso else []
    argv += ["--format", "json"] if as_json else []
    return cli_job("stack", argv, exact(ref.stack_output(factors, pairs, as_json)))


def cli_mix(seed: int, root: Path, tmp: Path) -> list[Job]:
    rng = random.Random(seed)
    golden = (root / GOLDEN_SVG).read_text()
    if golden != ref.svg_2d(ref.walls_of("dp3"), ref.walls_of("dp4"), False):
        raise ref.CountDrift("reference SVG renderer disagrees with the golden file")
    walls = {fid: ref.walls_of(fid) for fid in ("dp3", "dp4")}
    toy = synthetic_walls(rng, 5)
    overlay = write_overlay(tmp / "toy.json", "toy", toy)
    examples = (
        lambda: _walls(rng, "c", False),
        lambda: _walls(rng, "t", False),
        lambda: _walls(rng, "c", True),
        lambda: _product(rng, "text", walls, golden),
        lambda: _product(rng, "fold-json", walls, golden),
        lambda: _product(rng, "svg", walls, golden),
        lambda: _product(rng, "ascii", walls, golden),
        lambda: _chamber(rng),
        lambda: _stack(rng, False, False),
        lambda: _stack(rng, False, True),
        lambda: _stack(rng, True, False),
        lambda: cli_job("git-walls", ["git-walls", "--degree", "3"], exact(ref.git_walls_text())),
        lambda: cli_job("git-walls", ["git-walls", "--degree", "3", "--format", "json"],
                        git_json(3, 3, probes_seen=False)),
        lambda: cli_job("check", ["check"], check_ok),
        lambda: cli_job("walls", ["walls", "--family", "toy", "--registry", overlay],
                        exact(" ".join(ref.fmt(w) for w in toy) + "\n")),
    )
    jobs = [example() for example in examples for _ in range(EXAMPLE_REPEATS)]
    for argv, code in rng.sample(INVALID, len(jobs) // (INVALID_SHARE - 1)):
        jobs.append(cli_job("invalid", list(argv), exit_code(code)))
    rng.shuffle(jobs)
    return jobs


# -- algebra-mix --------------------------------------------------------------

POOL_SIZE = 320  # above the 256-entry closure cache, so entries get evicted


def _block(kind: str, m: int):
    """(generators on 0..m-1, group order, orbit sizes) of a known group."""
    cycle = tuple(range(1, m)) + (0,)
    if kind == "cyclic":
        return [cycle], m, [m]
    if kind == "symmetric":
        return [(1, 0) + tuple(range(2, m)), cycle], factorial(m), [m]
    if kind == "dihedral":
        return [cycle, tuple(-i % m for i in range(m))], 2 * m, [m]
    return [], 1, [1] * m


def _model(shapes: random.Random, rng: random.Random):
    """A direct product of known groups on disjoint blocks plus fixed points,
    drawn from `shapes`, relabelled by a permutation drawn from `rng`:
    (n, generators, order, orbit sizes)."""
    blocks = []
    for _ in range(shapes.choice((1, 1, 2))):
        kind = shapes.choice(("cyclic", "symmetric", "dihedral", "trivial"))
        size = {"symmetric": shapes.randrange(2, 5), "dihedral": shapes.randrange(3, 7)}.get(
            kind, shapes.randrange(2, 7))
        blocks.append(_block(kind, size))
    fixed = shapes.randrange(0, 3)
    n = sum(sum(sizes) for _, _, sizes in blocks) + fixed
    label = list(range(n))
    rng.shuffle(label)
    gens, order, orbit_sizes, offset = [], 1, [], 0
    for block_gens, block_order, sizes in blocks:
        m = sum(sizes)
        for g in block_gens:
            perm = list(range(n))
            for i in range(m):
                perm[label[offset + i]] = label[offset + g[i]]
            gens.append(tuple(perm))
        order *= block_order
        orbit_sizes += sizes
        offset += m
    orbit_sizes += [1] * fixed
    return n, tuple(gens), order, sorted(orbit_sizes)


def _numerics(rng: random.Random):
    dim = rng.randrange(1, 4)
    volume = Fraction(rng.randrange(1, 30), rng.randrange(1, 5))
    middle = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(dim - 1)]
    return dim, volume, [Fraction(1), *middle, volume / factorial(dim)]


def _spec(dim, volume, hilbert):
    return [dim, ref.fmt(volume), [ref.fmt(c) for c in hilbert]]


def _moebius(rng: random.Random):
    while True:
        c = [rng.randrange(-9, 10) for _ in range(4)]
        if c[0] * c[3] - c[1] * c[2]:
            return c


# Every call kind gets the same number of calls in the op list; a timed pass
# runs the list ALGEBRA_REPEATS times.
ALGEBRA_KINDS = ("closure", "orbit_space", "cardinality", "product", "sym", "canonicalize",
                 "classify", "product_numerics", "consistency", "moebius", "codec")
CALLS_PER_KIND = 1000
ALGEBRA_REPEATS = 5


def algebra_mix(seed: int) -> dict:
    """Pool of groupoid models and the op list of one pass, each op with the
    value its result must have."""
    rng = random.Random(seed)
    # The groups of the pool are the same for every seed, and the seed
    # relabels them.  A few large products (S4 x S4 has 576 elements) carry
    # much of the closure work, and drawing them anew for each seed moved
    # the pass time by about 10% from seed to seed.
    shapes = random.Random(0)
    pool, seen = [], set()
    while len(pool) < POOL_SIZE:
        n, gens, order, sizes = _model(shapes, rng)
        if (n, gens) not in seen:
            seen.add((n, gens))
            pool.append((n, gens, order, sizes))
    ops = []
    for kind in ALGEBRA_KINDS:
        for _ in range(CALLS_PER_KIND):
            ops.append(_algebra_op(rng, kind, pool))
    rng.shuffle(ops)
    return {"pool": [[n, [list(g) for g in gens]] for n, gens, _, _ in pool], "ops": ops,
            "repeats": ALGEBRA_REPEATS}


def _algebra_op(rng: random.Random, kind: str, pool) -> dict:
    ids = ("dp1", "dp2", "dp3", "dp4", "p1", "e1", "e2", "e3")
    if kind in ("closure", "orbit_space", "cardinality", "sym"):
        i = rng.randrange(len(pool))
        n, _, order, sizes = pool[i]
        if kind == "closure":
            return {"op": kind, "m": i, "want": order}
        if kind == "orbit_space":
            return {"op": kind, "m": i, "want": sorted([s, order // s] for s in sizes)}
        if kind == "cardinality":
            return {"op": kind, "m": i, "want": ref.canonical_rational(n, order)}
        k = max(k for k in (1, 2, 3) if len(sizes) ** k <= 2000)
        return {"op": kind, "m": i, "k": k, "want": comb(len(sizes) + k - 1, k)}
    if kind == "product":
        while True:
            a, b = rng.randrange(len(pool)), rng.randrange(len(pool))
            if pool[a][0] * pool[b][0] <= 64:
                break
        (na, ga, _, sa), (nb, gb, _, sb) = pool[a], pool[b]
        return {"op": kind, "a": a, "b": b, "want": [na * nb, len(ga) + len(gb), len(sa) * len(sb)]}
    if kind in ("canonicalize", "classify"):
        size = rng.randrange(1, 6) if kind == "canonicalize" else 2
        factors = [rng.choice(ids) for _ in range(size)]
        iso = []
        if rng.random() < 0.5:
            a, b, c, d = rng.sample(ids, 4)
            iso = [[a, b]] + ([[c, d]] if rng.random() < 0.3 else [])
        if kind == "classify":
            return {"op": kind, "factors": factors, "iso": iso,
                    "want": ref.product_map(factors, iso)}
        text, doc = ref.descriptor(factors, iso)
        return {"op": kind, "factors": factors, "iso": iso, "points": sorted(ref.POINT_IDS),
                "want": [text, doc]}
    if kind == "product_numerics":
        (da, va, ha), (db, vb, hb) = _numerics(rng), _numerics(rng)
        want = [da + db, ref.fmt(comb(da + db, da) * va * vb),
                [ref.fmt(c) for c in ref.poly_mul(ha, hb)]]
        return {"op": kind, "a": _spec(da, va, ha), "b": _spec(db, vb, hb), "want": want}
    if kind == "consistency":
        dim, volume, hilbert = _numerics(rng)
        flaw = rng.randrange(4)
        if flaw == 1:
            hilbert[0] += 1
        elif flaw == 2:
            volume += 1
        elif flaw == 3:
            hilbert.append(Fraction(1, 7))
        return {"op": kind, "x": _spec(dim, volume, hilbert),
                "want": ref.numerics_problems(dim, volume, hilbert)}
    if kind == "moebius":
        while True:
            f, g = _moebius(rng), _moebius(rng)
            q = rng.randrange(1, 50)
            x = Fraction(rng.randrange(-99, 100), q)
            if g[2] * x + g[3] == 0 or f[2] * x + f[3] == 0:
                continue
            gx = ref.moebius(g, x)
            if f[2] * gx + f[3] == 0:
                continue
            a, b, c, d = f
            e, f2, g2, h = g
            coeffs = ref.canonical_moebius(a * e + b * g2, a * f2 + b * h, c * e + d * g2, c * f2 + d * h)
            return {"op": kind, "f": f, "g": g, "x": ref.fmt(x),
                    "want": [list(coeffs), ref.fmt(ref.moebius(f, gx)), ref.fmt(x)]}
    p, q = rng.randrange(-999, 1000), rng.choice((1, -1)) * rng.randrange(1, 100)
    s = str(p) if rng.random() < 0.2 else f"{p}/{q}"
    return {"op": "codec", "s": s, "want": ref.canonical_rational(p, 1 if "/" not in s else q)}
