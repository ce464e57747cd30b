"""Seeded random permutation models shared by the groupoid test suites,
brute-force oracles for the closed forms that `stackalg` computes, the
per-entry lifts that `product_model`'s generators must match, the
plain `Fraction` polynomial product that `invariants._convolve` must match,
the unpruned flat walk and the kernel oracle whose probes
`gitwalls.candidate_weights` must match (its cone walk keyed by extreme
generators; both oracles build their own directions, and the flat walk cuts
reduced echelon bases, whose `echelon_key` also names each cone's span), the
per-point fingerprint that the wall sweep's chamber samples
must match (by the stability test `stability_mask` and the from-scratch
`maximal_family`, which `gitwalls._Antichain` must match too), the
filtered full product and the bucketing under every group image that
`ProductArrangement.cells` and `SymmetricFolding.orbits` must match (by
`cells_oracle` and `orbits_oracle`), the lex-least group image that names
each orbit's representative, in `orbits` and in the folded SVG labels (by
`min(group_images(grouping, cell))`), the per-element Burnside sum that
`SymmetricFolding.burnside_orbit_count` must match, and the hand-built
registry that `wallsets.load_registry` must match when it decodes the
built-in families from overlay data."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from operator import mul

from wallcross.exactq import MoebiusMap
from wallcross.invariants import Polynomial
from wallcross.stackalg import (
    FiniteGroupoidModel,
    groupoid_cardinality,
    orbit_space,
    product_model,
)
from wallcross.wallsets import FamilyRecord, WallSet

FACTOR_ORDER_BOUND = 10_000
PAIR_ORDER_BOUND = 10_000


def _compose(p, q):
    return tuple(p[v] for v in q)


def _random_generator(rng: random.Random, n: int):
    perm = tuple(range(n))
    for _ in range(rng.randint(1, 2)):
        if n < 2:
            break
        k = rng.randint(2, min(4, n))
        pts = rng.sample(range(n), k)
        cycle = list(range(n))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            cycle[a] = b
        perm = _compose(tuple(cycle), perm)
    return perm


def random_model(rng: random.Random, max_points: int = 8) -> FiniteGroupoidModel:
    """A model with <= max_points carrier points and group order <= 10^4."""
    while True:
        n = rng.randint(1, max_points)
        gens = tuple(_random_generator(rng, n) for _ in range(rng.randint(0, 2)))
        model = FiniteGroupoidModel(tuple(range(n)), gens)
        if model.group_order() <= FACTOR_ORDER_BOUND:
            return model


def random_model_pair(rng: random.Random):
    """Two models whose product group stays within the pair bound."""
    while True:
        a = random_model(rng)
        b = random_model(rng)
        if a.group_order() * b.group_order() <= PAIR_ORDER_BOUND:
            return a, b


def product_generators_oracle(a: FiniteGroupoidModel, b: FiniteGroupoidModel):
    """The generators of the product of a and b, each entry of each lift
    computed on its own: pair (i, j) is index i * nb + j, g in G sends it
    to (g[i], j) and h in H to (i, h[j])."""
    na, nb = len(a.carrier), len(b.carrier)

    def lift_a(g):
        return tuple(gi * nb + j for gi in g for j in range(nb))

    def lift_b(h):
        return tuple(i + hj for i in range(0, na * nb, nb) for hj in h)

    return tuple(lift_a(g) for g in a.generators) + tuple(lift_b(h) for h in b.generators)


def brute_stabilizer_orders(model: FiniteGroupoidModel) -> list[int]:
    """Per orbit, the group elements fixing its least point, counted."""
    reps = [block[0] for block in model.orbit_partition()]
    counts = [0] * len(reps)
    for g in model.elements():
        for i, r in enumerate(reps):
            if g[r] == r:
                counts[i] += 1
    return counts


def brute_cardinality(model: FiniteGroupoidModel) -> Fraction:
    """sum over orbits of 1/|stab|, with the stabilizers counted."""
    return sum((Fraction(1, s) for s in brute_stabilizer_orders(model)), Fraction(0))


def brute_multiset_count(n: int, k: int) -> int:
    """Multisets of size k from n symbols, as the distinct sorted k-tuples."""
    return len({tuple(sorted(t)) for t in itertools.product(range(n), repeat=k)})


def brute_grouped(factors, iso, drop=frozenset()) -> list[list]:
    """`stackalg._grouped` by collecting the present ids of each class,
    found by a scan of the asserted classes, then sorting."""
    counts = dict(factors) if isinstance(factors, dict) else Counter(factors)
    members: dict[frozenset[str], list[str]] = {}
    for fid in counts:
        if fid not in drop:
            cls = next((frozenset(c) for c in iso if fid in c), frozenset((fid,)))
            members.setdefault(cls, []).append(fid)
    return sorted([min(ids), sum(counts[f] for f in ids)] for ids in members.values())


def brute_canonicalize(factors, iso, point_ids):
    """(text, JSON) of `canonicalize` from the brute grouping, with no
    descriptor class: atoms by id, then symmetric quotients by id, shown as
    a point, a single node or a product."""
    groups = sorted(brute_grouped(factors, iso, point_ids), key=lambda g: (g[1] > 1, g[0]))
    nodes = [
        (rep, {"kind": "atom", "id": rep}) if mult == 1
        else (f"[{rep}^{mult}/S{mult}]",
              {"kind": "sym", "base": {"kind": "atom", "id": rep}, "power": mult})
        for rep, mult in groups
    ]
    if not nodes:
        return "pt", {"kind": "point"}
    if len(nodes) == 1:
        return nodes[0]
    return " x ".join(t for t, _ in nodes), {"kind": "product", "children": [j for _, j in nodes]}


def assert_product_laws(a: FiniteGroupoidModel, b: FiniteGroupoidModel) -> None:
    """Product-model identities: orbits are pairs of orbits (matching
    representatives), stabilizer orders multiply, cardinality multiplies.
    Every stabilizer order is also counted over the group's elements."""
    prod = product_model(a, b)
    assert prod.group_order() == a.group_order() * b.group_order()
    orb_a, orb_b = orbit_space(a), orbit_space(b)
    orb_p = orbit_space(prod)
    for model, orbits in ((a, orb_a), (b, orb_b), (prod, orb_p)):
        assert [o.stabilizer_order for o in orbits] == brute_stabilizer_orders(model)
    assert len(orb_p) == len(orb_a) * len(orb_b)
    expected = {}
    for oa in orb_a:
        for ob in orb_b:
            pts = frozenset(itertools.product(oa.points, ob.points))
            expected[pts] = (
                (oa.points[0], ob.points[0]),
                oa.stabilizer_order * ob.stabilizer_order,
            )
    got = {
        frozenset(o.points): (o.points[0], o.stabilizer_order) for o in orb_p
    }
    assert got == expected
    assert groupoid_cardinality(prod) == groupoid_cardinality(a) * groupoid_cardinality(b)


def poly_trim_oracle(coeffs) -> Polynomial:
    """Each entry through `Fraction`, then trailing zeros dropped."""
    out = [Fraction(v) for v in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out) if out else (Fraction(0),)


def poly_mul_oracle(f, g) -> Polynomial:
    """f * g as the convolution of the trimmed inputs in `Fraction`s."""
    f, g = poly_trim_oracle(f), poly_trim_oracle(g)
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_trim_oracle(out)


def _primitive(vec):
    g = math.gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


def _sign_canonical(vec):
    lead = next((v for v in vec if v), 0)
    return tuple(-v for v in vec) if lead < 0 else tuple(vec)


def _directions(n: int, d: int):
    """The monomial differences of degree d in n + 1 variables and the
    consecutive ties e_i - e_{i+1}, each primitive and sign-canonical."""
    mons = [e for e in itertools.product(range(d + 1), repeat=n + 1) if sum(e) == d]
    dirs = {tuple(a - b for a, b in zip(m1, m2)) for m1, m2 in itertools.combinations(mons, 2)}
    dirs |= {tuple(int(k == i) - int(k == i + 1) for k in range(n + 1)) for i in range(n)}
    return {_sign_canonical(_primitive(a)) for a in dirs}


def echelon_cut(basis, s):
    """The flat cut from span(basis) by a hyperplane with nonzero functional
    s_i = a . b_i on it, as reduced echelon rows, primitive with positive
    pivots, when `basis` is such rows.  Fraction-free: pivoting on the last
    nonzero s_p, each row s_p b_i - s_i b_p (i != p) keeps the pivot of b_i
    and stays zero in the other pivots' columns."""
    p = max(i for i, v in enumerate(s) if v)
    return tuple(
        _sign_canonical(_primitive(tuple(s[p] * x - si * y for x, y in zip(b, basis[p]))))
        for i, (si, b) in enumerate(zip(s, basis))
        if i != p
    )


def echelon_key(rows):
    """The reduced echelon basis of span(rows), each row primitive with a
    positive pivot, by fraction-free elimination: equal spans get equal keys."""
    rows, basis = list(rows), []
    for c in range(len(rows[0])):
        if (pivot := next((row for row in rows if row[c]), None)) is None:
            continue
        rows.remove(pivot)
        pivot = _sign_canonical(_primitive(pivot))  # its first nonzero entry is at c
        rows, basis = ([_primitive(tuple(pivot[c] * x - row[c] * y for x, y in zip(row, pivot)))
                        for row in part] for part in (rows, basis))
        basis.append(pivot)
    return tuple(basis)


def unpruned_probes(n: int, d: int):
    """The probe walk without the descending-cone pruning, and its cut count:
    every flat of the direction arrangement, rank by rank from the reduced
    echelon basis e_i - e_n of the sum-zero space, each cut by `echelon_cut`
    once per distinct primitive functional the directions restrict to on
    it, down to the rays, whose descending keys are the probes."""
    dirs, cuts = _directions(n, d), 0
    flats = {tuple((*(int(k == i) for k in range(n)), -1) for i in range(n))}
    for _ in range(n - 1):
        cut_flats = set()
        for basis in flats:
            restricted = {_sign_canonical(_primitive(s))
                          for s in zip(*([sum(map(mul, a, b)) for a in dirs] for b in basis))
                          if any(s)}
            cut_flats.update(echelon_cut(basis, s) for s in restricted)
            cuts += len(restricted)
        flats = cut_flats
    return tuple(sorted(v for (v,) in flats if all(a >= b for a, b in zip(v, v[1:])))), cuts


def _det(rows) -> int:
    """Integer determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** c * v * _det([row[:c] + row[c + 1:] for row in rows[1:]])
               for c, v in enumerate(rows[0]) if v)


def kernel_probes(n: int, d: int):
    """The probes by linear algebra alone: each ray of the direction
    arrangement in the sum-zero space is the kernel of the all-ones
    functional and n - 1 directions, read off as the signed maximal minors
    of those n rows; a nonzero kernel is kept with its descending sign, made
    primitive.  The directions come from `_directions`, not from `gitwalls`."""
    found = set()
    for chosen in itertools.combinations(_directions(n, d), n - 1):
        rows = [(1,) * (n + 1), *chosen]
        kernel = [(-1) ** k * _det([row[:k] + row[k + 1:] for row in rows]) for k in range(n + 1)]
        if g := math.gcd(*kernel):
            for ray in (kernel, [-v for v in kernel]):
                if all(a >= b for a, b in zip(ray, ray[1:])):
                    found.add(tuple(v // g for v in ray))
    return tuple(sorted(found))


def stability_mask(wvec, rj: int, t: Fraction) -> int:
    """M+(r, t, j) as bits by the stability test at t = p / q: bit i is set
    iff wvec[i] + t * rj > 0, that is iff q * wvec[i] + p * rj > 0."""
    q, shift = t.denominator, t.numerator * rj
    return sum(1 << i for i, w in enumerate(wvec) if w * q + shift > 0)


def maximal_family(pairs) -> frozenset[tuple[int, int]]:
    """The inclusion-maximal nonempty members of {(mask, j)}, from scratch:
    the largest j per mask, then, largest masks first, each one kept unless
    a kept mask contains it with a threshold at least j."""
    best_j: dict[int, int] = {}
    for mask, j in pairs:
        if mask and best_j.get(mask, -1) < j:
            best_j[mask] = j
    kept: list[tuple[int, int]] = []
    for mask, j in sorted(best_j.items(), key=lambda kv: -kv[0].bit_count()):
        if not any(mask & ~km == 0 and j <= kj for km, kj in kept):
            kept.append((mask, j))
    return frozenset(kept)


def fingerprint(search, t):
    """Deduplicated, inclusion-maximalized family {(support mask, j)} of a
    `gitwalls._Search` at t, computed anew from every profile by
    `stability_mask` and `maximal_family`."""
    return maximal_family((stability_mask(wvec, rj, t), j) for wvec, rj, j in search.profiles)


def cells_oracle(wall_counts, j):
    """(kind, index) tuples of codim j, filtered from the full (2w+1)^k product
    of per-factor coords in left-to-right interval order, hence in lex order."""
    per_factor = [
        [c for i in range(w) for c in (("chamber", i), ("wall", i))] + [("chamber", w)]
        for w in wall_counts
    ]
    return [
        coords
        for coords in itertools.product(*per_factor)
        if sum(1 for kind, _ in coords if kind == "wall") == j
    ]


def group_images(grouping, positions):
    """Every image of a positions tuple under the folding group."""
    images = set()
    for perms in itertools.product(
        *(itertools.permutations(part) for part in grouping)
    ):
        image = list(positions)
        for part, perm in zip(grouping, perms):
            for src, dst in zip(part, perm):
                image[dst] = positions[src]
        images.add(tuple(image))
    return images


def orbits_oracle(folding, j):
    """(representative, size) pairs by bucketing every codim-j cell, filtered
    from the full product of positions 0..2w (chamber i is 2i, wall i is
    2i + 1), under its lex-least group image, in representative order."""
    ranges = (range(2 * w + 1) for w in folding.arrangement.wall_counts)
    codim_cells = (cell for cell in itertools.product(*ranges) if sum(p & 1 for p in cell) == j)
    buckets = Counter(min(group_images(folding.grouping, cell)) for cell in codim_cells)
    return tuple(sorted(buckets.items()))


def brute_burnside_orbit_count(folding, codim: int) -> int:
    """Burnside average over every element of the folding group: each
    element's cycles found by a walk, its fixed cells counted by a product
    DP over those cycles."""
    k = folding.arrangement.k
    wall_counts = folding.arrangement.wall_counts
    total = 0
    for parts_perm in itertools.product(
        *(itertools.permutations(part) for part in folding.grouping)
    ):
        sigma = list(range(k))
        for part, image in zip(folding.grouping, parts_perm):
            for pos, target in zip(part, image):
                sigma[pos] = target
        # cycle decomposition; each cycle stays inside one group part
        seen = [False] * k
        counts = [1] + [0] * k  # counts[j] = fixed cells of codim j so far
        for start in range(k):
            if seen[start]:
                continue
            length = 0
            pos = start
            while not seen[pos]:
                seen[pos] = True
                pos = sigma[pos]
                length += 1
            w = wall_counts[start]
            nxt = [0] * (k + 1)
            for j, val in enumerate(counts):
                if not val:
                    continue
                nxt[j] += val * (w + 1)  # a shared chamber coordinate
                if j + length <= k and w:
                    nxt[j + length] += val * w  # a shared wall coordinate
            counts = nxt
        total += counts[codim]
    order = folding.group_order()
    assert total % order == 0, f"Burnside sum {total} not divisible by {order}"
    return total // order


def hand_built_registry() -> dict[str, FamilyRecord]:
    """The five built-in families, each record constructed field by field
    from Fractions, in the registry's key order."""
    F = Fraction
    return {
        rec.id: rec
        for rec in (
            FamilyRecord(
                id="dp1",
                dimension=2,
                volume=F(1),
                moduli_note="degree-1 del Pezzo pairs; no explicit global description registered",
                hilbert=(F(1), F(1, 2), F(1, 2)),
            ),
            FamilyRecord(
                id="dp2",
                dimension=2,
                volume=F(2),
                moduli_note=(
                    "Kirwan blow-up of the plane-quartic GIT quotient "
                    "at the double-conic point"
                ),
                hilbert=(F(1), F(1), F(1)),
            ),
            FamilyRecord(
                id="dp3",
                dimension=2,
                volume=F(3),
                moduli_note="weighted projective space P(1,2,3,4,5) (cubic-surface GIT)",
                hilbert=(F(1), F(3, 2), F(3, 2)),
                c_walls=WallSet((F(2, 11), F(4, 13), F(2, 5), F(10, 19), F(2, 3))),
                t_walls=WallSet((F(1, 5), F(1, 3), F(3, 7), F(5, 9), F(9, 13))),
                reparam=MoebiusMap(9, 0, 1, 8),
            ),
            FamilyRecord(
                id="dp4",
                dimension=2,
                volume=F(4),
                moduli_note="weighted projective space P(1,2,3) (quartic del Pezzo GIT)",
                hilbert=(F(1), F(2), F(2)),
                c_walls=WallSet((F(1, 7), F(1, 4), F(1, 3), F(1, 2), F(5, 8))),
                t_walls=WallSet((F(1, 6), F(2, 7), F(3, 8), F(6, 11), F(2, 3))),
                reparam=MoebiusMap(6, 0, 1, 5),
            ),
            FamilyRecord(
                id="p1",
                dimension=1,
                volume=F(2),
                moduli_note="point",
                hilbert=(F(1), F(2)),
                c_walls=WallSet(()),
                t_walls=WallSet(()),
                reparam=MoebiusMap(1, 0, 0, 1),
            ),
        )
    }
