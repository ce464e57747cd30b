"""Slope walls for pairs (degree-d hypersurface in P^n, hyperplane) by the
Hilbert-Mumford criterion.

Stability of a pair (f, h) at slope t in (0, 1) is probed by diagonal
one-parameter subgroups.  A weight vector is a primitive integer tuple
r = (r_0 >= r_1 >= ... >= r_n), not all zero, with sum zero; a degree-d
monomial m = x^e has weight <m, r> = sum e_i r_i, and the variable x_j has
weight r_j.  The convention used throughout this module:

    (f, h) is t-semistable  iff  for every choice of coordinates and every
    normalized r:   min over supp(f) of <m, r>  +  t * (min over supp(h)
    of the variable weight)  <=  0.

Equivalently, (r, j) destabilizes every pair with supp(f) inside

    M+(r, t, j) = { m : <m, r> + t * r_j > 0 }

and supp(h) inside {x_0, ..., x_j}.  Sign conventions for pair stability
differ across the literature; this one is pinned by the acceptance suite,
which requires the degree-3 computation to reproduce the registered slope
walls {1/5, 1/3, 3/7, 5/9, 9/13} exactly.

The finite probe set R comes from the arrangement of monomial-difference
hyperplanes <m - m', r> = 0 inside the sum-zero space, the consecutive ties
r_i = r_{i+1} among them: the primitive generator of each of its rays inside
the descending cone C = {r_0 >= ... >= r_n}, a fundamental domain of S_{n+1}.
The walk down to the rays keeps each cone F & C, F a flat, by its extreme
generators alone, and cuts it one hyperplane at a time, only where a probe
can lie: by a direction taking both signs on the generators, or by a tie
vanishing on some of them and not all (candidate_weights proves that no
probe is lost).  The walk refuses a rank of more than MAX_FLATS cones.

R is complete: every pair (M+(r, t, j), j) from any r in C lies inside a
probe's pair.  Fix t and j, take r in C with M+(r, t, j) nonempty, and let K
be the smallest face of the arrangement holding r: the closed cone of the x
with a . x = 0 for each direction a vanishing at r, and a . x of the weak
sign of a . r for every other a.  The ties are directions, so K lies in C,
and K is pointed since C is, in the sum-zero space; its extreme rays are
rays of the arrangement inside C, so probes.  Every comparison <m - m', .>
keeps its weak sign on K, so the monomial m* of least weight in M+(r, t, j)
at r is least there at every point of K.  r is a nonnegative sum of K's
extreme rays and <m*, r> + t * r_j > 0, so some extreme ray rho has
<m*, rho> + t * rho_j > 0, and then M+(rho, t, j) contains M+(r, t, j).  So
the inclusion-maximal pairs over C and over R agree at every t.

Candidate walls are the values t = -<m, r>/r_j landing in (0, 1).  Every
support M+ changes only at such a value, so the family of inclusion-maximal
pairs (M+, j) is constant on each open chamber between consecutive
candidates.  One sweep samples every chamber from integer signs and the flip
table alone: the first chamber's support masks are the signs of
<m, r> + t * r_j just above t = 0, every threshold in (0, 1) being a
candidate, and each candidate then flips only the mask bits whose own
threshold it is, updating the family where a pair changes.  The test suite's
oracle recomputes each family by the Fraction stability test instead,
sharing no code with the sweep.  A candidate is a wall when the samples on
its two sides differ; its witnesses are read back from the bits it flips.
The test suite checks the completeness lemma on random r by Fraction
arithmetic, and the walls against bounded exhaustive refinement and the
registered tables.

Open question, recorded: whether thresholds j with r_j = 0 can ever carry a
wall under this convention.  They contribute t-independent supports only,
so they never create a candidate value, but they do participate in the
maximal family; we keep them for faithfulness.  In the 106 chambers of
seven small configurations they change no chamber's family, as
test_zero_weight_thresholds_change_no_chamber_family measures.

Only (n, d) = (3, 3) is a supported target; other small (n, d) run in
exploratory mode with no acceptance claim.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import mul

from .errors import BoundExceededError, ConsistencyError, UnsupportedError
from .exactq import format_rational
from .wallsets import WallSet

Monomial = tuple[int, ...]
WeightVector = tuple[int, ...]

# monomials refuses configurations with more monomials than this, before it
# builds any.  The candidate_weights walk costs, at each rank, the cones it
# keeps times the direction count; it refuses as it is about to make cone
# number MAX_FLATS + 1 of a rank.  (5, 2) peaks at 992; (6, 2) is refused at
# its third rank, after 76 and 1,673 cones.
MAX_MONOMIALS = 56
MAX_FLATS = 10_000

SUPPORTED = (3, 3)


def monomials(n: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d exponent tuples in n + 1 variables, x_0-dominant first.

    Multisets of d variable indices come in lex order, so their exponent
    tuples come in descending lex order: where two multisets first differ,
    the earlier holds more of the smaller index, and equally many of each
    index below it.
    """
    if n < 1 or d < 1:
        raise UnsupportedError(f"need n >= 1 and d >= 1, got ({n}, {d})")
    if (count := comb(n + d, n)) > MAX_MONOMIALS:  # counted before any is built
        raise UnsupportedError(f"({n}, {d}) has {count} monomials, above the bound {MAX_MONOMIALS}")
    variables = range(n + 1)
    return tuple(tuple(map(c.count, variables))
                 for c in itertools.combinations_with_replacement(variables, d))


def is_weight_vector(r: tuple[int, ...]) -> bool:
    """Normalized probe: integer, descending, sum zero, primitive (so nonzero)."""
    return (all(isinstance(v, int) for v in r) and all(a >= b for a, b in zip(r, r[1:]))
            and sum(r) == 0 and gcd(*r) == 1)


def _primitive(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else vec


def _sign_canonical(vec: tuple[int, ...]) -> tuple[int, ...]:
    for lead in vec:
        if lead:
            return tuple(-v for v in vec) if lead < 0 else vec
    return vec


def _equation_directions(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Primitive sign-canonical normals of the monomial differences.  Each
    tie e_i - e_{i+1} is among them, as x_i x_0^(d-1) - x_{i+1} x_0^(d-1)."""
    dirs = set()
    mons = monomials(n, d)
    for m1, m2 in itertools.combinations(mons, 2):
        diff = tuple(a - b for a, b in zip(m1, m2))
        dirs.add(_sign_canonical(_primitive(diff)))
    return tuple(sorted(dirs))


def _cut(gens, vals, masks) -> frozenset[tuple[int, ...]]:
    """The extreme generators of K & ker a, given those of a cone K = span(K) & C,
    the values a . p on them and their tie masks (bit i set when p_i = p_{i+1}).

    One double-description step (Motzkin et al. 1953): the generators a
    vanishes on, and (a . p) q - (a . q) p for each pair a . p > 0 > a . q
    that is adjacent, no third generator lying on every tie that both lie on
    (Fukuda and Prodon 1996).  Each new ray lies inside its own 2-face of K,
    so the child's generators are again extreme, and equal cones get equal keys.
    """
    side = [(v, p, m) for v, p, m in zip(vals, gens, masks) if v]
    pairs = (_primitive(tuple(vp * x - vq * y for x, y in zip(q, p)))
             for vp, p, mp in side if vp > 0 for vq, q, mq in side if vq < 0
             if sum(mp & mq & ~m == 0 for m in masks) == 2)
    return frozenset([*(p for v, p in zip(vals, gens) if not v), *pairs])


@lru_cache(maxsize=None)
def candidate_weights(n: int, d: int) -> tuple[WeightVector, ...]:
    """Probe vectors: the descending generators of the rays of the direction
    arrangement inside the sum-zero space.

    The walk keeps each cone K = F & C, F a flat of the arrangement, by its
    extreme generators alone, rank by rank from C's extreme rays
    ((n + 1 - k)^k, (-k)^(n + 1 - k)).  A direction a is kept when it takes
    both signs on the generators, or when it is a tie r_i = r_{i+1}, at
    least 0 on C, that vanishes on some of them and not all.  Directions
    whose values a . p on the generators are proportional cut K alike, so
    `_cut` is called once per primitive sign-canonical value vector.  A cone
    with one generator is a probe at whatever rank it is met, since a tie
    cut can drop the dimension by more than one.

    Every K is span(K) & C.  C is, and if K = L & C, a cut
    K' = L & ker a & C holds span(K') & C, since span(K') lies in L & ker a.
    No probe is lost.  Let rho be a probe ray in K, with K not yet a ray.
      * rho interior to K relative to span(K): rho is cut out by the
        directions through it, so one of them misses span(K).  It vanishes
        at an interior point of K, so it takes both signs on K, on the
        generators too, and is kept.
      * Otherwise rho is on the boundary of K = {r in span(K) : r_i >= r_{i+1}}
        relative to span(K): some tie that does not vanish on span(K)
        vanishes at rho.  It is at least 0 on the generators, and rho is a
        nonnegative sum of them, so it vanishes on one of them and is kept.
    Either way a kept cut leads to a cone that still holds rho and has a
    smaller span.  A one-generator cone is a ray F & C, and the ties
    vanishing on it cut F down to its line, so it is a probe, positive
    first like every descending sum-zero vector.
    """
    dirs = _equation_directions(n, d)
    ties = {tuple(int(k == i) - (k == i + 1) for k in range(n + 1)) for i in range(n)}
    memo: dict[tuple[int, ...], tuple[int, ...]] = {}  # p -> (a . p for each a, tie mask)
    extreme = tuple(_primitive((n + 1 - k,) * k + (-k,) * (n + 1 - k)) for k in range(1, n + 1))
    probes, cones = set(), {frozenset(extreme)}
    for _ in range(n):  # a kept cut lowers dim span(K), which is n at C and 1 at a probe
        children = set()
        for gens in cones:
            if len(gens) == 1:
                probes |= gens
                continue
            for p in gens:
                if p not in memo:
                    memo[p] = (*(sum(map(mul, a, p)) for a in dirs),
                               sum(1 << i for i in range(n) if p[i] == p[i + 1]))
            *cols, masks = zip(*map(memo.__getitem__, gens))
            cuts = {_sign_canonical(_primitive(vals)) for a, vals in zip(dirs, cols)
                    if min(vals) < 0 < max(vals) or a in ties and min(vals) == 0 < max(vals)}
            for vals in cuts:
                child = _cut(gens, vals, masks)
                if child not in children:
                    if len(children) == MAX_FLATS:
                        raise BoundExceededError(
                            f"({n}, {d}) has more than {MAX_FLATS} flats at a rank")
                    children.add(child)
        cones = children
    if cones:
        raise ConsistencyError(f"the cone walk of ({n}, {d}) is not done after {n} rounds")
    found = sorted(probes)
    if not all(is_weight_vector(r) for r in found):
        raise ConsistencyError("a normalized probe is not a weight vector")
    return tuple(found)


class _Antichain:
    """The inclusion-maximal nonempty pairs (mask, j) of a multiset under
    single insertions and deletions: a count per pair, and one insertion
    rule, _offer.  A pair is offered when its first copy arrives; when the
    last copy of a member leaves, the present pairs below it are offered
    again, since only it could have dominated them."""

    def __init__(self, pairs):
        self.count, self.members = Counter(), set()
        for pair in pairs:
            self.add(pair)

    def _offer(self, pair: tuple[int, int]) -> None:
        """Admit a nonempty pair that no member dominates (mask inside the
        member's, j at most its threshold), dropping the members it dominates."""
        mask, j = pair
        if mask and not any(mask & ~m == 0 and j <= k for m, k in self.members):
            self.members = {(m, k) for m, k in self.members if m & ~mask or k > j} | {pair}

    def add(self, pair: tuple[int, int]) -> None:
        self.count[pair] += 1
        if self.count[pair] == 1:
            self._offer(pair)

    def remove(self, pair: tuple[int, int]) -> None:
        self.count[pair] -= 1
        if not self.count[pair]:
            del self.count[pair]
            if pair in self.members:
                self.members.remove(pair)
                mask, j = pair
                for p in self.count:
                    if p[0] & ~mask == 0 and p[1] <= j:
                        self._offer(p)


class _Search:
    """Shared exact machinery for one (n, d) instance.

    Supports are bitmasks over the canonical monomial order.  Profiles are
    the raw table, one (per-monomial weights, r_j, j) per probe r and index
    j in probe order; a tie r_j = r_j' gives equal masks at every t, and
    _Antichain keeps the larger j.  One pass over the thresholds
    t = -w_i / r_j in (0, 1), each keyed by p / q in lowest terms, builds
    the one threshold table: the mask bits each t flips per profile.
    """

    def __init__(self, n: int, d: int):
        self.n = n
        self.mons = monomials(n, d)
        self.probes = candidate_weights(n, d)
        profiles = []
        for r in self.probes:
            wvec = tuple(sum(map(mul, m, r)) for m in self.mons)
            profiles.extend((wvec, rj, j) for j, rj in enumerate(r))
        self.profiles = tuple(profiles)
        self.flips: dict[tuple[int, int], dict[int, int]] = {}
        for k, (wvec, rj, _) in enumerate(self.profiles):
            sign, q = (-1, rj) if rj > 0 else (1, -rj)
            for i, w in enumerate(wvec):
                if 0 < sign * w < q:
                    g = gcd(w, q)
                    row = self.flips.setdefault((sign * w // g, q // g), {})
                    row[k] = row.get(k, 0) | 1 << i

    def candidates(self) -> list[Fraction]:
        """The sorted candidate values."""
        return sorted(Fraction(p, q) for p, q in self.flips)

    def witnesses(self, t: Fraction) -> list[tuple]:
        """The sorted triples (r, m, j) behind candidate t: the (r, j) of
        each profile that t flips, with each monomial whose bit it flips."""
        return sorted((self.probes[k // (self.n + 1)], m, k % (self.n + 1))
                      for k, bits in self.flips[t.numerator, t.denominator].items()
                      for i, m in enumerate(self.mons) if bits >> i & 1)

    def _chamber_samples(self, cuts: list[Fraction]) -> list[frozenset[tuple[int, int]]]:
        """The deduplicated, inclusion-maximalized family {(support mask, j)}
        on each open chamber of (0, 1) cut at `cuts`, the sorted candidates.
        They hold every profile threshold -w_i / r_j in (0, 1), so no sign of
        w_i + t * r_j changes below the first: the first chamber's bit i is
        set iff w_i > 0, or w_i = 0 < r_j, its sign just above t = 0.  Each
        cut then XORs in the bits it flips and moves each flipped profile's
        pair in the _Antichain."""
        masks = [sum(1 << i for i, w in enumerate(wvec) if w > 0 or w == 0 < rj)
                 for wvec, rj, _ in self.profiles]
        js = [j for _, _, j in self.profiles]
        family = _Antichain(zip(masks, js))
        samples = [frozenset(family.members)]
        for t in cuts:
            for k, bits in self.flips[t.numerator, t.denominator].items():
                old = masks[k], js[k]
                masks[k] ^= bits
                family.add((masks[k], js[k]))
                family.remove(old)
            samples.append(frozenset(family.members))
        return samples

    def walls(self) -> tuple[Fraction, ...]:
        """Candidates whose neighbouring chamber samples differ, the samples
        taken by one incremental sweep over the sorted candidates."""
        cuts = self.candidates()
        samples = self._chamber_samples(cuts)
        return tuple(t for t, lo, hi in zip(cuts, samples, samples[1:]) if lo != hi)


def _search(n: int, d: int, exploratory: bool) -> _Search:
    """The search behind compute_walls and wall_report, with the
    supported-target guard they share."""
    if (n, d) != SUPPORTED and not exploratory:
        raise UnsupportedError(f"({n}, {d}) is not a supported target; (3, 3) is")
    return _Search(n, d)


def candidate_twalls(n: int, d: int) -> tuple[Fraction, ...]:
    """Sorted candidate slope values -<m, r>/r_j inside (0, 1)."""
    return tuple(_Search(n, d).candidates())


def compute_walls(n: int = 3, d: int = 3, *, exploratory: bool = False) -> WallSet:
    """Slope walls: candidates where the maximal family on the chamber below
    differs from the one above, over the probe set candidate_weights(n, d).
    One sweep up the sorted candidates updates each support mask only at its
    own thresholds; 0 and 1 bound the first and last chambers.

    Only (3, 3) is supported; pass exploratory=True to run other small
    configurations with no acceptance claim.
    """
    return WallSet(_search(n, d, exploratory).walls())


def wall_report(n: int = 3, d: int = 3, *, exploratory: bool = False) -> dict:
    """JSON-ready report: walls, candidates, and per-wall witness triples."""
    search = _search(n, d, exploratory)
    walls = search.walls()
    return {
        "walls": [format_rational(t) for t in walls],
        "candidates": [format_rational(t) for t in search.candidates()],
        "witnesses": {
            format_rational(t): [
                {"r": list(r), "m": list(m), "j": j} for r, m, j in search.witnesses(t)
            ]
            for t in walls
        },
    }
