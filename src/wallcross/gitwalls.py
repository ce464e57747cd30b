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
hyperplanes <m - m', r> = 0 and consecutive ties r_i = r_{i+1} inside the
sum-zero space: its flats are walked rank by rank, each cut by each
hyperplane once, down to the rays, and the primitive descending generator of
each ray (when one exists) joins R.  Candidate walls are the values
t = -<m, r>/r_j landing in (0, 1).  Every support M+ changes only at such a
value, so the family of inclusion-maximal pairs (M+, j) is constant on each
open chamber between consecutive candidates.  One sweep samples every chamber:
the stability test builds the first chamber's support masks, and each
candidate then flips only the mask bits whose own threshold it is.  A
candidate is a wall when the samples on its two sides differ.  Completeness
of R is not proved here; it is backed empirically by the bounded exhaustive
refinement check (test suite) and by the acceptance comparison against the
registered tables.

Open question, recorded: whether thresholds j with r_j = 0 can ever carry a
wall under this convention.  They contribute t-independent supports only,
so they never create a candidate value, but they do participate in the
maximal family; we keep them for faithfulness.

Only (n, d) = (3, 3) is a supported target; other small (n, d) run in
exploratory mode with no acceptance claim.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from .errors import ConsistencyError, DimensionMismatchError, UnsupportedError
from .exactq import format_rational
from .wallsets import WallSet

Monomial = tuple[int, ...]
WeightVector = tuple[int, ...]

# candidate_weights refuses configurations with more monomials than this;
# its flats walk costs, at each rank, the flats of that rank times the
# direction count, and both grow with the monomial count.
MAX_MONOMIALS = 56

SUPPORTED = (3, 3)


def monomials(n: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d exponent tuples in n + 1 variables, x_0-dominant first.

    Each pass splits the last exponent e into (f, e - f), f descending; the
    order stays descending lex, since tuples of equal degree first differ
    before their last entry.
    """
    if n < 1 or d < 1:
        raise UnsupportedError(f"need n >= 1 and d >= 1, got ({n}, {d})")
    out = [(d,)]
    for _ in range(n):
        out = [(*m[:-1], f, m[-1] - f) for m in out for f in range(m[-1], -1, -1)]
    return tuple(out)


def monomial_weight(m: Monomial, r: WeightVector) -> int:
    """<m, r> = sum of exponent times weight."""
    if len(m) != len(r):
        raise DimensionMismatchError(f"monomial {m} vs weight vector {r}")
    return sum(e * w for e, w in zip(m, r))


def is_weight_vector(r: tuple[int, ...]) -> bool:
    """Normalized probe: integer, descending, sum zero, nonzero, primitive."""
    return (
        len(r) >= 2
        and all(isinstance(v, int) for v in r)
        and all(a >= b for a, b in zip(r, r[1:]))
        and sum(r) == 0
        and any(v != 0 for v in r)
        and gcd(*r) == 1
    )


def _primitive(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else vec


def _sign_canonical(vec: tuple[int, ...]) -> tuple[int, ...]:
    for lead in vec:
        if lead:
            return tuple(-v for v in vec) if lead < 0 else vec
    return vec


def _equation_directions(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Primitive sign-canonical normals: monomial differences and ties."""
    dirs = set()
    mons = monomials(n, d)
    for m1, m2 in itertools.combinations(mons, 2):
        diff = tuple(a - b for a, b in zip(m1, m2))
        dirs.add(_sign_canonical(_primitive(diff)))
    for i in range(n):
        tie = tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(n + 1))
        dirs.add(tie)
    return tuple(sorted(dirs))


def _cut(basis: tuple[tuple[int, ...], ...], s: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The flat cut from span(basis) by a hyperplane with nonzero functional
    s_i = a . b_i on it: its reduced echelon rows, primitive with positive
    pivots, so that equal flats get equal keys when `basis` is such a key.

    Fraction-free: pivoting on the last nonzero s_p, each row
    s_p * b_i - s_i * b_p (i != p) keeps the pivot of b_i and stays zero in
    the other pivots' columns, because b_p is zero there and s_i = 0 for i > p.
    """
    p = max(i for i, v in enumerate(s) if v)
    sp, bp = s[p], basis[p]
    return tuple(
        _sign_canonical(_primitive(tuple(sp * x - si * y for x, y in zip(b, bp))))
        for i, (si, b) in enumerate(zip(s, basis))
        if i != p
    )


@lru_cache(maxsize=None)
def candidate_weights(n: int, d: int) -> tuple[WeightVector, ...]:
    """Probe vectors: the descending generators of the rays of the direction
    arrangement inside the sum-zero space.

    The flats are walked rank by rank from the reduced echelon basis
    e_i - e_n of that space.  Each flat is cut once by each distinct
    primitive functional the directions restrict to on it, and kept once
    under its `_cut` key.  After n - 1 steps every flat is a ray whose key
    starts positive, as every descending sum-zero vector does, so the key is
    the only orientation that can join R.
    """
    mons = monomials(n, d)
    if len(mons) > MAX_MONOMIALS:
        raise UnsupportedError(
            f"({n}, {d}) has {len(mons)} monomials, above the bound {MAX_MONOMIALS}"
        )
    dirs = _equation_directions(n, d)
    flats = {tuple((*(int(k == i) for k in range(n)), -1) for i in range(n))}
    for _ in range(n - 1):
        cut_flats = set()
        for basis in flats:
            restricted = set(zip(*([sum(map(mul, a, b)) for a in dirs] for b in basis)))
            cuts = {_sign_canonical(_primitive(s)) for s in restricted if any(s)}
            cut_flats.update(_cut(basis, s) for s in cuts)
        flats = cut_flats
    found = sorted(v for (v,) in flats if all(a >= b for a, b in zip(v, v[1:])))
    if not all(is_weight_vector(r) for r in found):
        raise ConsistencyError("a normalized probe is not a weight vector")
    return tuple(found)


def _mask(wvec: tuple[int, ...], rj: int, t: Fraction) -> int:
    """The stability test: bit i is set iff wvec[i] + t * rj > 0."""
    q, shift = t.denominator, t.numerator * rj
    return sum(1 << i for i, w in enumerate(wvec) if w * q + shift > 0)


def _maximal(pairs) -> frozenset[tuple[int, int]]:
    """The inclusion-maximal nonempty members of {(mask, j)}: the largest j
    per mask, less those inside another mask with a threshold at least j."""
    best_j: dict[int, int] = {}
    for mask, j in pairs:
        if mask and best_j.get(mask, -1) < j:
            best_j[mask] = j
    members = sorted(best_j.items(), key=lambda kv: -kv[0].bit_count())
    kept: list[tuple[int, int]] = []
    for mask, j in members:
        if not any(mask & ~km == 0 and j <= kj for km, kj in kept):
            kept.append((mask, j))
    return frozenset(kept)


class _Search:
    """Shared exact machinery for one (n, d, extra probe vectors) instance.

    Supports are bitmasks over the canonical monomial order; profiles
    (per-monomial weights, r_j, j) are deduplicated up to positive scaling,
    keeping the largest j per scaled profile (larger thresholds dominate).
    """

    def __init__(self, n: int, d: int, extra: tuple[WeightVector, ...] = ()):
        self.n, self.d = n, d
        self.mons = monomials(n, d)
        weights = set(candidate_weights(n, d))
        for r in extra:
            if not is_weight_vector(r):
                raise ValueError(f"not a normalized weight vector: {r}")
            if len(r) != n + 1:
                raise DimensionMismatchError(f"weight vector {r} not of length {n + 1}")
            weights.add(r)
        self.weights = tuple(sorted(weights))
        profiles: dict[tuple[tuple[int, ...], int], int] = {}
        for r in self.weights:
            wvec = tuple(monomial_weight(m, r) for m in self.mons)
            for j in range(n + 1):
                g = gcd(*wvec, r[j])
                key = (tuple(w // g for w in wvec), r[j] // g) if g > 1 else (wvec, r[j])
                if profiles.get(key, -1) < j:
                    profiles[key] = j
        self.profiles = tuple((w, rj, j) for (w, rj), j in sorted(profiles.items()))

    def candidates(self) -> dict[Fraction, list[tuple]]:
        """Candidate values, each with its sorted witness triples (r, m, j)."""
        out: dict[Fraction, list[tuple]] = {}
        for r in self.weights:
            wvec = [monomial_weight(m, r) for m in self.mons]
            for j, rj in enumerate(r):
                # 0 < -w / rj < 1, with both sides multiplied by rj^2
                for m, w in zip(self.mons, wvec):
                    if 0 < -w * rj < rj * rj:
                        out.setdefault(Fraction(-w, rj), []).append((r, m, j))
        for witnesses in out.values():
            witnesses.sort()
        return out

    def fingerprint(self, t: Fraction) -> frozenset[tuple[int, int]]:
        """Deduplicated, inclusion-maximalized family {(support mask, j)}."""
        return _maximal((_mask(wvec, rj, t), j) for wvec, rj, j in self.profiles)

    def _chamber_samples(self, cuts: list[Fraction]) -> list[frozenset[tuple[int, int]]]:
        """fingerprint on each open chamber of (0, 1) cut at `cuts`, the sorted
        candidates, among them every profile threshold -wvec[i] / r_j: _mask
        builds the first chamber's masks, and each cut XORs in the bits it flips."""
        flips: dict[Fraction, list[tuple[int, int]]] = {}
        for k, (wvec, rj, _) in enumerate(self.profiles):
            for i, w in enumerate(wvec):
                if 0 < -w * rj < rj * rj:
                    flips.setdefault(Fraction(-w, rj), []).append((k, 1 << i))
        start = (cuts[0] if cuts else Fraction(1)) / 2
        masks = [_mask(wvec, rj, start) for wvec, rj, _ in self.profiles]
        js = [j for _, _, j in self.profiles]
        samples = [_maximal(zip(masks, js))]
        for t in cuts:
            for k, bit in flips[t]:
                masks[k] ^= bit
            samples.append(_maximal(zip(masks, js)))
        return samples

    def walls(self) -> tuple[tuple[Fraction, ...], dict[Fraction, list[tuple]]]:
        """Candidates whose neighbouring chamber samples differ, the samples
        taken by one incremental sweep over the sorted candidates."""
        cands = self.candidates()
        cuts = sorted(cands)
        samples = self._chamber_samples(cuts)
        return tuple(t for t, lo, hi in zip(cuts, samples, samples[1:]) if lo != hi), cands


def _sweep(n: int, d: int, exploratory: bool):
    """The wall sweep behind compute_walls and wall_report, with the
    supported-target guard they share."""
    if (n, d) != SUPPORTED and not exploratory:
        raise UnsupportedError(f"({n}, {d}) is not a supported target; (3, 3) is")
    return _Search(n, d).walls()


def candidate_twalls(n: int, d: int) -> tuple[Fraction, ...]:
    """Sorted candidate slope values -<m, r>/r_j inside (0, 1)."""
    return tuple(sorted(_Search(n, d).candidates()))


def compute_walls(n: int = 3, d: int = 3, *, exploratory: bool = False) -> WallSet:
    """Slope walls: candidates where the maximal family on the chamber below
    differs from the one above, over the probe set candidate_weights(n, d).
    One sweep up the sorted candidates updates each support mask only at its
    own thresholds; 0 and 1 bound the first and last chambers.

    Only (3, 3) is supported; pass exploratory=True to run other small
    configurations with no acceptance claim.
    """
    walls, _ = _sweep(n, d, exploratory)
    return WallSet(walls)


def wall_report(n: int = 3, d: int = 3, *, exploratory: bool = False) -> dict:
    """JSON-ready report: walls, candidates, and per-wall witness triples."""
    walls, cands = _sweep(n, d, exploratory)
    return {
        "walls": [format_rational(t) for t in walls],
        "candidates": [format_rational(t) for t in sorted(cands)],
        "witnesses": {
            format_rational(t): [{"r": list(r), "m": list(m), "j": j} for r, m, j in cands[t]]
            for t in walls
        },
    }
