import hashlib
import itertools
import json
import tracemalloc
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, gcd

import pytest
from _models import (
    echelon_key,
    fingerprint,
    kernel_probes,
    maximal_family,
    stability_mask,
    unpruned_probes,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wallcross import gitwalls
from wallcross.errors import BoundExceededError, ConsistencyError, UnsupportedError
from wallcross.gitwalls import (
    _Antichain,
    _equation_directions,
    _Search,
    candidate_twalls,
    candidate_weights,
    compute_walls,
    is_weight_vector,
    monomials,
    wall_report,
)

F = Fraction

DEGREE3_WALLS = (F(1, 5), F(1, 3), F(3, 7), F(5, 9), F(9, 13))


def expected_monomial_count(n: int, d: int) -> int:
    """Stars and bars: C(n + d, d) monomials of degree d in n + 1 variables."""
    return comb(n + d, d)


def test_monomial_enumeration():
    cubics = monomials(3, 3)
    assert len(cubics) == expected_monomial_count(3, 3) == 20
    assert cubics[0] == (3, 0, 0, 0)
    assert cubics[-1] == (0, 0, 0, 3)
    assert all(sum(m) == 3 for m in cubics)
    assert list(cubics) == sorted(cubics, reverse=True)
    assert len(monomials(2, 4)) == expected_monomial_count(2, 4) == 15
    with pytest.raises(UnsupportedError):
        monomials(0, 3)


def monomials_oracle(n: int, d: int):
    """Filter all (d + 1)^(n + 1) exponent tuples by degree, then sort."""
    return tuple(
        sorted(
            (e for e in itertools.product(range(d + 1), repeat=n + 1) if sum(e) == d),
            reverse=True,
        )
    )


@pytest.mark.parametrize("n, d", [(1, 1), (1, 4), (2, 3), (3, 3), (4, 2), (5, 2), (2, 6)])
def test_monomials_match_filter_oracle(n, d):
    assert monomials(n, d) == monomials_oracle(n, d)


def monomial_weight(m, r) -> int:
    """<m, r> = sum of exponent times weight."""
    return sum(e * w for e, w in zip(m, r, strict=True))


def test_is_weight_vector():
    assert is_weight_vector((1, 0, 0, -1))
    assert is_weight_vector((3, 1, -1, -3))
    assert is_weight_vector((1, 1, -2))
    assert not is_weight_vector((0, 0, 0, 0))  # zero
    assert not is_weight_vector((1, -1, 0, 0))  # not descending
    assert not is_weight_vector((1, 2, -3))  # not descending, though r_0 >= r_2
    assert not is_weight_vector((2, 0, 0, -2))  # not primitive
    assert not is_weight_vector((1, 1, -1))  # sum nonzero
    assert not is_weight_vector((1,))


def test_candidate_weights_shape():
    probes = candidate_weights(3, 3)
    assert all(is_weight_vector(r) and len(r) == 4 for r in probes)
    assert list(probes) == sorted(probes)
    assert len(set(probes)) == len(probes)
    # the classical diagonal probes all appear
    for r in ((1, 0, 0, -1), (1, 1, -1, -1), (3, 1, -1, -3), (1, 1, 1, -3)):
        assert r in probes
    assert candidate_weights(3, 3) is candidate_weights(3, 3)  # cached


def test_candidate_weights_line_case():
    assert candidate_weights(1, 1) == ((1, -1),)
    assert candidate_weights(1, 3) == ((1, -1),)


@pytest.mark.parametrize(
    "n, d", [(1, 1), (1, 3), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4)]
)
def test_candidate_weights_match_system_oracle(n, d):
    assert candidate_weights(n, d) == kernel_probes(n, d)


@pytest.mark.parametrize(
    "n, d, fewer",
    [(2, 3, 2), (2, 4, 2), (2, 5, 2), (2, 6, 2), (3, 2, 4), (3, 3, 5), (3, 4, 5), (4, 2, 5),
     (3, 5, 5)],
)
def test_candidate_weights_match_unpruned_walk(monkeypatch, n, d, fewer):
    """The same probes, and the pruning at work: the walk inside the
    descending cone, cutting only where a probe can lie, makes fewer than
    1/fewer of the cuts that the unpruned walk counts for itself ((3, 3)
    makes 174 cuts against 1,525, (4, 2) 457 against 10,840)."""
    calls = []
    cut = gitwalls._cut
    monkeypatch.setattr(gitwalls, "_cut", lambda *args: calls.append(args) or cut(*args))
    candidate_weights.cache_clear()
    probes, unpruned_cuts = unpruned_probes(n, d)
    assert candidate_weights(n, d) == probes
    assert 0 < fewer * len(calls) < unpruned_cuts


def test_candidate_weights_walk_ends_in_n_rounds(monkeypatch):
    """Each kept cut lowers dim span(K), from n at the descending cone to 1
    at a probe, so a cone still open after n rounds is a fault, refused at
    once: a cut that returns its cone would otherwise walk for ever."""
    monkeypatch.setattr(gitwalls, "_cut", lambda gens, vals, masks: gens)
    want = r"^the cone walk of \(3, 3\) is not done after 3 rounds$"
    candidate_weights.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match=want):
            candidate_weights(3, 3)
    finally:
        candidate_weights.cache_clear()


def test_candidate_weights_counts_past_the_oracle():
    assert len(candidate_weights(4, 2)) == 42
    assert len(candidate_weights(3, 5)) == 693


def test_probes_closed_under_reversal():
    """sigma(r) = -(r_n, ..., r_0) keeps the descending cone and maps the
    direction arrangement to itself (<m, sigma(r)> = -<m reversed, r>), so
    it permutes the probes; a walk over half the cone, r_0 + r_n >= 0, and
    its mirror image would find them all."""
    configs = [(n, d) for n in (1, 2, 3) for d in range(1, 6)] + [(4, 2)]
    broken = []
    for n, d in configs:
        probes = set(candidate_weights(n, d))
        if {tuple(-v for v in reversed(r)) for r in probes} != probes:
            broken.append((n, d))
    assert broken == []
    ends = Counter((r[0] + r[-1] > 0) - (r[0] + r[-1] < 0) for r in candidate_weights(3, 5))
    assert ends == {1: 341, 0: 11, -1: 341}


def test_candidate_weights_bound(monkeypatch):
    """monomials counts its monomials before it builds any, and candidate_weights
    and compute_walls refuse through it: building the 184,756 of (10, 10) only
    to refuse would peak at about 38 MB traced."""
    with pytest.raises(UnsupportedError, match=r"^\(4, 4\) has 70 monomials, above the bound 56$"):
        candidate_weights(4, 4)
    with pytest.raises(UnsupportedError, match=r"^\(10, 10\) has 184756 monomials, above"):
        compute_walls(10, 10, exploratory=True)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedError, match=r"^\(10, 10\) has 184756 monomials, above"):
            monomials(10, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # the bound is read on each call: (3, 3) has 20 monomials
    monkeypatch.setattr(gitwalls, "MAX_MONOMIALS", 19)
    candidate_weights.cache_clear()
    with pytest.raises(UnsupportedError, match=r"^\(3, 3\) has 20 monomials, above the bound 19$"):
        candidate_weights(3, 3)


def cones_by_rank(monkeypatch):
    """Wrap `_cut` so that each call is counted and each cone it makes is
    recorded; returns the calls and a function giving the list of the
    distinct cones made at each rank, one step of the walk.  A rank cuts
    each cone of more than one generator that the rank before made, all
    its cuts in one run of calls, and cuts each of them at least once, so
    the runs, told apart by the cone object, count off where a rank ends."""
    calls, ranks, cone, left = [], [], None, 0
    cut = gitwalls._cut

    def counting(gens, vals, masks):
        nonlocal cone, left
        calls.append(vals)
        if gens is not cone:
            cone = gens
            if not left:
                left = sum(len(c) > 1 for c in ranks[-1]) if ranks else 1
                ranks.append(set())
            left -= 1
        ranks[-1].add(child := cut(gens, vals, masks))
        return child

    monkeypatch.setattr(gitwalls, "_cut", counting)
    candidate_weights.cache_clear()
    return calls, lambda: [len(made) for made in ranks]


@pytest.mark.parametrize("n, d, ranks, cuts", [
    (3, 3, [23, 49], 174),
    (4, 2, [19, 74, 42], 457),
    (5, 2, [40, 404, 992, 411], 9658),
])
def test_candidate_weights_flats_and_cuts_are_exact(monkeypatch, n, d, ranks, cuts):
    """The walk cuts only where a probe can lie, by two-signed directions
    and by ties vanishing on some generators and not all: the distinct
    cones of each rank and the `_cut` calls, pinned at that rule's numbers."""
    calls, made = cones_by_rank(monkeypatch)
    assert len(candidate_weights(n, d)) == ranks[-1]
    assert made() == ranks
    assert len(calls) == cuts


@pytest.mark.parametrize("n, d, count", [(4, 2, 131), (5, 2, 1819)])
def test_cut_keys_a_cone_by_its_extreme_generators(monkeypatch, n, d, count):
    """Each cone is the part of its span inside the descending cone, so a
    span has one cone; the walk, which keys a cone by its generators, makes
    one generator set per span, as it does only when `_cut` keeps exactly
    the extreme ones.  Spans are keyed by the tests' own echelon basis."""
    made = []
    cut = gitwalls._cut
    monkeypatch.setattr(gitwalls, "_cut", lambda *args: made.append(cut(*args)) or made[-1])
    candidate_weights.cache_clear()
    candidate_weights(n, d)
    cones = set(made)
    assert len({echelon_key(gens) for gens in cones}) == len(cones) == count


@pytest.mark.parametrize("n, d", [(1, 1), (1, 4), (2, 1), (2, 3), (3, 3), (4, 2), (5, 2), (3, 5)])
def test_every_tie_is_a_monomial_difference(n, d):
    """The walk's ties e_i - e_{i+1} are among the directions, each as
    x_i x_0^(d-1) - x_{i+1} x_0^(d-1), so no second list adds them."""
    dirs = set(_equation_directions(n, d))
    for i in range(n):
        assert tuple(int(k == i) - (k == i + 1) for k in range(n + 1)) in dirs


@pytest.mark.parametrize("n, d, ranks, cuts", [
    (6, 2, [76, 1673, 10_001], 22_664),
    (7, 2, [133, 5636, 10_001], 22_746),
    (9, 2, [339, 10_001], 11_073),
    (5, 3, [250, 10_001], 13_803),
])
def test_candidate_weights_refuses_past_max_flats(monkeypatch, n, d, ranks, cuts):
    """Past the shipped configurations the walk is refused as it makes cone
    10,001 of a rank.  The cones of each rank and the `_cut` calls made
    before the refusal are pinned, since they set its cost."""
    calls, made = cones_by_rank(monkeypatch)
    with pytest.raises(BoundExceededError, match=rf"^\({n}, {d}\) has more than 10000 flats at a rank$"):
        candidate_weights(n, d)
    assert made() == ranks
    assert len(calls) == cuts


def test_candidate_weights_flat_bound(monkeypatch):
    """A rank's cones are counted as they are made: (4, 2) holds 19, 74 and
    then 42 cones, so MAX_FLATS = 74 passes it and 73 refuses it partway
    through its second rank."""
    calls, _ = cones_by_rank(monkeypatch)
    monkeypatch.setattr(gitwalls, "MAX_FLATS", 74)  # the bound itself passes
    assert len(candidate_weights(4, 2)) == 42
    full = len(calls)
    calls.clear()
    monkeypatch.setattr(gitwalls, "MAX_FLATS", 73)
    candidate_weights.cache_clear()
    with pytest.raises(BoundExceededError, match=r"^\(4, 2\) has more than 73 flats at a rank$"):
        candidate_weights(4, 2)
    assert 0 < len(calls) < full


@pytest.mark.parametrize("n, d", [(9, 2), (5, 3)])
def test_candidate_weights_refuses_before_building_an_over_bound_rank(monkeypatch, n, d):
    """The bound is met while the rank is made, not after: (9, 2) and (5, 3)
    are refused within 2,000 cuts at MAX_FLATS = 1,000, while finishing the
    first over-bound rank takes more than 100,000."""
    calls = []
    cut = gitwalls._cut

    def bounded(*args):
        calls.append(args)
        if len(calls) > 3000:
            raise AssertionError("cut past the first over-bound flat")
        return cut(*args)

    monkeypatch.setattr(gitwalls, "_cut", bounded)
    monkeypatch.setattr(gitwalls, "MAX_FLATS", 1000)
    candidate_weights.cache_clear()
    with pytest.raises(BoundExceededError, match=rf"^\({n}, {d}\) has more than 1000 flats"):
        candidate_weights(n, d)


def exhaustive_weights(n: int, bound: int):
    """Every normalized weight vector with all |r_i| <= bound, for the
    refinement robustness check; grows fast with n and bound."""

    def rec(prefix: list[int], remaining: int) -> None:
        if remaining == 0:
            if sum(prefix) == 0 and any(prefix) and gcd(*prefix) == 1:
                out.add(tuple(prefix))
            return
        hi = prefix[-1] if prefix else bound
        # the remaining entries cannot push the sum back to zero otherwise
        for v in range(hi, -bound - 1, -1):
            s = sum(prefix) + v
            if s + (remaining - 1) * (-bound) > 0:
                continue
            if s + (remaining - 1) * v < 0:
                break
            prefix.append(v)
            rec(prefix, remaining - 1)
            prefix.pop()

    out: set = set()
    rec([], n + 1)
    return tuple(sorted(out))


def test_exhaustive_weights_small():
    assert exhaustive_weights(1, 3) == ((1, -1),)
    two = exhaustive_weights(2, 2)
    assert two == ((1, 0, -1), (1, 1, -2), (2, -1, -1))
    for bound in (1, 2, 3):
        for r in exhaustive_weights(2, bound):
            assert is_weight_vector(r)
            assert max(abs(v) for v in r) <= bound


def test_max_destabilized_support_matches_direct_oracle():
    # M+(r, t, j) = {m : <m, r> + t * r_j > 0} as bits, straight from the
    # definition with a Fraction comparison.  At a candidate itself some
    # <m, r> + t * r_j is exactly 0, so the strict inequality decides
    # membership; between candidates it never is.
    mons = monomials(3, 3)
    cands = candidate_twalls(3, 3)
    bounds = [F(0), *cands, F(1)]
    slopes = [*cands, *((a + b) / 2 for a, b in zip(bounds, bounds[1:]))]
    for r in candidate_weights(3, 3):
        wvec = tuple(monomial_weight(m, r) for m in mons)
        for j in range(4):
            for t in slopes:
                floor = -t * r[j]  # m is in M+ iff <m, r> > floor
                want = sum(1 << i for i, w in enumerate(wvec) if floor < w)
                assert stability_mask(wvec, r[j], t) == want


def test_max_destabilized_support_examples():
    mons = monomials(3, 3)
    bit = {m: 1 << i for i, m in enumerate(mons)}
    r = (1, 0, 0, -1)
    wvec = tuple(monomial_weight(m, r) for m in mons)
    support = stability_mask(wvec, r[3], F(1))
    assert support & bit[(3, 0, 0, 0)]  # weight 3, shift -1
    assert not support & bit[(2, 0, 0, 1)]  # weight 1, 1 + 1*(-1) = 0, not > 0
    # t = 0 reduces to the plain positive-weight test, independent of j
    positive = sum(bit[m] for m in mons if monomial_weight(m, r) > 0)
    assert all(stability_mask(wvec, r[j], F(0)) == positive for j in range(4))
    r = (3, 1, -1, -3)
    wvec = tuple(monomial_weight(m, r) for m in mons)
    support = stability_mask(wvec, r[0], F(1, 5))
    assert not support & bit[(0, 1, 2, 0)]  # -1 + 3/5 <= 0
    assert support & bit[(1, 1, 1, 0)]  # weight 3, 3 + 3/5 > 0


def test_candidate_values():
    cands = candidate_twalls(3, 3)
    assert all(0 < t < 1 for t in cands)
    assert list(cands) == sorted(set(cands))
    assert set(DEGREE3_WALLS) <= set(cands)
    # the 1/3 candidate comes from r=(3,1,-1,-3), m=x1x2^2, j=0: -(-1)/3
    report = wall_report(3, 3)
    witnesses = report["witnesses"]["1/3"]
    assert {"r": [3, 1, -1, -3], "m": [0, 1, 2, 0], "j": 0} in witnesses


def test_compute_walls_degree3():
    ws = compute_walls(3, 3)
    assert ws.walls == DEGREE3_WALLS


def test_walls_match_registry(registry):
    assert compute_walls(3, 3) == registry["dp3"].walls("t")


def test_walls_are_candidates_where_family_jumps():
    search = _Search(3, 3)
    cands = list(candidate_twalls(3, 3))
    walls = set(compute_walls(3, 3))
    bounds = [F(0), *cands, F(1)]
    for i, t in enumerate(cands):
        below = (bounds[i] + t) / 2
        above = (t + bounds[i + 2]) / 2
        jumped = fingerprint(search, below) != fingerprint(search, above)
        assert jumped == (t in walls)


def test_family_jumps_across_first_wall():
    search = _Search(3, 3)
    cands = list(candidate_twalls(3, 3))
    i = bisect_left(cands, F(1, 5))
    assert cands[i] == F(1, 5)
    prev = F(0) if i == 0 else cands[i - 1]
    nxt = cands[i + 1]
    below = fingerprint(search, (prev + F(1, 5)) / 2)
    above = fingerprint(search, (F(1, 5) + nxt) / 2)
    assert below != above


def test_family_differs_across_one_fifth():
    search = _Search(3, 3)
    assert fingerprint(search, F(1, 4)) != fingerprint(search, F(1, 5) - F(1, 100))


def test_family_locally_constant_between_candidates():
    search = _Search(3, 3)
    bounds = [F(0), *candidate_twalls(3, 3), F(1)]
    for a, b in zip(bounds, bounds[1:]):
        families = {fingerprint(search, a + (b - a) * k / 4) for k in (1, 2, 3)}
        assert len(families) == 1


def test_family_constant_inside_chamber():
    # (1/3, 3/7) is a chamber of the degree-3 wall set; sample points that
    # avoid all intermediate candidate values must give identical families
    search = _Search(3, 3)
    cands = set(candidate_twalls(3, 3))
    samples = [F(5, 14), F(8, 21), F(17, 42)]
    assert all(F(1, 3) < s < F(3, 7) and s not in cands for s in samples)
    assert len({fingerprint(search, s) for s in samples}) == 1


def test_family_members_are_a_maximal_antichain():
    # a member (mask, j) is a support bitmask and the largest variable index
    # allowed in the hyperplane
    family = fingerprint(_Search(3, 3), F(1, 2))
    assert family
    for mask, j in family:
        assert 0 < mask < 1 << 20
        assert 0 <= j <= 3
    for a in family:
        for b in family:
            if a != b:
                assert not (a[0] & ~b[0] == 0 and a[1] <= b[1])


def test_family_at_small_t_matches_limit_construction():
    # t -> 0+ limit: m survives iff <m, r> > 0, or <m, r> = 0 and r_j > 0
    mons = monomials(3, 3)
    best: dict[int, int] = {}
    for r in candidate_weights(3, 3):
        for j in range(4):
            support = sum(
                1 << i
                for i, m in enumerate(mons)
                if monomial_weight(m, r) > 0
                or (monomial_weight(m, r) == 0 and r[j] > 0)
            )
            if support and best.get(support, -1) < j:
                best[support] = j
    expected = {
        (s, j)
        for s, j in best.items()
        if not any(s != s2 and s & ~s2 == 0 and j <= j2 for s2, j2 in best.items())
    }
    t0 = min(candidate_twalls(3, 3)) / 2
    assert fingerprint(_Search(3, 3), t0) == expected


def refine_probes(monkeypatch, n, d, extra):
    """Make the search read candidate_weights(n, d) together with `extra`."""
    probes = tuple(sorted({*candidate_weights(n, d), *extra}))
    monkeypatch.setattr(gitwalls, "candidate_weights", lambda *nd: probes)


def test_walls_stable_under_exhaustive_refinement(monkeypatch):
    extra = exhaustive_weights(3, 9)
    assert all(is_weight_vector(r) and len(r) == 4 for r in extra)
    assert set(extra) - set(candidate_weights(3, 3))  # genuinely new probes
    refine_probes(monkeypatch, 3, 3, extra)
    assert compute_walls(3, 3).walls == DEGREE3_WALLS


def test_compute_walls_rejects_unsupported_targets():
    with pytest.raises(UnsupportedError):
        compute_walls(2, 2)
    with pytest.raises(UnsupportedError):
        compute_walls(1, 1)
    with pytest.raises(UnsupportedError):
        wall_report(2, 2)


def test_exploratory_mode_runs_small_cases():
    line = compute_walls(1, 1, exploratory=True)
    assert line.walls == ()  # no candidate slope lands inside (0, 1)
    conic = compute_walls(2, 2, exploratory=True)
    assert all(0 < w < 1 for w in conic.walls)


def test_wall_report_shape():
    report = wall_report(3, 3)
    assert report["walls"] == ["1/5", "1/3", "3/7", "5/9", "9/13"]
    assert set(report["witnesses"]) == set(report["walls"])
    assert set(report["walls"]) <= set(report["candidates"])
    for t_str, witnesses in report["witnesses"].items():
        assert witnesses
        num, _, den = t_str.partition("/")
        t = F(int(num), int(den or 1))
        for w in witnesses:
            r, m, j = tuple(w["r"]), tuple(w["m"]), w["j"]
            assert is_weight_vector(r)
            assert m in monomials(3, 3)
            assert r[j] != 0
            assert F(-monomial_weight(m, r), r[j]) == t
    assert json.dumps(report)  # JSON-serializable
    assert wall_report(3, 3) == wall_report(3, 3)  # deterministic


@pytest.mark.parametrize("n, d", [(3, 3), (3, 4), (4, 2), (2, 6)])
def test_wall_witnesses_are_complete(n, d):
    """Each wall's witnesses are, in order, every triple (r, m, j) of a probe
    r, a monomial m and r_j != 0 with -<m, r>/r_j equal to the wall."""
    brute: dict[Fraction, list] = {}
    for r in candidate_weights(n, d):
        for m in monomials(n, d):
            for j, rj in enumerate(r):
                if rj:
                    brute.setdefault(F(-monomial_weight(m, r), rj), []).append((r, m, j))
    report = wall_report(n, d, exploratory=True)
    assert report["walls"]
    for t in report["walls"]:
        want = [{"r": list(r), "m": list(m), "j": j} for r, m, j in sorted(brute[F(t)])]
        assert report["witnesses"][t] == want


ATLAS = ["2,3", "2,4", "2,5", "2,6", "3,2", "3,4", "4,2"]


@pytest.mark.parametrize("config", ATLAS)
def test_exploratory_atlas_matches_golden(data_dir, config):
    atlas = json.loads((data_dir / "git_atlas.json").read_text())
    n, d = map(int, config.split(","))
    # dumps compares key and witness order too, not only dict equality
    assert json.dumps(wall_report(n, d, exploratory=True)) == json.dumps(atlas[config])


def midpoint_samples(search):
    """The oracle: fingerprint recomputed anew in every chamber."""
    bounds = [F(0), *sorted(search.candidates()), F(1)]
    return [fingerprint(search, (a + b) / 2) for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("config", ATLAS)
def test_sweep_samples_match_fingerprint(config):
    n, d = map(int, config.split(","))
    search = _Search(n, d)
    cuts = sorted(search.candidates())
    assert search._chamber_samples(cuts) == midpoint_samples(search)


def test_zero_weight_thresholds_change_no_chamber_family():
    """The docstring's open question, measured: in no chamber of these
    configurations does a profile with r_j = 0 change the family.  Each
    chamber's family is recomputed at its midpoint by the stability test,
    once from every profile and once without those."""
    chambers = 0
    for n, d in [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (4, 2)]:
        search = _Search(n, d)
        bounds = [F(0), *search.candidates(), F(1)]
        for a, b in zip(bounds, bounds[1:]):
            masks = [(stability_mask(wvec, rj, (a + b) / 2), j, rj)
                     for wvec, rj, j in search.profiles]
            assert maximal_family((m, j) for m, j, _ in masks) == maximal_family(
                (m, j) for m, j, rj in masks if rj), (n, d, a, b)
            chambers += 1
    assert chambers == 106


def test_sweep_samples_match_fingerprint_with_exhaustive_probes(monkeypatch):
    refine_probes(monkeypatch, 3, 3, exhaustive_weights(3, 9))
    search = _Search(3, 3)
    cuts = sorted(search.candidates())
    assert search._chamber_samples(cuts) == midpoint_samples(search)


def test_antichain_counts_copies_and_reoffers_what_it_dominated():
    family = _Antichain([(0b011, 1), (0b011, 1), (0b001, 2), (0b001, 0), (0, 3)])
    assert family.members == {(0b011, 1), (0b001, 2)}
    family.remove((0b011, 1))  # a second profile still holds it
    assert family.members == {(0b011, 1), (0b001, 2)}
    family.add((0b111, 2))
    assert family.members == {(0b111, 2)}
    family.remove((0b111, 2))  # what it evicted comes back
    assert family.members == {(0b011, 1), (0b001, 2)}
    family.remove((0b011, 1))
    family.remove((0b001, 2))
    assert family.members == {(0b001, 0)}
    family.remove((0b001, 0))
    assert family.members == set() and family.count == {(0, 3): 1}  # mask 0 never joins
    family.add((0, 2))
    assert family.members == set()


PAIRS = st.tuples(st.integers(0, 7), st.integers(0, 2))  # 3-bit masks, mask 0 included


@settings(max_examples=100)
@given(
    st.lists(PAIRS, max_size=10),
    st.lists(st.lists(st.tuples(st.booleans(), PAIRS, st.integers(0, 99)), max_size=6),
             max_size=8),
)
@example([(0b011, 1), (0b011, 1), (0b001, 0)], [[(False, (0, 0), 0)], [(False, (0, 0), 0)]])
@example([(0b111, 2), (0b011, 1), (0b001, 2), (0, 1)], [[(False, (0, 0), 0)]])
def test_antichain_matches_maximal_after_every_batch(initial, batches):
    """Each operation adds `pair` or deletes the `index`-th present pair;
    the batch then compares the family with maximal_family of what is present."""
    family = _Antichain(initial)
    present = list(initial)
    for batch in batches:
        for insert, pair, index in batch:
            if insert:
                family.add(pair)
                present.append(pair)
            elif present:
                family.remove(present.pop(index % len(present)))
        assert family.members == maximal_family(present)
        assert family.count == Counter(present)


@pytest.mark.parametrize("n, d, count", [(3, 3, 196), (4, 2, 210)])
def test_profiles_are_the_raw_table(n, d, count):
    """One profile (<m, r> per monomial, r_j, j) per probe r and index j, in
    probe order: profiles equal up to scale are not merged (a merge would
    leave 181 and 174)."""
    mons = monomials(n, d)
    expected = tuple((tuple(monomial_weight(m, r) for m in mons), r[j], j)
                     for r in candidate_weights(n, d) for j in range(n + 1))
    assert len(expected) == count
    assert _Search(n, d).profiles == expected


def test_sweep_without_candidates_samples_one_chamber():
    search = _Search(1, 1)
    assert search.candidates() == []
    assert search._chamber_samples([]) == [fingerprint(search, F(1, 2))]


def assert_digest_golden(report, golden):
    """The golden keeps a report's walls and candidates, the witness count
    per wall, and the SHA-256 of the whole report's json.dumps, so witness
    content and order count too."""
    assert report["walls"] == golden["walls"]
    assert report["candidates"] == golden["candidates"]
    counts = {t: len(w) for t, w in report["witnesses"].items()}
    assert counts == golden["witness_counts"]
    digest = hashlib.sha256(json.dumps(report).encode()).hexdigest()
    assert digest == golden["report_sha256"]
    return counts


def test_wall_report_3_5_matches_golden(data_dir):
    """The (3, 5) report is 450 KB."""
    golden = json.loads((data_dir / "git_walls_3_5.json").read_text())
    report = wall_report(3, 5, exploratory=True)
    assert len(report["walls"]) == 49 and len(report["candidates"]) == 338
    assert sum(assert_digest_golden(report, golden).values()) == 8582


def test_wall_report_4_3_matches_golden(data_dir):
    """(4, 3) has 1,885 probes; its golden comes from the unpruned probe walk
    and the rebuild-per-chamber sweep, which took about 12 s for it."""
    golden = json.loads((data_dir / "git_walls_4_3.json").read_text())
    report = wall_report(4, 3, exploratory=True)
    assert len(candidate_weights(4, 3)) == 1885
    assert len(report["walls"]) == 15 and len(report["candidates"]) == 509
    assert sum(assert_digest_golden(report, golden).values()) == 17396


def test_wall_report_5_2_matches_golden(data_dir):
    """(5, 2) has 411 probes; its golden comes from the walk that cut each
    flat by every direction not strictly one-signed on its generators."""
    golden = json.loads((data_dir / "git_walls_5_2.json").read_text())
    report = wall_report(5, 2, exploratory=True)
    assert len(candidate_weights(5, 2)) == 411
    assert report["walls"] == ["2/5"] and len(report["candidates"]) == 190
    assert sum(assert_digest_golden(report, golden).values()) == 874


@cache
def weight_table(n: int, d: int):
    """Each probe rho with its weight <m, rho> for each monomial m."""
    mons = monomials_oracle(n, d)
    return [(rho, dict(zip(mons, (monomial_weight(m, rho) for m in mons))))
            for rho in candidate_weights(n, d)]


@settings(max_examples=300)
@given(st.sampled_from([(3, 3), (4, 2), (3, 4)]), st.data())
def test_probes_dominate_every_destabilized_support(nd, data):
    """The completeness lemma of the module docstring: for integer r in the
    descending cone, t = k/1000 and j, some probe rho has M+(rho, t, j)
    containing M+(r, t, j), both computed here from the definition
    {m : <m, r> + t * r_j > 0} by Fraction arithmetic."""
    n, d = nd
    head = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    assume(abs(sum(head)) <= 50)
    r = sorted([*head, -sum(head)], reverse=True)
    t = F(data.draw(st.integers(1, 999)), 1000)
    j = data.draw(st.integers(0, n))
    support = [m for m in monomials_oracle(n, d) if monomial_weight(m, r) + t * r[j] > 0]
    assert any(all(weights[m] + t * rho[j] > 0 for m in support)
               for rho, weights in weight_table(n, d))
