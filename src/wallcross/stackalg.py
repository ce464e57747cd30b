"""Symbolic moduli descriptors for products, with finite groupoid models.

A product of registered families has a moduli descriptor fixed by one
(representative id, power) group per iso class of its factors (the
iso-relation is caller-supplied; an empty one is id equality): a class met
s times contributes the symmetric quotient [M^s / S_s], a bare atom when
s = 1, point-moduli factors drop out entirely, and the groups multiply.  The
caller passes the point ids of its own registry, so this module loads none.
The class representative is the lexicographically least id of its class, a
naming convention only.

Two-slot products are classified by the map to the product of the factor
moduli: an isomorphism when the slots are non-isomorphic, and an S2-gerbe
over the symmetric quotient when they coincide (the same structure is
sometimes called an S2-torsor; this module reports "s2-gerbe").

The quotient-stack identities behind the algebra are modelled at finite
scale by permutation groupoids [X/G], each count by its closed form: the
stabilizer order |G|/|orbit|, the groupoid cardinality sum(1/|stab|) over
orbits, which is |X|/|G|, and C(N + k - 1, k) multisets in the symmetric
k-fold quotient of N orbits.  Orbits of a product action are pairs of
orbits, so stabilizers multiply.  A model memoizes its group (the generator
closure, refused as it is built past MAX_GROUP_ORDER elements), orbit
partition and orbit space on itself, outside the value fields, each once.
"""

from __future__ import annotations

import enum
import itertools
from fractions import Fraction
from math import comb

from .errors import BoundExceededError, ConsistencyError
from .exactq import Value

# Generator closure refuses groups larger than this, and product_model
# refuses a product of larger order before taking any closure.
MAX_GROUP_ORDER = 100_000
# product_model refuses a product carrier of more points than this before
# building any pair.
MAX_CARRIER = 100_000


# -- descriptors -------------------------------------------------------------


class Descriptor(Value):
    """The moduli of a product as (representative id, power) groups: atoms
    (power 1) first, then symmetric quotients [M^s/S_s], each kind by id.
    No groups is a point, one group is a bare node, and more are a product."""

    def __init__(self, groups: tuple[tuple[str, int], ...]) -> None:
        self.__dict__.update(groups=groups)

    def __str__(self) -> str:
        if not self.groups:
            return "pt"
        return " x ".join(r if s == 1 else f"[{r}^{s}/S{s}]" for r, s in self.groups)

    def to_json(self) -> dict:
        nodes = [
            {"kind": "atom", "id": r} if s == 1
            else {"kind": "sym", "base": {"kind": "atom", "id": r}, "power": s}
            for r, s in self.groups
        ]
        if len(nodes) == 1:
            return nodes[0]
        return {"kind": "product", "children": nodes} if nodes else {"kind": "point"}


# -- canonicalization ---------------------------------------------------------


def _grouped(factors, iso, drop=frozenset()) -> list[list]:
    """[least present id, total multiplicity] per iso class, in
    representative order.  factors maps str id -> multiplicity or lists ids;
    iso lists the asserted classes (ids in none form singletons); ids in
    drop count as absent."""
    counts: dict[str, int] = {}
    pairs = factors.items() if isinstance(factors, dict) else zip(factors, itertools.repeat(1))
    for fid, mult in pairs:
        if not isinstance(fid, str):  # 1 and "1" would sort and print as one id
            raise ValueError(f"factor id {fid!r} is not a str")
        if type(mult) is not int or mult < 1:  # bools and 1.5 are not multiplicities
            need = ">= 1" if type(mult) is int else "an int"
            raise ValueError(f"multiplicity of {fid} must be {need}, got {mult!r}")
        counts[fid] = counts.get(fid, 0) + mult
    class_of: dict[str, frozenset[str]] = {}
    for cls in iso:
        if isinstance(cls, str):  # frozenset("ab") would read "a" and "b" as ids
            raise ValueError(f"iso class {cls!r} is a str, not a collection of ids")
        if len(cls := frozenset(cls)) >= 2:
            if not class_of.keys().isdisjoint(cls):
                raise ValueError("iso classes must be disjoint")
            class_of.update(dict.fromkeys(cls, cls))
    # a class is first met at its least present id, its representative
    groups: dict = {}
    for fid in sorted(counts):
        if fid not in drop:
            groups.setdefault(class_of.get(fid, fid), [fid, 0])[1] += counts[fid]
    return list(groups.values())


def point_ids(registry) -> frozenset[str]:
    """Ids whose moduli is a single point in a loaded registry."""
    return frozenset(fid for fid, rec in registry.items() if rec.is_point)


def canonicalize(factors, iso, point_ids: frozenset[str]) -> Descriptor:
    """Canonical descriptor of a product of factors.

    The caller passes the point ids of its registry (see point_ids); those
    factors are elided.  Each iso class contributes its representative with
    the class multiplicity as its power.  Idempotent and invariant under
    permutation of the input.
    """
    groups = _grouped(factors, iso, point_ids)  # [id, power] in id order
    return Descriptor(tuple([(r, 1) for r, s in groups if s == 1]  # atoms first
                            + [(r, s) for r, s in groups if s > 1]))


class MapKind(enum.Enum):
    """Classification of the two-slot product map."""

    ISOMORPHISM = "isomorphism"
    S2_GERBE = "s2-gerbe"


def classify_product_map(factors, iso=()) -> MapKind:
    """Classify the map from the two-slot product moduli.

    Exactly two factor slots are required (ValueError otherwise).  The map
    is an isomorphism when the slots are non-isomorphic and an S2-gerbe over
    the symmetric quotient when they are isomorphic; symmetric in the slots
    by construction.
    """
    groups = _grouped(factors, iso)
    total = sum(m for _, m in groups)
    if total != 2:
        raise ValueError(f"need exactly 2 factor slots, got {total}")
    return MapKind.S2_GERBE if len(groups) == 1 else MapKind.ISOMORPHISM


# -- finite groupoid models ---------------------------------------------------


def _closure(generators: tuple[tuple[int, ...], ...], n: int) -> frozenset[tuple[int, ...]]:
    """Generated permutation group by breadth-first products gen after g; the
    bound is checked before each new element is added."""
    identity = tuple(range(n))
    elements = {identity}
    queue = [identity]
    gets = [gen.__getitem__ for gen in generators]
    for g in queue:  # the queue grows while it is walked, as in orbit_partition
        for get in gets:
            h = tuple(map(get, g))  # (gen after g)(i) = gen[g[i]]
            if h not in elements:
                if len(elements) >= MAX_GROUP_ORDER:
                    raise BoundExceededError(
                        f"generated group exceeds order bound {MAX_GROUP_ORDER}")
                elements.add(h)
                queue.append(h)
    return frozenset(elements)


class Orbit(Value):
    """One orbit: points in carrier order, first point as representative."""

    def __init__(self, points: tuple, stabilizer_order: int) -> None:
        self.__dict__.update(points=points, stabilizer_order=stabilizer_order)

    @property
    def size(self) -> int:
        return len(self.points)


class FiniteGroupoidModel(Value):
    """A carrier of distinct points with a permutation action by generators.

    Generators are one-line arrays of int carrier indices.  The group is the
    generator closure, materialized on demand and capped by MAX_GROUP_ORDER.
    """

    __slots__ = ("_group", "_orbits", "_space")  # memos: slots, so not fields of the value

    def __init__(self, carrier: tuple, generators: tuple[tuple[int, ...], ...]) -> None:
        carrier = tuple(carrier)
        gens = tuple(map(tuple, generators))
        n = len(carrier)
        if (distinct := len(set(carrier))) < n:  # the carrier is a set of points
            raise ValueError(f"carrier of {n} points has only {distinct} distinct")
        identity = list(range(n))
        for g in gens:
            if not set(map(type, g)) <= {int} or sorted(g) != identity:  # 1.0 and True sort as 1
                raise ValueError(f"not a permutation of 0..{n - 1}: {g}")
        self.__dict__.update(carrier=carrier, generators=gens)

    def elements(self) -> frozenset[tuple[int, ...]]:
        if not hasattr(self, "_group"):  # built once; the closure checks the order bound
            object.__setattr__(self, "_group", _closure(self.generators, len(self.carrier)))
        return self._group

    def group_order(self) -> int:
        return len(self.elements())

    def orbit_partition(self) -> tuple[tuple[int, ...], ...]:
        """Orbits as sorted index tuples, by least element; generators only."""
        if not hasattr(self, "_orbits"):
            gens = self.generators
            seen = [False] * len(self.carrier)
            orbits = []
            for start in range(len(seen)):
                if seen[start]:
                    continue
                seen[start] = True
                block = [start]
                for i in block:  # the block grows while it is walked
                    for g in gens:
                        if not seen[g[i]]:
                            seen[g[i]] = True
                            block.append(g[i])
                orbits.append(tuple(sorted(block)))
            object.__setattr__(self, "_orbits", tuple(orbits))
        return self._orbits


def orbit_space(model: FiniteGroupoidModel) -> tuple[Orbit, ...]:
    """Orbits with stabilizer orders |G| / |orbit| by the orbit-stabilizer
    identity; an orbit size that does not divide |G| is a ConsistencyError."""
    if not hasattr(model, "_space"):
        order, out = model.group_order(), []
        for block in model.orbit_partition():
            stab, rem = divmod(order, len(block))
            if rem:
                raise ConsistencyError(f"orbit of size {len(block)} does not divide |G| = {order}")
            out.append(Orbit(tuple(model.carrier[i] for i in block), stab))
        object.__setattr__(model, "_space", tuple(out))
    return model._space


def product_model(a: FiniteGroupoidModel, b: FiniteGroupoidModel) -> FiniteGroupoidModel:
    """The direct product acting coordinatewise on pairs.

    The generated group is exactly G x H (order the product of the orders),
    checked against the bound before any closure of the product is taken;
    the carrier size is checked before that, and before any pair is built.
    """
    na, nb = len(a.carrier), len(b.carrier)
    if na * nb > MAX_CARRIER:
        raise BoundExceededError(f"product carrier of {na * nb} points exceeds bound {MAX_CARRIER}")
    order = a.group_order() * b.group_order()
    if order > MAX_GROUP_ORDER:
        raise BoundExceededError(f"product group order {order} exceeds bound {MAX_GROUP_ORDER}")
    carrier = tuple(itertools.product(a.carrier, b.carrier))
    starts, cols = [i * nb for i in range(na)], range(nb)  # pair (i, j) is index i * nb + j
    gens = [tuple([starts[x] + j for x in g for j in cols]) for g in a.generators]
    gens += [tuple([s + y for s in starts for y in h]) for h in b.generators]
    prod = object.__new__(FiniteGroupoidModel)  # lifts of permutations need no check
    prod.__dict__.update(carrier=carrier, generators=tuple(gens))
    return prod


def sym_quotient_model(model: FiniteGroupoidModel, k: int) -> int:
    """Number of S_k-orbits of k-tuples of G-orbits: the multisets of size k
    from N orbits, C(N + k - 1, k)."""
    if type(k) is not int or k < 1:  # bools, 2.0 and "2" are not sizes
        raise ValueError(f"k must be {'>= 1' if type(k) is int else 'an int'}, got {k!r}")
    return comb(len(model.orbit_partition()) + k - 1, k)


def groupoid_cardinality(model: FiniteGroupoidModel) -> Fraction:
    """sum over orbits of 1/|stabilizer|, which is |carrier| / |G|."""
    return Fraction(len(model.carrier), model.group_order())
