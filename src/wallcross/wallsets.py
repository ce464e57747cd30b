"""Per-family wall registries and single-interval chamber bookkeeping.

A family record carries the rational walls of a one-parameter moduli problem
on the open interval (0, 1), in two coordinate scales: the pair-coefficient
scale c and the slope scale t, linked by a fractional-linear reparametrization
t = reparam(c).  A record's t-walls are the image of its c-walls, taken or
checked by FamilyRecord.  Records also carry the numerical invariants
(dimension, anticanonical volume, Hilbert polynomial) used by the product
calculus, each checked once, by the invariants.FanoNumerics a record builds.

Walls are always stored strictly increasing and strictly inside (0, 1); the
interval endpoints are never walls.  Families without an established wall
table store None there, and operations that need walls raise
MissingDataError rather than guessing.  Walls, located points and volumes
pass through exactq.parse_rational, so a float or a bool is refused.  The
five built-in families are data in the JSON overlay format of load_registry,
decoded by the same _record_from_json as a user's overlay file.

A point of (0, 1) sits relative to a wall set at one int position, counting
left to right along the interval: chamber i, the open interval between wall
i - 1 and wall i (the interval endpoints at the extremes), is 2i, and wall i
itself is 2i + 1, walls counting from 0 in increasing order.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left
from fractions import Fraction

from .errors import MissingDataError, WallcrossError
from .exactq import MoebiusMap, Value, format_rational, parse_rational
from .invariants import FanoNumerics, consistency_check


class WallSet(Value):
    """Strictly increasing rationals in the open interval (0, 1)."""

    def __init__(self, walls: tuple[Fraction, ...]) -> None:
        walls = tuple(map(parse_rational, walls))
        for w in walls:
            if not 0 < w < 1:
                raise ValueError(f"wall {format_rational(w)} outside (0, 1)")
        if any(a >= b for a, b in zip(walls, walls[1:])):
            shown = " ".join(map(format_rational, walls))
            raise ValueError(f"walls not strictly increasing: {shown}")
        self.__dict__.update(walls=walls)

    def __len__(self) -> int:
        return len(self.walls)

    def __iter__(self):
        return iter(self.walls)

    def chambers(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(lower, upper) of the len(walls) + 1 open chambers tiling (0, 1)."""
        bounds = (Fraction(0), *self.walls, Fraction(1))
        return tuple(zip(bounds, bounds[1:]))

    def locate(self, x) -> int:
        """Position of x, which must lie strictly inside (0, 1)."""
        x = parse_rational(x)
        if not 0 < x < 1:
            raise ValueError(f"{format_rational(x)} outside the open interval (0, 1)")
        i = bisect_left(self.walls, x)
        return 2 * i + (i < len(self.walls) and self.walls[i] == x)

    def map(self, m: MoebiusMap) -> "WallSet":
        """Elementwise image; construction re-checks order and range."""
        return WallSet(tuple(m(w) for w in self.walls))

    def to_json(self) -> list[str]:
        return [format_rational(w) for w in self.walls]

    def __str__(self) -> str:
        return " ".join(format_rational(w) for w in self.walls)


class FamilyRecord(Value):
    """Wall tables and numerical invariants for one registered family.

    Invariants, enforced at construction:
      * hilbert(0) = 1 and dimension! * lead(hilbert) = volume;
      * when c_walls and reparam are present, t_walls is their image: taken
        when no t_walls is given, compared wall by wall otherwise.
    """

    __slots__ = ("_numerics",)  # built at construction: a slot, so not a field of the value

    def __init__(
        self,
        id: str,
        dimension: int,
        volume: Fraction,
        moduli_note: str,
        hilbert: tuple[Fraction, ...],
        c_walls: WallSet | None = None,
        t_walls: WallSet | None = None,
        reparam: MoebiusMap | None = None,
    ) -> None:
        numerics = FanoNumerics(dimension, volume, hilbert)  # the one check of each numeric fact
        image = None if c_walls is None or reparam is None else c_walls.map(reparam)
        self.__dict__.update(
            id=id, dimension=numerics.dimension, volume=numerics.volume, moduli_note=moduli_note,
            hilbert=numerics.hilbert, c_walls=c_walls,
            t_walls=image if t_walls is None else t_walls, reparam=reparam,
        )
        if not id:
            raise ValueError("empty family id")
        if problems := consistency_check(numerics):
            raise ValueError("; ".join(problems))
        if image is not None and image != self.t_walls:
            raise ValueError(f"reparam image {image} != t_walls {self.t_walls}")
        object.__setattr__(self, "_numerics", numerics)

    @property
    def is_point(self) -> bool:
        """True when the family's moduli is a single reduced point."""
        return self.moduli_note == "point"

    def numerics(self) -> FanoNumerics:
        """The FanoNumerics built and checked at construction."""
        return self._numerics

    def walls(self, space: str) -> WallSet:
        """The wall set in scale "c" or "t"; MissingDataError when absent."""
        if space not in ("c", "t"):
            raise ValueError(f"unknown wall space {space!r}")
        ws = self.c_walls if space == "c" else self.t_walls
        if ws is None:
            raise MissingDataError(f"family {self.id} has no registered {space}-walls")
        return ws


# The built-in families, in the overlay format that load_registry decodes.
# Hilbert polynomials: chi(m) = 1 + d*m(m+1)/2 for a degree-d del Pezzo
# surface, chi(m) = 2m + 1 for the line; constant-first coefficients.
_BUILTIN = {
    "dp1": {
        "dimension": 2, "volume": 1, "hilbert": ["1", "1/2", "1/2"],
        "moduli_note": "degree-1 del Pezzo pairs; no explicit global description registered",
    },
    "dp2": {
        "dimension": 2, "volume": 2, "hilbert": ["1", "1", "1"],
        "moduli_note": "Kirwan blow-up of the plane-quartic GIT quotient "
                       "at the double-conic point",
    },
    "dp3": {
        "dimension": 2, "volume": 3, "hilbert": ["1", "3/2", "3/2"],
        "moduli_note": "weighted projective space P(1,2,3,4,5) (cubic-surface GIT)",
        "c_walls": ["2/11", "4/13", "2/5", "10/19", "2/3"],
        "t_walls": ["1/5", "1/3", "3/7", "5/9", "9/13"],
        "reparam": [9, 0, 1, 8],
    },
    "dp4": {
        "dimension": 2, "volume": 4, "hilbert": ["1", "2", "2"],
        "moduli_note": "weighted projective space P(1,2,3) (quartic del Pezzo GIT)",
        "c_walls": ["1/7", "1/4", "1/3", "1/2", "5/8"],
        "t_walls": ["1/6", "2/7", "3/8", "6/11", "2/3"],
        "reparam": [6, 0, 1, 5],
    },
    "p1": {
        "dimension": 1, "volume": 2, "hilbert": ["1", "2"], "moduli_note": "point",
        "c_walls": [], "t_walls": [], "reparam": [1, 0, 0, 1],
    },
}


# A record's fields, in FamilyRecord's order: the first four required, the last four lists.
_FIELDS = ("dimension", "volume", "moduli_note", "hilbert", "c_walls", "t_walls", "reparam")


def _record_from_json(family_id: str, data: dict) -> FamilyRecord:
    """One record from overlay data; any refusal keeps its type and names the record."""
    try:
        data = _objects(data)
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        if unknown := sorted(data.keys() - set(_FIELDS)):
            raise ValueError("unknown field(s): " + ", ".join(unknown))
        if missing := [k for k in _FIELDS[:4] if k not in data]:
            raise ValueError("missing field(s): " + ", ".join(missing))
        if not isinstance(note := data["moduli_note"], str):
            raise ValueError(f"moduli_note {note!r} is not a string")
        for key in _FIELDS[3:]:
            value = data.get(key)
            if not isinstance(value, list) and (key == "hilbert" or value is not None):
                raise ValueError(f"{key} {value!r} is not a list")
        c_walls, t_walls = (None if w is None else WallSet(w) for w in map(data.get, _FIELDS[4:6]))
        reparam = data.get("reparam")
        if reparam is not None:
            if len(reparam) != 4:
                raise ValueError(f"reparam {reparam} needs 4 entries")
            # JSON true loads as a bool, an int subclass; MoebiusMap would raise TypeError
            if bad := [v for v in reparam if type(v) is not int]:
                raise ValueError(f"reparam entry {bad[0]!r} is not an integer")
            reparam = MoebiusMap(*reparam)
        return FamilyRecord(family_id, *map(data.get, _FIELDS[:4]), c_walls, t_walls, reparam)
    except (ValueError, WallcrossError) as exc:
        exc.args = (f"registry record {family_id!r}: {exc}",)
        raise
    except RecursionError:
        raise ValueError(f"registry record {family_id!r}: nested too deeply") from None


def _unique_keys(pairs, what: str = "") -> dict:
    """One JSON object from its (key, value) pairs; a repeated key is refused."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"{what}repeats key {key!r}")
        out[key] = value
    return out


def _objects(value):
    """A value as json.load(object_pairs_hook=tuple) gives it, each object a dict."""
    if isinstance(value, tuple):
        value = _unique_keys(value)
        # one frame per nesting level, as json.load's own parser takes
        return dict(zip(value, map(_objects, value.values())))
    return list(map(_objects, value)) if isinstance(value, list) else value


def load_registry(overlay_path: str | os.PathLike | None = None) -> dict[str, FamilyRecord]:
    """Built-in families, optionally extended or overridden by a JSON file.

    The overlay maps family ids to objects with fields {dimension, volume,
    c_walls, t_walls, reparam, hilbert, moduli_note} and no other, no key
    repeated in one object (a repeat inside a record, at any depth, is
    refused in the record's name, as every record fault is); rationals are
    "p/q" strings or ints, reparam is the integer coefficient list
    [a, b, c, d], hilbert is constant-first.  The built-in
    families are such records too, decoded by the same _record_from_json.  An
    overlay record replaces a built-in record of the same id wholesale, in its
    place; new ids follow in sorted order.  A missing t_walls is the image of
    c_walls under reparam when both are present (FamilyRecord).
    """
    registry = {fid: _record_from_json(fid, data) for fid, data in _BUILTIN.items()}
    if overlay_path is not None:
        with open(overlay_path) as f:
            try:
                raw = json.load(f, object_pairs_hook=tuple)  # pairs, so each record reads its own
            except RecursionError:
                raise ValueError("registry overlay nested too deeply") from None
        if not isinstance(raw, tuple):
            raise ValueError("registry overlay must be a JSON object keyed by family id")
        overlay = _unique_keys(raw, "registry overlay ")
        for family_id in sorted(overlay):
            registry[family_id] = _record_from_json(family_id, overlay[family_id])
    return registry
