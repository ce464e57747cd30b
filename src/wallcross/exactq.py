"""Exact rational arithmetic and fractional-linear reparametrizations.

Rational values throughout the package are stdlib ``fractions.Fraction``
objects: always reduced, denominator always positive, with exact comparison
and arithmetic.  This module adds the "p/q" string codec used on every JSON
surface; its decoder parse_rational is the one gate for the exact values that
enter the package, and refuses floats, Decimals and bools rather than
converting them.  The module also implements fractional-linear (Moebius) maps
x -> (a*x + b)/(c*x + d) with a canonical integer-coefficient form, which the
wall registries use to translate between coefficient scales.  Value, the base
of the package's immutable value types, lives here too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import PoleError

_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/(-?[0-9]+))?$")  # ASCII: \d takes any Unicode digit


class Value:
    """Immutable value: equality within one class, hash and repr by field.

    A subclass's __init__ fills __dict__ once with exactly its fields, in
    constructor order, so hash(x) is the hash of the field tuple.
    """

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse an integer or a "p/q" string into a Fraction; a Fraction passes.

    The denominator part is optional; "2/11", "-3", 7 are all accepted.
    Strings in any other shape (floats, inner or non-ASCII blanks, empty),
    floats, Decimals and bools (JSON true/false) are rejected so bad inputs fail loudly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        m = _RATIONAL_RE.match(value.strip(" \t\r\n"))
        if m:
            p, q = int(m[1]), int(m[2] or 1)
            if q == 0:
                raise ValueError(f"zero denominator in rational literal {value!r}")
            return Fraction(p, q)
    elif isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"not a rational literal: {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a rational as "p/q", omitting the denominator when it is 1."""
    return str(parse_rational(value))


class MoebiusMap(Value):
    """The map x -> (a*x + b)/(c*x + d) with integer coefficients.

    Canonical form: gcd(a, b, c, d) = 1 and the first nonzero coefficient is
    positive, so equal maps compare and hash equal.  The constructor refuses
    coefficients that are not ints and a zero determinant a*d - b*c.  compose
    and inverse skip both checks, sound by construction: a composite has int
    coefficients and det f * det g != 0; the adjugate (d, -b, -c, a) of a
    canonical map keeps gcd 1 and det.
    """

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        if not (type(a) is type(b) is type(c) is type(d) is int):  # bools too are refused
            raise TypeError(f"integer coefficients required, got {(a, b, c, d)!r}")
        if a * d == b * c:
            raise ValueError(f"vanishing determinant: {(a, b, c, d)!r}")
        _canonical(self, a, b, c, d)

    def coefficients(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __call__(self, x: Fraction | int) -> Fraction:
        """f(p/q) = (a*p + b*q)/(c*p + d*q) for x = p/q in lowest terms: one
        Fraction normalisation, and x is a pole exactly when c*p + d*q = 0."""
        x = parse_rational(x)
        p, q = x.as_integer_ratio()
        den = self.c * p + self.d * q
        if den == 0:
            raise PoleError(f"{self} has a pole at {format_rational(x)}")
        return Fraction(self.a * p + self.b * q, den)

    def inverse(self) -> "MoebiusMap":
        """The inverse map; adjugate coefficients, re-signed."""
        return _canonical(object.__new__(MoebiusMap), self.d, -self.b, -self.c, self.a)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return _canonical(object.__new__(MoebiusMap),
                          a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __str__(self) -> str:
        return f"({_linear_str(self.a, self.b)})/({_linear_str(self.c, self.d)})"


def _canonical(m: MoebiusMap, a: int, b: int, c: int, d: int) -> MoebiusMap:
    """Fill m with (a, b, c, d) over their gcd, signed so that a (b if a = 0) is positive."""
    g = -gcd(a, b, c, d) if (a or b) < 0 else gcd(a, b, c, d)
    if g != 1:
        a, b, c, d = a // g, b // g, c // g, d // g
    m.__dict__.update(a=a, b=b, c=c, d=d)
    return m


def _linear_str(p: int, q: int) -> str:
    """Render p*x + q compactly, e.g. "9x", "x + 8", "-x", "3"."""
    if p == 0:
        return str(q)
    xterm = {1: "x", -1: "-x"}.get(p, f"{p}x")
    return f"{xterm} {'+' if q > 0 else '-'} {abs(q)}" if q else xterm
