"""Numerical invariants of Fano factors and their products.

A factor is summarized by its dimension n, its anticanonical volume V, and
the Hilbert polynomial chi(m) = h^0(-m K); the three are tied together by
chi(0) = 1 and n! * lead(chi) = V.  Products combine by

    dimension:  n1 + n2
    volume:     binomial(n1 + n2, n1) * V1 * V2
    hilbert:    chi1 * chi2   (polynomial product)

The volume rule is the top self-intersection of p1*(-K1) + p2*(-K2) on the
product: only the mixed term binomial(n1+n2, n1) * (-K1)^n1 * (-K2)^n2
survives.  The Hilbert rule is the Kuenneth factorization of sections of the
anticanonical powers.  Both rules are cross-checked against each other here:
lead(chi1 * chi2) = (V1/n1!) * (V2/n2!) forces the binomial in the volume.

Polynomials are tuples of Fractions, constant term first, no trailing zeros.
FanoNumerics trims its polynomial once, at construction, and the checks and
the product read it as stored, convolving integer numerators over common
denominators into one Fraction per coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm

from .exactq import Value, format_rational, parse_rational

Polynomial = tuple[Fraction, ...]

# A larger dimension is refused at construction, before any arithmetic: the
# consistency check computes dimension!, which has 158 digits at 100, and
# formats it into its message when the volume disagrees.  A product of two
# bounded factors, built without the constructor, stays within 200! (375 digits).
MAX_DIMENSION = 100


def poly_trim(coeffs) -> Polynomial:
    """Parse each coefficient (exactq.parse_rational); drop trailing zeros."""
    if isinstance(coeffs, str):  # "12" would be read as the coefficients 1, 2
        raise ValueError(f"polynomial {coeffs!r} is a str, not a sequence of coefficients")
    out = list(map(parse_rational, coeffs))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out) if out else (Fraction(0),)


def _convolve(f: Polynomial, g: Polynomial) -> Polynomial:
    """f * g for trimmed f and g, over integer numerators."""
    fd, gd = lcm(*[c.denominator for c in f]), lcm(*[c.denominator for c in g])
    gn = [c.numerator * (gd // c.denominator) for c in g]
    out = [0] * (len(f) + len(gn) - 1)
    for i, c in enumerate(f):
        a = c.numerator * (fd // c.denominator)
        for j, b in enumerate(gn, i):
            out[j] += a * b
    den = fd * gd  # trimmed leads multiply to zero only for a zero factor
    return tuple([Fraction(v, den) for v in out]) if out[-1] else (Fraction(0),)


class FanoNumerics(Value):
    """Dimension, anticanonical volume, and Hilbert polynomial of one factor.

    Construction checks only shape (an int dimension in 0..MAX_DIMENSION,
    volume > 0); whether the polynomial actually matches the pair (n, V) is
    the job of consistency_check, so deliberately broken inputs can be examined.
    """

    def __init__(self, dimension: int, volume: Fraction, hilbert: Polynomial) -> None:
        if type(dimension) is not int:  # bools and 2.0 are not dimensions
            raise ValueError(f"dimension must be an int, got {dimension!r}")
        if dimension < 0:
            raise ValueError(f"negative dimension {dimension}")
        if dimension > MAX_DIMENSION:
            raise ValueError(f"dimension {dimension} above the bound {MAX_DIMENSION}")
        volume = parse_rational(volume)
        if volume.numerator <= 0:  # over a positive denominator
            raise ValueError(f"volume must be positive, got {volume}")
        self.__dict__.update(dimension=dimension, volume=volume, hilbert=poly_trim(hilbert))


def consistency_check(x: FanoNumerics) -> list[str]:
    """Return the violated invariants of x; empty list means pass."""
    problems = []
    h = x.hilbert  # trimmed at construction: h[0] = chi(0), h[-1] the lead
    if h[0] != 1:
        problems.append(f"hilbert(0) = {format_rational(h[0])}, expected 1")
    if len(h) - 1 != x.dimension:
        problems.append(f"hilbert degree {len(h) - 1}, expected {x.dimension}")
    (p, q), (v, w) = h[-1].as_integer_ratio(), x.volume.as_integer_ratio()
    if factorial(x.dimension) * p * w != v * q:  # n! * lead = volume, in integers
        problems.append(
            f"{x.dimension}! * lead = {format_rational(Fraction(factorial(x.dimension) * p, q))}, "
            f"expected volume {format_rational(x.volume)}"
        )
    return problems


def product_numerics(a: FanoNumerics, b: FanoNumerics) -> FanoNumerics:
    """Combine two factors; the result satisfies the FanoNumerics invariants
    whenever the inputs do (leading coefficients multiply, so n! * lead
    reproduces exactly the binomial-weighted volume)."""
    n = a.dimension + b.dimension
    (p1, q1), (p2, q2) = a.volume.as_integer_ratio(), b.volume.as_integer_ratio()
    volume = Fraction(comb(n, a.dimension) * p1 * p2, q1 * q2)
    prod = object.__new__(FanoNumerics)  # valid inputs make a valid product
    prod.__dict__.update(dimension=n, volume=volume, hilbert=_convolve(a.hilbert, b.hilbert))
    return prod
