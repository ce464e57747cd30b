import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _models import poly_mul_oracle
from wallcross.invariants import (
    MAX_DIMENSION,
    FanoNumerics,
    _convolve,
    consistency_check,
    poly_trim,
    product_numerics,
)

F = Fraction


def mixed_volume_oracle(n1, v1, n2, v2):
    """Brute-force top self-intersection on the product.

    Expand (A + B)^(n1+n2) as explicit factor sequences; a sequence
    contributes v1 * v2 exactly when it uses A exactly n1 times (powers of A
    beyond n1 and of B beyond n2 vanish, lower powers leave the wrong total
    degree).  No binomial shortcut, so the comb() in product_numerics is
    independently checked.
    """
    n = n1 + n2
    total = 0
    for seq in itertools.product("AB", repeat=n):
        if seq.count("A") == n1:
            total += v1 * v2
    return n, total


def test_poly_helpers():
    assert poly_trim([1, 2, 0, 0]) == (F(1), F(2))
    assert poly_trim([]) == (F(0),)
    assert poly_trim([0, 0]) == (F(0),)
    assert poly_trim((F(1), F(0), F(2), 0))[-1] == 2  # the lead
    assert _convolve(poly_trim([1, 1]), poly_trim([1, 1])) == (F(1), F(2), F(1))
    assert poly_trim(["1", "3/2", "3/2"]) == (F(1), F(3, 2), F(3, 2))
    assert poly_trim([1, "7/2", "0"]) == (F(1), F(7, 2))


@pytest.mark.parametrize("hilbert", ["12", "1", ""])
def test_polynomial_must_not_be_a_str(hilbert):
    """FanoNumerics(1, 2, "12") was accepted, its Hilbert polynomial read one
    character at a time as (1, 2)."""
    want = f"^polynomial {hilbert!r} is a str, not a sequence of coefficients$"
    with pytest.raises(ValueError, match=want):
        poly_trim(hilbert)
    with pytest.raises(ValueError, match=want):
        FanoNumerics(1, 2, hilbert)


@pytest.mark.parametrize("dimension", [True, 2.0])
def test_dimension_must_be_an_int(dimension):
    """True and 2.0 used to be stored as the dimension as given."""
    with pytest.raises(ValueError, match=f"^dimension must be an int, got {dimension!r}$"):
        FanoNumerics(dimension, 2, (1, 1, 1))


def test_dimension_bound_is_the_constructors():
    """Numerics past MAX_DIMENSION are refused when built, so consistency_check
    never takes the factorial of such a dimension; a product of two bounded
    factors, built without the constructor, is still checked."""
    with pytest.raises(ValueError, match=f"^dimension 1700 above the bound {MAX_DIMENSION}$"):
        FanoNumerics(1700, 1, (1,))
    top = FanoNumerics(MAX_DIMENSION, 1, (1,))
    assert consistency_check(top)[0] == f"hilbert degree 0, expected {MAX_DIMENSION}"
    prod = product_numerics(top, top)
    assert prod.dimension == 2 * MAX_DIMENSION
    assert consistency_check(prod)[0] == f"hilbert degree 0, expected {2 * MAX_DIMENSION}"


def test_poly_mul_matches_pointwise_products():
    rng = random.Random(77)
    for _ in range(100):
        f = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        g = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        h = _convolve(poly_trim(f), poly_trim(g))
        for x in (F(0), F(1), F(-2), F(1, 3), F(7, 5)):
            values = [sum(c * x**i for i, c in enumerate(p)) for p in (h, f, g)]
            assert values[0] == values[1] * values[2]


# coefficients: ints and small fractions; lists may be empty or end in zeros
coefficients = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=9)
)
polynomials = st.lists(coefficients, max_size=5)


@settings(max_examples=150)
@given(polynomials, polynomials)
@example([], [1, 2])
@example([0, 0], [F(1, 2), 3])
@example([1, F(1, 3), 0, 0], [0, F(3, 4), 0])
@example([F(2, 3), F(5, 6)], [F(3, 4), F(-7, 10), F(1, 9)])
def test_poly_mul_matches_fraction_convolution(f, g):
    got = _convolve(poly_trim(f), poly_trim(g))
    assert got == poly_mul_oracle(f, g)
    assert all(type(c) is Fraction for c in got)


def test_line_times_cubic_surface():
    p1 = FanoNumerics(1, F(2), (F(1), F(2)))
    dp3 = FanoNumerics(2, F(3), (F(1), F(3, 2), F(3, 2)))
    combined = product_numerics(p1, dp3)
    assert (combined.dimension, combined.volume) == (3, 18)
    assert mixed_volume_oracle(1, F(2), 2, F(3)) == (3, 18)
    # (2m+1) * (3m^2+3m+2)/2 = 3m^3 + (9/2)m^2 + (7/2)m + 1
    assert combined.hilbert == (F(1), F(7, 2), F(9, 2), F(3))
    assert consistency_check(combined) == []
    assert factorial(3) * combined.hilbert[-1] == 18


def test_line_squared():
    p1 = FanoNumerics(1, F(2), (F(1), F(2)))
    square = product_numerics(p1, p1)
    assert (square.dimension, square.volume) == (2, 8)
    assert mixed_volume_oracle(1, F(2), 1, F(2)) == (2, 8)
    assert square.hilbert == (F(1), F(4), F(4))  # (2m+1)^2
    assert consistency_check(square) == []


def test_product_with_point_is_neutral():
    point = FanoNumerics(0, F(1), (F(1),))
    dp4 = FanoNumerics(2, F(4), (F(1), F(2), F(2)))
    assert product_numerics(dp4, point) == dp4
    assert product_numerics(point, dp4) == dp4


def test_product_commutes_and_associates():
    a = FanoNumerics(1, F(2), (F(1), F(2)))
    b = FanoNumerics(2, F(3), (F(1), F(3, 2), F(3, 2)))
    c = FanoNumerics(2, F(4), (F(1), F(2), F(2)))
    assert product_numerics(a, b) == product_numerics(b, a)
    assert product_numerics(product_numerics(a, b), c) == product_numerics(
        a, product_numerics(b, c)
    )
    triple = product_numerics(product_numerics(a, b), c)
    assert triple.dimension == 5
    # multinomial 5!/(1!2!2!) = 30 times 2*3*4
    assert triple.volume == 30 * 24


def test_consistency_check_flags_bad_records():
    bad_constant = FanoNumerics(1, F(2), (F(2), F(2)))
    assert any("hilbert(0)" in m for m in consistency_check(bad_constant))
    bad_degree = FanoNumerics(2, F(3), (F(1), F(3)))
    assert any("degree" in m for m in consistency_check(bad_degree))
    bad_lead = FanoNumerics(2, F(3), (F(1), F(1), F(1)))
    assert any("lead" in m for m in consistency_check(bad_lead))
    good = FanoNumerics(2, F(3), (F(1), F(3, 2), F(3, 2)))
    assert consistency_check(good) == []


def test_fano_numerics_stores_trimmed_fractions():
    x = FanoNumerics(2, 3, [1, F(3, 2), F(3, 2), 0, F(0)])
    assert x.hilbert == (F(1), F(3, 2), F(3, 2)) and type(x.volume) is Fraction
    assert all(type(c) is Fraction for c in x.hilbert)
    assert consistency_check(x) == []
    zero = FanoNumerics(1, F(2), (0, 0))
    assert zero.hilbert == (F(0),) and type(zero.hilbert[0]) is Fraction
    assert FanoNumerics(1, F(2), ()).hilbert == (F(0),)


@pytest.mark.parametrize(
    "args, want",
    [
        ((1, F(2), (F(2), F(2))), ["hilbert(0) = 2, expected 1"]),
        (
            (2, F(3), (1, 3, 0)),
            ["hilbert degree 1, expected 2", "2! * lead = 6, expected volume 3"],
        ),
        ((2, F(3), (F(1), F(1), F(1))), ["2! * lead = 2, expected volume 3"]),
        (
            (2, F(7, 2), (F(1, 2), 3, F(5, 3), 0, 0)),
            ["hilbert(0) = 1/2, expected 1", "2! * lead = 10/3, expected volume 7/2"],
        ),
        (
            (1, 2, (0, 0)),
            [
                "hilbert(0) = 0, expected 1",
                "hilbert degree 0, expected 1",
                "1! * lead = 0, expected volume 2",
            ],
        ),
    ],
)
def test_consistency_check_messages(args, want):
    assert consistency_check(FanoNumerics(*args)) == want


def test_fano_numerics_shape_validation():
    with pytest.raises(ValueError):
        FanoNumerics(-1, F(1), (F(1),))
    with pytest.raises(ValueError):
        FanoNumerics(1, F(0), (F(1), F(1)))
    with pytest.raises(ValueError):
        FanoNumerics(1, F(-2), (F(1), F(1)))


def test_registry_products_satisfy_invariants(registry):
    records = sorted(registry.values(), key=lambda r: r.id)
    for ra in records:
        for rb in records:
            combined = product_numerics(ra.numerics(), rb.numerics())
            assert consistency_check(combined) == []
            assert mixed_volume_oracle(
                ra.dimension, ra.volume, rb.dimension, rb.volume
            ) == (combined.dimension, combined.volume)


def test_random_products_keep_identities():
    rng = random.Random(424242)

    def random_numerics():
        n = rng.randint(0, 3)
        if n == 0:
            return FanoNumerics(0, F(1), (F(1),))
        lead = F(rng.randint(1, 12), rng.randint(1, 6))
        coeffs = (
            [F(1)]
            + [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n - 1)]
            + [lead]
        )
        return FanoNumerics(n, factorial(n) * lead, coeffs)

    for _ in range(100):
        a, b = random_numerics(), random_numerics()
        assert consistency_check(a) == [] and consistency_check(b) == []
        combined = product_numerics(a, b)
        assert consistency_check(combined) == []
        assert combined.hilbert == poly_mul_oracle(a.hilbert, b.hilbert)
        # built without the constructor, as the constructor would build it
        rebuilt = FanoNumerics(combined.dimension, combined.volume, combined.hilbert)
        assert (rebuilt, repr(rebuilt), hash(rebuilt)) == (combined, repr(combined), hash(combined))
        assert combined.hilbert[0] == 1
        assert factorial(combined.dimension) * combined.hilbert[-1] == combined.volume
        assert mixed_volume_oracle(a.dimension, a.volume, b.dimension, b.volume) == (
            combined.dimension,
            combined.volume,
        )
