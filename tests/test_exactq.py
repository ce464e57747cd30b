import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wallcross.arrangement import ProductArrangement
from wallcross.errors import PoleError, WallcrossError
from wallcross.exactq import MoebiusMap, format_rational, parse_rational
from wallcross.invariants import FanoNumerics, poly_trim
from wallcross.wallsets import FamilyRecord, WallSet


def test_parse_rational_accepts_integer_and_fraction_literals():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("9/13") == Fraction(9, 13)
    assert parse_rational("-2/5") == Fraction(-2, 5)
    assert parse_rational("6/4") == Fraction(3, 2)  # reduced on parse
    assert parse_rational("0") == Fraction(0)


def test_parse_rational_rejects_junk():
    for bad in ("", "1.5", "1/0", "a/b", "1/2/3", "1 /2", "+1", "1//2", "/3"):
        with pytest.raises(ValueError):
            parse_rational(bad)
    # JSON true/false load as bool, an int subclass; neither is a rational
    for bad in (True, False):
        with pytest.raises(ValueError, match=f"^not a rational literal: {bad}$"):
            parse_rational(bad)
    # ASCII digits only, though int() reads every Unicode decimal digit
    for bad in ("\u0661/\u0662", "\uff11/\uff13"):
        with pytest.raises(ValueError, match=f"^not a rational literal: '{bad}'$"):
            parse_rational(bad)
    # only ASCII blanks are stripped: str.strip() would also take an
    # ideographic space, a line separator or an information separator
    for bad in ("\u30001/2", "1/2\u2028", "\x1c1/3", "\u00a01", "1\u2003"):
        with pytest.raises(ValueError, match=r"^not a rational literal: "):
            parse_rational(bad)
    # surrounding ASCII blanks are tolerated (hand-edited registry files)
    assert parse_rational(" 1") == Fraction(1)
    assert parse_rational("2/11 ") == Fraction(2, 11)
    assert parse_rational(" 1/2\t") == Fraction(1, 2)
    assert parse_rational("\r\n-1/3\n") == Fraction(-1, 3)


HALF = WallSet((Fraction(1, 2),))
SQUARE = ProductArrangement((("a", HALF), ("b", HALF)))

# every place where an exact value enters the package, as a call of one value
GATE_ENTRIES = {
    "format_rational": format_rational,
    "MoebiusMap.__call__": MoebiusMap(2, 1, 1, 3),
    "WallSet.__init__": lambda x: WallSet((x,)),
    "WallSet.locate": HALF.locate,
    # the lead Fraction(x) keeps the record consistent for what Fraction converts
    "FamilyRecord.volume": lambda x: FamilyRecord("x", 1, x, "n", (1, Fraction(x))),
    "poly_trim": lambda x: poly_trim((1, x)),
    "FanoNumerics.volume": lambda x: FanoNumerics(1, x, (1,)),
    "ProductArrangement.locate": lambda x: SQUARE.locate((Fraction(1, 3), x)),
}


def _outcome(call, x):
    try:
        return call(x)
    except (ValueError, WallcrossError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("entry", GATE_ENTRIES)
def test_exact_values_enter_through_parse_rational(entry):
    """Each entry point refuses what parse_rational refuses, a float, a bool,
    a Decimal or a decimal string, where it used to convert it through
    Fraction(x); an int, a Fraction or a "p/q" string gives what the parsed
    value gives."""
    call = GATE_ENTRIES[entry]
    for bad in (0.1, True, Decimal("0.5"), "0.5"):
        with pytest.raises(ValueError, match=f"^not a rational literal: {re.escape(repr(bad))}$"):
            call(bad)
    for good in (3, Fraction(2, 3), "4/6"):
        assert _outcome(call, good) == _outcome(call, parse_rational(good))


def test_format_rational_omits_unit_denominator():
    assert format_rational(Fraction(9, 13)) == "9/13"
    assert format_rational(Fraction(-2, 5)) == "-2/5"
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(0)) == "0"


def test_parse_format_roundtrip_random():
    rng = random.Random(101)
    for _ in range(300):
        q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert parse_rational(format_rational(q)) == q


def test_moebius_canonical_form_scales_out_common_factor():
    assert MoebiusMap(18, 0, 2, 16) == MoebiusMap(9, 0, 1, 8)
    assert MoebiusMap(-9, 0, -1, -8) == MoebiusMap(9, 0, 1, 8)
    assert MoebiusMap(0, -2, -4, 0) == MoebiusMap(0, 1, 2, 0)
    m = MoebiusMap(6, -4, 2, 8)
    assert m.coefficients() == (3, -2, 1, 4)


@pytest.mark.parametrize("coeffs", [(True, False, False, True), (1, 0, 0, True)])
def test_moebius_requires_int_coefficients(coeffs):
    """JSON true/false load as bools, which parse_rational refuses too."""
    want = f"^integer coefficients required, got {re.escape(repr(coeffs))}$"
    with pytest.raises(TypeError, match=want):
        MoebiusMap(*coeffs)


def test_moebius_rejects_zero_determinant():
    with pytest.raises(ValueError, match=r"^vanishing determinant: \(2, 4, 1, 2\)$"):
        MoebiusMap(2, 4, 1, 2)
    with pytest.raises(ValueError, match=r"^vanishing determinant: \(0, 0, 0, 0\)$"):
        MoebiusMap(0, 0, 0, 0)


def test_degree3_reparam_values():
    m = MoebiusMap(9, 0, 1, 8)  # c -> 9c/(8+c)
    assert m(Fraction(2, 11)) == Fraction(1, 5)
    assert m(Fraction(4, 13)) == Fraction(1, 3)
    assert m(Fraction(2, 5)) == Fraction(3, 7)
    assert m(Fraction(10, 19)) == Fraction(5, 9)
    assert m(Fraction(2, 3)) == Fraction(9, 13)
    assert m(Fraction(0)) == Fraction(0)
    assert m(Fraction(1)) == Fraction(1)


def test_degree4_reparam_values():
    m = MoebiusMap(6, 0, 1, 5)  # c -> 6c/(5+c)
    assert m(Fraction(1, 7)) == Fraction(1, 6)
    assert m(Fraction(1, 4)) == Fraction(2, 7)
    assert m(Fraction(1, 3)) == Fraction(3, 8)
    assert m(Fraction(1, 2)) == Fraction(6, 11)
    assert m(Fraction(5, 8)) == Fraction(2, 3)
    assert m(Fraction(0)) == Fraction(0)
    assert m(Fraction(1)) == Fraction(1)


def test_evaluation_raises_at_pole():
    m = MoebiusMap(1, 1, 1, -1)  # x -> (x+1)/(x-1)
    with pytest.raises(PoleError):
        m(Fraction(1))
    assert m(Fraction(3)) == Fraction(2)


def test_inverse_matches_symbolic_solve():
    # Oracle: solve t = (a*x+b)/(c*x+d) for x symbolically, then compare
    # pointwise with the implementation on the registered wall values.
    sympy = pytest.importorskip("sympy")
    x, t = sympy.symbols("x t")
    cases = [
        ((9, 0, 1, 8), (8, 0, -1, 9)),  # t = 9x/(8+x)  =>  x = 8t/(9-t)
        ((6, 0, 1, 5), (5, 0, -1, 6)),  # t = 6x/(5+x)  =>  x = 5t/(6-t)
    ]
    for coeffs, expected in cases:
        a, b, c, d = coeffs
        sols = sympy.solve(sympy.Eq(t, (a * x + b) / (c * x + d)), x)
        assert len(sols) == 1
        inv = MoebiusMap(*coeffs).inverse()
        assert inv.coefficients() == expected
        for v in (Fraction(1, 5), Fraction(1, 3), Fraction(3, 7), Fraction(5, 9), Fraction(9, 13)):
            got = sols[0].subs(t, sympy.Rational(v.numerator, v.denominator))
            assert Fraction(int(got.p), int(got.q)) == inv(v)


def test_inverse_of_inverse_is_identity():
    rng = random.Random(202)
    seen = 0
    while seen < 200:
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        if a * d - b * c == 0:
            continue
        seen += 1
        m = MoebiusMap(a, b, c, d)
        assert m.inverse().inverse() == m
        assert m.compose(m.inverse()) == MoebiusMap(1, 0, 0, 1)
        assert m.inverse().compose(m) == MoebiusMap(1, 0, 0, 1)


def test_roundtrip_through_registered_reparams():
    rng = random.Random(303)
    for coeffs in ((9, 0, 1, 8), (6, 0, 1, 5)):
        m = MoebiusMap(*coeffs)
        inv = m.inverse()
        for _ in range(100):
            q = Fraction(rng.randint(0, 99), 100)
            assert inv(m(q)) == q


def test_compose_affine_example():
    add_one = MoebiusMap(1, 1, 0, 1)  # x -> x+1
    double = MoebiusMap(2, 0, 0, 1)  # x -> 2x
    assert add_one.compose(double) == MoebiusMap(2, 1, 0, 1)  # x -> 2x+1
    assert double.compose(add_one) == MoebiusMap(2, 2, 0, 1)  # x -> 2x+2


def test_compose_associative_random():
    rng = random.Random(404)
    maps = []
    while len(maps) < 30:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        if a * d - b * c != 0:
            maps.append(MoebiusMap(a, b, c, d))
    for i in range(0, 30, 3):
        f, g, h = maps[i], maps[i + 1], maps[i + 2]
        assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_increasing_on_unit_interval_when_pole_is_outside():
    # positive determinant and d > 0, with the pole (if any) outside [0, 1)
    rng = random.Random(505)
    grid = [Fraction(i, 40) for i in range(40)]
    checked = 0
    while checked < 100:
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        if a * d - b * c <= 0 or d <= 0:
            continue
        if c < 0 and Fraction(-d, c) < 1:  # pole inside [0, 1)
            continue
        checked += 1
        m = MoebiusMap(a, b, c, d)
        values = [m(x) for x in grid]
        assert all(u < v for u, v in zip(values, values[1:]))


def test_registered_reparams_fix_endpoints_and_increase():
    grid = [Fraction(i, 100) for i in range(101)]
    for coeffs in ((9, 0, 1, 8), (6, 0, 1, 5)):
        m = MoebiusMap(*coeffs)
        values = [m(x) for x in grid]
        assert values[0] == 0 and values[-1] == 1
        assert all(u < v for u, v in zip(values, values[1:]))
        assert all(0 <= v <= 1 for v in values)


def test_str_forms():
    assert str(MoebiusMap(9, 0, 1, 8)) == "(9x)/(x + 8)"
    assert str(MoebiusMap(1, 0, 0, 1)) == "(x)/(1)"
    assert str(MoebiusMap(2, 1, 0, 1)) == "(2x + 1)/(1)"
    assert str(MoebiusMap(1, -1, 1, 8)) == "(x - 1)/(x + 8)"
    assert str(MoebiusMap(1, 0, -1, 2)) == "(x)/(-x + 2)"


def test_determinant_and_identity():
    assert MoebiusMap(1, 0, 0, 1)(Fraction(5, 7)) == Fraction(5, 7)
    # f after its adjugate is det * identity, and the canonical form divides
    # the determinant 72 out
    f = MoebiusMap(9, 0, 1, 8)
    assert f.inverse().coefficients() == (8, 0, -1, 9)
    assert f.compose(f.inverse()) == MoebiusMap(1, 0, 0, 1) == MoebiusMap(72, 0, 0, 72)
    m = MoebiusMap(3, -2, 1, 4)
    assert m.compose(MoebiusMap(1, 0, 0, 1)) == m
    assert MoebiusMap(1, 0, 0, 1).compose(m) == m


# nondegenerate integer Moebius maps with small coefficients
moebius_maps = st.tuples(*[st.integers(-6, 6)] * 4).filter(
    lambda q: q[0] * q[3] - q[1] * q[2] != 0
).map(lambda q: MoebiusMap(*q))


@settings(max_examples=150)
@given(moebius_maps, moebius_maps, moebius_maps, st.integers(-9, 9).filter(bool))
def test_moebius_laws(f, g, h, k):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))
    assert f.compose(f.inverse()) == f.inverse().compose(f) == MoebiusMap(1, 0, 0, 1)
    scaled = MoebiusMap(*(k * v for v in f.coefficients()))
    assert scaled == f and hash(scaled) == hash(f)


# evaluation points: ints and small fractions
points = st.one_of(
    st.integers(-20, 20), st.fractions(min_value=-20, max_value=20, max_denominator=12)
)


def plain_eval(f: MoebiusMap, x) -> Fraction | None:
    """(a*x + b)/(c*x + d) in plain Fraction arithmetic; None at a pole."""
    a, b, c, d = f.coefficients()
    x = Fraction(x)
    den = c * x + d
    return None if den == 0 else (a * x + b) / den


@settings(max_examples=200)
@given(moebius_maps, points, st.booleans())
def test_evaluation_matches_fraction_arithmetic(f, x, at_pole):
    if at_pole and f.c != 0:  # the pole itself, an int whenever c divides d
        x = Fraction(-f.d, f.c)
        x = x.numerator if x.denominator == 1 else x
    want = plain_eval(f, x)
    if want is None:
        with pytest.raises(PoleError) as err:
            f(x)
        assert str(err.value) == f"{f} has a pole at {format_rational(Fraction(x))}"
    else:
        got = f(x)
        assert got == want and type(got) is Fraction


@settings(max_examples=150)
@given(moebius_maps, moebius_maps, points)
def test_compose_evaluates_as_nested_calls(f, g, x):
    inner = plain_eval(g, x)
    assume(inner is not None and plain_eval(f, inner) is not None)
    assert f.compose(g)(x) == f(g(x)) == plain_eval(f, inner)


@settings(max_examples=200)
@given(moebius_maps, moebius_maps)
@example(MoebiusMap(2, 1, 1, 3), MoebiusMap(3, -1, -1, 2))  # f after its inverse: raw 5 * I
@example(MoebiusMap(0, 1, 1, 0), MoebiusMap(1, 0, -1, 1))  # raw leads -1 and (0, -1)
@example(MoebiusMap(1, 2, 0, -1), MoebiusMap(1, 0, 0, 1))  # raw inverse (-1, -2, 0, 1)
def test_compose_and_inverse_match_the_checked_constructor(f, g):
    """compose and inverse skip the constructor's checks; each result is the
    map the constructor builds from the raw coefficients, field for field."""
    (a, b, c, d), (e, f2, g2, h) = f.coefficients(), g.coefficients()
    raw_compose = (a * e + b * g2, a * f2 + b * h, c * e + d * g2, c * f2 + d * h)
    for got, raw in ((f.compose(g), raw_compose), (f.inverse(), (d, -b, -c, a))):
        want = MoebiusMap(*raw)
        assert got == want and repr(got) == repr(want) and hash(got) == hash(want)
