"""Polynomial text grammar: examples, errors with positions, fuzz round-trip."""

import random

import pytest

from diagalg.errors import DegreeCapError, PolyParseError
from diagalg.exactalg import PolyRing
from diagalg.parsing import parse_polynomial


def test_parse_witness_polynomial():
    f = parse_polynomial("x1^2 + x2*x3", 3, 0, 5)
    ring = PolyRing(5, 3)
    assert f == ring.x(1) ** 2 + ring.x(2) * ring.x(3)
    assert str(f) == "x1^2 + x2*x3"


def test_parse_bigraded_form():
    f = parse_polynomial("x1*y1 - x2*y2", 2, 2, 7)
    assert f.bidegree() == (1, 1)
    assert f.terms[(0, 1, 0, 1)] == 6  # -1 mod 7


def test_parse_coefficients_and_parentheses():
    f = parse_polynomial(" 3*(x1 + x2)^2 - 2 ", 2, 0, 5)
    ring = PolyRing(5, 2)
    expected = 3 * (ring.x(1) + ring.x(2)) ** 2 - 2
    assert f == expected
    assert parse_polynomial("-x1 + 7", 1, 0, 5) == PolyRing(5, 1).const(2) - PolyRing(5, 1).x(1)


def test_parse_reduces_mod_p():
    f = parse_polynomial("10*x1 + 5", 1, 0, 5)
    assert f.is_zero


def test_parse_errors_carry_positions():
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x1^-1", 2, 0, 5)
    assert err.value.position == 3

    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x3 + x1", 2, 0, 5)
    assert err.value.position == 0

    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x1 + ", 2, 0, 5)
    assert err.value.position == 5

    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x1 @ x2", 2, 0, 5)
    assert err.value.position == 3

    with pytest.raises(PolyParseError) as err:
        parse_polynomial("(x1 + x2", 2, 0, 5)
    assert err.value.position == 8

    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x1 x2", 2, 0, 5)
    assert err.value.position == 3

    # Only ASCII digits and letters form tokens: a superscript, an
    # Arabic-Indic or a fullwidth digit, or a non-ASCII letter is an error
    # at its own position.
    for text, position in [("x1^\u00b2", 3), ("x1^\u0663", 3),
                           ("x\uff11", 1), ("\u00df1", 0)]:
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(text, 2, 0, 5)
        assert err.value.position == position, text

    # Tokenizer errors come before grammar errors; the rest are at the
    # token where the grammar fails.
    for text, position in [("x1 x2 @", 6), ("x1 + )", 5), (")", 0),
                           ("(x1))", 4), ("x1*-x2", 3), ("", 0)]:
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(text, 2, 0, 5)
        assert err.value.position == position, text
    assert parse_polynomial("-(-x1)", 2, 0, 5) == PolyRing(5, 2).x(1)

    # Parentheses nest at most 100 deep; the "(" that opens level 101 is
    # the error, before the interpreter's stack runs out.
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("(" * 300 + "x1" + ")" * 300, 2, 0, 5)
    assert err.value.position == 100
    assert "parentheses nested deeper than 100" in str(err.value)
    assert parse_polynomial("(" * 100 + "x1" + ")" * 100, 2, 0, 5) \
        == PolyRing(5, 2).x(1)

    with pytest.raises(PolyParseError):
        parse_polynomial("y1", 2, 0, 5)  # no y-block in this ring

    with pytest.raises(PolyParseError):
        parse_polynomial("z1 + 1", 2, 0, 5)


def test_long_digit_runs_are_parse_errors():
    # int() refuses digit strings over a limit the interpreter sets (4300
    # digits by default), so runs over 640 digits, the lowest limit it may
    # set, are parse errors at the run's position, as coefficients, as
    # variable indices and as exponents.  str() refuses ints over the same
    # limit, and nested powers multiply degrees, so a power whose degree
    # would have over 640 digits is one at the first exponent that does so.
    nines = "9" * 640
    for text, position in [("1" * 5000 + "*x1", 0), ("x" + "1" * 641, 1),
                           ("x1^" + "2" * 641, 3), ("1" * 641, 0),
                           (f"(x1^{nines})^{nines}", 646),
                           ("(x1^2)^5" + "0" * 639, 7),
                           (f"x2*(((x1)^{nines})^{nines})^{nines}", 652)]:
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(text, 2, 0, 5)
        assert err.value.position == position, text[:8]
    # 640 digits still parse: 10^640 - 1 is 4 mod 5.  So does a power of
    # degree 10^640 - 2, and it prints.
    assert parse_polynomial(nines + "*x2", 2, 0, 5) == 4 * PolyRing(5, 2).x(2)
    half = "4" + "9" * 639
    assert str(parse_polynomial(f"(x1^2)^{half}", 1, 0, 5)) == f"x1^{2 * int(half)}"


def test_zero_and_constant():
    assert parse_polynomial("0", 2, 1, 5).is_zero
    assert str(parse_polynomial("4", 2, 1, 5)) == "4"


def test_runaway_power_hits_the_monomial_cap():
    # (x1+x2+x3)^100000 has about 5e9 terms: refused before expanding.
    with pytest.raises(DegreeCapError):
        parse_polynomial("(x1+x2+x3)^100000", 3, 0, 5)
    # Single terms and powers under the cap still expand.
    assert str(parse_polynomial("x1^100000", 1, 0, 5)) == "x1^100000"
    assert len(parse_polynomial("(x1+x2+x3)^20", 3, 0, 101)) == 231


def _random_expression(rng, m, n, depth=0):
    # Weighted random grammar productions; depth-limited.
    choice = rng.random()
    if depth >= 3 or choice < 0.45:
        kind = rng.random()
        if kind < 0.3:
            return str(rng.randrange(0, 30))
        if n == 0 or kind < 0.7:
            return f"x{rng.randrange(1, m + 1)}"
        return f"y{rng.randrange(1, n + 1)}"
    if choice < 0.65:
        left = _random_expression(rng, m, n, depth + 1)
        right = _random_expression(rng, m, n, depth + 1)
        op = rng.choice([" + ", " - ", "*"])
        if op == "*":
            return f"({left})*({right})"
        return f"{left}{op}{right}"
    if choice < 0.85:
        inner = _random_expression(rng, m, n, depth + 1)
        return f"({inner})^{rng.randrange(0, 4)}"
    # Negation written as a subtraction so it stays valid in any position
    # (the grammar allows a leading '-' only at the head of an expression).
    return f"(0 - ({_random_expression(rng, m, n, depth + 1)}))"


def test_fuzz_round_trip_1000():
    rng = random.Random(20240801)
    for trial in range(1000):
        m = rng.randrange(1, 4)
        n = rng.randrange(0, 3)
        p = rng.choice([2, 3, 5, 7, 101])
        source = _random_expression(rng, m, n)
        poly = parse_polynomial(source, m, n, p)
        printed = str(poly)
        again = parse_polynomial(printed, m, n, p)
        assert again == poly, (source, printed)
        assert str(again) == printed
