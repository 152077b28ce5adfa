"""Expression parser: grammar fixtures, error positions, format round trips."""

import random
from fractions import Fraction

import pytest

from chowkit import INVARIANT_VARS, ParseError, Polynomial, RING_VARS, format_polynomial, parse
from chowkit.parsing import MAX_DEPTH, MAX_POWER_BITS
from chowkit.ring import make_context
from test_poly import random_poly


def test_basic_fixtures():
    assert parse("0").is_zero()
    assert parse("xi^2 - xi*P") == Polynomial(RING_VARS, {(2, 0, 0, 0): 1, (1, 0, 1, 0): -1})
    assert parse("3/4") == Polynomial.constant(RING_VARS, Fraction(3, 4))
    assert parse("T1 - 2*T2") == Polynomial(RING_VARS, {(0, 1, 0, 0): 1, (0, 0, 0, 1): -2})
    assert parse("(T1 + 2*P + 4*T2)^2").total_degree() == 2
    assert len(parse("(T1 + 2*P + 4*T2)^2")) == 6


def test_whitespace_insensitive():
    assert parse("  T1+ 2 *T2 ") == parse("T1 + 2*T2")


def test_unary_minus_binds_before_caret():
    # Grammar quirk: '-' lives at the base level, so -T1^2 == (-T1)^2.
    assert parse("-T1^2") == parse("T1^2")
    assert parse("-T1^3") == -parse("T1^3")
    # Binary minus is unaffected.
    assert parse("1 - T1^2") == 1 - parse("T1^2")
    assert parse("-1*T1^2") == -parse("T1^2")


def test_nested_negation_and_parens():
    assert parse("--T1") == parse("T1")
    assert parse("-(T1 - T2)") == parse("T2 - T1")
    assert parse("((T1))^2") == parse("T1^2")


def test_rational_literals():
    assert parse("5/10*P") == parse("1/2*P")
    with pytest.raises(ParseError):
        parse("1/0")


def test_unknown_variable_error_position():
    with pytest.raises(ParseError) as info:
        parse("T1 + Q")
    assert info.value.position == 5
    assert "Q" in str(info.value)


def test_syntax_error_positions():
    with pytest.raises(ParseError) as info:
        parse("T1 + ")
    assert info.value.position == 5
    with pytest.raises(ParseError) as info:
        parse("T1 ^ P")
    assert info.value.position == 5
    with pytest.raises(ParseError) as info:
        parse("(T1")
    assert info.value.position == 3
    with pytest.raises(ParseError):
        parse("T1 T2")
    with pytest.raises(ParseError):
        parse("T1 $ T2")


def test_nesting_depth_limit():
    assert parse("(" * MAX_DEPTH + "P" + ")" * MAX_DEPTH) == parse("P")
    assert parse("-" * MAX_DEPTH + "P") == parse("P")
    with pytest.raises(ParseError) as info:
        parse("(" * (MAX_DEPTH + 1) + "P" + ")" * (MAX_DEPTH + 1))
    assert info.value.position == MAX_DEPTH
    # Parentheses and unary minus share one depth count.
    with pytest.raises(ParseError) as info:
        parse("-(" * (MAX_DEPTH // 2) + "-P" + ")" * (MAX_DEPTH // 2))
    assert info.value.position == MAX_DEPTH
    # Inputs far past the limit fail the same way, not with RecursionError.
    for text in ("(" * 3000 + "P" + ")" * 3000, "(" + "-" * 5000 + "P)"):
        with pytest.raises(ParseError):
            parse(text)


def test_division_only_inside_rationals():
    with pytest.raises(ParseError):
        parse("T1/2")


def test_other_variable_sets():
    p = parse("Theta^2 - 2*D*Delta", INVARIANT_VARS)
    assert p.vars == INVARIANT_VARS
    assert p.coefficient((2, 0, 0)) == 1
    assert p.coefficient((0, 1, 1)) == -2
    with pytest.raises(ParseError):
        parse("T1", INVARIANT_VARS)


def test_parse_format_round_trip_random():
    rng = random.Random(20240818)
    for _ in range(60):
        p = random_poly(rng)
        assert parse(format_polynomial(p)) == p
    # Adversarial shapes for the leading-sign rules.
    for text in ("-T1", "-xi^2", "-1/2*P^3", "-xi*T1^2"):
        p = parse(text)
        assert parse(format_polynomial(p)) == p


def test_literals_are_ascii_digits_only():
    # Superscripts and other scripts' digits pass str.isdigit but are not
    # literals of the grammar.
    for text, position in (("T1^²", 3), ("٣*T1", 0), ("2٣", 1), ("T1^1¹", 4)):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position


def up_to_degree(bound):
    """A ``reduce`` for :func:`parse` that keeps the terms of degree ``bound`` and below."""
    return lambda p: Polynomial(p.vars, {e: c for e, c in p.terms.items() if sum(e) <= bound})


def test_max_degree_truncates_products_and_powers():
    # Huge exponents cost their bit length once terms past the bound drop.
    assert parse("(T1+P)^100000000", reduce=up_to_degree(4)).is_zero()
    assert parse("P^100000000", reduce=up_to_degree(4)).is_zero()
    assert parse("T1^3*P^3 + xi", reduce=up_to_degree(5)) == parse("xi")
    full = parse("(1 + xi - 2*T1 + 1/3*P)^7")
    for bound in range(9):
        expected = {e: c for e, c in full.terms.items() if sum(e) <= bound}
        assert parse("(1 + xi - 2*T1 + 1/3*P)^7", reduce=up_to_degree(bound)).terms == expected
    assert parse("(1+P)^100000000", reduce=up_to_degree(1)) == parse("1 + 100000000*P")
    # Without a bound, powers by squaring give the plain expansion.
    assert parse("(xi - T1 + 2*P)^11") == parse("xi - T1 + 2*P") ** 11


def test_the_parser_multiplies_only_normal_forms(monkeypatch):
    # With the ring's normal form as reduce, every product and every step
    # of a power starts from reduced factors: no monomial that reduction
    # would rewrite or drop is ever multiplied.
    ctx = make_context(3)
    text = "(1 + xi - 2*T1)^7*(P + T2)^3 + xi*P^4*(T1 - 1/2)^99 - (xi + T2)^5*T1*(2 - P)"
    factors = []
    multiply = Polynomial.__mul__

    def recording(a, b):
        if isinstance(b, Polynomial):
            factors.extend((a, b))
        return multiply(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", recording)
    reduced = parse(text, reduce=ctx.normal_form)
    monkeypatch.undo()
    assert reduced == ctx.normal_form(parse(text))
    assert len(factors) > 20
    assert [p for p in factors if ctx.normal_form(p) != p] == []


def test_power_bounds_the_growth_of_its_constant_term():
    # exponent * (bit length of the constant term - 1) may not pass the
    # bound; the error points at the '^'.
    for text, position in (
        ("2^100000000", 1),
        ("(2+T1)^100000000", 6),
        ("(1/2)^100000000", 5),
        ("(T1 - 3)^100000000", 8),
        (f"2^{MAX_POWER_BITS + 1}", 1),
    ):
        with pytest.raises(ParseError, match="power") as info:
            parse(text, reduce=up_to_degree(5))
        assert info.value.position == position
    assert parse(f"2^{MAX_POWER_BITS}") == Polynomial.constant(RING_VARS, 2**MAX_POWER_BITS)
    # Constant terms of bit length 1, and no constant term, grow nothing.
    assert parse("(1+T1)^100000000", reduce=up_to_degree(2)) == parse("1 + 100000000*T1 + 4999999950000000*T1^2")
    assert parse("(-1+P)^100000001", reduce=up_to_degree(0)) == parse("-1")
    assert parse("(2*T1)^100000000", reduce=up_to_degree(5)).is_zero()
    assert parse("(1/2+xi)^40") == parse("1/2+xi") ** 40


def test_powers_are_bounded_when_reduce_kills_no_power():
    # With a reduce under which no power of the non-constant part vanishes,
    # the binomial ladder stops at the first summand past the bound, and a
    # power with no constant term is taken by squaring.
    import time

    for text, expected in (("(1+T1)^100000000", None), ("T1^100000000", Polynomial.monomial(RING_VARS, (0, 100000000, 0, 0)))):
        start = time.perf_counter()
        if expected is None:
            with pytest.raises(ParseError, match="coefficients") as info:
                parse(text, reduce=lambda p: p)
            assert info.value.position == 6
        else:
            assert parse(text, reduce=lambda p: p) == expected
        assert time.perf_counter() - start < 2


def test_coefficients_are_bounded_at_their_operator():
    # Literals are refused by length before int() reads them; sums,
    # products and powers when a coefficient passes the bound, at the
    # operator, with or without a degree bound.
    big = "9" * 3000  # about 9,966 bits
    for text, position in (
        ("0" * 5000 + "1", 0),
        (f"T1 + 1/{big} + 1/{big[:-1]}8", 3008),
        (f"{big}*{big}", 3000),
        (f"(1 + {big}*T1)^2", 3009),
    ):
        for reduce in (None, up_to_degree(5)):
            with pytest.raises(ParseError) as info:
                parse(text, reduce=reduce)
            assert info.value.position == position
    # The binomial sum's scalars C(n,k) * c^(n-k) are bounded as well.
    with pytest.raises(ParseError) as info:
        parse(f"(1 + T1)^{big}", reduce=up_to_degree(5))
    assert info.value.position == 8
    # Squaring, with no degree bound, stops as soon as a coefficient passes.
    with pytest.raises(ParseError) as info:
        parse("(2*P)^100000000")
    assert info.value.position == 5
    assert parse(f"{big} + 1") == Polynomial.constant(RING_VARS, int(big) + 1)
