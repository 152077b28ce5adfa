"""Expression parser: grammar fixtures, error positions, format round trips."""

import operator
import random
from fractions import Fraction

import pytest

from chowkit import INVARIANT_VARS, ParseError, Polynomial, RING_VARS, format_polynomial, parse
from chowkit.parsing import MAX_DEPTH, MAX_POWER_BITS, MAX_TERM_PAIRS
from chowkit.poly import polynomial_from_json
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


def up_to_degree(bound=None):
    """A ``ring`` for :func:`parse`, on ``(scale, {exponents: numerator})``
    pairs, that keeps the terms of degree ``bound`` and below (all of them
    with no bound)."""

    class UpToDegree:
        def multiply_numerators(self, a, b):
            out = {}
            for e1, v1 in a[1].items():
                for e2, v2 in b[1].items():
                    e = tuple(map(operator.add, e1, e2))
                    if bound is None or sum(e) <= bound:
                        out[e] = out.get(e, 0) + v1 * v2
            return a[0] * b[0], out

        def linear_product_numerators(self, factors):
            # The bases' terms have degree 1, so the product of their n-th powers is homogeneous of degree sum(n).
            if bound is not None and sum(n for _, n in factors) > bound:
                return 1, {}
            scale, product = 1, Polynomial.constant(RING_VARS, 1)
            for base, n in factors:
                scale, product = scale * base[0] ** n, product * Polynomial(RING_VARS, base[1]) ** n
            return scale, {e: int(c) for e, c in product.terms.items()}

    return UpToDegree()


def pair_polynomial(pair):
    """The :class:`Polynomial` over ``RING_VARS`` of a ``(scale, {exponents: numerator})`` pair."""
    scale, terms = pair
    return Polynomial(RING_VARS, {e: Fraction(v, scale) for e, v in terms.items()})


def test_max_degree_truncates_products_and_powers():
    # Huge exponents cost their bit length once terms past the bound drop: a
    # base of degree-1 terms goes to the ring's power, any other is squared.
    assert parse("(T1+P)^100000000", ring=up_to_degree(4)).is_zero()
    assert parse("P^100000000", ring=up_to_degree(4)).is_zero()
    assert parse("(T1*P+P^2)^100000000", ring=up_to_degree(4)).is_zero()
    assert parse("(T1^2)^100000000", ring=up_to_degree(4)).is_zero()
    assert parse("T1^3*P^3 + xi", ring=up_to_degree(5)) == parse("xi")
    full = parse("(1 + xi - 2*T1 + 1/3*P)^7")
    for bound in range(9):
        expected = {e: c for e, c in full.terms.items() if sum(e) <= bound}
        assert parse("(1 + xi - 2*T1 + 1/3*P)^7", ring=up_to_degree(bound)).terms == expected
    assert parse("(1+P)^100000000", ring=up_to_degree(1)) == parse("1 + 100000000*P")
    # Without a bound, powers by squaring give the plain expansion.
    assert parse("(xi - T1 + 2*P)^11") == parse("xi - T1 + 2*P") ** 11


def test_the_parser_multiplies_only_normal_forms(monkeypatch):
    # With the ring's multiply and its product of linear powers, every
    # product, every step of a power and every base of a run of linear
    # factors is reduced: no monomial that reduction would rewrite or drop is
    # ever multiplied.
    ctx = make_context(3)
    text = "(1 + xi - 2*T1)^7*(P + T2)^3 + xi*P^4*(T1 - 1/2)^99 - (xi + T2)^5*T1*(2 - P)"
    text += " + 3*(T1 - xi)^2*(P - 2*T2)*T2*(1 + T1)^2"
    factors = []
    multiply, linear_product = ctx.multiply_numerators, ctx.linear_product_numerators

    def recording(a, b):
        factors.extend((a, b))
        return multiply(a, b)

    def recording_bases(pairs):
        factors.extend(base for base, _ in pairs)
        return linear_product(pairs)

    monkeypatch.setattr(ctx, "multiply_numerators", recording)
    monkeypatch.setattr(ctx, "linear_product_numerators", recording_bases)
    reduced = ctx.normal_form(parse(text, ring=ctx))
    monkeypatch.undo()
    assert reduced == ctx.normal_form(parse(text))
    assert len(factors) > 20
    assert [p for p in map(pair_polynomial, factors) if ctx.normal_form(p) != p] == []


def test_a_constant_factor_scales_without_a_ring_product(monkeypatch):
    # Every value is reduced already, so a constant operand only scales the
    # other one's numerators: no ring product, and the bit check still applies.
    ctx, calls = make_context(3), []
    monkeypatch.setattr(ctx, "multiply_numerators", lambda a, b: calls.append((a, b)))
    assert parse("2*xi*1/3 - 5*(T1 + P)*(-1) + 0*T2", ring=ctx) == parse("2/3*xi + 5*T1 + 5*P")
    assert calls == []
    with pytest.raises(ParseError, match="coefficients grow") as info:
        parse("2^10000*T1*2^10000", ring=ctx)
    assert info.value.position == 10 and calls == []


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
            parse(text, ring=up_to_degree(5))
        assert info.value.position == position
    assert parse(f"2^{MAX_POWER_BITS}") == Polynomial.constant(RING_VARS, 2**MAX_POWER_BITS)
    # Constant terms of bit length 1, and no constant term, grow nothing.
    assert parse("(1+T1)^100000000", ring=up_to_degree(2)) == parse("1 + 100000000*T1 + 4999999950000000*T1^2")
    assert parse("(-1+P)^100000001", ring=up_to_degree(0)) == parse("-1")
    # A linear form whose coefficients could pass the bound is squared, not expanded.
    assert parse("(2*T1)^100000000", ring=up_to_degree(5)).is_zero()
    assert parse("(1/2+xi)^40") == parse("1/2+xi") ** 40


def test_the_bit_bound_is_on_coefficients_in_lowest_terms():
    # Over one common scale this product holds the numerator 3*2^10000, past
    # 10,000 bits, but its coefficients in lowest terms, 3 and 9/2^10000, fit.
    text = "(2^10000*T1 + 3*P)*(1/2)^10000*3"
    expected = Polynomial(RING_VARS, {(0, 1, 0, 0): 3, (0, 0, 1, 0): Fraction(9, 2**10000)})
    for ring in (None, up_to_degree(), make_context(3)):
        assert parse(text, ring=ring) == expected
    for text, position in (("2^10000*2^10000", 7), ("2^10001", 1)):
        with pytest.raises(ParseError, match=f"past {MAX_POWER_BITS} bits") as info:
            parse(text)
        assert info.value.position == position
    assert parse("2^10000") == Polynomial.constant(RING_VARS, 2**10000)


def test_values_in_lowest_terms_pass_the_check_as_they_are():
    # A value whose scale and numerators share no factor, with no zero term,
    # keeps its terms, not a copy; otherwise the factor and the zero terms go.
    from chowkit.parsing import _Parser

    parser, t1, p = _Parser("", RING_VARS, None), (0, 1, 0, 0), (0, 0, 1, 0)
    value = (6, {t1: 4, p: 9})
    assert parser.checked(value, 0) == value and parser.checked(value, 0)[1] is value[1]
    assert parser.checked((6, {t1: 4, p: 0}), 0) == (3, {t1: 2})
    assert parser.checked((6, {t1: 4, p: 2}), 0) == (3, {t1: 2, p: 1})


def test_powers_are_bounded_when_reduce_kills_no_power():
    # With a ring under which no power of the non-constant part vanishes,
    # the binomial ladder stops at the first summand past the bound, a power
    # of a linear form is the ring's power, and any other power with no
    # constant term is taken by squaring.
    import time

    for text, expected in (
        ("(1+T1)^100000000", None),
        ("T1^100000000", Polynomial.monomial(RING_VARS, (0, 100000000, 0, 0))),
        ("(T1^2)^100000000", Polynomial.monomial(RING_VARS, (0, 200000000, 0, 0))),
    ):
        start = time.perf_counter()
        if expected is None:
            with pytest.raises(ParseError, match="coefficients") as info:
                parse(text, ring=up_to_degree())
            assert info.value.position == 6
        else:
            assert parse(text, ring=up_to_degree()) == expected
        assert time.perf_counter() - start < 2


def test_powers_with_a_constant_term_are_bounded_without_reduce():
    # Squaring (1+T1) with no reduce ran past 15 s; the binomial sum stops at
    # its first summand past the bound.
    import time

    start = time.perf_counter()
    with pytest.raises(ParseError, match="coefficients") as info:
        parse("(1+T1)^100000000")
    assert info.value.position == 6
    assert time.perf_counter() - start < 5


def test_unreduced_products_are_bounded_by_their_term_pairs():
    # With no reduce and no constant term, (T1+P)^20000 squared its way to
    # products of two 10,000-term powers and ran past 15 s; now the first
    # product past the bound is refused at its operator.
    import time

    start = time.perf_counter()
    with pytest.raises(ParseError, match="term pairs") as info:
        parse("(T1+P)^20000")
    assert info.value.position == 6
    assert time.perf_counter() - start < 5
    wide = "+".join(f"T1^{k}" for k in range(1001))
    with pytest.raises(ParseError, match="term pairs") as info:
        parse(f"({wide})*({wide})")
    assert info.value.position == len(wide) + 2
    # A ring lifts the bound: the CLI always passes one.
    assert 1001 * 1001 > MAX_TERM_PAIRS
    assert parse(f"({wide})*({wide})", ring=up_to_degree(2)) == parse("1 + 2*T1 + 3*T1^2")


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
        for ring in (None, up_to_degree(5)):
            with pytest.raises(ParseError) as info:
                parse(text, ring=ring)
            assert info.value.position == position
    # The binomial sum's scalars C(n,k) * c^(n-k) are bounded as well.
    with pytest.raises(ParseError) as info:
        parse(f"(1 + T1)^{big}", ring=up_to_degree(5))
    assert info.value.position == 8
    # Squaring, with no degree bound, stops as soon as a coefficient passes.
    with pytest.raises(ParseError) as info:
        parse("(2*P)^100000000")
    assert info.value.position == 5
    assert parse(f"{big} + 1") == Polynomial.constant(RING_VARS, int(big) + 1)


def test_number_literals_past_the_bit_bound_are_refused_at_the_literal():
    # The digit count alone lets a literal of up to about 11,000 bits through;
    # its value decides, for a numerator and a denominator alike.
    largest = 2 ** (MAX_POWER_BITS + 1) - 1
    assert parse(str(largest)) == Polynomial.constant(RING_VARS, largest)
    assert parse(f"1/{largest}") == Polynomial.constant(RING_VARS, Fraction(1, largest))
    for text in (str(largest + 1), f"1/{largest + 1}", "9" * 3300, "1/" + "9" * 3300):
        with pytest.raises(ParseError, match=f"past {MAX_POWER_BITS} bits") as info:
            parse(text)
        assert info.value.position == 0
    with pytest.raises(ParseError) as info:
        parse(f"T1 + {largest + 1}")
    assert info.value.position == 5


def test_text_round_trips_below_the_literal_bound_and_json_at_any_size():
    top = 2 ** (MAX_POWER_BITS + 1)
    fits = Polynomial(RING_VARS, {(0, 1, 0, 0): Fraction(top - 1, 3), (0, 0, 0, 1): Fraction(-1, top - 1)})
    assert parse(format_polynomial(fits)) == fits
    for coeff in (Fraction(top, 3), Fraction(-1, top), Fraction(10**4000 + 1, 3)):
        past = Polynomial(RING_VARS, {(0, 1, 0, 0): coeff})
        with pytest.raises(ParseError):
            parse(format_polynomial(past))
        assert polynomial_from_json(format_polynomial(past, "json")) == past
