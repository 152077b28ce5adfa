"""Polynomial engine: exact arithmetic, grading, substitution, formatting.

Random-input properties are checked through the evaluation homomorphism:
evaluating at rational points turns polynomial identities into field
identities, giving an oracle that does not reuse the code under test.
"""

import json
import random
from fractions import Fraction

import pytest

from chowkit import (
    INVARIANT_VARS,
    RING_VARS,
    Polynomial,
    d_grade,
    d_graded_piece,
    format_polynomial,
    parse,
    polynomial_from_json,
)


def random_poly(rng, variables=RING_VARS, max_exp=3, terms=5, max_den=4):
    data = {}
    for _ in range(rng.randint(0, terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in variables)
        data[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, max_den))
    return Polynomial(variables, data)


def random_point(rng, variables=RING_VARS):
    return {v: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for v in variables}


def test_zero_coefficients_dropped():
    p = Polynomial(RING_VARS, {(1, 0, 0, 0): Fraction(0), (0, 1, 0, 0): 2})
    assert len(p) == 1
    assert p.coefficient((0, 1, 0, 0)) == 2


def test_bad_exponents_rejected():
    with pytest.raises(ValueError):
        Polynomial(RING_VARS, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(RING_VARS, {(-1, 0, 0, 0): 1})
    for exponent in (2.0, True):  # T1^2.0 would print as text that parse refuses
        with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
            Polynomial.monomial(RING_VARS, (0, exponent, 0, 0))


def test_immutability():
    p = Polynomial.variable(RING_VARS, "T1")
    with pytest.raises(AttributeError):
        p.vars = ("x",)


def test_variable_set_mismatch():
    p = Polynomial.variable(RING_VARS, "T1")
    q = Polynomial.variable(INVARIANT_VARS, "Theta")
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q


def test_constants_hash_as_their_scalars():
    # Equal values hash alike: a constant polynomial equals its scalar.
    c = Polynomial.constant(RING_VARS, 3)
    assert c == 3 and hash(c) == hash(3)
    assert c in {3} and len({c, 3}) == 1
    half = Polynomial.constant(INVARIANT_VARS, Fraction(1, 2))
    assert half in {Fraction(1, 2)}
    zero = Polynomial.zero(RING_VARS)
    assert zero == 0 and zero in {0} and len({zero, 0}) == 1
    t1 = Polynomial.variable(RING_VARS, "T1")
    assert hash(t1 + 1) == hash(Polynomial.variable(RING_VARS, "T1") + 1)


def test_arithmetic_via_evaluation():
    # Products and powers run on combine's integer kernel, which scales by
    # lcm(denominators)^E and divides back; evaluation stays on Fractions.
    rng = random.Random(20240817)
    for variables in (RING_VARS, INVARIANT_VARS, ()):
        for i in range(40):
            p = Polynomial.zero(variables) if i == 0 else random_poly(rng, variables, max_den=8)
            q = Polynomial.zero(variables) if i == 1 else random_poly(rng, variables, max_den=8)
            point = random_point(rng, variables)
            assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
            assert (p - q).evaluate(point) == p.evaluate(point) - q.evaluate(point)
            assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
            assert (3 * p - q * 2).evaluate(point) == 3 * p.evaluate(point) - 2 * q.evaluate(point)
            for exponent in (0, 1, 3, 5):
                assert (p**exponent).evaluate(point) == p.evaluate(point) ** exponent


def test_pow_zero_is_one():
    p = parse("T1 + 2*P")
    assert p**0 == Polynomial.constant(RING_VARS, 1)
    with pytest.raises(ValueError):
        p ** (-1)


def test_monomial_power_is_closed_form():
    for text in ("T1", "-2/3*xi*P^2", "5"):
        p = parse(text)
        for exponent in (0, 1, 2, 7):
            product = Polynomial.constant(RING_VARS, 1)
            for _ in range(exponent):
                product = product * p
            assert p**exponent == product
    assert Polynomial.monomial((), (), Fraction(-1, 2)) ** 3 == Polynomial.constant((), Fraction(-1, 8))
    # Took one product per unit of the exponent.
    import time

    start = time.perf_counter()
    power = parse("T1") ** 100_000_000
    assert time.perf_counter() - start < 1
    assert power == Polynomial.monomial(RING_VARS, (0, 100_000_000, 0, 0))


def test_binomial_square_term_count():
    p = parse("(T1 + 2*P + 4*T2)^2")
    assert len(p) == 6
    assert p.coefficient((0, 0, 2, 0)) == 4
    assert p.coefficient((0, 1, 1, 0)) == 4


def test_graded_pieces_sum_back():
    rng = random.Random(5)
    for _ in range(20):
        p = random_poly(rng)
        pieces = p.graded_pieces()
        assert all(piece.is_homogeneous() for piece in pieces.values())
        total = Polynomial.zero(RING_VARS)
        for piece in pieces.values():
            total = total + piece
        assert total == p
        for k, piece in pieces.items():
            assert p.graded_piece(k) == piece


def test_d_grading():
    assert d_grade((0, 2, 1, 0)) == 2
    assert d_grade((0, 0, 0, 3)) == -3
    with pytest.raises(ValueError):
        d_grade((1, 0, 0, 0))
    p = parse("T1^2*P + T1*T2 + P^3")
    assert d_graded_piece(p, 2) == parse("T1^2*P")
    assert d_graded_piece(p, 0) == parse("T1*T2 + P^3")
    assert d_graded_piece(p, 1).is_zero()


def test_substitute_shift_example():
    p = parse("T1^2")
    image = p.substitute({"T1": parse("T1 + P + T2")})
    assert image == parse("(T1 + P + T2)^2")


def test_substitute_identity_on_unlisted():
    p = parse("xi*T1 + P")
    assert p.substitute({}) == p


def test_substitute_scalar_images():
    p = parse("xi*T1 + P^2")
    assert p.substitute({"xi": 0}) == parse("P^2")
    assert p.substitute({"P": Fraction(1, 2), "xi": 1}) == parse("T1 + 1/4")


def test_substitute_composition_via_evaluation():
    rng = random.Random(99)
    for _ in range(15):
        p = random_poly(rng, terms=4, max_exp=2)
        images = {"T1": random_poly(rng, terms=3, max_exp=2), "P": random_poly(rng, terms=3, max_exp=2)}
        point = random_point(rng)
        substituted_point = dict(point)
        for name, image in images.items():
            substituted_point[name] = image.evaluate(point)
        assert p.substitute(images).evaluate(point) == p.evaluate(substituted_point)


def test_substitute_mixed_varsets_rejected():
    p = parse("T1")
    with pytest.raises(ValueError):
        p.substitute({"T1": Polynomial.variable(INVARIANT_VARS, "Theta"), "P": parse("P")})


def test_substitute_into_other_varset():
    # All variables mapped: target variable set may differ from the source.
    theta = Polynomial.variable(INVARIANT_VARS, "Theta")
    p = Polynomial(("x",), {(2,): 1})
    image = p.substitute({"x": theta})
    assert image == theta * theta


def test_format_fixtures():
    assert format_polynomial(Polynomial.zero(RING_VARS)) == "0"
    assert format_polynomial(parse("1/2*xi*T1")) == "1/2*xi*T1"
    assert format_polynomial(parse("P^2 + 2*T1*T2 - T2")) == "2*T1*T2 + P^2 - T2"
    assert format_polynomial(parse("T1^2"), "latex") == "T1^{2}"
    assert format_polynomial(parse("xi*P^3"), "latex") == r"\xi P^{3}"
    assert format_polynomial(parse("-1/2*T1"), "latex") == r"-\frac{1}{2} T1"
    assert format_polynomial(Polynomial.zero(RING_VARS), "latex") == "0"
    with pytest.raises(ValueError):
        format_polynomial(parse("T1"), "html")


def test_format_leading_negative_unit_is_reparseable():
    # Unary minus binds before '^' in the grammar, so "-T1^2" would mean
    # (-T1)^2; the formatter must print an explicit coefficient instead.
    p = -parse("T1^2")
    text = format_polynomial(p)
    assert parse(text) == p


def test_json_round_trip_and_schema():
    p = parse("1/2*xi*T1 - 3*T2^2")
    payload = json.loads(format_polynomial(p, "json"))
    assert payload["vars"] == list(RING_VARS)
    assert all(set(term) == {"coeff", "exps"} for term in payload["terms"])
    assert payload["terms"][0] == {"coeff": "1/2", "exps": [1, 1, 0, 0]}
    assert polynomial_from_json(payload) == p
    assert polynomial_from_json(format_polynomial(p, "json")) == p


def test_json_round_trip_random():
    rng = random.Random(31)
    for _ in range(20):
        p = random_poly(rng)
        assert polynomial_from_json(format_polynomial(p, "json")) == p


@pytest.mark.parametrize("exponent", [1.9, True, "2"], ids=repr)
def test_json_refuses_exponents_that_are_not_ints(exponent):
    # int() would read these as 1, 1 and 2.  A true after an equal 1 would
    # merge into that term's key, so the exponents are checked as read.
    for terms in ([], [{"coeff": "1", "exps": [0, 1, 0, 0]}]):
        payload = {"vars": list(RING_VARS), "terms": [*terms, {"coeff": "1", "exps": [0, exponent, 0, 0]}]}
        with pytest.raises(ValueError, match="exponents must be nonnegative integers"):
            polynomial_from_json(payload)


def test_evaluate_requires_all_variables():
    p = parse("T1 + P")
    with pytest.raises(ValueError):
        p.evaluate({"T1": 1})


# -------------------------------------------------------------------- combine


def naive_combine(terms, images, zero):
    total = zero
    for exps, coeff in terms.items():
        term = images[0] ** 0
        for image, e in zip(images, exps):
            for _ in range(e):
                term = term * image
        total = total + coeff * term
    return total


def combine_cases():
    rng = random.Random(61)
    free = [Polynomial.variable(INVARIANT_VARS, v) for v in INVARIANT_VARS]
    polys = [random_poly(rng, RING_VARS, max_exp=2, terms=3) for _ in range(3)]
    return [
        (free, Polynomial.zero(INVARIANT_VARS)),
        ([free[0] - free[1] / 8, free[1], free[2] - 2 * free[0] * free[1]], Polynomial.zero(INVARIANT_VARS)),
        (polys, Polynomial.zero(RING_VARS)),
        # Images built from one another, and constant images.
        ([polys[0] * polys[1] + polys[2], polys[1], polys[0]], Polynomial.zero(RING_VARS)),
        ([polys[2], polys[0] - polys[2], Polynomial.zero(RING_VARS)], Polynomial.zero(RING_VARS)),
        ([Polynomial.constant(RING_VARS, c) for c in (Fraction(3, 2), Fraction(-2), Fraction(5, 7))], Polynomial.zero(RING_VARS)),
        # Terms of exponents up to 6: denominators 2, 3 and 8; a zero image;
        # images with a constant term.
        ([parse("1/2*T1 + P"), parse("1/3*P - T2"), parse("1/8*T2 - T1 + 3/8*xi")], Polynomial.zero(RING_VARS)),
        ([Polynomial.zero(RING_VARS), parse("1/2 + 1/3*T1"), parse("5 - 1/8*P*T2")], Polynomial.zero(RING_VARS)),
        ([Polynomial.constant(INVARIANT_VARS, Fraction(3, 4)), free[0] - free[1] / 8 + 1, free[2] / 3], Polynomial.zero(INVARIANT_VARS)),
    ]


@pytest.mark.parametrize("case", range(9))
def test_combine_matches_naive_sum(case):
    from chowkit.poly import combine

    images, zero = combine_cases()[case]
    top = 6 if case >= 6 else 2
    rng = random.Random(case)
    terms = {(0, 0, 0): Fraction(-5, 3), (top, top, top): Fraction(1, 7)}
    for _ in range(6):
        terms[tuple(rng.randint(0, top) for _ in range(3))] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    assert combine(terms, images) == naive_combine(terms, images, zero)
    assert combine({(0, 0, 0): 4}, images) == naive_combine({(0, 0, 0): 4}, images, zero)
    assert combine({}, images) == zero


def test_combine_rejects_mixed_variable_sets():
    from chowkit.poly import combine

    images = [Polynomial.variable(RING_VARS, "T1"), Polynomial.variable(INVARIANT_VARS, "D")]
    with pytest.raises(ValueError):
        combine({(1, 1): 1}, images)


def test_substitute_and_evaluate_of_zero():
    zero = Polynomial.zero(RING_VARS)
    image = Polynomial.variable(INVARIANT_VARS, "D")
    assert zero.substitute({v: image for v in RING_VARS}) == Polynomial.zero(INVARIANT_VARS)
    value = zero.evaluate({v: 3 for v in RING_VARS})
    assert value == 0 and isinstance(value, Fraction)
    constant = parse("3/2", ())
    assert constant.substitute({}) == constant
    assert constant.evaluate({}) == Fraction(3, 2)
    assert parse("0", ()).evaluate({}) == 0


def test_internal_results_stay_clean_and_constructor_still_validates():
    # Sums, products, negation and graded pieces skip re-validation but
    # must still drop every cancelled term.
    t1, p = Polynomial.variable(RING_VARS, "T1"), Polynomial.variable(RING_VARS, "P")
    assert ((t1 + p) * (t1 - p)).terms == {(0, 2, 0, 0): 1, (0, 0, 2, 0): -1}
    assert (t1 - t1).terms == {} and (t1 * 0).terms == {}
    assert (-(t1 + 1)).graded_piece(1).terms == {(0, 1, 0, 0): -1}
    assert all(c for piece in ((t1 + p) ** 3 - t1**3).graded_pieces().values() for c in piece.terms.values())
    for exps in ((1, 0, 0), (0, 1, 0, 0, 0), (0, 0, -1, 0), (2, 0, 0, -3)):
        with pytest.raises(ValueError):
            Polynomial(RING_VARS, {exps: 1})


def test_exact_fraction_reads_exact_text_past_the_digit_limit():
    from chowkit.poly import exact_fraction, exact_text

    values = [0, -7, Fraction(-3, 4), 10**9000, -(10**9000) + 1, 3**20000, Fraction(7**6000, 3 * 10**5000)]
    assert [exact_fraction(exact_text(value)) for value in values] == values
    assert exact_fraction(" 1.5 ") == Fraction(3, 2)
    # Long text that is not an exact_text form is refused, not split and misread.
    for text in ("1" * 3000 + "-" + "2" * 3000, "1" * 5000 + ".5", "1" * 5000 + "/", "-" * 2 + "1" * 5000):
        with pytest.raises(ValueError):
            exact_fraction(text)


def test_every_format_prints_past_the_digit_limit():
    # Text, JSON and repr raised CPython's int-to-string digit limit once a
    # coefficient had more than 4,300 digits; LaTeX printed.  int("7" * 5000)
    # would hit the limit too, so the integers are built arithmetically.
    from chowkit.poly import exact_text

    numerator, denominator = 7 * (10**5000 - 1) // 9, 2**14614
    coeff = Fraction(-numerator, denominator)
    assert (len(exact_text(numerator)), len(exact_text(denominator))) == (5000, 4400)
    p = Polynomial(RING_VARS, {(1, 2, 0, 0): coeff, (0, 0, 1, 0): 3})
    text = format_polynomial(p)
    assert text == f"-{exact_text(-coeff)}*xi*T1^2 + 3*P"
    assert format_polynomial(p, "latex").startswith(rf"-\frac{{{exact_text(numerator)}}}{{{exact_text(denominator)}}}")
    assert repr(p) == f"Polynomial({text!r})"
    assert json.loads(format_polynomial(p, "json"))["terms"][0]["coeff"] == exact_text(coeff)
    assert polynomial_from_json(format_polynomial(p, "json")) == p
