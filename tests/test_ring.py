"""Quotient-ring contexts: relations, normal forms, duality, pushforwards,
the geometric operators and the invariant-class solver.

The relation set is checked against an evaluation oracle (the defining
auxiliary expansion evaluated at random rational points), the degrees built
from the socle functional against an elimination oracle, and the reduction
pipeline against hand-computed fixtures and the duality predictions for the
graded dimensions.
"""

import bisect
import functools
import hashlib
import random
import time
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from chowkit import (
    NotInSpanError,
    Polynomial,
    RING_VARS,
    boundary_zero_section,
    coefficient_table,
    d_graded_piece,
    degree_triples,
    extra_shift_invariant,
    factorial,
    format_polynomial,
    half_shift,
    invariant_basis_element,
    invariant_generators,
    involution,
    make_context,
    parse,
    q_class,
    restrict_infty,
    restrict_zero,
    shift,
)
from chowkit.arith import binomial
from chowkit.linalg import determinant, rref
from chowkit.parsing import MAX_POWER_BITS, ParseError
from chowkit.poly import d_grade
from chowkit.ring import _block, _monomials
from test_linalg import rank
from test_poly import random_poly

F = Fraction


# ------------------------------------------------------------------ relations


def test_relations_genus_1():
    ctx = make_context(1)
    assert ctx.relation(1) == parse("T1")
    assert ctx.relation(0) == parse("P")
    assert ctx.relation(-1) == parse("T2")


def test_relations_genus_2():
    ctx = make_context(2)
    assert ctx.relation(2) == parse("T1^2")
    assert ctx.relation(1) == parse("2*T1*P")
    assert ctx.relation(0) == parse("P^2 + 2*T1*T2")
    assert ctx.relation(-1) == parse("2*P*T2")
    assert ctx.relation(-2) == parse("T2^2")
    assert len(ctx.relations) == 5


@pytest.mark.parametrize("g", range(1, 7))
def test_relation_count_and_homogeneity(g):
    ctx = make_context(g)
    assert len(ctx.relations) == 2 * g + 1
    for l in ctx.relation_grades:
        rel = ctx.relation(l)
        assert rel.is_homogeneous() and rel.total_degree() == g
        assert d_graded_piece(rel, l) == rel
        for other in ctx.relation_grades:
            if other != l:
                assert d_graded_piece(rel, other).is_zero()


@pytest.mark.parametrize("g", range(1, 6))
def test_relations_evaluation_oracle(g):
    # sum_l rel_l * n^(g-l) must equal (T1 + n*P + n^2*T2)^g for every n.
    ctx = make_context(g)
    rng = random.Random(400 + g)
    for _ in range(5):
        point = {
            "xi": F(0),
            "T1": F(rng.randint(-4, 4), rng.randint(1, 3)),
            "P": F(rng.randint(-4, 4), rng.randint(1, 3)),
            "T2": F(rng.randint(-4, 4), rng.randint(1, 3)),
        }
        for n in range(-3, 4):
            total = sum(ctx.relation(l).evaluate(point) * F(n) ** (g - l) for l in ctx.relation_grades)
            assert total == (point["T1"] + n * point["P"] + n * n * point["T2"]) ** g


def test_context_validation():
    for genus in (0, -2, True, 2.0):  # a bool or a float is not read as an int
        with pytest.raises(ValueError, match="genus must be a positive integer"):
            make_context(genus)
    ctx = make_context(2)
    with pytest.raises(ValueError):
        ctx.relation(3)
    with pytest.raises(ValueError):
        ctx.relation(-3)


# ------------------------------------------------------------------ normal form


def test_normal_form_pinned_fixture():
    assert format_polynomial(make_context(2).normal_form(parse("P^2"))) == "-2*T1*T2"


def test_normal_form_xi_folding():
    ctx = make_context(3)
    assert ctx.normal_form(parse("xi^2")) == parse("xi*P")
    assert ctx.normal_form(parse("xi^3")) == parse("xi*P^2")
    assert ctx.normal_form(parse("xi^2 - xi*P")).is_zero()
    # In genus 2 the P^2 inside xi*P^2 reduces further.
    assert make_context(2).normal_form(parse("xi^3")) == parse("-2*xi*T1*T2")


@pytest.mark.parametrize("g", range(1, 7))
def test_top_powers_vanish(g):
    ctx = make_context(g)
    assert ctx.is_zero(Polynomial.monomial(RING_VARS, (0, g, 0, 0)))
    assert not ctx.is_zero(Polynomial.monomial(RING_VARS, (0, g - 1, 0, 0)))
    assert ctx.is_zero(Polynomial.monomial(RING_VARS, (0, 0, 0, g)))


@pytest.mark.parametrize("g", range(1, 9))
def test_theta_power_times_poincare_vanishes(g):
    ctx = make_context(g)
    assert ctx.is_zero(Polynomial.monomial(RING_VARS, (0, g - 1, 1, 0)))


@pytest.mark.parametrize("g", range(1, 7))
def test_odd_poincare_powers_vanish(g):
    ctx = make_context(g)
    for p in range(g):
        monomial = Polynomial.monomial(RING_VARS, (0, g - 1 - p, 2 * p + 1, 0))
        assert ctx.is_zero(monomial)


@pytest.mark.parametrize("g", range(1, 6))
def test_parse_truncated_at_2g_minus_1_keeps_the_normal_form(g):
    # Degree d >= 2g lands in R_d or xi*R_(d-1), both zero; degree 2g-1
    # xi terms land in xi*R_(2g-2), which is not.
    ctx = make_context(g)
    assert ctx.dim_graded(2 * g - 1) == 0
    for text in (
        f"xi*P^{2 * g - 2}",
        f"(1 + xi - T1 + 2*P)^{2 * g + 1}",
        f"(xi + T2)^{g}*(T1 - P)^{g - 1} + xi^{2 * g}",
        f"(xi + T1)^{g}*(P + T2)^{g} + T1",
    ):
        assert ctx.normal_form(parse(text, ring=ctx)) == ctx.normal_form(parse(text))
    if g > 1:
        assert not ctx.normal_form(parse(f"xi*P^{2 * g - 2}")).is_zero()


def random_expression(rng, depth):
    """Text of the parser's grammar, ``depth`` levels of parentheses deep, with
    fractions, constant terms, unary minus, nested powers and sums of products."""
    if not depth:
        return rng.choice(("xi", "T1", "P", "T2", str(rng.randint(0, 9)), f"{rng.randint(1, 9)}/{rng.randint(2, 7)}"))
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = [f"({random_expression(rng, depth - 1)})" for _ in range(rng.randint(1, 2))]
        term = "*".join(f"{f}^{rng.randint(0, 2 * depth)}" if rng.random() < 0.5 else f for f in factors)
        terms.append(rng.choice(("", "-", "1/3*")) + term)
    return rng.choice((" + ", " - ")).join(terms)


@pytest.mark.parametrize("g", range(2, 10))
def test_parse_reduced_as_it_forms_is_the_normal_form_of_the_expansion(g):
    # The ring's pair product reduces every product as the parser forms it;
    # one normal form of the plain expansion is the oracle.
    ctx = make_context(g)
    rng = random.Random(3000 + g)
    for _ in range(40):
        text = random_expression(rng, 2)
        assert ctx.normal_form(parse(text, ring=ctx)) == ctx.normal_form(parse(text)), text


def linear_form(rng):
    """The text of a seeded ``x*xi + a*T1 + b*P + c*T2``, with zero coefficients and
    ``x = -b`` among them, some of them over a common denominator."""
    coeffs = [rng.choice((0, 0, 1, -1, 2, -3, 7)) for _ in range(4)]
    if rng.random() < 0.3:
        coeffs[0] = -coeffs[2] or 1  # then (l + x*P)^n lacks the monomials of l^n with a P
    text = " + ".join(f"({v})*{name}" for v, name in zip(coeffs, RING_VARS) if v) or "0"
    return f"1/{rng.randint(2, 5)}*({text})" if rng.random() < 0.2 else f"({text})"


@pytest.mark.parametrize("g", range(1, 13))
def test_powers_of_a_linear_form_are_the_normal_form_of_the_expansion(g):
    # The parser takes the ring's power, one multinomial pass, for a base whose
    # terms all have degree 1; the hook-free expansion, normalized once, is the
    # oracle, on each side of the cuts at g, 2g-2, 2g-1 and 2g.
    ctx, rng, powers = make_context(g), random.Random(3600 + g), []
    original = ctx.linear_product_numerators
    ctx.linear_product_numerators = lambda factors: powers.extend(n for _, n in factors) or original(factors)
    exponents = {0, 1, g - 1, g, 2 * g - 2, 2 * g - 1, 2 * g, 2 * g + 1}
    for n in sorted(exponents):
        for _ in range(4):
            text = f"({linear_form(rng)})^{n}"  # the scaled forms are bases too
            assert parse(text, ring=ctx) == ctx.normal_form(parse(text)), text
    assert set(powers) == exponents
    # At n = 2g-1 only the xi part lives: xi times the socle.
    assert parse("(3*xi + T1 + 2*P + T2)^13", ring=make_context(7)) == parse("844536801384*xi*T1^6*T2^6")


def test_a_linear_form_power_past_the_bit_bound_is_squared():
    # When n times the bits less one of the base's largest numerator or scale
    # passes the bound, the parser squares instead of expanding: squaring
    # refuses the 3000-nines power at its '^' on its first product, whatever
    # n is, while a power that reduces to 0 before its coefficients pass is 0.
    nines = "9" * 3000
    ctx, powers = make_context(300), []
    original = ctx.linear_product_numerators
    ctx.linear_product_numerators = lambda factors: powers.extend(n for _, n in factors) or original(factors)
    for n in (598, 600):
        with pytest.raises(ParseError, match=f"coefficients grow past {MAX_POWER_BITS} bits") as info:
            parse(f"({nines}*T1+P)^{n}", ring=ctx)
        assert info.value.position == 3007
    assert set(powers) == {1}  # only the variables, reduced as the parser starts
    assert parse("(2^3000*T1)^4", ring=make_context(4)).is_zero()  # T1 is on the conic b^2 = ac: T1^g = 0
    # Below degree g nothing is rewritten: 2^n*T1^n for n = MAX_POWER_BITS fits, one more does not.
    ctx = make_context(MAX_POWER_BITS + 2)
    assert parse(f"(2*T1)^{MAX_POWER_BITS}", ring=ctx) == parse(f"2^{MAX_POWER_BITS}*T1^{MAX_POWER_BITS}")
    with pytest.raises(ParseError, match="coefficients grow") as info:
        parse(f"(2*T1)^{MAX_POWER_BITS + 1}", ring=ctx)
    assert info.value.position == 6


def test_a_product_of_linear_powers_refuses_a_term_that_is_not_of_degree_1():
    # (3 + T1)^2 and T1^2 are not powers of linear forms: their first term of
    # another degree is named, where reading only the degree-1 terms would
    # return T1^2 for the first and 0 for the second.
    ctx = make_context(5)
    with pytest.raises(ValueError, match=r"\(0, 0, 0, 0\)"):
        ctx.linear_product_numerators([((1, {(0, 0, 0, 0): 3, (0, 1, 0, 0): 1}), 2)])
    with pytest.raises(ValueError, match=r"\(0, 2, 0, 0\)"):
        ctx.linear_product_numerators([((1, {(0, 2, 0, 0): 1}), 1)])
    # Linear bases with xi, and an xi-free one among them, are the normal form of the expansion.
    factors = [((2, {(1, 0, 0, 0): 3, (0, 1, 0, 0): 1, (0, 0, 1, 0): -2, (0, 0, 0, 1): 5}), 3)]
    factors += [((1, {(1, 0, 0, 0): -1, (0, 0, 1, 0): 1}), 2), ((1, {(0, 1, 0, 0): 1, (0, 0, 1, 0): 1}), 2)]
    scale, terms = ctx.linear_product_numerators(factors)
    expected = ctx.normal_form(parse("(1/2*(3*xi + T1 - 2*P + 5*T2))^3 * (P - xi)^2 * (T1 + P)^2"))
    assert Polynomial(RING_VARS, {e: F(v, scale) for e, v in terms.items()}) == expected
    assert not expected.is_zero()


def linear_run(rng, total):
    """Two to four factors ``(base, exponent)``, bare variables and seeded forms (see
    :func:`linear_form`), the exponent ``None`` for some of those of degree 1, whose
    exponents sum to ``total``."""
    cuts = sorted(rng.randint(0, total) for _ in range(rng.randint(1, 3)))
    factors = []
    for n in (b - a for a, b in zip([0, *cuts], [*cuts, total])):
        base = rng.choice(RING_VARS) if rng.random() < 0.25 else f"({linear_form(rng)})"
        factors.append((base, None if n == 1 and rng.random() < 0.5 else n))
    return factors


def run_count(ctx, factors):
    """The number of maximal runs of two factors or more whose bases reduce under ``ctx``
    to nonzero values with all terms of degree 1."""
    count = length = 0
    for base, _ in [*factors, ("1", None)]:
        terms = parse(base, ring=ctx).terms
        count, length = (count, length + 1) if terms and all(sum(e) == 1 for e in terms) else (count + (length > 1), 0)
    return count


def recording_runs(ctx):
    """The lengths of the runs of two factors or more that ``ctx``'s product of linear powers is asked for."""
    runs, original = [], ctx.linear_product_numerators
    ctx.linear_product_numerators = lambda factors: (len(factors) > 1 and runs.append(len(factors))) or original(factors)
    return runs


@pytest.mark.parametrize("g", range(1, 13))
def test_runs_of_linear_factors_are_the_normal_form_of_the_expansion(g):
    # Each maximal run of linear factors, bare variables, linear forms and their
    # powers, is one call of the ring's product of linear powers, and a constant
    # or a non-linear factor ends it; the hook-free expansion, normalized once,
    # is the oracle, at run degrees on each side of g, 2g-2, 2g-1 and 2g.
    ctx, rng = make_context(g), random.Random(3700 + g)
    runs = recording_runs(ctx)
    others = [("2", None), ("1/3", None), ("(-5)", None), ("(1 + T1)", None), ("(1 - xi)", 3)]
    others += [("(T1^2 - xi)", None), ("(xi^2)", None), ("(T2^2 + P)", 2)]  # linear or 0 at small g, as run_count sees
    for total in sorted({g - 1, g, g + 1, 2 * g - 3, 2 * g - 2, 2 * g - 1, 2 * g, 2 * g + 1} - {-1}):
        for _ in range(4):
            first = rng.randint(0, total) if rng.random() < 0.5 else total
            terms = [linear_run(rng, first)]
            if first < total:
                terms[0] += [rng.choice(others), *linear_run(rng, total - first)]
            if rng.random() < 0.3:
                terms = [[rng.choice(others), *terms[0]], linear_run(rng, total)]
            text = " - ".join("*".join(b if n is None else f"{b}^{n}" for b, n in term) for term in terms)
            expected, before = sum(run_count(ctx, term) for term in terms), len(runs)
            assert parse(text, ring=ctx) == ctx.normal_form(parse(text)), text
            assert len(runs) - before == expected, text
    assert runs
    # A run's factors sum their degrees: xi*P^12*T2*(xi + T1) has degree 14 = 2g at g = 7.
    assert parse("xi*P^12*T2*(xi + T1)", ring=make_context(7)).is_zero()
    assert parse("(xi - P)*xi*(T1 + 2*P)^11", ring=make_context(7)).is_zero()  # xi*(xi - P) = 0


@pytest.mark.parametrize("g", range(2, 11))
def test_the_socle_of_a_product_of_linear_forms_is_its_apolar_value(g):
    # phi(NF(l_1 ... l_(2g-2))) = l_1(d) ... l_(2g-2)(d) F for F = (st - u^2)^(g-1)
    # (Iarrobino-Kanev, LNM 1721), with T1, P and T2 acting as d/ds, d/du and
    # d/dt and F differentiated directly, one form at a time.
    ctx, rng = make_context(g), random.Random(3800 + g)
    runs = recording_runs(ctx)
    forms = [[rng.choice((-5, -2, 1, 3)), rng.randint(-5, 5), rng.randint(-5, 5)] for _ in range(2 * g - 2)]  # none 0
    derivative = {(g - 1 - q, 2 * q, g - 1 - q): (-1) ** q * binomial(g - 1, q) for q in range(g)}  # s^p u^2q t^p
    for form in forms:
        out = {}
        for exponents, v in derivative.items():
            for axis, (w, e) in enumerate(zip(form, exponents)):
                if w and e:
                    lower = tuple(d - (i == axis) for i, d in enumerate(exponents))
                    out[lower] = out.get(lower, 0) + v * w * e
        derivative = {e: v for e, v in out.items() if v}
    text = "*".join(f"(({a})*T1 + ({b})*P + ({c})*T2)" for a, b, c in forms)
    assert ctx.socle_pushforward(parse(text, ring=ctx)) == derivative.get((0, 0, 0), 0)
    assert runs == [2 * g - 2]


def test_a_refused_run_keeps_the_position_of_its_first_refusal():
    # A run whose value is refused is taken again one factor at a time, so the
    # error is the one the first refused power or product gives, and it comes
    # before an error further right; a run past the bit bound takes that path
    # at once.
    ctx = make_context(50)
    runs = recording_runs(ctx)
    power = "(2^198*T1 + 2^199*P + 5*2^198*T2)^50"
    for text in (f"T1*{power}*P", f"T1*{power}*P*foo", f"xi*{power}*(P + T2"):
        with pytest.raises(ParseError, match=f"coefficients grow past {MAX_POWER_BITS} bits") as info:
            parse(text, ring=ctx)
        assert info.value.position == text.index(")^50") + 1, text
    assert runs == [3, 3, 2]
    assert parse("T1*(2^3000*T1)^3*T1", ring=make_context(4)).is_zero()  # 9000 bits, not refused
    ctx = make_context(2)
    runs = recording_runs(ctx)
    assert parse("(2^3000*P)^2*(2^3000*T2)^2", ring=ctx).is_zero() and runs == []  # 12000 bits: step by step


def test_only_the_value_of_a_run_is_held_to_the_bit_bound():
    # This power alone passes the bound, but times T1^28 it lands in the socle
    # with coefficients that fit (phi(l^30 m) = 30! (m(d)F)(a, b, c)), and the
    # run is not refused for the value of one of its factors.
    g, (a, b, c) = 30, (2**331, 2**332, 5 * 2**331)
    power = f"({a}*T1 + {b}*P + {c}*T2)^30"
    with pytest.raises(ParseError, match="coefficients grow"):
        parse(power, ring=make_context(g))
    value = parse(f"{power}*T1^28", ring=make_context(g))
    assert make_context(g).socle_pushforward(value) == factorial(30) * apolar_value(g, (28, 0, 0), (a, b, c)) != 0


def apolar_value(g, exponents, point):
    """``(m(d/ds, d/du, d/dt) F)(a, b, c)`` for ``F = (st - u^2)^(g-1)``, the monomial ``m =
    T1^i P^j T2^k`` and ``point = (a, b, c)``: termwise on ``F = sum_q C(g-1, q) (-u^2)^q (st)^(g-1-q)``."""
    (i, j, k), (a, b, c), total = exponents, point, 0
    for q in range(g):
        p = g - 1 - q
        if p >= max(i, k) and 2 * q >= j:
            falling = factorial(p) // factorial(p - i) * factorial(p) // factorial(p - k) * factorial(2 * q) // factorial(2 * q - j)
            total += binomial(g - 1, q) * (-1) ** q * falling * a ** (p - i) * b ** (2 * q - j) * c ** (p - k)
    return total


def test_apolar_value_is_the_socle_functional():
    # phi(m) for a monomial m of degree 2g-2 is the constant m(d)F.
    for g in range(1, 8):
        ctx = make_context(g)
        for _, i, j, k in _monomials(2 * g - 2):
            assert ctx.socle_pushforward(Polynomial.monomial(RING_VARS, (0, i, j, k))) == apolar_value(g, (i, j, k), (1, 1, 1))


@pytest.mark.parametrize("seed", range(6))
def test_the_socle_of_a_linear_form_power_is_its_apolar_value(seed):
    # phi(l^k m) = k! (m(d)F)(a, b, c) for l = a*T1 + b*P + c*T2 (Iarrobino-Kanev,
    # LNM 1721): at k = 2g-2, phi(l^(2g-2)) = (2g-2)! (ac - b^2)^(g-1), and on
    # the conic b^2 = ac, where l is a multiple of some l_n, l^g = 0.
    rng = random.Random(3660 + seed)
    for g in sorted(rng.sample(range(1, 61), 5)) + [60] * (seed == 0):
        ctx = make_context(g)
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        power = parse(f"(({a})*T1 + ({b})*P + ({c})*T2)^{2 * g - 2}", ring=ctx)
        assert ctx.socle_pushforward(power) == factorial(2 * g - 2) * (a * c - b * b) ** (g - 1)
        m, s, t = rng.randint(1, 5), rng.randint(-4, 4), rng.randint(-4, 4)
        on_conic = f"(({m * s * s})*T1 + ({m * s * t})*P + ({m * t * t})*T2)"
        assert parse(f"{on_conic}^{g}", ring=ctx).is_zero()
        assert parse(f"{on_conic}^{g - 1}", ring=ctx).is_zero() == (s == t == 0 < g - 1)


def built_degrees(ctx):
    """The top degree that each of the context's tables serves: a block of
    rank ``r`` and degree ``k`` is ``r + k - g + 1`` monomials wide."""
    return {ctx.genus - 1 + len(columns) for columns, _ in ctx._tables.values()}


def test_degrees_past_the_top_vanish_without_elimination():
    ctx = make_context(3)
    assert ctx.normal_form(parse("(T1+P)^60")).is_zero()
    assert ctx.normal_form(parse("xi*(T1+P)^60 + P")) == parse("P")
    assert ctx.normal_form(parse("xi*(T1+P)^60 + T1^3")) == ctx.normal_form(parse("T1^3"))
    # T1^3 is its own relation, a block of rank 0, which vanishes with no table.
    assert built_degrees(ctx) == set()


@pytest.mark.parametrize("g", range(5, 8))
def test_reduction_builds_no_degree_past_the_top(g):
    # R_k = 0 for k >= 2g-1 is used, not re-derived: reducing a product of
    # ceil(3g/2) linear forms, and a power of degree 2g-1 whose xi-free part
    # sits past the top, builds no degree at or past 2g-1.
    ctx = make_context(g)
    product = "*".join(f"(xi - {i}*T1 + 3*P - T2)" for i in range(-(-3 * g // 2)))
    for text in (product, f"(xi - 2*T1 + 3*P - T2)^{2 * g - 1}"):
        ctx.normal_form(parse(text, ring=ctx))
        assert max(built_degrees(ctx)) < 2 * g - 1
    assert 2 * g - 2 in built_degrees(ctx)


def recording_context(g, made):
    """A fresh context whose shapes' recurrences each append ``(shape, index)``
    to ``made`` for every column they yield."""

    def recorded(shape, recurrence):
        for index, column in enumerate(recurrence):
            made.append((shape, index))
            time.sleep(0)  # lets another thread run while a column is being added
            yield column

    class Recording(dict):
        def __setitem__(self, shape, table):
            columns, recurrence = table
            time.sleep(0)  # and while a shape is being added
            super().__setitem__(shape, (columns, recorded(shape, recurrence)))

    ctx = make_context(g)
    ctx._tables = Recording()
    return ctx


def test_concurrent_reductions_solve_each_block_once():
    # Threads share one context; its tables are grown under its lock, so a
    # column made twice (a lost update) would show as a second record of the
    # same shape and column index from the shape's recurrence.  Each thread
    # asks for the same widths in the same order, so the threads together
    # solve what one thread solves.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    solved = []
    g = 6
    p = parse(f"(xi - 2*T1 + 3*P - T2)^{2 * g - 1} + (T1 - P + 2*T2)^{2 * g - 2} + (T1 + P - 3*T2)^{g + 2}")
    expected = recording_context(g, solved).normal_form(p)
    alone = sorted(solved)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            ctx = recording_context(g, solved)
            solved.clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda _: ctx.normal_form(p), range(16), timeout=120))
            assert results == [expected] * 16
            assert sorted(solved) == alone and len(set(solved)) == len(solved) > 1
    finally:
        sys.setswitchinterval(interval)


def test_normal_form_is_linear_and_idempotent():
    ctx = make_context(3)
    rng = random.Random(52)
    for _ in range(10):
        p = random_poly(rng, max_exp=2)
        q = random_poly(rng, max_exp=2)
        assert ctx.normal_form(p + q) == ctx.normal_form(p) + ctx.normal_form(q)
        nf = ctx.normal_form(p)
        assert ctx.normal_form(nf) == nf


def test_normal_form_respects_products():
    ctx = make_context(2)
    rng = random.Random(53)
    for _ in range(10):
        p = random_poly(rng, max_exp=2, terms=3)
        q = random_poly(rng, max_exp=2, terms=3)
        assert ctx.normal_form(p * q) == ctx.normal_form(ctx.normal_form(p) * ctx.normal_form(q))


def ring_class(rng, ctx):
    """A random class for the multiply property: zero, a constant, or
    terms of mixed degrees, up to past ``2g-1``, with xi powers up to 3,
    and then reduced in one case of four."""
    g, shape = ctx.genus, rng.randrange(6)
    if shape == 0:
        return Polynomial.zero(RING_VARS)
    if shape == 1:
        return Polynomial.constant(RING_VARS, F(rng.randint(-9, 9), rng.randint(1, 4)))
    p = random_poly(rng, max_exp=rng.choice((1, 2, (g + 1) // 2, g)), terms=8)
    p += Polynomial.monomial(RING_VARS, (rng.randint(0, 3), 0, 0, 0), F(1, rng.randint(1, 3)))
    return ctx.normal_form(p) if shape == 2 else p


@pytest.mark.parametrize("g", range(1, 9))
def test_multiply_is_the_normal_form_of_the_product(g):
    ctx = make_context(g)
    rng = random.Random(1000 + g)
    for _ in range(60):
        a, b = ring_class(rng, ctx), ring_class(rng, ctx)
        assert ctx.multiply(a, b) == ctx.normal_form(a * b)
        assert ctx.multiply(b, a) == ctx.normal_form(a * b)
    # Past degree 2g-1 every product is 0 at once; at 2g-1 xi*R_(2g-2) is not.
    top = Polynomial.monomial(RING_VARS, (1, g - 1, 0, 0))
    assert ctx.multiply(top, Polynomial.monomial(RING_VARS, (0, 0, 0, g - 1))) == ctx.normal_form(parse(f"xi*T1^{g - 1}*T2^{g - 1}")) != 0
    assert ctx.multiply(top, Polynomial.monomial(RING_VARS, (0, 0, 0, g))).is_zero()
    with pytest.raises(ValueError):
        ctx.multiply(top, Polynomial.variable(("Theta",), "Theta"))


@st.composite
def below_g(draw, g):
    """A class whose every term ``xi^x T1^a P^b T2^c`` has xi-folded degree
    ``a + b + max(x-1, 0) + c`` below ``g``, where ``R_k`` is free."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        x = draw(st.integers(0, min(3, g)))
        n = draw(st.integers(0, g - 1 - max(x - 1, 0)))
        a = draw(st.integers(0, n))
        c = draw(st.integers(0, n - a))
        terms[(x, a, n - a - c, c)] = F(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
    return Polynomial(RING_VARS, terms)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(data=st.data(), g=st.integers(1, 8))
def test_below_g_reduction_only_folds_xi(data, g):
    ctx = shared_context(g)
    a, b = data.draw(below_g(g)), data.draw(below_g(g))
    folded = {}
    for (x, u, v, w), coeff in a.terms.items():
        e = (min(x, 1), u, v + max(x - 1, 0), w)
        folded[e] = folded.get(e, 0) + coeff
    assert ctx.normal_form(a).terms == Polynomial(RING_VARS, folded).terms
    assert ctx.multiply(a, b) == ctx.normal_form(a * b)


def test_normal_form_rejects_wrong_vars():
    from chowkit import INVARIANT_VARS

    ctx = make_context(2)
    with pytest.raises(ValueError):
        ctx.normal_form(Polynomial.variable(INVARIANT_VARS, "Theta"))


# ------------------------------------------------------------------ dimensions


def test_dims_fixture_genus_3():
    ctx = make_context(3)
    assert [ctx.dim_graded(k) for k in range(6)] == [1, 3, 6, 3, 1, 0]


@functools.cache
def shared_context(g):
    """One context per genus for the structure pins and the oracle, so each degree is built once."""
    return make_context(g)


@pytest.mark.parametrize("g", range(1, 13))
def test_dims_structure(g):
    ctx = shared_context(g)
    for k in range(g):
        assert ctx.dim_graded(k) == (k + 1) * (k + 2) // 2
    for k in range(2 * g - 1):
        assert ctx.dim_graded(k) == ctx.dim_graded(2 * g - 2 - k)
    assert ctx.dim_graded(2 * g - 2) == 1
    assert ctx.dim_graded(2 * g - 1) == 0
    assert ctx.dim_graded(2 * g + 3) == 0


@functools.cache
def eliminated_degree(g, k):
    """Oracle for one degree, by elimination with no use of ``phi``: every
    relation times every monomial of degree ``k - g``, reduced one d-grade
    block at a time.  Returns ``(basis, rewrite)`` in the form of
    ``RingContext.basis`` and :func:`degree_rewrites`."""
    ctx = shared_context(g)
    mons = _monomials(k)
    columns = {}
    for m in mons:
        columns.setdefault(d_grade(m), []).append(m)
    local = {m: j for block in columns.values() for j, m in enumerate(block)}
    blocks = {}
    for l, rel in zip(ctx.relation_grades, ctx.relations):
        for m in _monomials(k - g):
            grade = l + d_grade(m)
            row = [F(0)] * len(columns[grade])
            for e, c in rel.terms.items():
                row[local[(0, e[1] + m[1], e[2] + m[2], e[3] + m[3])]] = c
            blocks.setdefault(grade, []).append(row)
    rewrite = {}
    for grade, raw in blocks.items():
        block = columns[grade]
        for row, pivot in zip(*rref(raw)):
            rewrite[block[pivot]] = tuple((block[j], -c) for j, c in enumerate(row) if c and j != pivot)
    return tuple(m for m in mons if m not in rewrite), rewrite


def degree_rewrites(ctx, k):
    """The normal form of every non-basis monomial of degree ``k``, as its
    ``(monomial, coefficient)`` pairs in graded-lex order: the public path,
    with every monomial zero past the socle degree ``2g-2``."""
    basis = set(ctx.basis(k))
    return {m: tuple(sorted(ctx.normal_form(Polynomial.monomial(RING_VARS, m)).terms.items())) for m in _monomials(k) if m not in basis}


def swap(e):
    """The ``T1 <-> T2`` image of a monomial."""
    x, a, b, c = e
    return (x, c, b, a)


def swapped(p):
    """The ``T1 <-> T2`` image of a class."""
    return Polynomial(RING_VARS, {swap(e): c for e, c in p.terms.items()})


def solved_block(ctx, k, d):
    """The rewrites of block ``(k, d)`` solved on their own, as ``Fraction``s:
    by its relation in degree ``g``, else by the ``rref`` of its Gram matrix
    against the partner block."""
    g = ctx.genus
    if k == g:
        (lead, c0), *rest = sorted(ctx.relation(d).terms.items())
        return {lead: tuple((m, -c / c0) for m, c in rest)}
    block, r = _block(k, d), ctx._rank(k, d)
    rows, pivots = rref(ctx._gram(_block(2 * g - 2 - k, -d), block))
    assert pivots == list(range(r))
    return {block[j]: tuple((block[i], rows[i][j]) for i in reversed(range(r)) if rows[i][j]) for j in range(r, len(block))}


@pytest.mark.parametrize("g", range(1, 11))
def test_negative_d_grades_are_mirror_images(g):
    # I_g and phi are fixed by T1 <-> T2, which keeps P-exponents and so the
    # basis: block (k, -d) is the swap of block (k, d), and equals that block
    # solved on its own, though both read one table.  So reduction commutes
    # with the swap.
    ctx = make_context(g)
    for k in range(g, 2 * g - 1):
        rewrites = degree_rewrites(ctx, k)
        for d in range(1, k + 1):
            images, partner = ({m: v for m, v in rewrites.items() if d_grade(m) == s} for s in (d, -d))
            assert partner == {swap(m): tuple(sorted((swap(e), v) for e, v in image)) for m, image in images.items()}
            assert partner == solved_block(ctx, k, -d)
            assert images == solved_block(ctx, k, d)
    rng = random.Random(60 + g)
    for _ in range(20):
        p = random_poly(rng, max_exp=g, terms=8)
        assert ctx.normal_form(swapped(p)) == swapped(ctx.normal_form(p))


@pytest.mark.parametrize("g", range(1, 13))
def test_blocks_are_prefixes_of_their_shape_tables(g):
    # The image of the j-th monomial of a block depends only on its P-parity
    # e, its rank r and j: each block of degree g .. 2g-2 solved on its own,
    # read as steps down, is the first columns of the (e, r) table, whether
    # the table was built at that width (ascending degrees, the relation
    # fill in degree g) or wider first (descending).  A block of rank 0 is 0.
    for degrees in (range(g, 2 * g - 1), range(2 * g - 2, g - 1, -1)):
        ctx = make_context(g)
        for k in degrees:
            for d in range(-k, k + 1):
                block, r = _block(k, d), ctx._rank(k, d)
                solved = solved_block(ctx, k, d)
                if not r:
                    assert all(image == () for image in solved.values())
                    continue
                columns = ctx._table(block[0][2] % 2, r, len(block))
                assert len(columns) >= len(block) - r
                for j in range(r, len(block)):
                    steps = tuple((j - block.index(m), c) for m, c in solved[block[j]])
                    den, column = columns[j - r]
                    assert steps == tuple((t, F(n, den)) for t, n in column)


def hankel_table(ctx, e, r, width):
    """The columns of :meth:`RingContext._table`, each ``(den, steps)`` in
    lowest terms, by an ``rref`` of the ``r`` Hankel rows ``h(e+i+j)``,
    ``width`` wide, which must pivot on their first ``r`` columns."""
    h = [ctx._h(a) for a in range(e, e + r + width - 1)]
    rows, pivots = rref([h[i : i + width] for i in range(r)])
    assert pivots == list(range(r))
    columns = []
    for j in range(r, width):
        den = lcm(*(row[j].denominator for row in rows))
        columns.append((den, tuple((j - i, int(rows[i][j] * den)) for i in reversed(range(r)) if rows[i][j])))
    return columns


@pytest.mark.parametrize("g", [20, 30])
def test_recurrence_tables_match_the_hankel_rref(g):
    # Past the elimination oracle's genera: each shape (e, r), r >= 1 and
    # 2r + e <= g, is widest in degree 2g-2r-e, d-grade 0, at g-r-e+1
    # monomials, and its table there is the rref of its Hankel rows.
    ctx = make_context(g)
    for e in (0, 1):
        for r in range(1, (g - e) // 2 + 1):
            assert ctx._table(e, r, g - r - e + 1) == hankel_table(ctx, e, r, g - r - e + 1), (e, r)


def test_tables_grown_one_degree_at_a_time_make_each_column_once():
    # Asked for every block of every degree from g up, ascending, each table
    # grows a column or so at a time: its recurrence yields each column once,
    # kept, and the columns are those of a context that asked widest first.
    g, made = 30, []
    ctx = recording_context(g, made)
    for k in range(g, 2 * g - 1):
        for d in range(-k, k + 1):
            if r := ctx._rank(k, d):
                ctx._table((k - d) % 2, r, len(_block(k, d)))
    assert len(ctx._tables) == g - 1 and Counter(shape for shape, _ in made) == {s: len(c) for s, (c, _) in ctx._tables.items()}
    widest = make_context(g)
    for (e, r), (columns, _) in ctx._tables.items():
        assert len(columns) == g - r - e + 1 - r
        assert widest._table(e, r, g - r - e + 1) == columns, (e, r)


@pytest.mark.parametrize("g", [7, 9, 11])
def test_tables_grown_within_one_reduction_keep_each_blocks_denominator(g):
    # A shape spans degrees (k, |d|) with k + |d| fixed, so one reduction of
    # every monomial from degree g up widens tables after some of their blocks
    # were read: each block's images stay over the denominator it was read with.
    mons = [m for k in range(g, 2 * g - 1) for m in _monomials(k)]
    together = make_context(g).normal_form(Polynomial(RING_VARS, {m: 1 for m in mons}))
    ctx = make_context(g)
    assert together == sum((ctx.normal_form(Polynomial.monomial(RING_VARS, m)) for m in mons), Polynomial.zero(RING_VARS))


@pytest.mark.parametrize("g", range(1, 13))
def test_phi_construction_matches_elimination(g):
    ctx = shared_context(g)
    for k in range(2 * g + 1):
        assert (ctx.basis(k), degree_rewrites(ctx, k)) == eliminated_degree(g, k)
    assert max(built_degrees(ctx), default=0) < 2 * g - 1


@pytest.mark.parametrize("g", range(1, 17))
def test_hilbert_function_matches_elimination(g):
    ctx = shared_context(g)
    for k in range(2 * g):
        basis = eliminated_degree(g, k)[0]
        assert ctx.basis(k) == basis
        assert ctx.dim_graded(k) == len(basis)


@pytest.mark.parametrize("g", [2, 5, 9, 13])
def test_gram_blocks_are_hankel_with_product_form_minors(g):
    # The fact behind RingContext._rank: each phi block is the Hankel matrix
    # h(s+i+j), and its leading r x r minor is the product that Gauss's
    # continued fraction gives, nonzero for every r up to the rank.
    ctx = shared_context(g)

    def h(a):
        return (-1) ** a * factorial(g - 1) * factorial(g - 1 - a) * factorial(2 * a) // factorial(a)

    for k in range(g - 1, 2 * g - 1):
        for d in range(-k, k + 1):
            block = [m for m in reversed(_monomials(k)) if d_grade(m) == d]
            partner = [q for q in _monomials(2 * g - 2 - k) if d_grade(q) == -d][::-1]
            if not partner:
                continue
            s = (block[0][2] + partner[0][2]) // 2
            gram = ctx._gram(partner, block)
            assert gram == [[h(s + i + j) for j in range(len(block))] for i in range(len(partner))]
            A, B = s + F(1, 2), F(s + 1 - g)
            for r in range(1, ctx.dim_graded(k, d) + 1):
                product = h(s) ** r * 4 ** (r * (r - 1))
                for i in range(1, r):
                    odd = (A + i - 1) * (B + i - 2) / ((B + 2 * i - 3) * (B + 2 * i - 2))  # c_(2i-1)
                    even = i * (B - 1 - A + i) / ((B + 2 * i - 2) * (B + 2 * i - 1))  # c_(2i)
                    product *= (odd * even) ** (r - i)
                assert product != 0
                assert determinant([row[:r] for row in gram[:r]]) == product


def test_dims_bases_and_pairings_solve_no_block():
    g = 12
    ctx = make_context(g)
    for k in range(2 * g + 1):
        ctx.basis(k)
        ctx.dim_graded(k)
        for l in range(-k, k + 1):
            ctx.dim_graded(k, l)
    for k in range(g):
        ctx.pairing_matrix(k)
        ctx.pairing_determinant(k)
    assert ctx._tables == {}


@pytest.mark.parametrize("g", range(1, 17))
def test_nothing_past_the_socle(g):
    # Reduction drops every monomial of degree >= 2g-1 unchecked, and the
    # ring builds that degree as zero; this pins R_(2g-1) = 0 by elimination
    # (R is generated in degree 1, so every higher degree vanishes with it).
    assert eliminated_degree(g, 2 * g - 1)[0] == ()


@pytest.mark.parametrize("g", range(1, 11))
def test_relations_times_monomials_reduce_to_zero(g):
    # Ideal membership checked through the normal form alone, not through
    # phi: every relation times every monomial up to the degree g-2 that
    # lands in the socle degree.
    ctx = shared_context(g)
    for k in range(g - 1):
        for m in _monomials(k):
            for rel in ctx.relations:
                assert ctx.normal_form(rel * Polynomial.monomial(RING_VARS, m)).is_zero()


@pytest.mark.parametrize("g", range(1, 7))
def test_blockwise_echelon_matches_whole_degree_rref(g):
    # Reference: every shifted relation as one dense row over all monomials
    # of the degree, eliminated in a single rref.  Its nonpivot columns are
    # the basis, and the row of each pivot, negated off the pivot, is that
    # pivot monomial's rewrite.
    ctx = make_context(g)
    for k in range(2 * g + 1):
        monomials = [(0, a, b, k - a - b) for a in range(k + 1) for b in range(k - a + 1)]
        index = {m: i for i, m in enumerate(monomials)}
        shifts = [(a, b, k - g - a - b) for a in range(k - g + 1) for b in range(k - g - a + 1)]
        raw = []
        for rel in ctx.relations:
            for a, b, c in shifts:
                row = [F(0)] * len(monomials)
                for (_, x, y, z), coeff in rel.terms.items():
                    row[index[(0, x + a, y + b, z + c)]] = coeff
                raw.append(row)
        rows, pivots = rref(raw)
        assert ctx.basis(k) == tuple(m for i, m in enumerate(monomials) if i not in pivots)
        assert degree_rewrites(ctx, k) == {
            monomials[pivot]: tuple((monomials[j], -c) for j, c in enumerate(row) if c and j != pivot)
            for row, pivot in zip(rows, pivots)
        }


@pytest.mark.parametrize("g", range(1, 31))
def test_dims_d_graded_partition(g):
    # The sum of the block ranks is an oracle for the closed form C(m+2, 2).
    ctx = make_context(g)
    for k in range(2 * g + 2):
        total = sum(ctx.dim_graded(k, l) for l in range(-k, k + 1))
        assert total == ctx.dim_graded(k)


def test_context_at_genus_a_million_builds_nothing():
    # A context builds nothing up front: relations are read off the degree-g
    # blocks when asked and the graded dimensions are a closed form.
    import time

    start = time.perf_counter()
    ctx = make_context(10**6)
    assert time.perf_counter() - start < 0.5
    assert [ctx.dim_graded(k) for k in range(50)] == [(k + 1) * (k + 2) // 2 for k in range(50)]


@pytest.mark.parametrize("g", range(1, 11))
def test_dims_d_graded_poincare_symmetry(g):
    # The pairing between degrees k and 2g-2-k has d-grade 0 in the top
    # degree, so it matches d-grade l with d-grade -l.
    ctx = make_context(g)
    for k in range(2 * g - 1):
        for l in range(-k, k + 1):
            assert ctx.dim_graded(k, l) == ctx.dim_graded(2 * g - 2 - k, -l)


def test_dim_rejects_negative_degree():
    with pytest.raises(ValueError):
        make_context(2).dim_graded(-1)
    with pytest.raises(ValueError):
        make_context(2).dim_graded(-1, 0)
    with pytest.raises(ValueError):
        make_context(2).basis(-1)


@pytest.mark.parametrize("g", range(2, 7))
def test_socle_basis_monomial(g):
    ctx = make_context(g)
    assert ctx.basis(2 * g - 2) == ((0, g - 1, 0, g - 1),)


# ------------------------------------------------------------------ pushforward


def test_socle_pushforward_fixtures():
    ctx = make_context(3)
    assert ctx.socle_pushforward(parse("P^4")) == 24
    assert ctx.socle_pushforward(parse("T1^2*T2^2")) == 4
    assert ctx.socle_pushforward(parse("T1*P^2*T2")) == -4
    assert ctx.socle_pushforward(Polynomial.zero(RING_VARS)) == 0
    assert make_context(1).socle_pushforward(Polynomial.constant(RING_VARS, F(5, 2))) == F(5, 2)


@pytest.mark.parametrize("g", range(1, 7))
def test_socle_pushforward_formula(g):
    ctx = make_context(g)
    for a in range(g):
        monomial = Polynomial.monomial(RING_VARS, (0, g - 1 - a, 2 * a, g - 1 - a))
        expected = F((-1) ** a * factorial(g - 1) * factorial(2 * a) * factorial(g - 1 - a), factorial(a))
        assert ctx.socle_pushforward(monomial) == expected


@pytest.mark.parametrize("g", range(1, 17))
def test_socle_pushforward_annihilates_the_ideal(g):
    # The closed form is applied without reduction, so it must vanish on
    # I_g in the top degree: on every relation times every monomial of
    # degree g-2.
    ctx = make_context(g)
    for m in _monomials(g - 2):
        for rel in ctx.relations:
            assert ctx.socle_pushforward(rel * Polynomial.monomial(RING_VARS, m)) == 0


def reduced_pushforward(ctx, p):
    """The pushforward by reduction: rewrite ``p`` in the top-degree basis,
    whose monomials are balanced, and weight each by its pushforward."""
    g = ctx.genus
    total = F(0)
    for (_, x, y, z), coeff in ctx.normal_form(p).terms.items():
        assert y % 2 == 0 and x == z and x + y + z == 2 * g - 2
        a = y // 2
        total += coeff * F((-1) ** a * factorial(g - 1) * factorial(2 * a) * factorial(g - 1 - a), factorial(a))
    return total


@pytest.mark.parametrize("g", range(1, 9))
def test_socle_pushforward_matches_reduction(g):
    ctx = shared_context(g)
    for m in _monomials(2 * g - 2):
        p = Polynomial.monomial(RING_VARS, m)
        assert ctx.socle_pushforward(p) == reduced_pushforward(ctx, p)


@pytest.mark.parametrize("g", [30, 40, 60])
def test_reductions_have_no_phi_moments(g):
    # R is Gorenstein: a class of degree j <= 2g-2 and d-grade d is zero iff
    # phi of it times every monomial of degree 2g-2-j and d-grade -d is zero,
    # and R~ is free over R on 1 and xi.  So both xi-parts of p - normal_form(p),
    # xi^x folded to xi*P^(x-1), have every phi-moment zero: a check of single
    # reductions with no rref, relation or rewrite, past the elimination
    # oracle's genera.  Only the shapes of the blocks of non-basis monomials,
    # of nonzero rank, have tables, each as wide as the widest such block.
    ctx = make_context(g)
    rng = random.Random(70 + g)
    needed, nonzero = {}, 0
    for k in range(g, 2 * g - 1):
        p = Polynomial.zero(RING_VARS)
        for _ in range(2):  # up to three monomials of one block, so basis ones share it
            x = rng.randint(0, 3)
            _, a, _, c = rng.choice(_monomials(k - x))
            block = _block(k - x, a - c)
            for _, a, b, c in rng.sample(block, min(3, len(block))):
                p += Polynomial.monomial(RING_VARS, (x, a, b, c), F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)))
        folded = Polynomial.zero(RING_VARS)
        for (x, a, b, c), coeff in p.terms.items():
            folded += Polynomial.monomial(RING_VARS, (min(x, 1), a, b + max(x - 1, 0), c), coeff)
            y, r = b + max(x - 1, 0), ctx._rank(k - min(x, 1), a - c)
            if y // 2 >= r > 0:
                needed[(y % 2, r)] = max(needed.get((y % 2, r), 0), (k - min(x, 1) - abs(a - c)) // 2 + 1)
        residual = folded - ctx.normal_form(p)
        nonzero += not residual.is_zero()
        pieces = {}
        for (x, a, b, c), coeff in residual.terms.items():
            pieces.setdefault((x, a - c), {})[(0, a, b, c)] = coeff
        for (x, d), piece in pieces.items():
            for m in _block(2 * g - 2 - (k - x), -d):
                assert ctx.socle_pushforward(Polynomial(RING_VARS, piece) * Polynomial.monomial(RING_VARS, m)) == 0
    assert {shape: shape[1] + len(columns) for shape, (columns, _) in ctx._tables.items()} == needed
    assert nonzero > g // 2


def test_socle_pushforward_validation():
    ctx = make_context(3)
    with pytest.raises(ValueError):
        ctx.socle_pushforward(parse("T1"))
    with pytest.raises(ValueError):
        ctx.socle_pushforward(parse("xi*T1^3"))
    with pytest.raises(ValueError):
        ctx.socle_pushforward(parse("T1^4 + T1"))


def test_pairing_fixture_genus_2():
    ctx = make_context(2)
    assert ctx.pairing_matrix(1) == [[F(1)]]
    matrix = ctx.pairing_matrix(0)
    assert len(matrix) == 3 and determinant(matrix) != 0


@pytest.mark.parametrize("g", range(1, 13))
def test_pairing_nonsingular(g):
    ctx = shared_context(g)
    for k in range(g):
        matrix = ctx.pairing_matrix(k)
        assert len(matrix) == ctx.dim_graded(g - 1 - k)
        assert len(matrix[0]) == ctx.dim_graded(g - 1 + k)
        assert determinant(matrix) != 0


@pytest.mark.parametrize("g", range(1, 17))
def test_pairing_determinant_is_the_eliminated_determinant(g):
    # The closed form against the elimination it replaced in the CLI.
    ctx = shared_context(g)
    for k in range(g):
        assert ctx.pairing_determinant(k) == determinant(ctx.pairing_matrix(k))


@pytest.mark.parametrize("g", range(2, 6))
def test_balanced_multiplication_injective(g):
    # Multiplying the lower canonical basis by (T1*T2)^k stays independent.
    ctx = make_context(g)
    for k in range(1, g):
        lower = ctx.basis(g - 1 - k)
        upper = ctx.basis(g - 1 + k)
        index = {m: i for i, m in enumerate(upper)}
        rows = []
        for m in lower:
            image = ctx.normal_form(Polynomial.monomial(RING_VARS, (0, m[1] + k, m[2], m[3] + k)))
            row = [F(0)] * len(upper)
            for exps, coeff in image.terms.items():
                row[index[exps]] = coeff
            rows.append(row)
        assert rank(rows) == len(lower)


def test_pairing_rejects_bad_offset():
    for pairing in ("pairing_matrix", "pairing_gram", "pairing_determinant"):
        for k in (-1, 2):
            with pytest.raises(ValueError):
                getattr(make_context(2), pairing)(k)


NOT_INTS = [
    ("dim_graded", (1.5,)), ("dim_graded", (2.0,)), ("dim_graded", (True,)), ("dim_graded", (2, 0.0)),
    ("dim_graded", (2, False)), ("basis", (2.0,)), ("basis", (True,)), ("relation", (1.0,)), ("relation", (True,)),
    ("pairing_gram", (True,)), ("pairing_matrix", (1.0,)), ("pairing_determinant", (1.5,)), ("pairing_determinant", (False,)),
]


@pytest.mark.parametrize("name, args", NOT_INTS, ids=[f"{name}{args}" for name, args in NOT_INTS])
def test_degrees_grades_and_offsets_must_be_ints(name, args):
    # As for the genus, a float or a bool is refused where a degree, a
    # d-grade or a pairing offset is read: dim_graded(1.5) is not 4.0.
    with pytest.raises(ValueError, match="integer"):
        getattr(make_context(3), name)(*args)


def sort_sign(keys):
    """The sign of the stable sort of ``keys``: -1 to the number of inversions."""
    seen, inversions = [], 0
    for key in keys:
        inversions += len(seen) - bisect.bisect_right(seen, key)
        bisect.insort(seen, key)
    return -1 if inversions % 2 else 1


def test_pairing_sign_is_the_two_sorts_sign():
    # The sign that pairing_determinant reads off g - k is the product of the
    # signs of the stable sorts that make the pairing matrix block diagonal:
    # its rows by d-grade and its columns by minus d-grade.
    for g in range(1, 61):
        ctx = make_context(g)
        for k in range(g):
            rows, cols = ctx.basis(g - 1 - k), ctx.basis(g - 1 + k)
            sign = sort_sign([d_grade(m) for m in rows]) * sort_sign([-d_grade(m) for m in cols])
            assert sign == (-1 if (g - k) % 4 == 2 else 1), (g, k)


def test_pairing_sign_parity_lemma():
    # The two sorts' inversions are the sum over d < d' of n_d * n_d', for
    # the block sizes n_d = (m - |d|)//2 + 1 of degree m: odd iff m = 1 mod 4.
    for m in range(2000):
        sizes = [(m - abs(d)) // 2 + 1 for d in range(-m, m + 1)]
        pairs = (sum(sizes) ** 2 - sum(n * n for n in sizes)) // 2
        assert pairs % 2 == (m % 4 == 1), m


@pytest.mark.parametrize("g", range(2, 9))
def test_gram_cells_are_socle_pushforwards(g):
    # _gram reads phi off the Hankel entry of each cell; socle_pushforward
    # applies the functional to the product itself.
    ctx = shared_context(g)
    for j in range(2 * g - 1):
        rows, cols = _monomials(j), _monomials(2 * g - 2 - j)
        gram = ctx._gram(rows, cols)
        for r, row in zip(rows, gram):
            for c, cell in zip(cols, row):
                product = Polynomial.monomial(RING_VARS, r) * Polynomial.monomial(RING_VARS, c)
                assert cell == ctx.socle_pushforward(product), (r, c)


def test_pairing_determinants_up_to_genus_30_are_pinned():
    # One sha256 over every determinant at g <= 30, in hex, as the code that
    # counted the two sorts' inversions printed them.
    text = "".join(f"{g} {k} {make_context(g).pairing_determinant(k):x}\n" for g in range(1, 31) for k in range(g))
    assert hashlib.sha256(text.encode()).hexdigest() == "7c0f13240aead578ad0ae453ca1e14744efb7347145bfbeb9ab7521690894572"


# ------------------------------------------------------------------ operators


def test_shift_fixtures():
    assert shift(parse("T1"), 2) == parse("T1 + 2*P + 4*T2")
    assert shift(parse("P"), -1) == parse("P - 2*T2")
    assert shift(parse("T2"), 5) == parse("T2")
    p = parse("T1*P - T2^2")
    assert shift(p, 0) == p


def test_shift_is_additive():
    rng = random.Random(7)
    for _ in range(10):
        p = random_poly(rng, max_exp=2, terms=4)
        p = p.substitute({"xi": 0})
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        assert shift(shift(p, a), b) == shift(p, a + b)


def test_shift_rejects_xi_and_non_integers():
    with pytest.raises(ValueError):
        shift(parse("xi"), 1)
    with pytest.raises(ValueError):
        shift(parse("T1"), F(1, 2))


def test_half_shift_squares_to_unit_shift():
    rng = random.Random(8)
    for _ in range(10):
        p = random_poly(rng, max_exp=3, terms=4).substitute({"xi": 0})
        assert half_shift(half_shift(p)) == shift(p, 1)


SHIFT_AMOUNTS = [*range(-3, 4), F(1, 2), F(-1, 2), F(2, 3)]


def substituted_shift(p, n):
    # The shift by n as the substitution it is, independent of exp(n*D).
    t1, pp, t2 = (Polynomial.variable(RING_VARS, v) for v in ("T1", "P", "T2"))
    return p.substitute({"T1": t1 + n * pp + n * n * t2, "P": pp + 2 * n * t2})


def xi_free_polys(seed, count):
    rng = random.Random(seed)
    polys = [Polynomial.zero(RING_VARS), parse("1"), parse("-7/3")]
    return polys + [random_poly(rng, max_exp=4, terms=6, max_den=6).substitute({"xi": 0}) for _ in range(count)]


@pytest.mark.parametrize("n", SHIFT_AMOUNTS, ids=str)
def test_exp_of_the_derivation_is_the_substituted_shift(n):
    from chowkit.ring import _shifted

    for p in xi_free_polys(11, 25):
        assert _shifted(p, n) == substituted_shift(p, n)


def test_exp_of_the_derivation_is_a_group_law():
    from chowkit.ring import _shifted

    rng = random.Random(12)
    for p in xi_free_polys(13, 12):
        a, b = (F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
        assert _shifted(_shifted(p, a), b) == _shifted(p, a + b)


def test_involution_fixtures():
    assert involution(parse("P")) == parse("-1*P")
    assert involution(parse("xi")) == parse("xi - P")
    mu = parse("xi - 1/2*P")
    assert involution(mu) == mu
    rng = random.Random(9)
    for _ in range(10):
        p = random_poly(rng, max_exp=2, terms=4)
        assert involution(involution(p)) == p


def test_restrictions():
    assert restrict_zero(parse("xi*T1")) == parse("P*T1")
    assert restrict_zero(parse("xi^2")) == parse("P^2")
    assert restrict_infty(parse("xi*T1 + T2")) == parse("T2")


TERM_MAPS = {
    "restrict_infty": (restrict_infty, {"xi": 0}),
    "restrict_zero": (restrict_zero, {"xi": parse("P")}),
    "involution": (involution, {"xi": parse("xi - P"), "P": parse("-1*P")}),
}


@pytest.mark.parametrize("name", TERM_MAPS)
def test_term_maps_are_their_substitutions(name):
    # The maps move terms directly; substitute expands the images as
    # polynomials, so it is an independent oracle.
    term_map, images = TERM_MAPS[name]
    rng = random.Random(14)
    polys = [Polynomial.zero(RING_VARS), parse("1"), parse("-7/3"), parse("xi^2"), parse("3*xi^4*T1 - xi^3*P^2 + 1/2")]
    polys += [random_poly(rng, max_exp=4, terms=8, max_den=6) for _ in range(40)]
    assert any(p.degree_in("xi") >= 3 for p in polys[5:])
    for p in polys:
        assert term_map(p) == p.substitute(images)


# ------------------------------------------------------------------ invariants


def test_invariant_generator_literals():
    gens = invariant_generators()
    assert gens.theta == parse("xi + T1 - 1/2*P")
    assert gens.boundary == parse("-2*T2")
    assert gens.gluing == parse("-4*xi*T2 - P^2 + 2*P*T2")
    assert q_class() == parse("4*T1*T2 - P^2")
    assert extra_shift_invariant() == parse("xi*(6*P*T2 + 12*T2^2) + P^3 - 4*P*T2^2")


def test_gluing_class_factors():
    # gluing == (2*xi - P) * (-2*xi + P - 2*T2) modulo xi^2 = xi*P alone
    # (the difference has degree 2, below any genus >= 3 relation).
    ctx = make_context(5)
    product = parse("(2*xi - P) * (-1*(2*xi) + P - 2*T2)")
    assert ctx.is_zero(invariant_generators().gluing - product)


@pytest.mark.parametrize("g", range(1, 7))
def test_invariant_classes_are_invariant(g):
    ctx = make_context(g)
    gens = invariant_generators()
    for cls in (gens.theta, gens.boundary, gens.gluing, q_class()):
        assert ctx.is_shift_invariant(cls)
        assert ctx.is_j_invariant(cls)


@pytest.mark.parametrize("g", range(1, 7))
def test_zero_section_class_is_invariant(g):
    ctx = make_context(g)
    section = boundary_zero_section(ctx)
    assert ctx.is_shift_invariant(section)
    assert ctx.is_j_invariant(section)


@pytest.mark.parametrize("g", range(1, 7))
def test_extra_class_shift_invariant(g):
    assert make_context(g).is_shift_invariant(extra_shift_invariant())


def test_extra_class_involution_behaviour():
    # Involution-invariance of the extra class holds only in low genus: the
    # difference j(x) - x is nonzero of xi-free degree 3 with a degree-2
    # xi-part, and the ideal has no nonzero elements below degree g.
    x = extra_shift_invariant()
    assert make_context(1).is_j_invariant(x)
    assert make_context(2).is_j_invariant(x)
    for g in (3, 4, 5):
        assert not make_context(g).is_j_invariant(x)


@pytest.mark.parametrize("g, expected", [(3, (6, 5, 5)), (4, (7, 6, 6)), (5, (7, 6, 6)), (6, (7, 6, 6))])
def test_degree_3_invariants_are_generated(g, expected):
    # Dimensions in degree 3 of the full quotient (xi included): the
    # shift-invariant classes, the shift- and involution-invariant classes,
    # and the span of theta^a*boundary^b*gluing^c.  The span consists of
    # invariant classes and has the full invariant dimension, so every
    # shift- and involution-invariant degree-3 class is generated; a
    # shift-invariant class outside the span, like the extra class, can
    # therefore never be involution-invariant.
    ctx = make_context(g)
    slots = [(0, m) for m in ctx.basis(3)] + [(1, m) for m in ctx.basis(2)]
    position = {slot: i for i, slot in enumerate(slots)}

    def coordinates(p):
        vector = [F(0)] * len(slots)
        for (x, a, b, c), coeff in ctx.normal_form(p).terms.items():
            vector[position[(x, (0, a, b, c))]] = coeff
        return vector

    classes = [Polynomial.monomial(RING_VARS, (x, *m[1:])) for x, m in slots]
    shift_images = [coordinates(shift(restrict_infty(p), 1) - restrict_zero(p)) for p in classes]
    involution_images = [coordinates(involution(p) - p) for p in classes]
    shift_invariant = len(slots) - rank(shift_images)
    both_invariant = len(slots) - rank([s + j for s, j in zip(shift_images, involution_images)])
    generated = rank([coordinates(invariant_basis_element(t, "eta")) for t in degree_triples(3)])
    assert (shift_invariant, both_invariant, generated) == expected


def test_random_shift_invariance_detects_failures():
    ctx = make_context(3)
    assert not ctx.is_shift_invariant(parse("T1"))
    assert not ctx.is_j_invariant(parse("P"))


@pytest.mark.parametrize("g", range(3, 7))
def test_invariance_residuals_are_the_polynomial_routes(g):
    # is_shift_invariant and is_j_invariant reduce residuals built on integer
    # numerators; shift, involution and the two restrictions, composed on
    # Polynomials, are their oracle, so a dropped term shows.  The four named
    # classes have nonzero shift residuals, and P and xi*T1 nonzero
    # involution residuals.
    from chowkit.poly import _numerators

    ctx, rng = make_context(g), random.Random(g)
    named = [parse(text) for text in ("T1", "P", "xi*T1", "P^2")]
    for p in named + [random_poly(rng, RING_VARS, max_exp=3, terms=6, max_den=9) for _ in range(12)]:
        shifted = ctx.normal_form(shift(restrict_infty(p), 1) - restrict_zero(p))
        inverted = ctx.normal_form(involution(p) - p)
        assert ctx._shift_residual(*_numerators(p.terms)) == shifted
        assert ctx._involution_residual(*_numerators(p.terms)) == inverted
        assert (ctx.is_shift_invariant(p), ctx.is_j_invariant(p)) == (shifted.is_zero(), inverted.is_zero())
    assert not any(map(ctx.is_shift_invariant, named))
    assert [ctx.is_j_invariant(p) for p in named] == [True, False, False, True]


# ------------------------------------------------------------------ solver


def test_degree_triples_order():
    assert degree_triples(2) == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)]
    assert degree_triples(0) == [(0, 0, 0)]
    assert degree_triples(3) == [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (1, 0, 1), (0, 1, 1)]
    with pytest.raises(ValueError):
        degree_triples(-1)


def test_invariant_basis_element_fixtures():
    assert invariant_basis_element((0, 0, 1), "alpha") == parse("4*T1*T2 - P^2")
    assert invariant_basis_element((0, 0, 1), "eta") == parse("-4*xi*T2 - P^2 + 2*P*T2")
    assert invariant_basis_element((1, 0, 0), "alpha") == parse("xi + T1 - 1/2*P + 1/4*T2")
    with pytest.raises(ValueError):
        invariant_basis_element((1, 0, 0), "gamma")


def test_express_balanced_monomial_genus_2():
    ctx = make_context(2)
    coeffs, kernel = ctx.express_in_invariants(parse("T1*T2"))
    assert coeffs == {(2, 0, 0): 0, (1, 1, 0): 0, (0, 2, 0): 0, (0, 0, 1): F(1, 6)}
    assert kernel == 1


def test_express_zero_section_genus_2():
    ctx = make_context(2)
    coeffs, kernel = ctx.express_in_invariants(boundary_zero_section(ctx))
    assert coeffs[(2, 0, 0)] == F(1, 2)
    assert coeffs[(1, 1, 0)] == F(1, 8)
    assert coeffs[(0, 0, 1)] == F(1, 24)
    assert kernel == 1
    # The published alpha table lies in the same solution set: it differs from
    # the particular solution by a kernel element, so it reproduces the class.
    table = coefficient_table(2).alpha
    total = Polynomial.zero(RING_VARS)
    for triple, value in table.items():
        total = total + value * invariant_basis_element(triple, "alpha")
    assert ctx.is_zero(total - boundary_zero_section(ctx))


@pytest.mark.parametrize("basis", ["alpha", "eta"])
@pytest.mark.parametrize("g", range(1, 5))
def test_express_round_trip(g, basis):
    ctx = make_context(g)
    section = boundary_zero_section(ctx)
    coeffs, kernel = ctx.express_in_invariants(section, basis=basis)
    assert kernel >= 0
    rebuilt = Polynomial.zero(RING_VARS)
    for triple, value in coeffs.items():
        rebuilt = rebuilt + value * invariant_basis_element(triple, basis)
    assert ctx.is_zero(rebuilt - section)


def test_express_zero_class_needs_degree():
    ctx = make_context(2)
    zero = Polynomial.zero(RING_VARS)
    with pytest.raises(ValueError):
        ctx.express_in_invariants(zero)
    coeffs, kernel = ctx.express_in_invariants(zero, degree=2)
    assert all(value == 0 for value in coeffs.values())
    assert kernel == 1


def test_express_rejects_inhomogeneous():
    ctx = make_context(2)
    with pytest.raises(ValueError):
        ctx.express_in_invariants(parse("T1 + T1*T2"))


def test_express_not_in_span():
    ctx = make_context(3)
    with pytest.raises(NotInSpanError):
        ctx.express_in_invariants(parse("P"), degree=1)
