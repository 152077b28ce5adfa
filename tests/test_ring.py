"""Quotient-ring contexts: relations, normal forms, duality, pushforwards,
the geometric operators and the invariant-class solver.

The relation set is checked against an evaluation oracle (the defining
auxiliary expansion evaluated at random rational points), the degrees built
from the socle functional against an elimination oracle, and the reduction
pipeline against hand-computed fixtures and the duality predictions for the
graded dimensions.
"""

import functools
import random
from fractions import Fraction

import pytest

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
from chowkit.linalg import determinant, rank, rref
from chowkit.poly import d_grade
from chowkit.ring import _monomials
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
    with pytest.raises(ValueError):
        make_context(0)
    with pytest.raises(ValueError):
        make_context(-2)
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
        assert ctx.normal_form(parse(text, reduce=ctx.normal_form)) == ctx.normal_form(parse(text))
    if g > 1:
        assert not ctx.normal_form(parse(f"xi*P^{2 * g - 2}")).is_zero()


def test_degrees_past_the_top_vanish_without_elimination():
    ctx = make_context(3)
    assert ctx.normal_form(parse("(T1+P)^60")).is_zero()
    assert ctx.normal_form(parse("xi*(T1+P)^60 + P")) == parse("P")
    assert max(ctx._degrees) < 2 * 3 - 1


@pytest.mark.parametrize("g", range(5, 8))
def test_reduction_builds_no_degree_past_the_top(g):
    # R_k = 0 for k >= 2g-1 is used, not re-derived: reducing a product of
    # ceil(3g/2) linear forms, and a power of degree 2g-1 whose xi-free part
    # sits past the top, builds no degree at or past 2g-1.
    ctx = make_context(g)
    product = "*".join(f"(xi - {i}*T1 + 3*P - T2)" for i in range(-(-3 * g // 2)))
    for text in (product, f"(xi - 2*T1 + 3*P - T2)^{2 * g - 1}"):
        ctx.normal_form(parse(text, reduce=ctx.normal_form))
        assert max(ctx._degrees) < 2 * g - 1
    assert 2 * g - 2 in ctx._degrees


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
    ``RingContext._degree_data``."""
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


@pytest.mark.parametrize("g", range(1, 13))
def test_phi_construction_matches_elimination(g):
    ctx = shared_context(g)
    for k in range(2 * g + 1):
        assert tuple(ctx._degree_data(k)) == eliminated_degree(g, k)


@pytest.mark.parametrize("g", range(1, 17))
def test_hilbert_function_matches_elimination(g):
    ctx = shared_context(g)
    for k in range(2 * g):
        assert ctx.dim_graded(k) == len(eliminated_degree(g, k)[0])


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
        data = ctx._degree_data(k)
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
        assert data.basis == tuple(m for i, m in enumerate(monomials) if i not in pivots)
        assert data.rewrite == {
            monomials[pivot]: tuple((monomials[j], -c) for j, c in enumerate(row) if c and j != pivot)
            for row, pivot in zip(rows, pivots)
        }


@pytest.mark.parametrize("g", range(1, 6))
def test_dims_d_graded_partition(g):
    ctx = make_context(g)
    for k in range(2 * g):
        total = sum(ctx.dim_graded(k, l) for l in range(-k, k + 1))
        assert total == ctx.dim_graded(k)


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
    for (_, x, y, z), coeff in ctx._reduce_component(p.terms).items():
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
    with pytest.raises(ValueError):
        make_context(2).pairing_matrix(2)


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
