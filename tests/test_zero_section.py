"""Coefficient families, assembly of the zero-section identity, the inner-sum
constants, and the verification reports."""

import random
import time
from fractions import Fraction

import pytest

from chowkit import (
    INVARIANT_VARS,
    RING_VARS,
    Polynomial,
    alpha,
    alpha_b0_closed_form,
    assemble_main_rhs,
    boundary_zero_section,
    coefficient_table,
    degree_triples,
    eta,
    inner_sum_constant,
    invariant_generators,
    make_context,
    maple_inner_sum,
    parse,
    restrict_infty,
    restrict_zero,
    verify_all,
    verify_eta_alpha,
    verify_invariance,
    verify_main,
    verify_triangular,
)

from test_poly import random_poly

F = Fraction


# ------------------------------------------------------------------ alpha


def test_alpha_fixtures():
    assert alpha(1, 0, 0) == 1
    assert alpha(0, 1, 0) == F(1, 24)
    assert alpha(2, 0, 0) == F(1, 2)
    assert alpha(1, 1, 0) == F(1, 8)
    assert alpha(0, 2, 0) == F(7, 1920)
    assert alpha(0, 0, 1) == F(1, 24)
    assert alpha(3, 0, 0) == F(1, 6)


def test_alpha_rejects_negative_indices():
    with pytest.raises(ValueError):
        alpha(-1, 0, 0)
    with pytest.raises(ValueError):
        eta(0, -2, 0)
    with pytest.raises(ValueError):
        alpha_b0_closed_form(1, -1)


def test_alpha_is_positive():
    for g in range(1, 11):
        for triple in degree_triples(g):
            assert alpha(*triple) > 0


def test_alpha_closed_form_agrees():
    for a in range(21):
        for c in range((20 - a) // 2 + 1):
            assert alpha(a, 0, c) == alpha_b0_closed_form(a, c)


# ------------------------------------------------------------------ eta


def test_eta_fixtures():
    assert eta(1, 0, 0) == 1
    assert eta(0, 1, 0) == F(-1, 12)
    assert eta(2, 0, 0) == F(1, 2)
    assert eta(1, 1, 0) == F(-1, 12)
    assert eta(0, 2, 0) == F(-1, 240)
    assert eta(0, 0, 1) == F(1, 24)


@pytest.mark.parametrize("g", range(1, 6))
def test_eta_matches_shifted_expansion(g):
    # Expand the alpha combination in a free ring and read off each plain
    # monomial: the coefficient must be the corresponding eta value.
    theta = Polynomial.variable(INVARIANT_VARS, "Theta")
    bd = Polynomial.variable(INVARIANT_VARS, "D")
    glue = Polynomial.variable(INVARIANT_VARS, "Delta")
    expanded = Polynomial.zero(INVARIANT_VARS)
    for a, b, c in degree_triples(g):
        term = (theta - bd / 8) ** a * bd ** b * (glue - 2 * theta * bd) ** c
        expanded = expanded + alpha(a, b, c) * term
    for a, b, c in degree_triples(g):
        assert expanded.coefficient((a, b, c)) == eta(a, b, c)


@pytest.mark.parametrize("g", range(1, 9))
def test_eta_alpha_expansion_report(g):
    report = verify_eta_alpha(g)
    assert report.holds and report.genus == g
    assert report.name == "eta_alpha_expansion"
    assert report.residual.is_zero()


# ------------------------------------------------------------------ walks


def test_walks_are_substitutions():
    # Each walk puts (x + y)/den for one variable, x and y integer multiples
    # of monomials; one to three walks in turn, against Polynomial.substitute.
    from chowkit.poly import _numerators
    from chowkit.zero_section import _walked

    rng = random.Random(21)
    for _ in range(60):
        variables = rng.choice([RING_VARS, INVARIANT_VARS])
        p = expected = random_poly(rng, variables, max_exp=4, terms=6, max_den=5)
        if p.is_zero():
            continue
        walks = []
        for _ in range(rng.randint(1, 3)):
            slot = rng.randrange(len(variables))
            x = (rng.choice([-3, 1, 2, 8]), tuple(rng.randint(0, 2) for _ in variables))
            y = (rng.choice([-2, -1, 5]), tuple(rng.randint(0, 2) for _ in variables))
            den = rng.choice([1, 4, 8])
            walks.append((slot, x, y, den))
            image = (Polynomial.monomial(variables, x[1], x[0]) + Polynomial.monomial(variables, y[1], y[0])) / den
            expected = expected.substitute({variables[slot]: image})
        assert _walked(variables, *_numerators(p.terms), *walks) == expected


@pytest.mark.parametrize("g", range(1, 41))
def test_alpha_walks_match_combine(g):
    # combine's power ladders and products are the oracle for both walks:
    # the triangular sum, and the eta side (the left side is the residual
    # plus the eta table).
    from chowkit.poly import combine
    from chowkit.ring import P, T1, T2, _basis_images
    from chowkit.zero_section import _triangular_sum

    table = coefficient_table(g)
    images = _basis_images("alpha", T1 - T2 / 4, -2 * T2, T2 * T2 - P * P)
    assert _triangular_sum(g, "alpha") == combine(table.alpha, images)
    free = [Polynomial.variable(INVARIANT_VARS, name) for name in INVARIANT_VARS]
    lhs = verify_eta_alpha(g).residual + Polynomial(INVARIANT_VARS, table.eta)
    assert lhs == combine(table.alpha, _basis_images("alpha", *free))


@pytest.mark.parametrize("g", range(1, 41))
def test_eta_walks_match_combine(g):
    # The eta triangular sum is two walks, T1 -> T1 - T2/4 and then
    # xi -> T2^2 - P^2; combine's expansion of the eta basis is its oracle.
    from chowkit.poly import combine
    from chowkit.ring import P, T1, T2, _basis_images
    from chowkit.zero_section import _triangular_sum

    images = _basis_images("eta", T1 - T2 / 4, -2 * T2, T2 * T2 - P * P)
    assert _triangular_sum(g, "eta") == combine(coefficient_table(g).eta, images)
    with pytest.raises(ValueError, match="unknown basis"):
        _triangular_sum(g, "gamma")


def _table_off_by(monkeypatch, g, family, triple, delta):
    # coefficient_table at genus g with one entry of one family moved by delta.
    import dataclasses

    import chowkit.zero_section as zs

    table = coefficient_table(g)
    entries = dict(getattr(table, family))
    entries[triple] += delta
    broken = dataclasses.replace(table, **{family: entries})
    monkeypatch.setattr(zs, "coefficient_table", lambda genus: broken if genus == g else coefficient_table(genus))


@pytest.mark.parametrize("g, delta", [(2, F(1)), (5, F(-3, 7)), (9, F(1, 10**6)), (14, F(5))])
def test_broken_alpha_entry_fails_every_alpha_check(monkeypatch, g, delta):
    # T1*T2^(g-1) is not in I_g, so moving alpha(1, g-1, 0) moves both the
    # main and the triangular residual; the eta residual is delta times the
    # entry's expansion, exactly.
    from chowkit.poly import combine
    from chowkit.ring import _basis_images

    _table_off_by(monkeypatch, g, "alpha", (1, g - 1, 0), delta)
    assert not verify_main(g).holds
    assert not verify_triangular(g).holds
    report = verify_eta_alpha(g)
    free = [Polynomial.variable(INVARIANT_VARS, name) for name in INVARIANT_VARS]
    assert not report.holds
    assert report.residual == combine({(1, g - 1, 0): delta}, _basis_images("alpha", *free))


@pytest.mark.parametrize("g, delta", [(1, F(2)), (6, F(-1, 3)), (11, F(7, 9))])
def test_broken_entries_leave_one_monomial_eta_residuals(monkeypatch, g, delta):
    # alpha(0, g, 0) multiplies D^g alone, so the eta residual is +delta*D^g;
    # the main and triangular checks still hold, since T2^g lies in I_g.
    _table_off_by(monkeypatch, g, "alpha", (0, g, 0), delta)
    assert verify_eta_alpha(g).residual == Polynomial.monomial(INVARIANT_VARS, (0, g, 0), delta)
    assert verify_main(g).holds and verify_triangular(g).holds
    monkeypatch.undo()
    # An eta entry moved by delta: the residual is -delta times its monomial,
    # and the alpha checks, which never read eta, still hold.
    triple = degree_triples(g)[-1]
    _table_off_by(monkeypatch, g, "eta", triple, delta)
    report = verify_eta_alpha(g)
    assert not report.holds
    assert report.residual == Polynomial.monomial(INVARIANT_VARS, triple, -delta)
    assert verify_main(g).holds and verify_triangular(g).holds


@pytest.mark.parametrize("g", range(2, 13))
def test_main_residual_is_the_assembled_residual(monkeypatch, g):
    # verify_main reads the triangular normal form and one derivation of the
    # triangular sum; on broken alpha tables its residual, alone and within
    # verify_all, is still the normal form of the assembled right-hand side
    # minus the section, and a division by P that fails on one route fails
    # on every route.
    def outcome(residual):
        try:
            return residual()
        except ArithmeticError:
            return ArithmeticError

    rng = random.Random(g)
    ctx = make_context(g)
    for _ in range(5):
        delta = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        _table_off_by(monkeypatch, g, "alpha", rng.choice(degree_triples(g)), delta)
        expected = outcome(lambda: ctx.normal_form(assemble_main_rhs(ctx) - boundary_zero_section(ctx)))
        assert outcome(lambda: verify_main(g).residual) == expected
        assert outcome(lambda: verify_all(g)[0].residual) == expected
        monkeypatch.undo()


@pytest.mark.parametrize("g", [3, 30, 70])
def test_triangular_sum_satisfies_the_derivation_identity(g):
    # D*S = 2*psi(D)*Z as polynomials: with a zero triangular normal form the
    # main residual is xi*phi(D)*W/P alone, and phi(D) is invertible.  S plus
    # T1^g leaves xi times the odd part of T1^g's shifts by -1/2 and +1/2, over
    # P/2, so the check is not vacuous.  The shifts of P*T1^(g-1) differ by
    # 2*T2*(T1 + T2/4)^(g-1) at P = 0, which P does not divide.
    from chowkit.ring import _shifted
    from chowkit.zero_section import _main_residual, _triangular_sum

    ctx, zero, power = make_context(g), Polynomial.zero(RING_VARS), Polynomial.monomial(RING_VARS, (0, g, 0, 0))
    s = _triangular_sum(g, "alpha")
    assert _main_residual(ctx, s, zero).is_zero()
    odd = _shifted(power, F(1, 2)) - _shifted(power, F(-1, 2))
    expected = Polynomial(RING_VARS, {(1, a, b - 1, c): coeff for (_, a, b, c), coeff in odd.terms.items()})
    assert _main_residual(ctx, s + power, zero) == expected
    with pytest.raises(ArithmeticError, match="P does not divide"):
        _main_residual(ctx, s + Polynomial.monomial(RING_VARS, (0, g - 1, 1, 0)), zero)


def test_verify_expands_no_alpha_combination_through_combine(monkeypatch, capsys):
    # Both tables are expanded by walks alone: neither zero_section nor ring
    # holds combine, verify --genus 12 --json succeeds, and with poly's
    # combine unusable both bases still assemble the same class.
    import json

    import chowkit.poly
    import chowkit.ring
    import chowkit.zero_section
    from chowkit.cli import main

    assert "combine" not in vars(chowkit.zero_section)
    assert "combine" not in vars(chowkit.ring)
    assert main(["verify", "--genus", "12", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["all_hold"] is True

    def refuse(*args, **kwargs):
        raise AssertionError("combine called on a coefficient table")

    monkeypatch.setattr(chowkit.poly, "combine", refuse)
    ctx = make_context(5)
    assert assemble_main_rhs(ctx, "eta") == assemble_main_rhs(ctx, "alpha")


# ------------------------------------------------------------------ tables


def test_coefficient_table_contents():
    table = coefficient_table(2)
    assert table.genus == 2
    assert table.triples() == degree_triples(2)
    assert table.alpha[(0, 2, 0)] == F(7, 1920)
    assert table.eta[(0, 2, 0)] == F(-1, 240)
    assert coefficient_table(2) is table  # cached
    with pytest.raises(ValueError):
        coefficient_table(0)


# ------------------------------------------------------------------ assembly


@pytest.mark.parametrize("g", range(1, 41))
def test_coefficient_table_equals_the_public_formulas(g):
    # The table sums eta over integers with term-ratio weights; the public
    # alpha and eta are the formulas as written, one Fraction at a time.
    table = coefficient_table(g)
    assert list(table.alpha) == list(table.eta) == degree_triples(g)
    assert table.alpha == {t: alpha(*t) for t in degree_triples(g)}
    assert table.eta == {t: eta(*t) for t in degree_triples(g)}


def test_zero_section_fixtures():
    assert boundary_zero_section(make_context(1)) == parse("xi")
    assert boundary_zero_section(make_context(2)) == parse("xi*T1")
    assert boundary_zero_section(make_context(3)) == parse("1/2*xi*T1^2")


def test_assemble_genus_1_raw():
    rhs = assemble_main_rhs(make_context(1))
    assert rhs == parse("xi + T1 - 1/2*P + 1/6*T2")


def test_assemble_genus_2_reduces_to_section():
    ctx = make_context(2)
    assert ctx.normal_form(assemble_main_rhs(ctx)) == parse("xi*T1")


@pytest.mark.parametrize("g", range(1, 6))
def test_assemblies_agree_raw(g):
    ctx = make_context(g)
    assert assemble_main_rhs(ctx, "alpha") == assemble_main_rhs(ctx, "eta")


@pytest.mark.parametrize("basis", ["alpha", "eta"])
@pytest.mark.parametrize("g", range(1, 9))
def test_assembly_is_the_xi_linear_form_of_the_raw_expansion(g, basis):
    # Reference: the raw 4-variable expansion, one plain product per factor.
    theta, boundary, gluing = invariant_generators()
    if basis == "alpha":
        images = (theta - boundary / 8, boundary, gluing - 2 * theta * boundary)
    else:
        images = (theta, boundary, gluing)
    raw = Polynomial.zero(RING_VARS)
    for exps, coeff in getattr(coefficient_table(g), basis).items():
        term = Polynomial.constant(RING_VARS, coeff)
        for image, e in zip(images, exps):
            for _ in range(e):
                term = term * image
        raw = raw + term
    ctx = make_context(g)
    rhs = assemble_main_rhs(ctx, basis)
    assert rhs.degree_in("xi") <= 1
    # xi -> 0 and xi -> P see the whole class in R[xi]/(xi^2 - xi*P).
    assert restrict_infty(rhs) == restrict_infty(raw)
    assert restrict_zero(rhs) == restrict_zero(raw)
    assert ctx.normal_form(rhs) == ctx.normal_form(raw)


def two_restriction_assembly(ctx, basis):
    # The assembly from the two restrictions of the invariant generators,
    # each expanded on its own: A0 = image under xi -> 0, P*A1 = image under
    # xi -> P minus A0.
    from chowkit.poly import combine
    from chowkit.ring import _basis_images

    images = _basis_images(basis, *invariant_generators())
    table = getattr(coefficient_table(ctx.genus), basis)
    at_infinity = combine(table, [restrict_infty(image) for image in images])
    terms = dict(at_infinity.terms)
    for (_, a, b, c), coeff in (combine(table, [restrict_zero(image) for image in images]) - at_infinity).terms.items():
        assert b, "P divides the difference of the two images"
        terms[(1, a, b - 1, c)] = coeff
    return Polynomial(RING_VARS, terms)


@pytest.mark.parametrize("basis", ["alpha", "eta"])
@pytest.mark.parametrize("g", range(1, 11))
def test_assembly_equals_the_two_restriction_expansion(g, basis):
    ctx = make_context(g)
    assert assemble_main_rhs(ctx, basis) == two_restriction_assembly(ctx, basis)


def test_assembly_checks_the_division_by_p(monkeypatch):
    # A P-free term added to the odd part of the shared walk changes the
    # xi -> P image minus the xi -> 0 image, twice the odd part, by a term
    # that P does not divide, and no term may be dropped.
    import chowkit.zero_section as zs

    shift_parts = zs._shift_parts

    def injected(p, n):
        even, odd = shift_parts(p, n)
        return even, odd + parse("T1^3")

    monkeypatch.setattr(zs, "_shift_parts", injected)
    with pytest.raises(ArithmeticError):
        assemble_main_rhs(make_context(3))


def test_half_shift_pair_is_the_two_shifts():
    # One walk gives the even and odd parts E and O of the shift by +1/2;
    # the shifts by -1/2 and +1/2 are E - O and E + O.
    from chowkit.ring import _shift_parts, _shifted

    rng = random.Random(15)
    polys = [Polynomial.zero(RING_VARS), parse("1"), parse("-7/3"), parse("T1^5*T2 - 3*P^4")]
    polys += [random_poly(rng, max_exp=4, terms=8, max_den=6).substitute({"xi": 0}) for _ in range(30)]
    for p in polys:
        even, odd = _shift_parts(p, F(1, 2))
        assert even - odd == _shifted(p, F(-1, 2))
        assert even + odd == _shifted(p, F(1, 2))


def test_assemble_rejects_unknown_basis():
    with pytest.raises(ValueError):
        assemble_main_rhs(make_context(2), "gamma")


def test_section_lift_ambiguity_is_invisible():
    # Adding the polarization to xi changes the section polynomial by a
    # multiple of T1^(g-1)*P, which lies in the ideal.
    for g in (2, 3, 4):
        ctx = make_context(g)
        section = boundary_zero_section(ctx)
        shifted_lift = section.substitute({"xi": parse("xi + P")})
        assert ctx.normal_form(shifted_lift) == ctx.normal_form(section)


# ------------------------------------------------------------------ verifiers


@pytest.mark.parametrize("g", range(1, 7))
def test_main_identity_holds(g):
    report = verify_main(g)
    assert report.holds and report.name == "main_identity"
    assert report.residual.is_zero()


@pytest.mark.parametrize("g", range(1, 7))
def test_triangular_identity_holds(g):
    report = verify_triangular(g)
    assert report.holds and report.name == "triangular_identity"


def test_main_and_triangular_identities_hold_up_to_genus_20():
    start = time.perf_counter()
    for g in range(1, 21):
        assert verify_main(g).holds and verify_triangular(g).holds, g
    assert time.perf_counter() - start < 5


def test_reduction_is_not_vacuous():
    # Negative control: a deliberately wrong right-hand side must not reduce
    # to zero, otherwise the main check would pass for free.
    ctx = make_context(3)
    residual = ctx.normal_form(assemble_main_rhs(ctx) - 2 * boundary_zero_section(ctx))
    assert not residual.is_zero()


@pytest.mark.parametrize("g", range(1, 5))
def test_invariance_suite(g):
    reports = verify_invariance(g)
    assert [r.name for r in reports] == [
        "shift_invariance[theta]",
        "involution_invariance[theta]",
        "shift_invariance[boundary]",
        "involution_invariance[boundary]",
        "shift_invariance[gluing]",
        "involution_invariance[gluing]",
        "shift_invariance[q]",
        "involution_invariance[q]",
        "shift_invariance[extra]",
        "shift_invariance[zero_section]",
        "involution_invariance[zero_section]",
    ]
    assert all(r.holds for r in reports)


def test_verify_all_order():
    reports = verify_all(2)
    assert [r.name for r in reports][:3] == ["main_identity", "eta_alpha_expansion", "triangular_identity"]
    assert len(reports) == 14
    assert all(r.holds for r in reports)


def test_report_serialization():
    report = verify_main(2)
    payload = report.to_dict()
    assert payload == {"name": "main_identity", "genus": 2, "holds": True, "residual": "0"}
    assert "seconds" in report.to_dict(include_timing=True)
    assert report.summary() == "main_identity (genus 2): holds"


def test_report_failure_summary():
    from chowkit.zero_section import VerificationReport

    report = VerificationReport(name="demo", genus=3, holds=False, residual=parse("2*T1"))
    assert report.summary() == "demo (genus 3): FAILS, residual 2*T1"
    assert report.to_dict()["holds"] is False


REPORT_NAMES = [
    "main_identity",
    "eta_alpha_expansion",
    "triangular_identity",
    "shift_invariance[theta]",
    "involution_invariance[theta]",
    "shift_invariance[boundary]",
    "involution_invariance[boundary]",
    "shift_invariance[gluing]",
    "involution_invariance[gluing]",
    "shift_invariance[q]",
    "involution_invariance[q]",
    "shift_invariance[extra]",
    "shift_invariance[zero_section]",
    "involution_invariance[zero_section]",
]


@pytest.mark.parametrize("g", range(1, 5))
def test_every_report_is_timed_and_holds_exactly_when_its_residual_is_zero(g):
    reports = verify_all(g)
    assert [r.name for r in reports] == REPORT_NAMES
    for report in reports:
        assert report.genus == g and report.seconds >= 0
        assert report.holds == report.residual.is_zero()


def test_a_check_with_a_nonzero_residual_fails():
    from chowkit.zero_section import _checked

    report = _checked("demo", 3, lambda: parse("2*T1"))
    assert (report.name, report.genus, report.holds, report.residual) == ("demo", 3, False, parse("2*T1"))
    assert report.seconds >= 0


# ------------------------------------------------------------------ inner sums


def test_maple_inner_sum_fixtures():
    assert maple_inner_sum(1, 0, 0) == 2
    assert maple_inner_sum(4, 2, 2) == 192  # single surviving term
    assert maple_inner_sum(4, 2, 0) == 420 - 480 + 96
    assert inner_sum_constant(1, 0) == 2
    assert inner_sum_constant(4, 2) == 144


def test_maple_inner_sum_domain():
    with pytest.raises(ValueError):
        maple_inner_sum(2, 2, 0)  # needs g - h >= h
    with pytest.raises(ValueError):
        maple_inner_sum(2, 1, 2)  # needs l <= h
    with pytest.raises(ValueError):
        maple_inner_sum(2, 1, -1)


def test_inner_sum_constant_for_trivial_partitions():
    # h = 0 collapses to a single binomial-type term: the constant is
    # (2g)!/g! for every genus.
    from chowkit import factorial

    for g in range(1, 13):
        assert inner_sum_constant(g, 0) == F(factorial(2 * g), factorial(g))


def test_inner_sum_constant_is_well_defined():
    for g in range(1, 11):
        for h in range(g // 2 + 1):
            inner_sum_constant(g, h)  # must not raise


def test_random_inner_sum_cross_check():
    # Spot-check the proportionality directly at random admissible shapes.
    rng = random.Random(2026)
    from chowkit import factorial

    for _ in range(25):
        g = rng.randint(1, 12)
        h = rng.randint(0, g // 2)
        l = rng.randint(0, h)
        reference = F(
            (-1) ** l * 4 ** l * factorial(l),
            factorial(g - l - h) * factorial(h - l) * factorial(2 * l),
        )
        assert maple_inner_sum(g, h, l) == inner_sum_constant(g, h) * reference
