"""The boundary zero-section class and its invariant-basis expansions.

The distinguished degree-g class ``xi * T1^(g-1) / (g-1)!`` — the class of
the zero section inside the boundary family — equals an explicit
combination of invariant classes.  This module holds the two rational
coefficient families (``alpha`` for the shifted basis, ``eta`` for the plain
basis), assembles the combinations, and machine-checks the identity, as the
triangular identity plus one derivation, with the identities behind it:

* the triangularity statement that makes the alpha system solvable,
* the closed form of the boundary-free alpha coefficients,
* the hypergeometric inner-sum proportionality behind that closed form,
* the invariance properties that characterize the class in the first place.

Each check returns a :class:`VerificationReport` carrying the exact residual.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import add, sub
from typing import Callable

from .arith import bernoulli, double_factorial, factorial
from .poly import INVARIANT_VARS, Exponents, Polynomial, RING_VARS, _numerators, format_polynomial
from .ring import (
    RingContext, _level_sums, _shift_parts, _shifted, degree_triples, extra_shift_invariant, invariant_generators,
    involution, make_context, q_class, restrict_infty, restrict_zero, shift,
)

__all__ = [
    "CoefficientTable",
    "VerificationReport",
    "alpha",
    "alpha_b0_closed_form",
    "assemble_main_rhs",
    "boundary_zero_section",
    "coefficient_table",
    "eta",
    "inner_sum_constant",
    "maple_inner_sum",
    "verify_all",
    "verify_eta_alpha",
    "verify_invariance",
    "verify_main",
    "verify_triangular",
]


# -------------------------------------------------------------- coefficients


def _validate_triple(a: int, b: int, c: int) -> None:
    if a < 0 or b < 0 or c < 0:
        raise ValueError(f"coefficient indices must be nonnegative, got {(a, b, c)}")


def alpha(a: int, b: int, c: int) -> Fraction:
    """Coefficient of the shifted-basis monomial with exponents ``(a, b, c)``."""
    _validate_triple(a, b, c)
    two_part = Fraction(1, 2 ** (b + c)) - Fraction(2, 8 ** (b + c))
    numerator = (-1) ** (b + c + 1) * two_part * double_factorial(2 * a + 2 * b + 2 * c - 1) * bernoulli(2 * b + 2 * c)
    return numerator / (double_factorial(2 * a + 2 * c - 1) * double_factorial(2 * b + 2 * c - 1) * factorial(a) * factorial(b) * factorial(c))


def alpha_b0_closed_form(a: int, c: int) -> Fraction:
    """Closed form of ``alpha(a, 0, c)``:
    ``(-1)^c * (2^(1-2c) - 1) * B_{2c} / (a! * (2c)!)``."""
    _validate_triple(a, 0, c)
    two_part = Fraction(2, 4 ** c) - 1
    return (-1) ** c * two_part * bernoulli(2 * c) / (factorial(a) * factorial(2 * c))


def eta(a: int, b: int, c: int) -> Fraction:
    """Coefficient of the plain-basis monomial with exponents ``(a, b, c)``."""
    _validate_triple(a, b, c)
    outer = Fraction((-1) ** (b + c) * double_factorial(2 * c + 2 * b - 1), 8 ** (b + c) * factorial(a) * factorial(c))
    total = Fraction(0)
    for x in range(b + 1):
        numerator = (2 - 4 ** (c + x)) * bernoulli(2 * c + 2 * x)
        total += numerator / (double_factorial(2 * c + 2 * b - 2 * x - 1) * double_factorial(2 * c + 2 * x - 1) * factorial(b - x) * factorial(x))
    return outer * total


@dataclass(frozen=True)
class CoefficientTable:
    """Both coefficient families for one genus, keyed by ``(a, b, c)`` with
    ``a + b + 2c = genus``, in canonical triple order."""

    genus: int
    alpha: dict[tuple[int, int, int], Fraction]
    eta: dict[tuple[int, int, int], Fraction]

    def triples(self) -> list[tuple[int, int, int]]:
        return list(self.alpha)


def _tangent_terms(genus: int) -> tuple[int, list[int]]:
    """``(den, t)``, ``t[m] / den = T(m) = (2 - 4^m) B_(2m)`` for ``m <= genus``
    on one denominator: ``x/sinh(x) = sum T(m) x^(2m)/(2m)!``."""
    numbers = [bernoulli(2 * m) for m in range(genus + 1)]
    den = lcm(*(b.denominator for b in numbers))
    return den, [(2 - 4**m) * b.numerator * (den // b.denominator) for m, b in enumerate(numbers)]


@lru_cache(maxsize=None)
def coefficient_table(genus: int) -> CoefficientTable:
    """Both families at ``genus``, each coefficient one integer sum and one ``Fraction``.

    With ``s = b + c``, ``n = b + 2c = g - a`` and ``T(m) = (2 - 4^m) B_(2m)``
    on one denominator, ``alpha(a, b, c) = (-1)^s T(s) (2g-2c-1)!! / (8^s
    (2a+2c-1)!! (2s-1)!! a! b! c!)``.  In ``eta``'s sum over ``x = k``,
    ``(2p-1)!! = (2p)!/(2^p p!)`` and ``(2s-2k) + (2c+2k) = 2n`` give ``eta(a,
    b, c) = (-1)^s (2s-1)!! 2^n / (8^s a! c! (2n)!) * sum_(k<=b) T(c+k) w_k``,
    where ``8^s / 2^n = 2^(2b+c)`` and ``w_k = C(2n, 2c+2k) (s-k)!/(b-k)!
    (c+k)!/k!``.  Only these integer weights are hypergeometric in ``k``:
    ``w_(k+1)/w_k = (2n-u) (2n-u-1) (b-k) (c+k+1) / ((u+1) (u+2) (s-k) (k+1))``
    for ``u = 2c+2k`` (Petkovsek-Wilf-Zeilberger, "A = B", 1996).
    """
    if genus < 1:
        raise ValueError(f"genus must be a positive integer, got {genus}")
    fact, dfact = [factorial(i) for i in range(2 * genus + 1)], [double_factorial(2 * p - 1) for p in range(genus + 1)]
    den, t = _tangent_terms(genus)
    alphas, etas = {}, {}
    for a, b, c in degree_triples(genus):
        s, n, sign = b + c, b + 2 * c, (-1) ** (b + c)
        alphas[a, b, c] = Fraction(sign * t[s] * dfact[genus - c], den * dfact[a + c] * dfact[s] * fact[a] * fact[b] * fact[c] << 3 * s)
        w, total = comb(2 * n, 2 * c) * fact[s] // fact[b] * fact[c], 0
        for k in range(b):
            total, u = total + t[c + k] * w, 2 * (c + k)
            w = w * ((2 * n - u) * (2 * n - u - 1) * (b - k) * (c + k + 1)) // ((u + 1) * (u + 2) * (s - k) * (k + 1))
        etas[a, b, c] = Fraction(sign * dfact[s] * (total + t[s] * w), den * fact[a] * fact[c] * fact[2 * n] << 2 * b + c)
    return CoefficientTable(genus=genus, alpha=alphas, eta=etas)


# -------------------------------------------------------------- inner sum


def maple_inner_sum(g: int, h: int, l: int) -> Fraction:
    """The alternating inner sum
    ``sum_{c=l}^{h} (-1)^c 4^c (2g-2c)! / ((g-c)! (c-l)! (g-h-c)! (h-c)!)``
    (defined for ``0 <= l <= h <= g`` with ``g - h >= h``)."""
    if not (0 <= l <= h <= g and g - h >= h):
        raise ValueError(f"need 0 <= l <= h <= g and g - h >= h, got g={g}, h={h}, l={l}")
    total = Fraction(0)
    for c in range(l, h + 1):
        numerator = (-1) ** c * 4 ** c * factorial(2 * g - 2 * c)
        total += Fraction(numerator, factorial(g - c) * factorial(c - l) * factorial(g - h - c) * factorial(h - c))
    return total


def inner_sum_constant(g: int, h: int) -> Fraction:
    """The common value of ``maple_inner_sum(g, h, l)`` divided by
    ``(-1)^l 4^l l! / ((g-l-h)! (h-l)! (2l)!)``, checked over every ``l``.

    Raises ``ArithmeticError`` if the ratio is not independent of ``l``.
    """
    ratios = []
    for l in range(h + 1):
        reference = Fraction((-1) ** l * 4 ** l * factorial(l), factorial(g - l - h) * factorial(h - l) * factorial(2 * l))
        ratios.append(maple_inner_sum(g, h, l) / reference)
    if any(r != ratios[0] for r in ratios):
        raise ArithmeticError(f"inner-sum ratio depends on l for g={g}, h={h}: {ratios}")
    return ratios[0]


# -------------------------------------------------------------- assembly


def boundary_zero_section(ctx: RingContext) -> Polynomial:
    """The class ``xi * T1^(g-1) / (g-1)!`` of the zero section in the
    boundary family at the context's genus."""
    return Polynomial.monomial(RING_VARS, (1, ctx.genus - 1, 0, 0), Fraction(1, factorial(ctx.genus - 1)))


def _walked(variables: tuple[str, ...], scale: int, terms: dict[Exponents, int], *walks) -> Polynomial:
    """``terms / scale`` after each walk ``(slot, x, y, den)`` in turn, on
    integer numerators.  A walk puts ``(x + y) / den``, with ``x`` and ``y``
    integer multiples of monomials, for the variable at ``slot``: ``v^e ->
    sum_j C(e, j) x^(e-j) y^j``, one row per ``e`` scaled to ``den^top`` for
    the largest ``e``.  With ``x = den*v`` this is ``exp((y/den) d/dv)``."""
    for slot, (nx, ux), (ny, uy), den in walks:
        top, out, step = max(e[slot] for e in terms), {}, tuple(map(sub, uy, ux))
        rows = [[comb(e, j) * nx ** (e - j) * ny**j * den ** (top - e) for j in range(e + 1)] for e in range(top + 1)]
        for exps, v in terms.items():
            mono = tuple(m + exps[slot] * (u - (i == slot)) for i, (m, u) in enumerate(zip(exps, ux)))
            for w in rows[exps[slot]]:
                out[mono] = out.get(mono, 0) + v * w
                mono = tuple(map(add, mono, step))
        scale, terms = scale * den**top, out
    return Polynomial._raw(variables, {e: Fraction(v, scale) for e, v in terms.items() if v})


def _triangular_sum(genus: int, basis: str) -> Polynomial:
    """The ``basis`` combination of ``(T1 - T2/4, -2*T2, T2^2 - P^2)``, whose
    shifts by ``-1/2`` and ``+1/2`` are ``(theta, boundary, gluing)`` under
    ``xi -> 0`` and ``xi -> P``: ``sum coeff * T1^a (-2*T2)^b xi^c``, ``xi``
    holding ``c``, walked.  The ``"alpha"`` images are ``(T1, -2*T2, 4*T1*T2 -
    P^2)``, one walk ``xi -> 4*T1*T2 - P^2``; ``"eta"`` takes two, ``T1 -> T1 -
    T2/4`` and then ``xi -> T2^2 - P^2``."""
    walks = {
        "alpha": [(0, (4, (0, 1, 0, 1)), (-1, (0, 0, 2, 0)), 1)],
        "eta": [(1, (4, (0, 1, 0, 0)), (-1, (0, 0, 0, 1)), 4), (0, (1, (0, 0, 0, 2)), (-1, (0, 0, 2, 0)), 1)],
    }
    if basis not in walks:
        raise ValueError(f"unknown basis {basis!r}; expected 'alpha' or 'eta'")
    scale, terms = _numerators(getattr(coefficient_table(genus), basis))
    terms = {(c, a, 0, b): v * (-2) ** b for (a, b, c), v in terms.items()}
    return _walked(RING_VARS, scale, terms, *walks[basis])


def _xi_over_p(terms: dict[Exponents, Fraction]) -> dict[Exponents, Fraction]:
    """The terms of ``xi * p / P`` for the terms of xi-free ``p``, which ``P`` must divide."""
    out = {}
    for (_, a, b, c), coeff in terms.items():
        if not b:
            raise ArithmeticError(f"P does not divide the term {coeff}*T1^{a}*T2^{c} of the xi -> P image")
        out[(1, a, b - 1, c)] = coeff
    return out


def assemble_main_rhs(ctx: RingContext, basis: str = "alpha") -> Polynomial:
    """The invariant-basis combination predicted to equal the zero-section
    class, as its xi-linear representative ``A0 + xi*A1``.  The ring maps
    ``xi -> 0`` and ``xi -> P`` out of ``R~`` send it to the shifts by ``-1/2``
    and ``+1/2`` of the triangular sum, ``E - O`` and ``E + O`` for the even and
    odd parts of one ``exp(D/2)`` walk: ``A0 = E - O``, and ``P*A1 = 2*O``."""
    even, odd = _shift_parts(_triangular_sum(ctx.genus, basis), Fraction(1, 2))
    return Polynomial._raw(RING_VARS, {**(even - odd).terms, **_xi_over_p((2 * odd).terms)})


def _main_residual(ctx: RingContext, s: Polynomial, reduced: Polynomial) -> Polynomial:
    """``NF(assemble_main_rhs(ctx) - boundary_zero_section(ctx))`` from the alpha
    triangular sum ``s`` and its normal form ``reduced``.  ``exp(D/2)`` keeps ``I_g``
    (``T1 + m*P + m^2*T2`` goes to ``m + 1/2``), so ``NF(A0) = NF(exp(-D/2) reduced)``.
    ``A1`` has degree ``g-1``, where ``R`` is free, and ``2*O = phi(D) D s``, ``phi(x)
    = sinh(x/2)/(x/2) = sum (x/2)^(2m)/(2m+1)!``.  With ``Z = P*T1^(g-1)/(2*(g-1)!)``
    and ``psi = 1/phi = sum T(m) (x/2)^(2m)/(2m)!``, the xi part is ``phi(D) W / P``,
    ``W = D s - 2 psi(D) Z``: only ``Z`` and the residuals ``reduced`` and ``W`` are walked."""
    g, (scale, terms), (den, t) = ctx.genus, _numerators(s.terms), _tangent_terms(ctx.genus)
    # W over scale * zden: 2 psi(D) Z is the sum of t[m] 2^(2g-2m) D^(2m) (P*T1^(g-1)) / (2m)! over zden.
    zden, phiden = den * factorial(g - 1) << 2 * g, lcm(*range(1, 2 * g + 2, 2)) << 2 * g
    (w,) = _level_sums(terms, (0, zden))
    (psi_z,) = _level_sums({(0, g - 1, 1, 0): scale}, [0 if j % 2 else t[j // 2] << 2 * g - j for j in range(2 * g)])
    for e, v in psi_z.items():
        w[e] = w.get(e, 0) - v
    (phi_w,) = _level_sums({e: v for e, v in w.items() if v}, [0 if j % 2 else phiden // (j + 1 << j) for j in range(2 * g + 1)])
    xi_part = _xi_over_p({e: Fraction(v, scale * zden * phiden) for e, v in phi_w.items()})
    return Polynomial._raw(RING_VARS, {**ctx.normal_form(_shifted(reduced, Fraction(-1, 2))).terms, **xi_part})


# -------------------------------------------------------------- reports


@dataclass
class VerificationReport:
    """Outcome of one exact verification.

    ``residual`` is the reduced difference between the two sides (the zero
    polynomial exactly when the identity holds).  ``seconds`` is wall-clock
    time; it is kept out of all serialized output so that runs are
    byte-for-byte reproducible.
    """

    name: str
    genus: int
    holds: bool
    residual: Polynomial
    seconds: float = 0.0

    def to_dict(self, include_timing: bool = False) -> dict:
        payload: dict = {"name": self.name, "genus": self.genus, "holds": self.holds, "residual": format_polynomial(self.residual)}
        if include_timing:
            payload["seconds"] = self.seconds
        return payload

    def summary(self) -> str:
        verdict = "holds" if self.holds else f"FAILS, residual {format_polynomial(self.residual)}"
        return f"{self.name} (genus {self.genus}): {verdict}"


def _checked(name: str, genus: int, residual: Callable[[], Polynomial]) -> VerificationReport:
    """Time ``residual()`` and report it: the check holds when it is zero."""
    clock = time.perf_counter
    started = clock()
    value = residual()
    return VerificationReport(name=name, genus=genus, holds=value.is_zero(), residual=value, seconds=clock() - started)


# -------------------------------------------------------------- verifiers


def verify_main(genus: int) -> VerificationReport:
    """Check the main identity: the assembled alpha combination reduces to
    the zero-section class in the quotient ring.  It holds iff the triangular
    sum ``S`` reduces to 0 and ``D S = 2 psi(D) Z`` (``_main_residual``): one
    normal form and one derivation of ``S``, with the same residual."""
    ctx, s = make_context(genus), _triangular_sum(genus, "alpha")
    return _checked("main_identity", genus, lambda: _main_residual(ctx, s, ctx.normal_form(s)))


def verify_eta_alpha(genus: int) -> VerificationReport:
    """Check that the eta family is the expansion of the alpha family: in the
    free polynomial ring on the invariant variables,
    ``sum alpha * (Theta - D/8)^a D^b (Delta - 2 Theta D)^c`` equals
    ``sum eta * Theta^a D^b Delta^c`` identically.  The left side is two walks,
    ``Theta -> Theta - D/8`` and then ``Delta -> Delta - 2*Theta*D``, each O(g^3)."""

    def residual() -> Polynomial:
        table = coefficient_table(genus)
        walks = (0, (8, (1, 0, 0)), (-1, (0, 1, 0)), 8), (2, (1, (0, 0, 1)), (-2, (1, 1, 0)), 1)
        return _walked(INVARIANT_VARS, *_numerators(table.alpha), *walks) - Polynomial._raw(INVARIANT_VARS, table.eta)

    return _checked("eta_alpha_expansion", genus, residual)


def verify_triangular(genus: int) -> VerificationReport:
    """Check the triangularity identity: substituting ``T1`` for the shifted
    polarization, ``-2*T2`` for the boundary and ``4*T1*T2 - P^2`` for the
    xi-free invariant into the alpha combination lands in the ideal."""
    return _checked("triangular_identity", genus, lambda: make_context(genus).normal_form(_triangular_sum(genus, "alpha")))


def verify_invariance(genus: int) -> list[VerificationReport]:
    """Check shift invariance for the distinguished classes, and involution
    invariance for those that have it.

    The extra shift-invariant class is checked for shift invariance only:
    once the genus exceeds 2 it is not involution-invariant.  It is
    anti-invariant modulo the subring generated by theta, boundary and
    gluing: its involution-symmetrization lies in that subring, the class
    itself does not.
    """
    return _invariance(make_context(genus))


def _invariance(ctx: RingContext) -> list[VerificationReport]:
    genus, gens, reports = ctx.genus, invariant_generators(), []
    for label, cls, check_involution in (
        ("theta", gens.theta, True),
        ("boundary", gens.boundary, True),
        ("gluing", gens.gluing, True),
        ("q", q_class(), True),
        ("extra", extra_shift_invariant(), False),
        ("zero_section", boundary_zero_section(ctx), True),
    ):
        reports.append(_checked(f"shift_invariance[{label}]", genus, lambda: ctx.normal_form(shift(restrict_infty(cls), 1) - restrict_zero(cls))))
        if check_involution:
            reports.append(_checked(f"involution_invariance[{label}]", genus, lambda: ctx.normal_form(involution(cls) - cls)))
    return reports


def verify_all(genus: int) -> list[VerificationReport]:
    """Every verification at one genus, in deterministic order, on one ring context:
    the triangular report is the triangular sum's normal form, and the main report reads it."""
    ctx, s = make_context(genus), _triangular_sum(genus, "alpha")
    triangular = _checked("triangular_identity", genus, lambda: ctx.normal_form(s))
    main = _checked("main_identity", genus, lambda: _main_residual(ctx, s, triangular.residual))
    return [main, verify_eta_alpha(genus), triangular, *_invariance(ctx)]
