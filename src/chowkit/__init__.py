"""chowkit: exact Chow-ring computations for the boundary of the universal
family of degenerating principally polarized abelian varieties.

The package models the divisor-generated subring of the boundary as an exact
quotient ring over the rationals, machine-verifies the expansion of the
zero-section class in invariant divisor classes, and expands
double-ramification classes over formal boundary symbols on moduli of
pointed curves.
"""

from .arith import bernoulli, binomial, double_factorial, factorial
from .dr import (
    DivisorSymbol,
    FormalClass,
    boundary_pullback,
    deserialize,
    dr_class,
    gluing_pullback,
    serialize,
    specialize_compact_type,
    theta_pullback,
)
from .parsing import ParseError, parse
from .poly import (
    INVARIANT_VARS,
    RING_VARS,
    Polynomial,
    d_grade,
    d_graded_piece,
    format_polynomial,
    polynomial_from_json,
)
from .ring import (
    InvariantGenerators,
    NotInSpanError,
    RingContext,
    degree_triples,
    extra_shift_invariant,
    half_shift,
    invariant_basis_element,
    invariant_generators,
    involution,
    make_context,
    q_class,
    restrict_infty,
    restrict_zero,
    shift,
)
from .zero_section import (
    CoefficientTable,
    VerificationReport,
    alpha,
    alpha_b0_closed_form,
    assemble_main_rhs,
    boundary_zero_section,
    coefficient_table,
    eta,
    inner_sum_constant,
    maple_inner_sum,
    verify_all,
    verify_eta_alpha,
    verify_invariance,
    verify_main,
    verify_triangular,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientTable",
    "DivisorSymbol",
    "FormalClass",
    "INVARIANT_VARS",
    "InvariantGenerators",
    "NotInSpanError",
    "ParseError",
    "Polynomial",
    "RING_VARS",
    "RingContext",
    "VerificationReport",
    "alpha",
    "alpha_b0_closed_form",
    "assemble_main_rhs",
    "bernoulli",
    "binomial",
    "boundary_pullback",
    "boundary_zero_section",
    "coefficient_table",
    "d_grade",
    "d_graded_piece",
    "degree_triples",
    "deserialize",
    "double_factorial",
    "dr_class",
    "eta",
    "extra_shift_invariant",
    "factorial",
    "format_polynomial",
    "gluing_pullback",
    "half_shift",
    "inner_sum_constant",
    "invariant_basis_element",
    "invariant_generators",
    "involution",
    "make_context",
    "maple_inner_sum",
    "parse",
    "polynomial_from_json",
    "q_class",
    "restrict_infty",
    "restrict_zero",
    "serialize",
    "shift",
    "specialize_compact_type",
    "theta_pullback",
    "verify_all",
    "verify_eta_alpha",
    "verify_invariance",
    "verify_main",
    "verify_triangular",
]
