"""The package's public names: which ones, and where each is defined."""

import importlib

import chowkit

PUBLIC = {
    "arith": ["bernoulli", "binomial", "double_factorial", "factorial"],
    "dr": [
        "DivisorSymbol",
        "FormalClass",
        "boundary_pullback",
        "deserialize",
        "dr_class",
        "dr_text",
        "gluing_pullback",
        "serialize",
        "specialize_compact_type",
        "theta_pullback",
    ],
    "parsing": ["ParseError", "parse"],
    "poly": [
        "INVARIANT_VARS",
        "Polynomial",
        "RING_VARS",
        "d_grade",
        "d_graded_piece",
        "format_polynomial",
        "polynomial_from_json",
    ],
    "ring": [
        "InvariantGenerators",
        "NotInSpanError",
        "RingContext",
        "degree_triples",
        "extra_shift_invariant",
        "half_shift",
        "invariant_basis_element",
        "invariant_generators",
        "involution",
        "make_context",
        "q_class",
        "restrict_infty",
        "restrict_zero",
        "shift",
    ],
    "zero_section": [
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
    ],
}


def test_public_names():
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 52
    assert sorted(chowkit.__all__) == names


def test_public_names_are_the_defining_modules_objects():
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"chowkit.{module}")
        for name in names:
            assert getattr(chowkit, name) is getattr(defining, name), name
