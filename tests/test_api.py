"""The package's public names: which ones, where each is defined, and the one rule for their integer arguments."""

import importlib

import pytest

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


T1 = chowkit.Polynomial.variable(chowkit.RING_VARS, "T1")
DELTA_IRR = chowkit.FormalClass.from_symbol(2, (1, -1), chowkit.DivisorSymbol.irreducible())


def exponent_json(e):
    return {"vars": list(chowkit.RING_VARS), "terms": [{"coeff": "1", "exps": [0, e, 0, 0]}]}


#: Each integer argument of an entry point, as a call on the value to pass, and the values that
#: are not ints to pass there.  Where a float was refused already, only the bool is passed.
INTEGER_ARGUMENTS = [
    ("factorial", chowkit.factorial, (True, 2.0)),
    ("binomial-n", lambda v: chowkit.binomial(v, 1), (True, 2.0)),
    ("binomial-k", lambda v: chowkit.binomial(2, v), (True, 1.0)),
    ("double_factorial", chowkit.double_factorial, (True, 3.0)),
    ("bernoulli", chowkit.bernoulli, (True, 2.0)),
    ("Polynomial", lambda v: chowkit.Polynomial(chowkit.RING_VARS, {(0, v, 0, 0): 1}), (True, 2.0)),
    ("Polynomial.__pow__", lambda v: (T1 + 1) ** v, (True,)),
    ("polynomial_from_json", lambda v: chowkit.polynomial_from_json(exponent_json(v)), (True, 1.9)),
    ("d_graded_piece", lambda v: chowkit.d_graded_piece(T1, v), (True, 1.0)),
    ("shift", lambda v: chowkit.shift(T1, v), (True,)),
    ("invariant_basis_element", lambda v: chowkit.invariant_basis_element((v, 0, 0)), (True, 1.0)),
    ("alpha", lambda v: chowkit.alpha(v, 0, 0), (True, 1.0)),
    ("eta", lambda v: chowkit.eta(0, 0, v), (True, 1.0)),
    ("alpha_b0_closed_form", lambda v: chowkit.alpha_b0_closed_form(v, 0), (True, 1.0)),
    ("maple_inner_sum", lambda v: chowkit.maple_inner_sum(v, 0, 0), (True, 2.0)),
    ("inner_sum_constant", lambda v: chowkit.inner_sum_constant(v, 0), (True, 2.0)),
    ("cotangent", chowkit.DivisorSymbol.cotangent, (True, 2.0)),
    ("rational_bridge", chowkit.DivisorSymbol.rational_bridge, (True, 2.0)),
    ("separating-genus", lambda v: chowkit.DivisorSymbol.separating(v, 0, [1, 2], 3), (True, 3.0)),
    ("separating-n", lambda v: chowkit.DivisorSymbol.separating(3, 1, [1], v), (True, 3.0)),
    ("separating-h", lambda v: chowkit.DivisorSymbol.separating(3, v, [1, 2], 3), (True, 1.0)),
    ("separating-point", lambda v: chowkit.DivisorSymbol.separating(3, 1, [v, 2], 3), (True, 1.0)),
    ("FormalClass-power", lambda v: chowkit.FormalClass(2, (1, -1), {((chowkit.DivisorSymbol.irreducible(), v),): 1}), (True, 1.0)),
    ("FormalClass.__pow__", lambda v: DELTA_IRR**v, (True,)),
    ("to_json_dict", lambda v: chowkit.DivisorSymbol.irreducible().to_json_dict(v), (True, 2.0)),
]
CASES = [(name, call, v) for name, call, values in INTEGER_ARGUMENTS for v in values]


@pytest.mark.parametrize("call, value", [case[1:] for case in CASES], ids=[f"{name}-{v!r}" for name, _, v in CASES])
def test_integer_arguments_refuse_a_bool_and_a_float(call, value):
    # Neither is read as an int, and neither gets as far as a TypeError.
    with pytest.raises(ValueError, match="integer"):
        call(value)


def test_a_symbol_round_trips_and_its_index_is_an_int():
    cls = chowkit.FormalClass.from_symbol(2, (1, -1), chowkit.DivisorSymbol.cotangent(2))
    assert chowkit.deserialize(chowkit.serialize(cls)) == cls
    # A float index is refused here, not written out as "i": 2.0 for deserialize to refuse.
    with pytest.raises(ValueError, match="numbered from 1"):
        chowkit.DivisorSymbol.cotangent(2.0)
