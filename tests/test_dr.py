"""Formal divisor symbols, the pullback classes, the double-ramification
expansion and its serializations."""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from chowkit import (
    INVARIANT_VARS,
    DivisorSymbol,
    FormalClass,
    Polynomial,
    boundary_pullback,
    deserialize,
    dr_class,
    dr_text,
    eta,
    factorial,
    format_polynomial,
    gluing_pullback,
    parse,
    serialize,
    specialize_compact_type,
    theta_pullback,
)
from chowkit.dr import _FIELDS
from chowkit.poly import signed_sum
from chowkit.zero_section import coefficient_table

F = Fraction


def sep(g, h, points, n):
    return DivisorSymbol.separating(g, h, points, n)


def single(symbol):
    return ((symbol, 1),)


# ------------------------------------------------------------------ symbols


def test_symbol_constructors():
    k = DivisorSymbol.cotangent(3)
    assert k.kind == "K" and k.index == 3 and k.codimension == 1
    assert DivisorSymbol.irreducible().codimension == 1
    assert DivisorSymbol.rational_bridge(2).codimension == 2
    d = sep(3, 1, [3, 2], 3)
    assert d.genus_part == 1 and d.points == (2, 3)
    assert sep(3, 1, [2, 2, 3], 3).points == (2, 3)  # duplicates collapse


def test_symbol_canonicalization():
    # Complementary presentations name the same divisor.
    assert sep(2, 1, [2], 2) == sep(2, 1, [1], 2)
    assert sep(3, 2, [1], 3) == sep(3, 1, [2, 3], 3)
    assert sep(4, 3, [], 2) == sep(4, 1, [1, 2], 2)
    # The balanced case keeps the side containing the first marked point.
    assert sep(4, 2, [2], 2) == sep(4, 2, [1], 2)
    assert sep(4, 2, [1], 2).points == (1,)


def test_symbol_validation():
    with pytest.raises(ValueError):
        DivisorSymbol.cotangent(0)
    with pytest.raises(ValueError):
        DivisorSymbol.rational_bridge(-1)
    with pytest.raises(ValueError):
        sep(2, 3, [1], 2)  # genus part out of range
    with pytest.raises(ValueError):
        sep(2, 1, [5], 2)  # point outside 1..n
    with pytest.raises(ValueError):
        sep(2, 0, [1], 2)  # genus-0 side with one point is unstable
    with pytest.raises(ValueError):
        sep(2, 2, [1, 2], 2)  # flips to an unstable genus-0 side


def test_symbol_latex():
    assert DivisorSymbol.cotangent(2).latex() == "K_{2}"
    assert DivisorSymbol.irreducible().latex() == r"\delta_{irr}"
    assert DivisorSymbol.rational_bridge(1).latex() == r"\xi_{1}"
    assert sep(3, 1, [2, 3], 3).latex() == r"\delta_{1}^{\{2,3\}}"


# ------------------------------------------------------------------ classes


def test_formal_class_arithmetic():
    one = FormalClass.one(2, (1, -1))
    irr = boundary_pullback(2, (1, -1))
    theta = theta_pullback(2, (1, -1))
    assert (irr + irr) == 2 * irr
    assert (theta + irr) * (theta - irr) == theta * theta - irr * irr
    assert irr ** 0 == one
    assert irr ** 3 == irr * irr * irr
    assert (theta - theta).is_zero()
    assert one.codimension() == 0 and irr.codimension() == 1


def test_formal_class_pow_and_ambient_errors():
    irr = boundary_pullback(2, (1, -1))
    with pytest.raises(ValueError):
        irr ** -1
    with pytest.raises(ValueError):
        irr + boundary_pullback(2, (2, -2))
    with pytest.raises(ValueError):
        irr * boundary_pullback(3, (1, -1))
    with pytest.raises(ValueError):
        (irr + FormalClass.one(2, (1, -1))).codimension()


def test_formal_class_powers_of_a_class_with_products_squares_and_xi():
    # Not a sum of distinct single symbols, so the power multiplies term by term.
    w = (1, 1, -2)
    k1, irr, xi = DivisorSymbol.cotangent(1), DivisorSymbol.irreducible(), DivisorSymbol.rational_bridge(1)
    c = FormalClass(3, w, {((k1, 1), (irr, 1)): 2, ((irr, 2),): -1, single(xi): F(1, 3)})
    # (A + B + C)^3 for A = 2 K1 irr, B = -irr^2, C = xi/3, by the multinomial theorem.
    cube = {
        ((k1, 3), (irr, 3)): 8, ((irr, 6),): -1, ((xi, 3),): F(1, 27),
        ((k1, 2), (irr, 4)): -12, ((k1, 2), (irr, 2), (xi, 1)): 4, ((k1, 1), (irr, 5)): 6,
        ((irr, 4), (xi, 1)): 1, ((k1, 1), (irr, 1), (xi, 2)): F(2, 3), ((irr, 2), (xi, 2)): F(-1, 3),
        ((k1, 1), (irr, 3), (xi, 1)): -4,
    }
    assert c**3 == FormalClass(3, w, cube) and len((c**3).ids) == 10
    assert c**0 == FormalClass.one(3, w)
    assert c**1 == c
    assert c != FormalClass(3, (2, 1, -3), c.terms) and c != FormalClass(4, w, c.terms)
    assert c.__eq__(1) is NotImplemented
    assert repr(c) == "FormalClass(genus=3, weights=(1, 1, -2), 3 terms)"


def _json_entry(symbol, power):
    """A symbol's JSON entry, written out field by field."""
    fields = {"i": symbol.index} if symbol.kind in ("K", "xi") else {}
    if symbol.kind == "delta":
        fields = {"h": symbol.genus_part, "P": list(symbol.points)}
    return {"kind": symbol.kind, **fields, **({"power": power} if power != 1 else {})}


@pytest.mark.parametrize("seed", range(8))
def test_the_constructor_products_and_deserialize_agree_on_keys(seed):
    # Terms with repeated, out-of-order and zero-power symbols: each way of
    # making a class puts every key in one normal form, increasing ids and no
    # zero power, and the three give the same class.
    g, w = 3, (1, 1, -2)
    pool = [DivisorSymbol.cotangent(1), DivisorSymbol.cotangent(3), DivisorSymbol.irreducible(), sep(g, 0, [1, 2], 3)]
    pool += [sep(g, 1, [3], 3), DivisorSymbol.rational_bridge(1), DivisorSymbol.rational_bridge(3)]
    rng = random.Random(4100 + seed)

    def term(budget):  # of codimension budget (deserialize checks that the terms share one), with zero powers
        factors = []
        while budget:
            symbol = rng.choice(pool)
            power = rng.randint(0, budget // symbol.codimension)
            factors.append((symbol, power))
            budget -= power * symbol.codimension
        return tuple(rng.sample(factors, len(factors)))

    def terms(count):
        return [(term(4), F(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(count)]

    def normal(cls):
        return all(list(key[::2]) == sorted(set(key[::2])) and all(key[1::2]) for key in cls.ids)

    a, b = terms(6), terms(5)
    built = FormalClass(g, w, a)
    payload = {"g": g, "weights": list(w), "terms": [
        {"coeff": str(coeff), "symbols": [_json_entry(s, p) for s, p in term if p]} for term, coeff in a
    ]}
    read = deserialize(json.dumps(payload))
    assert read == built and normal(read) and normal(built)
    product, joined = FormalClass(g, w, a) * FormalClass(g, w, b), FormalClass(g, w, [(s + t, x * y) for s, x in a for t, y in b])
    assert product.symbols == joined.symbols and product.ids == joined.ids and normal(product)


def test_weight_validation():
    with pytest.raises(ValueError):
        theta_pullback(2, (1, 1))
    with pytest.raises(ValueError):
        theta_pullback(0, (0,))
    with pytest.raises(ValueError):
        dr_class(2, ())
    # Numbers that are not ints are refused, not truncated by int().
    with pytest.raises(ValueError, match="must be integers"):
        dr_class(1, (1.5, -1.5))
    with pytest.raises(ValueError, match="must be integers"):
        theta_pullback(2, (0.9, -0.9))
    with pytest.raises(ValueError, match="must be integers"):
        FormalClass(2, (2.7, -2.2))
    with pytest.raises(ValueError, match="must be integers"):
        dr_class(True, (1, -1))
    with pytest.raises(ValueError, match="must be integers"):
        dr_class(2.0, (1, -1))


# ------------------------------------------------------------------ pullbacks


def test_theta_genus_2_simple_weights():
    cls = theta_pullback(2, (1, -1))
    expected = {
        single(DivisorSymbol.cotangent(1)): F(1, 2),
        single(DivisorSymbol.cotangent(2)): F(1, 2),
        single(sep(2, 0, [1, 2], 2)): F(1),
        single(sep(2, 1, [1], 2)): F(-1, 2),
    }
    assert cls.terms == expected
    assert cls.codimension() == 1


def test_theta_genus_3_spot_values():
    cls = theta_pullback(3, (1, 1, -2))
    t = cls.terms
    assert t[single(DivisorSymbol.cotangent(1))] == F(1, 2)
    assert t[single(DivisorSymbol.cotangent(3))] == 2
    assert t[single(sep(3, 0, [1, 2], 3))] == -1
    assert t[single(sep(3, 0, [1, 3], 3))] == 2
    assert t[single(sep(3, 0, [2, 3], 3))] == 2
    assert t[single(sep(3, 0, [1, 2, 3], 3))] == 3
    assert t[single(sep(3, 1, [1], 3))] == F(-1, 2)
    assert t[single(sep(3, 1, [3], 3))] == -2
    assert t[single(sep(3, 1, [1, 2], 3))] == -2
    # The d = 0 separating pieces carry coefficient zero and are dropped.
    assert single(sep(3, 1, [1, 2, 3], 3)) not in t
    assert len(t) == 13


def test_theta_counts_each_divisor_once():
    # delta_1^{1} and delta_2^{2,3} are the same genus-3 divisor; its
    # coefficient must be -d^2/2 for the genus-1 side, not doubled.
    cls = theta_pullback(3, (2, -1, -1))
    assert cls.terms[single(sep(3, 2, [2, 3], 3))] == -2


def test_zero_weights_degenerate():
    assert theta_pullback(2, (0, 0)).is_zero()
    assert gluing_pullback(2, (0, 0)).is_zero()
    irr = boundary_pullback(2, (0, 0))
    assert dr_class(2, (0, 0)) == F(-1, 240) * irr * irr


def test_boundary_and_gluing_pullbacks():
    irr = boundary_pullback(2, (1, -1))
    assert irr.terms == {single(DivisorSymbol.irreducible()): F(1)}
    glue = gluing_pullback(3, (2, 0, -2))
    assert glue.terms == {
        single(DivisorSymbol.rational_bridge(1)): F(2),
        single(DivisorSymbol.rational_bridge(3)): F(2),
    }
    assert glue.codimension() == 2


def test_negation_invariance():
    # Every coefficient is even in the weights, so flipping all signs changes
    # nothing except the ambient weight vector itself: compare term by term.
    for g, w in [(1, (1, -1)), (2, (2, -1, -1)), (3, (1, 1, -2))]:
        flipped = tuple(-d for d in w)
        assert theta_pullback(g, w).terms == theta_pullback(g, flipped).terms
        assert gluing_pullback(g, w).terms == gluing_pullback(g, flipped).terms
        assert dr_class(g, w).terms == dr_class(g, flipped).terms


def relabeled(cls, new_label):
    """``cls`` with each symbol's marked point ``i`` renamed ``new_label[i]``."""
    g, n = cls.genus, cls.n

    def rename(symbol):
        if symbol.kind == "K":
            return DivisorSymbol.cotangent(new_label[symbol.index])
        if symbol.kind == "xi":
            return DivisorSymbol.rational_bridge(new_label[symbol.index])
        if symbol.kind == "delta":
            return sep(g, symbol.genus_part, [new_label[i] for i in symbol.points], n)
        return symbol

    weights = [0] * n
    for i, d in enumerate(cls.weights, 1):
        weights[new_label[i] - 1] = d
    return FormalClass(g, weights, {tuple((rename(s), p) for s, p in term): c for term, c in cls.terms.items()})


def test_relabeling_equivariance():
    # Permuting the weights permutes the marked points of every symbol: 96
    # permutations in all (g = 3 with n = 4 would take about 12 s).
    cases = [(1, (1, 2, -3)), (2, (1, 2, -3)), (3, (2, -1, -1)), (3, (1, 2, -3)), (1, (1, 2, 4, -7)), (2, (1, -1, 2, -2)), (2, (1, 2, 4, -7))]
    for g, weights in cases:
        for order in permutations(range(1, len(weights) + 1)):
            new_label = dict(zip(order, range(1, len(weights) + 1)))
            permuted = tuple(weights[i - 1] for i in order)
            for build in (theta_pullback, dr_class):
                assert build(g, permuted) == relabeled(build(g, weights), new_label)


# ------------------------------------------------------------------ dr class


def test_dr_genus_1_exact():
    cls = dr_class(1, (1, -1))
    assert cls.terms == {
        single(DivisorSymbol.cotangent(1)): F(1, 2),
        single(DivisorSymbol.cotangent(2)): F(1, 2),
        single(DivisorSymbol.irreducible()): F(-1, 12),
        single(sep(1, 0, [1, 2], 2)): F(1),
    }


def test_dr_genus_2_shape():
    cls = dr_class(2, (1, -1))
    assert cls.codimension() == 2
    assert len(cls.terms) == 17
    # Pure irreducible-boundary square enters with eta(0,2,0).
    assert cls.terms[((DivisorSymbol.irreducible(), 2),)] == eta(0, 2, 0)
    # The rational-bridge square term comes from eta(0,0,1) * |d_1| xi_1 etc.
    assert cls.terms[((DivisorSymbol.rational_bridge(1), 1),)] == eta(0, 0, 1)


@pytest.mark.parametrize("g", range(1, 5))
def test_dr_is_homogeneous_of_codimension_g(g):
    rng = random.Random(600 + g)
    n_cap = {1: 5, 2: 5, 3: 4, 4: 3}[g]
    for _ in range(3):
        n = rng.randint(2, n_cap)
        weights = [rng.randint(-3, 3) for _ in range(n - 1)]
        weights.append(-sum(weights))
        assert dr_class(g, weights).codimension() in (0, g)


@pytest.mark.parametrize(
    "g, weights",
    [(1, (1, -1)), (2, (1, -1)), (2, (2, -1, -1)), (3, (1, 1, -2)), (4, (1, -1))],
)
def test_compact_type_specialization(g, weights):
    # Killing the non-compact symbols leaves the classical power formula.
    restricted = specialize_compact_type(dr_class(g, weights))
    theta = theta_pullback(g, weights)
    assert restricted == theta ** g * F(1, factorial(g))


def test_specialize_drops_only_targeted_symbols():
    cls = dr_class(2, (1, -1))
    kept = specialize_compact_type(cls)
    for term in kept.terms:
        assert all(s.kind in ("K", "delta") for s, _ in term)
    dropped = {t for t in cls.terms if t not in kept.terms}
    assert dropped  # something was genuinely removed
    for term in dropped:
        assert any(s.kind in ("delta_irr", "xi") for s, _ in term)


# ------------------------------------------------------------------ rendering


def test_latex_fixtures():
    assert (
        serialize(theta_pullback(2, (1, -1)), "latex")
        == r"\frac{1}{2} K_{1} + \frac{1}{2} K_{2} + \delta_{0}^{\{1,2\}} - \frac{1}{2} \delta_{1}^{\{1\}}"
    )
    assert (
        serialize(dr_class(1, (1, -1)), "latex")
        == r"\frac{1}{2} K_{1} + \frac{1}{2} K_{2} - \frac{1}{12} \delta_{irr} + \delta_{0}^{\{1,2\}}"
    )
    assert serialize(dr_class(2, (0, 0)), "latex") == r"-\frac{1}{240} \delta_{irr}^{2}"
    assert serialize(FormalClass.zero(2, (1, -1)), "latex") == "0"
    powered = FormalClass(2, (1, -1), {((sep(2, 1, [1], 2), 2),): F(3)})
    assert serialize(powered, "latex") == r"3 (\delta_{1}^{\{1\}})^{2}"


def test_serialize_rejects_unknown_mode():
    with pytest.raises(ValueError):
        serialize(dr_class(1, (1, -1)), "html")


def test_dr_text_rejects_unknown_mode_before_walking(monkeypatch):
    from chowkit import dr

    def walk(*args, **kwargs):
        raise AssertionError("an unknown mode was walked")

    monkeypatch.setattr(dr, "_walk", walk)
    with pytest.raises(ValueError, match="unknown serialization mode"):
        dr._dr_pieces(1, (1, -1), "html", False)  # at the call, before a piece is taken
    with pytest.raises(ValueError, match="unknown serialization mode"):
        dr_text(1, (1, -1), "html")


def test_mixed_codimension_has_latex_but_no_json():
    one = FormalClass.one(2, (1, -1))
    cls = one + boundary_pullback(2, (1, -1))
    with pytest.raises(ValueError, match="not homogeneous"):
        serialize(cls)
    assert serialize(cls, "latex") == r"1 + \delta_{irr}"
    assert serialize(one * F(-3, 4) - boundary_pullback(2, (1, -1)), "latex") == r"-\frac{3}{4} - \delta_{irr}"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(value=_JSON_VALUES, depth=st.integers(0, 3))
def test_dump_is_the_indented_json_dump_at_its_depth(value, depth):
    # The CLI's JSON arrays and the DR symbol entries are laid out by _dump,
    # each entry as json.dumps(entry, indent=2) prints it inside its parents.
    from chowkit.dr import _dump

    indent = "\n" + "  " * depth
    assert _dump(value, indent) == json.dumps(value, indent=2).replace("\n", indent)


def test_json_structure():
    payload = json.loads(serialize(theta_pullback(2, (1, -1))))
    assert payload["g"] == 2 and payload["n"] == 2
    assert payload["weights"] == [1, -1]
    assert payload["codim"] == 1
    assert payload["terms"][0] == {"coeff": "1/2", "symbols": [{"kind": "K", "i": 1}]}
    delta_terms = [t for t in payload["terms"] if t["symbols"][0]["kind"] == "delta"]
    assert delta_terms[0]["symbols"] == [{"kind": "delta", "h": 0, "P": [1, 2]}]


def test_json_powers_only_when_needed():
    payload = json.loads(serialize(dr_class(2, (0, 0))))
    assert payload["terms"] == [
        {"coeff": "-1/240", "symbols": [{"kind": "delta_irr", "power": 2}]}
    ]


def full_payload(cls):
    return {
        "g": cls.genus,
        "n": cls.n,
        "weights": list(cls.weights),
        "codim": cls.codimension(),
        "terms": [
            {"coeff": str(coeff), "symbols": [symbol.to_json_dict(power) for symbol, power in term]}
            for term, coeff in cls.sorted_terms()
        ],
    }


def every_kind_powered():
    k1, k2, irr = DivisorSymbol.cotangent(1), DivisorSymbol.cotangent(2), DivisorSymbol.irreducible()
    x1, x2, d = DivisorSymbol.rational_bridge(1), DivisorSymbol.rational_bridge(2), sep(3, 1, [2], 2)
    return FormalClass(
        3,
        (1, -1),
        {
            ((k1, 2), (irr, 3), (d, 2), (x1, 2)): F(5, 7),
            ((k2, 3), (x2, 4)): F(-1),
            ((k1, 1), (k2, 2), (irr, 1), (d, 1), (x1, 1), (x2, 2)): F(2),
            ((irr, 11),): F(3, 2),
        },
    )


SERIALIZED_CLASSES = {
    "zero": lambda: FormalClass.zero(2, (1, -1)),
    "one": lambda: FormalClass.one(2, (1, -1)),
    "theta": lambda: theta_pullback(3, (2, -1, -1)),
    "every kind powered": every_kind_powered,
    "delta_h with empty P": lambda: FormalClass.from_symbol(3, (1, -1), sep(3, 1, [], 2), F(-3, 4)) ** 2,
    "compact type": lambda: specialize_compact_type(dr_class(3, (2, -1, -1))),
    "factors out of order": lambda: FormalClass(
        2,
        (1, -1),
        {
            ((sep(2, 1, [1], 2), 2), (DivisorSymbol.irreducible(), 1), (DivisorSymbol.cotangent(1), 1)): F(3),
            ((sep(2, 1, [1], 2), 1), (DivisorSymbol.irreducible(), 3)): F(-1, 2),
        },
    ),
    "dr": lambda: dr_class(2, (2, -1, -1)),
}


@pytest.mark.parametrize("name", SERIALIZED_CLASSES)
def test_json_text_is_that_of_json_dumps(name):
    cls = SERIALIZED_CLASSES[name]()
    assert serialize(cls) == json.dumps(full_payload(cls), indent=2)


# ------------------------------------------------------------------ signed sums against a reference


def reference_signed_sum(terms, render_coeff, separator):
    """The signed join worked out term by term, with nothing shared between terms."""
    chunks = []
    for coeff, pieces in terms:
        magnitude = abs(coeff)
        if not pieces:
            body = render_coeff(magnitude)
        elif magnitude == 1:
            body = separator.join(pieces)
        else:
            body = separator.join([render_coeff(magnitude), *pieces])
        if not chunks:
            chunks.append("-" + body if coeff < 0 else body)
        else:
            chunks.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(chunks) or "0"


def reference_coeff_latex(magnitude):
    if magnitude.denominator == 1:
        return str(magnitude.numerator)
    return r"\frac{%d}{%d}" % (magnitude.numerator, magnitude.denominator)


def reference_latex(cls):
    """The LaTeX of a class from its public ``sorted_terms``, one term at a time."""

    def factor(symbol, power):
        if power == 1:
            return symbol.latex()
        if symbol.kind == "delta":
            return "(%s)^{%d}" % (symbol.latex(), power)
        return "%s^{%d}" % (symbol.latex(), power)

    terms = [(coeff, [factor(s, p) for s, p in term]) for term, coeff in cls.sorted_terms()]
    return reference_signed_sum(terms, reference_coeff_latex, " ")


def shared_and_distinct_coefficients():
    # One coefficient object shared by two terms beside equal-valued distinct ones, of both signs.
    k1, k2, irr = DivisorSymbol.cotangent(1), DivisorSymbol.cotangent(2), DivisorSymbol.irreducible()
    shared, symbols = F(-1, 2), (k1, k2, irr)
    ids = {(0, 1): shared, (1, 1): F(-1, 2), (2, 1): shared, (0, 1, 1, 1): F(1, 2), (1, 2): F(-1), (2, 2): F(-1)}
    return FormalClass._raw(2, (1, -1), symbols, ids)


RENDERED_CLASSES = {
    **SERIALIZED_CLASSES,
    "first term minus one times a symbol": lambda: FormalClass(
        2, (1, -1), {single(DivisorSymbol.cotangent(1)): F(-1), single(DivisorSymbol.cotangent(2)): F(1, 2)}
    ),
    "lone negative constant": lambda: FormalClass(2, (1, -1), {(): F(-3, 4)}),
    "lone minus one": lambda: FormalClass(2, (1, -1), {(): F(-1)}),
    "plus one constant beside symbols": lambda: FormalClass(
        2, (1, -1), {(): F(1), single(DivisorSymbol.cotangent(1)): F(-2), single(DivisorSymbol.irreducible()): F(1)}
    ),
    "equal-valued distinct coefficients": lambda: FormalClass(
        2,
        (1, -1),
        {single(s): F(-1, 3) for s in (DivisorSymbol.cotangent(1), DivisorSymbol.cotangent(2), DivisorSymbol.irreducible())},
    ),
    "shared and distinct coefficient objects": shared_and_distinct_coefficients,
}


@pytest.mark.parametrize("name", RENDERED_CLASSES)
def test_latex_matches_the_term_by_term_reference(name):
    cls = RENDERED_CLASSES[name]()
    assert serialize(cls, "latex") == reference_latex(cls)


def test_latex_reference_reads_the_fixtures():
    # The reference itself against hand-written text.
    assert reference_latex(RENDERED_CLASSES["first term minus one times a symbol"]()) == r"-K_{1} + \frac{1}{2} K_{2}"
    assert reference_latex(RENDERED_CLASSES["lone negative constant"]()) == r"-\frac{3}{4}"
    assert reference_latex(RENDERED_CLASSES["plus one constant beside symbols"]()) == r"1 - 2 K_{1} + \delta_{irr}"
    assert reference_latex(shared_and_distinct_coefficients()) == (
        r"-\frac{1}{2} K_{1} + \frac{1}{2} K_{1} K_{2} - \frac{1}{2} K_{2} - K_{2}^{2}"
        r" - \frac{1}{2} \delta_{irr} - \delta_{irr}^{2}"
    )


def reference_polynomial_text(p, latex=False):
    names = {"xi": r"\xi", "Theta": r"\Theta", "Delta": r"\Delta"} if latex else {}
    terms = []
    for exps, coeff in p.sorted_terms():
        pieces = [
            names.get(v, v) if e == 1 else ("%s^{%d}" if latex else "%s^%d") % (names.get(v, v), e)
            for v, e in zip(p.vars, exps)
            if e
        ]
        # A leading -1 before a power is written out: "-T1^2" would read as (-T1)^2.
        if not latex and not terms and coeff == -1 and pieces and "^" in pieces[0]:
            pieces = ["1", *pieces]
        terms.append((coeff, pieces))
    return reference_signed_sum(terms, reference_coeff_latex if latex else str, " " if latex else "*")


RENDERED_POLYNOMIALS = [
    "0",
    "-7/3",
    "-1",
    "1 - T1",
    "-T1^2 + P",
    "-T1 + P^2",
    "-T1*P^2 - T2",
    "xi*T1 - xi*P + 1/2*T2^3 - 1/2*P - 1/2",
    "2*T1*T2 + P^2 - T2 + 1",
    "-(T1 + P + T2)^4",
    "(1/2*xi - 2/3*T1 + P - 1)^3",
]


@pytest.mark.parametrize("expr", RENDERED_POLYNOMIALS)
def test_polynomial_text_and_latex_match_the_term_by_term_reference(expr):
    p = parse(expr)
    assert format_polynomial(p) == reference_polynomial_text(p)
    assert format_polynomial(p, "latex") == reference_polynomial_text(p, latex=True)
    theta = Polynomial(INVARIANT_VARS, {(e[1], e[2], e[0] + e[3]): c for e, c in p.terms.items()})
    assert format_polynomial(theta, "latex") == reference_polynomial_text(theta, latex=True)


def test_signed_sum_of_coefficients_that_die_after_use():
    # Each Fraction is made for its term and freed after it, so its address can
    # come back for the next one; a lead looked up by id() must not be reused.
    values = [F(1), F(-1), F(2, 3), F(-5), F(7, 2), F(-2, 3), F(0)] * 40

    def fresh():
        for i, value in enumerate(values):
            yield F(value.numerator, value.denominator), ["x"] * (i % 3)

    expected = reference_signed_sum(((value, ["x"] * (i % 3)) for i, value in enumerate(values)), str, "*")
    assert signed_sum(fresh(), str, "*") == expected
    assert signed_sum(iter(()), str, "*") == "0"


# ------------------------------------------------------------------ dr through the CLI


@st.composite
def _weight_lists(draw):
    weights = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    if draw(st.booleans()) and abs(sum(weights[1:])) <= 4:
        weights[0] = -sum(weights[1:])  # a valid vector: the weights sum to zero
    return weights


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(genus=st.integers(1, 3), weights=_weight_lists(), mode=st.sampled_from(["json", "latex", "compact"]))
# The largest classes in range, which the search above seldom reaches.
@example(genus=3, weights=[4, -4, 3, -3], mode="latex")
@example(genus=3, weights=[2, 1, -1, -2], mode="json")
@example(genus=3, weights=[4, 3, -3, -4], mode="compact")
def test_dr_fuzz_keeps_the_exit_code_contract(genus, weights, mode):
    import io
    import time
    from contextlib import redirect_stderr, redirect_stdout

    from chowkit.cli import main

    argv = ["dr", "--genus", str(genus), "--weights=" + ",".join(map(str, weights))]
    argv += ["--compact-type"] if mode == "compact" else ["--format", mode]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 10
    assert "Traceback" not in err.getvalue()
    if sum(weights):
        assert (code, out.getvalue()) == (2, "")
        return
    assert code == 0
    cls = dr_class(genus, weights)
    flipped = dr_class(genus, [-w for w in weights])  # DR(d) = DR(-d)
    assert (flipped.symbols, flipped.ids) == (cls.symbols, cls.ids)
    if mode == "compact":
        cls = specialize_compact_type(cls)
    text = out.getvalue().removesuffix("\n")
    if mode == "latex":
        assert text == reference_latex(cls)
    else:
        assert deserialize(text) == cls


@pytest.mark.parametrize("mode, bound", [("json", 1.5), ("latex", 2.5)], ids=["json", "latex"])
def test_json_peak_memory_stays_near_the_output_size(mode, bound):
    # Building a string per term and joining them held about twice the text in
    # JSON, and three and a half times it in LaTeX.
    import tracemalloc

    cls = dr_class(3, (2, 1, -1, -2))
    for render in (lambda: serialize(cls, mode), lambda: dr_text(3, (2, 1, -1, -2), mode)):
        tracemalloc.start()
        try:
            text = render()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(text)


@pytest.mark.parametrize("g, weights", [(1, (1, -1)), (2, (1, -1)), (3, (1, 1, -2))])
def test_json_round_trip(g, weights):
    cls = dr_class(g, weights)
    assert deserialize(serialize(cls)) == cls


def test_json_serialization_is_deterministic():
    a = serialize(dr_class(2, (2, -1, -1)))
    b = serialize(dr_class(2, (2, -1, -1)))
    assert a == b


def test_deserialize_merges_repeated_symbols():
    text = json.dumps(
        {
            "g": 2,
            "weights": [1, -1],
            "terms": [
                {
                    "coeff": "3",
                    "symbols": [{"kind": "delta_irr"}, {"kind": "delta_irr"}],
                }
            ],
        }
    )
    rebuilt = deserialize(text)
    assert rebuilt.terms == {((DivisorSymbol.irreducible(), 2),): F(3)}


def test_deserialize_validates():
    with pytest.raises(ValueError):
        deserialize(json.dumps({"g": 2, "n": 3, "weights": [1, -1], "terms": []}))
    with pytest.raises(ValueError):
        deserialize(
            json.dumps(
                {"g": 2, "weights": [1, -1], "terms": [{"coeff": "1", "symbols": [{"kind": "mystery"}]}]}
            )
        )


def one_term(symbol, **fields):
    return json.dumps({"g": 2, "weights": [1, -1], **fields, "terms": [{"coeff": "1", "symbols": [symbol]}]})


@pytest.mark.parametrize("kind", ["K", "xi"])
@pytest.mark.parametrize("i", [0, 3, 99])
def test_deserialize_rejects_points_outside_the_ambient(kind, i):
    with pytest.raises(ValueError):
        deserialize(one_term({"kind": kind, "i": i}))
    assert deserialize(one_term({"kind": kind, "i": 2})).n == 2


@pytest.mark.parametrize("power", [-2, 0])
def test_deserialize_rejects_nonpositive_powers(power):
    with pytest.raises(ValueError):
        deserialize(one_term({"kind": "delta_irr", "power": power}))


def test_deserialize_rejects_a_wrong_codim():
    with pytest.raises(ValueError):
        deserialize(one_term({"kind": "delta_irr"}, codim=7))
    assert deserialize(one_term({"kind": "delta_irr"}, codim=1)).codimension() == 1
    assert deserialize(one_term({"kind": "xi", "i": 1}, codim=2)).codimension() == 2


@pytest.mark.parametrize(
    "fields, symbol",
    [
        ({"g": 2.9}, {"kind": "delta_irr"}),
        ({"g": True}, {"kind": "delta_irr"}),
        ({"g": 2.0}, {"kind": "delta_irr"}),
        ({"weights": [1.5, -1.5]}, {"kind": "delta_irr"}),
        ({"n": 2.0}, {"kind": "delta_irr"}),
        ({"codim": True}, {"kind": "delta_irr"}),
        ({}, {"kind": "K", "i": 1.7}),
        ({}, {"kind": "xi", "i": True}),
        ({}, {"kind": "delta_irr", "power": 2.9}),
        ({}, {"kind": "delta_irr", "power": True}),
        ({"g": 3, "weights": [1, 1, -2]}, {"kind": "delta", "h": 1.2, "P": [2, 3]}),
        ({"g": 3, "weights": [1, 1, -2]}, {"kind": "delta", "h": 1, "P": [2, 3.0]}),
        ({"g": 3, "weights": [1, 1, -2]}, {"kind": "delta", "h": 1, "P": [True, 2]}),
    ],
)
def test_deserialize_refuses_numbers_that_are_not_integers(fields, symbol):
    # int() would truncate 2.9 to 2 and read True as 1.
    with pytest.raises(ValueError, match="must be integers"):
        deserialize(one_term(symbol, **fields))


def test_deserialize_refuses_a_bool_after_the_equal_integer():
    # Decoded symbols are cached, and True == 1 would hit the entry for 1; a term
    # whose symbols but the last equal the previous term's shares their entries.
    for last in ([], [{"kind": "delta_irr"}]):
        terms = [{"coeff": "1", "symbols": [{"kind": "K", "i": i}, *last]} for i in (1, True, 1)]
        with pytest.raises(ValueError, match="must be integers"):
            deserialize(json.dumps({"g": 2, "weights": [1, -1], "terms": terms}))


@pytest.mark.parametrize("text", [serialize(dr_class(2, (1, -1))), one_term({"kind": "K", "i": 1.5})])
def test_deserialize_leaves_the_cycle_collector_as_it_found_it(text):
    import gc

    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            deserialize(text)
        except ValueError:
            pass
        finally:
            left = gc.isenabled()
            gc.enable()
        assert left == enabled


@pytest.mark.parametrize("weights", [[1, 1], [2, -1], [0, 3]])
def test_deserialize_refuses_weights_that_do_not_sum_to_zero(weights):
    with pytest.raises(ValueError, match="sum to zero"):
        deserialize(json.dumps({"g": 2, "weights": weights, "terms": []}))


@pytest.mark.parametrize("coeff", ["1e2", "1.5", " 3", "1_000", "+3", "3/-4", "1/0", "", 3, None])
def test_deserialize_refuses_coefficients_not_written_n_or_n_over_d(coeff):
    text = json.dumps({"g": 2, "weights": [1, -1], "terms": [{"coeff": coeff, "symbols": [{"kind": "delta_irr"}]}]})
    with pytest.raises(ValueError, match="n or n/d"):
        deserialize(text)


@pytest.mark.parametrize(
    "symbol, match",
    [
        ({"kind": "delta", "h": 1, "P": [2, 2, 3]}, "distinct"),
        ({"kind": "K", "i": 1, "h": 5, "P": [9]}, "do not belong"),
        ({"kind": "delta_irr", "mystery": 1}, "do not belong"),
    ],
    ids=str,
)
def test_deserialize_refuses_a_symbol_of_the_wrong_shape(symbol, match):
    # serialize writes none of these: a repeated point would be dropped, and
    # a field of another kind ignored.
    with pytest.raises(ValueError, match=match):
        deserialize(one_term(symbol, g=3, weights=[1, 1, -2]))


SYMBOL_OF_EACH_KIND = {
    "K": DivisorSymbol.cotangent(1),
    "delta_irr": DivisorSymbol.irreducible(),
    "delta": DivisorSymbol.separating(3, 1, [1, 2], 3),
    "xi": DivisorSymbol.rational_bridge(2),
}
FIELD_VALUES = {"i": 1, "h": 1, "P": [1, 2]}


def test_one_table_holds_the_json_fields_of_each_symbol_kind():
    assert _FIELDS == {"K": ("i",), "delta_irr": (), "delta": ("h", "P"), "xi": ("i",)}
    assert set(SYMBOL_OF_EACH_KIND) == set(_FIELDS)


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("kind", sorted(SYMBOL_OF_EACH_KIND))
def test_symbol_entries_are_written_and_read_by_the_field_table(kind, power):
    symbol = SYMBOL_OF_EACH_KIND[kind]
    entry = symbol.to_json_dict(power)
    assert list(entry) == ["kind", *_FIELDS[kind], *(["power"] if power != 1 else [])]
    assert deserialize(one_term(entry, g=3, weights=[1, 1, -2])).sorted_terms() == [(((symbol, power),), 1)]
    for field in sorted({f for fields in _FIELDS.values() for f in fields} - set(_FIELDS[kind])):
        with pytest.raises(ValueError, match="do not belong"):
            deserialize(one_term({**entry, field: FIELD_VALUES[field]}, g=3, weights=[1, 1, -2]))


def test_deserialize_refuses_a_symbol_without_a_kind():
    with pytest.raises(ValueError, match=r"a symbol must be a JSON object with the fields kind \(str\)"):
        deserialize(one_term({"i": 1}))


def test_deserialize_refuses_a_kind_that_is_not_a_string():
    with pytest.raises(ValueError, match=r"a symbol must be a JSON object with the fields kind \(str\)"):
        deserialize(one_term({"kind": ["K"]}))


def test_deserialize_refuses_a_term_without_symbols():
    text = json.dumps({"g": 2, "weights": [1, -1], "terms": [{"coeff": "1"}]})
    with pytest.raises(ValueError, match=r"a term must be a JSON object with the fields coeff \(object\), symbols \(list\)"):
        deserialize(text)


def test_deserialize_refuses_a_payload_without_terms():
    with pytest.raises(ValueError, match=r"a payload must be a JSON object with the fields g \(object\), weights \(list\), terms \(list\)"):
        deserialize(json.dumps({"g": 2, "weights": [1, -1]}))


def test_deserialize_refuses_a_top_level_array():
    with pytest.raises(ValueError, match="a payload must be a JSON object"):
        deserialize(json.dumps([{"g": 2, "weights": [1, -1], "terms": []}]))


@pytest.mark.parametrize(
    "payload",
    [
        {"g": 2, "weights": 5, "terms": []},
        {"g": 2, "weights": [1, -1], "terms": {"coeff": "1"}},
        {"g": 2, "weights": [1, -1], "terms": [{"coeff": "1", "symbols": 5}]},
        {"g": 2, "weights": [1, -1], "terms": [{"coeff": "1", "symbols": ["K"]}]},
        {"g": 3, "weights": [1, 1, -2], "terms": [{"coeff": "1", "symbols": [{"kind": "delta", "h": 1, "P": 2}]}]},
    ],
    ids=str,
)
def test_deserialize_refuses_lists_and_objects_in_each_others_place(payload):
    with pytest.raises(ValueError):
        deserialize(json.dumps(payload))


def test_deserialize_accepts_points_out_of_order():
    text = one_term({"kind": "delta", "h": 1, "P": [3, 2], "power": 2}, g=3, weights=[1, 1, -2])
    assert deserialize(text).terms == {((sep(3, 1, [2, 3], 3), 2),): F(1)}


def test_deserialize_canonicalizes_symbols():
    # A payload naming the complementary side still lands on the canonical one.
    text = json.dumps(
        {
            "g": 3,
            "weights": [1, 1, -2],
            "terms": [{"coeff": "5", "symbols": [{"kind": "delta", "h": 2, "P": [1]}]}],
        }
    )
    assert deserialize(text).terms == {single(sep(3, 1, [2, 3], 3)): F(5)}


# ------------------------------------------------------------------ consistency


def test_dr_total_against_independent_expansion():
    # Rebuild the genus-2 class directly from the definition, term by term,
    # without reusing the incremental power cache in dr_class.
    g, weights = 2, (2, -1, -1)
    theta = theta_pullback(g, weights)
    irr = boundary_pullback(g, weights)
    glue = gluing_pullback(g, weights)
    expected = (
        eta(2, 0, 0) * theta * theta
        + eta(1, 1, 0) * theta * irr
        + eta(0, 2, 0) * irr * irr
        + eta(0, 0, 1) * glue
    )
    assert dr_class(g, weights) == expected


def test_theta_pullback_pin():
    # The serialized pullbacks over a grid that covers the 2h = g side rule,
    # zero weights and n = 5 hash to the same text as before any rewrite.
    grid = [(1, -1), (2, -1, -1), (0, 0), (3, -1, -1, -1), (1, 1, 1, -3), (2, 0, -2), (5, -2, -3, 0, 0)]
    text = "".join(serialize(theta_pullback(g, w)) for g in range(1, 7) for w in grid)
    assert hashlib.sha256(text.encode()).hexdigest() == "f65c1312cea836f7bf6d28d17086212e92896e9869f3b428b9ef4090bcf3871f"


def test_theta_pulls_back_along_forgetting_a_weight_zero_point():
    # Appending a point of weight 0 is the forgetful pullback: K_i stays K_i
    # and delta_h^P becomes delta_h^P + delta_h^(P u {n+1}) on n+1 points.
    grid = [(1, -1), (2, -1, -1), (0, 0), (3, -1, -1, -1), (1, 1, 1, -3), (2, 0, -2), (5, -2, -3, 0, 0)]
    for g in range(1, 7):
        for weights in grid:
            n, pulled = len(weights), []
            for ((symbol, power),), coeff in theta_pullback(g, weights).terms.items():
                assert power == 1 and symbol.kind in ("K", "delta")
                if symbol.kind == "K":
                    pulled.append((((symbol, 1),), coeff))
                    continue
                for points in (symbol.points, (*symbol.points, n + 1)):
                    pulled.append((((sep(g, symbol.genus_part, points, n + 1), 1),), coeff))
            assert theta_pullback(g, (*weights, 0)) == FormalClass(g, (*weights, 0), pulled)


def test_theta_subset_enumeration_is_complete():
    # Every nonempty coefficient is attached to a canonical symbol, and the
    # separating symbols of genus part 0 range over subsets of size >= 2.
    cls = theta_pullback(4, (1, 2, -3))
    seen = set()
    for term, _ in cls.sorted_terms():
        assert len(term) == 1 and term[0][1] == 1
        symbol = term[0][0]
        assert symbol not in seen
        seen.add(symbol)
        if symbol.kind == "delta" and symbol.genus_part == 0:
            assert len(symbol.points) >= 2
        if symbol.kind == "delta":
            assert symbol.genus_part <= 4 - symbol.genus_part
    subsets = {frozenset(s) for s in combinations((1, 2, 3), 2)} | {frozenset((1, 2, 3))}
    found = {
        frozenset(symbol.points)
        for symbol in seen
        if symbol.kind == "delta" and symbol.genus_part == 0
    }
    assert found == subsets


def sign_pattern(weights):
    sums = (sum(part) for r in range(1, len(weights)) for part in combinations(weights, r))
    return tuple((total > 0) - (total < 0) for total in sums)


@pytest.mark.parametrize(
    "g, d0, v",
    [
        (1, (1, 2, -3), (1, 1, -2)),
        (2, (1, 2, -3), (1, 1, -2)),
        (3, (1, 2, -3), (1, 0, -1)),
        (2, (1, 1, 2, -4), (1, 0, 1, -2)),
    ],
    ids=str,
)
def test_dr_coefficients_are_polynomial_in_the_weights(g, d0, v):
    # Within one sign pattern of the partial sums of d, every coefficient of
    # DR_g(d) is a polynomial in d of degree at most 2g: along d0 + t*v its
    # (2g+1)-th finite difference vanishes, and some 2g-th one does not.
    line = [tuple(a + t * b for a, b in zip(d0, v)) for t in range(2 * g + 2)]
    assert len(set(map(sign_pattern, line))) == 1
    classes = [dr_class(g, d).terms for d in line]
    terms = set().union(*classes)

    def difference(term, order):
        return sum((-1) ** (order - t) * comb(order, t) * classes[t].get(term, 0) for t in range(order + 1))

    assert [term for term in terms if difference(term, 2 * g + 1)] == []
    assert any(difference(term, 2 * g) for term in terms)


# ------------------------------------------------------------------ expansion properties

# Per n: generic weights, weights with a zero entry, and (n = 4) weights with
# a zero proper-subset sum; for n <= 3 such a subset forces a zero entry.
PROPERTY_WEIGHTS = [(3, -3), (0, 0), (1, 2, -3), (2, 0, -2), (1, 2, 4, -7), (1, 0, 2, -3), (1, -1, 2, -2)]


def reference_dr(g, weights):
    # The eta-weighted sum over general FormalClass arithmetic, merging as it goes.
    parts = (theta_pullback(g, weights), boundary_pullback(g, weights), gluing_pullback(g, weights))
    total = FormalClass.zero(g, weights)
    for exps, coeff in coefficient_table(g).eta.items():
        factors = [part**e for part, e in zip(parts, exps) if e]  # a + b + 2c = g >= 1
        term = factors[0]
        for factor in factors[1:]:
            term = term * factor
        total = total + term * coeff
    return total


def expected_term_count(g, weights):
    # Disjoint supports: each summand contributes C(|Theta|+a-1, a) * C(|Delta|+c-1, c) terms.
    theta, glue = len(theta_pullback(g, weights).terms), len(gluing_pullback(g, weights).terms)
    count = 0
    for (a, b, c), value in coefficient_table(g).eta.items():
        if value:
            count += (comb(theta + a - 1, a) if a else 1) * (comb(glue + c - 1, c) if c else 1)
    return count


@pytest.mark.parametrize("weights", PROPERTY_WEIGHTS, ids=str)
@pytest.mark.parametrize("g", range(1, 5))
def test_dr_expansion_properties(g, weights):
    cls = dr_class(g, weights)
    assert cls == reference_dr(g, weights)
    assert len(cls.terms) == expected_term_count(g, weights)
    text = serialize(cls)
    rebuilt = deserialize(text)
    assert rebuilt == cls and serialize(rebuilt) == text
    assert serialize(rebuilt, "latex") == serialize(cls, "latex")
    assert list(cls.ids) == sorted(cls.ids)
    compact = specialize_compact_type(cls)
    for mode in ("json", "latex"):
        assert dr_text(g, weights, mode) == serialize(cls, mode)
        assert dr_text(g, weights, mode, compact_type=True) == serialize(compact, mode)


def test_delta_irr_sorts_between_k_and_delta():
    powered = sep(2, 1, [1], 2)
    irr, k1 = DivisorSymbol.irreducible(), DivisorSymbol.cotangent(1)
    # Factors given out of order are stored in symbol order.
    cls = FormalClass(2, (1, -1), {((powered, 2), (irr, 1), (k1, 1)): F(3), ((powered, 1), (irr, 3)): F(-1, 2)})
    assert [term for term, _ in cls.sorted_terms()] == [
        ((k1, 1), (irr, 1), (powered, 2)),
        ((irr, 3), (powered, 1)),
    ]
    assert serialize(cls, "latex") == (
        r"3 K_{1} \delta_{irr} (\delta_{1}^{\{1\}})^{2} - \frac{1}{2} \delta_{irr}^{3} \delta_{1}^{\{1\}}"
    )
    payload = json.loads(serialize(cls))
    assert [[s["kind"] for s in term["symbols"]] for term in payload["terms"]] == [
        ["K", "delta_irr", "delta"],
        ["delta_irr", "delta"],
    ]
    assert payload["terms"][0]["symbols"][2] == {"kind": "delta", "h": 1, "P": [1], "power": 2}
    assert deserialize(serialize(cls)) == cls
    # The same order inside a DR class, whose summands join K, delta_irr and delta keys.
    rank = {"K": 0, "delta_irr": 1, "delta": 2, "xi": 3}
    terms = dr_class(3, (1, 1, -2)).sorted_terms()
    kinds = [[rank[s.kind] for s, _ in term] for term, _ in terms if any(s.kind == "delta_irr" for s, _ in term)]
    assert any(0 in k and 2 in k for k in kinds)
    assert all(k == sorted(k) for k in kinds)


def test_products_of_classes_on_different_tables():
    # Classes keep their own symbol tables; arithmetic merges them.
    g, weights = 2, (2, -1, -1)
    theta, irr, glue = theta_pullback(g, weights), boundary_pullback(g, weights), gluing_pullback(g, weights)
    product = (theta + irr) * (glue - irr)
    expected = theta * glue - theta * irr + irr * glue - irr * irr
    assert product == expected
    assert product.terms[((DivisorSymbol.irreducible(), 2),)] == -1
    assert (theta * glue).codimension() == 3
    assert theta ** 2 == theta * theta
