"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a mapping from exponent tuples to nonzero ``Fraction``
coefficients, relative to a fixed ordered tuple of variable names.  Two
variable sets are used throughout the package:

* ``RING_VARS = ("xi", "T1", "P", "T2")`` — generators of the boundary Chow
  subring: ``xi`` is the zero-section class of the compactifying projective
  bundle, ``T1`` and ``T2`` the two theta divisors, ``P`` the Poincare class.
* ``INVARIANT_VARS = ("Theta", "D", "Delta")`` — the polarization, boundary
  and gluing-locus classes treated as free variables.

Instances are immutable values: every operation returns a new polynomial, so
objects can be shared freely (including between threads).

Term order
----------
The canonical monomial order is graded lexicographic with variable precedence
given by position in the variable tuple (earlier = higher, so for
``RING_VARS``: ``xi > T1 > P > T2``).  Display and JSON list terms in
descending order (leading term first); quotient-ring reduction in
:mod:`chowkit.ring` scans monomials in ascending order.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm, prod
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .arith import _require_int

__all__ = [
    "INVARIANT_VARS",
    "RING_VARS",
    "Polynomial",
    "d_grade",
    "d_graded_piece",
    "format_polynomial",
    "polynomial_from_json",
]

Exponents = tuple[int, ...]
Vars = tuple[str, ...]
Scalar = Union[Fraction, int]
Numerators = tuple[int, dict[Exponents, int]]  # (scale, {exponents: numerator}): the polynomial numerators / scale

RING_VARS: Vars = ("xi", "T1", "P", "T2")
INVARIANT_VARS: Vars = ("Theta", "D", "Delta")
_EXPONENT = "exponents must be nonnegative integers"


class Polynomial:
    """Immutable sparse polynomial over ``Fraction``."""

    __slots__ = ("vars", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponents, Scalar] | None = None):
        object.__setattr__(self, "vars", tuple(variables))
        nvars = len(self.vars)
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(_require_int(e, _EXPONENT, 0) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not match {nvars} variables")
            value = Fraction(coeff)
            if value:
                clean[exps] = value
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, variables: Vars, terms: dict[Exponents, Fraction]) -> "Polynomial":
        # Internal fast path for terms built from clean ones: drops zeros only.
        obj = object.__new__(cls)
        object.__setattr__(obj, "vars", variables)
        object.__setattr__(obj, "_terms", {e: c for e, c in terms.items() if c})
        return obj

    # ---------------------------------------------------------------- constructors

    @classmethod
    def zero(cls, variables: Vars) -> "Polynomial":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Vars, value: Scalar) -> "Polynomial":
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def variable(cls, variables: Vars, name: str) -> "Polynomial":
        if name not in variables:
            raise ValueError(f"unknown variable {name!r} for variable set {variables}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, variables: Vars, exps: Exponents, coeff: Scalar = 1) -> "Polynomial":
        return cls(variables, {tuple(exps): Fraction(coeff)})

    # ---------------------------------------------------------------- inspection

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        """The underlying term mapping.  Treat as read-only."""
        return self._terms

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending canonical (graded lexicographic) order, leading term first."""
        return sorted(self._terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def coefficient(self, exps: Exponents) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Largest total degree among terms (0 for the zero polynomial)."""
        return max((sum(e) for e in self._terms), default=0)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    def degree_in(self, name: str) -> int:
        idx = self._var_index(name)
        return max((e[idx] for e in self._terms), default=0)

    def _var_index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r} for variable set {self.vars}") from None

    # ---------------------------------------------------------------- comparison

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.vars == other.vars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.vars, other)
        return NotImplemented

    def __hash__(self) -> int:
        # A constant compares equal to its scalar, so it hashes as one too.
        zero = (0,) * len(self.vars)
        if self._terms.keys() <= {zero}:
            return hash(self._terms.get(zero, 0))
        return hash((self.vars, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"

    # ---------------------------------------------------------------- arithmetic

    def _coerce(self, other: object) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise ValueError(f"variable set mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.vars, other)
        return None

    def __add__(self, other: object) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms = dict(self._terms)
        for exps, coeff in rhs._terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return Polynomial._raw(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: object) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            factor = Fraction(other)
            return Polynomial._raw(self.vars, {e: c * factor for e, c in self._terms.items()})
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return combine({(1, 1): 1}, (self, rhs))

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "Polynomial":
        _require_int(exponent, "polynomial power needs a nonnegative integer", 0)
        if len(self._terms) == 1:  # a monomial's power is one term
            (exps, coeff), = self._terms.items()
            return Polynomial._raw(self.vars, {tuple(e * exponent for e in exps): coeff**exponent})
        return combine({(exponent,): 1}, (self,))

    # ---------------------------------------------------------------- structure

    def graded_piece(self, k: int) -> "Polynomial":
        """Sum of the terms of total degree exactly ``k``."""
        return Polynomial._raw(self.vars, {e: c for e, c in self._terms.items() if sum(e) == k})

    def graded_pieces(self) -> dict[int, "Polynomial"]:
        out: dict[int, dict[Exponents, Fraction]] = {}
        for exps, coeff in self._terms.items():
            out.setdefault(sum(exps), {})[exps] = coeff
        return {k: Polynomial._raw(self.vars, t) for k, t in sorted(out.items())}

    def substitute(self, images: Mapping[str, "Polynomial | Scalar"]) -> "Polynomial":
        """Simultaneous substitution; variables not listed map to themselves.

        All polynomial images must share one variable set, which becomes the
        variable set of the result (unlisted variables must exist there).
        Scalar images are allowed and are coerced to constants.
        """
        for name in images:
            self._var_index(name)
        target = self.vars
        for value in images.values():
            if isinstance(value, Polynomial):
                target = value.vars
                break
        table: list[Polynomial] = []
        for name in self.vars:
            value = images.get(name)
            if value is None:
                table.append(Polynomial.variable(target, name))
            elif isinstance(value, Polynomial):
                if value.vars != target:
                    raise ValueError(f"substitution images use mixed variable sets: {value.vars} vs {target}")
                table.append(value)
            else:
                table.append(Polynomial.constant(target, value))
        # combine() takes its unit from the first image; a polynomial over no
        # variables is a constant and maps to itself.
        return combine(self._terms, table) if table else self

    def evaluate(self, values: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at a rational point; every variable must be assigned."""
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise ValueError(f"missing values for variables {missing}")
        point = [Fraction(values[v]) for v in self.vars]
        return sum((c * prod(map(pow, point, e)) for e, c in self._terms.items()), Fraction(0))


def _add_product(out: dict, a: dict, b: dict, factor: int = 1) -> dict:
    """Add ``factor * a * b`` into ``out``, all ``{exponents: int}`` maps."""
    for e1, c1 in a.items():
        c1 *= factor
        for e2, c2 in b.items():
            exps = tuple(map(add, e1, e2))
            out[exps] = out.get(exps, 0) + c1 * c2
    return out


def _numerators(terms: Mapping[Exponents, Fraction]) -> tuple[int, dict[Exponents, int]]:
    """``(scale, {exponents: scale * coeff})`` for ``scale`` the least common denominator."""
    scale = lcm(*(c.denominator for c in terms.values()))
    return scale, {e: c.numerator * (scale // c.denominator) for e, c in terms.items()}


def _from_numerators(variables: Vars, scale: int, terms: Mapping[Exponents, int]) -> Polynomial:
    """The polynomial with coefficients ``terms / scale``, the inverse of :func:`_numerators`."""
    return Polynomial._raw(variables, {e: Fraction(v, scale) for e, v in terms.items() if v})


def combine(terms: Mapping[Exponents, Scalar], images: Sequence[Polynomial]) -> Polynomial:
    """``sum coeff * prod images[i]**e_i`` over a ``{exponents: coeff}`` mapping,
    expanded over integer numerators: each image's denominators are cleared
    once, its powers are built as a ladder (each one product from the
    previous), and each term is added over one common denominator.  The
    images share one variable set, which is the result's; an empty mapping
    gives its zero polynomial."""
    variables = images[0].vars
    if any(image.vars != variables for image in images):
        raise ValueError(f"combine images use mixed variable sets: {[image.vars for image in images]}")
    coeffs = {exps: Fraction(c) for exps, c in terms.items() if c}
    unit = {(0,) * len(variables): 1}
    tops = [max((exps[i] for exps in coeffs), default=0) for i in range(len(images))]
    scales, ladders = [], []
    for image, top in zip(images, tops):
        scale, base = _numerators(image.terms)
        scales.append(scale)
        ladders.append([unit, base])
        while len(ladders[-1]) <= top:
            ladders[-1].append(_add_product({}, ladders[-1][-1], base))
    common = lcm(*(c.denominator for c in coeffs.values())) * prod(map(pow, scales, tops))
    total: dict[Exponents, int] = {}
    for exps, coeff in coeffs.items():
        *head, last = [ladder[e] for ladder, e in zip(ladders, exps) if e] or [unit]
        product = head[0] if head else unit
        for factor in head[1:]:
            product = _add_product({}, product, factor)
        _add_product(total, product, last, coeff.numerator * common // (coeff.denominator * prod(map(pow, scales, exps))))
    return _from_numerators(variables, common, total)


# -------------------------------------------------------------------- d-grading


def d_grade(exps: Exponents) -> int:
    """Secondary grade of a ``RING_VARS`` monomial: exponent of T1 minus
    exponent of T2 (the xi exponent must be zero)."""
    if len(exps) != len(RING_VARS):
        raise ValueError(f"d-grading is defined on {RING_VARS} exponents, got {exps}")
    if exps[0]:
        raise ValueError("d-grading is defined on xi-free monomials only")
    return exps[1] - exps[3]


def d_graded_piece(p: Polynomial, l: int) -> Polynomial:
    """Sum of the terms of ``p`` with secondary grade exactly ``l``.

    ``p`` must be a xi-free polynomial over ``RING_VARS``.
    """
    if p.vars != RING_VARS:
        raise ValueError(f"d-grading needs variables {RING_VARS}, got {p.vars}")
    _require_int(l, "d-grade must be an integer")
    return Polynomial._raw(p.vars, {e: c for e, c in p.terms.items() if d_grade(e) == l})


# -------------------------------------------------------------------- formatting

_LATEX_NAMES = {"xi": r"\xi", "Theta": r"\Theta", "Delta": r"\Delta"}


def exact_text(value: Fraction | int, denominator: int = 1) -> str:
    """``str(value)``, or ``n/d`` for an integer over a coprime ``denominator``,
    also past CPython's int-to-string digit limit, which
    ``sys.set_int_max_str_digits`` would lift for ``int()`` of CLI input too."""
    try:
        return str(value) if denominator == 1 else f"{value}/{denominator}"
    except ValueError:  # too many digits: print the two halves of them
        numerator, denominator = value.numerator, value.denominator * denominator
        if denominator != 1:
            return f"{exact_text(numerator)}/{exact_text(denominator)}"
        if numerator < 0:
            return "-" + exact_text(-numerator)
        width = numerator.bit_length() * 3 // 20  # about half the digits, as log10(2) > 3/10
        high, low = divmod(numerator, 10**width)
        return exact_text(high) + exact_text(low).zfill(width)


def _read_digits(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # too many digits: read the two halves of them
        half = len(text) // 2
        return _read_digits(text[:half]) * 10 ** (len(text) - half) + _read_digits(text[half:])


EXACT_FORM = re.compile("-?[0-9]+(/0*[1-9][0-9]*)?")  # the n or n/d that exact_text prints


def exact_fraction(text: str) -> Fraction:
    """``Fraction(text)``, also for the ``n`` or ``n/d`` that :func:`exact_text`
    prints past the digit limit."""
    try:
        return Fraction(text)
    except ValueError:
        if not EXACT_FORM.fullmatch(text):
            raise
        numerator, _, denominator = text.removeprefix("-").partition("/")
        sign = -1 if text.startswith("-") else 1
        return Fraction(sign * _read_digits(numerator), _read_digits(denominator or "1"))


def coeff_latex(magnitude: Fraction | int, denominator: int = 1) -> str:
    """LaTeX for ``magnitude/denominator`` in lowest terms, a nonnegative rational: an integer or a ``\\frac``."""
    numerator, slash, below = exact_text(magnitude, denominator).partition("/")
    return rf"\frac{{{numerator}}}{{{below}}}" if slash else numerator


def signed_leads(coeff: Fraction | int, render_coeff, separator: str, denominator: int = 1) -> tuple[str, str]:
    """What a term with coefficient ``coeff / denominator`` writes before its
    pieces, as the first term of a sum and as a later one: its sign, then
    ``render_coeff(|coeff|)``, which writes any denominator, and ``separator`` unless the coefficient is ±1."""
    magnitude = abs(coeff)
    text = "" if magnitude == denominator == 1 else render_coeff(magnitude) + separator
    return ("-" if coeff < 0 else "") + text, (" - " if coeff < 0 else " + ") + text


def signed_sum(terms: Iterable[tuple[Fraction, list[str]]], render_coeff, separator: str) -> str:
    """Join ``(coeff, pieces)`` terms as ``a + b - c`` (``"0"`` when empty).

    A term is its :func:`signed_leads` and its pieces joined by ``separator``;
    a term with no pieces is ``render_coeff(|coeff|)``.
    """
    chunks: list[str] = []
    for coeff, pieces in terms:
        if not pieces:  # a constant: its magnitude is its one piece
            coeff, pieces = -1 if coeff < 0 else 1, [render_coeff(abs(coeff))]
        chunks.append(signed_leads(coeff, render_coeff, separator)[1 if chunks else 0] + separator.join(pieces))
    return "".join(chunks) or "0"


def _term_pieces(exps: Exponents, variables: Vars, latex: bool) -> list[str]:
    pieces = []
    for name, power in zip(variables, exps):
        if not power:
            continue
        shown = _LATEX_NAMES.get(name, name) if latex else name
        if power == 1:
            pieces.append(shown)
        elif latex:
            pieces.append(f"{shown}^{{{power}}}")
        else:
            pieces.append(f"{shown}^{power}")
    return pieces


def _format_text(p: Polynomial) -> str:
    terms = []
    for exps, coeff in p.sorted_terms():
        pieces = _term_pieces(exps, p.vars, latex=False)
        # A leading negative unit coefficient is kept explicit when the first
        # variable carries an exponent: unary minus binds before '^' in the
        # expression grammar, so "-T1^2" would re-parse as (-T1)^2.
        if not terms and coeff == -1 and pieces and "^" in pieces[0]:
            pieces = ["1", *pieces]
        terms.append((coeff, pieces))
    return signed_sum(terms, exact_text, "*")


def format_polynomial(p: Polynomial, mode: str = "text") -> str:
    """Render ``p`` as ``"text"`` (grammar-compatible), ``"latex"`` or ``"json"``.

    The text form round-trips through :func:`chowkit.parsing.parse` only while
    every numerator and denominator is below ``2**(MAX_POWER_BITS + 1)``: past
    that, ``parse`` refuses the literal.  The JSON form round-trips through
    :func:`polynomial_from_json` at any size.  Terms are listed in descending
    canonical order in every mode.
    """
    if mode == "text":
        return _format_text(p)
    if mode == "latex":
        return signed_sum(((coeff, _term_pieces(exps, p.vars, latex=True)) for exps, coeff in p.sorted_terms()), coeff_latex, " ")
    if mode == "json":
        return json.dumps({"vars": list(p.vars), "terms": [{"coeff": exact_text(c), "exps": list(e)} for e, c in p.sorted_terms()]})
    raise ValueError(f"unknown format mode {mode!r}")


def polynomial_from_json(data: "str | dict") -> Polynomial:
    """Rebuild a polynomial from its JSON form (a string or parsed dict).  Each exponent must be a JSON integer,
    checked as read, as ``true`` would merge into an equal ``1``: ``1.9``, ``true`` or ``"2"`` is refused."""
    if isinstance(data, str):
        data = json.loads(data)
    variables = tuple(data["vars"])
    terms: dict[Exponents, Fraction] = {}
    for entry in data["terms"]:
        exps = tuple(_require_int(e, _EXPONENT, 0) for e in entry["exps"])
        terms[exps] = terms.get(exps, Fraction(0)) + exact_fraction(entry["coeff"])
    return Polynomial(variables, terms)
