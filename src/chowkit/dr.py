"""Double-ramification classes over formal divisor symbols.

Pulling the zero-section identity back along the section of the universal
family defined by an integer weight vector ``d = (d_1, ..., d_n)`` with
``sum d_i = 0`` expresses the double-ramification class on the moduli of
stable ``n``-pointed genus-``g`` curves.  The target here is not another
quotient ring but the free commutative algebra on formal symbols:

* ``K_i`` — the cotangent divisor at the i-th marked point,
* ``delta_irr`` — the irreducible boundary divisor,
* ``delta_h^P`` — the separating boundary divisor with genus-``h`` component
  carrying exactly the marked points in ``P`` (codimension 1),
* ``xi_i`` — the codimension-2 locus where a rational bridge through the
  i-th point is contracted.

A separating divisor has two names, ``delta_h^P`` and
``delta_(g-h)^(complement of P)``; symbols are canonicalized on construction
so each geometric divisor is stored exactly once.

The three invariant generators pull back to:

* polarization: ``1/2 sum d_i^2 K_i  -  1/2 sum_P (d_P^2 - sum_{i in P} d_i^2)
  delta_0^P  -  1/2 sum_{h>0, P} d_P^2 delta_h^P`` with ``d_P = sum_{i in P} d_i``,
* boundary: ``delta_irr``,
* gluing locus: ``sum |d_i| xi_i``.

The double-ramification class is then the eta-weighted sum over all
``(a, b, c)`` with ``a + b + 2c = g``; restricting to curves of compact type
(no ``delta_irr``, no ``xi_i``) collapses it to the g-th power of the
polarization pullback divided by ``g!``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd
from typing import Iterable, Mapping, Sequence

from .arith import factorial
from .poly import Scalar, coeff_latex, combine, signed_sum
from .zero_section import coefficient_table

__all__ = [
    "DivisorSymbol",
    "FormalClass",
    "boundary_pullback",
    "deserialize",
    "dr_class",
    "gluing_pullback",
    "serialize",
    "specialize_compact_type",
    "theta_pullback",
]

_KIND_ORDER = {"K": 0, "delta_irr": 1, "delta": 2, "xi": 3}


@dataclass(frozen=True)
class DivisorSymbol:
    """One formal symbol.  Use the named constructors; they validate and
    canonicalize."""

    kind: str
    index: int | None = None
    genus_part: int | None = None
    points: tuple[int, ...] | None = None

    @staticmethod
    def cotangent(i: int) -> "DivisorSymbol":
        if i < 1:
            raise ValueError(f"marked points are numbered from 1, got {i}")
        return DivisorSymbol("K", index=i)

    @staticmethod
    def irreducible() -> "DivisorSymbol":
        return DivisorSymbol("delta_irr")

    @staticmethod
    def rational_bridge(i: int) -> "DivisorSymbol":
        if i < 1:
            raise ValueError(f"marked points are numbered from 1, got {i}")
        return DivisorSymbol("xi", index=i)

    @staticmethod
    def separating(genus: int, h: int, points: Iterable[int], n: int) -> "DivisorSymbol":
        """The separating divisor ``delta_h^P`` on genus-``genus`` curves with
        ``n`` marked points, canonicalized across its two presentations."""
        marked = tuple(sorted(set(points)))
        if any(i < 1 or i > n for i in marked):
            raise ValueError(f"points must lie in 1..{n}, got {marked}")
        if not 0 <= h <= genus:
            raise ValueError(f"genus part must satisfy 0 <= h <= {genus}, got {h}")
        other = tuple(i for i in range(1, n + 1) if i not in marked)
        flip = h > genus - h or (2 * h == genus and 1 not in marked)
        if flip:
            h, marked = genus - h, other
        if h == 0 and len(marked) < 2:
            raise ValueError(
                f"a genus-0 component needs at least two marked points, got delta_{h}^{marked}"
            )
        return DivisorSymbol("delta", genus_part=h, points=marked)

    @property
    def codimension(self) -> int:
        return 2 if self.kind == "xi" else 1

    def sort_key(self) -> tuple:
        return (
            _KIND_ORDER[self.kind],
            self.index if self.index is not None else -1,
            self.genus_part if self.genus_part is not None else -1,
            self.points or (),
        )

    def latex(self) -> str:
        if self.kind == "K":
            return f"K_{{{self.index}}}"
        if self.kind == "delta_irr":
            return r"\delta_{irr}"
        if self.kind == "xi":
            return rf"\xi_{{{self.index}}}"
        point_set = ",".join(str(i) for i in self.points)
        return rf"\delta_{{{self.genus_part}}}^{{\{{{point_set}\}}}}"

    def to_json_dict(self, power: int) -> dict:
        payload: dict = {"kind": self.kind}
        if self.kind in ("K", "xi"):
            payload["i"] = self.index
        elif self.kind == "delta":
            payload["h"] = self.genus_part
            payload["P"] = list(self.points)
        if power != 1:
            payload["power"] = power
        return payload

    def __hash__(self) -> int:
        # Symbols sit inside millions of dictionary keys during products;
        # caching the hash avoids rebuilding the field tuple on every probe.
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash((self.kind, self.index, self.genus_part, self.points))
            object.__setattr__(self, "_hash", cached)
        return cached


Term = tuple[tuple[DivisorSymbol, int], ...]

# Interning registry: products run their inner loops over small integer ids
# instead of symbol objects, which keeps the dictionary churn cheap.
_symbol_ids: dict[DivisorSymbol, int] = {}
_symbols_by_id: list[DivisorSymbol] = []


def _symbol_id(symbol: DivisorSymbol) -> int:
    sid = _symbol_ids.get(symbol)
    if sid is None:
        sid = len(_symbols_by_id)
        _symbol_ids[symbol] = sid
        _symbols_by_id.append(symbol)
    return sid


def _term_key(term: Term) -> tuple:
    return tuple((symbol.sort_key(), power) for symbol, power in term)


def _normalize_term(powers: Mapping[DivisorSymbol, int]) -> Term:
    kept = [(s, p) for s, p in powers.items() if p]
    kept.sort(key=lambda item: item[0].sort_key())
    return tuple(kept)


class FormalClass:
    """A rational combination of symbol monomials on a fixed ambient space
    (genus plus weight vector).  Supports ``+``, ``-``, ``*`` (by classes on
    the same ambient space or by scalars) and integer powers."""

    __slots__ = ("genus", "weights", "terms")

    def __init__(
        self,
        genus: int,
        weights: Sequence[int],
        terms: Mapping[Term, Scalar] | None = None,
    ):
        if genus < 1:
            raise ValueError(f"genus must be a positive integer, got {genus}")
        if len(weights) < 1:
            raise ValueError("at least one marked point is required")
        self.genus = genus
        self.weights = tuple(int(d) for d in weights)
        clean: dict[Term, Fraction] = {}
        for term, coeff in (terms or {}).items():
            value = Fraction(coeff)
            if value:
                clean[term] = value
        self.terms = clean

    @property
    def n(self) -> int:
        return len(self.weights)

    @classmethod
    def zero(cls, genus: int, weights: Sequence[int]) -> "FormalClass":
        return cls(genus, weights)

    @classmethod
    def _raw(cls, genus: int, weights: tuple[int, ...], terms: dict[Term, Fraction]) -> "FormalClass":
        # Internal fast path for already-validated, zero-free term dicts.
        obj = object.__new__(cls)
        obj.genus = genus
        obj.weights = weights
        obj.terms = terms
        return obj

    @classmethod
    def one(cls, genus: int, weights: Sequence[int]) -> "FormalClass":
        return cls(genus, weights, {(): Fraction(1)})

    @classmethod
    def from_symbol(cls, genus: int, weights: Sequence[int], symbol: DivisorSymbol, coeff: Scalar = 1) -> "FormalClass":
        return cls(genus, weights, {((symbol, 1),): Fraction(coeff)})

    # ------------------------------------------------------------ inspection

    def is_zero(self) -> bool:
        return not self.terms

    def codimension(self) -> int:
        """Common codimension of the terms (0 for the zero class)."""
        codims = {sum(power * symbol.codimension for symbol, power in term) for term in self.terms}
        if not codims:
            return 0
        if len(codims) > 1:
            raise ValueError(f"class is not homogeneous: codimensions {sorted(codims)}")
        return codims.pop()

    def sorted_terms(self) -> list[tuple[Term, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: _term_key(item[0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalClass):
            return NotImplemented
        return self.genus == other.genus and self.weights == other.weights and self.terms == other.terms

    def __repr__(self) -> str:
        return f"FormalClass(genus={self.genus}, weights={self.weights}, {len(self.terms)} terms)"

    # ------------------------------------------------------------ arithmetic

    def _check_ambient(self, other: "FormalClass") -> None:
        if self.genus != other.genus or self.weights != other.weights:
            raise ValueError(
                f"ambient mismatch: genus {self.genus} weights {self.weights}"
                f" vs genus {other.genus} weights {other.weights}"
            )

    def __add__(self, other: "FormalClass") -> "FormalClass":
        if not isinstance(other, FormalClass):
            return NotImplemented
        self._check_ambient(other)
        terms = dict(self.terms)
        for term, coeff in other.terms.items():
            value = terms.get(term)
            if value is None:
                terms[term] = coeff
            elif value + coeff:
                terms[term] = value + coeff
            else:
                del terms[term]
        return FormalClass._raw(self.genus, self.weights, terms)

    def __neg__(self) -> "FormalClass":
        return FormalClass._raw(self.genus, self.weights, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other: "FormalClass") -> "FormalClass":
        if not isinstance(other, FormalClass):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "FormalClass | Scalar") -> "FormalClass":
        if isinstance(other, (int, Fraction)):
            factor = Fraction(other)
            if not factor:
                return FormalClass(self.genus, self.weights)
            if factor == 1:
                return self
            return FormalClass._raw(
                self.genus, self.weights, {t: c * factor for t, c in self.terms.items()}
            )
        if not isinstance(other, FormalClass):
            return NotImplemented
        self._check_ambient(other)
        # Products with a constant class degenerate to scalar multiplication;
        # catching them here keeps x * one(...) away from the big merge loop.
        if len(other.terms) == 1 and () in other.terms:
            return self * other.terms[()]
        if len(self.terms) == 1 and () in self.terms:
            return other * self.terms[()]
        left = [({_symbol_id(s): p for s, p in term}, coeff) for term, coeff in self.terms.items()]
        right = [
            (tuple((_symbol_id(s), p) for s, p in term), coeff) for term, coeff in other.terms.items()
        ]
        accum: dict[tuple[tuple[int, int], ...], Fraction] = {}
        for powers1, c1 in left:
            for flat2, c2 in right:
                powers = dict(powers1)
                for sid, power in flat2:
                    powers[sid] = powers.get(sid, 0) + power
                key = tuple(sorted(powers.items()))
                value = c1 * c2
                if key in accum:
                    accum[key] += value
                else:
                    accum[key] = value
        terms: dict[Term, Fraction] = {}
        for key, coeff in accum.items():
            if coeff:
                terms[_normalize_term({_symbols_by_id[sid]: p for sid, p in key})] = coeff
        return FormalClass._raw(self.genus, self.weights, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "FormalClass":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"power needs a nonnegative integer, got {exponent!r}")
        if exponent == 0:
            return FormalClass.one(self.genus, self.weights)
        if all(len(term) == 1 and term[0][1] == 1 for term in self.terms):
            return self._linear_power(exponent)
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    def _linear_power(self, exponent: int) -> "FormalClass":
        # Multinomial expansion for a sum of distinct single symbols.  Every
        # multiset of symbols yields a distinct output term, so each term is
        # written exactly once — much cheaper than iterated products.  The
        # inner loop runs on integers over a common denominator; the division
        # by each group's factorial is exact because e!/k! is an integer.
        base = sorted(
            ((term[0][0], coeff) for term, coeff in self.terms.items()),
            key=lambda item: item[0].sort_key(),
        )
        common = 1
        for _, value in base:
            common = common * value.denominator // gcd(common, value.denominator)
        scaled = [(symbol, (value * common).numerator) for symbol, value in base]
        denominator = common ** exponent
        scale = factorial(exponent)
        terms: dict[Term, Fraction] = {}
        for combo in combinations_with_replacement(range(len(scaled)), exponent):
            numerator = scale
            parts = []
            i = 0
            while i < exponent:
                j = i
                while j < exponent and combo[j] == combo[i]:
                    j += 1
                count = j - i
                symbol, value = scaled[combo[i]]
                numerator *= value ** count
                if count > 1:
                    numerator //= factorial(count)
                parts.append((symbol, count))
                i = j
            terms[tuple(parts)] = Fraction(numerator, denominator)
        return FormalClass._raw(self.genus, self.weights, terms)


# -------------------------------------------------------------- pullbacks


def _validate_weights(genus: int, weights: Sequence[int]) -> tuple[int, ...]:
    weights = tuple(int(d) for d in weights)
    if genus < 1:
        raise ValueError(f"genus must be a positive integer, got {genus}")
    if len(weights) < 1:
        raise ValueError("at least one marked point is required")
    if sum(weights) != 0:
        raise ValueError(f"weights must sum to zero, got {weights} (sum {sum(weights)})")
    return weights


def theta_pullback(genus: int, weights: Sequence[int]) -> FormalClass:
    """Pullback of the polarization class along the weight-``d`` section."""
    weights = _validate_weights(genus, weights)
    n = len(weights)
    terms: dict[Term, Fraction] = {}

    def put(symbol: DivisorSymbol, coeff: Fraction) -> None:
        if coeff:
            term: Term = ((symbol, 1),)
            terms[term] = terms.get(term, Fraction(0)) + coeff

    for i, d in enumerate(weights, start=1):
        put(DivisorSymbol.cotangent(i), Fraction(d * d, 2))
    points = list(range(1, n + 1))
    for size in range(2, n + 1):
        for subset in combinations(points, size):
            d_subset = sum(weights[i - 1] for i in subset)
            excess = d_subset * d_subset - sum(weights[i - 1] ** 2 for i in subset)
            put(DivisorSymbol.separating(genus, 0, subset, n), Fraction(-excess, 2))
    for h in range(1, genus - 1 + 1):
        if h > genus - h:
            break
        for size in range(0, n + 1):
            for subset in combinations(points, size):
                if 2 * h == genus and 1 not in subset:
                    continue
                d_subset = sum(weights[i - 1] for i in subset)
                put(
                    DivisorSymbol.separating(genus, h, subset, n),
                    Fraction(-d_subset * d_subset, 2),
                )
    return FormalClass(genus, weights, terms)


def boundary_pullback(genus: int, weights: Sequence[int]) -> FormalClass:
    """Pullback of the boundary class: the irreducible boundary divisor."""
    weights = _validate_weights(genus, weights)
    return FormalClass.from_symbol(genus, weights, DivisorSymbol.irreducible())


def gluing_pullback(genus: int, weights: Sequence[int]) -> FormalClass:
    """Pullback of the gluing-locus class: ``sum |d_i| xi_i``."""
    weights = _validate_weights(genus, weights)
    terms: dict[Term, Fraction] = {}
    for i, d in enumerate(weights, start=1):
        if d:
            terms[((DivisorSymbol.rational_bridge(i), 1),)] = Fraction(abs(d))
    return FormalClass(genus, weights, terms)


def dr_class(genus: int, weights: Sequence[int]) -> FormalClass:
    """The double-ramification class: the eta-weighted sum of products of the
    three pullbacks over all ``(a, b, c)`` with ``a + b + 2c = genus``."""
    weights = _validate_weights(genus, weights)
    theta = theta_pullback(genus, weights)
    irr = boundary_pullback(genus, weights)
    glue = gluing_pullback(genus, weights)
    return combine(coefficient_table(genus).eta, (theta, irr, glue))


def specialize_compact_type(cls: FormalClass) -> FormalClass:
    """Restrict to curves of compact type: kill every term containing the
    irreducible boundary divisor or a rational-bridge symbol."""
    kept = {
        term: coeff
        for term, coeff in cls.terms.items()
        if all(symbol.kind not in ("delta_irr", "xi") for symbol, _ in term)
    }
    return FormalClass(cls.genus, cls.weights, kept)


# -------------------------------------------------------------- serialization


def _term_latex(term: Term) -> list[str]:
    pieces = []
    for symbol, power in term:
        rendered = symbol.latex()
        if power == 1:
            pieces.append(rendered)
        elif symbol.kind == "delta":
            # delta_h^P already carries a superscript; parenthesize its powers.
            pieces.append(f"({rendered})^{{{power}}}")
        else:
            pieces.append(f"{rendered}^{{{power}}}")
    return pieces


def serialize(cls: FormalClass, mode: str = "json") -> str:
    """Render a formal class as deterministic JSON (round-trippable) or LaTeX."""
    if mode == "json":
        payload = {
            "g": cls.genus,
            "n": cls.n,
            "weights": list(cls.weights),
            "codim": cls.codimension(),
            "terms": [
                {
                    "coeff": str(coeff),
                    "symbols": [symbol.to_json_dict(power) for symbol, power in term],
                }
                for term, coeff in cls.sorted_terms()
            ],
        }
        return json.dumps(payload, indent=2)
    if mode == "latex":
        return signed_sum(((coeff, _term_latex(term)) for term, coeff in cls.sorted_terms()), coeff_latex, " ")
    raise ValueError(f"unknown serialization mode {mode!r}")


def deserialize(text: str) -> FormalClass:
    """Rebuild a formal class from its JSON form."""
    payload = json.loads(text)
    genus = int(payload["g"])
    weights = [int(d) for d in payload["weights"]]
    n = len(weights)
    if "n" in payload and int(payload["n"]) != n:
        raise ValueError(f"inconsistent payload: n={payload['n']} but {n} weights")
    terms: dict[Term, Fraction] = {}
    for entry in payload["terms"]:
        powers: dict[DivisorSymbol, int] = {}
        for raw in entry["symbols"]:
            kind = raw["kind"]
            power = int(raw.get("power", 1))
            if kind == "K":
                symbol = DivisorSymbol.cotangent(int(raw["i"]))
            elif kind == "xi":
                symbol = DivisorSymbol.rational_bridge(int(raw["i"]))
            elif kind == "delta_irr":
                symbol = DivisorSymbol.irreducible()
            elif kind == "delta":
                symbol = DivisorSymbol.separating(genus, int(raw["h"]), raw["P"], n)
            else:
                raise ValueError(f"unknown symbol kind {kind!r}")
            powers[symbol] = powers.get(symbol, 0) + power
        term = _normalize_term(powers)
        terms[term] = terms.get(term, Fraction(0)) + Fraction(entry["coeff"])
    return FormalClass(genus, weights, terms)
