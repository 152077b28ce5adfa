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

The three pullbacks have disjoint supports, so one depth-first walk of the
ambient symbol table in id order writes each term once, in key order, with
no merge and no sort.  ``dr_class`` collects the walk into a class;
``dr_text`` renders JSON or LaTeX from it with no class at all, and for
compact type walks only ``Theta^g/g!``.  ``serialize`` writes a class's
sorted terms through the same renderer, so the two texts agree.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, repeat
from json.encoder import encode_basestring_ascii
from math import factorial, gcd, lcm
from operator import lt, mul

from .arith import _require_genus, _require_int
from .poly import EXACT_FORM, Scalar, coeff_latex, exact_fraction, exact_text, signed_leads
from .zero_section import coefficient_table

__all__ = [
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
]

#: Each symbol kind, in sort order, with the JSON fields of its entries besides ``kind`` and ``power``.
_FIELDS = {"K": ("i",), "delta_irr": (), "delta": ("h", "P"), "xi": ("i",)}
_POWER = "symbol powers must be nonnegative integers"


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
        return DivisorSymbol("K", index=_require_int(i, "marked points are integers numbered from 1", 1))

    @staticmethod
    def irreducible() -> "DivisorSymbol":
        return DivisorSymbol("delta_irr")

    @staticmethod
    def rational_bridge(i: int) -> "DivisorSymbol":
        return DivisorSymbol("xi", index=_require_int(i, "marked points are integers numbered from 1", 1))

    @staticmethod
    def separating(genus: int, h: int, points: Iterable[int], n: int) -> "DivisorSymbol":
        """The separating divisor ``delta_h^P`` on genus-``genus`` curves with
        ``n`` marked points, canonicalized across its two presentations."""
        _require_int(n, "the number of marked points must be a positive integer", 1)
        marked = tuple(sorted({_require_int(i, "points must be integers in 1..n", 1, n) for i in points}))
        _require_int(h, f"genus part must be an integer with 0 <= h <= {genus}", 0, _require_genus(genus))
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
            tuple(_FIELDS).index(self.kind),
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
        values = {"kind": self.kind, "i": self.index, "h": self.genus_part, "P": list(self.points or ())}
        payload = {name: values[name] for name in ("kind", *_FIELDS[self.kind])}
        if _require_int(power, "symbol powers must be positive integers", 1) != 1:
            payload["power"] = power
        return payload


Term = tuple[tuple[DivisorSymbol, int], ...]
# A term over a symbol table: ``(id, power, id, power, ...)`` with increasing
# ids.  Tables list symbols in ``sort_key`` order, so keys sort like terms.
Key = tuple[int, ...]


def _key(key: Key) -> Key:
    """The normal form of ``key``: powers of repeated ids summed, ids sorted, zero powers dropped (``key`` if it is one)."""
    if all(map(lt, key[:-2:2], key[2::2])) and all(key[1::2]):
        return key
    powers: dict[int, int] = {}
    for i, p in _pairs(key):
        powers[i] = powers.get(i, 0) + p
    return tuple(x for i in sorted(powers) if powers[i] for x in (i, powers[i]))


def _pairs(key: Key) -> Iterable[tuple[int, int]]:
    return zip(key[::2], key[1::2])


class _TermView(Mapping):
    """``FormalClass.terms``: the id-keyed terms seen as ``(symbol, power)`` tuples."""

    def __init__(self, cls: "FormalClass"):
        self.cls = cls

    def __len__(self) -> int:
        return len(self.cls.ids)

    def __iter__(self):
        symbols = self.cls.symbols
        return (tuple((symbols[i], p) for i, p in _pairs(key)) for key in self.cls.ids)

    def __getitem__(self, term: Term) -> Fraction:
        index = {s: i for i, s in enumerate(self.cls.symbols)}  # KeyError for a foreign symbol
        return self.cls.ids[tuple(x for s, p in term for x in (index[s], p))]


class FormalClass:
    """A rational combination of symbol monomials on a fixed ambient space
    (genus plus weight vector).  Supports ``+``, ``-``, ``*`` (by classes on
    the same ambient space or by scalars) and integer powers.  Terms are kept
    as ``ids``, keys over the symbol table ``symbols``, to coefficients."""

    __slots__ = ("genus", "weights", "symbols", "ids")

    def __init__(self, genus: int, weights: Sequence[int], terms: Mapping[Term, Scalar] | Iterable | None = None):
        """``terms``: a mapping or ``(term, coeff)`` pairs; repeated symbols and terms merge."""
        weights = _validate_weights(genus, weights)
        items = list(terms.items() if isinstance(terms, Mapping) else terms or ())
        symbols = sorted({s for term, _ in items for s, _ in term}, key=DivisorSymbol.sort_key)
        index = {s: i for i, s in enumerate(symbols)}
        ids: dict[Key, Fraction] = {}
        for term, coeff in items:
            key = _key(tuple(x for symbol, power in term for x in (index[symbol], _require_int(power, _POWER, 0))))
            ids[key] = ids.get(key, 0) + Fraction(coeff)
        self.genus = genus
        self.weights = weights
        self.symbols = tuple(symbols)
        self.ids = {key: coeff for key, coeff in ids.items() if coeff}

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def terms(self) -> Mapping[Term, Fraction]:
        """The terms keyed by ``(symbol, power)`` tuples, a read-only view."""
        return _TermView(self)

    @classmethod
    def zero(cls, genus: int, weights: Sequence[int]) -> "FormalClass":
        return cls(genus, weights)

    @classmethod
    def _raw(cls, genus: int, weights: tuple[int, ...], symbols: tuple, ids: dict[Key, Fraction]) -> "FormalClass":
        # Internal fast path for already-validated, zero-free keys over a table.
        obj = object.__new__(cls)
        obj.genus, obj.weights, obj.symbols, obj.ids = genus, weights, symbols, ids
        return obj

    @classmethod
    def one(cls, genus: int, weights: Sequence[int]) -> "FormalClass":
        return cls(genus, weights, {(): Fraction(1)})

    @classmethod
    def from_symbol(cls, genus: int, weights: Sequence[int], symbol: DivisorSymbol, coeff: Scalar = 1) -> "FormalClass":
        return cls(genus, weights, {((symbol, 1),): Fraction(coeff)})

    # ------------------------------------------------------------ inspection

    def is_zero(self) -> bool:
        return not self.ids

    def codimension(self) -> int:
        """Common codimension of the terms (0 for the zero class)."""
        # xi, of codimension 2, sorts last: a term not ending in xi has codimension = degree.
        weight = [symbol.codimension for symbol in self.symbols]
        codims = {
            sum(key[1::2]) if not key or weight[key[-2]] == 1 else sum(map(mul, map(weight.__getitem__, key[::2]), key[1::2]))
            for key in self.ids
        }
        if not codims:
            return 0
        if len(codims) > 1:
            raise ValueError(f"class is not homogeneous: codimensions {sorted(codims)}")
        return codims.pop()

    def sorted_terms(self) -> list[tuple[Term, Fraction]]:
        return [(tuple((self.symbols[i], p) for i, p in _pairs(k)), c) for k, c in sorted(self.ids.items())]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalClass):
            return NotImplemented
        if self.genus != other.genus or self.weights != other.weights:
            return False
        _, left, right = self._aligned(other)
        return left == right

    def __repr__(self) -> str:
        return f"FormalClass(genus={self.genus}, weights={self.weights}, {len(self.ids)} terms)"

    # ------------------------------------------------------------ arithmetic

    def _aligned(self, other: "FormalClass") -> tuple[tuple[DivisorSymbol, ...], dict, dict]:
        """The terms of both classes keyed over one table, the union of theirs."""
        if self.genus != other.genus or self.weights != other.weights:
            raise ValueError(f"ambient mismatch: genus {self.genus} weights {self.weights} vs {other.genus} {other.weights}")
        if self.symbols == other.symbols:
            return self.symbols, self.ids, other.ids
        symbols = tuple(sorted(set(self.symbols) | set(other.symbols), key=DivisorSymbol.sort_key))
        index = {s: i for i, s in enumerate(symbols)}

        def remap(cls: FormalClass) -> dict[Key, Fraction]:
            if cls.symbols == symbols:
                return cls.ids
            new = [index[s] for s in cls.symbols]  # increasing, so keys stay sorted
            return {tuple(x for i, p in _pairs(key) for x in (new[i], p)): c for key, c in cls.ids.items()}

        return symbols, remap(self), remap(other)

    def __add__(self, other: "FormalClass") -> "FormalClass":
        if not isinstance(other, FormalClass):
            return NotImplemented
        symbols, left, right = self._aligned(other)
        terms = dict(left)
        for key, coeff in right.items():
            terms[key] = terms.get(key, 0) + coeff
        return FormalClass._raw(self.genus, self.weights, symbols, {k: c for k, c in terms.items() if c})

    def __neg__(self) -> "FormalClass":
        return FormalClass._raw(self.genus, self.weights, self.symbols, {k: -c for k, c in self.ids.items()})

    def __sub__(self, other: "FormalClass") -> "FormalClass":
        if not isinstance(other, FormalClass):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "FormalClass | Scalar") -> "FormalClass":
        if isinstance(other, (int, Fraction)):
            factor = Fraction(other)
            return FormalClass._raw(self.genus, self.weights, self.symbols, {k: c * factor for k, c in self.ids.items() if factor})
        if not isinstance(other, FormalClass):
            return NotImplemented
        symbols, left, right = self._aligned(other)
        accum: dict[Key, Fraction] = {}
        for key1, c1 in left.items():
            for key2, c2 in right.items():
                key = _key(key1 + key2)
                accum[key] = accum.get(key, 0) + c1 * c2
        return FormalClass._raw(self.genus, self.weights, symbols, {k: c for k, c in accum.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "FormalClass":
        _require_int(exponent, "power needs a nonnegative integer", 0)
        if exponent == 0:
            return FormalClass.one(self.genus, self.weights)
        if all(len(key) == 2 and key[1] == 1 for key in self.ids):
            # A sum of distinct single symbols: the walk writes each multiset of them once.
            common = lcm(*(coeff.denominator for coeff in self.ids.values()))
            form = sorted((key[0], coeff.numerator * (common // coeff.denominator)) for key, coeff in self.ids.items())
            table = ([v for _, v in form], common, -1, len(form))
            pair = lambda at, power: (form[at][0], power)  # noqa: E731
            walk = _walk(exponent, {(exponent, 0, 0): 1}, table, (), pair, pair)
            return FormalClass._raw(self.genus, self.weights, self.symbols, {prefix + last: c for c, prefix, last in walk})
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result


# -------------------------------------------------------------- pullbacks


def _validate_weights(genus: int, weights: Sequence[int]) -> tuple[int, ...]:
    """The one ambient check; a number that is not an ``int`` is refused, not truncated."""
    weights = tuple(weights)
    for v in (genus, *weights):
        _require_int(v, "the genus and the weights must be integers")
    _require_genus(genus)
    if len(weights) < 1:
        raise ValueError("at least one marked point is required")
    if sum(weights) != 0:
        raise ValueError(f"weights must sum to zero, got {weights} (sum {sum(weights)})")
    return weights


def theta_pullback(genus: int, weights: Sequence[int]) -> FormalClass:
    """Pullback of the polarization class along the weight-``d`` section.

    Each separating divisor is visited once, on its canonical side ``(h, P)``:
    ``h <= g/2``, ``|P| >= 2`` when ``h = 0`` and ``1 in P`` when ``2h = g``,
    by ascending ``h`` and then ``P``, which is the symbols' sort order.
    Zero coefficients are skipped, which keeps the symbol table to the support.
    """
    weights = _validate_weights(genus, weights)
    n = len(weights)
    squares = [d * d for d in weights]
    terms = [(DivisorSymbol.cotangent(i), s) for i, s in enumerate(squares, 1) if s]  # each symbol, twice its coefficient
    subsets = sorted(chain.from_iterable(combinations(range(1, n + 1), size) for size in range(n + 1)))
    for h in range(genus // 2 + 1):
        for subset in subsets:
            if (h or len(subset) >= 2) and (2 * h < genus or 1 in subset):
                excess = sum(weights[i - 1] for i in subset) ** 2 - (0 if h else sum(squares[i - 1] for i in subset))
                if excess:
                    terms.append((DivisorSymbol("delta", genus_part=h, points=subset), -excess))
    return FormalClass._raw(genus, weights, tuple(s for s, _ in terms), {(i, 1): Fraction(v, 2) for i, (_, v) in enumerate(terms)})


def boundary_pullback(genus: int, weights: Sequence[int]) -> FormalClass:
    """Pullback of the boundary class: the irreducible boundary divisor."""
    return FormalClass.from_symbol(genus, weights, DivisorSymbol.irreducible())


def gluing_pullback(genus: int, weights: Sequence[int]) -> FormalClass:
    """Pullback of the gluing-locus class: ``sum |d_i| xi_i``."""
    weights = _validate_weights(genus, weights)
    return FormalClass(genus, weights, {((DivisorSymbol.rational_bridge(i), 1),): abs(d) for i, d in enumerate(weights, 1) if d})


def _ambient(genus: int, weights: Sequence[int], compact_type: bool = False) -> tuple[tuple[DivisorSymbol, ...], tuple]:
    """The symbol table ``K < delta_irr < delta < xi`` of a DR class, and the
    walk's view of it: each symbol's integer coefficient in its pullback
    (Theta's over 2, ``delta_irr``'s 1), Theta's denominator 2, the id of
    ``delta_irr`` and of the first ``xi``.  Compact type keeps Theta's."""
    theta = theta_pullback(genus, weights)
    symbols, irr = list(theta.symbols), -1
    values = [2 * coeff.numerator // coeff.denominator for coeff in theta.ids.values()]  # ids come in id order
    if not compact_type:
        irr = sum(1 for symbol in symbols if symbol.kind == "K")
        symbols[irr:irr], values[irr:irr] = [DivisorSymbol.irreducible()], [1]
        symbols += (DivisorSymbol.rational_bridge(i) for i, d in enumerate(weights, 1) if d)
        values += (abs(d) for d in weights if d)
    return tuple(symbols), (values, 2, irr, len(theta.symbols) + (irr >= 0))


def _walk(budget: int, eta: Mapping, table: tuple, root, element, final, render=Fraction) -> Iterator[tuple]:
    """Yield ``(coefficient, prefix, last)`` for each term of ``sum eta(a,b,c)
    Theta^a delta_irr^b Delta^c`` over ``table`` (see :func:`_ambient`), in
    key order: one depth-first walk of the table in id order, where a node
    adds a power ``k`` of a later symbol and spends ``k`` (``2k`` for ``xi``)
    of ``budget``, and a node with none left is a term.  Children come in
    ascending ``(id, power)`` order, so no sort is needed.  A prefix is
    ``root`` plus ``element(id, power)`` per symbol, ``last`` is ``final(id,
    power)``, and the coefficient ``render(numerator, denominator)`` of
    ``eta(a,b,c) a! c! / common^a * prod v^k / prod k!`` in lowest terms
    (``delta_irr^b`` is one symbol: no ``b!``), made once per value by one
    cache for each ``(a, b, c, prod k!)`` with one ``gcd`` per value."""
    values, common, irr, xi = table
    element, final = cache(element), cache(final)
    closing = [final(i, 1) for i in range(xi)]

    class Steps(dict):  # per (a, b, c, prod k!), a cache from prod v^k to the coefficient; falsy if eta is 0
        def __missing__(self, key: tuple[int, int, int, int]):
            a, b, c, factorials = key
            value = eta.get((a, b, c), 0)
            numerator, denominator = value.numerator * factorial(a) * factorial(c), value.denominator * common**a * factorials

            def coefficient(product: int):
                shared = gcd(product := numerator * product, denominator)
                return render(product // shared, denominator // shared)

            self[key] = numerator and cache(coefficient)
            return self[key]

    steps = Steps()

    def visit(start: int, budget: int, prefix, product: int, a: int, b: int, c: int, factorials: int):
        # Yields batches of terms that share a prefix.
        for i in range(start, len(values)):
            power, weight, f = product, 2 if i >= xi else 1, factorials
            for k in range(1, budget // weight + 1):
                power *= values[i]
                left = budget - k * weight
                if i == irr:
                    parts = (a, b + k, c, f)
                else:
                    f *= k
                    parts = (a + k, b, c, f) if i < xi else (a, b, c + k, f)
                if not left:
                    if steps[parts]:
                        yield ((steps[parts](power), prefix, final(i, k)),)
                elif left == 1:  # the budget-1 level as one batch: each Theta or delta_irr symbol after i ends a term
                    child, (a1, b1, c1, f1) = prefix + element(i, k), parts
                    theta, boundary = steps[a1 + 1, b1, c1, f1], steps[a1, b1 + 1, c1, f1]
                    for low, high, coefficient in ((i + 1, irr, theta), (max(i + 1, irr), irr + 1, boundary), (max(i + 1, irr + 1), xi, theta)):
                        if coefficient and low < high:
                            yield zip(map(coefficient, map(power.__mul__, values[low:high])), repeat(child), closing[low:high])
                elif i + 1 < (xi if left % 2 else len(values)):  # a later symbol can spend what is left
                    yield from visit(i + 1, left, prefix + element(i, k), power, *parts)

    return chain.from_iterable(visit(0, budget, root, 1, 0, 0, 0, 1))


def dr_class(genus: int, weights: Sequence[int]) -> FormalClass:
    """The double-ramification class: the eta-weighted sum of products of the
    three pullbacks over all ``(a, b, c)`` with ``a + b + 2c = genus``.

    Their supports are disjoint, ordered ``K < delta_irr < delta < xi`` in the
    ambient space's symbol table, so the key-order walk of :func:`_walk`
    writes each term once, with ``(id, power)`` prefix elements: ``ids``
    comes in key order, with no merge and no sort."""
    weights = _validate_weights(genus, weights)
    symbols, table = _ambient(genus, weights)
    pair = lambda i, power: (i, power)  # noqa: E731
    walk = _walk(genus, coefficient_table(genus).eta, table, (), pair, pair)
    return FormalClass._raw(genus, weights, symbols, {prefix + last: coeff for coeff, prefix, last in walk})


def dr_text(genus: int, weights: Sequence[int], mode: str = "json", compact_type: bool = False) -> str:
    """``serialize(dr_class(genus, weights), mode)``, or of its compact-type
    specialization (the walk of ``Theta^g/g!`` alone), from the key-order
    walk with no class, term dict or sort: the join of :func:`_dr_pieces`,
    which the CLI writes in batches as they are made."""
    return "".join(_dr_pieces(genus, weights, mode, compact_type))


def _dr_pieces(genus: int, weights: Sequence[int], mode: str, compact_type: bool) -> Iterator[str]:
    """The pieces :func:`dr_text` joins, each made as it is taken: the head
    with the first term's lead, three shared strings per term (its lead, its
    prefix and its last symbol) and the close.  The arguments are checked at
    the call; nothing is walked before the first piece is taken."""
    weights = _validate_weights(genus, weights)
    render, _, entries, frame = _layout(mode, genus, weights, lambda: genus)

    def framed() -> Iterator[Iterator[str]]:  # yields one iterator, which chain runs with no frame per piece
        symbols, table = _ambient(genus, weights, compact_type)
        walk = _walk(genus, coefficient_table(genus).eta, table, *entries(symbols), render)
        yield frame(chain.from_iterable(walk))

    return chain.from_iterable(framed())


def specialize_compact_type(cls: FormalClass) -> FormalClass:
    """Restrict to curves of compact type: kill every term containing the
    irreducible boundary divisor or a rational-bridge symbol."""
    dropped = {i for i, symbol in enumerate(cls.symbols) if symbol.kind in ("delta_irr", "xi")}
    kept = {key: coeff for key, coeff in cls.ids.items() if dropped.isdisjoint(key[::2])}
    return FormalClass._raw(cls.genus, cls.weights, cls.symbols, kept)


# -------------------------------------------------------------- serialization


def _json_fragment(symbol: DivisorSymbol, power: int) -> str:
    # One entry of a term's "symbols" list, as json.dumps(payload, indent=2) prints it at that depth.
    return "        " + _dump(symbol.to_json_dict(power), "\n        ")


def _dump(value: object, indent: str) -> str:
    """``json.dumps(value, indent=2)`` as printed at the depth of ``indent``, a newline and its
    spaces, by the C encoder: ``indent=2`` selects the Python one, which leaves a garbage cycle."""
    if type(value) in (int, str):  # their dumps, ten times faster than json.dumps
        return str(value) if type(value) is int else encode_basestring_ascii(value)
    if not value or not isinstance(value, (dict, list)):
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):  # keys are strings
        items, ends = [f"{encode_basestring_ascii(key)}: {_dump(item, inner)}" for key, item in value.items()], "{}"
    else:
        items, ends = [_dump(item, inner) for item in value], "[]"
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{indent}{ends[1]}"


# The fixed text around a term's coefficient and its "symbols" entries.
_NEXT_TERM = ',\n    {\n      "coeff": "'
_EMPTY_SYMBOLS = '",\n      "symbols": []\n    }'
_OPEN_SYMBOLS = '",\n      "symbols": [\n'
_CLOSE_SYMBOLS = "\n      ]\n    }"


def _framed(pieces: Iterator[str], first, head: str, end: str, empty: str) -> Iterator[str]:
    """``head + first(piece)`` for the first piece, the others and ``end``; ``empty`` if there is none."""
    piece = next(pieces, None)
    return iter((empty,)) if piece is None else chain((head + first(piece),), pieces, (end,))


def _json_array(payload: dict, leads: Iterator[str], empty: dict | None = None) -> Iterator[str]:
    """``json.dumps(payload, indent=2)`` with its last value, an empty list, filled by ``leads``,
    the pieces of its entries, each entry's first one led by the comma before it (the first
    entry's by ``[``); ``json.dumps(empty, indent=2)`` (``payload``'s) if there is none.  The
    first piece is taken at the call."""
    head = _dump(payload, "\n")
    return _framed(leads, lambda lead: "[" + lead[1:], head[: -len("[]\n}")], "\n  ]\n}", head if empty is None else _dump(empty, "\n"))


def _layout(mode: str, genus: int, weights: Sequence[int], codim: Callable[[], int]) -> tuple:
    """How ``mode`` writes a class: ``render(numerator, denominator)``, a term's lead;
    ``constant(numerator, denominator)``, the constant term's pieces; ``entries(symbols)``,
    the ``root``, ``element`` and ``final`` of a term's ``(id, power)`` symbols; and
    ``frame(pieces)``, the text.  ``codim()`` is called for JSON only: a class of mixed
    codimension has LaTeX but no JSON."""
    if mode == "json":
        render = lambda numerator, denominator: _NEXT_TERM + exact_text(numerator, denominator)  # noqa: E731
        constant = lambda numerator, denominator: (render(numerator, denominator), _EMPTY_SYMBOLS)  # noqa: E731
        root, separator, close, fragment = _OPEN_SYMBOLS, ",\n", _CLOSE_SYMBOLS, _json_fragment
        fields = {"g": genus, "n": len(weights), "weights": list(weights)}
        frame = lambda pieces: _json_array({**fields, "codim": codim(), "terms": []}, pieces, {**fields, "codim": 0, "terms": []})  # noqa: E731
    elif mode == "latex":
        firsts: dict[str, str] = {}  # each coefficient's lead as the first term, by its lead as a later one

        def render(numerator: int, denominator: int) -> str:
            lead, later = signed_leads(numerator, lambda magnitude: coeff_latex(magnitude, denominator), " ", denominator)
            firsts[later] = lead
            return later

        constant = lambda numerator, denominator: (render(1 if numerator > 0 else -1, 1), coeff_latex(abs(numerator), denominator))  # noqa: E731
        root, separator, close, fragment = "", " ", "", _latex_fragment
        frame = lambda pieces: _framed(pieces, firsts.__getitem__, "", "", "0")  # noqa: E731
    else:
        raise ValueError(f"unknown serialization mode {mode!r}")

    def entries(symbols: Sequence[DivisorSymbol]) -> tuple:
        entry = cache(lambda i, power: fragment(symbols[i], power))  # made once for element and final
        return root, lambda i, power: entry(i, power) + separator, lambda i, power: entry(i, power) + close

    return render, constant, entries, frame


def _latex_fragment(symbol: DivisorSymbol, power: int) -> str:
    rendered = symbol.latex()
    if power == 1:
        return rendered
    if symbol.kind == "delta":
        # delta_h^P already carries a superscript; parenthesize its powers.
        return f"({rendered})^{{{power}}}"
    return f"{rendered}^{{{power}}}"


def serialize(cls: FormalClass, mode: str = "json") -> str:
    """Render a formal class as deterministic JSON (round-trippable) or LaTeX.

    The one renderer of :func:`dr_text`, :func:`_layout`, writes the sorted
    terms: each coefficient value's lead, each key prefix and each last symbol
    is made once and shared, so no string is made per term.  The JSON text is that of
    ``json.dumps(payload, indent=2)``."""
    render, constant, entries, frame = _layout(mode, cls.genus, cls.weights, cls.codimension)
    root, element, final = entries(cls.symbols)
    lead, prefix, final = cache(render), cache(lambda key: root + "".join(map(element, key[::2], key[1::2]))), cache(final)
    terms = (
        (lead(c.numerator, c.denominator), prefix(key[:-2]), final(*key[-2:])) if key else constant(c.numerator, c.denominator)
        for key, c in sorted(cls.ids.items())
    )
    return "".join(frame(chain.from_iterable(terms)))


def _fields(obj: object, what: str, **kinds: type) -> list:
    """The values of the fields that ``kinds`` names, refused unless ``obj`` is a JSON object that has each, of its kind."""
    if not isinstance(obj, dict) or not all(name in obj and isinstance(obj[name], kind) for name, kind in kinds.items()):
        fields = ", ".join(f"{name} ({kind.__name__})" for name, kind in kinds.items())
        raise ValueError(f"{what} must be a JSON object with the fields {fields}, got {obj!r:.100}")
    return [obj[name] for name in kinds]


def _refuse_float(token: str):
    raise ValueError(f"numbers in the payload must be integers, got {token}")


def deserialize(text: str) -> FormalClass:
    """Rebuild a formal class from its JSON form.  Every integer field must be
    a JSON integer (``int()`` would truncate 2.9 and read ``true`` as 1), the
    weights must sum to zero, each coefficient must be the ``n`` or ``n/d``
    that :func:`serialize` writes, and a symbol has only its kind's fields
    and no repeated point; malformed structure is a ``ValueError`` too."""
    collecting = gc.isenabled()
    # The parse makes a container per JSON object and array, none in a cycle, and the
    # collector would pass over all of them each time their number grows by a quarter.
    gc.disable()
    try:
        payload = json.loads(text, parse_float=_refuse_float)
        genus, weights, entries = _fields(payload, "a payload", g=object, weights=list, terms=list)
        for name in ("n", "codim"):
            _require_int(payload.get(name, 0), "n and codim must be integers")
        weights = _validate_weights(genus, weights)
        n = len(weights)
        if payload.get("n", n) != n:
            raise ValueError(f"inconsistent payload: n={payload['n']} but {n} weights")
        allowed = {kind: {"kind", "power", *fields} for kind, fields in _FIELDS.items()}

        def read(s: object) -> tuple[DivisorSymbol, int]:
            kind, = _fields(s, "a symbol", kind=str)
            if not s.keys() <= allowed.get(kind, s.keys()):  # an unknown kind is refused below
                raise ValueError(f"fields {sorted(s.keys() - allowed[kind])} do not belong to a {kind!r} symbol")
            i, h, points, power = s.get("i", 0), s.get("h", 0), s.get("P", []), s.get("power", 1)
            if not isinstance(points, list):
                raise ValueError(f"a separating divisor's points must be a list, got {points!r}")
            for v in (i, h, power, *points):
                _require_int(v, "symbol fields must be integers")
            _require_int(power, "symbol powers must be positive", 1)
            if kind in ("K", "xi"):
                _require_int(i, "marked points must lie in 1..n", 1, n)
                symbol = DivisorSymbol.cotangent(i) if kind == "K" else DivisorSymbol.rational_bridge(i)
            elif kind == "delta_irr":
                symbol = DivisorSymbol.irreducible()
            elif kind == "delta":
                if len(set(points)) != len(points):
                    raise ValueError(f"a separating divisor's points must be distinct, got {points}")
                symbol = DivisorSymbol.separating(genus, h, points, n)
            else:
                raise ValueError(f"unknown symbol kind {kind!r}")
            return symbol, power

        # Each distinct symbol entry is read once, named by its repr (which tells 1 from true and
        # 1.0), and each coefficient text once.  With no true or false in the text (parse_float
        # refuses floats), == tells types apart too, so a term whose symbols but the last equal
        # the previous term's takes their names.
        plain = "true" not in text and "false" not in text
        by_name, coeffs, rows, previous, names = {}, {}, [], [], []
        for entry in entries:
            symbols = entry.get("symbols") if type(entry) is dict else None
            if type(symbols) is not list or "coeff" not in entry:
                _fields(entry, "a term", coeff=object, symbols=list)  # refuses it
            coeff = entry["coeff"]
            if type(coeff) is not str or coeff not in coeffs:
                if not isinstance(coeff, str) or not EXACT_FORM.fullmatch(coeff):
                    raise ValueError(f"coefficients are written n or n/d, got {coeff!r}")
                coeffs[coeff] = exact_fraction(coeff)
            shared = plain and symbols[:-1] == previous[:-1]
            names = names[:-1] + list(map(repr, symbols[-1:])) if shared else list(map(repr, symbols))
            by_name.update(zip(names, symbols))
            rows.append((names, coeffs[coeff]))
            previous = symbols
        decoded = {name: read(s) for name, s in by_name.items()}
        table = sorted({symbol for symbol, _ in decoded.values()}, key=DivisorSymbol.sort_key)
        index = {symbol: i for i, symbol in enumerate(table)}
        pairs = {name: (index[symbol], power) for name, (symbol, power) in decoded.items()}
        ids: dict[Key, Fraction] = {}
        for names, coeff in rows:
            key = _key(tuple(chain.from_iterable(map(pairs.__getitem__, names))))
            ids[key] = ids[key] + coeff if key in ids else coeff
        cls = FormalClass._raw(genus, weights, tuple(table), {key: coeff for key, coeff in ids.items() if coeff})
        if payload.get("codim", cls.codimension()) != cls.codimension():
            raise ValueError(f"inconsistent payload: codim={payload['codim']} but the terms have codimension {cls.codimension()}")
        return cls
    finally:
        if collecting:
            gc.enable()
