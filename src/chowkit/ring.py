"""The boundary Chow subring as an exact quotient ring.

For genus ``g`` the ring is ``R~ = R[xi] / (xi^2 - xi*P)`` where
``R = Q[T1, P, T2] / I_g`` and the ideal ``I_g`` is generated by the 2g+1
coefficients of the auxiliary expansion ``(T1 + n*P + n^2*T2)^g`` in the
formal variable ``n``.  The coefficient of ``n^(g-l)`` is homogeneous of
total degree ``g`` and of secondary (d-)grade ``l``, for ``l = g .. -g``.

``R`` is Gorenstein with socle in degree ``2g-2``: ``I_g`` is the apolar
ideal of ``(st - u^2)^(g-1)``, whose socle functional ``phi`` is a closed
form.  In a :class:`RingContext` the basis of each block of one degree and
d-grade is its first ``r`` monomials by ascending ``P``-exponent, with ``r``
fixed by the block sizes alone.  Below degree ``g`` every monomial is a basis
monomial, and each pairing determinant is a product of Hankel minors in
closed form.  From degree ``g`` on, ``phi`` pairs a block perfectly with a
free one through the Hankel matrix ``h(e+i+j)`` of its ``P``-parity ``e``, so
the image of its ``j``-th monomial depends on ``(e, r, j)`` alone.  One table
per shape ``(e, r)`` holds those images, each made once by the three-term
recurrence of two degree-``g`` relations and appended when a wider block asks.

Geometric operations that do not depend on the genus — the shift
automorphisms, the inversion involution, the two boundary restrictions and
the distinguished invariant classes — live at module level.
"""

from __future__ import annotations

import functools
import threading
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, mul
from typing import Iterator, NamedTuple, Sequence

from .arith import _require_genus, _require_int, binomial, factorial
from .linalg import solve
from .poly import INVARIANT_VARS, Numerators, Polynomial, RING_VARS, _add_product, _from_numerators, _numerators

__all__ = [
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
]

Exponents = tuple[int, ...]

XI = Polynomial.variable(RING_VARS, "xi")
T1 = Polynomial.variable(RING_VARS, "T1")
P = Polynomial.variable(RING_VARS, "P")
T2 = Polynomial.variable(RING_VARS, "T2")
_LINEAR = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))  # xi, T1, P, T2: the terms of a linear form


class NotInSpanError(ValueError):
    """Raised when a class is not a combination of the requested basis."""


# ----------------------------------------------------------------- genus-free ops


def _require_ring_vars(p: Polynomial) -> None:
    if p.vars != RING_VARS:
        raise ValueError(f"expected a polynomial over {RING_VARS}, got {p.vars}")


def _require_xi_free(p: Polynomial) -> None:
    if p.degree_in("xi"):
        raise ValueError("operation is defined on xi-free polynomials only")


def _require_degree(k: int) -> None:
    _require_int(k, "degree must be a nonnegative integer", 0)


def _level_sums(terms: dict[Exponents, int], weights: Sequence[int], parts: int = 1) -> tuple[dict[Exponents, int], ...]:
    """The sums of ``weights[j] * D^j q / j!`` over ``j`` in each class mod ``parts``,
    for integral ``q`` (its ``terms``) and the locally nilpotent ``D = P*d/dT1 +
    2*T2*d/dP``.  ``D^j q / j!`` is the ``n^j`` coefficient of an integral
    substitution, so each level is the last one's ``D`` divided by ``j``."""
    sums: tuple[dict[Exponents, int], ...] = tuple({} for _ in range(parts))
    for j, weight in enumerate(weights):
        if j:
            step: dict[Exponents, int] = {}
            for (x, a, b, c), v in terms.items():
                if a:
                    step[(x, a - 1, b + 1, c)] = step.get((x, a - 1, b + 1, c), 0) + a * v
                if b:
                    step[(x, a, b - 1, c + 1)] = step.get((x, a, b - 1, c + 1), 0) + 2 * b * v
            terms = {e: v // j for e, v in step.items() if v}
        if weight:
            part = sums[j % parts]
            for e, v in terms.items():
                part[e] = part.get(e, 0) + weight * v
    return sums


def _shift_parts(p: Polynomial, n: Fraction | int) -> tuple[Polynomial, Polynomial]:
    """``(E, O)``, the sums over even and odd ``j`` of the levels ``n^j D^j p /
    j!`` of ``exp(n*D) p = E + O`` (so ``exp(-n*D) p = E - O``).  ``D`` raises
    ``b + 2c`` of ``T1^a P^b T2^c``, at most ``2 deg p``, by one."""
    _require_ring_vars(p)
    _require_xi_free(p)
    n, (scale, terms), top = Fraction(n), _numerators(p.terms), 2 * p.total_degree()
    parts = _level_sums(terms, [n.numerator**j * n.denominator ** (top - j) for j in range(top + 1)], 2)
    return tuple(_from_numerators(RING_VARS, scale * n.denominator**top, part) for part in parts)


def _shifted(p: Polynomial, n: Fraction | int) -> Polynomial:
    """``exp(n*D) p``, a ring map sending ``T1`` to ``T1 + n*P + n^2*T2`` and
    ``P`` to ``P + 2*n*T2``."""
    return add(*_shift_parts(p, n))


def shift(p: Polynomial, n: int) -> Polynomial:
    """Pullback along the n-th shift automorphism of the family:
    ``T1 -> T1 + n*P + n^2*T2``, ``P -> P + 2*n*T2``, ``T2 -> T2``."""
    return _shifted(p, _require_int(n, "shift amount must be an integer"))


def half_shift(p: Polynomial) -> Polynomial:
    """Formal shift by one half: ``T1 -> T1 + P/2 + T2/4``, ``P -> P + T2``;
    composed with itself it is ``shift(p, 1)``."""
    return _shifted(p, Fraction(1, 2))


def involution(p: Polynomial) -> Polynomial:
    """Pullback along fiberwise inversion: ``xi -> xi - P``, ``P -> -P``."""
    _require_ring_vars(p)
    return Polynomial._raw(RING_VARS, _inverted(p.terms, {}))


def _inverted(terms: dict, out: dict) -> dict:
    """``out`` plus the involution's pullback of ``terms``, term by term."""
    for (x, a, b, c), coeff in terms.items():
        for i in range(x + 1):  # (xi - P)^x by the binomial theorem
            out[(x - i, a, b + i, c)] = out.get((x - i, a, b + i, c), 0) + (-1) ** (b + i) * binomial(x, i) * coeff
    return out


def restrict_zero(p: Polynomial) -> Polynomial:
    """Restriction to the zero section of the compactifying bundle: ``xi -> P``."""
    _require_ring_vars(p)
    out: dict[Exponents, Fraction] = {}
    for (x, a, b, c), coeff in p.terms.items():
        out[(0, a, b + x, c)] = out.get((0, a, b + x, c), 0) + coeff
    return Polynomial._raw(RING_VARS, out)


def restrict_infty(p: Polynomial) -> Polynomial:
    """Restriction to the infinity section: ``xi -> 0``."""
    _require_ring_vars(p)
    return Polynomial._raw(RING_VARS, {e: c for e, c in p.terms.items() if not e[0]})


class InvariantGenerators(NamedTuple):
    theta: Polynomial
    boundary: Polynomial
    gluing: Polynomial


@functools.cache  # built on first use, then shared: its polynomials are immutable
def invariant_generators() -> InvariantGenerators:
    """The three distinguished shift- and inversion-invariant classes.

    ``theta`` is the polarization class ``xi + T1 - P/2``, ``boundary`` the
    boundary divisor ``-2*T2`` and ``gluing`` the class of the gluing locus
    ``-4*xi*T2 - P^2 + 2*P*T2``.
    """
    theta = XI + T1 - P / 2
    boundary = -2 * T2
    gluing = -4 * XI * T2 - P * P + 2 * P * T2
    return InvariantGenerators(theta, boundary, gluing)


@functools.cache
def q_class() -> Polynomial:
    """The xi-free invariant ``gluing - 2*theta*boundary`` (equals ``4*T1*T2 - P^2``)."""
    gens = invariant_generators()
    return gens.gluing - 2 * gens.theta * gens.boundary


@functools.cache
def extra_shift_invariant() -> Polynomial:
    """A shift-invariant class outside the subring generated by theta,
    boundary and gluing: ``xi*(6*P*T2 + 12*T2^2) + P^3 - 4*P*T2^2``.

    It is not involution-invariant once the genus exceeds 2, and no such
    class could be: every shift- and involution-invariant class of degree 3
    lies in that subring.  The class is anti-invariant under the involution
    modulo the subring: its symmetrization ``x + involution(x)`` lies in the
    subring, and its anti-invariant part is what puts it outside.
    """
    return XI * (6 * P * T2 + 12 * T2 * T2) + P ** 3 - 4 * P * T2 * T2


def degree_triples(k: int) -> list[tuple[int, int, int]]:
    """Exponent triples ``(a, b, c)`` with ``a + b + 2c = k`` in canonical
    order (c ascending, then b ascending)."""
    _require_degree(k)
    return [(k - b - 2 * c, b, c) for c in range(k // 2 + 1) for b in range(k - 2 * c + 1)]


def _basis_images(basis: str, theta: Polynomial, boundary: Polynomial, gluing: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """The images of ``(a, b, c)`` exponents in the ``"alpha"`` basis,
    ``(theta - boundary/8, boundary, gluing - 2*theta*boundary)``, or in the
    ``"eta"`` basis, ``(theta, boundary, gluing)``."""
    if basis == "alpha":
        return theta - boundary / 8, boundary, gluing - 2 * theta * boundary
    if basis == "eta":
        return theta, boundary, gluing
    raise ValueError(f"unknown basis {basis!r}; expected 'alpha' or 'eta'")


def invariant_basis_element(triple: tuple[int, int, int], basis: str = "alpha") -> Polynomial:
    """The canonical-variable polynomial attached to ``(a, b, c)``.

    ``"alpha"`` basis: ``(theta - boundary/8)^a * boundary^b * (gluing - 2*theta*boundary)^c``;
    ``"eta"`` basis: ``theta^a * boundary^b * gluing^c``.
    """
    images = dict(zip(INVARIANT_VARS, _basis_images(basis, *invariant_generators())))
    return Polynomial.monomial(INVARIANT_VARS, triple).substitute(images)


# ----------------------------------------------------------------- ring context


def _monomials(k: int) -> list[Exponents]:
    """xi-free monomials of total degree ``k``, ascending graded-lex."""
    return [(0, a, b, k - a - b) for a in range(k + 1) for b in range(k - a + 1)]


def _block(k: int, d: int) -> list[Exponents]:
    """xi-free monomials of total degree ``k`` and d-grade ``d``, by ascending ``P``-exponent."""
    return [(0, z + d, k - d - 2 * z, z) for z in range((k - d) // 2, max(0, -d) - 1, -1)]


def _linear_powers(n: int, a: int, b: int, c: int, x: int, width: int) -> tuple[dict[int, int], dict[int, int]]:
    """``l^n`` and ``(l + x*P)^n`` for ``l = a*T1 + b*P + c*T2``, ``T1^i P^j T2^k`` keyed ``i*width + j``, over the
    same exponents, those whose coefficient in either can be nonzero (``T1^n`` is one term): ``n!/(i! j! k!)`` is
    ``C(n, i)`` times a binomial updated along the row."""
    out, shifted, (b_, d_, c_) = {}, {}, ([v**j for j in range(n + 1)] for v in (b, b + x, c))
    for i in (range(n + 1) if b or x or c else (n,)) if a else (0,):
        m, head, row = n - i, comb(n, i) * a**i, 1
        for j in (range(m + 1) if c else (m,)) if b or x else (0,):
            term, row = head * row * c_[m - j], row * (m - j) // (j + 1)
            out[i * width + j], shifted[i * width + j] = term * b_[j], term * d_[j]
    return out, shifted


class RingContext:
    """Exact model of the boundary Chow ring at one genus.

    Construct via :func:`make_context`.  A block's rewrites depend on its shape,
    ``P``-parity and rank, alone (:meth:`_table`); all methods are thread-safe,
    and each shape's table is filled, by a recurrence, under a lock.
    """

    def __init__(self, genus: int):
        _require_genus(genus)
        self.genus = genus
        self.relation_grades = range(genus, -genus - 1, -1)
        self._tables: dict[tuple[int, int], tuple[list, Iterator]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------- relations

    def relation(self, l: int) -> Polynomial:
        """The defining relation of d-grade ``l`` (``-g <= l <= g``): the block
        of degree ``g`` and d-grade ``l``, each ``T1^i P^j T2^k`` weighted by
        ``g!/(i! j! k!)``, built when asked."""
        g = self.genus
        _require_int(l, f"d-grade must be an integer with -{g} <= l <= {g}", -g, g)
        return Polynomial._raw(RING_VARS, {e: Fraction(comb(g, e[1]) * comb(g - e[1], e[2])) for e in _block(g, l)})

    @property
    def relations(self) -> tuple[Polynomial, ...]:
        """The defining relations, in the order of ``relation_grades``."""
        return tuple(map(self.relation, self.relation_grades))

    # ------------------------------------------------------------- normal form data

    def _rank(self, k: int, d: int) -> int:
        """``dim R_k`` in d-grade ``d``: with ``m = min(k, 2g-2-k)``, the size
        ``(m - |d|)//2 + 1`` of the block of degree ``m`` and d-grade ``d`` (0
        if ``m < |d|``).  The basis is the block's first ``_rank(k, d)``
        monomials by ascending ``P``-exponent.

        ``R_k`` is free for ``k < g``.  ``I_g`` is the whole apolar ideal of
        ``F = (st - u^2)^(g-1)``: the harmonic forms of degree ``g``, which the
        ``l_n^g`` span, generate both (Reznick, Mem. AMS 463, 1992;
        Iarrobino-Kanev, LNM 1721, 1999).  So for ``k >= g-1``, ``phi`` pairs
        d-grade ``d`` of ``R_k`` perfectly with d-grade ``-d`` of the free
        degree ``2g-2-k``, and ``R_k = 0`` past ``2g-2``.  With ``P``-exponents
        ``y0 + 2j`` in a block and ``y0' + 2i`` in its partner, that Gram
        matrix is the Hankel matrix ``h(s+i+j)``, ``s = (y0 + y0')/2``, ``h(a)
        = (-1)^a (g-1)! (g-1-a)! (2a)!/a!``.  As ``h(s+n)/h(s) = 4^n
        (A)_n/(B)_n``, ``A = s + 1/2``, ``B = s + 1 - g``, Gauss's continued
        fraction for ``2F1(A, 1; B; z)`` gives its leading ``r x r`` minor as
        ``h(s)^r 4^(r(r-1)) prod_(i<r) (c_(2i-1) c_(2i))^(r-i)``, ``c_(2m+1) =
        (A+m)(B-1+m)/((B-1+2m)(B+2m))``, ``c_(2m) = m(B-1-A+m)/((B+2m-2)
        (B+2m-1))`` (Flajolet, Discrete Math. 32, 1980; Krattenthaler,
        "Advanced determinant calculus", 1999).  No factor vanishes for ``r``
        the rank: ``A+m`` and ``B-1-A+m`` are half-integers, and each entry has
        ``a <= g-1``, so ``s + 2(r-1) <= g-1`` and every integer factor is < 0.
        """
        m = min(k, 2 * self.genus - 2 - k)
        return (m - abs(d)) // 2 + 1 if m >= abs(d) else 0

    def _h(self, a: int) -> int:
        """The Hankel entry ``h(a)`` of :meth:`_rank`, ``phi(T1^(g-1-a) P^(2a) T2^(g-1-a))``."""
        return (-1) ** a * factorial(self.genus - 1) * factorial(self.genus - 1 - a) * factorial(2 * a) // factorial(a)

    def _table(self, e: int, r: int, width: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
        """At least ``width - r`` columns of the blocks of ``P``-parity ``e`` and rank ``r`` (their Gram matrix is
        ``h(e+i+j)``): the ``j``-th monomial is the sum over the steps of column ``j - r``, ``(den, steps)`` in lowest
        terms, of ``n/den`` times the monomial ``t`` steps down, ``T1^t P^(-2t) T2^t`` times it.  As ``x^j``, ``L(x^n)
        = h(e+n)``, its image ``f_j`` has degree below ``r`` and ``L(x^i f_j) = L(x^(i+j))`` for ``i < r``.  ``phi``
        kills the relations ``p`` and ``q`` of d-grades ``g-2r-e`` and ``g-2r-e+2``, of degrees ``r`` and ``r-1``, so
        their moments ``i < r`` and ``i < r-1`` are 0.  From ``f_(r-1) = x^(r-1)``, ``f_(j+1)`` is ``x f_j`` with its
        ``x^r`` term rewritten by ``p``, plus the ``q`` multiple that puts moment ``r-1`` right, over ``L(x^(r-1) q)``:
        a ratio of Hankel minors, nonzero by :meth:`_rank`.  The columns only grow, each made once from the last by
        the shape's recurrence, which is kept beside them."""
        with self._lock:
            if (e, r) not in self._tables:
                p, q = ([binomial(self.genus, e + 2 * i) * binomial(self.genus - e - 2 * i, s - i) for i in range(s + 1)] for s in (r, r - 1))
                h = [self._h(a) for a in range(e + r - 1, e + 2 * r - 1)]  # L(x^(r-1+i)), i < r
                if not (norm := sum(map(mul, q, h))):
                    raise ArithmeticError(f"blocks of P-parity {e} and rank {r} have a singular Hankel minor")
                def recurrence(row, d):  # row / d, in lowest terms, is f_(j-1); make it f_j
                    for j in range(r, self.genus - r - e + 1):  # up to the widest block, g-r-e+1 monomials
                        row = [p[r] * a - row[-1] * b for a, b in zip([0, *row[:-1]], p)]  # x f, its x^r term by p
                        moment = self._h(e + r - 1 + j) * d * p[r] - sum(map(mul, row, h))
                        row, d = [norm * a + moment * b for a, b in zip(row, q)], d * p[r] * norm
                        common = gcd(d, *row) if d > 0 else -gcd(d, *row)  # keeps den > 0
                        d, row = d // common, [a // common for a in row]
                        yield d, tuple((j - i, row[i]) for i in reversed(range(r)) if row[i])
                self._tables[(e, r)] = [], recurrence([0] * (r - 1) + [1], 1)
            columns, recurrence = self._tables[(e, r)]
            columns.extend(next(recurrence) for _ in range(width - r - len(columns)))
            return columns

    # ------------------------------------------------------------- reduction

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical representative of ``p`` in the quotient ring: in each term
        ``xi^x`` folds to ``xi*P^(x-1)``, then its xi-free factor vanishes past
        the socle degree ``2g-2`` (``R`` is generated in degree 1), stays if it
        is a basis monomial, and is rewritten in its block otherwise."""
        _require_ring_vars(p)
        return _from_numerators(RING_VARS, *self._reduced(*_numerators(p.terms)))

    def multiply(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """``normal_form(a * b)``, by :meth:`multiply_numerators` on the integer numerators of ``a`` and ``b``."""
        _require_ring_vars(a)
        _require_ring_vars(b)
        return _from_numerators(RING_VARS, *self.multiply_numerators(_numerators(a.terms), _numerators(b.terms)))

    def multiply_numerators(self, a: Numerators, b: Numerators) -> Numerators:
        """The normal form of the product of two ``(scale, {exponents: numerator})`` pairs over ``RING_VARS``, as
        such a pair, reduced in the pass that multiplies the numerators; 0 at once past degree ``2g-1``."""
        (s, x), (t, y) = a, b
        if not x or not y or min(map(sum, x)) + min(map(sum, y)) > 2 * self.genus - 1:
            return 1, {}
        return self._reduced(s * t, _add_product({}, x, y))

    def linear_product_numerators(self, factors: Sequence[tuple[Numerators, int]]) -> Numerators:
        """The normal form of the product of the ``base^n`` over ``factors``, for pairs ``x*xi + l`` whose terms all have
        degree 1 (a term of another degree is a ``ValueError``): 0 from degree ``2g`` on (``2g-1`` with no ``xi``), else
        ``M + xi*(M' - M)/P`` (as ``xi^2 = xi*P``) for ``M = prod l^n`` and ``M' = prod (l + x*P)^n``, multiplied in
        ``Q[T1, P, T2]`` on the keys of :func:`_linear_powers` and reduced in one :meth:`_reduced` pass."""
        if wrong := next((e for (_, terms), _ in factors for e in terms if e not in _LINEAR), None):
            raise ValueError(f"a linear factor has only terms of degree 1, got exponents {wrong}")
        xi, total, scale = any(base[1].get(_LINEAR[0]) for base, _ in factors), sum(n for _, n in factors), 1
        if total >= 2 * self.genus - (not xi):
            return 1, {}
        products: list = [None] * (1 + xi)  # M, and M' if some factor has xi
        for (s, terms), n in factors:
            x, a, b, c = (terms.get(e, 0) for e in _LINEAR)
            scale *= s**n
            for y, (p, q) in enumerate(zip(products, _linear_powers(n, a, b, c, x, total + 1))):
                products[y] = q if p is None else {}
                for e, v in (p or {}).items():
                    for f, w in q.items():
                        products[y][k] = products[y].get(k := e + f, 0) + v * w
        (free, *shifted), out = products, {}  # M and M' have the same keys
        for x, p in enumerate([free if total < 2 * self.genus - 1 else {}, *shifted]):  # R_k = 0 from k = 2g-1 on
            for e, v in p.items():
                if v := (v - free[e] if x else v):  # M' - M has no P-free term
                    i, j = divmod(e, total + 1)
                    out[(x, i, j - x, total - i - j)] = v
        return self._reduced(scale, out)

    def _reduced(self, scale: int, terms: dict[Exponents, int]) -> Numerators:
        """The normal form of integer ``terms`` over ``scale``, as nonzero integers over ``scale`` times the ``lcm`` of
        the ``den``s of the columns it read, each rewrite scaled once to it: one table read per block."""
        g, kept, rewrites, blocks = self.genus, {}, [], {}
        for (x, a, b, c), v in terms.items():
            x, b = min(x, 1), b + max(x - 1, 0)
            k, d = a + b + c, a - c
            if k < g or b // 2 < (r := self._rank(k, d)):  # R_k is free below g
                kept[(x, a, b, c)] = kept.get((x, a, b, c), 0) + v
            elif r:  # a block of rank 0, as every block past the socle degree 2g-2 is, vanishes
                if (k, d) not in blocks:
                    blocks[(k, d)] = self._table(b % 2, r, r + k - g + 1)
                rewrites.append((v, x, a, b, c, blocks[(k, d)][b // 2 - r]))
        den = lcm(*{column[0] for *_, column in rewrites})
        out = {e: v * den for e, v in kept.items()}
        for v, x, a, b, c, (d, steps) in rewrites:
            v *= den // d
            for t, n in steps:
                out[(x, a + t, b - 2 * t, c + t)] = out.get((x, a + t, b - 2 * t, c + t), 0) + v * n
        return scale * den, {e: v for e, v in out.items() if v}

    def is_zero(self, p: Polynomial) -> bool:
        """Exact ideal-membership test in the quotient ring."""
        return self.normal_form(p).is_zero()

    # ------------------------------------------------------------- structure

    def basis(self, k: int) -> tuple[Exponents, ...]:
        """Canonical monomial basis of the xi-free graded piece of degree ``k`` (ascending graded-lex order): in
        each d-grade block, the :meth:`_rank` monomials of smallest ``P``-exponent.  As ``b`` and ``m - |d|`` share
        their parity, ``T1^a P^b T2^c`` is one iff ``b + |a - c| <= m``."""
        _require_degree(k)
        m = min(k, 2 * self.genus - 2 - k)
        return tuple(e for e in _monomials(k) if e[2] + abs(e[1] - e[3]) <= m)

    def dim_graded(self, k: int, l: int | None = None) -> int:
        """Dimension of the xi-free graded piece of degree ``k``; with ``l``
        given, of its d-grade-``l`` subspace.  The blocks of degree ``m =
        min(k, 2g-2-k)`` give the d-grade parts their sizes and partition the
        ``C(m+2, 2)`` monomials of that degree, none once ``m < 0``."""
        _require_degree(k)
        if l is not None:
            return self._rank(k, _require_int(l, "d-grade must be an integer"))
        m = min(k, 2 * self.genus - 2 - k)
        return max(m + 1, 0) * (m + 2) // 2

    def socle_pushforward(self, p: Polynomial) -> Fraction:
        """Pushforward of a top-degree class to the base, as an exact rational.

        ``p`` must be xi-free and homogeneous of degree ``2g - 2`` (the zero
        polynomial is allowed).  The pushforward is the functional
        ``phi(T1^x P^y T2^z) = (-1)^a x!^2 (2a)! C(g-1, a)`` when ``x = z``
        and ``y = 2a``, and 0 otherwise, applied to the terms of ``p`` with no
        reduction.  This is exact: ``phi(q)`` is ``q(d/ds, d/du, d/dt)``
        applied to ``F = (st - u^2)^(g-1)``, and ``l_n = d/ds + n d/du +
        n^2 d/dt`` applied twice kills ``st - u^2``, hence ``l_n^g`` and each
        of its coefficients in ``n`` (the relations) kill ``F``.  So ``phi`` vanishes on
        ``I_g``, and on the one-dimensional top degree it agrees with the
        normalization ``(g-1)!^2`` of the socle monomial ``T1^(g-1) T2^(g-1)``.
        """
        _require_ring_vars(p)
        _require_xi_free(p)
        top = 2 * self.genus - 2
        if any(sum(e) != top for e in p.terms):
            raise ValueError(f"socle pushforward needs a homogeneous class of degree {top}")
        return sum((v * self._h(b // 2) for (_, a, b, c), v in p.terms.items() if a == c and not b % 2), Fraction(0))

    def _gram(self, rows: Sequence[Exponents], cols: Sequence[Exponents]) -> list[list[int]]:
        """The matrix ``phi(r*c)`` over two monomial lists of complementary degrees: 0 where the d-grades do not cancel,
        else ``h`` of half the product's ``P``-exponent, as its ``T1`` and ``T2`` exponents are then equal.  That half
        is at most ``g-1``, so the ``g`` values ``h(0..g-1)`` are made once per call."""
        h = [self._h(a) for a in range(self.genus)]
        return [[h[(r[2] + c[2]) // 2] if r[1] - r[3] == c[3] - c[1] else 0 for c in cols] for r in rows]

    def _require_offset(self, k: int) -> None:
        _require_int(k, f"pairing offset must be an integer with 0 <= k <= {self.genus - 1}", 0, self.genus - 1)

    def pairing_gram(self, k: int) -> list[list[int]]:
        """Multiplication pairing between degrees ``g-1-k`` and ``g-1+k``, as
        integers: each entry is ``phi`` of the product of the two basis
        monomials, which vanishes unless their d-grades cancel."""
        self._require_offset(k)
        return self._gram(self.basis(self.genus - 1 - k), self.basis(self.genus - 1 + k))

    def pairing_matrix(self, k: int) -> list[list[Fraction]]:
        """:meth:`pairing_gram` with ``Fraction`` entries."""
        return [list(map(Fraction, row)) for row in self.pairing_gram(k)]

    def pairing_determinant(self, k: int) -> int:
        """The determinant of :meth:`pairing_matrix`, in closed form.  Grouping its rows by d-grade and its columns by
        minus d-grade, both stably, makes it block diagonal, at the cost of the two permutations' signs.  The rows are
        every monomial of degree ``m = g-1-k``, and dividing by ``(T1*T2)^k`` maps the columns onto the same list,
        keeping each ``P``-exponent and d-grade, so the two sorts put one list's d-grades in ascending and in
        descending order.  Their inversions together are the pairs of unequal d-grades, ``sum_(d<d') n_d n_d'`` for the
        block sizes ``n_d = (m-|d|)//2 + 1``; mod 2 that is ``C(o, 2)``, for ``o`` the number of odd ``n_d``, those
        with ``m - |d|`` 0 or 1 mod 4.  As ``o`` is 1, 3, 0, 0 mod 4 for ``m`` 0, 1, 2, 3 mod 4, the sign is -1
        exactly when ``m`` is 1 mod 4, that is, when ``g - k`` is 2 mod 4.  Inside a block both bases run by
        descending ``P``, the Hankel order of :meth:`_rank` reversed on both sides, so the blocks of d-grades ``d`` and
        ``-d``, of rank ``r = _rank(m, d)``, are each the leading ``r x r`` minor of ``h(s+i+j)``, ``s = (m-|d|) mod
        2``, by the product formula there.  With ``A`` and ``B - 1 - A`` half-integers, ``4 c_(2i-1) c_(2i)`` is a
        ratio of integers, so each minor is one exact integer division."""
        self._require_offset(k)
        g, m = self.genus, self.genus - 1 - k
        det = -1 if m % 4 == 1 else 1
        for d in range(m + 1):
            s, r = (m - d) % 2, self._rank(m, d)
            num, den = self._h(s) ** r * 2 ** (r * (r - 1)), 1
            for i in range(1, r):  # (4 c_(2i-1) c_(2i))^(r-i), with A = s + 1/2 and B = s + 1 - g
                num *= ((2 * s + 2 * i - 1) * (s - 1 - g + i) * i * (2 * i - 2 * g - 1)) ** (r - i)
                den *= ((s - 2 - g + 2 * i) * (s - 1 - g + 2 * i) ** 2 * (s - g + 2 * i)) ** (r - i)
            det *= (num // den) ** (1 + (d > 0))
        return det

    # ------------------------------------------------------------- invariance

    def is_shift_invariant(self, p: Polynomial) -> bool:
        """Whether ``p`` glues to a class invariant under the shift action: the infinity restriction, shifted once,
        must agree with the zero restriction in the quotient ring, on integer numerators (see :meth:`_reduced`)."""
        _require_ring_vars(p)
        return self._shift_residual(*_numerators(p.terms)).is_zero()

    def is_j_invariant(self, p: Polynomial) -> bool:
        """Whether ``p`` is fixed by the fiberwise inversion involution, on integer numerators."""
        _require_ring_vars(p)
        return self._involution_residual(*_numerators(p.terms)).is_zero()

    def _shift_residual(self, scale: int, terms: dict[Exponents, int]) -> Polynomial:
        """``normal_form(shift(restrict_infty(p), 1) - restrict_zero(p))`` for ``p = terms / scale``."""
        (out,) = _level_sums({e: v for e, v in terms.items() if not e[0]}, [1] * (2 * max(map(sum, terms), default=0) + 1))
        for (x, a, b, c), v in terms.items():
            out[(0, a, b + x, c)] = out.get((0, a, b + x, c), 0) - v
        return _from_numerators(RING_VARS, *self._reduced(scale, out))

    def _involution_residual(self, scale: int, terms: dict[Exponents, int]) -> Polynomial:
        """``normal_form(involution(p) - p)`` for ``p = terms / scale``."""
        out = _inverted(terms, {e: -v for e, v in terms.items()})
        return _from_numerators(RING_VARS, *self._reduced(scale, out))

    # ------------------------------------------------------------- coordinates

    def express_in_invariants(
        self, p: Polynomial, degree: int | None = None, basis: str = "alpha"
    ) -> tuple[dict[tuple[int, int, int], Fraction], int]:
        """Write ``p`` as a combination of invariant basis elements of one
        degree.

        The candidate monomials are ``invariant_basis_element((a, b, c))``
        over all ``a + b + 2c = degree``.  Returns ``(coefficients, kernel)``
        where ``coefficients`` is the particular solution with free unknowns
        set to zero (keyed by triple, in canonical order) and ``kernel`` is
        the dimension of the solution space of the homogeneous system —
        solutions are generally *not* unique.  Raises :class:`NotInSpanError`
        if ``p`` is not such a combination in the quotient ring.
        """
        _require_ring_vars(p)
        if degree is None:
            if p.is_zero():
                raise ValueError("the zero class needs an explicit degree")
            degree = p.total_degree()
        if any(sum(e) != degree for e in p.terms):
            raise ValueError(f"expected a homogeneous class of degree {degree}")
        triples = degree_triples(degree)
        # Monomials spanning the full quotient: the xi-free basis, then xi times the basis one degree lower.
        slots = [*self.basis(degree), *((1, a, b, c) for _, a, b, c in (self.basis(degree - 1) if degree else ()))]
        images = [self.normal_form(invariant_basis_element(t, basis)) for t in triples]
        rows = [[image.coefficient(m) for image in images] for m in slots]
        solution, kernel = solve(rows, [self.normal_form(p).coefficient(m) for m in slots], len(triples))
        if solution is None:
            raise NotInSpanError(f"class is not in the span of the degree-{degree} {basis!r} basis elements")
        return {t: solution[i] for i, t in enumerate(triples)}, kernel


def make_context(genus: int) -> RingContext:
    """Create the exact ring model for one genus."""
    return RingContext(genus)
