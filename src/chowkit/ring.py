"""The boundary Chow subring as an exact quotient ring.

For genus ``g`` the ring is ``R~ = R[xi] / (xi^2 - xi*P)`` where
``R = Q[T1, P, T2] / I_g`` and the ideal ``I_g`` is generated by the 2g+1
coefficients of the auxiliary expansion ``(T1 + n*P + n^2*T2)^g`` in the
formal variable ``n``.  The coefficient of ``n^(g-l)`` is homogeneous of
total degree ``g`` and of secondary (d-)grade ``l``, for ``l = g .. -g``.

``R`` is Gorenstein with socle in degree ``2g-2``: ``I_g`` is the apolar
ideal of ``(st - u^2)^(g-1)``, whose socle functional ``phi`` is a closed
form.  A :class:`RingContext` builds, for each degree on demand, the normal
form as a rewrite map: the canonical basis monomials (the largest
independent ones in graded-lex order; in degree ``2g-2`` the
``T1*T2``-balanced monomial), and for every other monomial its image in that
basis, read off the ``phi`` pairing one d-grade block at a time.

Geometric operations that do not depend on the genus — the shift
automorphisms, the inversion involution, the two boundary restrictions and
the distinguished invariant classes — live at module level.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from operator import add
from typing import Mapping, NamedTuple, Sequence

from .arith import binomial, factorial
from .linalg import rref, solve
from .poly import Polynomial, RING_VARS, combine, d_grade

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


class NotInSpanError(ValueError):
    """Raised when a class is not a combination of the requested basis."""


# ----------------------------------------------------------------- genus-free ops


def _require_ring_vars(p: Polynomial) -> None:
    if p.vars != RING_VARS:
        raise ValueError(f"expected a polynomial over {RING_VARS}, got {p.vars}")


def _require_xi_free(p: Polynomial) -> None:
    if p.degree_in("xi"):
        raise ValueError("operation is defined on xi-free polynomials only")


def shift(p: Polynomial, n: int) -> Polynomial:
    """Pullback along the n-th shift automorphism of the family:
    ``T1 -> T1 + n*P + n^2*T2``, ``P -> P + 2*n*T2``, ``T2 -> T2``."""
    _require_ring_vars(p)
    _require_xi_free(p)
    if not isinstance(n, int):
        raise ValueError(f"shift amount must be an integer, got {n!r}")
    return p.substitute({"T1": T1 + n * P + (n * n) * T2, "P": P + (2 * n) * T2})


def half_shift(p: Polynomial) -> Polynomial:
    """Formal shift by one half: ``T1 -> T1 + P/2 + T2/4``, ``P -> P + T2``.

    Composing it with itself gives ``shift(p, 1)``.
    """
    _require_ring_vars(p)
    _require_xi_free(p)
    return p.substitute({"T1": T1 + P / 2 + T2 / 4, "P": P + T2})


def involution(p: Polynomial) -> Polynomial:
    """Pullback along fiberwise inversion: ``xi -> xi - P``, ``P -> -P``."""
    _require_ring_vars(p)
    return p.substitute({"xi": XI - P, "P": -P})


def restrict_zero(p: Polynomial) -> Polynomial:
    """Restriction to the zero section of the compactifying bundle: ``xi -> P``."""
    _require_ring_vars(p)
    return p.substitute({"xi": P})


def restrict_infty(p: Polynomial) -> Polynomial:
    """Restriction to the infinity section: ``xi -> 0``."""
    _require_ring_vars(p)
    return p.substitute({"xi": 0})


class InvariantGenerators(NamedTuple):
    theta: Polynomial
    boundary: Polynomial
    gluing: Polynomial


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


def q_class() -> Polynomial:
    """The xi-free invariant ``gluing - 2*theta*boundary`` (equals ``4*T1*T2 - P^2``)."""
    gens = invariant_generators()
    return gens.gluing - 2 * gens.theta * gens.boundary


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
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    return [(k - b - 2 * c, b, c) for c in range(k // 2 + 1) for b in range(k - 2 * c + 1)]


def _basis_images(
    basis: str, theta: Polynomial, boundary: Polynomial, gluing: Polynomial
) -> tuple[Polynomial, Polynomial, Polynomial]:
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
    a, b, c = triple
    return combine({(a, b, c): 1}, _basis_images(basis, *invariant_generators()))


# ----------------------------------------------------------------- ring context


def _monomials(k: int) -> list[Exponents]:
    """xi-free monomials of total degree ``k``, ascending graded-lex."""
    return [(0, a, b, k - a - b) for a in range(k + 1) for b in range(k - a + 1)]


class _DegreeData(NamedTuple):
    """The normal form in one total degree.

    ``basis`` holds the canonical basis monomials in ascending graded-lex
    order.  ``rewrite`` maps every other monomial to its image in that
    basis, as ``(basis monomial, coefficient)`` pairs in the same order.
    """

    basis: tuple[Exponents, ...]
    rewrite: dict[Exponents, tuple[tuple[Exponents, Fraction], ...]]


class RingContext:
    """Exact model of the boundary Chow ring at one genus.

    Construct via :func:`make_context`.  All methods are thread-safe; each
    degree's basis and rewrite map are computed once under a lock and shared.
    """

    def __init__(self, genus: int):
        if not isinstance(genus, int) or genus < 1:
            raise ValueError(f"genus must be a positive integer, got {genus!r}")
        self.genus = genus
        self.relation_grades = tuple(range(genus, -genus - 1, -1))
        self.relations = self._build_relations()
        self._degrees: dict[int, _DegreeData] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------- relations

    def _build_relations(self) -> tuple[Polynomial, ...]:
        g = self.genus
        buckets: dict[int, dict[Exponents, Fraction]] = {l: {} for l in self.relation_grades}
        for i in range(g + 1):
            for j in range(g - i + 1):
                k = g - i - j
                coeff = Fraction(factorial(g), factorial(i) * factorial(j) * factorial(k))
                # T1^i P^j T2^k contributes to the coefficient of n^(j+2k),
                # i.e. to the relation of d-grade l = i - k.
                buckets[i - k][(0, i, j, k)] = coeff
        return tuple(Polynomial(RING_VARS, buckets[l]) for l in self.relation_grades)

    def relation(self, l: int) -> Polynomial:
        """The defining relation of d-grade ``l`` (``-g <= l <= g``)."""
        if not -self.genus <= l <= self.genus:
            raise ValueError(f"d-grade must satisfy -{self.genus} <= l <= {self.genus}, got {l}")
        return self.relations[self.genus - l]

    # ------------------------------------------------------------- normal form data

    def _degree_data(self, k: int) -> _DegreeData:
        with self._lock:
            data = self._degrees.get(k)
            if data is None:
                data = self._build_degree(k)
                self._degrees[k] = data
            return data

    def _build_degree(self, k: int) -> _DegreeData:
        """The basis of ``R_k`` and the rewrite of every other monomial.

        ``R_k`` is free for ``k < g``; in degree ``g`` each d-grade holds one
        relation, which rewrites its smallest monomial; ``R_k = 0`` for ``k >=
        2g-1``.  In between, a class of ``R_k`` is fixed by its pairings
        ``phi(m*q)`` with the monomials ``q`` of the free degree ``2g-2-k``,
        since ``I_g`` is the whole apolar ideal of ``F = (st - u^2)^(g-1)``:
        that ideal is generated by the harmonic forms of degree ``g``, which
        the ``l_n^g`` span (Reznick, Mem. AMS 463, 1992; Iarrobino-Kanev, LNM
        1721, 1999).  In degree ``k`` both ideals are the sum of the ``q^j *
        H_(k-2j)`` over ``j <= k-g``, with ``H`` the harmonic forms and ``q =
        4*T1*T2 - P^2``.  A d-grade-``d`` block (``k`` fixes its ``P``-parity)
        pairs only with d-grade ``-d``; the ``rref`` of its Gram matrix,
        columns descending, keeps the largest independent monomials as basis
        and rewrites the others.
        """
        g, mons = self.genus, _monomials(k)
        rewrite: dict[Exponents, tuple[tuple[Exponents, Fraction], ...]] = {}
        if k >= 2 * g - 1:
            rewrite = {m: () for m in mons}
        elif k == g:
            for rel in self.relations:
                lead = min(rel.terms)
                rewrite[lead] = tuple((m, -c / rel.terms[lead]) for m, c in sorted(rel.terms.items()) if m != lead)
        elif k > g:
            blocks: dict[int, list[Exponents]] = {}
            for m in reversed(mons):
                blocks.setdefault(d_grade(m), []).append(m)
            for d, block in blocks.items():
                gram = self._gram([q for q in _monomials(2 * g - 2 - k) if d_grade(q) == -d], block)
                # Reversed, the pivots list their basis monomials ascending.
                echelon = list(zip(*rref(gram)))[::-1]
                pivots = {p for _, p in echelon}
                for j, m in enumerate(block):
                    if j not in pivots:
                        rewrite[m] = tuple((block[p], row[j]) for row, p in echelon if row[j])
        return _DegreeData(tuple(m for m in mons if m not in rewrite), rewrite)

    # ------------------------------------------------------------- reduction

    def _reduce_component(self, terms: Mapping[Exponents, Fraction]) -> dict[Exponents, Fraction]:
        """Reduce a xi-free term mapping: monomials of degree ``2g-1`` and up
        vanish, since the socle sits in degree ``2g-2`` and ``R`` is generated
        in degree 1; basis monomials stay, and every other monomial is
        replaced by its rewrite in its own degree."""
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in terms.items():
            k = sum(exps)
            if k >= 2 * self.genus - 1:
                continue
            for m, c in self._degree_data(k).rewrite.get(exps, ((exps, 1),)):
                out[m] = out.get(m, 0) + coeff * c
        return {m: c for m, c in out.items() if c}

    def normal_form(self, p: Polynomial) -> Polynomial:
        """Canonical representative of ``p`` in the quotient ring.

        Higher xi powers are folded first via ``xi^2 = xi*P``; the xi-free
        part and the xi-linear part are then reduced separately, each
        monomial through the rewrite map of its own degree.
        """
        _require_ring_vars(p)
        components: tuple[dict[Exponents, Fraction], dict[Exponents, Fraction]] = ({}, {})
        for (x, a, b, c), coeff in p.terms.items():
            if x == 0:
                bucket, key = components[0], (0, a, b, c)
            else:
                bucket, key = components[1], (0, a, b + x - 1, c)
            bucket[key] = bucket.get(key, Fraction(0)) + coeff
        out: dict[Exponents, Fraction] = {}
        for xi_power, bucket in enumerate(components):
            for (zero, a, b, c), coeff in self._reduce_component(bucket).items():
                out[(xi_power, a, b, c)] = coeff
        return Polynomial(RING_VARS, out)

    def is_zero(self, p: Polynomial) -> bool:
        """Exact ideal-membership test in the quotient ring."""
        return self.normal_form(p).is_zero()

    # ------------------------------------------------------------- structure

    def basis(self, k: int) -> tuple[Exponents, ...]:
        """Canonical monomial basis of the xi-free graded piece of degree ``k``
        (ascending graded-lex order)."""
        if k < 0:
            raise ValueError(f"degree must be nonnegative, got {k}")
        return self._degree_data(k).basis

    def dim_graded(self, k: int, l: int | None = None) -> int:
        """Dimension of the xi-free graded piece of degree ``k``; with ``l``
        given, of its d-grade-``l`` subspace."""
        basis = self.basis(k)
        if l is None:
            return len(basis)
        return sum(1 for m in basis if d_grade(m) == l)

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
        return sum((coeff * self._phi(e) for e, coeff in p.terms.items()), Fraction(0))

    def _phi(self, e: Exponents) -> int:
        """The socle functional on one monomial of degree ``2g-2``."""
        _, x, y, z = e
        if x != z or y % 2:
            return 0
        return (-1) ** (y // 2) * factorial(x) ** 2 * factorial(y) * binomial(self.genus - 1, y // 2)

    def _gram(self, rows: Sequence[Exponents], cols: Sequence[Exponents]) -> list[list[int]]:
        """The matrix ``phi(r*c)`` over two monomial lists of complementary degrees."""
        return [[self._phi(tuple(map(add, r, c))) for c in cols] for r in rows]

    def pairing_matrix(self, k: int) -> list[list[Fraction]]:
        """Multiplication pairing between degrees ``g-1-k`` and ``g-1+k``: each
        entry is ``phi`` of the product of the two basis monomials, which
        vanishes unless their d-grades cancel."""
        if not 0 <= k <= self.genus - 1:
            raise ValueError(f"pairing offset must satisfy 0 <= k <= {self.genus - 1}, got {k}")
        gram = self._gram(self.basis(self.genus - 1 - k), self.basis(self.genus - 1 + k))
        return [list(map(Fraction, row)) for row in gram]

    # ------------------------------------------------------------- invariance

    def is_shift_invariant(self, p: Polynomial) -> bool:
        """Whether ``p`` glues to a class invariant under the shift action:
        the infinity restriction, shifted once, must agree with the zero
        restriction in the quotient ring."""
        _require_ring_vars(p)
        return self.is_zero(shift(restrict_infty(p), 1) - restrict_zero(p))

    def is_j_invariant(self, p: Polynomial) -> bool:
        """Whether ``p`` is fixed by the fiberwise inversion involution."""
        _require_ring_vars(p)
        return self.is_zero(involution(p) - p)

    # ------------------------------------------------------------- coordinates

    def _coordinates(self, k: int) -> list[Exponents]:
        """Monomials spanning the full quotient (with xi) in degree ``k``:
        the xi-free canonical basis in degree ``k`` followed by xi times the
        canonical basis in degree ``k - 1``."""
        slots = list(self.basis(k))
        if k >= 1:
            slots.extend((1, a, b, c) for _, a, b, c in self.basis(k - 1))
        return slots

    def express_in_invariants(
        self,
        p: Polynomial,
        degree: int | None = None,
        basis: str = "alpha",
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
        slots = self._coordinates(degree)
        images = [self.normal_form(invariant_basis_element(t, basis)) for t in triples]
        rows = [[image.coefficient(m) for image in images] for m in slots]
        solution, kernel = solve(rows, [self.normal_form(p).coefficient(m) for m in slots], len(triples))
        if solution is None:
            raise NotInSpanError(
                f"class is not in the span of the degree-{degree} {basis!r} basis elements"
            )
        return {t: solution[i] for i, t in enumerate(triples)}, kernel


def make_context(genus: int) -> RingContext:
    """Create the exact ring model for one genus."""
    return RingContext(genus)
