"""Exact linear algebra over rational matrices (lists of ``Fraction`` rows).

Pivot selection is positional — the first row with a nonzero entry in the
current column wins — so every routine is deterministic for a given row
order.  No pivoting heuristics are needed: arithmetic is exact.  The one
Gauss-Jordan pass touches only the pivot row's nonzero entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["determinant", "rref", "solve"]

Row = list[Fraction]

_ZERO = Fraction(0)


def _gauss_jordan(rows: Iterable[Sequence[Fraction]]) -> tuple[list[Row], list[int], list[Fraction]]:
    """The elimination behind ``rref`` and ``determinant``: ``rref``'s two lists, and each pivot
    divided out, negated when its row moved up past an odd number of pending rows (one swap each).
    """
    pending = [[Fraction(x) if x else 0 for x in r] for r in rows]  # an int 0 tests false faster
    if len({len(r) for r in pending}) > 1:
        raise ValueError("rows of unequal length")
    pending = [r for r in pending if any(r)]
    ncols = len(pending[0]) if pending else 0
    reduced: list[Row] = []
    pivots: list[int] = []
    divisors: list[Fraction] = []
    for col in range(ncols):
        hit = next((i for i, r in enumerate(pending) if r[col]), None)
        if hit is None:
            continue
        row = pending.pop(hit)
        inv = row[col]
        divisors.append(-inv if hit % 2 else inv)
        support = [j for j in range(col, ncols) if row[j]]
        for j in support:
            row[j] /= inv
        for other in pending + reduced:
            c = other[col]
            if c:
                for j in support:
                    other[j] -= c * row[j]
        reduced.append(row)
        pivots.append(col)
        if not pending:
            break
    return [[x or _ZERO for x in row] for row in reduced], pivots, divisors


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_columns)``; zero rows are dropped and the
    rows are sorted by pivot column, each with leading coefficient 1 and
    zeros in every other pivot position.
    """
    return _gauss_jordan(rows)[:2]


def solve(rows: Iterable[Sequence[Fraction]], rhs: Sequence[Fraction], ncols: int) -> tuple[list[Fraction] | None, int]:
    """Solve the linear system ``rows · x = rhs`` exactly.

    Returns ``(solution, kernel_dimension)`` where ``solution`` is the
    particular solution with all free variables set to zero, or ``None``
    when the system is inconsistent.  ``kernel_dimension`` is the nullity of
    the coefficient matrix (reported in both cases).
    """
    augmented = [[*r, b] for r, b in zip(rows, rhs, strict=True)]
    if any(len(r) != ncols + 1 for r in augmented):
        raise ValueError(f"solve needs rows of width {ncols}")
    reduced, pivots = rref(augmented)
    matrix_pivots = [p for p in pivots if p < ncols]
    kernel_dim = ncols - len(matrix_pivots)
    if any(p == ncols for p in pivots):
        return None, kernel_dim
    solution = [_ZERO] * ncols
    for row, pivot in zip(reduced, pivots):
        solution[pivot] = row[-1]
    return solution, kernel_dim


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant: the product of the signed pivots of one Gauss-Jordan
    pass, or 0 when that pass finds fewer pivots than columns."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    _, pivots, divisors = _gauss_jordan(rows)
    if len(pivots) < n:
        return Fraction(0)
    return math.prod(divisors, start=Fraction(1))
