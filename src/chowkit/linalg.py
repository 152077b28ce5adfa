"""Exact linear algebra over rational matrices (lists of ``Fraction`` rows).

Pivot selection is positional — the first row with a nonzero entry in the
current column wins — so every routine is deterministic for a given row
order.  No pivoting heuristics are needed: arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["determinant", "rank", "rref", "solve"]

Row = list[Fraction]


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_columns)``; zero rows are dropped and the
    rows are sorted by pivot column, each with leading coefficient 1 and
    zeros in every other pivot position.
    """
    pending = [list(map(Fraction, r)) for r in rows]
    pending = [r for r in pending if any(r)]
    if not pending:
        return [], []
    ncols = len(pending[0])
    reduced: list[Row] = []
    pivots: list[int] = []
    for col in range(ncols):
        hit = next((i for i, r in enumerate(pending) if r[col]), None)
        if hit is None:
            continue
        row = pending.pop(hit)
        inv = row[col]
        row = [x / inv for x in row]
        for other in pending + reduced:
            c = other[col]
            if c:
                for j in range(col, ncols):
                    other[j] -= c * row[j]
        reduced.append(row)
        pivots.append(col)
        if not pending:
            break
    return reduced, pivots


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(rref(rows)[1])


def solve(rows: Iterable[Sequence[Fraction]], rhs: Sequence[Fraction], ncols: int) -> tuple[list[Fraction] | None, int]:
    """Solve the linear system ``rows · x = rhs`` exactly.

    Returns ``(solution, kernel_dimension)`` where ``solution`` is the
    particular solution with all free variables set to zero, or ``None``
    when the system is inconsistent.  ``kernel_dimension`` is the nullity of
    the coefficient matrix (reported in both cases).
    """
    augmented = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    reduced, pivots = rref(augmented)
    matrix_pivots = [p for p in pivots if p < ncols]
    kernel_dim = ncols - len(matrix_pivots)
    if any(p == ncols for p in pivots):
        return None, kernel_dim
    solution = [Fraction(0)] * ncols
    for row, pivot in zip(reduced, pivots):
        solution[pivot] = row[-1]
    return solution, kernel_dim


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination with row swaps."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    work = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for col in range(n):
        hit = next((i for i in range(col, n) if work[i][col]), None)
        if hit is None:
            return Fraction(0)
        if hit != col:
            work[col], work[hit] = work[hit], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        for i in range(col + 1, n):
            factor = work[i][col] / pivot
            if factor:
                for j in range(col, n):
                    work[i][j] -= factor * work[col][j]
    return det
