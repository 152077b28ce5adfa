"""Exact linear algebra over rational matrices (lists of ``Fraction`` rows).

Pivot selection is positional — the first row with a nonzero entry in the
current column wins — so every routine is deterministic for a given row
order.  No pivoting heuristics are needed: arithmetic is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["determinant", "rank", "rref", "solve"]

Row = list[Fraction]


def _gauss_jordan(rows: Iterable[Sequence[Fraction]]) -> tuple[list[Row], list[int], list[Fraction]]:
    """The elimination behind ``rref`` and ``determinant``: ``rref``'s two lists, and each pivot
    divided out, negated when its row moved up past an odd number of pending rows (one swap each).
    """
    pending = [list(map(Fraction, r)) for r in rows]
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
    return reduced, pivots, divisors


def rref(rows: Iterable[Sequence[Fraction]]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_columns)``; zero rows are dropped and the
    rows are sorted by pivot column, each with leading coefficient 1 and
    zeros in every other pivot position.
    """
    return _gauss_jordan(rows)[:2]


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


def _sign(order: Sequence[int]) -> int:
    """Sign of the permutation listed by ``order``: ``-1`` to the number of inversions."""
    return (-1) ** sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant, one Gauss-Jordan pass per connected component of the
    nonzero pattern (rows and columns joined by their nonzero entries).

    Listing the components' rows and columns one after another makes the
    matrix block diagonal, so the determinant is the product of the blocks'
    determinants times the signs of those two orders; a component with more
    rows than columns, or fewer, makes it 0.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    parent = list(range(2 * n))  # rows 0..n-1, columns n..2n-1

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            if x:
                parent[root(i)] = root(n + j)
    components: dict[int, list[int]] = {}
    for v in range(2 * n):
        components.setdefault(root(v), []).append(v)
    row_order: list[int] = []
    col_order: list[int] = []
    result = Fraction(1)
    for members in components.values():
        block_rows = [v for v in members if v < n]
        block_cols = [v - n for v in members if v >= n]
        if len(block_rows) != len(block_cols):
            return Fraction(0)
        _, pivots, divisors = _gauss_jordan([[rows[i][j] for j in block_cols] for i in block_rows])
        if len(pivots) < len(block_cols):
            return Fraction(0)
        result *= math.prod(divisors, start=Fraction(1))
        row_order += block_rows
        col_order += block_cols
    return result * _sign(row_order) * _sign(col_order)
