"""Exact linear algebra over Fraction matrices."""

import itertools
import random
from fractions import Fraction

import pytest

from chowkit.linalg import determinant, rank, rref, solve

F = Fraction


def _mat(rows):
    return [[F(x) for x in row] for row in rows]


def test_rref_fixture():
    rows, pivots = rref(_mat([[1, 2, 3], [2, 4, 7], [0, 0, 1]]))
    assert pivots == [0, 2]
    assert rows == [[F(1), F(2), F(0)], [F(0), F(0), F(1)]]


def test_rref_empty_and_zero():
    assert rref([]) == ([], [])
    assert rref(_mat([[0, 0], [0, 0]])) == ([], [])


def test_rank():
    assert rank(_mat([[1, 0], [0, 1], [1, 1]])) == 2
    assert rank(_mat([[2, 4], [1, 2]])) == 1


def test_solve_unique():
    solution, kernel = solve(_mat([[2, 0], [0, 3]]), [F(4), F(9)], 2)
    assert solution == [F(2), F(3)]
    assert kernel == 0


def test_solve_underdetermined_free_vars_zero():
    # x + y = 2 with one free variable: particular solution picks y = 0.
    solution, kernel = solve(_mat([[1, 1]]), [F(2)], 2)
    assert solution == [F(2), F(0)]
    assert kernel == 1


def test_solve_inconsistent():
    solution, kernel = solve(_mat([[1, 1], [2, 2]]), [F(1), F(3)], 2)
    assert solution is None
    assert kernel == 1


def test_solve_no_equations():
    solution, kernel = solve([], [], 3)
    assert solution == [F(0)] * 3
    assert kernel == 3


def test_solve_random_consistency():
    rng = random.Random(11)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        a = [[F(rng.randint(-4, 4)) for _ in range(ncols)] for _ in range(nrows)]
        x = [F(rng.randint(-3, 3)) for _ in range(ncols)]
        b = [sum(a[i][j] * x[j] for j in range(ncols)) for i in range(nrows)]
        solution, kernel = solve(a, b, ncols)
        assert solution is not None
        residual = [sum(a[i][j] * solution[j] for j in range(ncols)) - b[i] for i in range(nrows)]
        assert all(r == 0 for r in residual)
        assert kernel == ncols - rank(a)


def test_determinant_fixtures():
    assert determinant([]) == 1
    assert determinant(_mat([[5]])) == 5
    assert determinant(_mat([[1, 2], [3, 4]])) == -2
    assert determinant(_mat([[0, 1], [1, 0]])) == -1
    assert determinant(_mat([[1, 2], [2, 4]])) == 0
    with pytest.raises(ValueError):
        determinant(_mat([[1, 2, 3], [4, 5, 6]]))


def test_determinant_multiplicative():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(1, 4)
        a = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        b = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert determinant(ab) == determinant(a) * determinant(b)


def _leibniz(a):
    n = len(a)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = F((-1) ** inversions)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def test_determinant_matches_the_leibniz_sum():
    rng = random.Random(23)
    for n in range(1, 6):
        for _ in range(6):
            dense = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            # Mostly zeros, so pivot rows are often taken from below the top.
            sparse = [[F(rng.choice([0, 0, 0, 1, -2, 3])) for _ in range(n)] for _ in range(n)]
            # Last row a combination of the others (the zero row when n = 1).
            weights = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n - 1)]
            singular = dense[:-1] + [[sum(w * row[j] for w, row in zip(weights, dense)) for j in range(n)]]
            zero_row = [row[:] for row in dense]
            zero_row[rng.randrange(n)] = [F(0)] * n
            order = rng.sample(range(n), n)
            permutation = [[F(int(j == order[i])) for j in range(n)] for i in range(n)]
            for a in (dense, sparse, singular, zero_row, permutation):
                assert determinant(a) == _leibniz(a)
            assert determinant(singular) == 0 and determinant(zero_row) == 0
            assert determinant(permutation) in (1, -1)


def _inversion_sign(order):
    return (-1) ** sum(1 for i in range(len(order)) for j in range(i + 1, len(order)) if order[i] > order[j])


def test_determinant_of_permuted_block_diagonal_matrices():
    # The determinant is taken per connected component of the nonzero
    # pattern, and the row and column orders that make the matrix block
    # diagonal carry a sign each: both parities of both orders must occur.
    rng = random.Random(29)
    signs = set()
    for _ in range(60):
        sizes = rng.choice([[1, 1], [2, 1], [1, 2, 1], [2, 2], [3, 2], [1, 1, 1, 1, 2], [3, 3]])
        n = sum(sizes)
        block = [[F(0)] * n for _ in range(n)]
        start = 0
        for size in sizes:
            for i in range(start, start + size):
                for j in range(start, start + size):
                    block[i][j] = F(rng.choice([1, -1, 2, -3, 5]), rng.randint(1, 3))
            start += size
        rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
        a = [[block[rows[i]][cols[j]] for j in range(n)] for i in range(n)]
        signs.add((_inversion_sign(rows), _inversion_sign(cols)))
        assert determinant(a) == _leibniz(a)
    assert signs == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_determinant_of_degenerate_patterns():
    assert determinant([]) == 1
    assert determinant(_mat([[1, 2, 0], [0, 0, 0], [3, 0, 4]])) == 0  # zero row
    assert determinant(_mat([[1, 0, 2], [3, 0, 4], [5, 0, 6]])) == 0  # zero column
    # Components of 2 rows by 1 column and 1 row by 2 columns.
    unequal = _mat([[1, 0, 0], [2, 0, 0], [0, 3, 4]])
    assert determinant(unequal) == _leibniz(unequal) == 0
    # Two square components, one singular.
    singular_block = _mat([[1, 0, 2], [0, 5, 0], [2, 0, 4]])
    assert determinant(singular_block) == _leibniz(singular_block) == 0
