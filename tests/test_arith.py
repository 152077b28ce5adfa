"""Exact arithmetic helpers, checked against textbook values."""

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from chowkit import bernoulli, binomial, double_factorial, factorial

# Independent fixture: classical Bernoulli numbers (B_1 = -1/2 convention).
BERNOULLI_TABLE = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
}


def test_bernoulli_textbook_values():
    for m, expected in BERNOULLI_TABLE.items():
        assert bernoulli(m) == expected


def test_bernoulli_odd_vanishing():
    for m in range(3, 32, 2):
        assert bernoulli(m) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_thread_safety():
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(bernoulli, [40] * 16))
    assert len(set(results)) == 1
    assert results[0] == bernoulli(40)


def test_bernoulli_equals_the_recurrence():
    # The table comes from tangent numbers; the recurrence
    # sum_{j<=m} C(m+1, j) B_j = 0 with B_0 = 1 is an independent oracle.
    expected = [Fraction(1)]
    for m in range(1, 201):
        expected.append(-sum(binomial(m + 1, j) * expected[j] for j in range(m)) / (m + 1))
    assert [bernoulli(m) for m in range(201)] == expected
    assert all(type(bernoulli(m)) is Fraction for m in range(201))


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(3) == 3
    assert double_factorial(5) == 15
    assert double_factorial(9) == 945


@pytest.mark.parametrize("bad", [-3, 0, 2, 8])
def test_double_factorial_rejects_even_and_small(bad):
    with pytest.raises(ValueError):
        double_factorial(bad)


def test_double_factorial_identity():
    # (2k-1)!! * 2^k * k! == (2k)!
    for k in range(31):
        assert double_factorial(2 * k - 1) * 2**k * factorial(k) == factorial(2 * k)


def test_factorial_and_binomial():
    assert factorial(0) == 1
    assert factorial(10) == 3628800
    assert binomial(4, 2) == 6
    assert binomial(7, 0) == 1
    assert binomial(7, 7) == 1
    with pytest.raises(ValueError):
        factorial(-2)
    with pytest.raises(ValueError):
        binomial(3, 5)
    with pytest.raises(ValueError):
        binomial(3, -1)


def test_pascal_recurrence():
    for n in range(1, 12):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)
