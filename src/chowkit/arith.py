"""Exact rational arithmetic helpers: factorials, double factorials, binomials
and Bernoulli numbers.

Everything returns exact values (``int`` or ``fractions.Fraction``); no
floating point is ever involved.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

__all__ = ["bernoulli", "binomial", "double_factorial", "factorial"]

def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial undefined for negative argument {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"binomial(n, k) needs 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k)


def double_factorial(n: int) -> int:
    """``n!!`` for odd ``n >= -1``, with ``(-1)!! = 1`` (empty product).

    Even or smaller arguments are rejected: the coefficient formulas in this
    package only ever need odd double factorials, and silently accepting even
    ones would hide index bugs.
    """
    if n < -1 or n % 2 == 0:
        raise ValueError(f"double_factorial needs an odd n >= -1, got {n}")
    result = 1
    for k in range(n, 1, -2):
        result *= k
    return result


_bernoulli_lock = threading.Lock()
_bernoulli_table: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """The m-th Bernoulli number.

    Computed from the recurrence ``sum_{j=0}^{m} C(m+1, j) * B_j = 0`` with
    ``B_0 = 1``, which fixes the convention ``B_1 = -1/2``.  Values are
    memoized in a table that grows on demand; the table is guarded by a lock
    so concurrent callers see each value computed exactly once.
    """
    if m < 0:
        raise ValueError(f"bernoulli undefined for negative index {m}")
    with _bernoulli_lock:
        while len(_bernoulli_table) <= m:
            k = len(_bernoulli_table)
            acc = sum(binomial(k + 1, j) * _bernoulli_table[j] for j in range(k))
            _bernoulli_table.append(-Fraction(acc) / (k + 1))
        return _bernoulli_table[m]
