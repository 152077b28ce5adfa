"""Exact rational arithmetic helpers: factorials, double factorials, binomials
and Bernoulli numbers, and the package's one check of a genus.

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


def _require_genus(genus: int) -> None:
    if type(genus) is not int or genus < 1:  # a bool or a float is refused, not read as an int
        raise ValueError(f"genus must be a positive integer, got {genus!r}")


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
    return math.prod(range(n, 1, -2))


_bernoulli_lock = threading.Lock()
_bernoulli_table: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """The m-th Bernoulli number (``B_1 = -1/2``, ``B_m = 0`` for odd ``m > 1``).

    ``B_(2k) = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))`` for the tangent numbers,
    ``tan x = sum T_k x^(2k-1)/(2k-1)!``, by Brent and Harvey's integer
    recurrence ("Fast computation of Bernoulli, Tangent and Secant numbers",
    2011).  The table grows on demand, at least doubling, under a lock so
    concurrent callers see each value computed exactly once.
    """
    if m < 0:
        raise ValueError(f"bernoulli undefined for negative index {m}")
    with _bernoulli_lock:
        if len(_bernoulli_table) <= m:
            n = max(m, 2 * len(_bernoulli_table)) // 2
            t = [0] + [math.factorial(k - 1) for k in range(1, n + 1)]
            for k in range(2, n + 1):
                for j in range(k, n + 1):
                    t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
            even = (Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1)) for k in range(1, n + 1))
            _bernoulli_table[1:] = [Fraction(-1, 2), *(v for b in even for v in (b, Fraction(0)))]
        return _bernoulli_table[m]
