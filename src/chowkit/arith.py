"""Exact rational arithmetic helpers: factorials, double factorials, binomials
and Bernoulli numbers, and the package's one check of an integer argument.

Everything returns exact values (``int`` or ``fractions.Fraction``); no
floating point is ever involved.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

__all__ = ["bernoulli", "binomial", "double_factorial", "factorial"]

def _require_int(value: int, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` when it is an ``int`` in ``[low, high]`` (a ``None`` bound is open), else a ``ValueError`` that
    says ``what`` was wanted.  A ``bool`` or a ``float`` is refused, never read as an integer."""
    if type(value) is not int or (low is not None and value < low) or (high is not None and value > high):
        raise ValueError(f"{what}, got {value!r}")
    return value


def _require_genus(genus: int) -> int:
    return _require_int(genus, "genus must be a positive integer", 1)


def factorial(n: int) -> int:
    return math.factorial(_require_int(n, "factorial needs a nonnegative integer", 0))


def binomial(n: int, k: int) -> int:
    what = "binomial(n, k) needs integers 0 <= k <= n"
    return math.comb(n, _require_int(k, what, 0, _require_int(n, what, 0)))


def double_factorial(n: int) -> int:
    """``n!!`` for odd ``n >= -1``, with ``(-1)!! = 1`` (empty product).

    Even or smaller arguments are rejected: the coefficient formulas in this
    package only ever need odd double factorials, and silently accepting even
    ones would hide index bugs.
    """
    what = "double_factorial needs an odd integer n >= -1"
    if _require_int(n, what, -1) % 2 == 0:
        raise ValueError(f"{what}, got {n}")
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
    _require_int(m, "bernoulli needs a nonnegative integer index", 0)
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
