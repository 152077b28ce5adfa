"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace is insignificant between tokens)::

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | var | '(' expr ')' | '-' base
    rational := int ('/' nat)?

Integer literals are runs of the ASCII digits ``0-9``.

Note that unary minus lives at the ``base`` level, so it binds *before*
exponentiation: ``-T1^2`` denotes ``(-T1)^2``.  The text formatter in
:mod:`chowkit.poly` is aware of this and never emits ambiguous output.

Parentheses and unary minus signs may nest at most ``MAX_DEPTH`` deep;
deeper input is rejected with a :class:`ParseError` instead of exhausting
the interpreter stack.  Rationals past ``MAX_POWER_BITS`` bits, sums,
products and powers whose coefficients would pass them, and products past
``MAX_TERM_PAIRS`` term pairs with no ``ring`` are rejected the same way,
at the literal or the operator.  Values are parsed as integer numerators over
one scale in lowest terms, as are the arguments and results of a ``ring``'s
methods, and the :class:`Polynomial` is built once, from the last value.  With
a ``ring``, each maximal run of linear factors in a term (bases whose terms all
have degree 1, with their exponents) is one call of the ring's product of
linear powers, made where the run ends.
"""

from __future__ import annotations

from math import comb, gcd, lcm
from typing import Protocol

from .poly import Numerators, Polynomial, RING_VARS, Vars, _add_product, _from_numerators

__all__ = ["ParseError", "parse"]


class Ring(Protocol):  # what parse reduces through, on (scale, {exponents: numerator}) pairs
    def multiply_numerators(self, a: Numerators, b: Numerators) -> Numerators: ...
    def linear_product_numerators(self, factors: list[tuple[Numerators, int]]) -> Numerators: ...


_SYMBOLS = set("+-*^/()")
# Literals are ASCII only: str.isdigit also accepts superscripts and other
# scripts' digits, which int() either rejects or silently converts.
_DIGITS = set("0123456789")

#: Deepest nesting of ``(`` and unary ``-`` that :func:`parse` accepts.
MAX_DEPTH = 100

#: Largest bit length less one of the larger of numerator and denominator of a coefficient in lowest terms, and of that
#: times the exponent for the constant term of a power and for each term of a ring's power of a linear form.  Reduction
#: bounds degrees, not coefficients; this bounds the time and memory their arithmetic takes.  Printing needs no bound.
MAX_POWER_BITS = 10_000

#: Most term pairs ``len(a) * len(b)`` of a product with no ``ring``: ``(T1+P)^20000`` has no other bound.
MAX_TERM_PAIRS = 1_000_000


class ParseError(ValueError):
    """Raised on malformed input; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch in _DIGITS:
            start = i
            while i < len(text) and text[i] in _DIGITS:
                i += 1
            # d digits may read 10^(d-1) > 2^(3(d-1)): refuse before int() reads them.
            if 3 * (i - start - 1) > MAX_POWER_BITS:
                raise ParseError(f"literal longer than {MAX_POWER_BITS // 3 + 1} digits", start)
            tokens.append(("number", text[start:i], start))
        elif ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


def _bits(base: Numerators, n: int) -> int:
    """``n`` times the bit length less one of the largest of the scale and the numerators of ``base``."""
    return n * (max([base[0], *map(abs, base[1].values())]).bit_length() - 1)


def _sum(a: Numerators, b: Numerators, sign: int = 1) -> Numerators:
    """``a + sign * b`` over the least common multiple of their scales, zero terms kept."""
    (s, x), (t, y), m = a, b, lcm(a[0], b[0])
    out, factor = dict(x) if m == s else {e: v * (m // s) for e, v in x.items()}, sign * (m // t)
    for e, v in y.items():
        out[e] = out.get(e, 0) + factor * v
    return m, out


class _Parser:
    def __init__(self, text: str, variables: Vars, ring: Ring | None):
        self.tokens, self.pos, self.depth, self.ring = _tokenize(text), 0, 0, ring
        self.one = (0,) * len(variables)  # the exponents of a constant
        units = {name: (1, {tuple(int(n == name) for n in variables): 1}) for name in variables}
        self.vars = {name: ring.linear_product_numerators([(v, 1)]) if ring else v for name, v in units.items()}  # reduced once

    def checked(self, p: Numerators, position: int) -> Numerators:
        """``p`` in lowest terms, ``gcd(scale, *numerators)`` divided out and zero terms
        dropped, refused at ``position`` if a coefficient passes ``MAX_POWER_BITS`` bits:
        none does while the scale and numerators fit, else each term is reduced to see."""
        common = gcd(p[0], *p[1].values())
        scale, terms = p if common == 1 and all(p[1].values()) else (p[0] // common, {e: v // common for e, v in p[1].items() if v})
        if max(scale, max(map(abs, terms.values()), default=0)).bit_length() - 1 > MAX_POWER_BITS:
            if any((max(abs(v), scale) // gcd(v, scale)).bit_length() - 1 > MAX_POWER_BITS for v in terms.values()):
                raise ParseError(f"coefficients grow past {MAX_POWER_BITS} bits", position)
        return scale, terms

    def product(self, a: Numerators, b: Numerators, position: int) -> Numerators:
        """The ``ring``'s product, or with no ``ring`` the expanded product, refused past ``MAX_TERM_PAIRS`` term pairs."""
        if not self.ring and len(a[1]) * len(b[1]) > MAX_TERM_PAIRS:
            raise ParseError(f"product of {len(a[1])} by {len(b[1])} terms passes {MAX_TERM_PAIRS} term pairs", position)
        if a[1].keys() <= {self.one} or b[1].keys() <= {self.one}:  # a constant scales the other value, reduced already
            (s, constant), (t, terms) = (a, b) if a[1].keys() <= {self.one} else (b, a)
            return self.checked((s * t, {e: constant.get(self.one, 0) * v for e, v in terms.items()}), position)
        return self.checked(self.ring.multiply_numerators(a, b) if self.ring else (a[0] * b[0], _add_product({}, a[1], b[1])), position)

    def power(self, base: Numerators, exponent: int, position: int) -> Numerators:
        """``base ** exponent``, refused at ``position`` (of the ``^``) when the constant term ``c`` would
        grow past ``MAX_POWER_BITS`` bits.  The ``ring``'s power when every term has degree 1 and the exponent
        times the bit length less one of the largest numerator or scale stays within ``MAX_POWER_BITS``; else
        taken by squaring through ``product`` when ``c`` is 0; else the sum of ``C(n,k) * c^(n-k) * u^k`` for
        ``u = base - c``, each summand checked, up to the first ``u^k`` that is zero."""
        (scale, terms), result = base, (1, {self.one: 1})
        constant = terms.get(self.one, 0)
        c, d = constant // (common := gcd(constant, scale)), scale // common
        if exponent * (max(abs(c), d).bit_length() - 1) > MAX_POWER_BITS:
            raise ParseError(f"power grows coefficients past {MAX_POWER_BITS} bits", position)
        if self.ring and all(sum(e) == 1 for e in terms) and _bits(base, exponent) <= MAX_POWER_BITS:  # else squaring refuses it unless it vanishes first
            return self.checked(self.ring.linear_product_numerators([(base, exponent)]), position)
        if not constant:
            while exponent:
                if exponent & 1:
                    result = self.product(result, base, position)
                exponent >>= 1
                if exponent:
                    base = self.product(base, base, position)
            return result
        u, u_k, result = (scale, {e: v for e, v in terms.items() if e != self.one}), result, (1, {})
        for k in range(exponent + 1):
            if not u_k[1]:
                break
            factor = comb(exponent, k) * c ** (exponent - k)
            result = _sum(result, self.checked((u_k[0] * d ** (exponent - k), {e: factor * v for e, v in u_k[1].items()}), position))
            if k < exponent:
                u_k = self.product(u_k, u, position)
        return self.checked(result, position)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str) -> tuple[str, str, int]:
        token = self.next()
        if token[0] != kind:
            raise ParseError(f"expected {kind!r}, found {token[1] or 'end of input'!r}", token[2])
        return token

    def parse_expr(self) -> Numerators:
        result = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op, _, position = self.next()
            result = self.checked(_sum(result, self.parse_term(), -1 if op == "-" else 1), position)
        return result

    def parse_term(self) -> Numerators:
        """The product of the factors, each maximal run of linear ones (nonzero, all terms of degree 1) joined where it ends."""
        result, run, star = None, [], None
        while True:
            try:
                run.append((*self.parse_factor(), star))
            except ParseError:
                self.joined(result, run)  # a refusal to the left of the error is raised first
                raise
            if not (self.ring and run[-1][0][1] and all(sum(e) == 1 for e in run[-1][0][1])):
                result, run = self.joined(self.joined(result, run[:-1]), run[-1:]), []
            if self.peek()[0] != "*":
                return self.joined(result, run)
            star = self.next()[2]

    def joined(self, result: Numerators | None, run: list) -> Numerators:
        """``result`` times the factors ``(base, exponent, caret, star)`` of ``run``: in one ``ring`` call for two or more
        whose :func:`_bits` sum to ``MAX_POWER_BITS`` at most; else, or if that is refused, one at a time, so that a
        refusal points at the first power or product refused."""
        if len(run) > 1 and sum(_bits(base, n) for base, n, *_ in run) <= MAX_POWER_BITS:
            try:
                value = self.checked(self.ring.linear_product_numerators([(base, n) for base, n, *_ in run]), run[-1][3])
                return value if result is None else self.product(result, value, run[0][3])
            except ParseError:
                pass
        for base, exponent, caret, star in run:
            value = base if caret is None else self.power(base, exponent, caret)
            result = value if result is None else self.product(result, value, star)
        return result

    def parse_factor(self) -> tuple[Numerators, int, int | None]:  # the base, its exponent and the position of the ^
        base = self.parse_base()
        if self.peek()[0] == "^":
            caret = self.next()[2]
            return base, int(self.expect("number")[1]), caret
        return base, 1, None

    def nested(self, parse, position: int) -> Numerators:
        """Run ``parse`` one nesting level deeper."""
        if self.depth >= MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", position)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def parse_base(self) -> Numerators:
        kind, value, position = self.next()
        if kind == "-":
            return _sum((1, {}), self.nested(self.parse_base, position), -1)
        if kind == "number":
            denom = 1
            if self.peek()[0] == "/":
                self.next()
                _, text, dpos = self.expect("number")
                if not (denom := int(text)):
                    raise ParseError("zero denominator", dpos)
            return self.checked((denom, {self.one: int(value)}), position)
        if kind == "name":
            if value not in self.vars:
                raise ParseError(f"unknown variable {value!r}", position)
            return self.vars[value]
        if kind == "(":
            inner = self.nested(self.parse_expr, position)
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {value or 'end of input'!r}", position)


def parse(text: str, variables: Vars = RING_VARS, ring: Ring | None = None) -> Polynomial:
    """Parse ``text`` into a :class:`Polynomial` over ``variables``.

    With ``ring``, each value is reduced as it forms, on ``(scale, {exponents:
    numerator})`` pairs of integers, the polynomials ``numerators / scale``,
    which the parser puts in lowest terms: each variable, once, and each run of
    factors whose bases' terms all have degree 1 by one call of
    ``ring.linear_product_numerators`` (a lone power is a run of one; a run
    whose coefficients could pass ``MAX_POWER_BITS``, or whose value is refused,
    is taken a factor at a time, and such a power is squared), a constant
    factor by scaling, and every other product, each step of a power included,
    by ``ring.multiply_numerators``.  So
    ``parse(text, ring=ctx)`` is the normal form in a
    :class:`~chowkit.ring.RingContext` ``ctx``.  A power with a constant term is
    a binomial sum, ended once its non-constant part's powers multiply to 0.

    Raises :class:`ParseError` (a ``ValueError``) on syntax errors, on names
    outside the variable set, on coefficients past ``MAX_POWER_BITS`` and on
    products past ``MAX_TERM_PAIRS`` with no ``ring``, at the offending position.
    """
    parser = _Parser(text, tuple(variables), ring)
    result = parser.parse_expr()
    kind, value, position = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {value!r}", position)
    return _from_numerators(tuple(parser.vars), *result)
