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
the interpreter stack.  Literals too long for ``MAX_POWER_BITS`` bits, and
sums, products and powers whose coefficients would pass them, are rejected
the same way, at the literal or the operator.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable

from .poly import Polynomial, RING_VARS, Vars

__all__ = ["ParseError", "parse"]

Reduce = Callable[[Polynomial], Polynomial]

_SYMBOLS = set("+-*^/()")
# Literals are ASCII only: str.isdigit also accepts superscripts and other
# scripts' digits, which int() either rejects or silently converts.
_DIGITS = set("0123456789")

#: Deepest nesting of ``(`` and unary ``-`` that :func:`parse` accepts.
MAX_DEPTH = 100

#: Largest ``_bits`` of a coefficient, and of ``exponent * _bits(constant)``
#: for a power.  Reduction bounds degrees, not coefficients; this keeps them
#: under CPython's 4,300-digit (about 14,000-bit) limit on printing an int.
MAX_POWER_BITS = 10_000


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


def _bits(c: Fraction) -> int:
    """Bit length less one of the larger of numerator and denominator."""
    return max(abs(c.numerator), c.denominator).bit_length() - 1


class _Parser:
    def __init__(self, text: str, variables: Vars, reduce: Reduce | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.vars = variables
        self.reduce = reduce

    def checked(self, p: Polynomial, position: int) -> Polynomial:
        """``p``, refused at ``position`` if a coefficient passes ``MAX_POWER_BITS`` bits."""
        if any(_bits(c) > MAX_POWER_BITS for c in p.terms.values()):
            raise ParseError(f"coefficients grow past {MAX_POWER_BITS} bits", position)
        return p

    def product(self, a: Polynomial, b: Polynomial, position: int) -> Polynomial:
        """``a * b``, passed through ``reduce`` when there is one."""
        p = a * b
        return self.checked(self.reduce(p) if self.reduce else p, position)

    def power(self, base: Polynomial, exponent: int, position: int) -> Polynomial:
        """``base ** exponent``, refused at ``position`` (of the ``^``) when the
        constant term ``c`` would grow past ``MAX_POWER_BITS`` bits.  Taken by
        squaring through ``product`` without ``reduce`` or without ``c``; else
        the sum of ``C(n,k) * c^(n-k) * u^k`` for ``u = base - c``, each summand
        checked, up to the first ``u^k`` that reduces to zero."""
        constant = base.coefficient((0,) * len(self.vars))
        if exponent * _bits(constant) > MAX_POWER_BITS:
            raise ParseError(f"power grows coefficients past {MAX_POWER_BITS} bits", position)
        if self.reduce is None or not constant:
            result = Polynomial.constant(self.vars, 1)
            while exponent:
                if exponent & 1:
                    result = self.product(result, base, position)
                exponent >>= 1
                if exponent:
                    base = self.product(base, base, position)
            return result
        u, u_k = base - constant, Polynomial.constant(self.vars, 1)
        result = Polynomial.zero(self.vars)
        for k in range(exponent + 1):
            if u_k.is_zero():
                break
            result += self.checked(comb(exponent, k) * constant ** (exponent - k) * u_k, position)
            if k < exponent:
                u_k = self.product(u_k, u, position)
        return self.checked(result, position)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> tuple[str, str, int]:
        token = self.next()
        if token[0] != kind:
            raise ParseError(f"expected {kind!r}, found {token[1] or 'end of input'!r}", token[2])
        return token

    def parse_expr(self) -> Polynomial:
        result = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op, _, position = self.next()
            rhs = self.parse_term()
            result = self.checked(result + rhs if op == "+" else result - rhs, position)
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek()[0] == "*":
            star = self.next()[2]
            result = self.product(result, self.parse_factor(), star)
        return result

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        if self.peek()[0] == "^":
            caret = self.next()[2]
            kind, value, position = self.expect("number")
            return self.power(base, int(value), caret)
        return base

    def nested(self, parse, position: int) -> Polynomial:
        """Run ``parse`` one nesting level deeper."""
        if self.depth >= MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", position)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def parse_base(self) -> Polynomial:
        kind, value, position = self.next()
        if kind == "-":
            return -self.nested(self.parse_base, position)
        if kind == "number":
            if self.peek()[0] == "/":
                self.next()
                _, denom, dpos = self.expect("number")
                if int(denom) == 0:
                    raise ParseError("zero denominator", dpos)
                return Polynomial.constant(self.vars, Fraction(int(value), int(denom)))
            return Polynomial.constant(self.vars, int(value))
        if kind == "name":
            if value not in self.vars:
                raise ParseError(f"unknown variable {value!r}", position)
            return Polynomial.variable(self.vars, value)
        if kind == "(":
            inner = self.nested(self.parse_expr, position)
            self.expect(")")
            return inner
        raise ParseError(f"unexpected {value or 'end of input'!r}", position)


def parse(text: str, variables: Vars = RING_VARS, reduce: Reduce | None = None) -> Polynomial:
    """Parse ``text`` into a :class:`Polynomial` over ``variables``.

    With ``reduce``, every product and the result pass through it, and a power
    is a binomial sum that ends once the powers of its non-constant part
    reduce to zero.  ``reduce(a * b)`` must equal ``reduce(reduce(a) * b)``,
    as for ``RingContext.normal_form`` or a degree truncation.

    Raises :class:`ParseError` (a ``ValueError``) on syntax errors, on names
    outside the variable set and on coefficients past ``MAX_POWER_BITS``,
    with the offending position attached.
    """
    parser = _Parser(text, tuple(variables), reduce)
    result = parser.parse_expr()
    kind, value, position = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {value!r}", position)
    return reduce(result) if reduce else result
