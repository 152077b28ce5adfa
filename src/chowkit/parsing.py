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
the interpreter stack.  A power whose constant term would grow past
``MAX_POWER_BITS`` bits is rejected the same way, before it is computed.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Polynomial, RING_VARS, Vars

__all__ = ["ParseError", "parse"]

_SYMBOLS = set("+-*^/()")
# Literals are ASCII only: str.isdigit also accepts superscripts and other
# scripts' digits, which int() either rejects or silently converts.
_DIGITS = set("0123456789")

#: Deepest nesting of ``(`` and unary ``-`` that :func:`parse` accepts.
MAX_DEPTH = 100

#: Largest ``exponent * (bit length of the base's constant term - 1)`` of a
#: power.  Truncation bounds degrees, not coefficients; this keeps them under
#: CPython's 4,300-digit (about 14,000-bit) limit on printing an int.
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


class _Parser:
    def __init__(self, text: str, variables: Vars, max_degree: int | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.vars = variables
        self.max_degree = max_degree

    def product(self, a: Polynomial, b: Polynomial) -> Polynomial:
        """``a * b`` without its terms above ``max_degree``; zero, with no
        multiplication, when the factors' lowest degrees sum past it."""
        top = self.max_degree
        if top is None:
            return a * b
        if min(map(sum, a.terms), default=0) + min(map(sum, b.terms), default=0) > top:
            return Polynomial.zero(self.vars)
        return Polynomial._raw(self.vars, {e: c for e, c in (a * b).terms.items() if sum(e) <= top})

    def power(self, base: Polynomial, exponent: int, position: int) -> Polynomial:
        """``base ** exponent`` by squaring; ``position`` (of the ``^``) is
        reported when the constant term would grow past ``MAX_POWER_BITS``."""
        constant = base.coefficient((0,) * len(self.vars))
        if exponent * (max(abs(constant.numerator), constant.denominator).bit_length() - 1) > MAX_POWER_BITS:
            raise ParseError(f"power grows coefficients past {MAX_POWER_BITS} bits", position)
        result = Polynomial.constant(self.vars, 1)
        while exponent:
            if exponent & 1:
                result = self.product(result, base)
            exponent >>= 1
            if exponent:
                base = self.product(base, base)
        return result

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
            op = self.next()[0]
            rhs = self.parse_term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek()[0] == "*":
            self.next()
            result = self.product(result, self.parse_factor())
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


def parse(text: str, variables: Vars = RING_VARS, max_degree: int | None = None) -> Polynomial:
    """Parse ``text`` into a :class:`Polynomial` over ``variables``.

    With ``max_degree``, terms of higher total degree are dropped after every
    product and power (taken by squaring), or the product is skipped when its
    factors' lowest degrees already sum past the bound: a huge exponent costs
    its bit length.

    Raises :class:`ParseError` (a ``ValueError``) on syntax errors, on names
    outside the variable set and on powers past ``MAX_POWER_BITS``, with the
    offending position attached.
    """
    parser = _Parser(text, tuple(variables), max_degree)
    result = parser.parse_expr()
    kind, value, position = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing {value!r}", position)
    return result
