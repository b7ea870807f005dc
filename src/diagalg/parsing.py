"""Text grammar for polynomials over F_p in blocked variables.

Accepts integer coefficients, ``+ - * ^``, parentheses, and the variables
x1..xm, y1..yn; whitespace is ignored.  ``parse_polynomial`` returns the
:class:`MultiPoly` itself; its ring carries m, n and p.  Printing a parsed
polynomial (terms in descending graded-reverse-lexicographic order,
coefficients reduced to 0..p-1) and re-parsing it yields an equal
polynomial.  The grammar is documented in docs/poly-grammar.ebnf.
"""

from __future__ import annotations

from .errors import PolyParseError
from .exactalg import MultiPoly, PolyRing


_OPS = set("+-*^()")


def _tokenize(text: str):
    tokens = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < size and text[pos].isdigit():
                pos += 1
            tokens.append(("int", int(text[start:pos]), start))
            continue
        if ch.isalpha():
            start = pos
            while pos < size and text[pos].isalpha():
                pos += 1
            name = text[start:pos]
            if pos >= size or not text[pos].isdigit():
                raise PolyParseError(f"variable {name!r} is missing its index", start)
            idx_start = pos
            while pos < size and text[pos].isdigit():
                pos += 1
            tokens.append(("var", (name, int(text[idx_start:pos])), start))
            continue
        raise PolyParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", None, size))
    return tokens


class _Parser:
    def __init__(self, tokens, ring: PolyRing):
        self.tokens = tokens
        self.ring = ring
        self.cursor = 0

    def peek(self):
        return self.tokens[self.cursor]

    def advance(self):
        token = self.tokens[self.cursor]
        self.cursor += 1
        return token

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise PolyParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse_expr(self) -> MultiPoly:
        kind, value, pos = self.peek()
        negate = False
        if kind == "op" and value == "-":
            self.advance()
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_term()
                result = result + term if value == "+" else result - term
            else:
                return result

    def parse_term(self) -> MultiPoly:
        result = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> MultiPoly:
        base = self.parse_base()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                raise PolyParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            return base ** value
        return base

    def parse_base(self) -> MultiPoly:
        kind, value, pos = self.advance()
        if kind == "int":
            return self.ring.const(value)
        if kind == "var":
            name, index = value
            if name == "x":
                if not 1 <= index <= self.ring.m:
                    raise PolyParseError(
                        f"unknown variable x{index}: ring has {self.ring.m} "
                        "x-variables", pos)
                return self.ring.x(index)
            if name == "y":
                if not 1 <= index <= self.ring.n:
                    raise PolyParseError(
                        f"unknown variable y{index}: ring has {self.ring.n} "
                        "y-variables", pos)
                return self.ring.y(index)
            raise PolyParseError(f"unknown variable {name}{index}", pos)
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise PolyParseError("expected a number, a variable, or '('", pos)


def parse_polynomial(text: str, m: int, n: int, p: int) -> MultiPoly:
    """Parse ``text`` into an exact polynomial over F_p[x1..xm, y1..yn]."""
    ring = PolyRing(p, m, n)
    parser = _Parser(_tokenize(text), ring)
    poly = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise PolyParseError("trailing input after the expression", pos)
    return poly
