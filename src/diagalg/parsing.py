"""Text grammar for polynomials over F_p in blocked variables.

Accepts integer coefficients, ``+ - * ^``, parentheses, and the variables
x1..xm, y1..yn; whitespace is ignored.  ``parse_polynomial`` returns the
:class:`MultiPoly` itself; its ring carries m, n and p.  Printing a parsed
polynomial (terms in descending graded-reverse-lexicographic order,
coefficients reduced to 0..p-1) and re-parsing it yields an equal
polynomial.  The grammar is documented in docs/poly-grammar.ebnf.
"""

from __future__ import annotations

import re

from .errors import PolyParseError
from .exactalg import MultiPoly, PolyRing


# Only the grammar's ASCII alphabet forms tokens; any other non-space
# character is an error.
_TOKEN = re.compile(r"([0-9]+)|([A-Za-z]+)([0-9]*)|([-+*^()])|(\S)")
# Longer digit runs are refused: 640 is the lowest limit Python may set on
# int() of a digit string (sys.set_int_max_str_digits), so every run that
# passes converts under any setting.
_MAX_DIGITS = 640


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        number, name, index, op, other = match.groups()
        pos = match.start()
        digits = number or index or ""
        if len(digits) > _MAX_DIGITS:
            raise PolyParseError(f"a number longer than {_MAX_DIGITS} digits",
                                 match.start(1 if number else 3))
        if number:
            tokens.append(("int", int(number), pos))
        elif name and index:
            tokens.append(("var", (name, int(index)), pos))
        elif name:
            raise PolyParseError(f"variable {name!r} is missing its index",
                                 match.end())
        elif op:
            tokens.append(("op", op, pos))
        else:
            raise PolyParseError(f"unexpected character {other!r}", pos)
    tokens.append(("end", None, len(text)))
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
            size = {"x": self.ring.m, "y": self.ring.n}.get(name)
            if size is None:
                raise PolyParseError(f"unknown variable {name}{index}", pos)
            if not 1 <= index <= size:
                raise PolyParseError(f"unknown variable {name}{index}: ring "
                                     f"has {size} {name}-variables", pos)
            return getattr(self.ring, name)(index)
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
