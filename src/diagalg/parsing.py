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
# Longer digit runs, and powers of higher degree, are refused: 640 is the
# lowest limit Python may set on int() of a digit string and on str() of an
# int (sys.set_int_max_str_digits), so every run that passes converts and
# every exponent prints under any setting.
_MAX_DIGITS = 640
# Each level of parentheses takes four Python frames; deeper nesting is
# refused at the "(" that opens it, well before the interpreter's stack.
_MAX_DEPTH = 100


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


def parse_polynomial(text: str, m: int, n: int, p: int) -> MultiPoly:
    """Parse ``text`` into an exact polynomial over F_p[x1..xm, y1..yn]."""
    ring = PolyRing(p, m, n)
    tokens = iter(_tokenize(text))
    token = next(tokens)
    depth = 0

    def accept(op: str) -> bool:
        # Step past the current token if it is the operator ``op``.
        nonlocal token
        if token[0] == "op" and token[1] == op:
            token = next(tokens)
            return True
        return False

    def expr() -> MultiPoly:
        result = -term() if accept("-") else term()
        while True:
            if accept("+"):
                result = result + term()
            elif accept("-"):
                result = result - term()
            else:
                return result

    def term() -> MultiPoly:
        result = factor()
        while accept("*"):
            result = result * factor()
        return result

    def factor() -> MultiPoly:
        nonlocal token
        result = base()
        if not accept("^"):
            return result
        kind, value, pos = token
        if kind != "int":
            raise PolyParseError("exponent must be a nonnegative integer", pos)
        token = next(tokens)
        # Nested powers multiply degrees; keep every exponent printable.
        if result.total_degree() * value >= 10 ** _MAX_DIGITS:
            raise PolyParseError(
                f"a power of degree over {_MAX_DIGITS} digits", pos)
        return result ** value

    def base() -> MultiPoly:
        nonlocal token, depth
        kind, value, pos = token
        if accept("("):
            depth += 1
            if depth > _MAX_DEPTH:
                raise PolyParseError(
                    f"parentheses nested deeper than {_MAX_DEPTH}", pos)
            inner = expr()
            if not accept(")"):
                raise PolyParseError("expected ')'", token[2])
            depth -= 1
            return inner
        if kind == "int":
            result = ring.const(value)
        elif kind == "var":
            name, index = value
            size = {"x": m, "y": n}.get(name)
            if size is None:
                raise PolyParseError(f"unknown variable {name}{index}", pos)
            if not 1 <= index <= size:
                raise PolyParseError(f"unknown variable {name}{index}: ring "
                                     f"has {size} {name}-variables", pos)
            result = ring.gen(index - 1 if name == "x" else m + index - 1)
        else:
            raise PolyParseError("expected a number, a variable, or '('", pos)
        token = next(tokens)
        return result

    poly = expr()
    if token[0] != "end":
        raise PolyParseError("trailing input after the expression", token[2])
    return poly
