"""Brute-force references that the tests compare the library against."""

import itertools

from diagalg.exactalg import exponent_vectors


def mono_divides(a, b):
    """True when monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def enumerated_standard_count(gb, degree) -> int:
    """``standard_monomial_count`` by enumeration: walk every monomial of the
    degree (an integer, or a bidegree pair) and count those that no leading
    monomial of ``gb`` divides."""
    ring = gb[0].ring
    leads = [g.leading_monomial() for g in gb]
    if isinstance(degree, int):
        monos = exponent_vectors(degree, ring.nvars)
    else:
        a, b = degree
        monos = (ex + ey for ex, ey in itertools.product(
            exponent_vectors(a, ring.m), exponent_vectors(b, ring.n)))
    return sum(1 for mono in monos
               if not any(mono_divides(lt, mono) for lt in leads))
