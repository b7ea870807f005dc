"""Closed-form graded dimension counts.

Dimensions of graded pieces of polynomial rings, of their top local
cohomology modules, and of diagonal pieces of shifted tensor products of two
polynomial rings (the two-factor Kunneth calculus).  A shifted piece is the
plain integers (m, n, i, j, k): diagonal index k of the (i, j)-shifted tensor
product in m and n variables.  All counts are binomial coefficients over
arbitrary-precision integers; nothing here is approximate.

Every count is built from two binomial cores, ``_dim_poly`` and
``_dim_top``, which check nothing.  Each public function checks its
integers and ranges once and then calls them; so do the closed forms of
``hypersurface`` and ``rees``, after their own checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import PreconditionError, check_integers


@dataclass(frozen=True)
class DiagonalSpec:
    """The diagonal (g, h)Z in Z^2 along which graded pieces are selected."""

    g: int
    h: int

    def __post_init__(self):
        check_integers("g h", self.g, self.h)
        if self.g < 1 or self.h < 1:
            raise PreconditionError(f"diagonal needs g, h >= 1: ({self.g}, {self.h})")


def _ceil_div(a: int, b: int) -> int:
    # b > 0; Python // floors, so ceil(a/b) = -((-a)//b).
    return -((-a) // b)


def _dim_poly(m: int, k: int) -> int:
    # The binomial core of the degree-k piece; m >= 1, unchecked.
    return comb(k + m - 1, m - 1) if k >= 0 else 0


def _dim_top(m: int, k: int) -> int:
    # The binomial core of the top local cohomology, the degree -k - m
    # piece: C(-k - 1, m - 1) for k <= -m; m >= 1, unchecked.
    return comb(-k - 1, m - 1) if k <= -m else 0


def dim_poly(m: int, k: int) -> int:
    """K-dimension of the degree-k piece of a polynomial ring in m variables."""
    check_integers("m k", m, k)
    if m < 1:
        raise PreconditionError(f"need m >= 1: {m}")
    return _dim_poly(m, k)


def dim_top_lc(m: int, k: int) -> int:
    """Degree-k dimension of the top local cohomology of an m-variable
    polynomial ring: the graded dual convention gives dim of degree -k-m."""
    check_integers("m k", m, k)
    if m < 1:
        raise PreconditionError(f"need m >= 1: {m}")
    return _dim_top(m, k)


def dim_tensor_diag(m: int, n: int, i: int, j: int, k: int,
                    diag: DiagonalSpec) -> int:
    """dim of the diagonal-index-k piece of the (i, j)-shifted tensor product
    of polynomial rings in m and n variables."""
    check_integers("m n i j k", m, n, i, j, k)
    if m < 1 or n < 1:
        raise PreconditionError(f"need m, n >= 1: ({m}, {n})")
    return _dim_poly(m, i + diag.g * k) * _dim_poly(n, j + diag.h * k)


def dim_lc_tensor_diag(q: int, m: int, n: int, i: int, j: int, k: int,
                       diag: DiagonalSpec) -> int:
    """Cohomological degree-q local cohomology dimension of the shifted
    tensor-product diagonal at index k.

    With both factors polynomial rings, only three summands can contribute:
    q = n, q = m, and q = m + n - 1.  When indices coincide (e.g. m = n) the
    matching summands add up.
    """
    check_integers("q m n i j k", q, m, n, i, j, k)
    if m < 1 or n < 1:
        raise PreconditionError(f"need m, n >= 1: ({m}, {n})")
    a = i + diag.g * k
    b = j + diag.h * k
    total = 0
    if q == n:
        total += _dim_poly(m, a) * _dim_top(n, b)
    if q == m:
        total += _dim_top(m, a) * _dim_poly(n, b)
    if q == m + n - 1:
        total += _dim_top(m, a) * _dim_top(n, b)
    return total
