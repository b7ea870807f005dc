"""Closed-form graded dimension counts.

Dimensions of graded pieces of polynomial rings, of their top local
cohomology modules, and of diagonal pieces of shifted tensor products of two
polynomial rings (the two-factor Kunneth calculus).  All counts are binomial
coefficients over arbitrary-precision integers; nothing here is approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import PreconditionError


@dataclass(frozen=True)
class DiagonalSpec:
    """The diagonal (g, h)Z in Z^2 along which graded pieces are selected."""

    g: int
    h: int

    def __post_init__(self):
        if self.g < 1 or self.h < 1:
            raise PreconditionError(f"diagonal needs g, h >= 1: ({self.g}, {self.h})")


@dataclass(frozen=True)
class ShiftedDiagPiece:
    """Diagonal index k of the (i, j)-shifted tensor product in (m, n) variables."""

    m: int
    n: int
    i: int
    j: int
    k: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise PreconditionError(f"need m, n >= 1: ({self.m}, {self.n})")


@dataclass(frozen=True)
class IndexWindow:
    """Closed interval of diagonal indices; empty exactly when lo > hi.

    ``lo is None`` together with ``unbounded_below`` marks a window extending
    to minus infinity; such windows refuse enumeration and callers must argue
    by duality instead.
    """

    lo: int | None
    hi: int
    unbounded_below: bool = False

    @property
    def is_empty(self) -> bool:
        return not self.unbounded_below and self.lo > self.hi

    def k_values(self) -> range:
        if self.unbounded_below:
            raise PreconditionError("window is unbounded below; cannot enumerate")
        return range(self.lo, self.hi + 1)

    def __contains__(self, k: int) -> bool:
        if self.unbounded_below:
            return k <= self.hi
        return self.lo <= k <= self.hi


def _ceil_div(a: int, b: int) -> int:
    # b > 0; Python // floors, so ceil(a/b) = -((-a)//b).
    return -((-a) // b)


def dim_poly(m: int, k: int) -> int:
    """K-dimension of the degree-k piece of a polynomial ring in m variables."""
    if m < 1:
        raise PreconditionError(f"need m >= 1: {m}")
    if k < 0:
        return 0
    return comb(k + m - 1, m - 1)


def dim_top_lc(m: int, k: int) -> int:
    """Degree-k dimension of the top local cohomology of an m-variable
    polynomial ring: the graded dual convention gives dim of degree -k-m."""
    return dim_poly(m, -k - m)


def dim_tensor_diag(piece: ShiftedDiagPiece, diag: DiagonalSpec) -> int:
    """dim of the diagonal-index-k piece of the (i, j)-shifted tensor product."""
    a = piece.i + diag.g * piece.k
    b = piece.j + diag.h * piece.k
    return dim_poly(piece.m, a) * dim_poly(piece.n, b)


def dim_lc_tensor_diag(q: int, piece: ShiftedDiagPiece, diag: DiagonalSpec) -> int:
    """Cohomological degree-q local cohomology dimension of the shifted
    tensor-product diagonal at index k.

    With both factors polynomial rings, only three summands can contribute:
    q = n, q = m, and q = m + n - 1.  When indices coincide (e.g. m = n) the
    matching summands add up.
    """
    m, n = piece.m, piece.n
    a = piece.i + diag.g * piece.k
    b = piece.j + diag.h * piece.k
    total = 0
    if q == n:
        total += dim_poly(m, a) * dim_top_lc(n, b)
    if q == m:
        total += dim_top_lc(m, a) * dim_poly(n, b)
    if q == m + n - 1:
        total += dim_top_lc(m, a) * dim_top_lc(n, b)
    return total


def support_window(q: int, piece_shape: tuple[int, int, int, int],
                   diag: DiagonalSpec) -> IndexWindow:
    """Interval of diagonal indices outside of which ``dim_lc_tensor_diag``
    provably vanishes, derived termwise from the three summands.

    The q = m + n - 1 summand has no lower bound; when it contributes, the
    returned window is flagged ``unbounded_below`` and enumeration is refused.
    """
    m, n, i, j = piece_shape
    if m < 1 or n < 1:
        raise PreconditionError(f"need m, n >= 1: ({m}, {n})")
    g, h = diag.g, diag.h
    bounded = []
    top_hi = None
    if q == n:
        bounded.append((_ceil_div(-i, g), (-(j + n)) // h))
    if q == m:
        bounded.append((_ceil_div(-j, h), (-(i + m)) // g))
    if q == m + n - 1:
        top_hi = min((-(i + m)) // g, (-(j + n)) // h)
    bounded = [(lo, hi) for lo, hi in bounded if lo <= hi]
    if top_hi is not None:
        hi = max([top_hi] + [w[1] for w in bounded])
        return IndexWindow(None, hi, unbounded_below=True)
    if not bounded:
        return IndexWindow(0, -1)
    return IndexWindow(min(w[0] for w in bounded), max(w[1] for w in bounded))
