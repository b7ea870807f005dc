"""Criteria and exact dimensions for diagonals of Rees algebras built on a
regular sequence of equal-degree forms.

Covers: a-invariants of the quotients by powers of the ideal, the
non-vanishing window for the first interesting local cohomology of the
diagonal, Cohen-Macaulay criteria in both the "window" and the classical
complete-intersection normalizations, and exact dimension counts when the
base is a polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import PreconditionError, UnsupportedModeError


@dataclass(frozen=True)
class ReesSpec:
    """Data for a Rees diagonal: base ring a-invariant ``a`` and dimension
    ``dimA``, with ``s`` forms of common degree ``k`` forming a regular
    sequence.  Setting ``m`` asserts the base is a polynomial ring in m
    variables (so a = -m and dimA = m) and unlocks exact dimension mode."""

    a: int
    dimA: int
    s: int
    k: int
    m: int | None = None

    def __post_init__(self):
        if self.dimA < 2:
            raise PreconditionError(f"need dimA >= 2: {self.dimA}")
        if not 2 <= self.s <= self.dimA:
            raise PreconditionError(f"need 2 <= s <= dimA: s={self.s}, dimA={self.dimA}")
        if self.k < 1:
            raise PreconditionError(f"need form degree k >= 1: {self.k}")
        if self.m is not None and (self.m != self.dimA or self.a != -self.m):
            raise PreconditionError(
                "polynomial mode needs dimA = m and a = -m; "
                f"got m={self.m}, dimA={self.dimA}, a={self.a}"
            )

    @classmethod
    def polynomial_base(cls, m: int, s: int, k: int) -> "ReesSpec":
        return cls(a=-m, dimA=m, s=s, k=k, m=m)


@dataclass(frozen=True)
class CISpec:
    """A complete intersection in an m-variable polynomial ring, minimally
    generated by forms of the given positive degrees."""

    m: int
    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if not self.degrees or len(self.degrees) > self.m:
            raise PreconditionError(
                f"need 1 <= #degrees <= m: {len(self.degrees)} forms, m={self.m}"
            )
        if any(d < 1 for d in self.degrees):
            raise PreconditionError(f"degrees must be positive: {self.degrees}")


def a_inv_quotient_power(a: int, k: int, s: int, r: int) -> int:
    """a-invariant of the quotient by the r-th power of the ideal:
    a + k*s + r*k - k."""
    if r < 1:
        raise PreconditionError(f"need power r >= 1: {r}")
    return a + k * s + r * k - k


def rigidity_window(a: int, k: int, s: int, g: int) -> range:
    """Indices i with nonzero (dimA - s + 1)-st local cohomology of the
    diagonal: the integers 1 <= i <= (a + k*s - k)/g, possibly empty."""
    if g < 1:
        raise PreconditionError(f"need g >= 1: {g}")
    return range(1, (a + k * s - k) // g + 1)


def rigidity_is_cm(a: int, k: int, s: int, g: int) -> bool:
    """Cohen-Macaulay exactly when g > a + k*s - k (empty window)."""
    if g < 1:
        raise PreconditionError(f"need g >= 1: {g}")
    return g > a + k * s - k


def ci_diagonal_is_cm(ci: CISpec, g: int, h: int) -> bool:
    """Cohen-Macaulay criterion for the degree-g piece of the h-th power of a
    complete intersection, in the standard Rees normalization:
    requires g/h > max degree, and holds iff g > (h-1)*dmax - m + sum(degrees).
    """
    if g < 1 or h < 1:
        raise PreconditionError(f"need g, h >= 1: ({g}, {h})")
    dmax = max(ci.degrees)
    if g <= h * dmax:
        raise PreconditionError(
            f"theorem hypothesis violated: need g/h > max degree, "
            f"got g={g}, h={h}, max degree={dmax}"
        )
    return g > (h - 1) * dmax - ci.m + sum(ci.degrees)


def cm_criteria_consistent(m: int, k: int, s: int, g: int, h: int) -> bool:
    """Cross-validate the two Cohen-Macaulay criteria on a polynomial base.

    The window normalization at diagonal (g, h) corresponds to the standard
    Rees normalization at diagonal (g + k*h, h).  This must always return
    True; a False is a defect report, not an answer.
    """
    window_cm = rigidity_is_cm(-m, k, s, g)
    classical_cm = ci_diagonal_is_cm(CISpec(m, (k,) * s), g + k * h, h)
    return window_cm == classical_cm


def ci_quotient_hilbert(m: int, degrees, j: int) -> int:
    """Hilbert function of the quotient of an m-variable polynomial ring by a
    complete intersection of forms of the given degrees: the coefficient of
    t^j in prod(1 - t^d) / (1 - t)^m."""
    degrees = tuple(degrees)
    if m < 1 or any(d < 1 for d in degrees):
        raise PreconditionError(f"need m >= 1 and positive degrees: m={m}, {degrees}")
    if j < 0:
        return 0
    numerator = {0: 1}
    for d in degrees:
        out: dict = {}
        for u, c in numerator.items():
            out[u] = out.get(u, 0) + c
            out[u + d] = out.get(u + d, 0) - c
        numerator = out
    total = 0
    for u, c in numerator.items():
        if u <= j:
            total += c * comb(j - u + m - 1, m - 1)
    return total


def dim_lc_ci_quotient_power(m: int, k: int, s: int, r: int, t: int) -> int:
    """dim of the degree-t piece of the (m - s)-th local cohomology of the
    quotient by the r-th power of a complete intersection of s k-forms.

    Unrolls the filtration of the power by copies of the complete
    intersection quotient, whose top local cohomology is read off the Hilbert
    function via Gorenstein duality: dim H(A/I)_u = HF_{A/I}((k*s - m) - u).
    """
    if r < 1:
        raise PreconditionError(f"need power r >= 1: {r}")
    dual_top = k * s - m
    total = 0
    for rho in range(r):
        total += comb(s - 1 + rho, rho) * ci_quotient_hilbert(
            m, (k,) * s, dual_top - (t - rho * k)
        )
    return total


def dim_lc_rees_diag(spec: ReesSpec, g: int, h: int, i: int) -> int:
    """Exact dim of the index-i piece of the (dimA - s + 1)-st local
    cohomology of the Rees diagonal, in polynomial-base mode: the diagonal
    index i selects the h*i-th power at internal degree g*i + k*h*i."""
    if spec.m is None:
        raise UnsupportedModeError(
            "exact dimensions need a polynomial base; build the input with "
            "ReesSpec.polynomial_base"
        )
    if g < 1 or h < 1:
        raise PreconditionError(f"need g, h >= 1: ({g}, {h})")
    if i < 1:
        raise PreconditionError(f"need index i >= 1: {i}")
    return dim_lc_ci_quotient_power(
        spec.m, spec.k, spec.s, h * i, g * i + spec.k * h * i
    )
