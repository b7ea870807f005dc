"""Criteria and exact dimensions for diagonals of Rees algebras built on a
regular sequence of equal-degree forms.

Covers: a-invariants of the quotients by powers of the ideal, the
non-vanishing window for the first interesting local cohomology of the
diagonal, Cohen-Macaulay criteria in both the "window" and the classical
complete-intersection normalizations, and exact dimension counts when the
base is a polynomial ring.

Hilbert functions of complete intersections are read off the Hilbert series
prod(1 - t^d) / (1 - t)^m.  Its numerator is expanded once per multiset of
degrees (:func:`_ci_numerator`) and kept in one bounded LRU cache, so the
many degrees and filtration steps a Rees dimension asks of one complete
intersection share one expansion.  The kept numerators are tuples of
integer pairs, so no caller can change one, and the cache is safe for
concurrent use.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

from .errors import PreconditionError, UnsupportedModeError, check_integers


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
        check_integers("a dimA s k", self.a, self.dimA, self.s, self.k)
        if self.m is not None:
            check_integers("m", self.m)
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
        check_integers("m degree", self.m, *self.degrees)
        if not self.degrees or len(self.degrees) > self.m:
            raise PreconditionError(
                f"need 1 <= #degrees <= m: {len(self.degrees)} forms, m={self.m}"
            )
        if any(d < 1 for d in self.degrees):
            raise PreconditionError(f"degrees must be positive: {self.degrees}")


def a_inv_quotient_power(a: int, k: int, s: int, r: int) -> int:
    """a-invariant of the quotient by the r-th power of the ideal:
    a + k*s + r*k - k."""
    check_integers("a k s r", a, k, s, r)
    if r < 1:
        raise PreconditionError(f"need power r >= 1: {r}")
    return a + k * s + r * k - k


def rigidity_window(a: int, k: int, s: int, g: int) -> range:
    """Indices i with nonzero (dimA - s + 1)-st local cohomology of the
    diagonal: the integers 1 <= i <= (a + k*s - k)/g, possibly empty."""
    check_integers("a k s g", a, k, s, g)
    if g < 1:
        raise PreconditionError(f"need g >= 1: {g}")
    return range(1, (a + k * s - k) // g + 1)


def rigidity_is_cm(a: int, k: int, s: int, g: int) -> bool:
    """Cohen-Macaulay exactly when the window is empty, i.e. g > a + k*s - k."""
    return not rigidity_window(a, k, s, g)


def ci_diagonal_is_cm(ci: CISpec, g: int, h: int) -> bool:
    """Cohen-Macaulay criterion for the degree-g piece of the h-th power of a
    complete intersection, in the standard Rees normalization:
    requires g/h > max degree, and holds iff g > (h-1)*dmax - m + sum(degrees).
    """
    check_integers("g h", g, h)
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


# Degree multisets whose Hilbert numerator is kept for reuse.
_NUMERATORS_KEPT = 64


@functools.lru_cache(maxsize=_NUMERATORS_KEPT)
def _ci_numerator(degrees: tuple) -> tuple:
    """The numerator prod(1 - t^d) over the sorted positive ``degrees``, as
    the ascending pairs ``(u, c)`` of its nonzero coefficients c of t^u.

    Each distinct degree d of multiplicity e contributes (1 - t^d)^e, whose
    e + 1 terms the binomial theorem gives with C(e, i + 1) =
    C(e, i) * (e - i) / (i + 1); the factors are then multiplied out.  The
    value is kept for the last ``_NUMERATORS_KEPT`` multisets and is a tuple
    of tuples, so no caller can change a kept one.
    """
    factors = []
    for d, group in itertools.groupby(degrees):
        e = len(tuple(group))
        factor, c = [], 1
        for i in range(e + 1):
            factor.append((d * i, c))
            c = -c * (e - i) // (i + 1)
        factors.append(factor)
    # The first factor is taken as it is, not multiplied by 1, so a single
    # degree's coefficients are not copied.
    numerator = dict(factors[0] if factors else [(0, 1)])
    for factor in factors[1:]:
        out: dict = {}
        for u, a in numerator.items():
            for v, b in factor:
                out[u + v] = out.get(u + v, 0) + a * b
        numerator = out
    return tuple(sorted((u, c) for u, c in numerator.items() if c))


def ci_quotient_hilbert(m: int, degrees, j: int) -> int:
    """Hilbert function of the quotient of an m-variable polynomial ring by a
    complete intersection of forms of the given degrees: the coefficient of
    t^j in prod(1 - t^d) / (1 - t)^m.

    The value is sum c * C(j - u + m - 1, m - 1) over the terms c * t^u of
    the kept numerator (:func:`_ci_numerator`) with u <= j, in ascending u.
    Each binomial comes from the last by C(N - 1, K) = C(N, K) * (N - K) / N,
    one factor per unit of the gap between the two u, or from ``comb`` when
    the gap is longer than comb's own work, min(m - 1, j - u) factors.
    """
    key = tuple(sorted(degrees))
    # A sum of integers is an integer; any other number makes it another
    # type.  So no kept numerator has a degree that is not an integer.
    if not isinstance(sum(key), int):
        check_integers("degree", *key)
    if m < 1 or key and key[0] < 1:
        raise PreconditionError(f"need m >= 1 and positive degrees: m={m}, {key}")
    if len(key) > m:
        raise PreconditionError(
            f"need #degrees <= m: {len(key)} forms, m={m}")
    if j < 0:
        return 0
    lower = m - 1
    total = 0
    last = None  # the N of the last binomial C(N, lower)
    for u, c in _ci_numerator(key):
        if u > j:
            break
        n = j - u + lower
        if last is None or last - n > min(lower, j - u):
            binom = comb(n, lower)
        else:
            for above in range(last, n, -1):
                binom = binom * (above - lower) // above
        last = n
        total += c * binom
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
    if m < 1 or k < 1:
        raise PreconditionError(f"need m >= 1 and k >= 1: m={m}, k={k}")
    if not 1 <= s <= m:
        raise PreconditionError(f"need 1 <= s <= m: s={s}, m={m}")
    degrees = (k,) * s
    dual_top = k * s - m
    total = 0
    # The Hilbert function is 0 in negative degrees, so every rho below
    # (t - dual_top) / k adds 0: start at the first one that may not.
    for rho in range(max(0, -((dual_top - t) // k)), r):
        total += comb(s - 1 + rho, rho) * ci_quotient_hilbert(
            m, degrees, dual_top - (t - rho * k)
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
