"""Classifier for diagonal subalgebras of generic bigraded hypersurfaces.

For a hypersurface ring in two blocks of variables (m x's, n y's) cut out by
a form of bidegree (d, e), and a diagonal (g, h)Z, this module decides the
Cohen-Macaulay, Gorenstein, rational-singularity, and F-regular-type flags by
closed-form arithmetic, and computes graded local-cohomology dimensions, the
canonical-module shift, and the a-invariant.  The singularity flags answer
for a generic form over characteristic zero; reports carry that caveat.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .errors import (InternalDefectError, PreconditionError, check_integers,
                     check_rows)
from .gradedcomb import DiagonalSpec, _ceil_div, _dim_poly, _dim_top

CAVEAT_GENERIC = (
    "rational-singularities and F-regular-type flags assume a generic form "
    "over a field of characteristic zero"
)
CAVEAT_NORMALITY = (
    "a generic form of this bidegree does not cut out a normal hypersurface "
    "(needs m > min(2, d) and n > min(2, e)); singularity flags are unreliable"
)


@dataclass(frozen=True)
class HypersurfaceSpec:
    """Shape (m, n, d, e) of a bigraded hypersurface: m x-variables of degree
    (1, 0), n y-variables of degree (0, 1), one defining form of bidegree
    (d, e)."""

    m: int
    n: int
    d: int
    e: int

    def __post_init__(self):
        check_integers("m n d e", self.m, self.n, self.d, self.e)
        if self.m < 2 or self.n < 2:
            raise PreconditionError(f"need m, n >= 2: ({self.m}, {self.n})")
        if self.d < 0 or self.e < 0 or self.d + self.e < 1:
            raise PreconditionError(
                f"bidegree must be >= 0 and not (0, 0): ({self.d}, {self.e})"
            )


@dataclass
class ClassificationReport:
    """Outcome of :func:`classify`.

    ``gorenstein`` records the raw arithmetic shift condition; it is reported
    independently of ``cohen_macaulay`` rather than forced to imply it.
    """

    cohen_macaulay: bool
    gorenstein: bool
    rational_singularities_generic: bool
    f_regular_type_generic: bool
    canonical_shift: tuple[int, int]
    a_invariant: int
    cm_obstruction: int | None
    caveats: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self) | {"canonical_shift": list(self.canonical_shift)}


def validate_generic_normal(spec: HypersurfaceSpec) -> bool:
    """Whether a generic form of this shape cuts out a normal hypersurface."""
    return spec.m > min(2, spec.d) and spec.n > min(2, spec.e)


def is_cohen_macaulay(spec: HypersurfaceSpec, diag: DiagonalSpec) -> bool:
    """Floor-form Cohen-Macaulay criterion:
    floor((d-m)/g) < e/h and floor((e-n)/h) < d/g, evaluated exactly."""
    lhs1 = (spec.d - spec.m) // diag.g
    lhs2 = (spec.e - spec.n) // diag.h
    return lhs1 * diag.h < spec.e and lhs2 * diag.g < spec.d


def _obstruction_windows(spec: HypersurfaceSpec, diag: DiagonalSpec):
    """Integer windows d/g <= k <= (e-n)/h and e/h <= k <= (d-m)/g.

    They are the supports of H^(n-1) and H^(m-1), the only local cohomology
    below the top (the q = n and q = m Kunneth summands of the (-d, -e)-
    shifted tensor diagonal).  At most one is nonempty: both would give
    e >= n + (h/g)d >= n + (h/g)(m + e).
    """
    return (range(_ceil_div(spec.d, diag.g), (spec.e - spec.n) // diag.h + 1),
            range(_ceil_div(spec.e, diag.h), (spec.d - spec.m) // diag.g + 1))


def cm_no_integer_window(spec: HypersurfaceSpec, diag: DiagonalSpec) -> bool:
    """Window-form Cohen-Macaulay criterion: no integer k lies in either
    obstruction window.  Equivalent to :func:`is_cohen_macaulay`; both are
    kept so the equivalence is testable rather than assumed."""
    return not any(_obstruction_windows(spec, diag))


def cm_obstruction(spec: HypersurfaceSpec, diag: DiagonalSpec) -> int | None:
    """Smallest obstruction index k when not Cohen-Macaulay, else None."""
    windows = _obstruction_windows(spec, diag)
    return min((w.start for w in windows if w), default=None)


def canonical_shift(spec: HypersurfaceSpec) -> tuple[int, int]:
    """Bidegree shift (d - m, e - n) of the graded canonical module."""
    return (spec.d - spec.m, spec.e - spec.n)


def is_gorenstein(spec: HypersurfaceSpec, diag: DiagonalSpec) -> bool:
    """The canonical shift restricts to an integer multiple of the diagonal:
    g | d - m, h | e - n, and (d - m)/g = (e - n)/h."""
    a, b = canonical_shift(spec)
    return a % diag.g == 0 and b % diag.h == 0 and a // diag.g == b // diag.h


def _quotient_piece(spec: HypersurfaceSpec, diag: DiagonalSpec,
                    i: int, j: int, k: int) -> int:
    # The defining form is a nonzerodivisor, so the (i, j)-shifted quotient
    # count is the tensor count at (i, j) minus its (-d, -e) shift.
    a = i + diag.g * k
    b = j + diag.h * k
    total = _dim_poly(spec.m, a) * _dim_poly(spec.n, b)
    sub = _dim_poly(spec.m, a - spec.d) * _dim_poly(spec.n, b - spec.e)
    if sub > total:
        raise InternalDefectError(
            f"negative Hilbert value at shift ({i}, {j}) k={k} for {spec}; please report"
        )
    return total - sub


def dim_piece(spec: HypersurfaceSpec, diag: DiagonalSpec, k: int) -> int:
    """Dimension of the index-k graded piece of the diagonal subalgebra."""
    check_integers("k", k)
    return _quotient_piece(spec, diag, 0, 0, k)


def canonical_piece_dim(spec: HypersurfaceSpec, diag: DiagonalSpec, k: int) -> int:
    """Dimension of the index-k piece of the graded canonical module, i.e. of
    the (d - m, e - n)-shifted diagonal of the hypersurface ring."""
    check_integers("k", k)
    return _quotient_piece(spec, diag, *canonical_shift(spec), k)


def _lc_piece(spec: HypersurfaceSpec, diag: DiagonalSpec, q: int, k: int) -> int:
    # The Kunneth summands of the (-d, -e)-shifted tensor diagonal, read off
    # the binomial cores.  Below the top only the q + 1 = n and q + 1 = m
    # summands can be nonzero (m, n >= 2 rule out q + 1 = m + n - 1).
    m, n = spec.m, spec.n
    top = m + n - 2
    if q < 0 or q > top:
        return 0
    gk, hk = diag.g * k, diag.h * k
    a, b = gk - spec.d, hk - spec.e
    if q < top:
        total = 0
        if q + 1 == n:
            total += _dim_poly(m, a) * _dim_top(n, b)
        if q + 1 == m:
            total += _dim_top(m, a) * _dim_poly(n, b)
        return total
    big = _dim_top(m, a) * _dim_top(n, b)
    small = _dim_top(m, gk) * _dim_top(n, hk)
    if small > big:
        raise InternalDefectError(
            f"top local cohomology came out negative at k={k} for {spec}"
        )
    return big - small


def dim_lc_piece(spec: HypersurfaceSpec, diag: DiagonalSpec, q: int, k: int) -> int:
    """dim of the degree-k piece of the q-th local cohomology of the diagonal.

    Below the top (q <= m + n - 3) this is the (q + 1)-st local cohomology of
    the (-d, -e)-shifted tensor diagonal.  At the top (q = m + n - 2) it is
    the kernel of a surjection between top tensor local cohomologies, so the
    dimensions subtract.  Above the top it vanishes.
    """
    check_integers("q k", q, k)
    return _lc_piece(spec, diag, q, k)


def a_invariant(spec: HypersurfaceSpec, diag: DiagonalSpec) -> int:
    """Top degree in which the highest local cohomology is nonzero: minus the
    first index where the canonical module has a nonzero piece, which is
    k0 = max(ceil((m-d)/g), ceil((n-e)/h)).

    Below k0 one of a = d-m+gk, b = e-n+hk is negative and the piece
    vanishes.  At k0 both are >= 0 and the piece has dimension
    dim S_(a,b) - dim S_(a-d,b-e), positive because m, n >= 2 make dim S
    strictly increasing in each degree and d + e >= 1.
    """
    return -max(_ceil_div(spec.m - spec.d, diag.g),
                _ceil_div(spec.n - spec.e, diag.h))


def has_rational_singularities_generic(spec: HypersurfaceSpec, diag: DiagonalSpec) -> bool:
    """Cohen-Macaulay and (d < m or e < n); generic form, characteristic 0."""
    return is_cohen_macaulay(spec, diag) and (spec.d < spec.m or spec.e < spec.n)


def is_f_regular_type_generic(spec: HypersurfaceSpec) -> bool:
    """d < m and e < n; generic form, characteristic 0.  Diagonal-free."""
    return spec.d < spec.m and spec.e < spec.n


def classify(spec: HypersurfaceSpec, diag: DiagonalSpec) -> ClassificationReport:
    """Assemble all flags, the canonical shift, the a-invariant, the smallest
    CM obstruction, and applicable caveats into one report."""
    caveats = [CAVEAT_GENERIC]
    if not validate_generic_normal(spec):
        caveats.append(CAVEAT_NORMALITY)
    return ClassificationReport(
        cohen_macaulay=is_cohen_macaulay(spec, diag),
        gorenstein=is_gorenstein(spec, diag),
        rational_singularities_generic=has_rational_singularities_generic(spec, diag),
        f_regular_type_generic=is_f_regular_type_generic(spec),
        canonical_shift=canonical_shift(spec),
        a_invariant=a_invariant(spec, diag),
        cm_obstruction=cm_obstruction(spec, diag),
        caveats=caveats,
    )


def lc_dim_table(spec: HypersurfaceSpec, diag: DiagonalSpec,
                 k_lo: int | None = None, k_hi: int | None = None) -> dict:
    """Map (q, k) -> nonzero local-cohomology dimension.

    Below the top only H^(n-1) and H^(m-1) can be nonzero, on the two
    obstruction windows of :func:`cm_obstruction`; those rows are covered
    completely.  The top degree q = m + n - 2 is nonzero for every k <= the
    a-invariant, so its rows are truncated to [k_lo, k_hi]; the defaults are
    a_invariant - 8 and a_invariant.  A table of more rows than the row cap
    is refused before any dimension is computed (``errors.check_rows``).
    """
    table: dict = {}
    top = spec.m + spec.n - 2
    a_inv = a_invariant(spec, diag)
    hi = a_inv if k_hi is None else k_hi
    lo = a_inv - 8 if k_lo is None else k_lo
    check_integers("k_lo k_hi", lo, hi)
    lower = [(q, window) for q, window in
             zip((spec.n - 1, spec.m - 1), _obstruction_windows(spec, diag))
             if window]
    # stop - start, since len() overflows on a huge window.
    check_rows(sum(w.stop - w.start for _, w in lower) + max(hi - lo + 1, 0),
               "a local-cohomology table")
    for q, window in lower:
        for k in window:
            value = _lc_piece(spec, diag, q, k)
            if value:
                table[(q, k)] = value
    for k in range(lo, hi + 1):
        value = _lc_piece(spec, diag, top, k)
        if value:
            table[(top, k)] = value
    return table
