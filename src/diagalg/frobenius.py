"""Characteristic-p F-singularity tests on explicit polynomials.

Provides the Frobenius-power F-purity test for hypersurfaces, positive
F-regularity certificates via socle non-membership against Frobenius powers
of a parameter ideal (for graded and bigraded hypersurfaces), the graded
witness polynomial, and a seeded dense-form sampler.

Certificates are one-sided: a non-membership at some power q proves
F-regularity for forms satisfying the recorded hypotheses; exhausting the
tested powers yields "inconclusive", never "false".
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import asdict, dataclass, field

from .errors import (
    DegreeCapError,
    PreconditionError,
    RingContextError,
    check_integers,
)
from .exactalg import (
    MONOMIAL_CAP,
    MultiPoly,
    PolyRing,
    _monomial_count,
    _power,
    _truncated_normal_form,
    _var_power,
    exponent_vectors,
    groebner_basis,
    normal_form,
)
from .parsing import parse_polynomial

VERDICT_F_REGULAR = "f_regular"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_NOT_F_PURE = "not_f_pure"
VERDICT_NOT_F_REGULAR = "not_f_regular"

ASSUMPTION_REGULAR_LOCUS = (
    "the hypersurface is assumed regular after inverting the distinguished "
    "variables (not checked)"
)
ASSUMPTION_F_PURE = "F-purity verified by the Frobenius-power exclusion test"


@dataclass
class FrobeniusCertificate:
    """Outcome of an F-regularity membership search.

    A verdict of ``f_regular`` always carries the power ``q_used`` and the
    nonzero normal form that witnesses non-membership; rerunning the recorded
    computation must reproduce ``normal_form`` exactly.
    """

    verdict: str
    p: int
    m: int
    n: int
    degree: tuple[int, int] | tuple[int]
    q_used: int | None = None
    tested_powers: list[int] = field(default_factory=list)
    ideal_generators: list[str] = field(default_factory=list)
    socle: str | None = None
    normal_form: str | None = None
    assumptions: list[str] = field(default_factory=list)
    details: str | None = None

    def to_dict(self) -> dict:
        return asdict(self) | {"degree": list(self.degree)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def fedder_is_f_pure(f: MultiPoly) -> bool:
    """Fedder's criterion (Trans. AMS 278, 1983) for the hypersurface cut out
    by f over F_p, p the ring modulus: F-pure exactly when f^(p-1) lies
    outside (v^p : v each variable).

    That ideal is monomial, so membership is termwise: ``pow(f, p - 1, p)``,
    the image of f^(p-1) modulo it, is nonzero exactly when f is F-pure.  No
    Groebner basis is needed, and the power drops every term with an
    exponent >= p as soon as it appears.  Setting the variables outside a
    set V to 0 commutes with the power, (f|V)^(p-1) = (f^(p-1))|V, so a
    nonzero truncated power of a restriction already answers True.  The
    test tries the prefixes V = {x1..xk, y1..yl} in order of k + l, the
    whole ring last, and skips a restriction with no terms or with the
    terms of one already tried.  It skips k below the least x-degree of a
    term of f, since every term of f^(p-1) has x-degree at least p - 1
    times that and a term with all exponents below p on k x-variables has
    x-degree at most k(p - 1); likewise l and the y-degree."""
    if f.is_zero:
        raise PreconditionError("f must be nonzero")
    if not f.is_homogeneous():
        raise PreconditionError("f must be homogeneous")
    ring = f.ring
    p, m, n = ring.p, ring.m, ring.n
    k_min, l_min = map(min, zip(*f._bidegrees()))
    tried = set()
    for k, l in sorted(itertools.product(range(k_min, m + 1),
                                         range(l_min, n + 1)), key=sum):
        part = {mono: c for mono, c in f.terms.items()
                if not any(mono[k:m]) and not any(mono[m + l:])}
        key = frozenset(part)
        if part and key not in tried:
            tried.add(key)
            if _power(MultiPoly._raw(ring, part), p - 1, p)[1]:
                return True
    return False


def _distinguished(m: int, n: int, d: int, e: int) -> tuple:
    """Exponents of x1^d*y1^e; d (e) must be 0 when m (n) is."""
    return ((d,) + (0,) * m)[:m] + ((e,) + (0,) * n)[:n]


def _certificate(f: MultiPoly, d: int, e: int, m: int, n: int, p: int,
                 e_max: int) -> FrobeniusCertificate:
    """The certificate of both public functions; graded is the case n = 0,
    whose certificate records the degree (d,).

    Searches q = p, p^2, ..., p^e_max for a socle outside J_q, where
    J_q = (x1^q - y1^q (only when n >= 1), x2^q, ..., xm^q, y2^q, ..., yn^q,
    f) and the socle is x1^delta with delta = (d + e - 1) q + 1.  J_q is
    homogeneous, so the socle's remainder is read off a basis truncated at
    its degree; :func:`recheck_certificate` recomputes it as
    ``normal_form(socle, groebner_basis(gens))``."""
    check_integers("d e m n p", d, e, m, n, p)
    ring = f.ring
    # Past the bidegree check, n = 0 forces e = 0.
    graded = n == e == 0
    if ring.m != m or ring.n != n or ring.p != p:
        ys = "no y-variables" if n == 0 else f"n={n} y-variables"
        raise RingContextError(
            f"expected a ring with m={m} x-variables, {ys}, p={p}; "
            f"got {ring!r}"
        )
    if m < 1:
        raise PreconditionError(
            f"need m >= 1, since the socle is a power of x1: {m}")
    if d + e < 1:
        raise PreconditionError(f"need degree d >= 1: {d}" if graded else
                                f"need bidegree with d + e >= 1: ({d}, {e})")
    if not isinstance(e_max, int) or e_max < 1:
        raise PreconditionError(f"need an integer e_max >= 1: {e_max!r}")
    if f.is_zero or not f.is_bihomogeneous() or f.bidegree() != (d, e):
        raise PreconditionError(
            f"f must be homogeneous of degree {d}" if graded else
            f"f must be bihomogeneous of bidegree ({d}, {e})")
    certificate = functools.partial(FrobeniusCertificate, p=p, m=m, n=n,
                                    degree=(d,) if graded else (d, e))
    if d >= m or (n and e >= n):
        why = (f"the hypersurface has a-invariant d - m = {d - m} >= 0"
               if graded else "a negative multigraded a-invariant requires "
               f"d < m and e < n; got (d, e) = ({d}, {e})")
        return certificate(VERDICT_NOT_F_REGULAR,
                           details=f"not F-regular: {why}")
    # The socle argument needs the distinguished variables to stay a system
    # of parameters on the hypersurface, which the parameter-space
    # normalization (pure power present) guarantees.  Scaling f leaves the
    # ideal unchanged, so its coefficient is normalized to 1: the
    # distinguished monomial is the largest of f's (bi)degree in grevlex,
    # hence f's lead.
    if _distinguished(m, n, d, e) not in f.terms:
        label = "x1^d" if graded else "x1^d*y1^e"
        raise PreconditionError(
            f"the membership criterion needs {label} to occur in f with a "
            "nonzero coefficient"
        )
    f = f.monic()
    if not fedder_is_f_pure(f):
        return certificate(
            VERDICT_NOT_F_PURE,
            details="Frobenius-power exclusion test failed: the hypersurface "
                    "is not F-pure, hence not F-regular")
    assumptions = [ASSUMPTION_F_PURE, ASSUMPTION_REGULAR_LOCUS]
    tested: list[int] = []
    nvars = ring.nvars

    for power in range(1, e_max + 1):
        q = p ** power
        delta = (d + e - 1) * q + 1
        if delta > MONOMIAL_CAP:
            # Reducing the socle can take a step for every two degrees of
            # delta, so a socle of degree above the cap is refused.
            after = f" after inconclusive q in {tested}" if tested else ""
            raise DegreeCapError(
                f"the socle x1^{delta} at q={q} exceeds the monomial cap "
                f"{MONOMIAL_CAP}{after}")
        # x1^q - y1^q (y1 is variable m), then x2^q, ..., xm^q, y2^q, ...
        gens = ([MultiPoly._raw(ring, {_var_power(nvars, 0, q): 1,
                                       _var_power(nvars, m, q): p - 1})]
                if n else [])
        gens += [MultiPoly._raw(ring, {_var_power(nvars, i, q): 1})
                 for i in range(1, nvars) if i != m]
        gens.append(f)
        socle = MultiPoly._raw(ring, {_var_power(nvars, 0, delta): 1})
        remainder = _truncated_normal_form(socle, gens)
        tested.append(q)
        if remainder:
            return certificate(
                VERDICT_F_REGULAR, q_used=q, tested_powers=tested,
                ideal_generators=[str(g) for g in gens],
                socle=str(socle),
                normal_form=str(remainder),
                assumptions=assumptions,
                details=f"socle excluded from the Frobenius-power ideal at q={q}",
            )
    return certificate(
        VERDICT_INCONCLUSIVE, tested_powers=tested, assumptions=assumptions,
        details=f"socle contained in the Frobenius-power ideal for all "
                f"tested q up to p^{e_max}; no verdict",
    )


def f_regular_certificate_graded(f: MultiPoly, d: int, m: int, p: int,
                                 e_max: int = 4) -> FrobeniusCertificate:
    """F-regularity certificate for a degree-d hypersurface in m variables:
    search for a power q with x1^((d-1)q+1) outside (x2^q, ..., xm^q, f)."""
    return _certificate(f, d, 0, m, 0, p, e_max)


def f_regular_certificate_bigraded(f: MultiPoly, d: int, e: int, m: int,
                                   n: int, p: int,
                                   e_max: int = 4) -> FrobeniusCertificate:
    """F-regularity certificate for a bidegree-(d, e) hypersurface: search
    for q with x1^((d+e-1)q+1) outside
    (x1^q - y1^q, x2^q, ..., xm^q, y2^q, ..., yn^q, f).  With n = 0 this is
    the graded certificate."""
    return _certificate(f, d, e, m, n, p, e_max)


def recheck_certificate(cert: FrobeniusCertificate) -> bool:
    """Re-run a stored f_regular certificate's membership computation and
    compare the resulting normal form with the recorded one."""
    if cert.verdict != VERDICT_F_REGULAR:
        raise PreconditionError("only f_regular certificates can be rechecked")
    gens = [parse_polynomial(text, cert.m, cert.n, cert.p)
            for text in cert.ideal_generators]
    socle = parse_polynomial(cert.socle, cert.m, cert.n, cert.p)
    remainder = normal_form(socle, groebner_basis(gens))
    return str(remainder) == cert.normal_form


# ---------------------------------------------------------------------------
# The graded witness polynomial and the dense-form sampler.

def witness_graded(d: int, m: int, p: int) -> MultiPoly:
    """x1^d + x2*...*x_{d+1} in m variables over F_p."""
    check_integers("d m", d, m)
    if d < 1:
        raise PreconditionError(f"need d >= 1: {d}")
    if m < d + 1:
        raise PreconditionError(f"need m >= d + 1 variables: m={m}, d={d}")
    ring = PolyRing(p, m)
    return MultiPoly._raw(ring, {_var_power(m, 0, d): 1,
                                 (0,) + (1,) * d + (0,) * (m - d - 1): 1})


def random_biform(m: int, n: int, d: int, e: int, p: int, seed: int) -> MultiPoly:
    """Seeded dense form of bidegree (d, e): every monomial appears, the
    distinguished monomial x1^d*y1^e has coefficient 1, and all other
    coefficients are uniform in the nonzero residues.  Deterministic per seed.
    Non-integer m, n, d or e are refused with :class:`PreconditionError`
    before any work, and a form of more than ``MONOMIAL_CAP`` terms with
    :class:`DegreeCapError` before any coefficient is drawn.

    The form is built once, with the facts its construction fixes: its
    lead x1^d*y1^e, the grevlex-largest monomial of bidegree (d, e), comes
    first with coefficient 1 (``exponent_vectors`` yields it first), and
    its one bidegree is (d, e).  So ``leading_monomial()``, ``bidegree()``
    and ``monic()``, which returns the form itself, scan no term.
    """
    check_integers("m n d e", m, n, d, e)
    if m < 1 and d > 0:
        raise PreconditionError("d > 0 needs at least one x-variable")
    if n < 1 and e > 0:
        raise PreconditionError("e > 0 needs at least one y-variable")
    if d < 0 or e < 0 or d + e < 1:
        raise PreconditionError(f"bidegree must be >= 0 and not (0, 0): ({d}, {e})")
    ring = PolyRing(p, m, n)
    count = _monomial_count(d, m) * _monomial_count(e, n)
    if count > MONOMIAL_CAP:
        raise DegreeCapError(
            f"a dense form of bidegree ({d}, {e}) in {m} + {n} variables has "
            f"{count} terms, above the monomial cap {MONOMIAL_CAP}")
    draw = random.Random(seed).randrange
    ys = list(exponent_vectors(e, n))
    monos = (ex + ey for ex in exponent_vectors(d, m) for ey in ys)
    # The lead x1^d*y1^e comes first and draws no coefficient; every other
    # coefficient is drawn in 1..p-1, so the terms are already normalized.
    lead = next(monos)
    terms = {lead: 1}
    terms.update((mono, draw(1, p)) for mono in monos)
    return MultiPoly._raw(ring, terms, lead, frozenset({(d, e)}))
