"""Exact arithmetic kernel over prime fields.

Sparse multivariate polynomials in two blocks of variables (x1..xm, y1..yn),
Buchberger's algorithm, normal forms, ideal membership, and standard-monomial
counts (graded Hilbert functions), all under the one monomial order grevlex
(:func:`grevlex_key`).  Everything is exact: coefficients live in F_p and all
combinatorics use Python integers.

Monomials are plain exponent tuples of length ``m + n``; the x-block occupies
the first ``m`` positions.  All values are immutable after construction, so
every operation in this module is safe for concurrent use.
"""

from __future__ import annotations

import itertools
from math import comb

from .errors import (
    DegreeCapError,
    PreconditionError,
    RingContextError,
)

# Refuse enumerations whose ambient monomial count exceeds this.
MONOMIAL_CAP = 10_000_000


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The field F_p for a prime p with 2 <= p < 2**31."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise PreconditionError(f"modulus must be an integer in [2, 2^31): {p!r}")
        if not _is_prime(p):
            raise PreconditionError(f"modulus must be prime: {p}")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a prime field")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# Monomials: exponent tuples.

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def mono_quot(b, a):
    """Exponent vector of b / a; assumes a divides b."""
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def grevlex_key(exps):
    """Sort key of the graded reverse lexicographic order; max picks the lead.

    Variable precedence is the index order x1 > ... > xm > y1 > ... > yn.
    """
    return (sum(exps), tuple(-e for e in reversed(exps)))


class PolyRing:
    """The ring F_p[x1..xm, y1..yn] with deg x_i = (1,0) and deg y_j = (0,1).

    ``n`` may be zero for a single-block (ordinary graded) polynomial ring.
    """

    __slots__ = ("field", "m", "n")

    def __init__(self, p, m: int, n: int = 0):
        self.field = p if isinstance(p, PrimeField) else PrimeField(p)
        if m < 0 or n < 0 or m + n < 1:
            raise PreconditionError(f"need m, n >= 0 with m + n >= 1: m={m}, n={n}")
        self.m = m
        self.n = n

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def nvars(self) -> int:
        return self.m + self.n

    def var_name(self, idx: int) -> str:
        if idx < self.m:
            return f"x{idx + 1}"
        return f"y{idx - self.m + 1}"

    def zero(self) -> "MultiPoly":
        return MultiPoly._raw(self, {})

    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, c: int) -> "MultiPoly":
        c %= self.p
        if c == 0:
            return self.zero()
        return MultiPoly._raw(self, {(0,) * self.nvars: c})

    def gen(self, idx: int) -> "MultiPoly":
        exps = tuple(1 if i == idx else 0 for i in range(self.nvars))
        return MultiPoly._raw(self, {exps: 1})

    def gens(self):
        return tuple(self.gen(i) for i in range(self.nvars))

    def x(self, i: int) -> "MultiPoly":
        """The variable x_i, 1-based."""
        if not 1 <= i <= self.m:
            raise PreconditionError(f"x{i} is not a variable of {self!r}")
        return self.gen(i - 1)

    def y(self, j: int) -> "MultiPoly":
        """The variable y_j, 1-based."""
        if not 1 <= j <= self.n:
            raise PreconditionError(f"y{j} is not a variable of {self!r}")
        return self.gen(self.m + j - 1)

    def poly(self, terms: dict) -> "MultiPoly":
        """Build a polynomial from a {exponent tuple: coefficient} map."""
        return MultiPoly(self, terms)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.m == self.m
            and other.n == self.n
        )

    def __hash__(self):
        return hash(("PolyRing", self.p, self.m, self.n))

    def __repr__(self):
        return f"PolyRing(p={self.p}, m={self.m}, n={self.n})"


class MultiPoly:
    """Immutable sparse polynomial over a :class:`PolyRing`.

    ``terms`` maps exponent tuples to nonzero residues in 1..p-1.  Instances
    must be treated as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        normalized = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != ring.nvars or any(e < 0 for e in exps):
                raise PreconditionError(f"bad exponent vector {exps!r} for {ring!r}")
            c %= ring.p
            if c:
                normalized[exps] = c
        self.ring = ring
        self.terms = normalized

    @staticmethod
    def _raw(ring: PolyRing, terms: dict) -> "MultiPoly":
        # Internal fast path: terms already normalized.
        obj = object.__new__(MultiPoly)
        obj.ring = ring
        obj.terms = terms
        return obj

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Maximum total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def _bidegrees(self):
        m = self.ring.m
        return {(sum(e[:m]), sum(e[m:])) for e in self.terms}

    def is_bihomogeneous(self) -> bool:
        return len(self._bidegrees()) <= 1

    def bidegree(self):
        """The common (x-degree, y-degree) of all terms."""
        degs = self._bidegrees()
        if len(degs) != 1:
            raise PreconditionError("polynomial is zero or not bihomogeneous")
        return next(iter(degs))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise RingContextError(
                    f"mixed ring contexts: {self.ring!r} vs {other.ring!r}"
                )
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ring.p
        out = dict(self.terms)
        for exps, c in other.terms.items():
            v = (out.get(exps, 0) + c) % p
            if v:
                out[exps] = v
            elif exps in out:
                del out[exps]
        return MultiPoly._raw(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return MultiPoly._raw(self.ring, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ring.p
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = mono_mul(ea, eb)
                v = (out.get(exps, 0) + ca * cb) % p
                if v:
                    out[exps] = v
                elif exps in out:
                    del out[exps]
        return MultiPoly._raw(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise PreconditionError(f"exponent must be a nonnegative integer: {k!r}")
        t = len(self.terms)
        # The power has at most comb(t + k - 1, k) terms (multisets of k
        # terms) and at most comb(k * deg + nvars, nvars) (monomials of
        # degree <= k * deg); refuse up front when both exceed the cap.
        if t >= 2:
            nv = self.ring.nvars
            if (comb(k * self.total_degree() + nv, nv) > MONOMIAL_CAP
                    and comb(t + k - 1, k) > MONOMIAL_CAP):
                raise DegreeCapError(
                    f"power {k} of a {t}-term polynomial may exceed the "
                    f"monomial cap {MONOMIAL_CAP}"
                )
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def mul_monomial(self, exps, coeff: int = 1) -> "MultiPoly":
        """Multiply by ``coeff * monomial(exps)`` (fast path for reduction)."""
        p = self.ring.p
        coeff %= p
        if coeff == 0:
            return self.ring.zero()
        return MultiPoly._raw(
            self.ring,
            {mono_mul(e, exps): (c * coeff) % p for e, c in self.terms.items()},
        )

    # -- grevlex views ------------------------------------------------------

    def leading_monomial(self):
        if not self.terms:
            raise PreconditionError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def monic(self) -> "MultiPoly":
        lc = self.terms[self.leading_monomial()]
        if lc == 1:
            return self
        return self.mul_monomial((0,) * self.ring.nvars, self.ring.field.inv(lc))

    # -- comparisons and printing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return other.ring == self.ring and other.terms == self.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mon in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[mon]
            factors = []
            for idx, e in enumerate(mon):
                if e == 0:
                    continue
                name = self.ring.var_name(idx)
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return str(self)


# ---------------------------------------------------------------------------
# Division and Buchberger's algorithm.

def _common_ring(polys) -> PolyRing:
    rings = {f.ring for f in polys}
    if len(rings) != 1:
        raise RingContextError(f"mixed ring contexts: {sorted(map(repr, rings))}")
    return next(iter(rings))


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """The S-polynomial of f and g (cancels the leading terms)."""
    _common_ring([f, g])
    field = f.ring.field
    ltf = f.leading_monomial()
    ltg = g.leading_monomial()
    lcm = mono_lcm(ltf, ltg)
    a = f.mul_monomial(mono_quot(lcm, ltf), field.inv(f.terms[ltf]))
    b = g.mul_monomial(mono_quot(lcm, ltg), field.inv(g.terms[ltg]))
    return a - b


def normal_form(f: MultiPoly, gb) -> MultiPoly:
    """Remainder of f under full reduction modulo the polynomial list ``gb``.

    When ``gb`` is a grevlex Groebner basis, the result is the unique normal
    form: no term of it is divisible by any leading monomial of ``gb``.
    """
    gb = list(gb)
    if gb:
        ring = _common_ring([f, *gb])
    else:
        return f
    if any(g.is_zero for g in gb):
        raise PreconditionError("zero polynomial in the reducer list")
    p = ring.p
    reducers = []
    for g in gb:
        lt = g.leading_monomial()
        reducers.append((lt, ring.field.inv(g.terms[lt]), g))
    work = dict(f.terms)
    remainder: dict = {}
    while work:
        u = max(work, key=grevlex_key)
        c = work.pop(u)
        hit = None
        for lt, lcinv, g in reducers:
            if mono_divides(lt, u):
                hit = (lt, lcinv, g)
                break
        if hit is None:
            remainder[u] = c
            continue
        lt, lcinv, g = hit
        shift = mono_quot(u, lt)
        factor = (c * lcinv) % p
        for mon, cc in g.terms.items():
            if mon == lt:
                continue
            mm = mono_mul(mon, shift)
            v = (work.get(mm, 0) - factor * cc) % p
            if v:
                work[mm] = v
            elif mm in work:
                del work[mm]
    return MultiPoly._raw(ring, remainder)


def _poly_key(f: MultiPoly):
    return (grevlex_key(f.leading_monomial()), sorted(f.terms.items()))


def _chain_skip(i: int, j: int, lcm_ij, lead_monomials, pending) -> bool:
    # Buchberger's chain criterion: skip (i, j) when some other basis element
    # divides the lcm and both mixed pairs were already handled.
    for t in range(len(lead_monomials)):
        if t == i or t == j:
            continue
        if mono_divides(lead_monomials[t], lcm_ij):
            a = (min(i, t), max(i, t))
            b = (min(j, t), max(j, t))
            if a not in pending and b not in pending:
                return True
    return False


def groebner_basis(gens):
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Deterministic: the output is the reduced basis sorted by leading monomial,
    so it does not depend on the order of the input generators.  Pair
    processing uses the normal selection strategy with the coprimality and
    chain criteria.
    """
    gens = list(gens)
    if not gens:
        return []
    ring = _common_ring(gens)
    if any(g.is_zero for g in gens):
        raise PreconditionError("zero polynomial among the ideal generators")

    basis = []
    seen = set()
    for g in sorted((g.monic() for g in gens), key=_poly_key):
        fp = frozenset(g.terms.items())
        if fp not in seen:
            seen.add(fp)
            basis.append(g)
    lead = [g.leading_monomial() for g in basis]

    pending = {}
    for j in range(len(basis)):
        for i in range(j):
            pending[(i, j)] = mono_lcm(lead[i], lead[j])

    while pending:
        i, j = min(pending, key=lambda ij: (grevlex_key(pending[ij]), ij))
        lcm_ij = pending.pop((i, j))
        if lcm_ij == mono_mul(lead[i], lead[j]):
            continue  # coprime leading monomials
        if _chain_skip(i, j, lcm_ij, lead, pending):
            continue
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if r.is_zero:
            continue
        r = r.monic()
        new = len(basis)
        basis.append(r)
        lt = r.leading_monomial()
        for t in range(new):
            pending[(t, new)] = mono_lcm(lead[t], lt)
        lead.append(lt)

    # Minimalize: drop elements whose lead is divisible by another kept lead.
    kept = []
    for t in sorted(range(len(basis)), key=lambda t: grevlex_key(lead[t])):
        if not any(mono_divides(lead[u], lead[t]) for u in kept):
            kept.append(t)
    minimal = [basis[t] for t in kept]

    # Interreduce tails for the unique reduced basis.
    reduced = []
    for a, g in enumerate(minimal):
        others = reduced + minimal[a + 1:]
        reduced.append(normal_form(g, others).monic())
    reduced.sort(key=lambda f: grevlex_key(f.leading_monomial()))
    return reduced


def ideal_contains(gens, f: MultiPoly) -> bool:
    """Exact ideal membership: f in (gens)?  Via normal form modulo a GB."""
    if f.is_zero:
        return True
    _common_ring([f, *gens])
    return normal_form(f, groebner_basis(gens)).is_zero


# ---------------------------------------------------------------------------
# Standard-monomial counting (Hilbert functions).

def exponent_vectors(total: int, length: int):
    """Yield all exponent tuples of the given length summing to ``total``."""
    if total < 0:
        return
    if length == 0:
        if total == 0:
            yield ()
        return
    if length == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in exponent_vectors(total - first, length - 1):
            yield (first,) + rest


def _ambient_count(ring: PolyRing, degree) -> int:
    if isinstance(degree, int):
        if degree < 0:
            return 0
        return comb(degree + ring.nvars - 1, ring.nvars - 1)
    a, b = degree
    if a < 0 or b < 0:
        return 0
    if ring.m == 0 and a > 0:
        return 0
    if ring.n == 0 and b > 0:
        return 0
    ca = comb(a + ring.m - 1, ring.m - 1) if ring.m else 1
    cb = comb(b + ring.n - 1, ring.n - 1) if ring.n else 1
    return ca * cb


def standard_monomial_count(gb, degree, *, ring: PolyRing | None = None) -> int:
    """Count monomials of the given degree outside the initial ideal of ``gb``.

    ``degree`` selects a graded piece: an integer means total degree, a pair
    ``(a, b)`` means bidegree over the x/y blocks.  When ``gb`` is a Groebner
    basis of a homogeneous ideal w.r.t. the selector, the count equals the
    K-dimension of that graded piece of the quotient ring.  ``ring`` is
    required when ``gb`` is empty.
    """
    gb = list(gb)
    if gb:
        ring = _common_ring(gb) if ring is None else ring
        if ring != gb[0].ring:
            raise RingContextError("explicit ring disagrees with the basis ring")
    elif ring is None:
        raise PreconditionError("ring is required when the basis is empty")

    bigraded = not isinstance(degree, int)
    for g in gb:
        if g.is_zero:
            raise PreconditionError("zero polynomial in the basis")
        if bigraded and not g.is_bihomogeneous():
            raise PreconditionError(f"basis element not bihomogeneous: {g}")
        if not bigraded and not g.is_homogeneous():
            raise PreconditionError(f"basis element not homogeneous: {g}")

    ambient = _ambient_count(ring, degree)
    if ambient == 0:
        return 0
    if ambient > MONOMIAL_CAP:
        raise DegreeCapError(
            f"ambient monomial count {ambient} exceeds the cap {MONOMIAL_CAP}"
        )

    leads = [g.leading_monomial() for g in gb]
    if bigraded:
        a, b = degree
        monos = (ex + ey for ex, ey in itertools.product(
            exponent_vectors(a, ring.m), exponent_vectors(b, ring.n)))
    else:
        monos = exponent_vectors(degree, ring.nvars)
    return sum(1 for mono in monos
               if not any(mono_divides(lt, mono) for lt in leads))


def power_ideal_gens(gens, r: int):
    """Generators of I^r: all degree-r products of ``gens``, deduplicated."""
    gens = list(gens)
    if r < 1:
        raise PreconditionError(f"power must be >= 1: {r}")
    if not gens:
        return []
    _common_ring(gens)
    out = []
    seen = set()
    for combo in itertools.combinations_with_replacement(range(len(gens)), r):
        prod = gens[combo[0]]
        for idx in combo[1:]:
            prod = prod * gens[idx]
        fp = frozenset(prod.terms.items())
        if fp not in seen:
            seen.add(fp)
            out.append(prod)
    return out


# ---------------------------------------------------------------------------
# Dimension of the initial ideal; regular-sequence certification.

def initial_ideal_dimension(gb, *, ring: PolyRing | None = None) -> int:
    """Krull dimension of R/in(I) for the Groebner basis ``gb`` of I.

    Computed combinatorially: the largest size of a variable subset S such
    that no leading monomial is supported inside S.  Returns -1 for the unit
    ideal and ``nvars`` for the zero ideal.
    """
    gb = list(gb)
    if gb:
        ring = _common_ring(gb) if ring is None else ring
    elif ring is None:
        raise PreconditionError("ring is required when the basis is empty")
    nv = ring.nvars
    supports = [frozenset(i for i, e in enumerate(g.leading_monomial()) if e)
                for g in gb]
    if any(not s for s in supports):
        return -1  # a unit leading term: the whole ring
    for size in range(nv, -1, -1):
        for subset in itertools.combinations(range(nv), size):
            chosen = set(subset)
            if all(not s <= chosen for s in supports):
                return size
    return -1


def is_regular_sequence(gens) -> bool:
    """Certify that homogeneous ``gens`` form a regular sequence.

    Exact criterion in a polynomial ring: s homogeneous forms of positive
    degree are a regular sequence iff the quotient has Krull dimension
    nvars - s, read off the initial ideal.
    """
    gens = list(gens)
    if not gens:
        raise PreconditionError("empty generator list")
    ring = _common_ring(gens)
    for g in gens:
        if g.is_zero or not g.is_homogeneous() or g.total_degree() < 1:
            raise PreconditionError(
                "generators must be homogeneous of positive degree"
            )
    if len(gens) > ring.nvars:
        return False
    gb = groebner_basis(gens)
    return initial_ideal_dimension(gb) == ring.nvars - len(gens)
