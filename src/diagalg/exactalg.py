"""Exact arithmetic kernel over F_p.

Sparse multivariate polynomials in two blocks of variables (x1..xm, y1..yn),
Buchberger's algorithm, normal forms, ideal membership, and standard-monomial
counts (graded Hilbert functions), all under the one monomial order grevlex
(:func:`grevlex_key`).  Everything is exact: coefficients are residues
modulo the prime ``PolyRing.p`` (inverses are ``pow(c, -1, p)``) and all
combinatorics use Python integers.

Monomials are plain exponent tuples of length ``m + n`` at the API
(``MultiPoly.terms``, printing, parsing, every signature); the x-block
occupies the first ``m`` positions.  Inside the kernel (``normal_form``,
``s_polynomial``, ``groebner_basis`` and ``_truncated_power``) each monomial is
one Python integer (:class:`_Packing`).  From the most significant end it
holds 2 * (m + n) fields of equal width: the total degree, the prefix sums
e0 + ... + ek for k = m + n - 2 down to 0, then the exponents, each exponent
field with a guard bit on top.  So grevlex is integer order, multiplying
monomials is adding integers, and divisibility is one subtraction and one
mask.  The width comes from the call's degree bound: the degree of f in
``normal_form`` (reduction never raises it), of the lcm in
``s_polynomial``, and of the power in ``_truncated_power``; ``groebner_basis``
starts from twice its top input degree and widens when a pair's lcm
outgrows the fields.

All values are immutable after construction, so every operation in this
module is safe for concurrent use.
"""

from __future__ import annotations

import itertools
import operator
from heapq import heapify, heappop, heappush
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


# ---------------------------------------------------------------------------
# Monomials: exponent tuples at the API, packed integers inside the kernel.

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def grevlex_key(exps):
    """Sort key of the graded reverse lexicographic order; max picks the lead.

    Variable precedence is the index order x1 > ... > xm > y1 > ... > yn.
    """
    return (sum(exps), tuple(-e for e in reversed(exps)))


class _Packing:
    """Monomials of total degree at most ``limit`` in ``nvars`` variables,
    each packed into one integer with the field layout of the module
    docstring.  Every field value is at most the total degree, and ``limit``
    = 2^(width-1) - 1 keeps the top bit of each exponent field, its guard
    bit, clear.  So:

    - integer order is grevlex (the degree and prefix sums decide it);
    - multiplying monomials is adding their packed forms (no field carries
      while the product's degree stays within ``limit``);
    - u divides v exactly when d = v - u has d >= 0 and ``not d & guard``:
      the lowest exponent field with v < u borrows and sets its guard bit.
    """

    __slots__ = ("width", "limit", "ones", "guard", "_weights", "_shifts")

    def __init__(self, nvars: int, degree: int):
        width = max(degree, 0).bit_length() + 1
        self.width = width
        self.limit = (1 << (width - 1)) - 1
        # A 1 at the bottom of every exponent field; exponent k sits in
        # field nvars - 1 - k and prefix sum k in field nvars + k.
        self.ones = sum(1 << (width * k) for k in range(nvars))
        self.guard = self.ones << (width - 1)
        self._shifts = [width * (nvars - 1 - k) for k in range(nvars)]
        self._weights = [
            (1 << shift) + sum(1 << (width * (nvars + j)) for j in range(k, nvars))
            for k, shift in enumerate(self._shifts)
        ]

    def pack(self, exps) -> int:
        return sum(map(operator.mul, exps, self._weights))

    def unpack(self, v: int) -> tuple:
        mask = (1 << self.width) - 1
        return tuple(v >> shift & mask for shift in self._shifts)

    def divides(self, u: int, v: int) -> bool:
        d = v - u
        return d >= 0 and not d & self.guard

    def pack_terms(self, terms: dict) -> dict:
        return {self.pack(exps): c for exps, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        return {self.unpack(v): c for v, c in terms.items()}


class PolyRing:
    """The ring F_p[x1..xm, y1..yn] with deg x_i = (1,0) and deg y_j = (0,1).

    ``p`` is a prime with 2 <= p < 2**31.  ``n`` may be zero for a
    single-block (ordinary graded) polynomial ring.
    """

    __slots__ = ("p", "m", "n")

    def __init__(self, p: int, m: int, n: int = 0):
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise PreconditionError(f"modulus must be an integer in [2, 2^31): {p!r}")
        if not _is_prime(p):
            raise PreconditionError(f"modulus must be prime: {p}")
        if m < 0 or n < 0 or m + n < 1:
            raise PreconditionError(f"need m, n >= 0 with m + n >= 1: m={m}, n={n}")
        self.p = p
        self.m = m
        self.n = n

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
            and other.p == self.p
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
        _check_power(self, k)
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- grevlex views ------------------------------------------------------

    def leading_monomial(self):
        if not self.terms:
            raise PreconditionError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def monic(self) -> "MultiPoly":
        lc = self.terms[self.leading_monomial()]
        if lc == 1:
            return self
        p = self.ring.p
        inv = pow(lc, -1, p)
        return MultiPoly._raw(self.ring,
                              {e: c * inv % p for e, c in self.terms.items()})

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
# Powers.

def _check_power(f: MultiPoly, k: int) -> None:
    """Refuse f^k before computing it when it may outgrow the monomial cap.

    The power has at most comb(t + k - 1, k) terms (multisets of k of f's t
    terms) and at most comb(k * deg + nvars, nvars) (monomials of degree
    <= k * deg); refuse when both exceed the cap.
    """
    if not isinstance(k, int) or k < 0:
        raise PreconditionError(f"exponent must be a nonnegative integer: {k!r}")
    t = len(f.terms)
    if t >= 2:
        nv = f.ring.nvars
        if (comb(k * f.total_degree() + nv, nv) > MONOMIAL_CAP
                and comb(t + k - 1, k) > MONOMIAL_CAP):
            raise DegreeCapError(
                f"power {k} of a {t}-term polynomial may exceed the "
                f"monomial cap {MONOMIAL_CAP}"
            )


def _truncated_power(f: MultiPoly, k: int, q: int) -> MultiPoly:
    """f^k with every term that has an exponent >= q dropped: its image
    modulo the monomial ideal (v^q : v each variable), for q >= 1.

    Computed by square and multiply on packed monomials, dropping such terms
    as soon as they appear, which is exact: every product with such a term
    has one too.  Refused by the same monomial cap as ``f ** k``.
    """
    _check_power(f, k)
    ring = f.ring
    p = ring.p
    packing = _Packing(ring.nvars, max(k * f.total_degree(), q))
    # Adding 2^(width-1) - q to every exponent field sets the field's guard
    # bit exactly when the exponent is >= q.
    bias = ((packing.limit + 1) - q) * packing.ones
    guard = packing.guard

    def mul(a, b):
        out = {}
        get = out.get
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                if not (m + bias) & guard:
                    out[m] = get(m, 0) + ca * cb
        return {m: v for m, c in out.items() if (v := c % p)}

    base = {m: c for m, c in packing.pack_terms(f.terms).items()
            if not (m + bias) & guard}
    result = {0: 1}  # the constant 1 packs to 0
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return MultiPoly._raw(ring, packing.unpack_terms(result))


# ---------------------------------------------------------------------------
# Division and Buchberger's algorithm.

def _common_ring(polys) -> PolyRing:
    rings = {f.ring for f in polys}
    if len(rings) != 1:
        raise RingContextError(f"mixed ring contexts: {sorted(map(repr, rings))}")
    return next(iter(rings))


def _reducer(terms: dict, p: int):
    """A packed polynomial as (leading monomial, inverse of the leading
    coefficient mod p, other terms as (monomial, coefficient) pairs)."""
    lt = max(terms)
    return lt, pow(terms[lt], -1, p), [(m, c) for m, c in terms.items() if m != lt]


def _s_poly(a, b, lcm: int, p: int) -> dict:
    # Packed S-polynomial of the reducers a and b whose leads divide lcm:
    # the leading terms cancel, so only the tails are shifted.
    lta, inva, taila = a
    ltb, invb, tailb = b
    sa, sb = lcm - lta, lcm - ltb
    out = {m + sa: c * inva % p for m, c in taila}
    for m, c in tailb:
        m += sb
        v = (out.get(m, 0) - c * invb) % p
        if v:
            out[m] = v
        else:
            del out[m]
    return out


def _reduce(work: dict, reducers, guard: int, p: int) -> dict:
    """Remainder of the packed polynomial ``work`` (consumed) under full
    reduction by ``reducers``, as {monomial: coefficient} in descending order.

    Each step takes the largest remaining term and reduces it by the first
    reducer whose lead divides it.  A max-heap holds every monomial of
    ``work`` once, so that term is found in logarithmic time.  Coefficients
    are reduced mod p only when popped; a term that cancelled is skipped
    then (lazy deletion).  A popped monomial never comes back, because every
    term a step adds is smaller than the one it removes.
    """
    heap = [-u for u in work]
    heapify(heap)
    pop, push, get = heappop, heappush, work.get
    remainder = {}
    while heap:
        u = -pop(heap)
        c = work.pop(u) % p
        if not c:
            continue
        for lt, lcinv, tail in reducers:
            shift = u - lt
            if shift >= 0 and not shift & guard:
                break
        else:
            remainder[u] = c
            continue
        factor = p - c * lcinv % p
        for mon, cc in tail:
            mm = mon + shift
            v = get(mm)
            if v is None:
                work[mm] = factor * cc
                push(heap, -mm)
            else:
                work[mm] = v + factor * cc
    return remainder


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """The S-polynomial of f and g (cancels the leading terms)."""
    ring = _common_ring([f, g])
    lcm = tuple(map(max, f.leading_monomial(), g.leading_monomial()))
    packing = _Packing(ring.nvars, sum(lcm))
    a = _reducer(packing.pack_terms(f.terms), ring.p)
    b = _reducer(packing.pack_terms(g.terms), ring.p)
    return MultiPoly._raw(
        ring, packing.unpack_terms(_s_poly(a, b, packing.pack(lcm), ring.p)))


def normal_form(f: MultiPoly, gb) -> MultiPoly:
    """Remainder of f under full reduction modulo the polynomial list ``gb``.

    Each step reduces the largest remaining term by the first element of
    ``gb`` whose leading monomial divides it.  When ``gb`` is a grevlex
    Groebner basis, the result is the unique normal form: no term of it is
    divisible by any leading monomial of ``gb``.
    """
    gb = list(gb)
    if gb:
        ring = _common_ring([f, *gb])
    else:
        return f
    if any(g.is_zero for g in gb):
        raise PreconditionError("zero polynomial in the reducer list")
    # Reduction never raises the degree, so a reducer of higher degree than
    # f divides no term it meets.
    top = f.total_degree()
    packing = _Packing(ring.nvars, top)
    reducers = [_reducer(packing.pack_terms(g.terms), ring.p)
                for g in gb if g.total_degree() <= top]
    remainder = _reduce(packing.pack_terms(f.terms), reducers, packing.guard,
                        ring.p)
    return MultiPoly._raw(ring, packing.unpack_terms(remainder))


def _poly_key(f: MultiPoly):
    return (grevlex_key(f.leading_monomial()), sorted(f.terms.items()))


def _chain_skip(i: int, j: int, lcm_ij: int, basis, pending, packing) -> bool:
    # Buchberger's chain criterion: skip (i, j) when some other basis element
    # divides the lcm and both mixed pairs were already handled.
    for t, (lt, _, _) in enumerate(basis):
        if t == i or t == j:
            continue
        if packing.divides(lt, lcm_ij):
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
    chain criteria.  The generators are packed once (see :class:`_Packing`);
    the fields widen when a pair's lcm outgrows them.
    """
    gens = list(gens)
    if not gens:
        return []
    ring = _common_ring(gens)
    if any(g.is_zero for g in gens):
        raise PreconditionError("zero polynomial among the ideal generators")
    p = ring.p

    inputs = []
    seen = set()
    for g in sorted((g.monic() for g in gens), key=_poly_key):
        fp = frozenset(g.terms.items())
        if fp not in seen:
            seen.add(fp)
            inputs.append(g)
    # Twice the top degree bounds the lcm of every pair of inputs.
    packing = _Packing(ring.nvars, 2 * max(g.total_degree() for g in inputs))
    basis = []     # monic reducers (lead, 1, tail) in insertion order
    leads = []     # their leading exponent tuples, for the pair lcms
    heap = []      # (packed lcm, i, j) of every pending pair
    pending = set()

    def include(g):
        nonlocal packing
        new = len(basis)
        lt = packing.unpack(g[0])
        lcms = [tuple(map(max, e, lt)) for e in leads]
        top = max(map(sum, lcms), default=0)
        if top > packing.limit:
            # Widen the fields.  Repacking keeps the order of packed values,
            # so the heap stays a heap.
            old, packing = packing, _Packing(ring.nvars, 2 * top)

            def move(m):
                return packing.pack(old.unpack(m))

            basis[:] = [(move(lm), 1, [(move(m), c) for m, c in tail])
                        for lm, _, tail in basis]
            heap[:] = [(move(lcm), i, j) for lcm, i, j in heap]
            g = (move(g[0]), 1, [(move(m), c) for m, c in g[2]])
        basis.append(g)
        leads.append(lt)
        for t, lcm in enumerate(lcms):
            heappush(heap, (packing.pack(lcm), t, new))
            pending.add((t, new))

    for g in inputs:
        include(_reducer(packing.pack_terms(g.terms), p))
    while heap:
        lcm_ij, i, j = heappop(heap)
        pending.remove((i, j))
        if lcm_ij == basis[i][0] + basis[j][0]:
            continue  # coprime leading monomials
        if _chain_skip(i, j, lcm_ij, basis, pending, packing):
            continue
        r = _reduce(_s_poly(basis[i], basis[j], lcm_ij, p), basis,
                    packing.guard, p)
        if r:
            terms = iter(r.items())  # descending: the lead comes first
            lt, lc = next(terms)
            inv = pow(lc, -1, p)
            include((lt, 1, [(m, c * inv % p) for m, c in terms]))

    # Minimalize: drop elements whose lead is divisible by another kept lead.
    kept = []
    for g in sorted(basis, key=lambda g: g[0]):
        if not any(packing.divides(u[0], g[0]) for u in kept):
            kept.append(g)

    # Interreduce tails for the unique reduced basis, still sorted by lead;
    # the leads are mutually indivisible, so each keeps coefficient 1.
    reduced = []
    for a, (lt, _, tail) in enumerate(kept):
        tail = _reduce(dict(tail), reduced + kept[a + 1:], packing.guard, p)
        reduced.append((lt, 1, list(tail.items())))
    return [MultiPoly._raw(ring, packing.unpack_terms(dict([(lt, 1), *tail])))
            for lt, _, tail in reduced]


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
