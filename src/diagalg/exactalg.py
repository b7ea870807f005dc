"""Exact arithmetic kernel over F_p.

Sparse multivariate polynomials in two blocks of variables (x1..xm, y1..yn),
powers modulo (v^q : v each variable), Buchberger's algorithm, normal forms
and standard-monomial counts (graded Hilbert functions), all under the one
monomial order grevlex (:func:`grevlex_key`).  Everything is exact: coefficients are residues
modulo the prime ``PolyRing.p`` (inverses are ``pow(c, -1, p)``) and all
combinatorics use Python integers.

Monomials are plain exponent tuples of length ``m + n`` at the API
(``MultiPoly.terms``, printing, parsing, every signature); the x-block
occupies the first ``m`` positions.  Inside the kernel (products and powers,
``normal_form``, ``s_polynomial`` and ``groebner_basis``) each monomial is
one Python integer (:class:`_Packing`).  From the most significant end it
holds 2 * (m + n) fields of equal width: the total degree, the prefix sums
e0 + ... + ek for k = m + n - 2 down to 0, then the exponents, each exponent
field with a guard bit on top.  So grevlex is integer order, multiplying
monomials is adding integers, and divisibility is one subtraction and one
mask.  The width comes from the call's degree bound: the sum of the
factors' degrees in ``*``, the degree of f in ``normal_form`` (reduction
never raises it), of the lcm in ``s_polynomial``, and of the power (or q,
if larger) in ``__pow__``;
``groebner_basis`` starts from twice its top input degree and widens when a
pair's lcm outgrows the fields.

All values are immutable after construction, so every operation in this
module is safe for concurrent use.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import comb

from .errors import (
    DegreeCapError,
    PreconditionError,
    RingContextError,
)

# Refuse products that would form more candidate monomials than this.
MONOMIAL_CAP = 10_000_000


def _check_product(ta: int, tb: int) -> None:
    # A product of a ta-term by a tb-term polynomial forms ta * tb monomials.
    if ta * tb > MONOMIAL_CAP:
        raise DegreeCapError(f"a product of {ta} by {tb} terms exceeds the "
                             f"monomial cap {MONOMIAL_CAP}")


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
        ones = ((1 << (width * nvars)) - 1) // ((1 << width) - 1)
        self.ones = ones
        self.guard = ones << (width - 1)
        self._shifts = [width * (nvars - 1 - k) for k in range(nvars)]
        # Exponent k adds 1 to its own field and to prefix sums k..nvars-1.
        self._weights = [
            (1 << shift) + (ones >> (width * k) << (width * (nvars + k)))
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


def _mul(a: dict, b: dict, p: int, bias: int, guard: int) -> dict:
    """Product of the packed polynomials a and b (see :class:`_Packing`)
    without the monomials u that have ``(u + bias) & guard`` set; a guard
    of 0 keeps them all."""
    _check_product(len(a), len(b))
    out = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            if not (m + bias) & guard:
                out[m] = get(m, 0) + ca * cb
    return {m: v for m, c in out.items() if (v := c % p)}


@dataclass(frozen=True, slots=True)
class PolyRing:
    """The ring F_p[x1..xm, y1..yn] with deg x_i = (1,0) and deg y_j = (0,1).

    ``p`` is a prime with 2 <= p < 2**31.  ``n`` may be zero for a
    single-block (ordinary graded) polynomial ring.
    """

    p: int
    m: int
    n: int = 0

    def __post_init__(self):
        p, m, n = self.p, self.m, self.n
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise PreconditionError(f"modulus must be an integer in [2, 2^31): {p!r}")
        if not _is_prime(p):
            raise PreconditionError(f"modulus must be prime: {p}")
        if m < 0 or n < 0 or m + n < 1:
            raise PreconditionError(f"need m, n >= 0 with m + n >= 1: m={m}, n={n}")

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
        packing = _Packing(self.ring.nvars,
                           self.total_degree() + other.total_degree())
        product = _mul(packing.pack_terms(self.terms),
                       packing.pack_terms(other.terms), self.ring.p, 0, 0)
        return MultiPoly._raw(self.ring, packing.unpack_terms(product))

    __rmul__ = __mul__

    def __pow__(self, k: int, q: int | None = None):
        """f ** k, or with ``q`` (``pow(f, k, q)``) the image of f^k modulo
        the monomial ideal (v^q : v each variable): f^k without its terms
        that have an exponent >= q.

        Computed by square and multiply on packed monomials, dropping such
        terms as soon as they appear, which is exact: every product with
        such a term has one too.  f^k has at most comb(t + k - 1, k) terms
        (multisets of k of f's t terms) and at most comb(k * deg + nvars,
        nvars) (monomials of degree <= k * deg); it is refused before any
        work when both exceed the monomial cap, with or without ``q``.  Like
        ``*``, each product it forms is refused when it would form more
        candidate monomials than the cap.
        """
        if not isinstance(k, int) or k < 0:
            raise PreconditionError(f"exponent must be a nonnegative integer: {k!r}")
        ring = self.ring
        t, nv = len(self.terms), ring.nvars
        top = k * self.total_degree()
        if (t >= 2 and comb(top + nv, nv) > MONOMIAL_CAP
                and comb(t + k - 1, k) > MONOMIAL_CAP):
            raise DegreeCapError(
                f"power {k} of a {t}-term polynomial may exceed the "
                f"monomial cap {MONOMIAL_CAP}"
            )
        if q is not None and (not isinstance(q, int) or q < 1):
            raise PreconditionError(f"q must be an integer >= 1: {q!r}")
        p = ring.p
        packing = _Packing(nv, top if q is None else max(top, q))
        if q is None:
            q = packing.limit + 1  # no exponent reaches it
        # Adding 2^(width-1) - q to every exponent field sets the field's
        # guard bit exactly when the exponent is >= q.
        bias = ((packing.limit + 1) - q) * packing.ones
        guard = packing.guard
        base = {m: c for m, c in packing.pack_terms(self.terms).items()
                if not (m + bias) & guard}
        result = {0: 1}  # the constant 1 packs to 0
        while k:
            if k & 1:
                result = _mul(result, base, p, bias, guard)
            k >>= 1
            if k:
                base = _mul(base, base, p, bias, guard)
        return MultiPoly._raw(ring, packing.unpack_terms(result))

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
    for g in map(MultiPoly.monic, gens):
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


# ---------------------------------------------------------------------------
# Hilbert series of monomial ideals; standard-monomial counts.

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


def _monomial_count(degree: int, nvars: int) -> int:
    """Number of monomials of the given degree in ``nvars`` variables."""
    if degree < 0:
        return 0
    if nvars == 0:
        return int(degree == 0)
    return comb(degree + nvars - 1, nvars - 1)


def _divides(u: tuple, g: tuple) -> bool:
    return all(map(operator.le, u, g))


def _minimal(gens: list) -> list:
    """The minimal generators of the monomial ideal generated by ``gens``.

    Distinct monomials of one degree never divide each other, so each
    generator is tested only against those kept from lower degrees.
    """
    kept = []
    for _, group in itertools.groupby(sorted(set(gens), key=sum), key=sum):
        kept += [g for g in group if not any(_divides(u, g) for u in kept)]
    return kept


def _hilbert_numerator(leads, m: int) -> dict:
    """The bigraded Hilbert-Poincare numerator of S/(leads): ``{(i, j): c}``
    with HS(S/(leads)) = sum c * s^i * t^j / ((1 - s)^m * (1 - t)^n).

    ``leads`` are exponent tuples; the first ``m`` positions are the x-block
    (degree (1, 0)), the rest the y-block (degree (0, 1)).  Pivot recursion
    (Bayer & Stillman 1992; Bigatti 1997): for a variable v that divides at
    least two minimal generators and a pivot v^e that is not in I,
    HN(I) = HN(I + (v^e)) + s^a * t^b * HN(I : v^e), where (a, b) is the
    bidegree of v^e.  Pairwise coprime generators are the base case,
    HN = prod (1 - s^a * t^b), and the unit ideal has HN = 0.  An explicit
    stack of (generators, shift) replaces the call stack, so deep
    staircases cannot overflow it.
    """
    out: dict = {}
    stack = [(_minimal(leads), 0, 0)]
    while stack:
        gens, si, sj = stack.pop()
        if not any(gens[0]):
            continue  # the unit ideal (minimal, so it is the only generator)
        # Variable counts over the generators; coprime when none exceeds 1.
        counts = [sum(1 for g in gens if g[v]) for v in range(len(gens[0]))]
        v = max(range(len(counts)), key=counts.__getitem__)
        if counts[v] <= 1:
            numerator = {(si, sj): 1}
            for g in gens:
                a, b = sum(g[:m]), sum(g[m:])
                for (i, j), c in list(numerator.items()):
                    key = (i + a, j + b)
                    numerator[key] = numerator.get(key, 0) - c
            for key, c in numerator.items():
                out[key] = out.get(key, 0) + c
            continue
        # The lower median exponent of v.  Two or more generators contain v,
        # so e is below the largest exponent, the one a pure power of v
        # among the generators would have: v^e is not in I.
        exps = sorted(g[v] for g in gens if g[v])
        e = exps[(len(exps) - 1) // 2]
        pivot = tuple(e if k == v else 0 for k in range(len(gens[0])))
        # I + (v^e): v^e replaces the generators it divides; no generator
        # divides v^e, so the result is minimal.
        stack.append(([g for g in gens if g[v] < e] + [pivot], si, sj))
        # I : v^e lowers every v-exponent by e.  Only generators that lose v
        # can divide others, so minimalize them and drop what they divide.
        low = _minimal([g[:v] + (0,) + g[v + 1:] for g in gens if g[v] <= e])
        high = [g[:v] + (g[v] - e,) + g[v + 1:] for g in gens if g[v] > e]
        high = [g for g in high if not any(_divides(u, g) for u in low)]
        a, b = (e, 0) if v < m else (0, e)
        stack.append((low + high, si + a, sj + b))
    return {key: c for key, c in out.items() if c}


def standard_monomial_count(gb, degree) -> int:
    """Count monomials of the given degree outside the initial ideal of ``gb``.

    ``degree`` selects a graded piece: an integer means total degree, a pair
    ``(a, b)`` means bidegree over the x/y blocks.  When ``gb`` is a Groebner
    basis of a homogeneous ideal w.r.t. the selector, the count equals the
    K-dimension of that graded piece of the quotient ring.  ``gb`` must not
    be empty.

    The count is read off the Hilbert series of the monomial ideal of
    leading monomials (:func:`_hilbert_numerator`), so its cost does not
    depend on the degree.
    """
    gb = list(gb)
    if not gb:
        raise PreconditionError("the basis is empty")
    ring = _common_ring(gb)

    bigraded = not isinstance(degree, int)
    for g in gb:
        if g.is_zero:
            raise PreconditionError("zero polynomial in the basis")
        if bigraded and not g.is_bihomogeneous():
            raise PreconditionError(f"basis element not bihomogeneous: {g}")
        if not bigraded and not g.is_homogeneous():
            raise PreconditionError(f"basis element not homogeneous: {g}")

    numerator = _hilbert_numerator([g.leading_monomial() for g in gb], ring.m)
    if bigraded:
        a, b = degree
        return sum(c * _monomial_count(a - i, ring.m)
                   * _monomial_count(b - j, ring.n)
                   for (i, j), c in numerator.items())
    return sum(c * _monomial_count(degree - i - j, ring.nvars)
               for (i, j), c in numerator.items())


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
# Regular sequences from the Hilbert series.

def is_regular_sequence(gens) -> bool:
    """Certify that homogeneous ``gens`` form a regular sequence.

    Exact criterion in a polynomial ring in N variables (Stanley, Adv. Math.
    28, 1978): forms of positive degrees d_1..d_s are a regular sequence iff
    the quotient has Hilbert series prod (1 - t^d_i) / (1 - t)^N.  The series
    is read off the initial ideal (:func:`_hilbert_numerator`).
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
    leads = [g.leading_monomial() for g in groebner_basis(gens)]
    numerator: dict = {}
    for (i, j), c in _hilbert_numerator(leads, ring.m).items():
        numerator[i + j] = numerator.get(i + j, 0) + c
    expected = {0: 1}
    for g in gens:
        d = g.total_degree()
        for i, c in list(expected.items()):
            expected[i + d] = expected.get(i + d, 0) - c
    return ({i: c for i, c in numerator.items() if c}
            == {i: c for i, c in expected.items() if c})
