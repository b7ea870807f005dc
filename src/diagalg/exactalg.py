"""Exact arithmetic kernel over F_p.

Sparse multivariate polynomials in two blocks of variables (x1..xm, y1..yn),
powers modulo (v^q : v each variable), Buchberger's algorithm, normal forms
and standard-monomial counts (graded Hilbert functions), all under the one
monomial order grevlex (on exponent tuples, :func:`_descending_grevlex`).
Everything is exact: coefficients are residues modulo the prime
``PolyRing.p`` (inverses are ``pow(c, -1, p)``) and all combinatorics use
Python integers.

Monomials are plain exponent tuples of length ``m + n`` at the API
(``MultiPoly.terms``, printing, parsing, every signature); the x-block
occupies the first ``m`` positions.  Inside the kernel (products and powers,
``power_ideal_gens``, ``normal_form``, ``s_polynomial`` and
``groebner_basis``) each monomial is one Python integer (:class:`_Packing`).
From the most significant end it holds 2 * (m + n) fields of equal width:
the total degree, the prefix sums e0 + ... + ek for k = m + n - 2 down to
0, then the exponents, each exponent field with a guard bit on top.  So
grevlex is integer order, multiplying monomials is adding integers, and
divisibility is one subtraction and one mask.  The width comes from the
call's degree bound: the sum of the factors' degrees in ``*``, r times the
top generator degree in ``power_ideal_gens``, the degree of f in
``normal_form`` (reduction never raises it), of the lcm in
``s_polynomial``, and of the power (or q, if larger) in ``__pow__``; a run
of Buchberger's algorithm (:func:`_buchberger`) keeps one packing, for its
degree limit if it has one, else for four times its top input degree, and
restarts from the generators with twice the degree of a pair's lcm that
outgrows the fields.
Packings are shared: one per number of variables and field width.  Because
integer order is grevlex, the kernel takes the lead of a packed polynomial
with an integer ``max``, and each polynomial ``groebner_basis`` returns
keeps its lead.  One generator bypasses Buchberger's algorithm and the
packing: the reduced basis of a principal ideal (f) is ``f.monic()``,
f / lc(f).

Buchberger's algorithm reduces each generator by the basis built so far
before it joins, so generators that share a lead (as the generators of a
power I^r of dense forms do) leave one reducer per lead, not one each.
Every element that joins is reduced against every element made before it,
so a term of its tail can be divisible only by the lead of an element made
after it.  When no later lead has a lower degree, that lead is the
term itself, and ``groebner_basis`` reduces the tail in one pass by
substituting the reduced tails of such terms; otherwise it divides the
tail by the elements of smaller lead, since a lead divides only monomials
at or above itself.

Division and Buchberger's algorithm reduce by monic pairs (lead, tail),
all made by :func:`_reducer`.  A monomial ideal of pure powers x_k^a is a
mask (bias, cut) instead (:meth:`_Packing.mask`): a packed monomial u is
in it exactly when ``(u + bias) & cut`` is nonzero.  Products and powers
drop the terms with an exponent >= q that way.  Buchberger's algorithm and
the truncated normal form drop the terms in the ideal of the pure-power
generators, so they work over S / M and never scan a pure power as a
reducer; all generators of a certificate's J_q but two are pure powers.
The mask (0, 0) drops nothing.

Callers inside the package that only need a yes/no or one remainder leave
the packing to this module: Fedder's test asks :func:`_power` only whether
the power of f, or of a coordinate restriction of f, is nonzero; the
certificates take the socle's remainder from :func:`_truncated_normal_form`.
``__pow__``, ``groebner_basis`` and ``normal_form`` stay the public,
independent route to the same answers.  A square forms each cross term
once (:func:`_mul`).

Standard-monomial counts and the regular-sequence test read the Hilbert
numerator of a lead ideal (:func:`_hilbert_numerator`) from one bounded
LRU cache, so the degrees asked of one basis share one numerator.

The two bounded LRU caches, of packings and of Hilbert numerators, hold
only immutable values, and a ring holds its variable names from its
construction, so every operation in this module is safe for concurrent
use.  A polynomial keeps its lead and its bidegrees once found, or as
given by the code that built it; two threads that find them store equal
values.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import comb

from .errors import (
    DegreeCapError,
    PreconditionError,
    RingContextError,
    check_integers,
)

# Refuse products that would form more candidate monomials than this.  A
# square of an N-term polynomial counts as N * N, a conservative bound.
MONOMIAL_CAP = 10_000_000
# Refuse rings of more variables than this: a packing holds one weight of
# about 2 * N fields per variable, so its memory grows as N^2.
VARIABLE_CAP = 1000


def _check_product(ta: int, tb: int) -> None:
    # A product of ta by tb terms forms ta * tb candidate monomials; the
    # square of N terms forms N * (N + 1) / 2 but is counted as N * N.
    if ta * tb > MONOMIAL_CAP:
        raise DegreeCapError(f"a product of {ta} by {tb} terms exceeds the "
                             f"monomial cap {MONOMIAL_CAP}")


def _is_prime(p: int) -> bool:
    # Needs p >= 2, which PolyRing.__post_init__ checks first.
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

def _descending_grevlex(exps):
    # Sort key of the graded reverse lexicographic order, largest first:
    # higher total degree, then the smaller last exponent that differs.  So
    # sorting lists distinct monomials in descending grevlex order and min
    # picks the lead.  Variable precedence is the index order
    # x1 > ... > xm > y1 > ... > yn.
    return (-sum(exps), exps[::-1])


def _var_power(nvars: int, k: int, a: int) -> tuple:
    # The exponent tuple of x_k^a, the a-th power of the variable of 0-based
    # index k among ``nvars``.
    return (0,) * k + (a,) + (0,) * (nvars - 1 - k)


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
      the lowest exponent field with v < u borrows and sets its guard bit;
    - the total degree of u is its top field, ``u >> degree_shift``;
    - some x_k^(a_k) divides u exactly when ``(u + bias) & cut`` is nonzero,
      for the (bias, cut) of :meth:`mask`.
    """

    __slots__ = ("width", "limit", "guard", "degree_shift", "_weights",
                 "_shifts")

    def __init__(self, nvars: int, degree: int):
        width = max(degree, 0).bit_length() + 1
        self.width = width
        self.limit = (1 << (width - 1)) - 1
        # A 1 at the bottom of every exponent field; exponent k sits in
        # field nvars - 1 - k and prefix sum k in field nvars + k.
        ones = ((1 << (width * nvars)) - 1) // ((1 << width) - 1)
        self.guard = ones << (width - 1)
        self.degree_shift = width * (2 * nvars - 1)
        self._shifts = tuple(width * (nvars - 1 - k) for k in range(nvars))
        # Exponent k adds 1 to its own field and to prefix sums k..nvars-1.
        self._weights = tuple(
            (1 << shift) + (ones >> (width * k) << (width * (nvars + k)))
            for k, shift in enumerate(self._shifts)
        )

    def pack(self, exps) -> int:
        return sum(map(operator.mul, exps, self._weights))

    def unpack(self, v: int) -> tuple:
        mask = (1 << self.width) - 1
        return tuple([v >> shift & mask for shift in self._shifts])

    def mask(self, bounds: dict) -> tuple[int, int]:
        """(bias, cut) for the monomial ideal of the x_k^a, a = bounds[k]
        in 1..limit: adding 2^(width-1) - a to exponent field k sets its
        guard bit exactly when the exponent is >= a, and ``cut`` holds the
        guard bits of the bounded fields.  An empty ``bounds`` gives (0, 0),
        which masks nothing."""
        bias = cut = 0
        top = self.limit + 1
        for k, a in bounds.items():
            shift = self._shifts[k]
            bias += (top - a) << shift
            cut += top << shift
        return bias, cut

    def pack_terms(self, terms: dict) -> dict:
        return {self.pack(exps): c for exps, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        return {self.unpack(v): c for v, c in terms.items()}

    def unpack_polys(self, polys: list) -> list:
        """:meth:`unpack_terms` of each packed polynomial in ``polys``,
        unpacking each distinct monomial once: the polynomials of one
        Groebner basis or ideal power share most of theirs."""
        exps = {}
        for terms in polys:
            exps.update(terms)
        exps = {v: self.unpack(v) for v in exps}
        return [{exps[v]: c for v, c in terms.items()} for terms in polys]


# Packings kept for reuse, one per (number of variables, field width).
_PACKINGS_KEPT = 64


@functools.lru_cache(maxsize=_PACKINGS_KEPT)
def _packing_of_width(nvars: int, width: int) -> _Packing:
    return _Packing(nvars, (1 << (width - 1)) - 1)


def _packing(nvars: int, degree: int) -> _Packing:
    """The shared :class:`_Packing` for total degree at most ``degree``.
    A packing is never changed after construction and depends only on
    nvars and its field width, so calls of one width share one."""
    return _packing_of_width(nvars, max(degree, 0).bit_length() + 1)


def _mul(a: dict, b: dict, p: int, bias: int, cut: int) -> dict:
    """Product of the packed polynomials a and b (see :class:`_Packing`)
    without the monomials u in the ideal of the mask (bias, cut), those
    with ``(u + bias) & cut`` set (:meth:`_Packing.mask`); a cut of 0 keeps
    them all.  A square (``a is b``) forms each cross term once,
    with its coefficient doubled, and each diagonal term once."""
    _check_product(len(a), len(b))
    out = {}
    get = out.get
    if a is b:
        items = list(a.items())
        for i, (ma, ca) in enumerate(items):
            m = ma + ma
            if not (m + bias) & cut:
                out[m] = get(m, 0) + ca * ca
            ca += ca
            for mb, cb in items[i + 1:]:
                m = ma + mb
                if not (m + bias) & cut:
                    out[m] = get(m, 0) + ca * cb
    else:
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                if not (m + bias) & cut:
                    out[m] = get(m, 0) + ca * cb
    return {m: v for m, c in out.items() if (v := c % p)}


def _power(f: "MultiPoly", k: int, q: int | None):
    """``pow(f, k, q)`` as (packing, packed terms): f^k without its terms
    that have an exponent >= q (with no ``q``, all of f^k: the mask (0, 0),
    as in ``*``).

    Computed by square and multiply on packed monomials, dropping such
    terms as soon as they appear, which is exact: every product with
    such a term has one too.  f^k has at most comb(t + k - 1, k) terms
    (multisets of k of f's t terms) and at most comb(k * deg + v, v)
    (monomials of degree <= k * deg in the v variables that occur in f);
    it is refused before any work when both exceed the monomial cap, with
    or without ``q``.  Like ``*``, each product it forms is refused when
    it would form more candidate monomials than the cap.
    """
    if not isinstance(k, int) or k < 0:
        raise PreconditionError(f"exponent must be a nonnegative integer: {k!r}")
    ring = f.ring
    t, nv = len(f.terms), ring.nvars
    top = k * f.total_degree()
    used = sum(map(any, zip(*f.terms)))
    if (t >= 2 and comb(top + used, used) > MONOMIAL_CAP
            and comb(t + k - 1, k) > MONOMIAL_CAP):
        raise DegreeCapError(
            f"power {k} of a {t}-term polynomial may exceed the "
            f"monomial cap {MONOMIAL_CAP}"
        )
    if q is not None and (not isinstance(q, int) or q < 1):
        raise PreconditionError(f"q must be an integer >= 1: {q!r}")
    p = ring.p
    packing = _packing(nv, top if q is None else max(top, q))
    # Every variable is bounded by q.
    bias, cut = packing.mask({} if q is None else dict.fromkeys(range(nv), q))
    base = {m: c for m, c in packing.pack_terms(f.terms).items()
            if not (m + bias) & cut}
    result = {0: 1}  # the constant 1, which packs to 0
    while k:
        bit, k = k & 1, k >> 1
        if bit:
            result = _mul(result, base, p, bias, cut)
        if k:
            base = _mul(base, base, p, bias, cut)
    return packing, result


@dataclass(frozen=True, slots=True)
class PolyRing:
    """The ring F_p[x1..xm, y1..yn] with deg x_i = (1,0) and deg y_j = (0,1).

    ``p`` is a prime with 2 <= p < 2**31.  ``n`` may be zero for a
    single-block (ordinary graded) polynomial ring.  ``_names`` holds the
    variable names x1..xm, y1..yn, in index order, for printing.
    """

    p: int
    m: int
    n: int = 0
    _names: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, m, n = self.p, self.m, self.n
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise PreconditionError(f"modulus must be an integer in [2, 2^31): {p!r}")
        if not _is_prime(p):
            raise PreconditionError(f"modulus must be prime: {p}")
        if (not isinstance(m, int) or not isinstance(n, int)
                or m < 0 or n < 0 or m + n < 1):
            raise PreconditionError(
                f"need integers m, n >= 0 with m + n >= 1: m={m!r}, n={n!r}")
        if m + n > VARIABLE_CAP:
            raise PreconditionError(f"m + n = {m + n} exceeds the variable cap "
                                    f"{VARIABLE_CAP}")
        object.__setattr__(self, "_names",
                           tuple(f"x{i}" for i in range(1, m + 1))
                           + tuple(f"y{j}" for j in range(1, n + 1)))

    @property
    def nvars(self) -> int:
        return self.m + self.n

    def zero(self) -> "MultiPoly":
        return MultiPoly._raw(self, {})

    def one(self) -> "MultiPoly":
        return self.const(1)

    def const(self, c: int) -> "MultiPoly":
        return MultiPoly(self, {(0,) * self.nvars: c})

    def gen(self, idx: int) -> "MultiPoly":
        """The variable of 0-based index ``idx``: x1..xm, then y1..yn."""
        if not isinstance(idx, int) or not 0 <= idx < self.nvars:
            raise PreconditionError(f"no variable of index {idx!r} in {self!r}")
        return MultiPoly._raw(self, {_var_power(self.nvars, idx, 1): 1})

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

    ``f == c`` for an int ``c`` compares f with ``c mod p``, but ``hash``
    does not follow it: ``ring.const(3) == 8`` holds over p = 5, yet the two
    hash apart.  So do not mix polynomials and ints as dict or set keys.
    """

    __slots__ = ("ring", "terms", "_lead", "_degrees")

    def __init__(self, ring: PolyRing, terms: dict):
        normalized = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != ring.nvars or not all(
                    isinstance(e, int) and e >= 0 for e in exps):
                raise PreconditionError(f"bad exponent vector {exps!r} for {ring!r}")
            if not isinstance(c, int):
                raise PreconditionError(f"coefficient must be an integer: {c!r}")
            c %= ring.p
            if c:
                normalized[exps] = c
        self.ring = ring
        self.terms = normalized
        self._lead = None
        self._degrees = None

    @staticmethod
    def _raw(ring: PolyRing, terms: dict, lead=None,
             degrees=None) -> "MultiPoly":
        # Internal fast path: terms already normalized; ``lead`` and
        # ``degrees``, when given, are their grevlex-largest monomial and
        # their set of bidegrees.
        obj = object.__new__(MultiPoly)
        obj.ring = ring
        obj.terms = terms
        obj._lead = lead
        obj._degrees = degrees
        return obj

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Maximum total degree of a term; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({i + j for i, j in self._bidegrees()}) <= 1

    def _bidegrees(self) -> frozenset:
        # The (x-degree, y-degree) of every term, found on the first call
        # and kept, since the terms never change.
        if self._degrees is None:
            m = self.ring.m
            self._degrees = frozenset(
                (sum(e[:m]), sum(e[m:])) for e in self.terms)
        return self._degrees

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
            _common_ring((self, other))
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
        packing = _packing(self.ring.nvars,
                           self.total_degree() + other.total_degree())
        product = _mul(packing.pack_terms(self.terms),
                       packing.pack_terms(other.terms), self.ring.p, 0, 0)
        return MultiPoly._raw(self.ring, packing.unpack_terms(product))

    __rmul__ = __mul__

    def __pow__(self, k: int, q: int | None = None):
        """f ** k, or with ``q`` (``pow(f, k, q)``) the image of f^k modulo
        the monomial ideal (v^q : v each variable): f^k without its terms
        that have an exponent >= q.  See :func:`_power`, which refuses the
        powers and products over the monomial cap."""
        packing, terms = _power(self, k, q)
        return MultiPoly._raw(self.ring, packing.unpack_terms(terms))

    # -- grevlex views ------------------------------------------------------

    def leading_monomial(self):
        # Found on the first call and kept, since the terms never change.
        if self._lead is None:
            if not self.terms:
                raise PreconditionError("zero polynomial has no leading monomial")
            self._lead = min(self.terms, key=_descending_grevlex)
        return self._lead

    def monic(self) -> "MultiPoly":
        """f / lc(f): the lead first, then the other terms in f's order.
        Scaling keeps the monomials, so the result keeps the lead and the
        bidegrees found so far.  Two paths: a form with lc(f) = 1 whose
        lead is its first term is already that, and is returned itself;
        any other form is rescaled into a new one (with lc(f) = 1 that
        only moves the lead first, since c * 1 mod p = c)."""
        lead = self.leading_monomial()
        p = self.ring.p
        inv = pow(self.terms[lead], -1, p)
        if inv == 1 and next(iter(self.terms)) == lead:
            return self
        # The lead goes in first; updating its value keeps it first.
        terms = {lead: 1}
        terms.update([(e, c * inv % p) for e, c in self.terms.items()])
        return MultiPoly._raw(self.ring, terms, lead, self._degrees)

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
        names = self.ring._names
        parts = []
        for mon in sorted(self.terms, key=_descending_grevlex):
            c = self.terms[mon]
            factors = "*".join([name if e == 1 else f"{name}^{e}"
                                for name, e in zip(names, mon) if e])
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append(factors)
            else:
                parts.append(f"{c}*{factors}")
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Division and Buchberger's algorithm.

def _common_ring(polys) -> PolyRing:
    # The ring of the first polynomial of the nonempty sequence ``polys``,
    # when every other ring is it or equal to it; the identity test spares
    # hashing the rings in the common case of one ring object.
    ring = polys[0].ring
    for f in polys:
        if f.ring is not ring and f.ring != ring:
            rings = {g.ring for g in polys}
            raise RingContextError(
                f"mixed ring contexts: {sorted(map(repr, rings))}")
    return ring


def _reducer(terms: dict, p: int):
    """A packed polynomial g as the monic pair (leading monomial, other
    terms of g / lc(g) as (monomial, coefficient) pairs), which reduces
    as g does."""
    lt = max(terms)
    inv = pow(terms[lt], -1, p)
    return lt, [(m, c * inv % p) for m, c in terms.items() if m != lt]


def _s_poly(a, b, lcm: int, p: int) -> dict:
    # Packed S-polynomial of the monic reducers a and b whose leads divide
    # lcm: the leading terms cancel, so only the tails are shifted.
    lta, taila = a
    ltb, tailb = b
    sa, sb = lcm - lta, lcm - ltb
    out = {m + sa: c for m, c in taila}
    for m, c in tailb:
        m += sb
        v = (out.get(m, 0) - c) % p
        if v:
            out[m] = v
        else:
            del out[m]
    return out


def _reduce(work: dict, reducers, guard: int, p: int, bias: int = 0,
            cut: int = 0) -> dict:
    """Remainder of the packed polynomial ``work`` (consumed) under full
    reduction by the pairs ``reducers`` (:func:`_reducer`) and the monomial
    ideal M of the mask (bias, cut) (:meth:`_Packing.mask`), as {monomial:
    coefficient} in descending order.

    The terms of ``work`` in M are dropped first.  Each step takes the
    largest remaining term and reduces it by the first reducer whose lead
    divides it.  A max-heap holds every monomial of ``work`` once, so that
    term is found in logarithmic time.  Coefficients are reduced mod p only
    when popped; a term that cancelled is skipped then (lazy deletion).  A
    popped monomial never comes back, because every term a step adds is
    smaller than the one it removes.  A monomial in M is never in ``work``,
    so a step tests the mask only where it would insert a new monomial, and
    drops that monomial instead: it is zero modulo M.
    """
    if cut:
        work = {u: c for u, c in work.items() if not (u + bias) & cut}
    heap = [-u for u in work]
    heapify(heap)
    pop, push, get = heappop, heappush, work.get
    remainder = {}
    while heap:
        u = -pop(heap)
        c = work.pop(u) % p
        if not c:
            continue
        for lt, tail in reducers:
            shift = u - lt
            if shift >= 0 and not shift & guard:
                break
        else:
            remainder[u] = c
            continue
        factor = p - c
        for mon, cc in tail:
            mm = mon + shift
            v = get(mm)
            if v is None:
                if not (mm + bias) & cut:
                    work[mm] = factor * cc
                    push(heap, -mm)
            else:
                work[mm] = v + factor * cc
    return remainder


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """The S-polynomial of f and g (cancels the leading terms)."""
    ring = _common_ring([f, g])
    lcm = tuple(map(max, f.leading_monomial(), g.leading_monomial()))
    packing = _packing(ring.nvars, sum(lcm))
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
    packing = _packing(ring.nvars, top)
    reducers = [_reducer(packing.pack_terms(g.terms), ring.p)
                for g in gb if g.total_degree() <= top]
    remainder = _reduce(packing.pack_terms(f.terms), reducers, packing.guard,
                        ring.p)
    return MultiPoly._raw(ring, packing.unpack_terms(remainder))


def _chain_skip(i: int, j: int, lcm_ij: int, basis, pending,
                guard: int) -> bool:
    # Buchberger's chain criterion: skip (i, j) when the lead of some other
    # element t of ``basis`` divides the lcm and the pairs of t with i and
    # with j were both handled.  A pair of coprime leads is never pushed,
    # so it counts as handled.  The divisibility test of _Packing is
    # written out, and the index pairs are formed only past it.
    for t, (lt, _) in enumerate(basis):
        d = lcm_ij - lt
        if d >= 0 and not d & guard and t != i and t != j:
            if (((i, t) if i < t else (t, i)) not in pending
                    and ((j, t) if j < t else (t, j)) not in pending):
                return True
    return False


def _pure_power(g: MultiPoly):
    """(k, a) when g is c * x_k^a with a >= 1, else None."""
    if len(g.terms) == 1:
        (exps,) = g.terms
        support = [k for k, e in enumerate(exps) if e]
        if len(support) == 1:
            return support[0], exps[support[0]]
    return None


class _Outgrown(Exception):
    """A pair's lcm, of total degree ``args[0]``, outgrew the fields of an
    untruncated Buchberger run."""


def _buchberger(gens, ring: PolyRing, limit: int | None = None):
    """Buchberger's algorithm on the nonzero polynomials ``gens`` of
    ``ring``, as (packing, basis, mask): a Groebner basis in the packing,
    neither minimal nor reduced, of monic pairs (:func:`_reducer`), and
    the (bias, cut) of its pure powers (:meth:`_Packing.mask`).

    The pure powers c * x_k^a among ``gens`` (:func:`_pure_power`), with
    the least a of each variable, generate a monomial ideal M.  The rest of
    the basis is computed over S / M: the mask drops every term in M, which
    is never reduced.  The basis holds the pure powers first, x_k^a with an
    empty tail, in variable order, so it has the leads of a Groebner basis
    of the whole ideal; each reduction takes only the elements after them,
    so no reducer scan holds a pure power.  Of the other generators, in the
    caller's order, each is fully reduced by M and the basis so far and
    joins only as a nonzero remainder (Cox, Little & O'Shea, *Ideals,
    Varieties, and Algorithms*, Ch. 2 Sec. 7-9).  So no lead divides a
    later lead, no joined lead is in M, and the leads are pairwise
    distinct.  Then each nonzero S-pair remainder joins.  The S-pair of
    x_k^a and g, whose lead has the exponent e_k of x_k, is x_k^(a - e_k)
    times the tail of g: an annihilator pair of g in S / M.

    A pair is the index pair (t, u), t < u, of two basis elements.  Pair
    processing uses the normal selection strategy with the coprimality and
    chain criteria: a pair of coprime leads (two pure powers, or x_k^a and
    a g with e_k = 0, among them) is never pushed, and the chain criterion
    takes any basis element, pure power or not, as the middle element of a
    pair.  With a ``limit``, no pair whose lcm has a higher total degree is
    ever pushed, so for homogeneous ``gens`` the result is a
    ``limit``-truncated Groebner basis: it gives every form of degree at
    most ``limit`` its normal form modulo the ideal (Becker & Weispfenning,
    GTM 141, 1993).  The chain criterion stays sound under the limit: when
    the lead of t divides lcm(i, j), the lcms of (i, t) and (j, t) divide
    it, so both pairs were pushed unless coprime.

    A run keeps one packing.  With a ``limit`` it holds every monomial of
    degree at most ``limit`` and the generators, so nothing outgrows it.
    Without one it holds four times the top degree of ``gens``; when a
    pair's lcm outgrows that, the run restarts from the generators in a
    packing for twice the lcm's degree.  Integer order is grevlex in every
    packing, so a restarted run makes the same choices and returns the
    same basis.  Twice the top degree would bound the lcm of every pair of
    inputs, but bases outgrow it, and a restart redoes every reduction:
    from twice the top degree, the runs of the 60 ``gb`` ops in rounds 1-3
    of the benchmark's ``oracle`` workload (seed 0) made 1,151 ``_reduce``
    calls, 15% more than the 998 from four times, where no run restarts.
    """
    top = max(g.total_degree() for g in gens)
    degree = 4 * top if limit is None else max(top, limit)
    while True:
        try:
            return _buchberger_run(gens, ring, limit,
                                   _packing(ring.nvars, degree))
        except _Outgrown as outgrown:
            degree = 2 * outgrown.args[0]


def _buchberger_run(gens, ring: PolyRing, limit, packing):
    # One run of _buchberger in ``packing``; raises _Outgrown at the first
    # pair lcm that the packing cannot hold.
    p = ring.p
    pure, others = {}, []
    for g in gens:
        power = _pure_power(g)
        if power is None:
            others.append(g)
        else:
            k, a = power
            pure[k] = min(pure.get(k, a), a)
    leads = [_var_power(ring.nvars, k, a) for k, a in sorted(pure.items())]
    basis = [(packing.pack(lt), []) for lt in leads]
    s = len(basis)
    bias, cut = packing.mask(pure)
    heap = []      # (packed lcm, t, u) of every pending pair
    pending = set()
    todo = [packing.pack_terms(g.terms) for g in reversed(others)]
    while todo or heap:
        if todo:
            work = todo.pop()  # the generators first, in the caller's order
        else:
            lcm, t, u = heappop(heap)
            pending.remove((t, u))
            if _chain_skip(t, u, lcm, basis, pending, packing.guard):
                continue
            work = _s_poly(basis[t], basis[u], lcm, p)
        r = _reduce(work, basis[s:], packing.guard, p, bias, cut)
        if not r:
            continue
        g = _reducer(r, p)
        lt, u = packing.unpack(g[0]), len(basis)
        for t, e in enumerate(leads):
            if not any(map(min, e, lt)):
                continue  # coprime leads
            lcm = tuple(map(max, e, lt))
            degree = sum(lcm)
            if limit is None or degree <= limit:
                if degree > packing.limit:
                    raise _Outgrown(degree)
                heappush(heap, (packing.pack(lcm), t, u))
                pending.add((t, u))
        basis.append(g)
        leads.append(lt)
    return packing, basis, (bias, cut)


def groebner_basis(gens):
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Deterministic: the output is the reduced basis sorted by leading monomial,
    so it does not depend on the order of the input generators.  The basis
    comes from :func:`_buchberger` on the packed generators (see
    :class:`_Packing`) and is then minimalized and interreduced in one pass
    over its elements sorted by lead.  An element whose lead a kept lead
    divides is dropped; any other has its tail, which lies below its lead,
    reduced by the elements kept before it, and is kept: a larger lead
    divides no smaller monomial (Becker & Weispfenning, GTM 141, Sec.
    5.4).

    Most tails need no division.  Each element g joined the basis as a
    remainder reduced against every element made before it, and no term of
    it lies in the ideal of the pure powers, so only a lead L made after g
    can divide a term t of its tail.  When every lead made after g has
    degree at least deg lt(g) (a suffix minimum over the order the elements
    were made), L | t and deg L >= deg lt(g) >= deg t force L = t.  The
    element of lead t comes before g in the pass, and is kept, since a
    kept lead dividing t would be t itself; so c * t becomes -c times its
    reduced tail, the other terms stay, and the sum, sorted in descending
    order, is the reduced tail.  Otherwise (mixed degrees given in
    descending degree, or some inhomogeneous inputs) the tail is divided
    by the kept elements (:func:`_reduce`).  Either way the result is the
    unique normal form, so the two branches agree.  Every lead is read off
    the packed terms, each distinct monomial is unpacked once, and each
    returned polynomial keeps its lead, so ``leading_monomial()`` on it
    costs nothing.

    One generator f skips all of that: the reduced basis of (f) is
    ``f.monic()`` (Cox, Little & O'Shea, *Ideals, Varieties, and
    Algorithms*, Ch. 2 Sec. 7), whose terms come in the packed route's
    order, the lead first and then the others in f's order.  When several
    generators give a principal ideal, its basis is likewise the monic
    form of the first generator with the kept lead, if there is one.
    """
    gens = list(gens)
    if not gens:
        return []
    ring = _common_ring(gens)
    if any(g.is_zero for g in gens):
        raise PreconditionError("zero polynomial among the ideal generators")
    if len(gens) == 1:
        return [gens[0].monic()]
    p = ring.p
    packing, basis, _ = _buchberger(gens, ring)
    guard, shift = packing.guard, packing.degree_shift

    # Each entry is (lead, floor, tail), floor the least degree of a lead
    # made after it (above every degree for the last).  The leads are
    # pairwise distinct, so sorting never compares the rest.
    entries = []
    floor = packing.limit + 1
    for lt, tail in reversed(basis):
        entries.append((lt, floor, tail))
        floor = min(floor, lt >> shift)
    entries.sort()

    # The kept leads are mutually indivisible, so each keeps coefficient 1.
    reduced = {}  # kept lead: its reduced tail, in ascending order of lead
    for lt, floor, tail in entries:
        if any((d := lt - u) >= 0 and not d & guard for u in reduced):
            continue
        if lt >> shift <= floor:
            # Each term that is a kept lead becomes minus its coefficient
            # times that lead's reduced tail; no other term is reducible.
            out = {}
            get = out.get
            for u, c in tail:
                sub = reduced.get(u)
                if sub is None:
                    out[u] = get(u, 0) + c
                else:
                    for v, cv in sub:
                        out[v] = get(v, 0) - c * cv
            tail = sorted([(u, v) for u, c in out.items() if (v := c % p)],
                          reverse=True)
        else:
            tail = list(_reduce(dict(tail), reduced.items(), guard, p).items())
        reduced[lt] = tail

    if len(reduced) == 1:
        # The ideal is principal.  Its reduced basis is the monic form of
        # the first generator with the kept lead, in that generator's term
        # order, as for one generator.  Without one, the kept element is
        # returned, its tail in descending order.
        lead = packing.unpack(next(iter(reduced)))
        for g in gens:
            if g.leading_monomial() == lead:
                return [g.monic()]
    polys = packing.unpack_polys([dict([(lt, 1), *tail])
                                  for lt, tail in reduced.items()])
    return [MultiPoly._raw(ring, terms, next(iter(terms))) for terms in polys]


def _truncated_normal_form(f: MultiPoly, gens) -> MultiPoly:
    """``normal_form(f, groebner_basis(gens))`` for homogeneous ``gens``, by
    the unreduced basis of :func:`_buchberger` truncated at f's degree: any
    Groebner basis gives the same normal form.  f is reduced as the basis
    was, over S / M for the ideal M of the pure powers among ``gens``: the
    mask drops f's terms in M, and the reducer scan leaves out the pure
    powers, the only basis elements whose leads are in M."""
    packing, basis, (bias, cut) = _buchberger(gens, f.ring, f.total_degree())
    reducers = [g for g in basis if not (g[0] + bias) & cut]
    remainder = _reduce(packing.pack_terms(f.terms), reducers, packing.guard,
                        f.ring.p, bias, cut)
    return MultiPoly._raw(f.ring, packing.unpack_terms(remainder))


# ---------------------------------------------------------------------------
# Hilbert series of monomial ideals; standard-monomial counts.

def exponent_vectors(total: int, length: int):
    """Yield all exponent tuples of the given length summing to ``total``,
    in descending lex order: each counts the positions of one multiset of
    ``total`` positions, and the multisets come in ascending lex order."""
    if total < 0:
        return
    zero = [0] * length
    for positions in itertools.combinations_with_replacement(range(length),
                                                             total):
        exps = zero[:]
        for i in positions:
            exps[i] += 1
        yield tuple(exps)


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


# Lead ideals whose Hilbert numerator is kept for reuse.
_NUMERATORS_KEPT = 64


@functools.lru_cache(maxsize=_NUMERATORS_KEPT)
def _hilbert_numerator(leads: tuple, m: int) -> tuple:
    """The bigraded Hilbert-Poincare numerator of S/(leads), as the
    nonzero items ``((i, j), c)`` of HS(S/(leads)) = sum c * s^i * t^j /
    ((1 - s)^m * (1 - t)^n).  The numerator depends only on the lead
    ideal, so it is kept for the last ``_NUMERATORS_KEPT`` distinct
    arguments and every degree asked of one basis reuses it; the value is
    a tuple of tuples, so no caller can change a kept one.

    ``leads`` is a tuple of exponent tuples; the first ``m`` positions are
    the x-block (degree (1, 0)), the rest the y-block (degree (0, 1)).
    Pivot recursion (Bayer & Stillman 1992; Bigatti 1997): for a variable v
    that divides at least two minimal generators and a pivot v^e that is
    not in I, HN(I) = HN(I + (v^e)) + s^a * t^b * HN(I : v^e), where (a, b)
    is the bidegree of v^e.  Pairwise coprime generators are the base case,
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
        pivot = _var_power(len(gens[0]), v, e)
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
    return tuple((key, c) for key, c in out.items() if c)


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
    if bigraded:
        try:
            a, b = degree
        except (TypeError, ValueError):
            raise PreconditionError(
                f"degree must be an integer or a pair of integers: {degree!r}"
            ) from None
        check_integers("degree", a, b)
    for g in gb:
        if g.is_zero:
            raise PreconditionError("zero polynomial in the basis")
        if bigraded and not g.is_bihomogeneous():
            raise PreconditionError(f"basis element not bihomogeneous: {g}")
        if not bigraded and not g.is_homogeneous():
            raise PreconditionError(f"basis element not homogeneous: {g}")

    numerator = _hilbert_numerator(tuple(g.leading_monomial() for g in gb),
                                   ring.m)
    if bigraded:
        return sum(c * _monomial_count(a - i, ring.m)
                   * _monomial_count(b - j, ring.n)
                   for (i, j), c in numerator)
    return sum(c * _monomial_count(degree - i - j, ring.nvars)
               for (i, j), c in numerator)


def power_ideal_gens(gens, r: int):
    """Generators of I^r: all degree-r products of ``gens``, deduplicated,
    in ``itertools.combinations_with_replacement`` order, the first of
    equal products kept; each product's terms come in the order that the
    fold g1 * g2 * ... of ``*`` gives them."""
    check_integers("r", r)
    gens = list(gens)
    if r < 1:
        raise PreconditionError(f"power must be >= 1: {r}")
    if not gens:
        return []
    ring = _common_ring(gens)
    if r == 1:
        return list(dict.fromkeys(gens))
    # Level k holds (last index, product) for the products of k factors in
    # combinations_with_replacement order; each extends by the factors from
    # its last index on, so level r is in that order too.  Each product is
    # formed as the fold g1 * g2 * ... would form it, so its terms come in
    # the same order.
    packing = _packing(ring.nvars, r * max(g.total_degree() for g in gens))
    factors = [packing.pack_terms(g.terms) for g in gens]
    # A factor times itself takes the square's path of _mul, which forms
    # the same terms in the same order.
    level = list(enumerate(factors))
    for _ in range(r - 1):
        level = [(j, _mul(product, factors[j], ring.p, 0, 0))
                 for i, product in level for j in range(i, len(factors))]
    # Equal products keep the first, and only distinct ones are unpacked.
    distinct = {}
    for _, product in level:
        distinct.setdefault(frozenset(product.items()), product)
    return [MultiPoly._raw(ring, terms)
            for terms in packing.unpack_polys(list(distinct.values()))]


# ---------------------------------------------------------------------------
# Regular sequences from the Hilbert series.

def is_regular_sequence(gens) -> bool:
    """Certify that homogeneous ``gens`` form a regular sequence.

    Exact criterion in a polynomial ring in N variables (Stanley, Adv. Math.
    28, 1978): forms of positive degrees d_1..d_s are a regular sequence iff
    the quotient has Hilbert series prod (1 - t^d_i) / (1 - t)^N, that of
    S/(x_1^d_1, ..., x_s^d_s).  Both numerators come from lead ideals
    (:func:`_hilbert_numerator`), the quotient's from :func:`_buchberger`.
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
    nvars = ring.nvars
    packing, basis, _ = _buchberger(gens, ring)
    leads = tuple(packing.unpack(lt) for lt, _ in basis)
    pure = tuple(_var_power(nvars, i, g.total_degree())
                 for i, g in enumerate(gens))
    # Stanley's criterion is singly graded: with m = nvars every variable,
    # y's included, is in the first block, so the numerators compare by
    # total degree.
    return (dict(_hilbert_numerator(leads, nvars))
            == dict(_hilbert_numerator(pure, nvars)))
