"""Brute-force references that the tests compare the library against,
statements of the paper that only the tests evaluate, a counter of the
kernel's division calls, and the CLI's earlier nested argument parse."""

import contextlib
import itertools
from math import comb
from unittest import mock

from diagalg import cli, exactalg
from diagalg.errors import PreconditionError
from diagalg.exactalg import MultiPoly, PolyRing, _common_ring, exponent_vectors
from diagalg.gradedcomb import DiagonalSpec
from diagalg.rees import ci_quotient_hilbert


def mono_divides(a, b):
    """True when monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def tuple_product(f, g):
    """``f * g`` by the schoolbook loop on exponent tuples."""
    out = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            out[exps] = out.get(exps, 0) + ca * cb
    return f.ring.poly(out)


def packed_product(f, g):
    """The terms of ``f * g`` as the packed product ``exactalg._mul`` forms
    them, in its order."""
    packing = exactalg._packing(f.ring.nvars,
                                f.total_degree() + g.total_degree())
    return packing.unpack_terms(exactalg._mul(
        packing.pack_terms(f.terms), packing.pack_terms(g.terms), f.ring.p,
        0, 0))


def grevlex_key(exps):
    """Sort key of the graded reverse lexicographic order on exponent
    tuples, x1 > ... > xm > y1 > ... > yn: higher degree first, then the
    smaller last exponent that differs; max picks the lead."""
    return sum(exps), tuple(-e for e in reversed(exps))


def textbook_str(f):
    """``str(f)`` formatted from the variable names alone: the terms in
    descending grevlex order, ``c*x1^2*y1`` with the factor 1 and the
    exponent 1 left out, and ``0`` for the zero polynomial."""
    m = f.ring.m
    names = [f"x{i + 1}" for i in range(m)] + [
        f"y{j + 1}" for j in range(f.ring.n)]
    parts = []
    for exps in sorted(f.terms, key=grevlex_key, reverse=True):
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(names, exps) if e]
        c = f.terms[exps]
        parts.append("*".join(([str(c)] if c != 1 or not factors else [])
                              + factors))
    return " + ".join(parts) or "0"


def _textbook_divide(terms, basis, p):
    """Remainder of {exponent tuple: coefficient} under division by the
    (lead, terms) pairs of ``basis``, largest term first."""
    terms = dict(terms)
    remainder = {}
    while terms:
        lead = max(terms, key=grevlex_key)
        c = terms.pop(lead)
        for glead, gterms in basis:
            if mono_divides(glead, lead):
                factor = c * pow(gterms[glead], -1, p)
                shift = [a - b for a, b in zip(lead, glead)]
                for exps, gc in gterms.items():
                    if exps == glead:
                        continue
                    mono = tuple(a + b for a, b in zip(exps, shift))
                    value = (terms.get(mono, 0) - factor * gc) % p
                    if value:
                        terms[mono] = value
                    else:
                        terms.pop(mono, None)
                break
        else:
            remainder[lead] = c
    return remainder


def textbook_groebner_basis(gens):
    """The reduced grevlex Groebner basis of the nonzero ``gens`` by the
    textbook Buchberger algorithm (Cox, Little & O'Shea, *Ideals,
    Varieties, and Algorithms*, Ch. 2 Sec. 7): exponent tuples, the
    S-polynomial of every pair, no criteria, no packing; then minimalized
    and interreduced, sorted by lead."""
    ring = _common_ring(gens)
    p = ring.p
    basis = [(max(g.terms, key=grevlex_key), dict(g.terms)) for g in gens]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop()
        (la, fa), (lb, fb) = basis[i], basis[j]
        lcm = tuple(map(max, la, lb))
        s = {}
        for sign, lead, terms in ((1, la, fa), (-1, lb, fb)):
            factor = sign * pow(terms[lead], -1, p)
            shift = [a - b for a, b in zip(lcm, lead)]
            for exps, c in terms.items():
                mono = tuple(a + b for a, b in zip(exps, shift))
                s[mono] = (s.get(mono, 0) + factor * c) % p
        s = {mono: c for mono, c in s.items() if c}
        remainder = _textbook_divide(s, basis, p)
        if remainder:
            pairs += [(t, len(basis)) for t in range(len(basis))]
            basis.append((max(remainder, key=grevlex_key), remainder))
    minimal = []
    for lead, terms in sorted(basis, key=lambda g: grevlex_key(g[0])):
        if not any(mono_divides(other, lead) for other, _ in minimal):
            minimal.append((lead, terms))
    reduced = []
    for k, (lead, terms) in enumerate(minimal):
        others = minimal[:k] + minimal[k + 1:]
        terms = _textbook_divide(terms, others, p)
        inverse = pow(terms[lead], -1, p)
        reduced.append(ring.poly({mono: c * inverse
                                  for mono, c in terms.items()}))
    return reduced


def enumerated_standard_count(gb, degree) -> int:
    """``standard_monomial_count`` by enumeration: walk every monomial of the
    degree (an integer, or a bidegree pair) and count those that no leading
    monomial of ``gb`` divides."""
    ring = gb[0].ring
    leads = [g.leading_monomial() for g in gb]
    if isinstance(degree, int):
        monos = exponent_vectors(degree, ring.nvars)
    else:
        a, b = degree
        monos = (ex + ey for ex, ey in itertools.product(
            exponent_vectors(a, ring.m), exponent_vectors(b, ring.n)))
    return sum(1 for mono in monos
               if not any(mono_divides(lt, mono) for lt in leads))


def initial_ideal_dimension(gb) -> int:
    """Krull dimension of R/in(I) for the nonempty Groebner basis ``gb`` of I.

    Computed combinatorially: the largest size of a variable subset S such
    that no leading monomial is supported inside S.  Returns -1 for the unit
    ideal.
    """
    gb = list(gb)
    if not gb:
        raise PreconditionError("the basis is empty")
    nv = _common_ring(gb).nvars
    supports = [frozenset(i for i, e in enumerate(g.leading_monomial()) if e)
                for g in gb]
    if any(not s for s in supports):
        return -1  # a unit leading term: the whole ring
    for size in range(nv, -1, -1):
        for subset in itertools.combinations(range(nv), size):
            chosen = set(subset)
            if all(not s <= chosen for s in supports):
                return size


def dim2_rational(d: int, e: int, diag: DiagonalSpec) -> bool:
    """The m = n = 2 case, where rational singularities and F-regular type
    coincide: (d = 1 and e <= h + 1) or (e = 1 and d <= g + 1)."""
    if d < 1 or e < 1:
        raise PreconditionError(f"need d, e >= 1: ({d}, {e})")
    return (d == 1 and e <= diag.h + 1) or (e == 1 and d <= diag.g + 1)


def rees_to_product_diagonal(delta: int, g: int, h: int) -> DiagonalSpec:
    """Convert a diagonal taken in the Rees-style bigrading (x of degree
    (1, 0), y of degree (delta, 1)) into the product bigrading (y of degree
    (0, 1)): (g, h) maps to (g - delta*h, h)."""
    if delta < 0 or g < 1 or h < 1:
        raise PreconditionError(f"need delta >= 0 and g, h >= 1: ({delta}, {g}, {h})")
    if g <= delta * h:
        raise PreconditionError(
            f"diagonal not ample for product grading: need g > delta*h, "
            f"got g={g}, delta*h={delta * h}"
        )
    return DiagonalSpec(g - delta * h, h)


def blowup_example_range(degf: int, k: int, dimA: int) -> range:
    """Range of diagonal parameters g for which the blow-up of a degree-degf
    hypersurface of dimension dimA along a complete intersection of
    (dimA - 1) general k-forms has H^2 vanishing in degree 0 but not in
    degree 1: the integers 1 <= g <= degf + k*(dimA - 2) - (dimA + 1)."""
    if dimA < 3:
        raise PreconditionError(f"need dimA >= 3: {dimA}")
    if degf < 1 or k < 1:
        raise PreconditionError(f"need degf, k >= 1: ({degf}, {k})")
    return range(1, degf + k * (dimA - 2) - (dimA + 1) + 1)


def expanded_ci_quotient_hilbert(m: int, degrees, j: int) -> int:
    """``rees.ci_quotient_hilbert`` by the schoolbook route: multiply out
    prod(1 - t^d) one factor at a time, then add c * C(j - u + m - 1, m - 1)
    over its terms c * t^u with u <= j, each binomial from ``comb``."""
    if j < 0:
        return 0
    numerator = {0: 1}
    for d in degrees:
        out = {}
        for u, c in numerator.items():
            out[u] = out.get(u, 0) + c
            out[u + d] = out.get(u + d, 0) - c
        numerator = out
    return sum(c * comb(j - u + m - 1, m - 1)
               for u, c in numerator.items() if u <= j)


def full_sum_dim_lc_ci_quotient_power(m: int, k: int, s: int, r: int,
                                      t: int) -> int:
    """``rees.dim_lc_ci_quotient_power`` as the plain sum over every
    rho < r, the terms in negative Hilbert degrees included."""
    return sum(comb(s - 1 + rho, rho)
               * ci_quotient_hilbert(m, (k,) * s, k * s - m - (t - rho * k))
               for rho in range(r))


def witness_bigraded(d: int, e: int, m: int, n: int, p: int) -> MultiPoly:
    """x1^d*y1^e + x2*...*x_{d+1} * y2*...*y_{e+1} over F_p."""
    if d < 1 or e < 1:
        raise PreconditionError(f"need d, e >= 1: ({d}, {e})")
    if m < d + 1 or n < e + 1:
        raise PreconditionError(
            f"need m >= d + 1 and n >= e + 1: m={m}, d={d}, n={n}, e={e}"
        )
    ring = PolyRing(p, m, n)
    tail = ring.one()
    for i in range(2, d + 2):
        tail = tail * ring.x(i)
    for j in range(2, e + 2):
        tail = tail * ring.y(j)
    return ring.x(1) ** d * ring.y(1) ** e + tail


def witness_fpure(d: int, m: int, p: int, e: int | None = None,
                  n: int = 0) -> MultiPoly:
    """The standard F-pure witness: x1*(x1+x2)*...*(x1+x_d) in the graded
    case, or the squarefree monomial x1..x_d*y1..y_e in the bigraded case."""
    if d < 1:
        raise PreconditionError(f"need d >= 1: {d}")
    if m < d:
        raise PreconditionError(f"need m >= d variables: m={m}, d={d}")
    if e is None:
        ring = PolyRing(p, m, n)
        f = ring.x(1)
        for i in range(2, d + 1):
            f = f * (ring.x(1) + ring.x(i))
        return f
    if e < 1 or n < e:
        raise PreconditionError(f"need n >= e >= 1: n={n}, e={e}")
    ring = PolyRing(p, m, n)
    f = ring.one()
    for i in range(1, d + 1):
        f = f * ring.x(i)
    for j in range(1, e + 1):
        f = f * ring.y(j)
    return f


@contextlib.contextmanager
def reduce_calls():
    """Count the calls of ``exactalg._reduce`` within the block: under
    ``"run"`` those made while ``exactalg._buchberger`` runs, under
    ``"finish"`` the others, such as those ``groebner_basis`` makes after
    Buchberger's algorithm returns."""
    counts = {"run": 0, "finish": 0}
    phase = ["finish"]
    reduce, buchberger = exactalg._reduce, exactalg._buchberger

    def counted_reduce(*args, **kwargs):
        counts[phase[0]] += 1
        return reduce(*args, **kwargs)

    def phased_buchberger(*args, **kwargs):
        phase[0] = "run"
        try:
            return buchberger(*args, **kwargs)
        finally:
            phase[0] = "finish"

    with mock.patch.object(exactalg, "_reduce", counted_reduce), \
            mock.patch.object(exactalg, "_buchberger", phased_buchberger):
        yield counts


def nested_main(argv):
    """``cli.main`` with the nested parse it replaced: the top parser reads
    every argument and hands those after the subcommand's name to that
    subcommand's parser, which reads them again; then the same dispatch."""
    return cli._dispatch(cli.build_parser().parse_args(argv))
