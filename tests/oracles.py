"""Brute-force references that the tests compare the library against, and
statements of the paper that only the tests evaluate."""

import itertools

from diagalg.errors import PreconditionError
from diagalg.exactalg import MultiPoly, PolyRing, _common_ring, exponent_vectors
from diagalg.gradedcomb import DiagonalSpec


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
