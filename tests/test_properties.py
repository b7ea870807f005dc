"""Property tests of kernel invariants: the grevlex key, packed monomials
and their pure-power masks, products against the loop on exponent tuples, truncated powers against
repeated products, Fedder's test against the truncated power, the kept
leading monomial of arithmetic results and of Groebner bases, the lead of
a form containing x1^d (x1^d*y1^e), the facts a sampled form is built
with, reduced Groebner bases (independent of generator order,
repetition and scaling, and closed under S-pairs when generators share a
lead), normal forms, truncated normal forms against
the reduced basis, bases and truncated normal forms of ideals with pure
powers against a textbook Buchberger algorithm, standard monomial counts against enumeration and with
a cold or warm numerator cache, regular sequences against the dimension
of the initial ideal, Hilbert functions of complete intersections against
the schoolbook expansion of their numerator, the closed forms of
`hypersurface` and `rees` against their public Kunneth and Hilbert-sum
compositions, and the parse/print round trip."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagalg.errors import PreconditionError
from diagalg.exactalg import (
    PolyRing,
    _buchberger,
    _hilbert_numerator,
    _descending_grevlex,
    _Packing,
    _truncated_normal_form,
    exponent_vectors,
    groebner_basis,
    is_regular_sequence,
    normal_form,
    s_polynomial,
    standard_monomial_count,
)
from diagalg.frobenius import fedder_is_f_pure, random_biform
from diagalg.gradedcomb import DiagonalSpec, dim_lc_tensor_diag, dim_tensor_diag
from diagalg.hypersurface import (
    HypersurfaceSpec,
    a_invariant,
    canonical_piece_dim,
    canonical_shift,
    dim_piece,
    lc_dim_table,
)
from diagalg.parsing import parse_polynomial
from diagalg.rees import ReesSpec, ci_quotient_hilbert, dim_lc_rees_diag
from oracles import (
    enumerated_standard_count,
    expanded_ci_quotient_hilbert,
    full_sum_dim_lc_ci_quotient_power,
    grevlex_key,
    initial_ideal_dimension,
    mono_divides,
    textbook_groebner_basis,
    tuple_product,
)

# Derandomized and without an example database, so every run checks the
# same examples and writes nothing.
SETTINGS = settings(derandomize=True, deadline=None, max_examples=50,
                    database=None)


@st.composite
def rings(draw):
    return PolyRing(draw(st.sampled_from([5, 7])), draw(st.integers(3, 4)))


@st.composite
def forms(draw, ring, max_degree=3):
    """A nonzero homogeneous polynomial of degree 1..max_degree."""
    degree = draw(st.integers(1, max_degree))
    monos = draw(st.lists(st.sampled_from(list(exponent_vectors(degree, ring.nvars))),
                          min_size=1, max_size=4, unique=True))
    coeffs = draw(st.lists(st.integers(1, ring.p - 1),
                           min_size=len(monos), max_size=len(monos)))
    return ring.poly(dict(zip(monos, coeffs)))


@st.composite
def polys(draw, ring, max_degree=3):
    """A possibly zero, possibly inhomogeneous polynomial."""
    support = [e for d in range(max_degree + 1)
               for e in exponent_vectors(d, ring.nvars)]
    monos = draw(st.lists(st.sampled_from(support), max_size=5, unique=True))
    coeffs = draw(st.lists(st.integers(1, ring.p - 1),
                           min_size=len(monos), max_size=len(monos)))
    return ring.poly(dict(zip(monos, coeffs)))


@st.composite
def distinguished_forms(draw):
    """A form of degree d (n = 0) or of bidegree (d, e) (n >= 1) containing
    x1^d (x1^d*y1^e), together with that monomial."""
    ring = PolyRing(draw(st.sampled_from([5, 7])), draw(st.integers(1, 3)),
                    draw(st.integers(0, 3)))
    d = draw(st.integers(1, 3))
    e = draw(st.integers(1, 3)) if ring.n else 0
    y_part = (e,) + (0,) * (ring.n - 1) if ring.n else ()
    lead = (d,) + (0,) * (ring.m - 1) + y_part
    support = [ex + ey for ex in exponent_vectors(d, ring.m)
               for ey in exponent_vectors(e, ring.n)]
    others = draw(st.lists(st.sampled_from(support), max_size=5, unique=True))
    monos = [lead, *(mono for mono in others if mono != lead)]
    coeffs = draw(st.lists(st.integers(1, ring.p - 1),
                           min_size=len(monos), max_size=len(monos)))
    return ring.poly(dict(zip(monos, coeffs))), lead


@st.composite
def ideals(draw):
    ring = draw(rings())
    gens = draw(st.lists(forms(ring), min_size=1, max_size=3))
    return ring, gens


def _textbook_greater(a, b):
    # Higher degree wins; at equal degree, a > b when the last nonzero entry
    # of a - b is negative.
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    diff = [x - y for x, y in zip(a, b) if x != y]
    return bool(diff) and diff[-1] < 0


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda k: st.lists(
    st.tuples(*[st.integers(0, 3)] * k), min_size=2, max_size=12)))
def test_grevlex_key_is_the_textbook_order(vectors):
    # All pairs of a list: grevlex and deglex agree on most single pairs,
    # so one pair per example would rarely tell them apart.
    for a in vectors:
        for b in vectors:
            greater = _textbook_greater(a, b)
            assert (grevlex_key(a) > grevlex_key(b)) == greater
            assert (_descending_grevlex(a) < _descending_grevlex(b)) == greater


@st.composite
def packed_monomials(draw):
    """A packing and a list of exponent tuples within its degree limit; the
    caps below push many of them to the limit itself."""
    nvars = draw(st.integers(1, 6))
    packing = _Packing(nvars, draw(st.integers(0, 200)))
    monos = []
    for _ in range(draw(st.integers(2, 8))):
        exps, room = [], packing.limit
        for e in draw(st.lists(st.integers(0, packing.limit),
                               min_size=nvars, max_size=nvars)):
            exps.append(min(e, room))
            room -= exps[-1]
        monos.append(tuple(exps))
    return packing, monos


def pure_powers_at_limit(nvars, degree):
    """Each variable, each pure power at the degree limit and one below."""
    packing = _Packing(nvars, degree)
    unit = [tuple(int(i == k) for i in range(nvars)) for k in range(nvars)]
    return packing, [tuple(e * c for e in u) for u in unit
                     for c in (1, packing.limit, packing.limit - 1)]


@SETTINGS
@given(packed_monomials())
@example(pure_powers_at_limit(1, 1))
@example(pure_powers_at_limit(2, 7))
@example(pure_powers_at_limit(3, 8))
@example(pure_powers_at_limit(4, 63))
@example(pure_powers_at_limit(5, 64))
def test_packed_monomials_agree_with_tuples(drawn):
    packing, monos = drawn
    packed = [packing.pack(a) for a in monos]
    for a, u in zip(monos, packed):
        assert packing.unpack(u) == a
        # The mask of the pure powers x_k^a_k, one for each a_k > 0.
        bounds = {k: e for k, e in enumerate(a) if e}
        bias, cut = packing.mask(bounds)
        for b, v in zip(monos, packed):
            assert (u < v) == (grevlex_key(a) < grevlex_key(b))
            assert packing.divides(u, v) == mono_divides(a, b)
            assert bool((v + bias) & cut) == any(
                b[k] >= e for k, e in bounds.items())
            if sum(a) + sum(b) <= packing.limit:
                assert u + v == packing.pack(tuple(x + y for x, y in zip(a, b)))


@st.composite
def operands(draw):
    """Two polynomials of one ring with m, n in 0..3 (either block may be
    empty); each may be zero or constant.  Small primes make coefficients
    of the product cancel often."""
    m = draw(st.integers(0, 3))
    ring = PolyRing(draw(st.sampled_from([2, 3, 5])), m,
                    draw(st.integers(1 if m == 0 else 0, 3)))
    return draw(polys(ring)), draw(polys(ring))


_Y2 = PolyRing(2, 0, 2)
_X3 = PolyRing(5, 3)
_XY = PolyRing(5, 2, 1)
_X1Y1 = PolyRing(5, 1, 1)


@SETTINGS
@given(operands())
@example((_Y2.y(1) + _Y2.y(2), _Y2.y(1) + _Y2.y(2)))
@example((_X3.const(3), _X3.x(1) + _X3.x(2)))
@example((_X3.zero(), _X3.x(1)))
@example((_XY.x(1) + _XY.y(1), _XY.x(1) - _XY.y(1)))
def test_product_matches_tuple_loop(pair):
    f, g = pair
    expected = tuple_product(f, g)
    assert f * g == expected
    assert g * f == expected


@st.composite
def power_cases(draw):
    """A polynomial over F_p, p in {2, 3, 5, 7}, an exponent k and a bound
    q on the exponents kept (None keeps all)."""
    ring = PolyRing(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 3)))
    return (draw(polys(ring, max_degree=2)), draw(st.integers(0, 6)),
            draw(st.none() | st.integers(1, 7)))


_X2 = PolyRing(3, 2)
_X3_7 = PolyRing(7, 3)


@SETTINGS
@given(power_cases())
# Squaring: 2*x1^2*x2^2 (cross) and x1^2*x2^2 (diagonal) cancel mod 3.
@example((_X2.poly({(2, 0): 1, (1, 1): 1, (0, 2): 1}), 2, None))
# Squaring: the two cross terms 2*x1^2*x2*x3 and 2*6*x1^2*x2*x3 cancel mod 7.
@example((_X3_7.poly({(2, 0, 0): 1, (0, 1, 1): 1, (1, 1, 0): 1, (1, 0, 1): 6}),
          2, 3))
# Characteristic 2: every cross term of a square vanishes.
@example((_Y2.y(1) + _Y2.y(2), 4, 4))
def test_truncated_power_matches_repeated_product(case):
    f, k, q = case
    expected = f.ring.one()
    for _ in range(k):
        expected = expected * f
    if q is not None:
        expected = expected.ring.poly(
            {e: c for e, c in expected.terms.items() if max(e) < q})
    assert pow(f, k, q) == expected


@st.composite
def fedder_forms(draw):
    """A nonzero form over F_p, p in {2, 3, 5, 7, 11}, in 1..4 variables
    split into x- and y-blocks in every way: sparse (1..4 monomials of
    degree 1..3) or dense (every monomial of its degree)."""
    nvars = draw(st.integers(1, 4))
    m = draw(st.integers(0, nvars))
    ring = PolyRing(draw(st.sampled_from([2, 3, 5, 7, 11])), m, nvars - m)
    if draw(st.booleans()):
        return draw(forms(ring))
    monos = list(exponent_vectors(draw(st.integers(1, 3)), nvars))
    coeffs = draw(st.lists(st.integers(1, ring.p - 1),
                           min_size=len(monos), max_size=len(monos)))
    return ring.poly(dict(zip(monos, coeffs)))


def test_fedder_matches_the_truncated_power():
    # Fedder's test tries restrictions of f to prefixes of the x- and
    # y-variables before the whole ring and skips prefixes too short for
    # the least x- or y-degree of a term; the whole truncated power stays
    # the reference.
    outcomes = set()

    @SETTINGS
    @given(fedder_forms())
    # F-pure: its restriction to x1, x2 already is, by x1^4*x2^4.
    @example(_X3.poly({(2, 0, 0): 4, (1, 1, 0): 4, (0, 1, 1): 1, (0, 0, 2): 3}))
    # Not F-pure: every coefficient of (x1 + 2*x2 + 3*x3)^8 with exponents
    # below 5 is a multinomial coefficient that vanishes mod 5, on every
    # restriction too.
    @example((_X3.x(1) + 2 * _X3.x(2) + 3 * _X3.x(3)) ** 2)
    # F-pure by x1^4*y1^4 only, which needs both blocks: the least x-degree
    # and the least y-degree of a term are both 0, from different terms.
    @example(_X1Y1.x(1) ** 2 + _X1Y1.y(1) ** 2)
    # F-pure by x1^4*x2^2*x3^2, which only the whole ring has.
    @example(_X3.x(1) ** 2 + _X3.x(2) * _X3.x(3))
    # Not F-pure: the least x-degree 3 exceeds m = 2, so no prefix is tried.
    @example(_X2.x(1) ** 2 * _X2.x(2))
    # p = 2: f^(p-1) is f, with no product at all.
    @example(_Y2.y(1) * _Y2.y(2))
    # A p-th power: no term survives the truncation of f itself.
    @example((_X3.x(1) + _X3.x(2) + 3 * _X3.x(3)) ** 5)
    def check(f):
        p = f.ring.p
        f_pure = fedder_is_f_pure(f)
        assert f_pure == (not pow(f, p - 1, p).is_zero)
        outcomes.add(f_pure)

    check()
    assert outcomes == {True, False}


@SETTINGS
@given(operands(), st.integers(0, 3))
@example((_X3.x(1) + _X3.x(2), _X3.zero()), 2)
def test_kept_lead_is_the_grevlex_max(pair, k):
    # leading_monomial() keeps its first answer.  Asking the operands first
    # checks that no result inherits their lead, asking twice that the kept
    # answer is the one computed.  monic() passes on the lead and the
    # bidegrees, which are asked of every result before it scales them.
    f, g = pair
    for h in (f, g):
        if h:
            h.leading_monomial()
    results = [f * g, f - g, g - f, f ** k, pow(f, k, 2)]
    # A scaled copy of each nonzero result has lc = 2 when p > 2.
    p = f.ring.p
    if p > 2:
        results += [h * (2 * pow(h.terms[max(h.terms, key=grevlex_key)], -1, p))
                    for h in results if h]
    for h in results:
        h._bidegrees()
    # monic() of a form with any lc, then of a monic one (lc = 1, lead
    # first): f / lc(f) with the lead first and then f's other terms in
    # f's order.
    monics = [h.monic() for h in results if h]
    for h in [h for h in results if h] + monics:
        lead = max(h.terms, key=grevlex_key)
        inv = pow(h.terms[lead], -1, p)
        expected = {lead: 1} | {e: c * inv % p for e, c in h.terms.items()}
        scaled = h.monic()
        assert list(scaled.terms.items()) == list(expected.items())
        # A monic form with its lead first, each of ``monics`` included, is
        # its own monic form; any other gives a new object.
        assert (scaled is h) == (h.terms[lead] == 1
                                 and next(iter(h.terms)) == lead)
        assert scaled.leading_monomial() == lead
        assert scaled._bidegrees() == h._bidegrees()
    results += monics
    for h in results:
        assert h._bidegrees() == h.ring.poly(h.terms)._bidegrees()
        if not h:
            for _ in range(2):
                with pytest.raises(PreconditionError):
                    h.leading_monomial()
            continue
        expected = max(h.terms, key=grevlex_key)
        assert h.leading_monomial() == expected
        assert h.leading_monomial() == expected


@SETTINGS
@given(distinguished_forms())
def test_distinguished_monomial_is_the_lead(drawn):
    # The F-regularity certificates scale f to monic in x1^d (x1^d*y1^e):
    # that monomial is the largest of its (bi)degree in grevlex.
    f, lead = drawn
    assert f.leading_monomial() == lead


@st.composite
def sampled_forms(draw):
    """random_biform of a shape with m, n <= 4 and d + e <= 4."""
    m, n = draw(st.sampled_from([(m, n) for m in range(5) for n in range(5)
                                 if m + n]))
    d, e = draw(st.sampled_from([(d, e) for d in range(5 if m else 1)
                                 for e in range(5 - d if n else 1) if d + e]))
    p = draw(st.sampled_from([2, 3, 5, 101]))
    return random_biform(m, n, d, e, p, draw(st.integers(0, 2**31 - 1)))


@SETTINGS
@given(sampled_forms())
def test_sampled_form_keeps_the_facts_a_scan_finds(f):
    # random_biform sets the lead and the bidegree as it builds the form; a
    # copy through ring.poly has to find them by scanning its terms.
    fresh = f.ring.poly(dict(f.terms))
    assert f.leading_monomial() == fresh.leading_monomial()
    assert f._bidegrees() == fresh._bidegrees()
    assert f.total_degree() == fresh.total_degree()
    assert str(f) == str(fresh)
    assert next(iter(f.terms.items())) == (f.leading_monomial(), 1)
    assert list(f.monic().terms.items()) == list(f.terms.items())
    d, e = f.bidegree()
    for degree in [(d, e), (d + 1, e), (d, e + 1), (d + 2, e + 3)]:
        assert (standard_monomial_count(groebner_basis([f]), degree)
                == standard_monomial_count(groebner_basis([fresh]), degree))


@SETTINGS
@given(ideals(), st.randoms(use_true_random=False))
def test_reduced_basis_ignores_generator_order(ideal, rng):
    ring, gens = ideal
    gb = groebner_basis(gens)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert groebner_basis(shuffled) == gb
    assert groebner_basis(list(reversed(gens))) == gb
    leads = [g.leading_monomial() for g in gb]
    for idx, g in enumerate(gb):
        assert g.terms[leads[idx]] == 1
        for mono in g.terms:
            assert not any(mono_divides(lead, mono)
                           for jdx, lead in enumerate(leads) if jdx != idx)


@SETTINGS
@given(ideals())
def test_basis_is_monic_with_kept_grevlex_lead(ideal):
    # groebner_basis reads each lead off the packed terms and keeps it.
    _, gens = ideal
    for g in groebner_basis(gens):
        expected = max(g.terms, key=grevlex_key)
        assert g._lead == expected
        assert g.leading_monomial() == expected
        assert g.terms[expected] == 1


@SETTINGS
@given(st.data())
def test_reduced_basis_ignores_duplicate_generators(data):
    # groebner_basis does not sort its inputs; the basis, down to the order
    # of its terms, must still not depend on their order, on their
    # repetitions or on scaling any of them by a nonzero constant.
    ring, gens = data.draw(ideals())
    repeats = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
    inputs = gens + repeats
    scales = data.draw(st.lists(st.integers(1, ring.p - 1),
                                min_size=len(inputs), max_size=len(inputs)))
    noisy = data.draw(st.permutations(
        [c * g for c, g in zip(scales, inputs)]))
    gb, noisy_gb = groebner_basis(gens), groebner_basis(noisy)
    assert noisy_gb == gb
    assert [list(g.terms.items()) for g in noisy_gb] == [
        list(g.terms.items()) for g in gb]
    # One generator skips Buchberger's algorithm; the other lists of (g)
    # take the packed route, and all give the same basis, term order, lead
    # and bidegrees: the first generator with g's lead decides the term
    # order even where a remainder with that lead, in descending order,
    # joins the basis before it.  With no generator of g's lead the basis
    # is that remainder.
    x1 = ring.gen(0)
    for g, c in zip(gens, scales):
        (alone,) = groebner_basis([g])
        for principal in ([g, c * g], [x1 * g, c * g, g],
                          [(x1 + 1) * g, x1 * g, g]):
            (paired,) = groebner_basis(principal)
            assert list(alone.terms.items()) == list(paired.terms.items())
            assert alone.leading_monomial() == paired.leading_monomial()
            assert alone._bidegrees() == paired._bidegrees()
        (remainder,) = groebner_basis([x1 * g, (x1 + 1) * g])
        assert list(remainder.terms.items()) == sorted(
            alone.terms.items(), key=lambda item: grevlex_key(item[0]),
            reverse=True)


@st.composite
def shared_lead_ideals(draw):
    """An ideal of :func:`ideals` with more generators that share a lead
    with one of its own: g + h, for h of terms below lead(g) and of g's
    degree or lower (so possibly inhomogeneous), and c * g; in any order."""
    ring, gens = draw(ideals())
    extra = []
    for g in gens:
        top = grevlex_key(g.leading_monomial())
        h = draw(polys(ring, max_degree=g.total_degree()))
        extra.append(g + ring.poly({e: c for e, c in h.terms.items()
                                    if grevlex_key(e) < top}))
        extra.append(draw(st.integers(1, ring.p - 1)) * g)
    return ring, draw(st.permutations(gens + extra))


@SETTINGS
@given(shared_lead_ideals())
def test_basis_of_shared_leads_is_a_groebner_basis(ideal):
    # Buchberger's algorithm reduces each generator by the basis so far, so
    # its leads are pairwise distinct.  Every input and every S-pair of the
    # reduced basis reduce to zero modulo it.
    ring, gens = ideal
    _, basis, _ = _buchberger(gens, ring)
    leads = [lt for lt, _ in basis]
    assert len(set(leads)) == len(leads)
    gb = groebner_basis(gens)
    for g in gens:
        assert not normal_form(g, gb)
    for i, a in enumerate(gb):
        for b in gb[i + 1:]:
            assert not normal_form(s_polynomial(a, b), gb)


@SETTINGS
@given(st.data())
def test_normal_form_is_idempotent_and_ideal_invariant(data):
    ring, gens = data.draw(ideals())
    gb = groebner_basis(gens)
    f = data.draw(polys(ring))
    h = data.draw(polys(ring, max_degree=2))
    r = normal_form(f, gb)
    assert normal_form(r, gb) == r
    for g in gb:
        assert normal_form(f + h * g, gb) == r


@st.composite
def truncation_cases(draw):
    """Homogeneous generators in a ring with or without a y-block, and a
    form f of two or more terms: drawn freely, or a multiple of a
    generator so that its remainder is zero."""
    ring = PolyRing(draw(st.sampled_from([5, 7])), draw(st.integers(2, 3)),
                    draw(st.integers(0, 2)))
    gens = draw(st.lists(forms(ring), min_size=1, max_size=3))
    if draw(st.booleans()):
        f = draw(st.sampled_from(gens)) * draw(forms(ring, max_degree=2))
    else:
        monos = list(exponent_vectors(draw(st.integers(1, 4)), ring.nvars))
        monos = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=5,
                              unique=True))
        coeffs = draw(st.lists(st.integers(1, ring.p - 1),
                               min_size=len(monos), max_size=len(monos)))
        f = ring.poly(dict(zip(monos, coeffs)))
    return f, gens


def test_truncated_normal_form_matches_full_basis():
    # The basis truncated at f's degree gives f the normal form of the
    # reduced basis, also when some generator has a higher degree than f.
    outcomes = set()

    @SETTINGS
    @given(truncation_cases())
    def check(case):
        f, gens = case
        remainder = _truncated_normal_form(f, gens)
        assert remainder == normal_form(f, groebner_basis(gens))
        outcomes.add(remainder.is_zero)
        if any(g.total_degree() > f.total_degree() for g in gens):
            outcomes.add("lower")

    check()
    assert outcomes == {True, False, "lower"}


@st.composite
def pure_power_cases(draw):
    """Homogeneous generators with 1-3 pure powers c * x_k^a among them
    (possibly two of one variable), in a ring with or without a y-block,
    and a form f: drawn freely, or a multiple of a generator."""
    ring = PolyRing(draw(st.sampled_from([2, 3, 5, 7])),
                    draw(st.integers(1, 3)), draw(st.integers(0, 2)))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        k, a = draw(st.integers(0, ring.nvars - 1)), draw(st.integers(1, 4))
        gens.append(ring.poly({tuple(a * (i == k) for i in range(ring.nvars)):
                               draw(st.integers(1, ring.p - 1))}))
    gens += draw(st.lists(forms(ring), max_size=2))
    gens = draw(st.permutations(gens))
    if draw(st.booleans()):
        f = draw(st.sampled_from(gens)) * draw(forms(ring, max_degree=2))
    else:
        monos = list(exponent_vectors(draw(st.integers(1, 5)), ring.nvars))
        monos = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=5,
                              unique=True))
        coeffs = draw(st.lists(st.integers(1, ring.p - 1),
                               min_size=len(monos), max_size=len(monos)))
        f = ring.poly(dict(zip(monos, coeffs)))
    return gens, f


_X3_3 = PolyRing(3, 3)
# Mora's ideal for n = 6 over F_3, whose basis reaches degree 37.
_MORA_6 = [parse_polynomial(text, 4, 0, 3) for text in
           ("x1^7 - x2*x3^5*x4", "x1*x2^5 - x3^6", "x1^6*x3 - x2^6*x4")]


@SETTINGS
@given(pure_power_cases())
# Two powers of one variable.
@example(([_XY.x(1) ** 2, _XY.x(1) ** 3,
           _XY.x(1) * _XY.y(1) + _XY.x(2) ** 2],
          _XY.x(1) * _XY.x(2) ** 2 + _XY.x(2) * _XY.y(1) ** 2))
# A scaled pure power.
@example(([3 * _X3.x(2) ** 2, _X3.x(1) * _X3.x(2) + _X3.x(3) ** 2],
          _X3.x(1) ** 2 * _X3.x(2) + _X3.x(2) * _X3.x(3) ** 2))
# Pure powers only.
@example(([_XY.x(1) ** 2, 2 * _XY.y(1) ** 3],
          _XY.x(1) * _XY.y(1) ** 2 + _XY.x(2) ** 3 + _XY.x(1) ** 3))
# A pure power above f's degree.
@example(([_X3.x(3) ** 4, _X3.x(1) ** 2 + _X3.x(2) * _X3.x(3)],
          _X3.x(1) * _X3.x(3) + _X3.x(2) ** 2))
# Pair lcms outgrow a packing for twice the input degree.
@example(([2 * _X3_3.x(2) ** 3,
           parse_polynomial("2*x1^3 + x1*x3^2 + x3^3", 3, 0, 3),
           parse_polynomial("2*x1^2*x2 + 2*x2*x3^2 + x3^3", 3, 0, 3)],
          _X3_3.x(1) ** 2 * _X3_3.x(3) ** 3))
# A pair lcm outgrows the packing for four times the input degree, so the
# untruncated run restarts and builds its mask in the wider packing.
@example((_MORA_6 + [_MORA_6[0].ring.x(1) ** 5],
          parse_polynomial("x1^2*x2^3*x3^4 + x3^9", 4, 0, 3)))
def test_pure_power_ideals_match_the_textbook_basis(case):
    # The kernel computes over S / M, M the ideal of the pure powers; the
    # textbook algorithm, with neither packing nor mask nor criteria, is
    # the oracle for the reduced basis and for the truncated normal form.
    gens, f = case
    oracle = textbook_groebner_basis(gens)
    assert groebner_basis(gens) == oracle
    assert _truncated_normal_form(f, gens) == normal_form(f, oracle)


def monomials(ring, exps):
    return [ring.poly({e: 1}) for e in exps]


@st.composite
def monomial_ideals(draw):
    """Monomial generators in F_5[x1..xm, y1..yn], m + n in 1..4; either
    block may be empty, and a generator may be the unit 1."""
    m = draw(st.integers(0, 3))
    ring = PolyRing(5, m, draw(st.integers(1 if m == 0 else 0, 4 - m)))
    exps = st.tuples(*[st.integers(0, 4)] * ring.nvars)
    return monomials(ring, draw(st.lists(exps, min_size=1, max_size=6)))


@SETTINGS
@given(monomial_ideals())
@example(monomials(PolyRing(5, 0, 2), [(1, 2), (3, 0)]))
@example(monomials(PolyRing(5, 3, 0), [(2, 0, 1), (0, 2, 2)]))
@example(monomials(PolyRing(5, 2, 1), [(1, 0, 1), (0, 0, 0)]))
def test_standard_count_matches_enumeration(gens):
    # Monomials are their own leads.  Degrees -1..9 and bidegrees with
    # both parts in -1..5, so negative and empty pieces are checked too.
    for degree in range(-1, 10):
        assert (standard_monomial_count(gens, degree)
                == enumerated_standard_count(gens, degree)), degree
    for a in range(-1, 6):
        for b in range(-1, 6):
            assert (standard_monomial_count(gens, (a, b))
                    == enumerated_standard_count(gens, (a, b))), (a, b)


@SETTINGS
@given(ideals())
def test_standard_count_is_the_same_cold_and_warm(ideal):
    # Each cold value is computed right after the numerator cache was
    # emptied; the warm ones all read the numerator it then kept.
    _, gens = ideal
    gb = groebner_basis(gens)
    cold = []
    for degree in range(8):
        _hilbert_numerator.cache_clear()
        cold.append(standard_monomial_count(gb, degree))
    assert [standard_monomial_count(gb, degree) for degree in range(8)] == cold


@st.composite
def sequences(draw):
    """One to N sparse forms of degree 1..3 in N = 2..4 variables, split
    into x- and y-blocks in every way."""
    nvars = draw(st.integers(2, 4))
    m = draw(st.integers(0, nvars))
    ring = PolyRing(draw(st.sampled_from([5, 7])), m, nvars - m)
    return draw(st.lists(forms(ring), min_size=1, max_size=nvars))


def test_regular_sequence_matches_initial_ideal_dimension():
    # Forms are a regular sequence exactly when the quotient has dimension
    # N - s, read off the initial ideal by the subset search.
    outcomes = set()

    @SETTINGS
    @given(sequences())
    def check(gens):
        nvars = gens[0].ring.nvars
        dimension = initial_ideal_dimension(groebner_basis(gens))
        regular = is_regular_sequence(gens)
        assert regular == (dimension == nvars - len(gens))
        outcomes.add(regular)

    check()
    assert outcomes == {True, False}


@st.composite
def ci_hilbert_cases(draw):
    """m = 1..12 variables, 0..m degrees and a few j from -3 to past the
    numerator's degree.  Degrees 1..3 leave gaps in the numerator shorter
    than m - 1; degrees m..4m + 4 leave longer ones."""
    m = draw(st.integers(1, 12))
    degree = st.one_of(st.integers(1, 3), st.integers(m, 4 * m + 4))
    degrees = draw(st.lists(degree, max_size=m))
    js = draw(st.lists(st.integers(-3, sum(degrees) + 3), min_size=1,
                       max_size=4))
    return m, degrees, js


@SETTINGS
@given(ci_hilbert_cases())
# Three hundred quadrics in as many variables: an artinian quotient whose
# numerator's coefficients, up to C(300, 150), cancel to its h-vector.
@example((300, [2] * 300, [0, 1, 150, 299, 300, 301, 599, 600, 601]))
def test_ci_hilbert_matches_the_expanded_numerator(case):
    m, degrees, js = case
    for j in js:
        assert (ci_quotient_hilbert(m, degrees, j)
                == expanded_ci_quotient_hilbert(m, degrees, j)), j


@st.composite
def sweep_shapes(draw):
    """A hypersurface shape and a diagonal from the benchmark's sweep range:
    m, n in 2..6, d, e in 0..8 and not both 0, g, h in 1..4."""
    m, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    d = draw(st.integers(0, 8))
    e = draw(st.integers(0 if d else 1, 8))
    return (HypersurfaceSpec(m, n, d, e),
            DiagonalSpec(draw(st.integers(1, 4)), draw(st.integers(1, 4))))


@SETTINGS
@given(sweep_shapes())
def test_closed_forms_match_their_public_compositions(shape):
    spec, diag = shape
    m, n, d, e = spec.m, spec.n, spec.d, spec.e
    top = m + n - 2

    def kunneth(q, k):
        # H^q of the diagonal: H^(q+1) of the (-d, -e)-shifted tensor
        # diagonal below the top, a difference of two top ones at it.
        if q < top:
            return dim_lc_tensor_diag(q + 1, m, n, -d, -e, k, diag)
        return (dim_lc_tensor_diag(top + 1, m, n, -d, -e, k, diag)
                - dim_lc_tensor_diag(top + 1, m, n, 0, 0, k, diag))

    # Below the top every nonzero piece lies in 0 <= k <= 6 on this range;
    # the top rows are the default k range.
    a_inv = a_invariant(spec, diag)
    expected = {(q, k): value for q in range(top) for k in range(-20, 21)
                if (value := kunneth(q, k))}
    expected |= {(top, k): value for k in range(a_inv - 8, a_inv + 1)
                 if (value := kunneth(top, k))}
    assert lc_dim_table(spec, diag) == expected

    i, j = canonical_shift(spec)
    for k in range(-3, 12):
        assert dim_piece(spec, diag, k) == (
            dim_tensor_diag(m, n, 0, 0, k, diag)
            - dim_tensor_diag(m, n, -d, -e, k, diag))
        assert canonical_piece_dim(spec, diag, k) == (
            dim_tensor_diag(m, n, i, j, k, diag)
            - dim_tensor_diag(m, n, i - d, j - e, k, diag))

    # The Rees side of a sweep op: s = min(m, n) forms of degree max(d, 1).
    rees = ReesSpec.polynomial_base(m, min(m, n), max(d, 1))
    g, h = diag.g, diag.h
    for index in range(1, 5):
        assert dim_lc_rees_diag(rees, g, h, index) == (
            full_sum_dim_lc_ci_quotient_power(
                m, rees.k, rees.s, h * index, (g + rees.k * h) * index))


@SETTINGS
@given(st.data())
def test_parse_print_round_trip(data):
    ring = PolyRing(data.draw(st.sampled_from([2, 5, 7, 101])),
                    data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2)))
    f = data.draw(polys(ring))
    assert parse_polynomial(str(f), ring.m, ring.n, ring.p) == f
