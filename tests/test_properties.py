"""Property tests of kernel invariants: the grevlex key, packed monomials,
products against the loop on exponent tuples, the lead of a form containing
x1^d (x1^d*y1^e), reduced Groebner bases (independent of generator order
and repetition), normal forms, standard monomial counts against
enumeration, regular sequences against the dimension of the initial ideal
and the parse/print round trip."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagalg.exactalg import (
    PolyRing,
    _Packing,
    exponent_vectors,
    grevlex_key,
    groebner_basis,
    is_regular_sequence,
    normal_form,
    standard_monomial_count,
)
from diagalg.parsing import parse_polynomial
from oracles import (
    enumerated_standard_count,
    initial_ideal_dimension,
    mono_divides,
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
            assert (grevlex_key(a) > grevlex_key(b)) == _textbook_greater(a, b)


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
        for b, v in zip(monos, packed):
            assert (u < v) == (grevlex_key(a) < grevlex_key(b))
            assert packing.divides(u, v) == mono_divides(a, b)
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


@SETTINGS
@given(distinguished_forms())
def test_distinguished_monomial_is_the_lead(drawn):
    # The F-regularity certificates scale f to monic in x1^d (x1^d*y1^e):
    # that monomial is the largest of its (bi)degree in grevlex.
    f, lead = drawn
    assert f.leading_monomial() == lead


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
@given(st.data())
def test_reduced_basis_ignores_duplicate_generators(data):
    # groebner_basis does not sort its inputs; the basis, down to the order
    # of its terms, must still not depend on their order or repetitions.
    ring, gens = data.draw(ideals())
    repeats = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
    scales = data.draw(st.lists(st.integers(1, ring.p - 1),
                                min_size=len(repeats), max_size=len(repeats)))
    noisy = data.draw(st.permutations(
        gens + [c * g for c, g in zip(scales, repeats)]))
    gb, noisy_gb = groebner_basis(gens), groebner_basis(noisy)
    assert noisy_gb == gb
    assert [list(g.terms.items()) for g in noisy_gb] == [
        list(g.terms.items()) for g in gb]


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


@SETTINGS
@given(st.data())
def test_parse_print_round_trip(data):
    ring = PolyRing(data.draw(st.sampled_from([2, 5, 7, 101])),
                    data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2)))
    f = data.draw(polys(ring))
    assert parse_polynomial(str(f), ring.m, ring.n, ring.p) == f
