"""Property tests of kernel invariants: the grevlex key, packed monomials,
the lead of a form containing x1^d (x1^d*y1^e), reduced Groebner bases,
normal forms and the parse/print round trip."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagalg.exactalg import (
    PolyRing,
    _Packing,
    exponent_vectors,
    grevlex_key,
    groebner_basis,
    mono_divides,
    mono_mul,
    normal_form,
)
from diagalg.parsing import parse_polynomial

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
                assert u + v == packing.pack(mono_mul(a, b))


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
def test_normal_form_is_idempotent_and_ideal_invariant(data):
    ring, gens = data.draw(ideals())
    gb = groebner_basis(gens)
    f = data.draw(polys(ring))
    h = data.draw(polys(ring, max_degree=2))
    r = normal_form(f, gb)
    assert normal_form(r, gb) == r
    for g in gb:
        assert normal_form(f + h * g, gb) == r


@SETTINGS
@given(st.data())
def test_parse_print_round_trip(data):
    ring = PolyRing(data.draw(st.sampled_from([2, 5, 7, 101])),
                    data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2)))
    f = data.draw(polys(ring))
    assert parse_polynomial(str(f), ring.m, ring.n, ring.p) == f
