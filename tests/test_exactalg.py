"""Kernel tests: fields, polynomials, Groebner bases, normal forms, counts."""

import itertools
import random
import re
from math import comb

import pytest

from diagalg import exactalg
from diagalg.errors import (
    DegreeCapError,
    PreconditionError,
    RingContextError,
)
from diagalg.exactalg import (
    ROW_CAP,
    VARIABLE_CAP,
    MultiPoly,
    PolyRing,
    _buchberger,
    _hilbert_numerator,
    check_rows,
    exponent_vectors,
    groebner_basis,
    is_regular_sequence,
    normal_form,
    power_ideal_gens,
    s_polynomial,
    standard_monomial_count,
)
from diagalg.frobenius import random_biform
from oracles import (
    grevlex_key,
    initial_ideal_dimension,
    mono_divides,
    reduce_calls,
    textbook_groebner_basis,
)


def ring3(p=5):
    return PolyRing(p, 3)


def random_poly(ring, rng, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_exp + 1) for _ in range(ring.nvars))
        terms[exps] = rng.randrange(1, ring.p)
    return ring.poly(terms)


# ---------------------------------------------------------------------------
# fields and rings

def test_prime_field_validation():
    assert PolyRing(2, 1).p == 2
    assert PolyRing(2**31 - 1, 1).p == 2**31 - 1  # Mersenne prime
    for bad in (0, 1, 4, 9, 2**31 + 11):
        with pytest.raises(PreconditionError):
            PolyRing(bad, 1)


def test_ring_accessors():
    ring = PolyRing(7, 2, 2)
    assert [str(ring.gen(i)) for i in range(4)] == ["x1", "x2", "y1", "y2"]
    assert ring.x(1) * ring.y(2) == ring.poly({(1, 0, 0, 1): 1})
    with pytest.raises(PreconditionError):
        ring.x(3)
    with pytest.raises(PreconditionError):
        ring.y(3)
    for m, n in ((0, 0), (1.5, 0), (2, 0.5), ("2", 1)):
        with pytest.raises(PreconditionError, match="need integers m, n"):
            PolyRing(7, m, n)
    for exps in ((1,), (1, 0, -1, 0), (1.5, 0, 0, 0)):
        with pytest.raises(PreconditionError, match="bad exponent vector"):
            MultiPoly(ring, {exps: 1})
    small = ring3()
    with pytest.raises(PreconditionError, match="bad exponent vector"):
        small.poly({(1.5, 0, 0): 1})
    for c in (2.5, 2.0, "2"):
        with pytest.raises(PreconditionError, match="coefficient must be an integer"):
            small.poly({(1, 0, 0): c})
        with pytest.raises(PreconditionError, match="coefficient must be an integer"):
            small.const(c)
    for idx in (3, -1, 7, 1.0):
        with pytest.raises(PreconditionError, match="no variable of index"):
            small.gen(idx)
    assert [str(small.gen(i)) for i in range(3)] == ["x1", "x2", "x3"]


def test_variable_and_row_caps():
    # A ring of VARIABLE_CAP variables is built, one more is refused; a
    # count of ROW_CAP rows passes check_rows, one more is refused.
    assert PolyRing(5, VARIABLE_CAP - 1, 1).nvars == VARIABLE_CAP
    with pytest.raises(PreconditionError, match="variable cap 1000"):
        PolyRing(5, VARIABLE_CAP, 1)
    check_rows(ROW_CAP, "a range")
    with pytest.raises(DegreeCapError,
                       match="a range of 100001 rows exceeds the row cap"):
        check_rows(ROW_CAP + 1, "a range")


def test_poly_arithmetic_mod_p():
    ring = ring3(5)
    x1, x2, x3 = ring.gens()
    assert x1 + x1 + x1 + x1 + x1 == 0
    assert (x1 + x2) * (x1 - x2) == x1**2 - x2**2
    assert (x1 + 1) ** 5 == x1**5 + 1  # char-5 Frobenius
    assert 3 * x1 - x1 == 2 * x1
    assert 1 - x1 == -(x1 - 1)
    assert (x1 * x2).total_degree() == 2


def test_poly_context_mismatch():
    a = ring3(5).x(1)
    b = ring3(7).x(1)
    with pytest.raises(RingContextError):
        a + b
    # Anything but a polynomial of the ring or an int is not coerced.
    for op in (lambda: a + "x", lambda: a * 1.5, lambda: a - "x",
               lambda: "x" - a):
        with pytest.raises(TypeError):
            op()
    assert (a == "x") is False


def test_bidegree():
    ring = PolyRing(5, 2, 2)
    f = ring.x(1) * ring.y(1) + ring.x(2) * ring.y(2)
    assert f.is_bihomogeneous() and f.bidegree() == (1, 1)
    g = ring.x(1) + ring.y(1)
    assert g.is_homogeneous() and not g.is_bihomogeneous()
    with pytest.raises(PreconditionError):
        g.bidegree()


def test_poly_str_canonical():
    ring = ring3(5)
    x1, x2, x3 = ring.gens()
    assert str(x1**2 + x2 * x3) == "x1^2 + x2*x3"
    assert str(ring.zero()) == "0"
    assert str(4 * x2**3 * x3**3) == "4*x2^3*x3^3"
    assert str(ring.const(3)) == "3"


# ---------------------------------------------------------------------------
# the monomial order

def test_grevlex_vs_lex():
    ring = ring3(5)
    # x1*x3^2 vs x2^2*x3: same degree; grevlex compares reversed exponents,
    # so it picks x2^2*x3 where lex would pick x1*x3^2.
    a, b = (1, 0, 2), (0, 2, 1)
    assert grevlex_key(b) > grevlex_key(a)
    f = ring.x(1) * ring.x(3) ** 2 + ring.x(2) ** 2 * ring.x(3)
    assert f.leading_monomial() == b


def test_grevlex_refines_degree():
    assert grevlex_key((3, 0, 0)) > grevlex_key((1, 1, 0))
    assert grevlex_key((1, 0, 0)) > grevlex_key((0, 0, 1))


# ---------------------------------------------------------------------------
# Groebner bases

def test_groebner_principal_monomial():
    ring = ring3(5)
    assert groebner_basis([ring.x(1)]) == [ring.x(1)]


def test_groebner_witness_ideal():
    # One S-polynomial closure check done by hand: all leading monomials are
    # pairwise coprime, so the generators are already a reduced basis.
    ring = ring3(5)
    x1, x2, x3 = ring.gens()
    gb = groebner_basis([x2**5, x3**5, x1**2 + x2 * x3])
    assert sorted(map(str, gb)) == ["x1^2 + x2*x3", "x2^5", "x3^5"]
    leads = {g.leading_monomial() for g in gb}
    assert {(2, 0, 0), (0, 5, 0), (0, 0, 5)} <= leads


def test_groebner_one_reduction():
    ring = ring3(5)
    x1, x2, x3 = ring.gens()
    gb = groebner_basis([x1 * x2 - x3**2, x1])
    assert gb == [x1, x3**2]


def test_groebner_rejects_zero_and_mixed():
    ring = ring3(5)
    with pytest.raises(PreconditionError):
        groebner_basis([ring.x(1), ring.zero()])
    with pytest.raises(RingContextError, match=re.escape(
            "mixed ring contexts: ['PolyRing(p=5, m=3, n=0)', "
            "'PolyRing(p=7, m=3, n=0)']")):
        groebner_basis([ring.x(1), ring.x(2), ring3(7).x(1)])
    assert groebner_basis([]) == []


def test_equal_rings_that_are_distinct_objects_mix():
    # The ring check compares by identity first, then by equality.
    a, b = PolyRing(5, 3), PolyRing(5, 3)
    assert a is not b
    f, g = a.x(1) ** 2 + a.x(2) * a.x(3), b.x(2) ** 2 + b.x(1) * b.x(3)
    gb = groebner_basis([f, g])
    assert gb == groebner_basis([f, a.x(2) ** 2 + a.x(1) * a.x(3)])
    assert not normal_form(f * b.x(3), gb)
    assert power_ideal_gens([f, g], 2)[1] == f * g


def test_groebner_deterministic_and_permutation_stable():
    ring = ring3(101)
    x1, x2, x3 = ring.gens()
    gens = [x1**2 + 3 * x2 * x3, x2**3 - x3**3 + x1 * x2 * x3, x1 * x3 + x2**2]
    gb1 = groebner_basis(gens)
    gb2 = groebner_basis(gens)
    gb3 = groebner_basis(list(reversed(gens)))
    assert gb1 == gb2 == gb3


def test_groebner_spair_closure_and_containment():
    # The definitive correctness check: every S-pair of the output reduces to
    # zero and every input generator reduces to zero.
    rng = random.Random(7)
    for trial in range(8):
        ring = PolyRing(rng.choice([5, 7, 101]), rng.choice([2, 3]))
        gens = [random_poly(ring, rng) for _ in range(rng.randrange(2, 4))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        gb = groebner_basis(gens)
        for g in gens:
            assert normal_form(g, gb).is_zero
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                s = s_polynomial(gb[i], gb[j])
                assert normal_form(s, gb).is_zero


def test_buchberger_reduces_generators_on_entry():
    # The ten generators of I^3 for three dense quadrics all have the lead
    # x1^6.  Each generator after the first is reduced by the basis before
    # it joins, so no lead is kept twice.
    ring = ring3(101)
    rng = random.Random(3)
    forms = [ring.poly({e: rng.randrange(1, 101)
                        for e in exponent_vectors(2, 3)}) for _ in range(3)]
    assert is_regular_sequence(forms)
    gens = power_ideal_gens(forms, 3)
    assert len(gens) == 10
    assert {g.leading_monomial() for g in gens} == {(6, 0, 0)}
    _, basis, _ = _buchberger(gens, ring)
    leads = [lt for lt, _ in basis]
    assert len(set(leads)) == len(leads)


def test_groebner_widens_packed_fields(monkeypatch):
    # Mora's ideals: the basis reaches degree n^2 + 1 from generators of
    # degree n + 1.  Expected n = 4 basis recorded with the tuple kernel.
    # For n = 6 a pair lcm of degree above 31 outgrows the packing for four
    # times the input degree 7, so the run restarts in a wider packing.
    ring = PolyRing(7, 4)
    x1, x2, x3, x4 = ring.gens()

    def mora(n):
        return [x1**(n + 1) - x2 * x3**(n - 1) * x4,
                x1 * x2**(n - 1) - x3**n, x1**n * x3 - x2**n * x4]

    assert [str(g) for g in groebner_basis(mora(4))] == [
        "x1*x2^3 + 6*x3^4", "x1^4*x3 + 6*x2^4*x4", "x1^5 + 6*x2*x3^3*x4",
        "x1^3*x3^5 + 6*x2^7*x4", "x1^2*x3^9 + 6*x2^10*x4",
        "x1*x3^13 + 6*x2^13*x4", "x3^17 + 6*x2^16*x4"]
    degrees, packing = [], exactalg._packing

    def counting_packing(nvars, degree):
        degrees.append(degree)
        return packing(nvars, degree)

    gens = mora(6)
    monkeypatch.setattr(exactalg, "_packing", counting_packing)
    gb = groebner_basis(gens)
    assert degrees[0] == 28 and len(degrees) == 2 and degrees[1] > 2 * 31
    assert max(g.total_degree() for g in gb) == 37
    assert gb == textbook_groebner_basis(gens)


def test_groebner_reduced_property():
    # No term of a reduced basis element is divisible by another's lead.
    ring = ring3(101)
    x1, x2, x3 = ring.gens()
    gb = groebner_basis([x1**2 - x2 * x3, x2**2 - x1 * x3, x3**2 - x1 * x2])
    leads = [g.leading_monomial() for g in gb]
    for idx, g in enumerate(gb):
        assert g.terms[leads[idx]] == 1
        for mono in g.terms:
            for jdx, lead in enumerate(leads):
                if jdx == idx:
                    continue
                assert not all(a <= b for a, b in zip(lead, mono))


# ---------------------------------------------------------------------------
# normal forms and membership

def test_normal_form_examples():
    ring = ring3(5)
    x1, x2, x3 = ring.gens()
    assert normal_form(x1, [x1]).is_zero
    gb = groebner_basis([x2**5, x3**5, x1**2 + x2 * x3])
    # x1^2 = -x2*x3 modulo the ideal, so x1^6 = -x2^3*x3^3 = 4*x2^3*x3^3.
    assert normal_form(x1**6, gb) == 4 * x2**3 * x3**3
    untouched = x2**4 + x3
    assert normal_form(untouched, gb) == untouched
    assert normal_form(untouched, []) is untouched
    with pytest.raises(PreconditionError,
                       match="zero polynomial in the reducer list"):
        normal_form(untouched, [ring.zero()])


def test_normal_form_idempotent():
    rng = random.Random(11)
    ring = PolyRing(7, 3)
    gens = [random_poly(ring, rng) for _ in range(2)]
    gb = groebner_basis(gens)
    for _ in range(20):
        f = random_poly(ring, rng, max_terms=6)
        r = normal_form(f, gb)
        assert normal_form(r, gb) == r


def _reference_normal_form(f, gb):
    # The division normal_form replaced: the lead is max(work) under
    # grevlex_key, and the first reducer whose lead divides it reduces it.
    p = f.ring.p
    reducers = []
    for g in gb:
        lt = max(g.terms, key=grevlex_key)
        reducers.append((lt, pow(g.terms[lt], -1, p), g))
    work = dict(f.terms)
    remainder = {}
    while work:
        u = max(work, key=grevlex_key)
        c = work.pop(u)
        for lt, lcinv, g in reducers:
            if mono_divides(lt, u):
                break
        else:
            remainder[u] = c
            continue
        shift = tuple(y - x for x, y in zip(lt, u))
        factor = c * lcinv % p
        for mon, cc in g.terms.items():
            if mon == lt:
                continue
            mm = tuple(a + b for a, b in zip(mon, shift))
            v = (work.get(mm, 0) - factor * cc) % p
            if v:
                work[mm] = v
            elif mm in work:
                del work[mm]
    return remainder


def _reference_s_polynomial(f, g):
    p = f.ring.p
    ltf = max(f.terms, key=grevlex_key)
    ltg = max(g.terms, key=grevlex_key)
    lcm = tuple(map(max, ltf, ltg))
    out = {}
    for h, lt, sign in ((f, ltf, 1), (g, ltg, -1)):
        scale = sign * pow(h.terms[lt], -1, p)
        for mon, c in h.terms.items():
            mm = tuple(a + b - e for a, b, e in zip(mon, lcm, lt))
            out[mm] = (out.get(mm, 0) + scale * c) % p
    return {mon: c for mon, c in out.items() if c}


def test_normal_form_matches_reference_division():
    # Reducer lists that are not Groebner bases, as inside Buchberger's
    # loop: repeated leads, leads that are not monic, more reducers than
    # variables, and reducers above f's degree.  The remainder must be the
    # same terms in the same order.
    rng = random.Random(17)
    for trial in range(60):
        ring = PolyRing(rng.choice([2, 5, 7, 101]), rng.choice([2, 3, 4]))
        reducers = [random_poly(ring, rng, max_terms=5)
                    for _ in range(ring.nvars + rng.randrange(1, 4))]
        twin = reducers[rng.randrange(len(reducers))]
        lead = twin.leading_monomial()
        tail = random_poly(ring, rng, max_terms=3, max_exp=1)
        tail = ring.poly({mono: c for mono, c in tail.terms.items()
                          if grevlex_key(mono) < grevlex_key(lead)})
        reducers.insert(rng.randrange(len(reducers) + 1),
                        ring.poly({lead: rng.randrange(1, ring.p)}) + tail)
        f = random_poly(ring, rng, max_terms=8, max_exp=4)
        expected = _reference_normal_form(f, reducers)
        assert list(normal_form(f, reducers).terms.items()) == list(expected.items())
        g, h = rng.sample(reducers, 2)
        assert s_polynomial(g, h).terms == _reference_s_polynomial(g, h)


def test_truncated_power_matches_full_power():
    # f ** k and pow(f, k, q) run the same packed code, so the oracle is a
    # product of k copies of f by the tuple __mul__, filtered afterwards.
    rng = random.Random(19)
    for trial in range(30):
        ring = PolyRing(rng.choice([2, 3, 5, 7]), rng.choice([1, 2, 3]))
        f = random_poly(ring, rng, max_terms=4, max_exp=2)
        k, q = rng.randrange(0, 7), rng.randrange(1, 9)
        full = ring.one()
        for _ in range(k):
            full = full * f
        assert (f ** k).terms == full.terms
        expected = {mono: c for mono, c in full.terms.items() if max(mono) < q}
        assert pow(f, k, q).terms == expected
    ring = ring3(5)
    assert pow(ring.zero(), 3, 5).is_zero
    assert pow(ring.zero(), 0, 5) == ring.one()
    assert pow(ring.x(1) + ring.x(2), 0, 1) == ring.one()
    assert ring.x(2) ** 0 == ring.one()
    for k, q in [(-1, 5), (2, 0), (2, -3), (2, 2.0), (2.0, 2)]:
        with pytest.raises(PreconditionError):
            pow(ring.x(1), k, q)
    # Refused exactly where the full power is: a dense cubic in 4 variables
    # to the 100th may have comb(304, 4) > MONOMIAL_CAP terms.
    ring = PolyRing(101, 4)
    cubic = (ring.x(1) + ring.x(2) + ring.x(3) + ring.x(4)) ** 3
    for power in (lambda: cubic ** 100, lambda: pow(cubic, 100, 101)):
        with pytest.raises(DegreeCapError):
            power()


def test_product_over_monomial_cap():
    # 3163 * 3163 and 4000 * 2501 candidate monomials exceed MONOMIAL_CAP
    # = 10^7, so * and the squaring inside ** refuse before multiplying;
    # the power's own term-count bound, comb(3164, 2), is under the cap.
    ring = PolyRing(101, 2)
    f = ring.poly({(i, 0): 1 for i in range(3163)})
    g = ring.poly({(0, j): 1 for j in range(2501)})
    for product in (lambda: f ** 2, lambda: pow(f, 2, 7000),
                    lambda: ring.poly({(i, 0): 1 for i in range(4000)}) * g):
        with pytest.raises(DegreeCapError):
            product()


def in_ideal(gens, f):
    return normal_form(f, groebner_basis(gens)).is_zero


def test_ideal_contains_examples():
    ring = ring3(5)
    x1, x2, x3 = ring.gens()
    assert not in_ideal([x1**2, x2**2], x1 * x2)
    assert not in_ideal([x2**5, x3**5, x1**2 + x2 * x3], x1**6)
    assert in_ideal([x1**2], x1**2 * x2)
    assert in_ideal([x1], ring.zero())


def test_ideal_contains_multiplicative():
    rng = random.Random(13)
    ring = PolyRing(7, 3)
    gens = [random_poly(ring, rng) for _ in range(2)]
    member = gens[0] * random_poly(ring, rng) + gens[1] * random_poly(ring, rng)
    for _ in range(10):
        factor = random_poly(ring, rng)
        assert in_ideal(gens, factor * member)


# ---------------------------------------------------------------------------
# standard monomial counts

def test_count_zero_ideal_examples():
    ring = ring3(5)
    assert standard_monomial_count([ring.x(1) ** 3], 2) == 6
    two_vars = PolyRing(5, 2)
    gb = groebner_basis([two_vars.x(1)])
    for k in range(0, 11):
        assert standard_monomial_count(gb, k) == 1


def test_count_zero_ideal_grid():
    for m in range(1, 7):
        ring = PolyRing(5, m)
        for k in range(0, 11):
            above = [ring.x(1) ** (k + 1)]
            assert standard_monomial_count(above, k) == comb(k + m - 1, m - 1)


def _ci_series_coeff(m, k, s, j):
    # coefficient of t^j in (1 - t^k)^s / (1 - t)^m
    total = 0
    for i in range(s + 1):
        if j - k * i < 0:
            break
        total += (-1) ** i * comb(s, i) * comb(j - k * i + m - 1, m - 1)
    return total


def test_count_two_generic_quadrics():
    rng = random.Random(0)
    ring = PolyRing(101, 3)
    for attempt in range(10):
        gens = []
        for _ in range(2):
            terms = {}
            for exps in [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]:
                terms[exps] = rng.randrange(1, 101)
            gens.append(ring.poly(terms))
        if is_regular_sequence(gens):
            break
    else:
        pytest.fail("could not sample a regular sequence of quadrics")
    gb = groebner_basis(gens)
    assert standard_monomial_count(gb, 2) == 4
    for j in range(0, 13):
        assert standard_monomial_count(gb, j) == _ci_series_coeff(3, 2, 2, j)


def test_count_equal_degree_ci_series():
    # s forms of degree k in m variables, certified regular, match the
    # closed-form series through degree 12.
    rng = random.Random(5)
    for m, k, s in [(3, 2, 2), (4, 2, 3), (3, 3, 2)]:
        ring = PolyRing(101, m)
        for attempt in range(10):
            gens = []
            for _ in range(s):
                terms = {exps: rng.randrange(1, 101)
                         for exps in _exponents(k, m)}
                gens.append(ring.poly(terms))
            if is_regular_sequence(gens):
                break
        else:
            pytest.fail(f"no regular sequence found for {(m, k, s)}")
        gb = groebner_basis(gens)
        for j in range(0, 13):
            assert standard_monomial_count(gb, j) == _ci_series_coeff(m, k, s, j)


def _exponents(total, length):
    return list(exponent_vectors(total, length))


def test_exponent_vectors_descend_in_lex_order():
    # random_biform draws its coefficients in this order, so seeded forms
    # depend on it.  Length 0 and negative totals included.
    for length in range(6):
        for total in range(-2, 7):
            expected = sorted((e for e in itertools.product(
                range(total + 1), repeat=length) if sum(e) == total),
                reverse=True)
            assert _exponents(total, length) == expected, (total, length)


def test_count_bidegree():
    ring = PolyRing(5, 2, 2)
    above = [ring.x(1) ** 2]
    assert standard_monomial_count(above, (1, 1)) == 4
    f = ring.x(1) * ring.y(1) + ring.x(2) * ring.y(2)
    assert standard_monomial_count(groebner_basis([f]), (1, 1)) == 3
    assert standard_monomial_count(above, (-1, 2)) == 0


def test_count_rejects_inhomogeneous():
    ring = ring3(5)
    with pytest.raises(PreconditionError):
        standard_monomial_count([ring.x(1) + ring.x(1) ** 2], 2)
    mixed = PolyRing(5, 2, 2)
    g = mixed.x(1) + mixed.y(1)  # homogeneous but not bihomogeneous
    with pytest.raises(PreconditionError):
        standard_monomial_count([g], (1, 0))
    with pytest.raises(PreconditionError):
        standard_monomial_count([], 3)  # no ring to count in


@pytest.mark.parametrize("degree, named", [
    (2.0, r"degree must be an integer or a pair of integers: 2\.0"),
    ("2", r"degree must be an integer or a pair of integers: '2'"),
    ((1, 1.0), r"degree must be an integer: 1\.0"),
    ((1, "1"), r"degree must be an integer: '1'"),
    ((1, 1, 1), r"degree must be an integer or a pair of integers"),
])
def test_count_refuses_a_degree_that_is_not_an_integer_or_pair(degree, named):
    # A float raised "cannot unpack non-iterable float object", a pair with
    # a float a TypeError from inside the count.
    ring = PolyRing(5, 2, 2)
    with pytest.raises(PreconditionError, match=named):
        standard_monomial_count([ring.x(1) ** 2], degree)
    with pytest.raises(PreconditionError, match="zero polynomial in the basis"):
        standard_monomial_count([ring.zero()], 1)


def test_count_refuses_inhomogeneous_on_every_call():
    # Each polynomial keeps its (bi)degrees after the first scan, so a
    # refused basis element is refused again, with the same message, and a
    # homogeneous one that is not bihomogeneous is still counted by degree.
    ring = PolyRing(5, 2, 2)
    g = ring.x(1) + ring.y(1)
    h = ring.x(1) + ring.x(1) ** 2
    for _ in range(3):
        with pytest.raises(PreconditionError) as exc:
            standard_monomial_count([g], (1, 0))
        assert str(exc.value) == "basis element not bihomogeneous: x1 + y1"
        assert standard_monomial_count([g], 1) == 3
        with pytest.raises(PreconditionError) as exc:
            standard_monomial_count([h], 2)
        assert str(exc.value) == "basis element not homogeneous: x1^2 + x1"
        with pytest.raises(PreconditionError):
            h.bidegree()
    assert g.is_homogeneous() and not g.is_bihomogeneous()
    assert (ring.x(2) * ring.y(1)).bidegree() == (1, 1)


def test_count_degree_cap():
    # Over 4 * 10^10 monomials: the enumeration refused this degree; the
    # Hilbert series counts it exactly.
    ring = PolyRing(5, 12)
    assert standard_monomial_count([ring.x(1) ** 41], 40) == comb(51, 11)


def test_count_deep_staircase():
    # (x1, x2)^2000 as 2001 leads in k[x1, x2, y1]: the pivot recursion
    # splits it about 2000 times, on a stack of its own, not Python's.
    ring = PolyRing(5, 2, 1)
    top = 2000
    leads = [ring.poly({(i, top - i, 0): 1}) for i in range(top + 1)]
    assert standard_monomial_count(leads, (top - 1, 7)) == top
    assert standard_monomial_count(leads, (top, 7)) == 0
    assert standard_monomial_count(leads, top - 1) == comb(top + 1, 2)
    assert standard_monomial_count(leads, 10) == comb(12, 2)


def test_count_reuses_one_numerator_per_basis():
    # The Hilbert numerator depends only on the lead ideal: every degree
    # asked of one basis reads one cached numerator.
    ring = PolyRing(101, 3)
    x1, x2, x3 = ring.gens()
    gb = groebner_basis([x1 ** 2 + 3 * x2 * x3, x2 ** 3 - x1 * x3 ** 2])
    _hilbert_numerator.cache_clear()
    top = 9
    counts = [standard_monomial_count(gb, j) for j in range(top + 1)]
    info = _hilbert_numerator.cache_info()
    assert (info.misses, info.hits) == (1, top)
    assert counts == [standard_monomial_count(gb, j) for j in range(top + 1)]
    # Bounded: more distinct lead ideals than it keeps.
    for k in range(1, info.maxsize + 10):
        assert standard_monomial_count([x1 ** k], k) == comb(k + 2, 2) - 1
    assert _hilbert_numerator.cache_info().currsize <= info.maxsize
    # A kept value is a tuple of tuples of integers: hashable, so no part
    # of it can be changed by a caller.
    value = _hilbert_numerator(tuple(g.leading_monomial() for g in gb), ring.m)
    assert isinstance(value, tuple)
    hash(value)
    with pytest.raises(TypeError):
        value[0] = ((0, 0), 1)


@pytest.mark.parametrize("m, k, s, run_calls", [(4, 3, 2, 13), (3, 2, 3, 58)])
def test_basis_of_a_power_divides_only_in_buchberger(m, k, s, run_calls):
    # I^3 of s dense k-forms in m variables over F_101, drawn as the
    # benchmark's oracle workload draws them.  Every generator of I^3 has
    # degree 3k, so no later lead has a lower degree and the finishing pass
    # substitutes every tail: it makes no division.  The run's own count is
    # the one recorded before the finishing pass substituted and the chain
    # criterion was written out, so neither changed a decision of the run.
    rng = random.Random(0)
    forms = [random_biform(m, 0, k, 0, 101, rng.randrange(2**31))
             for _ in range(s)]
    while not is_regular_sequence(forms):
        forms = [random_biform(m, 0, k, 0, 101, rng.randrange(2**31))
                 for _ in range(s)]
    gens = power_ideal_gens(forms, 3)
    with reduce_calls() as calls:
        gb = groebner_basis(gens)
    assert calls == {"run": run_calls, "finish": 0}
    for g in gens:
        assert not normal_form(g, gb)


# ---------------------------------------------------------------------------
# ideal powers

def test_power_ideal_gens_examples():
    ring = ring3(5)
    x1, x2, _ = ring.gens()
    assert power_ideal_gens([x1, x2], 2) == [x1**2, x1 * x2, x2**2]
    assert power_ideal_gens([x1], 3) == [x1**3]
    with pytest.raises(PreconditionError):
        power_ideal_gens([x1], 0)
    # Used to raise TypeError from itertools.
    with pytest.raises(PreconditionError, match=r"r must be an integer: 1\.5"):
        power_ideal_gens([x1], 1.5)
    assert power_ideal_gens([], 2) == []


def test_power_ideal_gens_count_and_dedup():
    ring = ring3(101)
    x1, x2, x3 = ring.gens()
    for s, r in [(2, 3), (3, 2)]:
        gens = [x1 + s * x2, x2 + x3, x3 + 2 * x1][:s]
        assert len(power_ideal_gens(gens, r)) == comb(s + r - 1, r)
    assert power_ideal_gens([x1, x1], 2) == [x1**2]


# ---------------------------------------------------------------------------
# dimension of the initial ideal / regular sequences

def test_initial_ideal_dimension():
    ring = ring3(5)
    x1, x2, x3 = ring.gens()
    assert initial_ideal_dimension([x1 ** 2 * x2 * x3]) == 2
    assert initial_ideal_dimension(groebner_basis([x1])) == 2
    assert initial_ideal_dimension(groebner_basis([x1, x2, x3])) == 0
    assert initial_ideal_dimension([ring.one()]) == -1
    with pytest.raises(PreconditionError):
        initial_ideal_dimension([])


def test_is_regular_sequence():
    ring = ring3(5)
    x1, x2, x3 = ring.gens()
    assert is_regular_sequence([x1, x2])
    assert is_regular_sequence([x1, x2, x3])
    assert not is_regular_sequence([x1, x1 * x2])
    assert not is_regular_sequence([x1, x2, x3, x1])
    with pytest.raises(PreconditionError):
        is_regular_sequence([x1 + 1, x2])
    with pytest.raises(PreconditionError, match="empty generator list"):
        is_regular_sequence([])
    # Both blocks: Stanley's criterion is singly graded, so y-variables
    # count exactly like x-variables.
    ring = PolyRing(5, 2, 2)
    x1, x2, y1 = ring.x(1), ring.x(2), ring.y(1)
    assert is_regular_sequence([y1])
    assert is_regular_sequence([x2, y1])
    assert is_regular_sequence([x1 * y1])
    assert not is_regular_sequence([y1, x1 * y1])
