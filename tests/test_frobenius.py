"""Characteristic-p certificate tests: F-purity, membership searches, the
Groebner kernel's work on certificate ideals, witnesses."""

import itertools
from math import comb

import pytest

from diagalg import exactalg
from diagalg.errors import (
    DegreeCapError,
    PreconditionError,
    RingContextError,
)
from diagalg.exactalg import PolyRing, groebner_basis, normal_form
from diagalg.frobenius import (
    VERDICT_F_REGULAR,
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_F_PURE,
    VERDICT_NOT_F_REGULAR,
    f_regular_certificate_bigraded,
    f_regular_certificate_graded,
    fedder_is_f_pure,
    random_biform,
    recheck_certificate,
    witness_graded,
)
from diagalg.hypersurface import HypersurfaceSpec, is_f_regular_type_generic
from oracles import witness_bigraded, witness_fpure


def squarefree(ring, d):
    f = ring.one()
    for i in range(1, d + 1):
        f = f * ring.x(i)
    return f


# ---------------------------------------------------------------------------
# F-purity

def test_fedder_examples():
    ring = PolyRing(2, 2)
    assert fedder_is_f_pure(ring.x(1) * ring.x(2))
    assert not fedder_is_f_pure(ring.x(1) ** 2)
    ring3 = PolyRing(3, 4)
    assert fedder_is_f_pure(squarefree(ring3, 3))


def test_fedder_squarefree_grid():
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, 6):
            ring = PolyRing(p, m)
            for d in range(1, m + 1):
                assert fedder_is_f_pure(squarefree(ring, d)), (p, m, d)


def test_fedder_preconditions():
    ring = PolyRing(5, 2)
    with pytest.raises(PreconditionError):
        fedder_is_f_pure(ring.zero())
    with pytest.raises(PreconditionError):
        fedder_is_f_pure(ring.x(1) + 1)


def test_fedder_termwise_matches_groebner_membership():
    # Groebner membership in (x_i^p) is the oracle for the termwise test.
    def oracle(f):
        p = f.ring.p
        gb = groebner_basis([v ** p for v in f.ring.gens()])
        return not normal_form(f ** (p - 1), gb).is_zero

    cases = []
    for p in (2, 3, 5, 7):
        for seed in range(3):
            cases.append(random_biform(3, 0, 2, 0, p, seed))
            cases.append(random_biform(2, 2, 1, 1, p, seed))
        cases.append(random_biform(3, 0, 3, 0, p, 0))
        ring = PolyRing(p, 3)
        cases.append((ring.x(1) + ring.x(2) + ring.x(3)) ** p)
        cases.append(witness_fpure(2, 3, p))
        cases.append(witness_fpure(2, 3, p, e=1, n=2))
    verdicts = set()
    for f in cases:
        verdict = fedder_is_f_pure(f)
        assert verdict == oracle(f), str(f)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_fedder_large_prime_is_immediate():
    ring = PolyRing(2147483647, 2)
    assert fedder_is_f_pure(ring.x(1) * ring.x(2))


def test_fpure_witness_linear_change():
    # x1*(x1+x2)*...*(x1+x_d) is the squarefree monomial after a linear
    # change of variables, so it stays F-pure and is monic in x1^d.
    for p in (2, 3, 5):
        for d, m in [(1, 2), (2, 2), (2, 4), (3, 4)]:
            f = witness_fpure(d, m, p)
            assert f.terms.get(tuple([d] + [0] * (m - 1))) == 1
            assert fedder_is_f_pure(f)


def test_fpure_witness_bigraded():
    f = witness_fpure(2, 3, 3, e=1, n=2)
    assert str(f) == "x1*x2*y1"
    assert fedder_is_f_pure(f)


# ---------------------------------------------------------------------------
# graded certificates

def test_graded_certificate_on_witness():
    cert = f_regular_certificate_graded(witness_graded(2, 3, 5), 2, 3, 5)
    assert cert.verdict == VERDICT_F_REGULAR
    assert cert.q_used == 5
    assert cert.socle == "x1^6"
    assert cert.normal_form == "4*x2^3*x3^3"
    assert cert.tested_powers == [5]
    assert cert.assumptions


def test_graded_certificate_not_f_pure():
    ring = PolyRing(5, 3)
    cert = f_regular_certificate_graded(ring.x(1) ** 2, 2, 3, 5)
    assert cert.verdict == VERDICT_NOT_F_PURE


def test_graded_certificate_a_invariant_branch():
    ring = PolyRing(5, 3)
    f = squarefree(ring, 3)
    cert = f_regular_certificate_graded(f, 3, 3, 5)
    assert cert.verdict == VERDICT_NOT_F_REGULAR
    assert "a-invariant" in cert.details


def test_graded_certificate_inconclusive():
    # x1^2 + x2^2 over F_5 splits into two planes: F-pure and normalized but
    # not F-regular, so the socle stays inside the ideal at every power.
    ring = PolyRing(5, 3)
    f = ring.x(1) ** 2 + ring.x(2) ** 2
    cert = f_regular_certificate_graded(f, 2, 3, 5, e_max=2)
    assert cert.verdict == VERDICT_INCONCLUSIVE
    assert cert.tested_powers == [5, 25]


def test_graded_certificate_needs_distinguished_power():
    # x1*x2 is F-pure but x2, x3 are not parameters on it; the criterion
    # requires the pure power x1^d to occur, so this is a precondition error
    # rather than a (vacuously true) certificate.
    ring = PolyRing(5, 3)
    with pytest.raises(PreconditionError):
        f_regular_certificate_graded(ring.x(1) * ring.x(2), 2, 3, 5)


def test_graded_certificate_rescales_distinguished_power():
    ring = PolyRing(5, 3)
    f = 2 * ring.x(1) ** 2 + 2 * ring.x(2) * ring.x(3)
    cert = f_regular_certificate_graded(f, 2, 3, 5)
    assert cert.verdict == VERDICT_F_REGULAR
    assert "x1^2 + x2*x3" in cert.ideal_generators


def test_graded_certificate_context_checks():
    ring = PolyRing(5, 3)
    with pytest.raises(RingContextError):
        f_regular_certificate_graded(witness_graded(2, 3, 5), 2, 4, 5)
    with pytest.raises(PreconditionError):
        f_regular_certificate_graded(ring.x(1) + ring.x(2) ** 2, 2, 3, 5)
    # A constant form would send a negative socle exponent into the search.
    with pytest.raises(PreconditionError, match=r"need degree d >= 1: 0"):
        f_regular_certificate_graded(ring.one(), 0, 3, 5)
    with pytest.raises(PreconditionError,
                       match=r"need an integer e_max >= 1: 0"):
        f_regular_certificate_graded(witness_graded(2, 3, 5), 2, 3, 5, e_max=0)
    # Non-integer d, m or p used to raise TypeError or AttributeError.
    for args, name in (((2.0, 3, 5), "d"), ((2, 3.0, 5), "m"),
                       ((2, 3, 5.0), "p")):
        with pytest.raises(PreconditionError,
                           match=f"{name} must be an integer"):
            f_regular_certificate_graded(witness_graded(2, 3, 5), *args)


def test_certificate_power_bound_checked_before_any_verdict():
    # e_max must be an integer >= 1 also where the a-invariant alone
    # decides the verdict (d >= m), through both public functions.
    x1, x2 = PolyRing(5, 2).gens()
    ring = PolyRing(5, 2, 2)
    g = ring.x(1) ** 2 * ring.y(1) + ring.x(2) ** 2 * ring.y(2)

    def graded(e_max):
        return f_regular_certificate_graded(x1**2 + x2**2, 2, 2, 5, e_max)

    def bigraded(e_max):
        return f_regular_certificate_bigraded(g, 2, 1, 2, 2, 5, e_max)

    for certify in (graded, bigraded):
        for e_max in (0, -3, 1.5):
            with pytest.raises(PreconditionError,
                               match=f"need an integer e_max >= 1: {e_max}"):
                certify(e_max)
        assert certify(1).verdict == VERDICT_NOT_F_REGULAR


def test_graded_membership_monotone_on_witnesses():
    # If the socle escapes the ideal at q, it must still escape at q*p.
    # An observed violation would be a finding to report, hence a hard assert.
    for d, m, p in [(2, 3, 2), (2, 3, 3), (2, 4, 5)]:
        f = witness_graded(d, m, p)
        ring = f.ring
        for e in (1, 2):
            q = p ** e
            gens = [ring.x(i) ** q for i in range(2, m + 1)] + [f]
            socle = ring.x(1) ** ((d - 1) * q + 1)
            assert not normal_form(socle, groebner_basis(gens)).is_zero, (d, m, p, q)


def test_truncated_membership_matches_full_basis():
    # The search reduces the socle by a basis truncated at the socle degree
    # delta; the full reduced basis is the oracle at every tested q.  The
    # grid has graded and bigraded forms, D = d + e = 1 (delta = 1 is below
    # the generators' degree q), p = 2 and, where q = p leaves the socle in
    # the ideal, q = p^2.
    shapes = [(3, 0, 1, 0), (3, 0, 2, 0), (4, 0, 3, 0), (3, 2, 1, 0),
              (2, 2, 0, 1), (2, 2, 1, 1), (2, 3, 1, 2), (3, 2, 2, 1)]
    seen = set()
    for (m, n, d, e), p, seed in itertools.product(shapes, (2, 3, 5), range(3)):
        f = random_biform(m, n, d, e, p, seed).monic()
        ring = f.ring
        cert = f_regular_certificate_bigraded(f, d, e, m, n, p, 2)
        found = ["0"] * len(cert.tested_powers)
        if cert.verdict == VERDICT_F_REGULAR:
            found[-1] = cert.normal_form
        for q, remainder in zip(cert.tested_powers, found):
            gens = [ring.x(1) ** q - ring.y(1) ** q] if n else []
            gens += [ring.x(i) ** q for i in range(2, m + 1)]
            gens += [ring.y(j) ** q for j in range(2, n + 1)] + [f]
            socle = ring.x(1) ** ((d + e - 1) * q + 1)
            expected = normal_form(socle, groebner_basis(gens))
            assert remainder == str(expected), ((m, n, d, e), p, seed, q)
            seen.add("zero" if expected.is_zero else "nonzero")
            seen.add(("D", d + e))
            seen.add("q = p" if q == p else "q = p^2")
            seen.add(("p", p))
            seen.add("bigraded" if n else "graded")
    assert {"zero", "nonzero", ("D", 1), "q = p", "q = p^2", ("p", 2),
            "graded", "bigraded"} <= seen


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the Groebner kernel's work, read through its private
    functions: the reducer leads of every ``_reduce`` call, the number of
    ``_s_poly`` calls, and the packed leads of the pure-power generators of
    every ``_buchberger`` run.  A truncated run (one with a limit) holds
    every monomial up to its limit, so it never restarts: it makes one
    packing."""
    calls = {"reduce": [], "s_poly": 0, "pure": set(), "packings": 0}
    reduce, s_poly, buchberger, packing = (
        exactalg._reduce, exactalg._s_poly, exactalg._buchberger,
        exactalg._packing)

    def counting_reduce(work, reducers, *args):
        calls["reduce"].append({lt for lt, _ in reducers})
        return reduce(work, reducers, *args)

    def counting_s_poly(*args):
        calls["s_poly"] += 1
        return s_poly(*args)

    def counting_packing(*args):
        calls["packings"] += 1
        return packing(*args)

    def recording_buchberger(gens, ring, limit=None):
        before = calls["packings"]
        packed, basis, mask = buchberger(gens, ring, limit)
        assert limit is None or calls["packings"] == before + 1
        calls["pure"] |= {packed.pack(next(iter(g.terms))) for g in gens
                          if exactalg._pure_power(g) is not None}
        return packed, basis, mask

    monkeypatch.setattr(exactalg, "_reduce", counting_reduce)
    monkeypatch.setattr(exactalg, "_s_poly", counting_s_poly)
    monkeypatch.setattr(exactalg, "_packing", counting_packing)
    monkeypatch.setattr(exactalg, "_buchberger", recording_buchberger)
    return calls


def test_certificate_reducers_hold_no_pure_power(kernel_calls):
    # The pure powers x_k^q of J_q act through the mask alone: neither
    # Buchberger's reductions nor the socle's scan them.
    verdicts = set()
    for (m, n, d, e), p in itertools.product(
            [(3, 0, 2, 0), (2, 2, 1, 1), (3, 3, 2, 2)], (3, 5)):
        f = random_biform(m, n, d, e, p, 0)
        verdicts.add(f_regular_certificate_bigraded(f, d, e, m, n, p, 2).verdict)
    assert VERDICT_F_REGULAR in verdicts
    assert kernel_calls["pure"] and kernel_calls["reduce"]
    for leads in kernel_calls["reduce"]:
        assert not leads & kernel_calls["pure"]


def test_graded_certificate_forms_no_s_polynomial(kernel_calls):
    # The basis of J_q = (x2^q, ..., xm^q, f) is f alone with the pure
    # powers: lead(f) = x1^d is coprime to each x_k^q, so there is no
    # pair.  Two reductions per power remain, of f on entry and of the
    # socle.
    certs = [f_regular_certificate_graded(witness_graded(2, 3, 5), 2, 3, 5),
             f_regular_certificate_graded(
                 PolyRing(5, 3).x(1) ** 2 + PolyRing(5, 3).x(2) ** 2,
                 2, 3, 5, e_max=2),
             f_regular_certificate_graded(random_biform(4, 0, 3, 0, 5, 0),
                                          3, 4, 5, e_max=1)]
    powers = sum(len(cert.tested_powers) for cert in certs)
    assert {cert.verdict for cert in certs} == {VERDICT_F_REGULAR,
                                               VERDICT_INCONCLUSIVE}
    assert kernel_calls["s_poly"] == 0
    assert len(kernel_calls["reduce"]) == 2 * powers


def test_bigraded_certificate_reduction_count(kernel_calls):
    # (3,3,2,2) at p = 5, seed 0, e_max 1 makes 41 _reduce and 38 _s_poly
    # calls.  It made 44 _reduce calls when the pure powers were ordinary
    # reducers, and 52 when annihilator pairs skipped the chain criterion.
    f = random_biform(3, 3, 2, 2, 5, 0)
    cert = f_regular_certificate_bigraded(f, 2, 2, 3, 3, 5, 1)
    assert (cert.verdict, cert.q_used) == (VERDICT_F_REGULAR, 5)
    assert len(kernel_calls["reduce"]) <= 41
    assert kernel_calls["s_poly"] <= 38


def test_graded_is_the_bigraded_case_n_0():
    # Both public functions give the same certificate on a form with no
    # y-variables, down to its JSON bytes, on every verdict.
    verdicts = set()
    for m, d, p, seed in itertools.product((2, 3, 4), (1, 2, 3, 4), (2, 3, 5),
                                           range(3)):
        f = random_biform(m, 0, d, 0, p, seed)
        cert = f_regular_certificate_graded(f, d, m, p, 2)
        bigraded = f_regular_certificate_bigraded(f, d, 0, m, 0, p, 2)
        assert cert.to_json() == bigraded.to_json(), (m, d, p, seed)
        assert cert.degree == (d,)
        verdicts.add(cert.verdict)
    assert verdicts == {VERDICT_F_REGULAR, VERDICT_NOT_F_REGULAR,
                        VERDICT_NOT_F_PURE, VERDICT_INCONCLUSIVE}


def test_certificate_reproducible():
    cert = f_regular_certificate_graded(witness_graded(2, 3, 5), 2, 3, 5)
    assert recheck_certificate(cert)
    certb = f_regular_certificate_bigraded(witness_bigraded(1, 1, 2, 2, 5),
                                           1, 1, 2, 2, 5)
    assert recheck_certificate(certb)
    not_f_pure = f_regular_certificate_graded(PolyRing(5, 3).x(1) ** 2, 2, 3, 5)
    with pytest.raises(PreconditionError,
                       match="only f_regular certificates can be rechecked"):
        recheck_certificate(not_f_pure)


def test_certificate_json_fields():
    cert = f_regular_certificate_graded(witness_graded(2, 3, 5), 2, 3, 5)
    doc = cert.to_dict()
    for key in ("verdict", "p", "q_used", "ideal_generators", "socle",
                "normal_form", "assumptions"):
        assert key in doc
    assert doc["ideal_generators"] == ["x2^5", "x3^5", "x1^2 + x2*x3"]


# ---------------------------------------------------------------------------
# bigraded certificates

def test_bigraded_certificate_on_witness():
    cert = f_regular_certificate_bigraded(witness_bigraded(1, 1, 2, 2, 5),
                                          1, 1, 2, 2, 5)
    assert cert.verdict == VERDICT_F_REGULAR
    assert cert.q_used == 5
    assert cert.socle == "x1^6"


def test_bigraded_certificate_rescales_distinguished_monomial():
    f = witness_bigraded(1, 1, 2, 2, 5)
    scaled = 3 * f
    assert scaled.terms[(1, 0, 1, 0)] == 3
    cert = f_regular_certificate_bigraded(scaled, 1, 1, 2, 2, 5)
    reference = f_regular_certificate_bigraded(f, 1, 1, 2, 2, 5)
    assert cert.verdict == reference.verdict == VERDICT_F_REGULAR
    assert "x1*y1 + x2*y2" in cert.ideal_generators
    assert cert == reference


def test_bigraded_a_invariant_branch():
    ring = PolyRing(5, 2, 2)
    g = ring.x(1) ** 2 * ring.y(1)  # bidegree (2, 1) with d = m
    cert = f_regular_certificate_bigraded(g, 2, 1, 2, 2, 5)
    assert cert.verdict == VERDICT_NOT_F_REGULAR


def test_bigraded_certificate_context_checks():
    ring = PolyRing(5, 2, 2)
    with pytest.raises(RingContextError):
        f_regular_certificate_bigraded(witness_bigraded(1, 1, 2, 2, 5),
                                       1, 1, 3, 2, 5)
    with pytest.raises(PreconditionError,
                       match=r"need bidegree with d \+ e >= 1: \(0, 0\)"):
        f_regular_certificate_bigraded(ring.one(), 0, 0, 2, 2, 5)
    for args, name in (((1, 1.0, 2, 2, 5), "e"), ((1, 1, 2, 2.0, 5), "n")):
        with pytest.raises(PreconditionError,
                           match=f"{name} must be an integer"):
            f_regular_certificate_bigraded(witness_bigraded(1, 1, 2, 2, 5),
                                           *args)
    with pytest.raises(PreconditionError,
                       match=r"f must be bihomogeneous of bidegree \(2, 1\)"):
        f_regular_certificate_bigraded(witness_bigraded(1, 1, 2, 2, 5),
                                       2, 1, 2, 2, 5)
    # The socle is a power of x1, so a ring without x1 is refused.
    ring = PolyRing(5, 0, 3)
    with pytest.raises(PreconditionError,
                       match=r"need m >= 1, since the socle is a power of x1"):
        f_regular_certificate_bigraded(ring.y(1) ** 2 + ring.y(2) * ring.y(3),
                                       0, 2, 0, 3, 5)


def test_bigraded_fpure_witness_is_fpure():
    f = witness_fpure(1, 2, 2, e=1, n=2)
    assert str(f) == "x1*y1"
    assert fedder_is_f_pure(f)


def test_bigraded_agrees_with_classifier_grid():
    # On the d < m, e < n grid the explicit witness certifies F-regularity,
    # matching the classifier's diagonal-free predicate.
    for m in (2, 3):
        for n in (2, 3):
            for d in range(1, min(m, 3)):
                for e in range(1, min(n, 3)):
                    spec = HypersurfaceSpec(m, n, d, e)
                    assert is_f_regular_type_generic(spec)
                    for p in (5, 7, 11):
                        f = witness_bigraded(d, e, m, n, p)
                        cert = f_regular_certificate_bigraded(f, d, e, m, n, p)
                        assert cert.verdict == VERDICT_F_REGULAR, (m, n, d, e, p)


# ---------------------------------------------------------------------------
# witnesses and the sampler

def test_witness_constructors():
    assert str(witness_graded(2, 3, 5)) == "x1^2 + x2*x3"
    assert str(witness_bigraded(1, 1, 2, 2, 5)) == "x1*y1 + x2*y2"
    assert str(witness_fpure(2, 2, 5)) == "x1^2 + x1*x2"
    with pytest.raises(PreconditionError):
        witness_graded(3, 3, 5)
    with pytest.raises(PreconditionError, match=r"need d >= 1: 0"):
        witness_graded(0, 3, 5)
    # Used to raise TypeError from a tuple product.
    with pytest.raises(PreconditionError, match=r"d must be an integer: 2\.0"):
        witness_graded(2.0, 3, 5)
    with pytest.raises(PreconditionError):
        witness_bigraded(1, 2, 2, 2, 5)


def test_random_biform_contract():
    f = random_biform(3, 2, 2, 1, 7, seed=123)
    g = random_biform(3, 2, 2, 1, 7, seed=123)
    assert f == g
    assert f != random_biform(3, 2, 2, 1, 7, seed=124)
    assert len(f.terms) == comb(2 + 2, 2) * comb(1 + 1, 1)
    assert f.terms[(2, 0, 0, 1, 0)] == 1
    assert f.bidegree() == (2, 1)
    single_block = random_biform(3, 0, 2, 0, 7, seed=5)
    assert single_block.total_degree() == 2
    assert len(single_block.terms) == comb(2 + 2, 2)
    for args, message in [
        ((0, 2, 1, 1), r"d > 0 needs at least one x-variable"),
        ((2, 0, 1, 1), r"e > 0 needs at least one y-variable"),
        ((2, 2, 0, 0), r"bidegree must be >= 0 and not \(0, 0\): \(0, 0\)"),
        ((2, 2, 1.5, 1), r"d must be an integer: 1.5"),
        ((2, 2, "1", 1), r"d must be an integer: '1'"),
    ]:
        with pytest.raises(PreconditionError, match=message):
            random_biform(*args, 7, seed=0)
    # A form of more terms than the monomial cap is refused before any
    # monomial is enumerated.
    with pytest.raises(DegreeCapError, match=f"has {comb(59, 29)} terms, "
                       "above the monomial cap 10000000"):
        random_biform(30, 0, 30, 0, 7, seed=0)


class _CountingTerms(dict):
    """A term map that counts the monomials iterated over."""

    iterated = 0

    def __iter__(self):
        for mono in super().__iter__():
            self.iterated += 1
            yield mono


def test_sampled_form_count_scans_no_term(monkeypatch):
    # A sampled form comes with its lead and its bidegree, so the Hilbert
    # value of T/fT reads them without a grevlex key or a bidegree scan:
    # monic() looks at the first term only and returns f itself.
    keys = []
    monkeypatch.setattr(exactalg, "_descending_grevlex", keys.append)
    for shape in [(3, 3, 2, 1), (4, 4, 1, 3), (3, 0, 2, 0)]:
        f = random_biform(*shape, 101, seed=7)
        assert f._lead is not None and f._degrees is not None
        f.terms = _CountingTerms(f.terms)
        gb = groebner_basis([f])
        assert gb[0] is f
        exactalg.standard_monomial_count(gb, (4, 5))
        assert f.terms.iterated <= 1, shape
    assert keys == []
