"""Characteristic-p certificate tests: F-purity, membership searches, witnesses."""

from math import comb

import pytest

from diagalg.errors import PreconditionError, RingContextError
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


def test_certificate_reproducible():
    cert = f_regular_certificate_graded(witness_graded(2, 3, 5), 2, 3, 5)
    assert recheck_certificate(cert)
    certb = f_regular_certificate_bigraded(witness_bigraded(1, 1, 2, 2, 5),
                                           1, 1, 2, 2, 5)
    assert recheck_certificate(certb)


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
