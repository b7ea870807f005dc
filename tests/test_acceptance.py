"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
check is exact (tolerance zero); each criterion also enforces its wall-clock
budget.
"""

import time
from contextlib import contextmanager

from diagalg.exactalg import (
    groebner_basis,
    power_ideal_gens,
    standard_monomial_count,
)
from diagalg.frobenius import (
    VERDICT_F_REGULAR,
    f_regular_certificate_bigraded,
    f_regular_certificate_graded,
    fedder_is_f_pure,
    random_biform,
    witness_graded,
)
from diagalg.gradedcomb import DiagonalSpec, dim_poly, dim_top_lc
from diagalg.hypersurface import (
    HypersurfaceSpec,
    classify,
    cm_no_integer_window,
    dim_lc_piece,
    dim_piece,
    is_cohen_macaulay,
)
from diagalg.rees import (
    ReesSpec,
    a_inv_quotient_power,
    cm_criteria_consistent,
    dim_lc_rees_diag,
    rigidity_window,
)
from oracles import rees_to_product_diagonal, witness_bigraded
from test_rees import sample_regular_forms

D11 = DiagonalSpec(1, 1)


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} [{label}]: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number} [{label}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_flag_grid_reproduction():
    with criterion(1, "flag-grid reproduction at diagonal (1,1)", 1.0):
        m = n = 3
        mismatches = []
        for d in range(1, 13):
            for e in range(1, 13):
                report = classify(HypersurfaceSpec(m, n, d, e), D11)
                expected_cm = d - m + 1 <= e <= d + n - 1
                expected_gor = e == d - m + n
                expected_freg = d <= 2 and e <= 2
                expected_rat = expected_cm and (d < 3 or e < 3)
                if (report.cohen_macaulay, report.gorenstein,
                        report.rational_singularities_generic,
                        report.f_regular_type_generic) != (
                        expected_cm, expected_gor, expected_rat, expected_freg):
                    mismatches.append((d, e))
        assert mismatches == []


def _criterion_grid():
    for m in range(2, 6):
        for n in range(2, 6):
            for d in range(0, 9):
                for e in range(0, 9):
                    if d + e == 0:
                        continue
                    yield m, n, d, e


def test_criterion_2_cm_dual_form_equivalence():
    with criterion(2, "CM floor-form vs integer-window form", 1.0):
        cases = 0
        for m, n, d, e in _criterion_grid():
            spec = HypersurfaceSpec(m, n, d, e)
            for g in range(1, 5):
                for h in range(1, 5):
                    diag = DiagonalSpec(g, h)
                    assert is_cohen_macaulay(spec, diag) == \
                        cm_no_integer_window(spec, diag), (m, n, d, e, g, h)
                    cases += 1
        assert cases == 16 * 80 * 16


def test_criterion_3_cm_iff_vanishing():
    with criterion(3, "CM iff lower local cohomology vanishes", 10.0):
        for m, n, d, e in _criterion_grid():
            spec = HypersurfaceSpec(m, n, d, e)
            for g in range(1, 5):
                for h in range(1, 5):
                    diag = DiagonalSpec(g, h)
                    # d, e <= 8 and g, h >= 1 put every window in [0, 8].
                    nonzero = any(dim_lc_piece(spec, diag, q, k) > 0
                                  for q in range(0, m + n - 2)
                                  for k in range(-1, 10))
                    assert is_cohen_macaulay(spec, diag) == (not nonzero), (
                        m, n, d, e, g, h)


def test_criterion_4_h2_rigidity_failure_family():
    with criterion(4, "H^2 vanishes at 0 but not at 1", 1.0):
        m, n = 3, 2
        for d in range(4, 8):
            for e in range(1, 4):
                for g in range(1, d - 2):
                    for h in range(e, e + 3):
                        spec = HypersurfaceSpec(m, n, d, e)
                        diag = DiagonalSpec(g, h)
                        at_zero = dim_lc_piece(spec, diag, 2, 0)
                        at_one = dim_lc_piece(spec, diag, 2, 1)
                        assert at_zero == 0, (d, e, g, h)
                        assert at_one >= 1, (d, e, g, h)
                        assert at_one == dim_top_lc(3, g - d) * dim_poly(2, h - e)


def test_criterion_5_hilbert_groebner_oracle():
    with criterion(5, "Hilbert function vs Groebner count of T/fT", 60.0):
        for m in (2, 3):
            for n in (2, 3):
                for d in range(0, 4):
                    for e in range(0, 4):
                        if d + e == 0:
                            continue
                        spec = HypersurfaceSpec(m, n, d, e)
                        for seed in (0, 1, 2):
                            f = random_biform(m, n, d, e, 101, seed)
                            assert not f.is_zero  # nonzerodivisor in a domain
                            gb = groebner_basis([f])
                            for g in (1, 2):
                                for h in (1, 2):
                                    diag = DiagonalSpec(g, h)
                                    for k in range(0, 5):
                                        counted = standard_monomial_count(
                                            gb, (g * k, h * k))
                                        assert counted == dim_piece(
                                            spec, diag, k), (
                                            m, n, d, e, seed, g, h, k)


def test_criterion_6_explicit_witness_certificates():
    with criterion(6, "explicit characteristic-p certificates", 30.0):
        cert = f_regular_certificate_graded(witness_graded(2, 3, 5), 2, 3, 5)
        assert cert.verdict == VERDICT_F_REGULAR
        assert cert.q_used == 5
        assert cert.normal_form == "4*x2^3*x3^3"  # -x2^3*x3^3 over F_5

        bigraded = f_regular_certificate_bigraded(
            witness_bigraded(1, 1, 2, 2, 5), 1, 1, 2, 2, 5)
        assert bigraded.verdict == VERDICT_F_REGULAR

        from diagalg.exactalg import PolyRing
        for p in (2, 3, 5):
            for m in range(1, 5):
                ring = PolyRing(p, m)
                for d in range(1, m + 1):
                    f = ring.one()
                    for i in range(1, d + 1):
                        f = f * ring.x(i)
                    assert fedder_is_f_pure(f), (p, m, d)


def test_criterion_7_cm_criteria_consistent():
    with criterion(7, "window vs classical CM criteria agree", 1.0):
        for s in (2, 3):
            for m in range(s, 6):
                for k in range(1, 5):
                    for g in range(1, 7):
                        for h in range(1, 4):
                            assert cm_criteria_consistent(m, k, s, g, h), (
                                m, k, s, g, h)


def test_criterion_8_rees_dimensions_vs_groebner():
    with criterion(8, "Rees window vs exact dims vs Groebner", 60.0):
        # Nonvanishing of the exact dimensions matches the window.
        for k in (3, 4):
            spec = ReesSpec.polynomial_base(3, 2, k)
            window = rigidity_window(-3, k, 2, 1)
            for i in range(1, 5):
                dim = dim_lc_rees_diag(spec, 1, 1, i)
                assert (dim > 0) == (i in window), (k, i, dim)

        # Predicted a-invariants 1, 3, 5 of the quotients by I^r match the
        # Groebner Hilbert function for generic quadrics over F_101.
        gens = sample_regular_forms(3, 2, 2, seed=0)
        for r, expected in ((1, 1), (2, 3), (3, 5)):
            assert a_inv_quotient_power(-3, 2, 2, r) == expected
            gb = groebner_basis(power_ideal_gens(gens, r))
            values = [standard_monomial_count(gb, j)
                      for j in range(expected + 4)]
            stable = values[-1]
            assert values[-2] == stable
            observed = max(j for j, v in enumerate(values) if v != stable)
            assert observed == expected, (r, values)


def test_criterion_9_blowup_regrading_example():
    with criterion(9, "blow-up regrading reproduces the threshold", 1.0):
        for d in range(1, 9):
            assert rees_to_product_diagonal(d, d + 1, 1) == D11
        mismatches = []
        for m in range(3, 7):
            for d in range(1, 9):
                spec = HypersurfaceSpec(m, 2, d, 1)
                report = classify(spec, D11)
                if report.rational_singularities_generic != (d <= m):
                    mismatches.append(("rational", m, d))
                if report.f_regular_type_generic != (d < m):
                    mismatches.append(("f_regular", m, d))
        assert mismatches == []
