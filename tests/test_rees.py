"""Rees-diagonal tests: windows, criteria, exact dimensions, Groebner oracle."""

from math import comb

import pytest

from diagalg.errors import PreconditionError, UnsupportedModeError
from diagalg.exactalg import (
    groebner_basis,
    is_regular_sequence,
    power_ideal_gens,
    standard_monomial_count,
)
from diagalg.frobenius import random_biform
from diagalg.rees import (
    CISpec,
    ReesSpec,
    a_inv_quotient_power,
    ci_diagonal_is_cm,
    ci_quotient_hilbert,
    cm_criteria_consistent,
    dim_lc_ci_quotient_power,
    dim_lc_rees_diag,
    rigidity_is_cm,
    rigidity_window,
)
from oracles import blowup_example_range, full_sum_dim_lc_ci_quotient_power


def sample_regular_forms(m, k, s, seed=0):
    """Seeded generic k-forms certified as a regular sequence; resamples up
    to 10 times before failing loudly."""
    for attempt in range(10):
        gens = [random_biform(m, 0, k, 0, 101, seed=seed + 100 * attempt + i)
                for i in range(s)]
        if is_regular_sequence(gens):
            return gens
    raise AssertionError(f"no regular sequence found for {(m, k, s)}")


# ---------------------------------------------------------------------------
# specs and scalar criteria

def test_rees_spec_validation():
    ReesSpec(a=-3, dimA=3, s=2, k=2)
    ReesSpec.polynomial_base(4, 3, 2)
    with pytest.raises(PreconditionError):
        ReesSpec(a=-3, dimA=1, s=2, k=2)
    with pytest.raises(PreconditionError):
        ReesSpec(a=-3, dimA=3, s=4, k=2)
    with pytest.raises(PreconditionError):
        ReesSpec(a=-2, dimA=3, s=2, k=2, m=3)
    with pytest.raises(PreconditionError, match="form degree"):
        ReesSpec(a=-3, dimA=3, s=2, k=0)
    with pytest.raises(PreconditionError):
        CISpec(2, (2, 2, 2))
    with pytest.raises(PreconditionError, match="degrees must be positive"):
        CISpec(3, (2, 0))
    # Non-integer shapes: the first used to answer True, the second to raise
    # TypeError.
    with pytest.raises(PreconditionError,
                       match=r"degree must be an integer: 2\.5"):
        ci_diagonal_is_cm(CISpec(4, (2.5, 2)), 9, 1)
    with pytest.raises(PreconditionError, match=r"a must be an integer: -3\.0"):
        dim_lc_rees_diag(ReesSpec.polynomial_base(3.0, 2, 2), 1, 1, 1)


def test_scalar_functions_refuse_bad_arguments():
    # Most calls below used to answer, or to raise from math.comb: s = 0
    # raised ValueError, four linear forms in two variables gave -2 (no
    # complete intersection has more forms than variables), and r = 1.5
    # gave the a-invariant 2.0.
    with pytest.raises(PreconditionError, match="need 1 <= s <= m"):
        dim_lc_ci_quotient_power(3, 2, 0, 2, -10)
    with pytest.raises(PreconditionError, match="need 1 <= s <= m"):
        dim_lc_ci_quotient_power(2, 2, 3, 1, 0)
    with pytest.raises(PreconditionError, match="need #degrees <= m: 4 forms"):
        ci_quotient_hilbert(2, (1, 1, 1, 1), 1)
    with pytest.raises(PreconditionError, match="positive degrees"):
        ci_quotient_hilbert(2, (2, 0), 1)
    with pytest.raises(PreconditionError,
                       match=r"degree must be an integer: 2\.0"):
        ci_quotient_hilbert(2, (2.0, 2), 1)
    with pytest.raises(PreconditionError,
                       match=r"r must be an integer: 1\.5"):
        a_inv_quotient_power(-3, 2, 2, 1.5)
    with pytest.raises(PreconditionError,
                       match=r"s must be an integer: 2\.0"):
        rigidity_window(-3, 2, 2.0, 1)
    with pytest.raises(PreconditionError, match=r"g must be an integer: 1\.5"):
        rigidity_is_cm(-3, 2, 2, 1.5)
    with pytest.raises(PreconditionError, match=r"need g, h >= 1: \(0, 1\)"):
        cm_criteria_consistent(3, 2, 2, 0, 1)
    with pytest.raises(PreconditionError, match=r"need g, h >= 1: \(1, 0\)"):
        dim_lc_rees_diag(ReesSpec.polynomial_base(3, 2, 2), 1, 0, 1)
    with pytest.raises(PreconditionError, match="need power r >= 1: 0"):
        dim_lc_ci_quotient_power(3, 2, 2, 0, 4)


@pytest.mark.parametrize("bad", [2.0, 2.5, "2"])
@pytest.mark.parametrize("name, call", [
    ("m", lambda v: ci_quotient_hilbert(v, (1,), 1)),
    ("j", lambda v: ci_quotient_hilbert(3, (1,), v)),
    ("k", lambda v: dim_lc_ci_quotient_power(3, v, 2, 1, 4)),
    ("t", lambda v: dim_lc_ci_quotient_power(3, 2, 2, 1, v)),
    ("i", lambda v: dim_lc_rees_diag(ReesSpec.polynomial_base(3, 2, 2), 1, 1, v)),
    ("h", lambda v: dim_lc_rees_diag(ReesSpec.polynomial_base(3, 2, 2), 1, v, 1)),
    ("h", lambda v: cm_criteria_consistent(3, 2, 2, 1, v)),
])
def test_closed_forms_refuse_non_integers(name, call, bad):
    # Each raised TypeError (ci_quotient_hilbert(2.5, (1,), 1) and
    # dim_lc_ci_quotient_power(3, 2.0, 2, 1, 4) from range()), except
    # cm_criteria_consistent(3, 2, 2, 1, 2.0), which named g for h's 2.0.
    with pytest.raises(PreconditionError,
                       match=rf"^{name} must be an integer: {bad!r}$"):
        call(bad)


def test_a_inv_quotient_power():
    assert a_inv_quotient_power(-3, 2, 2, 1) == 1
    for r in range(1, 6):
        step = a_inv_quotient_power(-3, 2, 2, r + 1) - a_inv_quotient_power(-3, 2, 2, r)
        assert step == 2
    # r = 1, s = 1 would be the plain hypersurface count a + k; the formula
    # collapses to sum(degrees) - m on a polynomial base with equal degrees.
    for m in range(2, 6):
        for k in range(1, 5):
            for s in range(1, m + 1):
                assert a_inv_quotient_power(-m, k, s, 1) == s * k - m
    # s = r = 1 is the plain hypersurface count a + k.
    assert a_inv_quotient_power(-4, 3, 1, 1) == -1
    with pytest.raises(PreconditionError):
        a_inv_quotient_power(-3, 2, 2, 0)


def test_rigidity_window_examples():
    assert list(rigidity_window(-3, 4, 2, 1)) == [1]
    assert list(rigidity_window(-3, 3, 2, 1)) == []
    for g in range(2, 8):
        assert list(rigidity_window(-3, 4, 2, g)) == []
    with pytest.raises(PreconditionError, match="need g >= 1"):
        rigidity_window(-3, 2, 2, 0)


def test_rigidity_is_cm_examples():
    assert rigidity_is_cm(-3, 3, 2, 1)
    assert not rigidity_is_cm(-3, 4, 2, 1)
    assert rigidity_is_cm(-3, 4, 2, 2)


def test_window_empty_iff_cm():
    # The closed inequality g > a + ks - k is the oracle for both.
    for a in range(-6, 3):
        for k in range(1, 6):
            for s in range(2, 5):
                for g in range(1, 7):
                    cm = g > a + k * s - k
                    assert rigidity_is_cm(a, k, s, g) == cm
                    assert (len(rigidity_window(a, k, s, g)) == 0) == cm


def test_ci_criterion_examples():
    assert ci_diagonal_is_cm(CISpec(4, (2, 2)), 3, 1)
    assert ci_diagonal_is_cm(CISpec(4, (2, 2)), 5, 2)
    assert ci_diagonal_is_cm(CISpec(3, (2, 2)), 3, 1)
    with pytest.raises(PreconditionError):
        ci_diagonal_is_cm(CISpec(3, (2, 2)), 1, 1)  # hypothesis g/h > max degree
    with pytest.raises(PreconditionError, match="need g, h >= 1"):
        ci_diagonal_is_cm(CISpec(3, (1,)), 0, 1)
    # Used to answer True.
    with pytest.raises(PreconditionError, match=r"g must be an integer: 9\.5"):
        ci_diagonal_is_cm(CISpec(4, (2, 2)), 9.5, 1)


def test_consistency_examples_and_grid():
    assert cm_criteria_consistent(3, 2, 2, 1, 1)
    assert cm_criteria_consistent(3, 4, 2, 1, 1)
    for m in range(2, 6):
        for k in range(1, 5):
            for s in range(2, min(3, m) + 1):
                for g in range(1, 7):
                    for h in range(1, 4):
                        assert cm_criteria_consistent(m, k, s, g, h)


# ---------------------------------------------------------------------------
# Hilbert functions of complete intersections

def test_ci_quotient_hilbert_basics():
    # Two quadrics in three variables: 1, 3, 4, 4, 4, ...
    values = [ci_quotient_hilbert(3, (2, 2), j) for j in range(8)]
    assert values == [1, 3, 4, 4, 4, 4, 4, 4]
    # Artinian case: symmetric h-vector of (2, 2) in two variables.
    values = [ci_quotient_hilbert(2, (2, 2), j) for j in range(5)]
    assert values == [1, 2, 1, 0, 0]
    assert ci_quotient_hilbert(3, (2, 2), -1) == 0


def test_ci_quotient_hilbert_groebner_oracle():
    for m, k, s, seed in [(3, 2, 2, 0), (3, 3, 2, 1), (4, 2, 3, 2)]:
        gens = sample_regular_forms(m, k, s, seed=seed)
        gb = groebner_basis(gens)
        for j in range(0, 10):
            assert standard_monomial_count(gb, j) == ci_quotient_hilbert(
                m, (k,) * s, j), (m, k, s, j)


def test_power_a_invariant_groebner_oracle():
    # Predicted a-invariants of the quotients by I^r for two generic quadrics
    # in three variables: 1, 3, 5.  The quotient is one-dimensional, so its
    # a-invariant is the last degree where the Hilbert function sits below
    # its stable value.
    gens = sample_regular_forms(3, 2, 2, seed=0)
    for r in (1, 2, 3):
        predicted = a_inv_quotient_power(-3, 2, 2, r)
        assert predicted == 2 * r - 1
        gb = groebner_basis(power_ideal_gens(gens, r))
        values = [standard_monomial_count(gb, j) for j in range(predicted + 4)]
        stable = values[-1]
        assert values[-2] == stable and values[-3] == stable
        observed = max(j for j, v in enumerate(values) if v != stable)
        assert observed == predicted, (r, values)


def test_power_ideal_hilbert_groebner_oracle():
    # R/I^r for a complete intersection I of s k-forms is filtered by
    # I^rho / I^(rho+1), rho < r, each comb(s - 1 + rho, rho) copies of R/I
    # shifted by rho * k; the Groebner count matches through degree 30.
    for m, k, s, seed, r in [(3, 2, 2, 0, 3), (4, 2, 3, 2, 2), (3, 3, 2, 1, 2)]:
        gens = sample_regular_forms(m, k, s, seed=seed)
        gb = groebner_basis(power_ideal_gens(gens, r))
        for j in range(31):
            expected = sum(comb(s - 1 + rho, rho)
                           * ci_quotient_hilbert(m, (k,) * s, j - rho * k)
                           for rho in range(r))
            assert standard_monomial_count(gb, j) == expected, (m, k, s, r, j)


# ---------------------------------------------------------------------------
# exact dimensions of the diagonal's local cohomology

def test_dim_lc_rees_diag_examples():
    spec = ReesSpec.polynomial_base(3, 2, 4)
    assert dim_lc_rees_diag(spec, 1, 1, 1) > 0
    assert dim_lc_rees_diag(spec, 1, 1, 2) == 0
    with pytest.raises(PreconditionError):
        dim_lc_rees_diag(spec, 1, 1, 0)
    with pytest.raises(UnsupportedModeError):
        dim_lc_rees_diag(ReesSpec(a=-3, dimA=3, s=2, k=4), 1, 1, 1)


def test_dim_lc_rees_diag_nonvanishing_matches_window():
    for m in range(2, 5):
        for k in range(1, 5):
            for s in (2, 3):
                if s > m:
                    continue
                spec = ReesSpec.polynomial_base(m, s, k)
                for g in range(1, 4):
                    window = rigidity_window(-m, k, s, g)
                    for h in range(1, 4):
                        for i in range(1, 7):
                            dim = dim_lc_rees_diag(spec, g, h, i)
                            assert (dim > 0) == (i in window), (
                                m, k, s, g, h, i, dim)


def test_dim_lc_rees_diag_groebner_oracle_cell():
    # One-dimensional quotients satisfy dim H^1(A/I^r)_t = stable - HF(t),
    # giving an independent Groebner route to the same number.
    m, k, s = 3, 4, 2
    spec = ReesSpec.polynomial_base(m, s, k)
    gens = sample_regular_forms(m, k, s, seed=3)
    for g, h, i in [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1)]:
        r = h * i
        t = g * i + k * h * i
        gb = groebner_basis(power_ideal_gens(gens, r))
        a_inv = a_inv_quotient_power(-m, k, s, r)
        stable = standard_monomial_count(gb, a_inv + 3)
        assert standard_monomial_count(gb, a_inv + 2) == stable
        observed = stable - standard_monomial_count(gb, t) if t >= 0 else 0
        assert dim_lc_rees_diag(spec, g, h, i) == observed, (g, h, i)


def test_dim_lc_ci_quotient_power_artinian_case():
    # dim A = s: the quotient by I^r is artinian and its top local cohomology
    # is the module itself, so the dimension is the plain Hilbert function.
    m = s = 2
    k = 3
    gens = sample_regular_forms(m, k, s, seed=7)
    for r in (1, 2):
        gb = groebner_basis(power_ideal_gens(gens, r))
        for t in range(0, a_inv_quotient_power(-m, k, s, r) + 3):
            assert dim_lc_ci_quotient_power(m, k, s, r, t) == \
                standard_monomial_count(gb, t), (r, t)


def test_dim_lc_ci_quotient_power_full_sum_oracle():
    # The sum skips the rho whose Hilbert degree is negative; the plain sum
    # over every rho < r must agree, also where every term is skipped.
    for m in range(1, 5):
        for s in range(1, m + 1):
            for k in range(1, 5):
                for r in range(1, 6):
                    for t in range(-4, 30):
                        assert dim_lc_ci_quotient_power(m, k, s, r, t) == \
                            full_sum_dim_lc_ci_quotient_power(m, k, s, r, t), (
                                m, k, s, r, t)
    for m, k in [(0, 2), (2, 0), (2, -1)]:
        with pytest.raises(PreconditionError):
            dim_lc_ci_quotient_power(m, k, 2, 1, 0)


def test_blowup_example_range():
    assert list(blowup_example_range(5, 2, 3)) == [1, 2, 3]
    # The bound is the window bound with a = degf - dimA - 1 and s = dimA - 1.
    for degf in range(1, 8):
        for k in range(1, 5):
            for dimA in range(3, 6):
                a = degf - dimA - 1
                s = dimA - 1
                expected = a + k * s - k
                rng = blowup_example_range(degf, k, dimA)
                assert rng.stop - 1 == expected
                assert list(rng) == list(rigidity_window(a, k, s, 1))
    assert list(blowup_example_range(1, 1, 3)) == []
    with pytest.raises(PreconditionError):
        blowup_example_range(5, 2, 2)
