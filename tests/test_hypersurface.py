"""Classifier tests: criteria, dimensions, duality, and the Groebner oracle."""

import time
from dataclasses import asdict
from math import comb

import pytest

from diagalg import hypersurface
from diagalg.errors import (ROW_CAP, DegreeCapError, InternalDefectError,
                             PreconditionError)
from diagalg.exactalg import groebner_basis, standard_monomial_count
from diagalg.frobenius import random_biform
from diagalg.gradedcomb import DiagonalSpec
from diagalg.hypersurface import (
    CAVEAT_GENERIC,
    CAVEAT_NORMALITY,
    HypersurfaceSpec,
    a_invariant,
    canonical_piece_dim,
    canonical_shift,
    classify,
    cm_no_integer_window,
    cm_obstruction,
    dim_lc_piece,
    dim_piece,
    has_rational_singularities_generic,
    is_cohen_macaulay,
    is_f_regular_type_generic,
    is_gorenstein,
    lc_dim_table,
    validate_generic_normal,
)
from oracles import dim2_rational, rees_to_product_diagonal

D11 = DiagonalSpec(1, 1)


def small_grid():
    for m in range(2, 5):
        for n in range(2, 5):
            for d in range(0, 6):
                for e in range(0, 6):
                    if d + e == 0:
                        continue
                    yield HypersurfaceSpec(m, n, d, e)


def diag_grid():
    for g in range(1, 4):
        for h in range(1, 4):
            yield DiagonalSpec(g, h)


def test_hypersurface_spec_validation():
    HypersurfaceSpec(2, 2, 1, 0)
    with pytest.raises(PreconditionError):
        HypersurfaceSpec(1, 2, 1, 1)
    with pytest.raises(PreconditionError):
        HypersurfaceSpec(2, 2, 0, 0)
    # A non-integer shape used to reach the closed forms and raise TypeError.
    with pytest.raises(PreconditionError, match=r"m must be an integer: 3\.5"):
        classify(HypersurfaceSpec(3.5, 3, 2, 1), DiagonalSpec(1, 1))


def test_report_to_dict_is_a_shallow_copy():
    # The dict that dataclasses.asdict made, key order included, with the
    # canonical shift as a list; no returned list is the report's own.
    report = classify(HypersurfaceSpec(2, 3, 2, 1), DiagonalSpec(1, 1))
    assert report.caveats
    doc = report.to_dict()
    expected = asdict(report) | {"canonical_shift": list(report.canonical_shift)}
    assert list(doc.items()) == list(expected.items())
    doc["caveats"].append("changed")
    doc["canonical_shift"][0] += 1
    assert report.to_dict() == expected


def test_validate_generic_normal_examples():
    assert validate_generic_normal(HypersurfaceSpec(3, 3, 4, 2))
    assert not validate_generic_normal(HypersurfaceSpec(2, 3, 5, 1))
    assert validate_generic_normal(HypersurfaceSpec(3, 2, 1, 1))


def test_is_cohen_macaulay_examples():
    small = HypersurfaceSpec(3, 3, 2, 2)
    for diag in diag_grid():
        assert is_cohen_macaulay(small, diag)
    bad = HypersurfaceSpec(3, 2, 5, 1)
    assert not is_cohen_macaulay(bad, D11)
    assert cm_obstruction(bad, D11) == 1
    assert is_cohen_macaulay(HypersurfaceSpec(3, 3, 4, 2), DiagonalSpec(2, 1))


def test_cm_criterion_equivalence_small_grid():
    for spec in small_grid():
        for diag in diag_grid():
            assert is_cohen_macaulay(spec, diag) == cm_no_integer_window(spec, diag)


def test_cm_obstruction_is_smallest_valid_witness():
    for spec in small_grid():
        for diag in diag_grid():
            witness = cm_obstruction(spec, diag)
            if is_cohen_macaulay(spec, diag):
                assert witness is None
                continue
            d, e, m, n = spec.d, spec.e, spec.m, spec.n
            g, h = diag.g, diag.h

            def in_windows(k):
                first = g * k >= d and h * k <= e - n
                second = h * k >= e and g * k <= d - m
                return first or second

            assert in_windows(witness)
            assert not any(in_windows(k) for k in range(-20, witness))


def test_gorenstein_examples():
    assert is_gorenstein(HypersurfaceSpec(3, 3, 4, 4), D11)
    for diag in diag_grid():
        assert is_gorenstein(HypersurfaceSpec(3, 3, 3, 3), diag)
    assert not is_gorenstein(HypersurfaceSpec(3, 3, 4, 2), D11)
    assert canonical_shift(HypersurfaceSpec(3, 3, 4, 2)) == (1, -1)


def test_dim_piece_examples():
    spec = HypersurfaceSpec(2, 2, 1, 1)
    assert dim_piece(spec, D11, 1) == 3
    for s in small_grid():
        assert dim_piece(s, D11, 0) == 1
        assert dim_piece(s, D11, -1) == 0
        assert dim_piece(s, D11, -3) == 0


def test_dim_lc_piece_examples():
    spec = HypersurfaceSpec(3, 2, 4, 1)
    assert dim_lc_piece(spec, D11, 2, 0) == 0
    assert dim_lc_piece(spec, D11, 2, 1) == 1
    for k in range(-6, 7):
        assert dim_lc_piece(spec, D11, spec.m + spec.n - 1, k) == 0
        assert dim_lc_piece(spec, D11, -1, k) == 0
    cm_spec = HypersurfaceSpec(3, 3, 2, 2)
    for q in range(0, 4):
        for k in range(-10, 11):
            assert dim_lc_piece(cm_spec, D11, q, k) == 0


def test_negative_dimension_guards(monkeypatch):
    # No input reaches these guards, so break the binomial cores: a Hilbert
    # function that falls with k, and a top dimension that rises with it.
    spec = HypersurfaceSpec(3, 3, 1, 1)
    monkeypatch.setattr(hypersurface, "_dim_poly", lambda m, k: 100 - k)
    with pytest.raises(InternalDefectError, match="negative Hilbert value"):
        dim_piece(spec, D11, 2)
    monkeypatch.setattr(hypersurface, "_dim_top", lambda m, k: 100 + k)
    with pytest.raises(InternalDefectError,
                       match="top local cohomology came out negative"):
        dim_lc_piece(spec, D11, 4, -5)


@pytest.mark.parametrize("bad", [0.5, 1.0, "1"])
@pytest.mark.parametrize("name, call", [
    ("k", lambda spec, v: dim_piece(spec, D11, v)),
    ("k", lambda spec, v: canonical_piece_dim(spec, D11, v)),
    ("q", lambda spec, v: dim_lc_piece(spec, D11, v, 0)),
    ("k", lambda spec, v: dim_lc_piece(spec, D11, 2, v)),
    ("k_lo", lambda spec, v: lc_dim_table(spec, D11, k_lo=v)),
    ("k_hi", lambda spec, v: lc_dim_table(spec, D11, k_hi=v)),
])
def test_closed_forms_refuse_non_integers(name, call, bad):
    # dim_lc_piece(spec, D11, 1.0, 0) returned 0; the others raised
    # TypeError from math.comb or from integer arithmetic.
    with pytest.raises(PreconditionError,
                       match=rf"^{name} must be an integer: {bad!r}$"):
        call(HypersurfaceSpec(2, 2, 1, 1), bad)


def test_a_invariant_examples():
    assert a_invariant(HypersurfaceSpec(3, 3, 3, 3), D11) == 0
    assert a_invariant(HypersurfaceSpec(3, 3, 2, 2), D11) == -1


def test_a_invariant_is_argmax_of_top_cohomology():
    for spec in small_grid():
        for diag in diag_grid():
            a_inv = a_invariant(spec, diag)
            top = spec.m + spec.n - 2
            assert dim_lc_piece(spec, diag, top, a_inv) > 0
            for k in range(a_inv + 1, a_inv + 6):
                assert dim_lc_piece(spec, diag, top, k) == 0
            assert canonical_piece_dim(spec, diag, -a_inv) > 0
            assert canonical_piece_dim(spec, diag, -a_inv - 1) == 0


def test_top_cohomology_duality():
    for spec in small_grid():
        for diag in [D11, DiagonalSpec(3, 2)]:
            top = spec.m + spec.n - 2
            for k in range(-10, 11):
                assert dim_lc_piece(spec, diag, top, k) == canonical_piece_dim(
                    spec, diag, -k)


def test_gorenstein_symmetry():
    cases = 0
    for spec in small_grid():
        for diag in diag_grid():
            if not is_gorenstein(spec, diag):
                continue
            shift = (spec.d - spec.m) // diag.g
            for k in range(-8, 9):
                assert canonical_piece_dim(spec, diag, k) == dim_piece(
                    spec, diag, k + shift)
            cases += 1
    assert cases > 10


def lower_rows_by_scan(spec, diag, ks=range(-10, 16)):
    # Every nonzero piece below the top, found pointwise: on small_grid()
    # and diag_grid() each obstruction window lies in [0, 5].
    return {(q, k): value
            for q in range(spec.m + spec.n - 2) for k in ks
            if (value := dim_lc_piece(spec, diag, q, k))}


def test_cm_iff_lower_cohomology_vanishes_small_grid():
    for spec in small_grid():
        for diag in [D11, DiagonalSpec(2, 1), DiagonalSpec(1, 3)]:
            seen_nonzero = bool(lower_rows_by_scan(spec, diag))
            assert is_cohen_macaulay(spec, diag) == (not seen_nonzero)


def test_rational_and_f_regular_examples():
    assert has_rational_singularities_generic(HypersurfaceSpec(3, 3, 3, 2), D11)
    assert has_rational_singularities_generic(HypersurfaceSpec(3, 3, 2, 2), D11)
    assert not has_rational_singularities_generic(HypersurfaceSpec(3, 2, 5, 1), D11)
    assert is_f_regular_type_generic(HypersurfaceSpec(3, 3, 2, 2))
    assert not is_f_regular_type_generic(HypersurfaceSpec(3, 3, 3, 2))
    assert is_f_regular_type_generic(HypersurfaceSpec(2, 2, 1, 1))


def test_rational_implies_cm_and_negative_a_invariant():
    for spec in small_grid():
        for diag in diag_grid():
            rational = has_rational_singularities_generic(spec, diag)
            cm = is_cohen_macaulay(spec, diag)
            negative = a_invariant(spec, diag) < 0
            if rational:
                assert cm and negative
            # The converse is asserted too: under CM, a negative a-invariant
            # happens exactly when d < m or e < n.  A mismatch here is a
            # finding, not something to patch silently.
            if cm and negative:
                assert rational, (spec, diag)


def test_dim2_rational_examples():
    assert dim2_rational(1, 2, DiagonalSpec(1, 1))
    assert not dim2_rational(1, 3, DiagonalSpec(1, 1))
    for diag in diag_grid():
        assert dim2_rational(1, 1, diag)
    assert dim2_rational(3, 1, DiagonalSpec(2, 1))
    assert not dim2_rational(4, 1, DiagonalSpec(2, 1))


def test_dim2_rational_matches_general_criterion():
    # The m = n = 2 closed form against the general criterion (CM and
    # d < m or e < n) over a grid of diagonals and bidegrees.
    for g in range(1, 5):
        for h in range(1, 5):
            diag = DiagonalSpec(g, h)
            for d in range(1, 12):
                for e in range(1, 12):
                    general = has_rational_singularities_generic(
                        HypersurfaceSpec(2, 2, d, e), diag)
                    assert dim2_rational(d, e, diag) == general, (g, h, d, e)


def test_rees_to_product_diagonal():
    for d in range(1, 9):
        assert rees_to_product_diagonal(d, d + 1, 1) == DiagonalSpec(1, 1)
    assert rees_to_product_diagonal(0, 4, 3) == DiagonalSpec(4, 3)
    assert rees_to_product_diagonal(2, 5, 2) == DiagonalSpec(1, 2)
    with pytest.raises(PreconditionError):
        rees_to_product_diagonal(2, 4, 2)


def test_classify_examples():
    report = classify(HypersurfaceSpec(3, 3, 4, 4), D11)
    assert (report.cohen_macaulay, report.gorenstein,
            report.rational_singularities_generic,
            report.f_regular_type_generic) == (True, True, False, False)

    report = classify(HypersurfaceSpec(3, 3, 2, 2), D11)
    assert (report.cohen_macaulay, report.gorenstein,
            report.rational_singularities_generic,
            report.f_regular_type_generic) == (True, True, True, True)

    report = classify(HypersurfaceSpec(3, 2, 5, 1), D11)
    assert not report.cohen_macaulay and report.cm_obstruction == 1
    assert CAVEAT_GENERIC in report.caveats

    report = classify(HypersurfaceSpec(2, 3, 5, 1), D11)
    assert CAVEAT_NORMALITY in report.caveats


def test_lc_dim_table_matches_pointwise_values():
    spec = HypersurfaceSpec(3, 2, 5, 1)
    table = lc_dim_table(spec, D11)
    assert table[(2, 1)] == dim_lc_piece(spec, D11, 2, 1) == 3
    assert all(value > 0 for value in table.values())
    a_inv = a_invariant(spec, D11)
    top = spec.m + spec.n - 2
    assert (top, a_inv) in table
    assert (top, a_inv + 1) not in table


def test_lc_dim_table_lower_rows_example():
    # At (m, n, d, e) = (3, 2, 5, 1) only H^(m-1) = H^2 lives below the top,
    # on the window e/h <= k <= (d-m)/g, that is k in {1, 2}.
    spec = HypersurfaceSpec(3, 2, 5, 1)
    top = spec.m + spec.n - 2
    lower = {key: value for key, value in lc_dim_table(spec, D11).items()
             if key[0] < top}
    assert lower == {(2, 1): 3, (2, 2): 2}


def lower_rows(spec, diag):
    top = spec.m + spec.n - 2
    return {key: value for key, value in lc_dim_table(spec, diag).items()
            if key[0] < top}


def test_lc_dim_table_lower_rows_are_sound():
    # Every nonzero piece below the top that an independent k-scan finds is
    # a row of the table, with the same value.
    for spec in small_grid():
        for diag in diag_grid():
            lower = lower_rows(spec, diag)
            for key, value in lower_rows_by_scan(spec, diag).items():
                assert lower.get(key) == value, (spec, diag, key)


def test_lc_dim_table_lower_rows_are_tight():
    # Every row below the top is a genuinely nonzero piece, computed
    # pointwise.
    for spec in small_grid():
        for diag in diag_grid():
            for (q, k), value in lower_rows(spec, diag).items():
                assert value > 0, (spec, diag, q, k)
                assert dim_lc_piece(spec, diag, q, k) == value, (
                    spec, diag, q, k)


def test_cm_obstruction_is_least_lower_row():
    for spec in small_grid():
        top = spec.m + spec.n - 2
        for diag in diag_grid():
            lower = [k for q, k in lc_dim_table(spec, diag) if q < top]
            assert cm_obstruction(spec, diag) == min(lower, default=None), (
                spec, diag)


def test_lc_dim_table_counts_every_row_against_the_cap():
    # The rows of the obstruction windows count with the top row's range: a
    # range that fits alone is refused once the windows fill the rest.
    spec = HypersurfaceSpec(3, 2, 5, 1)
    top = spec.m + spec.n - 2
    windows = sum(1 for q, _ in lc_dim_table(spec, D11) if q < top)
    assert windows > 0
    with pytest.raises(DegreeCapError, match="row cap"):
        lc_dim_table(spec, D11, k_lo=0, k_hi=ROW_CAP - windows)
    # Many degrees below the top cost nothing: only the two windows hold
    # rows there, and here both are empty.
    start = time.perf_counter()
    many = HypersurfaceSpec(10**8, 2, 1, 1)
    table = lc_dim_table(many, D11)
    assert time.perf_counter() - start < 1.0
    assert len(table) == 9 and {q for q, _ in table} == {10**8}
    # One huge window is refused before it is walked.
    with pytest.raises(DegreeCapError, match="row cap"):
        lc_dim_table(HypersurfaceSpec(3, 2, 10**21, 1), D11)


def test_hilbert_oracle_small():
    # dim_piece vs the Groebner standard-monomial count of the quotient by a
    # sampled dense form; the tensor ring is a domain so any nonzero form is
    # a nonzerodivisor.
    for m, n, d, e, seed in [(2, 2, 1, 1, 0), (2, 3, 2, 1, 1), (3, 3, 2, 2, 2)]:
        spec = HypersurfaceSpec(m, n, d, e)
        f = random_biform(m, n, d, e, 101, seed)
        assert not f.is_zero
        gb = groebner_basis([f])
        for g, h in [(1, 1), (2, 1)]:
            diag = DiagonalSpec(g, h)
            for k in range(0, 4):
                counted = standard_monomial_count(gb, (g * k, h * k))
                assert dim_piece(spec, diag, k) == counted


def test_hilbert_oracle_past_the_enumeration_cap():
    # At k = 200 and 1000 each bidegree holds 4 * 10^8 to over 10^14
    # monomials, far past the 10^7 the enumeration refused; the count from
    # the Hilbert series of in(f) still matches the closed form.
    for m, n, d, e, seed in [(3, 3, 2, 1, 0), (3, 4, 1, 3, 1)]:
        spec = HypersurfaceSpec(m, n, d, e)
        gb = groebner_basis([random_biform(m, n, d, e, 101, seed)])
        for g, h in [(1, 1), (2, 1)]:
            for k in (200, 1000):
                assert (comb(g * k + m - 1, m - 1)
                        * comb(h * k + n - 1, n - 1)) > 10**7
                counted = standard_monomial_count(gb, (g * k, h * k))
                assert counted == dim_piece(spec, DiagonalSpec(g, h), k), (
                    m, n, d, e, g, h, k)
