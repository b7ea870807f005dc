"""Graded dimension calculus: examples, duality, enumeration oracle."""

import pytest

from diagalg.errors import PreconditionError
from diagalg.exactalg import PolyRing, exponent_vectors, standard_monomial_count
from diagalg.gradedcomb import (
    DiagonalSpec,
    dim_lc_tensor_diag,
    dim_poly,
    dim_tensor_diag,
    dim_top_lc,
)


def test_diagonal_spec_validation():
    DiagonalSpec(1, 1)
    with pytest.raises(PreconditionError):
        DiagonalSpec(0, 1)
    with pytest.raises(PreconditionError, match=r"g must be an integer: 1\.5"):
        DiagonalSpec(1.5, 1)
    d11 = DiagonalSpec(1, 1)
    with pytest.raises(PreconditionError):
        dim_tensor_diag(0, 2, 0, 0, 0, d11)
    # No summand of degree 5 contributes at (m, n) = (0, 2), so only the
    # block check can raise.
    with pytest.raises(PreconditionError):
        dim_lc_tensor_diag(5, 0, 2, 0, 0, 0, d11)
    with pytest.raises(PreconditionError, match=r"^need m >= 1: 0$"):
        dim_top_lc(0, 1)


D11 = DiagonalSpec(1, 1)


@pytest.mark.parametrize("bad", [3.0, "3"])
@pytest.mark.parametrize("name, call", [
    ("m", lambda v: dim_poly(v, 2)),
    ("k", lambda v: dim_poly(3, v)),
    ("m", lambda v: dim_top_lc(v, -3)),
    ("k", lambda v: dim_top_lc(2, v)),
    ("n", lambda v: dim_tensor_diag(2, v, 0, 0, 1, D11)),
    ("k", lambda v: dim_tensor_diag(2, 2, 0, 0, v, D11)),
    ("q", lambda v: dim_lc_tensor_diag(v, 2, 2, 0, 0, -3, D11)),
    ("i", lambda v: dim_lc_tensor_diag(3, 2, 2, v, 0, -3, D11)),
])
def test_closed_forms_refuse_non_integers(name, call, bad):
    # dim_lc_tensor_diag(3.0, 2, 2, 0, 0, -3, D11) returned 4, and a string
    # q or a non-integer i returned 0; the others raised TypeError.
    with pytest.raises(PreconditionError,
                       match=rf"^{name} must be an integer: {bad!r}$"):
        call(bad)


def test_dim_poly_examples():
    assert dim_poly(3, 2) == 6
    for m in range(1, 8):
        assert dim_poly(m, 0) == 1
    assert dim_poly(4, -1) == 0
    with pytest.raises(PreconditionError):
        dim_poly(0, 3)


def test_dim_poly_enumeration_oracle():
    for m in range(1, 5):
        for k in range(-2, 9):
            assert dim_poly(m, k) == sum(1 for _ in exponent_vectors(k, m))


def test_dim_top_lc_examples():
    assert dim_top_lc(3, -3) == 1
    assert dim_top_lc(2, -4) == 3
    assert dim_top_lc(3, -2) == 0
    for m in range(1, 5):
        for k in range(-10, 3):
            assert (dim_top_lc(m, k) > 0) == (k <= -m)


def test_dim_tensor_diag_examples():
    d11 = DiagonalSpec(1, 1)
    assert dim_tensor_diag(2, 2, 0, 0, 1, d11) == 4
    assert dim_tensor_diag(3, 2, -4, -1, 1, d11) == 0
    assert dim_tensor_diag(2, 2, -1, -1, 2, d11) == 4


def test_dim_lc_tensor_diag_examples():
    d11 = DiagonalSpec(1, 1)
    assert dim_lc_tensor_diag(3, 3, 2, -4, -1, 1, d11) == 1
    for m in range(2, 5):
        for n in range(2, 5):
            assert dim_lc_tensor_diag(1, m, n, 2, -3, 1, d11) == 0
    assert dim_lc_tensor_diag(3, 2, 2, 0, 0, -3, d11) == 4
    assert dim_lc_tensor_diag(3, 2, 2, 0, 0, -3, d11) == dim_top_lc(2, -3) ** 2


def test_dim_lc_vanishes_off_kunneth_degrees():
    d = DiagonalSpec(2, 1)
    for m in range(1, 5):
        for n in range(1, 5):
            allowed = {m, n, m + n - 1}
            for q in range(-1, m + n + 2):
                if q in allowed:
                    continue
                for k in range(-4, 5):
                    assert dim_lc_tensor_diag(q, m, n, -2, 1, k, d) == 0


def test_duality_identity_grid():
    # Top local cohomology is the graded dual of the complementary shifted
    # tensor diagonal.  Stated for the two-block regime m, n >= 2; at m = 1 or
    # n = 1 the top Kunneth index collides with a middle one and the literal
    # identity picks up an extra summand.
    for m in range(2, 5):
        for n in range(2, 5):
            for g, h in [(1, 1), (2, 1), (2, 3)]:
                diag = DiagonalSpec(g, h)
                for i in range(-8, 9):
                    for j in range(-8, 9):
                        for k in range(-8, 9):
                            lhs = dim_lc_tensor_diag(m + n - 1, m, n, i, j, k, diag)
                            rhs = dim_tensor_diag(m, n, -i - m, -j - n, -k, diag)
                            assert lhs == rhs, (m, n, g, h, i, j, k)


def test_tensor_diag_enumeration_oracle():
    # Blockwise monomial enumeration agrees with the binomial product on the
    # documented grid.
    for m in range(1, 4):
        for n in range(1, 4):
            for g in range(1, 4):
                for h in range(1, 4):
                    diag = DiagonalSpec(g, h)
                    for i in range(-4, 5):
                        for j in range(-4, 5):
                            for k in range(-4, 5):
                                a = i + g * k
                                b = j + h * k
                                counted = (
                                    sum(1 for _ in exponent_vectors(a, m))
                                    * sum(1 for _ in exponent_vectors(b, n))
                                )
                                assert dim_tensor_diag(m, n, i, j, k, diag) == counted


def test_tensor_diag_standard_monomial_oracle():
    # Spot-check against the full bidegree count of the zero ideal, taken
    # as the ideal of one monomial whose bidegree lies above every count.
    ring_cache = {}
    for m in range(1, 3):
        for n in range(1, 3):
            ring = ring_cache.setdefault((m, n), PolyRing(5, m, n))
            above = [ring.x(1) ** 9 * ring.y(1) ** 9]
            for g in range(1, 3):
                for h in range(1, 3):
                    diag = DiagonalSpec(g, h)
                    for i in range(-2, 3):
                        for j in range(-2, 3):
                            for k in range(-2, 3):
                                expected = standard_monomial_count(
                                    above, (i + g * k, j + h * k))
                                assert dim_tensor_diag(m, n, i, j, k, diag) == expected
