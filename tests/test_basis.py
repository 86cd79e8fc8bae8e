"""Shifted-Legendre score system: values, orthonormality, envelopes."""

import math

import numpy as np
import pytest

from ntgof.basis import (
    _gauss_legendre,
    design_matrix,
    eval_basis,
    gram_matrix,
    legendre_basis,
    sup_norm_bound,
    user_basis,
)

BASIS = legendre_basis(12)


# ---------------------------------------------------------------------------
# point values


@pytest.mark.parametrize(
    "j, x, expected",
    [
        (1, 1.0, math.sqrt(3.0)),  # b_1(x) = sqrt(3)(2x - 1)
        (1, 0.5, 0.0),
        (1, 0.0, -math.sqrt(3.0)),
        (2, 0.5, -math.sqrt(5.0) / 2.0),  # b_2(x) = sqrt(5)(6x^2 - 6x + 1)
        (2, 0.0, math.sqrt(5.0)),
        (2, 1.0, math.sqrt(5.0)),
    ],
)
def test_point_values(j, x, expected):
    assert eval_basis(BASIS, j, x) == pytest.approx(expected, abs=1e-12)


def test_scalar_input_gives_scalar():
    out = eval_basis(BASIS, 3, 0.3)
    assert isinstance(out, float)


def test_low_degree_closed_forms():
    # recurrence output vs the explicit degree-1 and degree-2 polynomials
    x = np.linspace(0.0, 1.0, 1000)
    b1 = math.sqrt(3.0) * (2.0 * x - 1.0)
    b2 = math.sqrt(5.0) * (6.0 * x**2 - 6.0 * x + 1.0)
    assert np.max(np.abs(eval_basis(BASIS, 1, x) - b1)) < 1e-12
    assert np.max(np.abs(eval_basis(BASIS, 2, x) - b2)) < 1e-12


def test_matches_numpy_legendre_to_degree_12():
    # independent oracle: b_j(x) = sqrt(2j + 1) P_j(2x - 1) with P_j from
    # numpy's Legendre series evaluator
    rng = np.random.default_rng(7)
    x = rng.random(500)
    for j in range(1, 13):
        coef = np.zeros(j + 1)
        coef[j] = 1.0
        ref = math.sqrt(2 * j + 1) * np.polynomial.legendre.legval(2 * x - 1, coef)
        assert np.max(np.abs(eval_basis(BASIS, j, x) - ref)) < 1e-11


# ---------------------------------------------------------------------------
# orthonormality


def test_gram_is_identity_to_1e10():
    g = gram_matrix(BASIS, 10, nodes=200)
    assert g.shape == (11, 11)
    assert np.max(np.abs(g - np.eye(11))) < 1e-10


def test_quadrature_rule_is_cached_and_read_only():
    t, w = _gauss_legendre(64)
    want_t, want_w = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(t, want_t) and np.array_equal(w, want_w)
    again = _gauss_legendre(64)
    assert again[0] is t and again[1] is w
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 0.0


def test_zero_mean_components():
    # first Gram row pairs each b_j against the constant function
    g = gram_matrix(BASIS, 12)
    assert np.max(np.abs(g[0, 1:])) < 1e-12


# ---------------------------------------------------------------------------
# domain and degree errors


@pytest.mark.parametrize("j", [0, -1, 13])
def test_degree_out_of_range(j):
    with pytest.raises(ValueError, match="degree"):
        eval_basis(BASIS, j, 0.5)


@pytest.mark.parametrize("x", [-0.001, 1.001, np.array([0.2, 1.5])])
def test_domain_violation(x):
    with pytest.raises(ValueError, match="outside"):
        eval_basis(BASIS, 1, x)


def test_nan_input_rejected():
    with pytest.raises(ValueError):
        eval_basis(BASIS, 1, np.array([0.5, np.nan]))


# ---------------------------------------------------------------------------
# design matrix


def test_design_matrix_columns_match_eval():
    rng = np.random.default_rng(11)
    x = rng.random(40)
    m = design_matrix(BASIS, x, 6)
    assert m.shape == (40, 6)
    for j in range(1, 7):
        assert np.array_equal(m[:, j - 1], eval_basis(BASIS, j, x))


def test_design_matrix_k_bounds():
    with pytest.raises(ValueError):
        design_matrix(BASIS, np.array([0.5]), 13)
    with pytest.raises(ValueError):
        design_matrix(BASIS, np.array([0.5]), 0)


# ---------------------------------------------------------------------------
# envelope constants


@pytest.mark.parametrize(
    "k, expected",
    [
        (1, math.sqrt(3.0)),
        (2, math.sqrt(5.0)),
        (3, math.sqrt(12.0)),
        (8, math.sqrt(7.0 * 11.0)),
    ],
)
def test_envelope_values(k, expected):
    assert sup_norm_bound(k) == pytest.approx(expected, rel=1e-15)


def test_envelope_bounds_partial_score_norm():
    # M(k)^2 = (k-1)(k+3) is the exact sup over [0,1] of
    # sum_{j=2}^{k} b_j(x)^2, attained at the endpoints.  The full
    # vector including b_1 peaks at k(k+2) = M(k)^2 + 3 instead, so the
    # envelope is checked against the j >= 2 tail it actually bounds.
    x = np.linspace(0.0, 1.0, 10_000)
    for k in range(2, 9):
        cols = design_matrix(BASIS, x, k)
        tail = np.sum(cols[:, 1:] ** 2, axis=1)
        assert np.max(tail) <= sup_norm_bound(k) ** 2 + 1e-6
        full_at_end = float(np.sum(cols[-1] ** 2))
        assert full_at_end == pytest.approx(k * (k + 2), rel=1e-12)


def test_envelope_dominates_b1():
    x = np.linspace(0.0, 1.0, 10_000)
    assert np.max(np.abs(eval_basis(BASIS, 1, x))) <= sup_norm_bound(1) + 1e-12


def test_envelope_rejects_bad_k():
    with pytest.raises(ValueError):
        sup_norm_bound(0)


# ---------------------------------------------------------------------------
# user-supplied systems


def test_user_basis_accepts_orthonormal_system():
    comps = [
        lambda x: math.sqrt(3.0) * (2.0 * np.asarray(x) - 1.0),
        lambda x: math.sqrt(5.0) * (6.0 * np.asarray(x) ** 2 - 6.0 * np.asarray(x) + 1.0),
    ]
    b = user_basis(comps)
    assert b.max_degree == 2
    x = np.linspace(0.0, 1.0, 101)
    assert np.allclose(eval_basis(b, 2, x), eval_basis(BASIS, 2, x), atol=1e-12)


def test_user_basis_rejects_unnormalized_system():
    with pytest.raises(ValueError, match="not orthonormal"):
        user_basis([lambda x: 2.0 * np.asarray(x) - 1.0])  # norm 1/sqrt(3), not 1


def test_user_basis_rejects_nonzero_mean():
    with pytest.raises(ValueError, match="not orthonormal"):
        user_basis([lambda x: np.ones_like(np.asarray(x, dtype=float))])
