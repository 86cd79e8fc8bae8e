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
    score_sums,
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


@pytest.mark.parametrize(
    "values, message",
    [
        ([0.2, np.nan, 0.7], "contains non-finite values"),
        ([2.0, np.nan], "contains non-finite values"),  # a NaN is named first
        ([0.2, np.inf], r"outside \[0, 1\]: inf"),
        ([-np.inf, 0.2], r"outside \[0, 1\]: -inf"),
        ([0.2, 1.5, -0.5], r"outside \[0, 1\]: 1.5"),  # the first bad point
    ],
)
def test_domain_check_messages(values, message):
    x = np.array(values)
    for call in (
        lambda: eval_basis(BASIS, 1, x),
        lambda: design_matrix(BASIS, x, 3),
        lambda: score_sums(BASIS, x[None], 3),
    ):
        with pytest.raises(ValueError, match=message):
            call()


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


def _recurrence_loop(x, k):
    """b_1..b_k by the three-term recurrence written out in full."""
    t = 2.0 * x - 1.0
    out = np.empty(x.shape + (k,))
    p_prev, p_cur = np.ones_like(t), t.copy()
    out[..., 0] = math.sqrt(3.0) * p_cur
    for j in range(1, k):
        p_next = ((2 * j + 1) * t * p_cur - j * p_prev) / (j + 1)
        p_prev, p_cur = p_cur, p_next
        out[..., j] = math.sqrt(2 * j + 3) * p_cur
    return out


def test_design_matrix_equals_recurrence_loop_bitwise():
    rng = np.random.default_rng(12)
    x = np.concatenate([[0.0, 0.5, 1.0], rng.random(200)]).reshape(7, 29)
    assert np.array_equal(design_matrix(BASIS, x, 12), _recurrence_loop(x, 12))


# ---------------------------------------------------------------------------
# score sums


def _column_sums(scores):
    """np.add.reduce over a contiguous copy of each column along the samples."""
    return np.stack(
        [np.add.reduce(np.ascontiguousarray(scores[..., j]), axis=-1)
         for j in range(scores.shape[-1])],
        axis=-1,
    )


USER = user_basis(
    [
        lambda x: math.sqrt(3.0) * (2.0 * np.asarray(x) - 1.0),
        lambda x: math.sqrt(5.0) * (6.0 * np.asarray(x) ** 2 - 6.0 * np.asarray(x) + 1.0),
    ]
)


@pytest.mark.parametrize("basis", [BASIS, USER], ids=["legendre", "user"])
@pytest.mark.parametrize("shape", [(37,), (64, 500), (2, 3, 41)])
def test_score_sums_equal_column_sums_of_design_matrix(basis, shape):
    x = np.random.default_rng(13).random(shape)
    for k in range(1, basis.max_degree + 1):
        got = score_sums(basis, x, k)
        assert got.shape == shape[:-1] + (k,)
        assert np.array_equal(got, _column_sums(design_matrix(basis, x, k)))


@pytest.mark.parametrize("basis", [BASIS, USER], ids=["legendre", "user"])
def test_score_sums_of_a_block_row_equal_the_row_alone(basis):
    block = np.random.default_rng(14).random((64, 500))
    k = basis.max_degree
    sums = score_sums(basis, block, k)
    for i, row in enumerate(block):
        assert np.array_equal(sums[i], score_sums(basis, row, k))
    # the sums do not depend on how the block is laid out in memory
    for view in (np.asfortranarray(block), block[:, ::2]):
        assert np.array_equal(score_sums(basis, view, k), score_sums(basis, view.copy(), k))
    assert np.array_equal(score_sums(basis, np.asfortranarray(block), k), sums)


def test_score_sums_checks_degree_and_shape():
    for k in (-1, 0, 13):
        with pytest.raises(ValueError, match=f"k={k} outside"):
            score_sums(BASIS, np.full((2, 5), 0.5), k)
    with pytest.raises(ValueError, match="last axis"):
        score_sums(BASIS, 0.5, 1)


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
