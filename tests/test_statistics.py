"""Quadratic-form statistics, and the per-draw moment-matrix oracle."""

import math

import numpy as np
import pytest

import _reference
from _reference import block_test, column_sums, estimate_moment_matrix, quadratic_form, substream
from ntgof.basis import design_matrix, legendre_basis
from ntgof.catalog import deconvolution_spec, uniformity_spec
from ntgof.errors import NumericError, ScoreMeanError, SingularMatrixError
from ntgof.selection import fixed_budget
from ntgof.statistics import _gated_factor, _series

BASIS = legendre_basis(12)


# ---------------------------------------------------------------------------
# cumulative statistic


def test_single_observation():
    assert _series(np.array([2.0]), 1) == pytest.approx([4.0])


def test_cancelling_sum():
    scores = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    assert _series(scores.sum(0), 4) == pytest.approx([0.0], abs=1e-15)


def test_two_component_oracle():
    # n=2: column sums (2, 2) -> T_1 = (2/sqrt 2)^2 = 2, T_2 = 2 + 2 = 4
    scores = np.array([[1.0, 3.0], [1.0, -1.0]])
    assert _series(scores.sum(0), 2) == pytest.approx([2.0, 4.0])


def test_series_is_nondecreasing():
    rng = np.random.default_rng(3)
    for _ in range(50):
        scores = rng.standard_normal((rng.integers(1, 30), rng.integers(1, 8)))
        t = _series(scores.sum(0), scores.shape[0])
        assert np.all(np.diff(t) >= 0.0)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        _series(np.empty((0, 2)).sum(0), 0)


def test_nonfinite_scores_rejected():
    with pytest.raises(ValueError):
        _series(np.array([[1.0], [np.inf]]).sum(0), 2)


# ---------------------------------------------------------------------------
# series from score sums


def test_series_sums_each_column_pairwise_along_its_contiguous_copy():
    # the rule every test kind's block follows, here through the uniformity kind
    block = np.random.default_rng(35).random((3, 1000))
    for k in (1, 2, 5):
        spec = uniformity_spec(budget=fixed_budget(k))
        want = _series(column_sums(design_matrix(BASIS, block, k)), 1000)
        assert np.array_equal(block_test(block, spec), want)


def test_series_from_sums_with_covariance_matches_matrix_path():
    rng = np.random.default_rng(36)
    scores = rng.standard_normal((4, 60, 3))
    a = rng.standard_normal((3, 3))
    cov = a @ a.T + 3 * np.eye(3)
    series = _series(column_sums(scores), 60, _gated_factor(cov, 3))
    for i in range(4):
        for k in (1, 2, 3):
            want = quadratic_form(scores[i, :, :k], cov[:k, :k])
            assert series[i, k - 1] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_series_from_sums_rejects_non_finite_sums(bad):
    with pytest.raises(ValueError, match="score matrix contains non-finite entries"):
        _series(np.array([[1.0, 2.0], [bad, 0.0]]), 10)


def test_series_from_sums_checks_n_and_shape():
    with pytest.raises(ValueError, match="no rows"):
        _series(np.array([1.0]), 0)
    with pytest.raises(ValueError, match="does not match"):
        _gated_factor(np.eye(3), 2)


# ---------------------------------------------------------------------------
# weighted quadratic form


def test_zero_mean_vector():
    assert _series(np.zeros(3), 10, _gated_factor(np.eye(3), 3))[-1] == 0.0


def test_identity_weight_reduces_to_cumulative_form():
    scores = np.array([[1.0, 3.0], [1.0, -1.0]])
    t2 = _series(scores.sum(0), 2, _gated_factor(np.eye(2), 2))[-1]
    assert t2 == pytest.approx(_series(scores.sum(0), 2)[-1])
    assert t2 == pytest.approx(4.0)


def test_hand_expanded_quadratic_form():
    # n=1, lbar=(1,1), L=[[2,1],[1,2]] -> 2 + 1 + 1 + 2 = 6
    lmat = np.array([[2.0, 1.0], [1.0, 2.0]])
    factor = _gated_factor(np.linalg.inv(lmat), 2)
    assert _series(np.array([1.0, 1.0]), 1, factor)[-1] == pytest.approx(6.0)


def test_matches_naive_triple_loop():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 4))
        scores = rng.integers(-5, 6, size=(n, k)) / 4.0  # exact dyadic rationals
        a = rng.standard_normal((k, k))
        lmat = a @ a.T + k * np.eye(k)
        got = _series(scores.sum(0), n, _gated_factor(np.linalg.inv(lmat), k))[-1]
        want = 0.0
        for a_ in range(k):
            for b_ in range(k):
                sa = sum(scores[i, a_] for i in range(n)) / n
                sb = sum(scores[i, b_] for i in range(n)) / n
                want += n * sa * lmat[a_, b_] * sb
        assert got == pytest.approx(want, abs=1e-12)


def test_scale_relation():
    rng = np.random.default_rng(5)
    scores = rng.standard_normal((20, 3))
    a = rng.standard_normal((3, 3))
    lmat = a @ a.T + np.eye(3)
    base = _series(scores.sum(0), 20, _gated_factor(np.linalg.inv(lmat), 3))[-1]
    scaled = _series(scores.sum(0), 20, _gated_factor(np.linalg.inv(2.5 * lmat), 3))[-1]
    assert scaled == pytest.approx(2.5 * base, rel=1e-13)


def test_non_pd_weight_rejected():
    with pytest.raises(SingularMatrixError):
        _gated_factor(np.array([[1.0, 0.0], [0.0, -1.0]]), 2)


# ---------------------------------------------------------------------------
# the per-draw Monte Carlo moment matrix that the deconvolution table's
# per-cell matrix is checked against


def legendre_scores(k):
    """(k, evaluate) of the first k Legendre scores."""
    return k, lambda y: design_matrix(BASIS, y, k)


def test_estimate_close_to_identity():
    # orthonormal scores under their own null: E l l^T = I
    moment = estimate_moment_matrix(
        lambda rng, n: rng.random(n), *legendre_scores(3), draws=200_000, seed=0
    )
    assert np.linalg.norm(np.linalg.inv(moment) - np.eye(3), ord="fro") < 0.05


def test_estimate_equals_chunk_order_sum():
    # 20_000 draws in chunks of 4096: four full chunks and one of 3616,
    # chunk c on substream (9, c), summed in chunk order
    sampler = lambda rng, n: rng.random(n)
    k, evaluate = legendre_scores(2)
    outer = np.zeros((2, 2))
    for c, m in enumerate([4096] * 4 + [3616]):
        s = evaluate(sampler(substream(9, c), m))
        outer += s.T @ s
    want = outer / 20_000
    got = estimate_moment_matrix(sampler, k, evaluate, draws=20_000, seed=9)
    assert np.array_equal(got, 0.5 * (want + want.T))


def test_estimate_repeatable():
    sampler = lambda rng, n: rng.random(n)
    scores = legendre_scores(2)
    m1 = estimate_moment_matrix(sampler, *scores, draws=10_000, seed=4)
    m2 = estimate_moment_matrix(sampler, *scores, draws=10_000, seed=4)
    assert np.array_equal(m1, m2)
    m3 = estimate_moment_matrix(sampler, *scores, draws=10_000, seed=5)
    assert not np.array_equal(m1, m3)


def test_duplicated_component_is_singular():
    def duplicated(y):
        col = math.sqrt(3.0) * (2.0 * np.asarray(y, dtype=float) - 1.0)
        return np.column_stack([col, col])

    moment = estimate_moment_matrix(lambda rng, n: rng.random(n), 2, duplicated, 5000, seed=1)
    with pytest.raises(SingularMatrixError):
        _gated_factor(moment, 2)


def test_nonzero_mean_scores_rejected():
    # constant-one component has mean 1, far outside 4 standard errors
    ones = lambda y: np.ones((np.asarray(y).size, 1))
    with pytest.raises(ScoreMeanError):
        estimate_moment_matrix(lambda rng, n: rng.random(n), 1, ones, draws=2000, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_moment_sums_rejected(bad):
    # a NaN compares False against the mean gate, so the sums are checked first
    def evaluate(obs):
        s = design_matrix(BASIS, obs, 3)
        s[7] = bad
        return s

    sampler = lambda rng, m: rng.random(m)
    with pytest.raises(NumericError, match="not finite"):
        estimate_moment_matrix(sampler, 3, evaluate, 5000, seed=0)


def test_too_few_draws_rejected():
    with pytest.raises(ValueError, match="draws"):
        estimate_moment_matrix(lambda rng, n: rng.random(n), *legendre_scores(3), 50, seed=0)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda y: design_matrix(BASIS, y, 2),  # two columns, not three
        lambda y: design_matrix(BASIS, y, 3)[:-1],  # one row short
    ],
    ids=["wrong_k", "wrong_m"],
)
def test_evaluator_shape_checked(evaluate):
    with pytest.raises(ValueError, match=r"score evaluator returned shape"):
        estimate_moment_matrix(lambda rng, n: rng.random(n), 3, evaluate, 5000, seed=0)


def test_zero_dimension_rejected():
    with pytest.raises(ValueError, match="k must be >= 1"):
        estimate_moment_matrix(lambda rng, n: rng.random(n), 0, lambda y: y, 5000, seed=0)


# ---------------------------------------------------------------------------
# per-dimension series with a common moment matrix


def test_series_identity_moment_equals_cumulative_form():
    rng = np.random.default_rng(31)
    scores = rng.standard_normal((25, 4))
    series = _series(scores.sum(0), 25, _gated_factor(np.eye(4), 4))
    assert series == pytest.approx(_series(scores.sum(0), 25), rel=1e-12)


def test_zero_estimated_scores():
    assert _series(np.zeros(2), 8, _gated_factor(np.eye(2), 2))[-1] == 0.0


def test_one_observation_diagonal_weight():
    # covariance diag(1, 1/2) is the weight diag(1, 2); lbar = (1, 0)
    factor = _gated_factor(np.diag([1.0, 0.5]), 2)
    assert _series(np.array([1.0, 0.0]), 1, factor)[-1] == pytest.approx(1.0)


def test_series_of_a_batch_equals_rows_alone():
    rng = np.random.default_rng(34)
    sums = column_sums(rng.standard_normal((5, 40, 4)))
    a = rng.standard_normal((5, 4, 4))
    covs = a @ a.transpose(0, 2, 1) + 4 * np.eye(4)
    for shared in (True, False):
        batch = _series(sums, 40, _gated_factor(covs[0] if shared else covs, 4))
        assert batch.shape == (5, 4)
        for i in range(5):
            alone = _series(sums[i], 40, _gated_factor(covs[0 if shared else i], 4))
            assert np.array_equal(batch[i], alone)
    assert np.array_equal(_series(sums, 40)[2], _series(sums[2], 40))


def test_series_gates_every_row_of_a_batch():
    covs = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-12]), np.eye(3)])
    with pytest.raises(SingularMatrixError, match=r"dimension 3 .*block that passes is 2 x 2"):
        _gated_factor(covs, 3)


def small_deconv_scores_and_moment():
    # the real moment matrix at the cap (12) of a cheap deconvolution spec
    table = deconvolution_spec(l_draws=20_000, grid_points=501)._built
    rng = np.random.default_rng(33)
    y = rng.random(400) + 0.25 * rng.standard_normal(400)
    return _reference.evaluate(table, y), table.moment


def test_series_uses_leading_blocks():
    rng = np.random.default_rng(32)
    scores = rng.standard_normal((25, 3))
    a = rng.standard_normal((3, 3))
    cases = [(scores, a @ a.T + 3 * np.eye(3))]
    # the noise smooths the degree-12 score into near dependence: the
    # 12 x 12 matrix fails the 1e-10 gate, its leading
    # 11 x 11 block passes
    scores, moment = small_deconv_scores_and_moment()
    with pytest.raises(SingularMatrixError):
        _gated_factor(moment, 12)
    cases.append((scores[:, :11], moment[:11, :11]))
    for scores, moment in cases:
        factor = _gated_factor(moment, scores.shape[1])
        series = _series(scores.sum(0), scores.shape[0], factor)
        for k in range(1, scores.shape[1] + 1):
            want = quadratic_form(scores[:, :k], moment[:k, :k])
            assert series[k - 1] == pytest.approx(want, rel=1e-12)
