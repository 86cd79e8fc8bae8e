"""Quadratic-form statistics and Monte Carlo moment matrices."""

import math

import numpy as np
import pytest

from ntgof._rng import substream
from ntgof.basis import design_matrix, legendre_basis
from ntgof.catalog import _deconv_artifacts, deconvolution_spec
from ntgof.errors import NumericError, ScoreMeanError, SingularMatrixError
from ntgof.statistics import (
    MeanVector,
    NormalizingMatrix,
    ScoreBasis,
    estimate_moment_matrix,
    nt_series,
    nt_series_from_sums,
    nt_statistic,
    ordered_eigenvalues,
)

BASIS = legendre_basis(12)


# ---------------------------------------------------------------------------
# cumulative statistic


def test_single_observation():
    assert nt_series(np.array([[2.0]])) == pytest.approx([4.0])


def test_cancelling_sum():
    scores = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    assert nt_series(scores) == pytest.approx([0.0], abs=1e-15)


def test_two_component_oracle():
    # n=2: column sums (2, 2) -> T_1 = (2/sqrt 2)^2 = 2, T_2 = 2 + 2 = 4
    scores = np.array([[1.0, 3.0], [1.0, -1.0]])
    assert nt_series(scores) == pytest.approx([2.0, 4.0])


def test_series_is_nondecreasing():
    rng = np.random.default_rng(3)
    for _ in range(50):
        scores = rng.standard_normal((rng.integers(1, 30), rng.integers(1, 8)))
        t = nt_series(scores)
        assert np.all(np.diff(t) >= 0.0)


def test_empty_sample_rejected():
    with pytest.raises(ValueError):
        nt_series(np.empty((0, 2)))


def test_nonfinite_scores_rejected():
    with pytest.raises(ValueError):
        nt_series(np.array([[1.0], [np.inf]]))


# ---------------------------------------------------------------------------
# series from score sums


def test_series_sums_each_column_pairwise_along_its_contiguous_copy():
    rng = np.random.default_rng(35)
    for k in (1, 2, 5):
        scores = rng.standard_normal((3, 1000, k)) * 1e3
        cols = np.ascontiguousarray(np.moveaxis(scores, -1, -2))
        sums = np.add.reduce(cols, axis=-1)
        assert np.array_equal(nt_series(scores), nt_series_from_sums(sums, 1000))
        for i in range(3):
            assert np.array_equal(
                nt_series(scores[i]), nt_series_from_sums(np.add.reduce(cols[i], axis=-1), 1000)
            )
    # at k = 1 the column is the matrix itself
    x = rng.standard_normal(1000)
    assert np.array_equal(nt_series(x[:, None]), nt_series_from_sums([np.add.reduce(x)], 1000))


def test_series_from_sums_with_covariance_matches_matrix_path():
    rng = np.random.default_rng(36)
    scores = rng.standard_normal((4, 60, 3))
    a = rng.standard_normal((3, 3))
    cov = a @ a.T + 3 * np.eye(3)
    sums = np.add.reduce(np.ascontiguousarray(np.moveaxis(scores, -1, -2)), axis=-1)
    assert np.array_equal(nt_series_from_sums(sums, 60, cov), nt_series(scores, cov))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_series_from_sums_rejects_non_finite_sums(bad):
    with pytest.raises(ValueError, match="score matrix contains non-finite entries"):
        nt_series_from_sums(np.array([[1.0, 2.0], [bad, 0.0]]), 10)


def test_series_from_sums_checks_n_and_shape():
    with pytest.raises(ValueError, match="no rows"):
        nt_series_from_sums([1.0], 0)
    with pytest.raises(ValueError, match="at least 1-d"):
        nt_series_from_sums(1.0, 4)
    with pytest.raises(ValueError, match="does not match"):
        nt_series_from_sums([1.0, 2.0], 4, np.eye(3))


# ---------------------------------------------------------------------------
# weighted quadratic form


def test_zero_mean_vector():
    mean = MeanVector(np.zeros(3), n=10)
    assert nt_statistic(mean, NormalizingMatrix.identity(3)) == 0.0


def test_identity_weight_reduces_to_cumulative_form():
    scores = np.array([[1.0, 3.0], [1.0, -1.0]])
    mean = MeanVector.from_scores(scores)
    t2 = nt_statistic(mean, NormalizingMatrix.identity(2))
    assert t2 == pytest.approx(nt_series(scores)[-1])
    assert t2 == pytest.approx(4.0)


def test_hand_expanded_quadratic_form():
    # n=1, lbar=(1,1), L=[[2,1],[1,2]] -> 2 + 1 + 1 + 2 = 6
    mean = MeanVector(np.array([1.0, 1.0]), n=1)
    weight = NormalizingMatrix.from_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert nt_statistic(mean, weight) == pytest.approx(6.0)


def test_matches_naive_triple_loop():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 4))
        scores = rng.integers(-5, 6, size=(n, k)) / 4.0  # exact dyadic rationals
        a = rng.standard_normal((k, k))
        lmat = a @ a.T + k * np.eye(k)
        mean = MeanVector.from_scores(scores)
        got = nt_statistic(mean, NormalizingMatrix.from_matrix(lmat))
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
    mean = MeanVector.from_scores(scores)
    a = rng.standard_normal((3, 3))
    lmat = a @ a.T + np.eye(3)
    base = nt_statistic(mean, NormalizingMatrix.from_matrix(lmat))
    scaled = nt_statistic(mean, NormalizingMatrix.from_matrix(2.5 * lmat))
    assert scaled == pytest.approx(2.5 * base, rel=1e-13)


def test_dimension_mismatch():
    mean = MeanVector(np.array([1.0, 2.0]), n=4)
    with pytest.raises(ValueError):
        nt_statistic(mean, NormalizingMatrix.identity(3))


def test_non_pd_weight_rejected():
    with pytest.raises(ValueError):
        NormalizingMatrix.from_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_asymmetric_weight_rejected():
    # the raw constructor enforces symmetry; from_matrix symmetrizes
    with pytest.raises(ValueError, match="symmetric"):
        NormalizingMatrix(
            np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.5, 0.5]), "user_supplied"
        )
    sym = NormalizingMatrix.from_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert np.array_equal(sym.matrix, sym.matrix.T)


# ---------------------------------------------------------------------------
# eigenvalues


def test_eigenvalues_identity():
    assert ordered_eigenvalues(np.eye(3)) == pytest.approx([1.0, 1.0, 1.0])


def test_eigenvalues_diagonal_sorted():
    assert ordered_eigenvalues(np.diag([4.0, 1.0, 9.0])) == pytest.approx([9.0, 4.0, 1.0])


def test_eigenvalues_two_by_two():
    got = ordered_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert got == pytest.approx([3.0, 1.0])


def test_eigenvalues_require_symmetry():
    with pytest.raises(ValueError):
        ordered_eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Monte Carlo moment matrix


def legendre_score_basis(k):
    return ScoreBasis(k, lambda y: design_matrix(BASIS, y, k))


def test_estimate_close_to_identity():
    # orthonormal scores under their own null: E l l^T = I
    moment = estimate_moment_matrix(
        lambda rng, n: rng.random(n), legendre_score_basis(3), draws=200_000, seed=0
    )
    est = NormalizingMatrix.from_moment_matrix(moment, "estimated_from_null_sampler")
    assert est.provenance == "estimated_from_null_sampler"
    assert np.linalg.norm(est.matrix - np.eye(3), ord="fro") < 0.05
    assert np.all(np.diff(est.eigenvalues) <= 0.0)


def test_estimate_equals_chunk_order_sum():
    # 20_000 draws in chunks of 4096: four full chunks and one of 3616,
    # chunk c on substream (9, c), summed in chunk order
    sampler = lambda rng, n: rng.random(n)
    sb = legendre_score_basis(2)
    outer = np.zeros((2, 2))
    for c, m in enumerate([4096] * 4 + [3616]):
        s = sb.evaluate(sampler(substream(9, c), m))
        outer += s.T @ s
    want = outer / 20_000
    got = estimate_moment_matrix(sampler, sb, draws=20_000, seed=9)
    assert np.array_equal(got, 0.5 * (want + want.T))


def test_estimate_repeatable():
    sampler = lambda rng, n: rng.random(n)
    sb = legendre_score_basis(2)
    m1 = estimate_moment_matrix(sampler, sb, draws=10_000, seed=4)
    m2 = estimate_moment_matrix(sampler, sb, draws=10_000, seed=4)
    assert np.array_equal(m1, m2)
    m3 = estimate_moment_matrix(sampler, sb, draws=10_000, seed=5)
    assert not np.array_equal(m1, m3)


def test_duplicated_component_is_singular():
    def duplicated(y):
        col = math.sqrt(3.0) * (2.0 * np.asarray(y, dtype=float) - 1.0)
        return np.column_stack([col, col])

    sb = ScoreBasis(2, duplicated)
    moment = estimate_moment_matrix(lambda rng, n: rng.random(n), sb, draws=5000, seed=1)
    with pytest.raises(SingularMatrixError):
        nt_series(duplicated(np.linspace(0.0, 1.0, 7)), moment)


def test_nonzero_mean_scores_rejected():
    # constant-one component has mean 1, far outside 4 standard errors
    sb = ScoreBasis(1, lambda y: np.ones((np.asarray(y).size, 1)))
    with pytest.raises(ScoreMeanError):
        estimate_moment_matrix(lambda rng, n: rng.random(n), sb, draws=2000, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_moment_sums_rejected(bad):
    # a NaN compares False against the mean gate, so the sums are checked first
    def evaluate(obs):
        s = design_matrix(BASIS, obs, 3)
        s[7] = bad
        return s

    sampler = lambda rng, m: rng.random(m)
    with pytest.raises(NumericError, match="not finite"):
        estimate_moment_matrix(sampler, ScoreBasis(3, evaluate), 5000, seed=0)


def test_too_few_draws_rejected():
    with pytest.raises(ValueError, match="draws"):
        estimate_moment_matrix(
            lambda rng, n: rng.random(n), legendre_score_basis(3), draws=50, seed=0
        )


def test_analytic_identity_provenance():
    ident = NormalizingMatrix.identity(4)
    assert ident.provenance == "analytic_identity"
    assert np.array_equal(ident.matrix, np.eye(4))
    assert ident.eigenvalues == pytest.approx([1.0] * 4)


# ---------------------------------------------------------------------------
# per-dimension series with a common moment matrix


def test_series_identity_moment_equals_cumulative_form():
    rng = np.random.default_rng(31)
    scores = rng.standard_normal((25, 4))
    series = nt_series(scores, np.eye(4))
    assert series == pytest.approx(nt_series(scores), rel=1e-12)


def test_zero_estimated_scores():
    assert nt_series(np.zeros((8, 2)), np.eye(2))[-1] == 0.0


def test_one_observation_diagonal_weight():
    # covariance diag(1, 1/2) is the weight diag(1, 2); lbar = (1, 0)
    assert nt_series(np.array([[1.0, 0.0]]), np.diag([1.0, 0.5]))[-1] == pytest.approx(1.0)


def test_series_of_a_batch_equals_rows_alone():
    rng = np.random.default_rng(34)
    scores = rng.standard_normal((5, 40, 4))
    a = rng.standard_normal((5, 4, 4))
    covs = a @ a.transpose(0, 2, 1) + 4 * np.eye(4)
    for shared in (True, False):
        batch = nt_series(scores, covs[0] if shared else covs)
        assert batch.shape == (5, 4)
        for i in range(5):
            assert np.array_equal(batch[i], nt_series(scores[i], covs[0 if shared else i]))
    assert np.array_equal(nt_series(scores)[2], nt_series(scores[2]))


def test_series_gates_every_row_of_a_batch():
    covs = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-12]), np.eye(3)])
    with pytest.raises(SingularMatrixError, match=r"dimension 3 .*block that passes is 2 x 2"):
        nt_series(np.ones((3, 10, 3)), covs)


def small_deconv_scores_and_moment():
    # the real moment matrix at the cap (12) of a cheap deconvolution spec
    table, moment = _deconv_artifacts(deconvolution_spec(l_draws=20_000, grid_points=501))
    rng = np.random.default_rng(33)
    y = rng.random(400) + 0.25 * rng.standard_normal(400)
    return table.evaluate(y), moment


def test_series_uses_leading_blocks():
    rng = np.random.default_rng(32)
    scores = rng.standard_normal((25, 3))
    a = rng.standard_normal((3, 3))
    cases = [(scores, a @ a.T + 3 * np.eye(3))]
    # the noise smooths the degree-12 score into near dependence: the
    # 12 x 12 matrix fails the 1e-10 gate in both paths, its leading
    # 11 x 11 block passes
    scores, moment = small_deconv_scores_and_moment()
    with pytest.raises(SingularMatrixError):
        nt_series(scores, moment)
    with pytest.raises(SingularMatrixError):
        NormalizingMatrix.from_moment_matrix(moment, provenance="user_supplied")
    cases.append((scores[:, :11], moment[:11, :11]))
    for scores, moment in cases:
        series = nt_series(scores, moment)
        for k in range(1, scores.shape[1] + 1):
            weight = NormalizingMatrix.from_moment_matrix(
                moment[:k, :k], provenance="user_supplied"
            )
            want = nt_statistic(MeanVector.from_scores(scores[:, :k]), weight)
            assert series[k - 1] == pytest.approx(want, rel=1e-12)
