"""Score-based test statistics.

Everything here works from *score sums*: with l_1(Y_i), ..., l_k(Y_i)
the k score components of observation i, a sample enters only through

    v = n^{-1/2} * (sum_i l_1(Y_i), ..., sum_i l_k(Y_i)).

Under the null each component has mean zero, so v is asymptotically
centered Gaussian with the scores' null covariance Sigma, and every
test in the package uses the nested quadratic forms

    T_k = v_k^T Sigma_k^{-1} v_k,      k = 1, ..., d,

where v_k and Sigma_k are the first k entries and the leading k-by-k
block.  :func:`nt_series_from_sums` computes all of them at once from
the sums and n: with the lower Cholesky factor Sigma = L L^T, T_k is
the k-th cumulative sum of squares of L^{-1} v.  Orthonormal scores
have Sigma = I, and the series is the plain cumulative sum of squares
of v.  :func:`nt_series` takes an n-by-k score matrix instead and sums
its columns by the same rule the test kinds use: NumPy's pairwise sum
along each column, read contiguously.

:func:`nt_statistic` is the single quadratic form n * lbar W lbar^T for
an explicit weight W (a :class:`NormalizingMatrix`); it is the reference
the series is checked against.

Sigma is rarely available in closed form outside the orthonormal case,
so :func:`estimate_moment_matrix` estimates the second-moment matrix
E_0 l(Y)^T l(Y) from a null sampler by plain Monte Carlo: accumulate it
in fixed-size chunks (each chunk on its own counter-based stream,
reduced in chunk order) and sanity-check that every component mean is
within a few standard errors of zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import basis as _basis
from ._rng import substream
from .errors import NumericError, ScoreMeanError, SingularMatrixError

__all__ = [
    "ScoreBasis",
    "MeanVector",
    "NormalizingMatrix",
    "nt_statistic",
    "nt_series",
    "nt_series_from_sums",
    "estimate_moment_matrix",
    "ordered_eigenvalues",
]

# Relative eigenvalue floor below which a moment matrix is declared
# singular (condition number gate of 1e10).
_COND_GATE = 1e-10


class ScoreBasis:
    """A k-dimensional score system evaluated on observation batches.

    ``evaluate`` maps a batch of m observations (whatever shape one
    observation has) to an (m, k) float matrix of score components.
    """

    def __init__(self, k: int, evaluate: Callable[[np.ndarray], np.ndarray]):
        if k < 1:
            raise ValueError("score dimension k must be >= 1")
        self.k = int(k)
        self._evaluate = evaluate

    @classmethod
    def from_orthonormal_basis(cls, basis: _basis.OrthonormalBasis, k: int) -> "ScoreBasis":
        """Scores b_1, ..., b_k of an orthonormal basis on [0, 1]."""
        if k > basis.max_degree:
            raise ValueError(f"k={k} exceeds basis max_degree={basis.max_degree}")
        return cls(k, lambda obs: _basis.design_matrix(basis, obs, k))

    @classmethod
    def from_components(cls, components: Sequence[Callable]) -> "ScoreBasis":
        """Scores given as one vectorized callable per component."""
        funcs = tuple(components)

        def evaluate(obs):
            return np.column_stack([np.asarray(f(obs), dtype=float) for f in funcs])

        return cls(len(funcs), evaluate)

    def evaluate(self, obs) -> np.ndarray:
        scores = np.asarray(self._evaluate(obs), dtype=float)
        if scores.ndim != 2 or scores.shape[1] != self.k:
            raise ValueError(
                f"score evaluator returned shape {scores.shape}, expected (m, {self.k})"
            )
        return scores


@dataclass(frozen=True)
class MeanVector:
    """Column means of a score matrix together with the sample size."""

    values: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise ValueError("mean vector must be one-dimensional")
        if self.n < 1:
            raise ValueError("sample size must be >= 1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("mean vector contains non-finite entries")

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_scores(cls, scores: np.ndarray) -> "MeanVector":
        scores = _as_score_matrix(scores)
        return cls(values=scores.mean(axis=0), n=scores.shape[0])


@dataclass(frozen=True)
class NormalizingMatrix:
    """Symmetric positive-definite weight matrix of an NT quadratic form.

    ``eigenvalues`` are stored in descending order; ``provenance``
    records where the matrix came from (``analytic_identity``,
    ``estimated_from_null_sampler`` or ``user_supplied``), because a
    calibration report has to say whether its normalization was exact
    or itself estimated.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    provenance: str

    _PROVENANCES = ("analytic_identity", "estimated_from_null_sampler", "user_supplied")

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        a = self.matrix
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("normalizing matrix must be square")
        scale = max(1.0, float(np.max(np.abs(a))))
        if np.max(np.abs(a - a.T)) > 1e-12 * scale:
            raise ValueError("normalizing matrix must be symmetric")
        if self.eigenvalues.shape != (a.shape[0],):
            raise ValueError("eigenvalue vector has wrong length")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be in descending order")
        if self.eigenvalues[-1] <= 0:
            raise ValueError("normalizing matrix must be positive definite")
        if self.provenance not in self._PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, k: int) -> "NormalizingMatrix":
        """Exact identity weight: orthonormal scores need no rotation."""
        return cls(np.eye(k), np.ones(k), "analytic_identity")

    @classmethod
    def from_matrix(cls, matrix, provenance: str = "user_supplied") -> "NormalizingMatrix":
        a = np.asarray(matrix, dtype=float)
        a = 0.5 * (a + a.T)
        return cls(a, ordered_eigenvalues(a), provenance)

    @classmethod
    def from_moment_matrix(cls, moment, provenance: str) -> "NormalizingMatrix":
        """Invert a second-moment matrix E[l^T l] into the weight L.

        Inversion is by symmetric eigendecomposition; an eigenvalue
        below 1e-10 times the largest one means the score components
        are (numerically) linearly dependent and there is no honest L,
        so this raises SingularMatrixError instead of regularizing.
        """
        m = np.asarray(moment, dtype=float)
        m = 0.5 * (m + m.T)
        w, v = np.linalg.eigh(m)
        if w[-1] <= 0 or w[0] < _COND_GATE * w[-1]:
            raise SingularMatrixError(
                f"second-moment matrix is singular at dimension {m.shape[0]} "
                f"(eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
            )
        inv = (v / w) @ v.T
        inv = 0.5 * (inv + inv.T)
        return cls(inv, np.sort(1.0 / w)[::-1], provenance)


def _as_score_matrix(scores) -> np.ndarray:
    """Score matrix (n, k), or a stack (..., n, k) of them, checked."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim < 2:
        raise ValueError(f"score matrix must be 2-d, got shape {scores.shape}")
    if scores.shape[-2] < 1:
        raise ValueError("score matrix has no rows")
    if not np.all(np.isfinite(scores)):
        raise ValueError("score matrix contains non-finite entries")
    return scores


def nt_statistic(mean: MeanVector, weight: NormalizingMatrix) -> float:
    """Quadratic form T = n * lbar L lbar^T of the score mean."""
    if mean.k != weight.k:
        raise ValueError(f"dimension mismatch: mean k={mean.k}, weight k={weight.k}")
    v = mean.values
    return float(mean.n * (v @ weight.matrix @ v))


def _fails_gate(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(failed, eigenvalues) of the 1e-10 gate on each matrix of (..., k, k)."""
    w = np.linalg.eigvalsh(cov)
    return (w[..., -1] <= 0) | (w[..., 0] < _COND_GATE * w[..., -1]), w


def nt_series(scores, cov=None) -> np.ndarray:
    """Nested statistics T_1, ..., T_k of an n-by-k score matrix.

    Leading batch axes are allowed: scores (..., n, k) give series
    (..., k).  Each column is summed by NumPy's pairwise sum along its
    contiguous copy, the rule every test kind's score sums follow, and
    the sums go to :func:`nt_series_from_sums`.
    """
    scores = _as_score_matrix(scores)
    sums = np.add.reduce(np.ascontiguousarray(np.swapaxes(scores, -1, -2)), axis=-1)
    return nt_series_from_sums(sums, scores.shape[-2], cov)


def nt_series_from_sums(sums, n: int, cov=None) -> np.ndarray:
    """Nested statistics T_1, ..., T_k of a sample's score sums.

    ``sums`` holds sum_i l_j(Y_i), j = 1..k, over the n observations.
    T_k = n * lbar_k^T cov_k^{-1} lbar_k, where lbar_k holds the first k
    score means and cov_k is the leading k-by-k block of ``cov``, the
    null covariance of the scores (the identity when ``cov`` is None).
    With the lower Cholesky factor cov = L L^T the first k entries of
    L^{-1} v depend on cov_k alone, so one solve against L gives every
    T_k as a cumulative sum of squares.  Only the lower triangle of
    ``cov`` is read.  An eigenvalue of ``cov`` below 1e-10 times the
    largest raises SingularMatrixError; by eigenvalue interlacing that
    is exactly when some leading block fails the same gate, and the
    error names the largest leading block that passes (max_dimension).
    Non-finite sums, from scores that were NaN or infinite, raise
    ValueError.

    Leading batch axes are allowed: sums (..., k) give series (..., k),
    with ``cov`` either one (k, k) matrix shared by every row or one
    matrix per row, (..., k, k).  Each row's numbers are the same as
    when it is passed alone.
    """
    sums = np.asarray(sums, dtype=float)
    if sums.ndim < 1:
        raise ValueError(f"score sums must be at least 1-d, got shape {sums.shape}")
    if n < 1:
        raise ValueError("score matrix has no rows")
    if not np.all(np.isfinite(sums)):
        raise ValueError("score matrix contains non-finite entries")
    k = sums.shape[-1]
    v = sums / math.sqrt(n)
    if cov is not None:
        cov = np.asarray(cov, dtype=float)
        if cov.shape[-2:] != (k, k):
            raise ValueError(f"covariance shape {cov.shape} does not match k={k}")
        failed, w = _fails_gate(cov)
        if np.any(failed):
            row = np.unravel_index(np.argmax(failed), failed.shape)
            j = 0  # the largest leading block of the first failing matrix that passes
            while not _fails_gate(cov[row][: j + 1, : j + 1])[0]:
                j += 1
            fix = f"is {j} x {j}: cap the dimension at {j}" if j else "is none"
            err = SingularMatrixError(
                f"score covariance is singular at dimension {k} (eigenvalue range "
                f"[{w[row][0]:.3e}, {w[row][-1]:.3e}]); "
                f"the largest leading block that passes {fix}"
            )
            err.max_dimension = j or None
            raise err
        v = np.linalg.solve(np.linalg.cholesky(cov), v[..., None])[..., 0]
    return np.cumsum(v * v, axis=-1)


def estimate_moment_matrix(
    null_sampler: Callable[[np.random.Generator, int], np.ndarray],
    score_basis: ScoreBasis,
    draws: int,
    seed: int,
    *,
    chunk_size: int = 4096,
    mean_gate: float = 4.0,
) -> np.ndarray:
    """Empirical second-moment matrix n^{-1} sum l(Y_i)^T l(Y_i).

    Draws come from ``null_sampler(rng, m)`` in fixed chunks, one Philox
    substream per chunk, and partial sums are accumulated in chunk
    order.  Each component mean must land within ``mean_gate`` standard
    errors of zero; a violation means the sampler is not the null of
    this score system and raises ScoreMeanError rather than returning a
    biased matrix.  Non-finite sums, from a sampler or score system that
    returned NaN or infinity, raise NumericError.
    """
    k = score_basis.k
    if draws < 10 * k * k:
        raise ValueError(f"need at least 10*k^2 = {10 * k * k} draws, got {draws}")
    outer = np.zeros((k, k))
    total = np.zeros(k)
    for index, start in enumerate(range(0, draws, chunk_size)):
        m = min(chunk_size, draws - start)
        obs = null_sampler(substream(seed, index), m)
        s = score_basis.evaluate(obs)
        if s.shape[0] != m:
            raise ValueError("null sampler returned wrong batch size")
        outer += s.T @ s
        total += s.sum(axis=0)
    if not (np.all(np.isfinite(outer)) and np.all(np.isfinite(total))):
        raise NumericError(
            "score moment sums are not finite; the sampler or score system "
            "returned NaN or infinity"
        )

    moment = outer / draws
    mean = total / draws
    var = np.maximum(np.diag(moment) - mean * mean, 0.0)
    se = np.sqrt(var / draws)
    off = np.abs(mean) > mean_gate * np.maximum(se, 1e-300)
    if np.any(off):
        j = int(np.argmax(off))
        raise ScoreMeanError(
            f"component {j + 1} has mean {mean[j]:.4e} "
            f"({abs(mean[j]) / max(se[j], 1e-300):.1f} standard errors from zero); "
            "sampler and score system disagree about the null"
        )
    return 0.5 * (moment + moment.T)


def ordered_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > 1e-12 * scale:
        raise ValueError("matrix must be symmetric")
    return np.sort(np.linalg.eigvalsh(a))[::-1]
