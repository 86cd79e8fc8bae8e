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
of v.

Sigma is rarely available in closed form outside the orthonormal case,
so :func:`estimate_moment_matrix` estimates the second-moment matrix
E_0 l(Y)^T l(Y) from a null sampler by plain Monte Carlo: accumulate it
in fixed-size chunks (chunk i on the stream
``SeedSequence(entropy=seed, spawn_key=(i,))`` starts, reduced in chunk
order) and sanity-check that every component mean is within a few
standard errors of zero.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._rng import KeyedStreams
from .errors import NumericError, ScoreMeanError, SingularMatrixError

__all__ = ["nt_series_from_sums", "estimate_moment_matrix"]

# Relative eigenvalue floor below which a moment matrix is declared
# singular (condition number gate of 1e10).
_COND_GATE = 1e-10

# Draws per chunk of a moment-matrix estimate, and the number of
# standard errors a score component's mean may lie from zero.
_MOMENT_CHUNK = 4096
_MEAN_GATE = 4.0


def _fails_gate(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(failed, eigenvalues) of the 1e-10 gate on each matrix of (..., k, k)."""
    w = np.linalg.eigvalsh(cov)
    return (w[..., -1] <= 0) | (w[..., 0] < _COND_GATE * w[..., -1]), w


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
    return _series(sums, n, None if cov is None else _gated_factor(cov, sums.shape[-1]))


def _gated_factor(cov, k: int) -> np.ndarray:
    """Lower Cholesky factor of each (k, k) matrix of ``cov``, after the 1e-10 gate."""
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
    return np.linalg.cholesky(cov)


def _series(sums: np.ndarray, n: int, factor=None) -> np.ndarray:
    """T_1..T_k of score sums (..., k): one solve against ``factor``, then a cumsum."""
    if n < 1:
        raise ValueError("score matrix has no rows")
    if not np.all(np.isfinite(sums)):
        raise ValueError("score matrix contains non-finite entries")
    v = sums / math.sqrt(n)
    if factor is not None:
        v = np.linalg.solve(factor, v[..., None])[..., 0]
    return np.cumsum(v * v, axis=-1)


def estimate_moment_matrix(
    null_sampler: Callable[[np.random.Generator, int], np.ndarray],
    k: int,
    evaluate: Callable[[np.ndarray], np.ndarray],
    draws: int,
    seed: int,
) -> np.ndarray:
    """Empirical second-moment matrix n^{-1} sum l(Y_i)^T l(Y_i).

    ``evaluate`` maps a batch of m observations to their (m, k) score
    matrix.  Draws come from ``null_sampler(rng, m)`` in chunks of
    _MOMENT_CHUNK, chunk i drawing from the stream of
    ``SeedSequence(entropy=seed, spawn_key=(i,))``, and partial sums
    are accumulated in chunk order.  Each component mean must land
    within _MEAN_GATE standard errors of zero; a violation means the
    sampler is not the null of this score system and raises
    ScoreMeanError rather than returning a biased matrix.
    Non-finite sums, from a sampler or score system that returned NaN
    or infinity, raise NumericError.
    """
    if k < 1:
        raise ValueError("score dimension k must be >= 1")
    if draws < 10 * k * k:
        raise ValueError(f"need at least 10*k^2 = {10 * k * k} draws, got {draws}")
    outer = np.zeros((k, k))
    total = np.zeros(k)
    chunks = range(0, draws, _MOMENT_CHUNK)
    for start, (_, rng) in zip(chunks, KeyedStreams(seed, ()).rows(0, len(chunks))):
        m = min(_MOMENT_CHUNK, draws - start)
        s = np.asarray(evaluate(null_sampler(rng, m)), dtype=float)
        if s.shape != (m, k):
            raise ValueError(f"score evaluator returned shape {s.shape}, expected ({m}, {k})")
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
    off = np.abs(mean) > _MEAN_GATE * np.maximum(se, 1e-300)
    if np.any(off):
        j = int(np.argmax(off))
        raise ScoreMeanError(
            f"component {j + 1} has mean {mean[j]:.4e} "
            f"({abs(mean[j]) / max(se[j], 1e-300):.1f} standard errors from zero); "
            "sampler and score system disagree about the null"
        )
    return 0.5 * (moment + moment.T)
