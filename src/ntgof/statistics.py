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
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularMatrixError

__all__ = ["nt_series_from_sums"]

# Relative eigenvalue floor below which a moment matrix is declared
# singular (condition number gate of 1e10).
_COND_GATE = 1e-10


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
