"""Score-based test statistics.

Everything here works from *score sums*: with l_1(Y_i), ..., l_k(Y_i)
the k score components of observation i, a sample enters only through

    v = n^{-1/2} * (sum_i l_1(Y_i), ..., sum_i l_k(Y_i)).

Under the null each component has mean zero, so v is asymptotically
centered Gaussian with the scores' null covariance Sigma, and every
test in the package uses the nested quadratic forms

    T_k = v_k^T Sigma_k^{-1} v_k,      k = 1, ..., d,

where v_k and Sigma_k are the first k entries and the leading k-by-k
block.  :func:`_gated_factor` checks Sigma against the 1e-10 gate and
returns its lower Cholesky factor L, Sigma = L L^T, and :func:`_series`
computes every T_k at once from the sums, n and L: T_k is the k-th
cumulative sum of squares of L^{-1} v.  Orthonormal scores have
Sigma = I and no factor, and the series is the plain cumulative sum of
squares of v.  Both are private: the catalog's prepared test calls
them, and :func:`ntgof.catalog.run_test` is the public path from a
sample to its series.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularMatrixError

__all__: list[str] = []

# Relative eigenvalue floor below which a moment matrix is declared
# singular (condition number gate of 1e10).
_COND_GATE = 1e-10


def _fails_gate(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(failed, eigenvalues) of the 1e-10 gate on each matrix of (..., k, k)."""
    w = np.linalg.eigvalsh(cov)
    return (w[..., -1] <= 0) | (w[..., 0] < _COND_GATE * w[..., -1]), w


def _gated_factor(cov, k: int) -> np.ndarray:
    """Lower Cholesky factor of each (k, k) matrix of ``cov``, after the 1e-10 gate.

    An eigenvalue below 1e-10 times the largest raises SingularMatrixError;
    by eigenvalue interlacing that is exactly when some leading block
    fails the same gate, and the error names the largest leading block
    that passes (max_dimension).  Only the lower triangle is read.
    """
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
    """T_1..T_k of score sums (..., k): one solve against ``factor``, then a cumsum.

    ``factor`` is one (k, k) factor shared by every row or one per row,
    (..., k, k); each row's numbers are those it gives alone.
    """
    if n < 1:
        raise ValueError("score matrix has no rows")
    if not np.all(np.isfinite(sums)):
        raise ValueError("score matrix contains non-finite entries")
    v = sums / math.sqrt(n)
    if factor is not None:
        v = np.linalg.solve(factor, v[..., None])[..., 0]
    return np.cumsum(v * v, axis=-1)
