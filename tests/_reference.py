"""Explicit forms the package's score-sum paths are checked against, and
the block test those paths run on."""

import numpy as np

from ntgof.catalog import _prepare


def quadratic_form(scores, cov):
    """n * lbar^T cov^{-1} lbar for an n-by-k score matrix, by one solve."""
    scores = np.asarray(scores, dtype=float)
    lbar = scores.mean(axis=0)
    return float(scores.shape[0] * (lbar @ np.linalg.solve(cov, lbar)))


def column_sums(scores):
    """np.add.reduce over a contiguous copy of each column along the samples."""
    return np.stack(
        [np.add.reduce(np.ascontiguousarray(scores[..., j]), axis=-1)
         for j in range(scores.shape[-1])],
        axis=-1,
    )


def block_test(block, spec):
    """``spec``'s test prepared at the block's n and run on the (B, n[, 2]) block."""
    return _prepare(spec, np.shape(block)[1])[1](block)
