"""Explicit forms the package's score-sum paths are checked against."""

import numpy as np


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
