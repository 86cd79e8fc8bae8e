"""Explicit forms the package's fast paths are checked against, and the
block test those paths run on."""

import math

import numpy as np
from scipy import integrate

from ntgof.basis import eval_basis, legendre_basis
from ntgof.catalog import _prepare
from ntgof.errors import NumericError, ScoreMeanError


def substream(seed: int, *path: int) -> np.random.Generator:
    """A fresh Generator on the stream (seed, *path), which KeyedStreams must match."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))


def deconvolution_score(y, j, null_density, noise, basis=None) -> float:
    """Efficient score l_j at one observed (noisy) point, by adaptive quadrature.

    Both integrals run over the intersection of the null support with
    [y - 8 scale, y + 8 scale], the window the score table integrates
    by its fixed rule; a denominator below 1e-300 means the observation
    is impossibly far from the support for this noise and raises
    NumericError rather than dividing by (numerical) zero.
    """
    basis = basis or legendre_basis(12)
    if not 1 <= j <= basis.max_degree:
        raise ValueError(f"degree j={j} outside 1..{basis.max_degree}")
    lo = max(null_density.support[0], y - 8.0 * noise.scale)
    hi = min(null_density.support[1], y + 8.0 * noise.scale)
    if not lo < hi:
        raise NumericError(
            f"observation y={y:.6g} is more than 8 noise scales from the null support"
        )

    def den_f(s):
        return float(null_density.pdf(np.asarray(s)) * noise.pdf(np.asarray(y - s)))

    def num_f(s):
        u = float(np.clip(null_density.cdf(np.asarray(s)), 0.0, 1.0))
        return eval_basis(basis, j, u) * den_f(s)

    den, _ = integrate.quad(den_f, lo, hi, epsabs=1e-9, epsrel=1e-8, limit=200)
    if den < 1e-300:
        raise NumericError(
            f"noise-smoothed null density vanishes at y={y:.6g}; score undefined"
        )
    num, _ = integrate.quad(num_f, lo, hi, epsabs=1e-9, epsrel=1e-8, limit=200)
    if not (math.isfinite(num) and math.isfinite(den)):
        raise NumericError(f"quadrature failed at y={y:.6g}")
    return num / den


def evaluate(table, y) -> np.ndarray:
    """(m, k) scores of every degree of a deconvolution score table at m points y.

    Each degree is interpolated by ``np.interp`` on the table's grid,
    clamped past both ends.
    """
    return np.column_stack([np.interp(y, table.grid, row) for row in table.scores])


def estimate_moment_matrix(null_sampler, k, evaluate, draws, seed) -> np.ndarray:
    """Empirical second-moment matrix draws^{-1} sum l(Y_i) l(Y_i)^T, draw by draw.

    ``evaluate`` maps a batch of m observations to their (m, k) score
    matrix.  Draws come from ``null_sampler(rng, m)`` in chunks of 4096,
    chunk c from ``substream(seed, c)``, and the partial sums are
    accumulated in chunk order.  Each component mean must land within 4
    standard errors of zero, or ScoreMeanError; non-finite sums raise
    NumericError.  The result is symmetrized.
    """
    if k < 1:
        raise ValueError("score dimension k must be >= 1")
    if draws < 10 * k * k:
        raise ValueError(f"need at least 10*k^2 = {10 * k * k} draws, got {draws}")
    outer = np.zeros((k, k))
    total = np.zeros(k)
    for c, start in enumerate(range(0, draws, 4096)):
        m = min(4096, draws - start)
        s = np.asarray(evaluate(null_sampler(substream(seed, c), m)), dtype=float)
        if s.shape != (m, k):
            raise ValueError(f"score evaluator returned shape {s.shape}, expected ({m}, {k})")
        outer += s.T @ s
        total += s.sum(axis=0)
    if not (np.all(np.isfinite(outer)) and np.all(np.isfinite(total))):
        raise NumericError("score moment sums are not finite")
    moment = outer / draws
    mean = total / draws
    se = np.sqrt(np.maximum(np.diag(moment) - mean * mean, 0.0) / draws)
    if np.any(np.abs(mean) > 4.0 * np.maximum(se, 1e-300)):
        raise ScoreMeanError("a score component's mean is more than 4 standard errors from zero")
    return 0.5 * (moment + moment.T)


def gaussian_location_cov(k, nodes=2000, tail=1e-14) -> np.ndarray:
    """Sigma = I - I_b^T I_bb^{-1} I_b of N(mu, 1) at dimension k, in score form.

    The family's score is x - mu, so I_b = E[(X - mu) b(Phi(X - mu))] and
    I_bb = E[(X - mu)^2]: one ``nodes``-point Gauss-Legendre rule between
    the ``tail`` and 1 - ``tail`` quantiles, with no differences.  Both
    blocks are free of mu, so mu = 0.
    """
    from scipy import special

    lo, hi = special.ndtri(tail), special.ndtri(1.0 - tail)
    t, w = np.polynomial.legendre.leggauss(nodes)
    x = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    wt = 0.5 * (hi - lo) * w * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    basis = legendre_basis(12)
    b = np.column_stack([eval_basis(basis, j, special.ndtr(x)) for j in range(1, k + 1)])
    i_b = (wt * x) @ b
    return np.eye(k) - np.outer(i_b, i_b) / (wt @ (x * x))


def contamination_density(basis, coeffs, x) -> np.ndarray:
    """1 + sum c_j b_j(x) for {j: c_j}, one ``eval_basis`` call per coefficient, in map order."""
    g = np.ones_like(np.asarray(x, dtype=float))
    for j, c in coeffs.items():
        g = g + c * eval_basis(basis, j, x)
    return g


def rank_transform(values) -> np.ndarray:
    """Normalized mid-ranks (R - 1/2) / n of a 1-d sample, by one stable sort.

    A run of ties gets the average of its ranks.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    order = np.argsort(values, kind="mergesort")  # stable: ties keep their order
    ordered = values[order]
    first = np.empty(n, dtype=bool)  # first element of each run of ties
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    # a run of ties at sorted positions [a, b) gets the mid-rank (a + 1 + b) / 2
    bounds = np.append(np.flatnonzero(first), n)
    run = np.cumsum(first) - 1
    ranks = np.empty(n)
    ranks[order] = 0.5 * (bounds[run] + bounds[run + 1] + 1)
    return (ranks - 0.5) / n


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
    """``spec``'s series of the (B, n[, 2]) block, from its test prepared at the block's n."""
    return _prepare(spec, np.shape(block)[1]).test(block)
