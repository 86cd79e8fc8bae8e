"""Concrete data-driven score tests.

Every test here follows the same recipe: map the data into score
components l_1, ..., l_d that are mean-zero under the null, reduce each
sample of a block straight to its score sums sum_i l_j(Y_i), form the
statistic series T_1, ..., T_d from the sums with
:func:`nt_series_from_sums` (the nested quadratic forms in the scores'
null covariance, which is the identity for orthonormal scores), and
hand the series to the penalized selector.  No kind forms a (B, n, d)
array of scores.  For a given spec and n everything but the sample is
fixed, so :func:`_prepare` works it out once -- d(n), the kind's
artifacts and the gated Cholesky factor of a shared covariance -- and
returns the block test that :func:`run_test` runs on one sample and the
Monte Carlo engine on every block.  What varies is where the scores
come from and what their covariance is:

uniformity
    Observations already live on [0, 1]; the scores are the shifted
    Legendre values b_j(x_i) directly.  This is the canonical smooth
    test of the uniform null and the building block for everything
    else (test any fixed continuous null by plugging data through its
    CDF first).

independence_rank
    For pairs (X_i, Y_i), replace each coordinate by its normalized
    mid-rank (R_i - 1/2) / n and use the product scores
    l_j = b_j(u_i) * b_j(v_i).  Ranks make the test distribution-free;
    the products are uncorrelated with unit variance under
    independence, so identity normalization applies.  Every mid-rank,
    tied or not, is one of the 2n - 1 multiples of 1/2 in [1, n], so
    each b_j(u_i) is a lookup in a per-n table.

deconvolution
    The sample is Y = X + eps with known noise density h; the null says
    X has density f0.  Perturbing f0 along the basis directions,
    f_theta = f0 * (1 + sum theta_j b_j(F0)), and differentiating the
    observed-data likelihood at theta = 0 gives the efficient scores

        l_j(y) = int b_j(F0(s)) f0(s) h(y - s) ds
                 / int f0(s) h(y - s) ds,

    tabulated once per spec, at the dimension cap, on an evenly spaced
    y-grid with a fixed Gauss-Legendre rule (which assumes f0 is smooth
    on its support), one row per degree.  An observation's grid cell is
    computed arithmetically from the spacing and corrected by one
    comparison each way against the grid, then the scores are
    interpolated linearly.
    These are not orthonormal, so the moment matrix is
    estimated from the null sampler, also once at the cap, and the
    statistic series uses its nested leading blocks.

composite
    The null is a parametric family {F(.; beta)}.  With beta estimated
    by maximum likelihood, the naive scores b_j(F(X_i; beta_hat)) lose
    variance along the fitted directions: their column means have the
    asymptotic covariance

        Sigma = I - I_b^T I_bb^{-1} I_b,

    where I_b collects the cross-information terms
    -E[d/dbeta_t b_j(F(X; beta))] and I_bb is the Fisher information.
    The series W_k = n * Ybar_k^T Sigma_k^{-1} Ybar_k, formed from the
    Cholesky factor of Sigma at the largest dimension, restores the
    chi-square(k) null limit for every k.  Sigma_k^{-1} equals the
    Woodbury form I + I_b^T (I_bb - I_b I_b^T)^{-1} I_b, and Sigma is
    singular exactly when that middle factor is.  A family that declares
    itself ``invariant`` (its information blocks are free of beta, as
    for location and location-scale families) has one Sigma: it is
    built once per spec, at beta0 and the dimension cap, every dimension
    d uses its leading d x d block, and a block of samples is fitted and
    transformed in one call each.  Any other family is fitted row by
    row, with Sigma at each row's own beta_hat and dimension.

Each spec builds at most one artifact (the deconvolution score table
and moment matrix, or an invariant family's Sigma), from its own inputs
and at its cap; a spec made from it by ``dataclasses.replace`` builds
its own.

Monte Carlo calibration needs the matching null samplers; use
:func:`null_sampler`.  Smooth contamination alternatives g = 1 + sum
c_j b_j for power studies come from :func:`contamination_alternative`.
"""

from __future__ import annotations

import math
import numbers
import threading
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .basis import (
    OrthonormalBasis,
    _gauss_legendre,
    _sum_planes,
    design_matrix,
    eval_basis,
    legendre_basis,
    score_sums,
)
from .errors import NumericError, SingularMatrixError
from .selection import (
    DimensionBudget,
    PenaltySchedule,
    SelectionOutcome,
    _penalties,
    _select,
    default_budget,
    schwarz_schedule,
    select_dimension,
)
from .statistics import _gated_factor, _series, estimate_moment_matrix

__all__ = [
    "NullDensity",
    "NoiseDensity",
    "ParametricFamily",
    "AlternativeSpec",
    "TestSpec",
    "uniform_null",
    "gaussian_noise",
    "gaussian_location_family",
    "uniformity_spec",
    "independence_spec",
    "deconvolution_spec",
    "composite_spec",
    "rank_transform",
    "information_blocks",
    "run_test",
    "null_sampler",
    "contamination_alternative",
    "noisy_copy_pairs",
]

KINDS = ("uniformity", "independence_rank", "deconvolution", "composite")


# ---------------------------------------------------------------------------
# ingredient types


@dataclass(frozen=True)
class NullDensity:
    """A fully specified continuous null on an interval."""

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    sampler: Callable[[np.random.Generator, int], np.ndarray]


def uniform_null() -> NullDensity:
    return NullDensity(
        name="uniform",
        pdf=lambda x: np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0),
        cdf=lambda x: np.clip(x, 0.0, 1.0),
        support=(0.0, 1.0),
        sampler=lambda rng, n: rng.random(n),
    )


@dataclass(frozen=True)
class NoiseDensity:
    """Additive noise with known density and a sampler for calibration."""

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    scale: float
    sampler: Callable[[np.random.Generator, int], np.ndarray]

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise ValueError(f"noise scale must be finite and positive, got {self.scale!r}")


def gaussian_noise(sigma: float) -> NoiseDensity:
    return NoiseDensity(
        name=f"gaussian({sigma:g})",
        pdf=lambda e: np.exp(-0.5 * (e / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi)),
        scale=float(sigma),
        sampler=lambda rng, n: sigma * rng.standard_normal(n),
    )


@dataclass(frozen=True)
class ParametricFamily:
    """A smooth family {F(.; beta)} with q real parameters.

    ``fit`` is the maximum-likelihood estimator, ``ppf`` the quantile
    function (used to pick integration ranges), and ``sampler`` draws
    from the family, taking every draw within the call.
    ``information``, when provided, returns the pair (I_b, I_bb) for a
    given (beta, basis, k) and short-cuts the generic quadrature in
    :func:`information_blocks`.

    ``invariant`` promises two things: I_b and I_bb do not depend on
    beta, and ``fit`` and ``cdf`` work on a block -- ``fit`` maps data
    (..., n) to (..., q) and ``cdf(x, beta)`` broadcasts beta (..., q)
    against x (..., n).  The composite test then forms Sigma once per
    spec, at beta0 and the budget cap, slices its leading block at each
    dimension, and fits a whole block of samples at once; otherwise it
    fits each sample alone and forms its Sigma at that sample's beta_hat.
    """

    name: str
    q: int
    cdf: Callable
    logpdf: Callable
    fit: Callable[[np.ndarray], np.ndarray]
    sampler: Callable[[np.random.Generator, int, np.ndarray], np.ndarray]
    ppf: Callable
    information: Callable | None = field(default=None, repr=False)
    invariant: bool = False

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("family must have q >= 1 parameters")


def gaussian_location_family() -> ParametricFamily:
    """N(mu, 1) with unknown location.

    The MLE is the sample mean and every information block is free of
    mu (location invariance), so the family is ``invariant`` and its
    blocks are evaluated at mu = 0 whatever beta is asked for.
    """
    from scipy import special  # only this family needs it; keeps import ntgof numpy-only

    _family = ParametricFamily(
        name="gaussian_location",
        q=1,
        cdf=lambda x, beta: special.ndtr(x - beta[..., :1]),
        logpdf=lambda x, beta: -0.5 * (x - beta[0]) ** 2 - 0.5 * math.log(2 * math.pi),
        fit=lambda data: np.mean(data, axis=-1, keepdims=True),
        sampler=lambda rng, n, beta: beta[0] + rng.standard_normal(n),
        ppf=lambda p, beta: beta[0] + special.ndtri(p),
        information=lambda beta, basis, k: _numeric_information_blocks(
            _family, np.zeros(1), basis, k
        ),
        invariant=True,
    )
    return _family


@dataclass(frozen=True)
class AlternativeSpec:
    """A named alternative for power and consistency studies.

    ``sampler(rng, n)`` must produce data of the same shape the test
    kind consumes, taking every draw it needs from ``rng`` before it
    returns: the Monte Carlo engine moves one generator on to the next
    replication's stream after each call.  ``first_component`` is the
    index K of the first score direction the alternative actually
    excites (when known); consistency probes use it to know which
    P(S >= K) should climb to one.
    """

    name: str
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    first_component: int | None = None


@dataclass(frozen=True)
class TestSpec:
    """Everything needed to run one of the catalog tests.

    The budget cap may not exceed the basis degree -- the selector can
    only consider dimensions whose scores exist.
    """

    kind: str
    basis: OrthonormalBasis
    penalty: PenaltySchedule
    budget: DimensionBudget
    null_density: NullDensity | None = None
    noise: NoiseDensity | None = None
    family: ParametricFamily | None = None
    beta0: np.ndarray | None = None
    l_draws: int = 200_000
    l_seed: int = 0
    grid_points: int = 2001
    # the artifact _artifact builds from this spec's own inputs; not an
    # __init__ argument, so dataclasses.replace starts the copy empty
    _built: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown test kind {self.kind!r}; expected one of {KINDS}")
        if self.budget.cap > self.basis.max_degree:
            raise ValueError(
                f"budget cap {self.budget.cap} exceeds basis max_degree "
                f"{self.basis.max_degree}"
            )
        if self.kind == "deconvolution":
            if self.null_density is None or self.noise is None:
                raise ValueError("deconvolution spec needs null_density and noise")
            if self.l_draws < 1000:
                raise ValueError("l_draws too small to estimate a normalizing matrix")
            # the moment matrix is estimated once, at the cap
            cap = self.budget.cap
            if self.l_draws < 10 * cap * cap:
                raise ValueError(
                    f"l_draws={self.l_draws} is below 10 * cap**2 = {10 * cap * cap} "
                    f"for budget cap {cap}"
                )
            if self.grid_points < 64:
                raise ValueError("grid_points too small for score tabulation")
            if not isinstance(self.l_seed, numbers.Integral) or self.l_seed < 0:
                raise ValueError(f"l_seed must be a non-negative integer, got {self.l_seed!r}")
        if self.kind == "composite":
            if self.family is None or self.beta0 is None:
                raise ValueError("composite spec needs family and beta0")
            object.__setattr__(self, "beta0", np.asarray(self.beta0, dtype=float))
            if self.beta0.shape != (self.family.q,):
                raise ValueError(
                    f"beta0 must have shape ({self.family.q},), got {self.beta0.shape}"
                )


def uniformity_spec(
    penalty: PenaltySchedule | None = None,
    budget: DimensionBudget | None = None,
    basis: OrthonormalBasis | None = None,
) -> TestSpec:
    return TestSpec(
        kind="uniformity",
        basis=basis or legendre_basis(12),
        penalty=penalty or schwarz_schedule(),
        budget=budget or default_budget(),
    )


def independence_spec(
    penalty: PenaltySchedule | None = None,
    budget: DimensionBudget | None = None,
    basis: OrthonormalBasis | None = None,
) -> TestSpec:
    return TestSpec(
        kind="independence_rank",
        basis=basis or legendre_basis(12),
        penalty=penalty or schwarz_schedule(),
        budget=budget or default_budget(),
    )


def deconvolution_spec(
    noise: NoiseDensity | None = None,
    null_density: NullDensity | None = None,
    penalty: PenaltySchedule | None = None,
    budget: DimensionBudget | None = None,
    basis: OrthonormalBasis | None = None,
    l_draws: int = 200_000,
    l_seed: int = 0,
    grid_points: int = 2001,
) -> TestSpec:
    return TestSpec(
        kind="deconvolution",
        basis=basis or legendre_basis(12),
        penalty=penalty or schwarz_schedule(),
        budget=budget or default_budget(),
        null_density=null_density or uniform_null(),
        noise=noise or gaussian_noise(0.25),
        l_draws=l_draws,
        l_seed=l_seed,
        grid_points=grid_points,
    )


def composite_spec(
    family: ParametricFamily | None = None,
    beta0=None,
    penalty: PenaltySchedule | None = None,
    budget: DimensionBudget | None = None,
    basis: OrthonormalBasis | None = None,
) -> TestSpec:
    family = family or gaussian_location_family()
    if beta0 is None:
        beta0 = np.zeros(family.q)
    return TestSpec(
        kind="composite",
        basis=basis or legendre_basis(12),
        penalty=penalty or schwarz_schedule(),
        budget=budget or default_budget(),
        family=family,
        beta0=beta0,
    )


# ---------------------------------------------------------------------------
# uniformity and rank independence


def _check_sample(data, ncols: int | None) -> np.ndarray:
    """One sample, (n,) or (n, ncols), of at least 2 observations."""
    data = np.asarray(data, dtype=float)
    want = 1 if ncols is None else 2
    if data.ndim != want:
        raise ValueError(f"data must be {want}-dimensional, got shape {data.shape}")
    if ncols is not None and data.shape[-1] != ncols:
        raise ValueError(f"data must have {ncols} columns, got {data.shape[-1]}")
    if data.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    return data


def _midranks(x: np.ndarray) -> np.ndarray:
    """m = 2R - 2 for the mid-rank R of every entry along the last axis of x.

    A run of ties at sorted positions a..b shares the mid-rank
    (a + b)/2 + 1, so m = a + b, which is 2a for an untied entry.  The
    order among tied values does not matter, so any sort will do.  Tied
    data break the distribution-free guarantee, so a warning is emitted.
    """
    order = np.argsort(x, axis=-1)
    ordered = np.take_along_axis(x, order, axis=-1)
    pos = np.arange(x.shape[-1])
    tied = ordered[..., 1:] == ordered[..., :-1]
    if np.any(tied):
        warnings.warn(
            "tied observations: using average ranks; the null distribution "
            "of the rank test is no longer exact",
            UserWarning,
            stacklevel=3,
        )
        # sorted positions where a run of ties starts and where one stops
        starts = np.insert(~tied, 0, True, axis=-1)
        stops = np.insert(~tied, tied.shape[-1], True, axis=-1)
        first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
        last = np.where(stops, pos, pos[-1])[..., ::-1]
        last = np.minimum.accumulate(last, axis=-1)[..., ::-1]
        sorted_m = first + last
    else:
        sorted_m = 2 * pos
    m = np.empty_like(order)
    np.put_along_axis(m, order, sorted_m, axis=-1)
    return m


def rank_transform(values) -> np.ndarray:
    """Normalized mid-ranks (R - 1/2) / n, with average ranks on ties.

    Ties are resolved by averaging, which keeps the ranks sum-invariant,
    but tied data break the distribution-free guarantee, so a warning is
    emitted.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 1:
        raise ValueError("values must be a non-empty 1-d array")
    if not np.all(np.isfinite(values)):
        raise ValueError("values contain non-finite entries")
    return (_midranks(values) + 1) / (2 * values.size)


# ---------------------------------------------------------------------------
# deconvolution


# Gauss-Legendre nodes per grid point of the deconvolution score table,
# and grid rows integrated at once; a block's largest array, the basis
# values, holds _DECONV_BLOCK * _DECONV_NODES * k floats.
_DECONV_NODES = 64
_DECONV_BLOCK = 256


class _DeconvScoreTable:
    """Scores l_1..l_k tabulated on a y-grid, evaluated by interpolation.

    Direct quadrature per observation is exact but prohibitive inside a
    Monte Carlo loop; a fixed fine grid keeps evaluation deterministic
    and identical between calibration draws and observed data, which is
    what matters for a simulated reference distribution.

    Both integrals of every grid point use one fixed _DECONV_NODES-point
    Gauss-Legendre rule over the window [y - 8 scale, y + 8 scale]
    intersected with the null support.  The window stops at the
    support's ends, so the rule sees f0 only where it should be smooth;
    a null density with kinks or spikes inside its support needs an
    adaptive rule instead.  Each degree keeps one contiguous row of
    scores and one of cell slopes, and :meth:`evaluate` and :meth:`sums`
    both interpolate through :meth:`_interp`.
    """

    def __init__(self, spec: TestSpec, k: int):
        null_d, noise, scale = spec.null_density, spec.noise, spec.noise.scale
        a, b = null_d.support
        # Tabulate to 6 noise scales beyond the support; past that the
        # smoothed posterior has collapsed onto the nearest support
        # endpoint and the scores are flat, so clamped interpolation is
        # exact to within the table resolution.
        self.grid = np.linspace(a - 6.0 * scale, b + 6.0 * scale, spec.grid_points)
        # scores[j - 1, i] holds l_j(grid[i])
        self.scores = np.empty((k, spec.grid_points))
        t, w = _gauss_legendre(_DECONV_NODES)
        for start in range(0, spec.grid_points, _DECONV_BLOCK):
            y = self.grid[start : start + _DECONV_BLOCK, None]
            # every grid point lies within 6 scales of the support, so
            # each window is non-empty
            lo = np.maximum(a, y - 8.0 * scale)
            hi = np.minimum(b, y + 8.0 * scale)
            s = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
            weighted = (0.5 * (hi - lo) * w) * null_d.pdf(s) * noise.pdf(y - s)
            den = weighted.sum(axis=1)
            if np.any(den < 1e-300):
                bad = float(y[np.argmax(den < 1e-300), 0])
                raise NumericError(
                    f"noise-smoothed null density vanishes at y={bad:.6g}; score undefined"
                )
            u = np.clip(null_d.cdf(s), 0.0, 1.0)
            num = np.einsum("bn,bnj->bj", weighted, design_matrix(spec.basis, u, k))
            bad_rows = ~(np.isfinite(den) & np.all(np.isfinite(num), axis=1))
            if np.any(bad_rows):
                bad = float(y[np.argmax(bad_rows), 0])
                raise NumericError(f"quadrature failed at y={bad:.6g}")
            self.scores[:, start : start + _DECONV_BLOCK] = (num / den[:, None]).T
        # slope of each grid cell; the zero past the last point makes
        # points clamped to grid[-1] read scores[:, -1] exactly
        self._slopes = np.zeros_like(self.scores)
        self._slopes[:, :-1] = np.diff(self.scores, axis=1) / np.diff(self.grid)
        self._domain = (a - 8.0 * scale, b + 8.0 * scale)
        # cells per unit of y, and the upper edge of every cell (the last
        # cell, a single point, has none)
        self._cells_per_unit = (spec.grid_points - 1) / (self.grid[-1] - self.grid[0])
        self._upper = np.append(self.grid[1:], np.inf)

    def _cells(self, y) -> tuple[np.ndarray, np.ndarray]:
        """(i, y - grid[i]) of each point y, clamped to the grid, in y's shape.

        The cell i of each point is guessed from the grid spacing,
        floor((y - grid[0]) * cells per unit), then corrected by one
        comparison each way against the grid itself, which gives exactly
        the cell a binary search would.
        """
        y = np.atleast_1d(np.asarray(y, dtype=float))
        # a NaN makes both bounds NaN and fails both comparisons
        if y.size and not (np.min(y) >= self._domain[0] and np.max(y) <= self._domain[1]):
            flat = y.ravel()
            finite = np.isfinite(flat)
            if not np.all(finite):
                bad = float(flat[np.argmin(finite)])
                raise NumericError(f"observation y={bad:.6g} is not finite")
            bad = float(flat[np.argmax((flat < self._domain[0]) | (flat > self._domain[1]))])
            raise NumericError(
                f"observation y={bad:.6g} is more than 8 noise scales from the null support"
            )
        grid = self.grid
        y = np.clip(y, grid[0], grid[-1])
        i = ((y - grid[0]) * self._cells_per_unit).astype(np.intp)
        np.minimum(i, grid.size - 1, out=i)
        i -= grid[i] > y
        i += self._upper[i] <= y
        return i, y - grid[i]

    def _interp(self, i, dy, rows) -> np.ndarray:
        """Scores of the table rows ``rows`` at cells i, with dy = y - grid[i].

        ``rows`` is one degree's row index, which gives that degree's
        scores in i's shape, or a slice of rows, which gives one such plane
        per degree along a new first axis.  Linear interpolation, clamped
        outside the grid: slope[i] * dy + score[i], the same numbers as
        ``np.interp`` degree by degree.
        """
        out = np.take(self._slopes[rows], i, axis=-1)
        out *= dy
        out += np.take(self.scores[rows], i, axis=-1)
        return out

    def evaluate(self, y) -> np.ndarray:
        """(m, k) scores l_1..l_k at the m points y, as a C-contiguous array.

        :func:`estimate_moment_matrix` forms s.T @ s from it, and a
        transposed view could take another BLAS path and other bits.
        """
        i, dy = self._cells(y)
        return np.ascontiguousarray(self._interp(i, dy, slice(None)).T)

    def sums(self, block, k: int) -> np.ndarray:
        """(B, k) sums of l_1..l_k over each row of a (B, n) block, one degree at a time."""
        i, dy = self._cells(block)
        return _sum_planes((self._interp(i, dy, j) for j in range(k)), dy.shape[:-1], k)


# ---------------------------------------------------------------------------
# composite parametric null


# Gauss-Legendre nodes of the information-block quadrature, and the
# tail probability left out at each end of the family's support.
_INFO_NODES = 400
_INFO_TAIL = 1e-10


def _numeric_information_blocks(
    family: ParametricFamily,
    beta: np.ndarray,
    basis: OrthonormalBasis,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature evaluation of I_b (q x k) and I_bb (q x q).

    Expectations are _INFO_NODES-point Gauss-Legendre integrals between
    the _INFO_TAIL and 1 - _INFO_TAIL quantiles; parameter derivatives
    are central differences, which avoids requiring basis derivatives or
    analytic CDF gradients from the family.
    """
    q = family.q
    lo = family.ppf(_INFO_TAIL, beta)
    hi = family.ppf(1.0 - _INFO_TAIL, beta)
    t, w = _gauss_legendre(_INFO_NODES)
    x = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * w
    dens = np.exp(np.asarray(family.logpdf(x, beta), dtype=float))
    wt = w * dens

    def u_of(b):
        return np.clip(np.asarray(family.cdf(x, b), dtype=float), 0.0, 1.0)

    i_b = np.empty((q, k))
    for tdx in range(q):
        h = 1e-5 * (1.0 + abs(beta[tdx]))
        bp, bm = beta.copy(), beta.copy()
        bp[tdx] += h
        bm[tdx] -= h
        dm = (design_matrix(basis, u_of(bp), k) - design_matrix(basis, u_of(bm), k)) / (2 * h)
        i_b[tdx] = -wt @ dm

    def lp(b):
        return np.asarray(family.logpdf(x, b), dtype=float)

    i_bb = np.empty((q, q))
    steps = [1e-4 * (1.0 + abs(beta[t_])) for t_ in range(q)]
    for a in range(q):
        for bdx in range(a, q):
            ha, hb = steps[a], steps[bdx]
            bpp, bpm, bmp, bmm = (beta.copy() for _ in range(4))
            bpp[a] += ha
            bpp[bdx] += hb
            bpm[a] += ha
            bpm[bdx] -= hb
            bmp[a] -= ha
            bmp[bdx] += hb
            bmm[a] -= ha
            bmm[bdx] -= hb
            d2 = (lp(bpp) - lp(bpm) - lp(bmp) + lp(bmm)) / (4 * ha * hb)
            i_bb[a, bdx] = i_bb[bdx, a] = -float(wt @ d2)
    return i_b, i_bb


def information_blocks(
    family: ParametricFamily,
    beta,
    basis: OrthonormalBasis,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-information I_b and Fisher information I_bb at beta."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (family.q,):
        raise ValueError(f"beta must have shape ({family.q},)")
    if family.information is not None:
        i_b, i_bb = family.information(beta, basis, k)
        return np.asarray(i_b, dtype=float), np.asarray(i_bb, dtype=float)
    return _numeric_information_blocks(family, beta, basis, k)


def _composite_cov(family: ParametricFamily, beta, basis, d: int) -> np.ndarray:
    """Sigma = I - I_b^T I_bb^{-1} I_b at beta and dimension d."""
    i_b, i_bb = information_blocks(family, beta, basis, d)
    try:
        return np.eye(d) - i_b.T @ np.linalg.solve(i_bb, i_b)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "Fisher information I_bb is singular; the fitted parameters are not identifiable"
        ) from None


# Serializes the check-and-build in _artifact, so that callers' threads
# starting on a cold spec build it once between them.
_ARTIFACT_LOCK = threading.Lock()


def _artifact(spec: TestSpec):
    """The spec's one artifact, built from its own inputs at the budget cap.

    For deconvolution it is (score table, moment matrix), for an
    ``invariant`` composite family Sigma at beta0.  A test at dimension d
    slices the leading d columns or d x d block, so moving between sample
    sizes never rebuilds it.  It lives in the spec's ``_built`` slot,
    which a spec made by ``dataclasses.replace`` does not share.
    """
    with _ARTIFACT_LOCK:
        if spec._built is None:
            cap = spec.budget.cap
            if spec.kind == "deconvolution":
                table = _DeconvScoreTable(spec, cap)
                moment = estimate_moment_matrix(
                    null_sampler(spec), cap, table.evaluate, spec.l_draws, spec.l_seed
                )
                built = (table, moment)
            else:
                built = _composite_cov(spec.family, spec.beta0, spec.basis, cap)
            object.__setattr__(spec, "_built", built)
        return spec._built


# ---------------------------------------------------------------------------
# the prepared test, null samplers, alternatives


def _prepare(spec: TestSpec, n: int) -> tuple[tuple[int, ...], Callable]:
    """(shape of one sample, block test) of ``spec`` at sample size n.

    Everything but the sample is fixed here, on the calling thread: d(n),
    the penalties pi(1..d, n), the per-n rank table, the spec's
    :func:`_artifact` and the gated Cholesky factor of the d x d block of
    a covariance every sample shares, so a penalty or artifact failure
    raises before any sample is drawn.  Only that block is gated: a
    cap-sized matrix that fails the gate still serves every d whose
    leading block passes.  The test maps a block of B samples, (B, n) or
    (B, n, 2) with n >= 2, to their SelectionOutcome; its callers have
    checked that shape, so it checks only that the values are finite.
    Each row's numbers are those the sample gives alone.  Every kind maps
    the block to its (score sums, Cholesky factor), the factor being None
    for orthonormal scores, and the test forms the series from that pair.
    Each kind's sums go through :func:`_sum_planes`.  A family that is
    not ``invariant`` forms and gates its Sigma row by row, at d, in
    every block.
    """
    d = spec.budget.d(n)
    pens = _penalties(spec.penalty, d, n)
    basis, family = spec.basis, spec.family
    if spec.kind == "uniformity":
        scores = lambda block: (score_sums(basis, block, d), None)
    elif spec.kind == "independence_rank":
        # row j holds b_j at every mid-rank (m/2 + 1/2) / n, m = 0..2n-2,
        # so each product score is a lookup at its entries' _midranks
        table = design_matrix(basis, (np.arange(2 * n - 1) / 2 + 0.5) / n, d).T.copy()

        def scores(block):
            u, v = (_midranks(block[..., c]) for c in (0, 1))
            planes = (np.take(col, u) * np.take(col, v) for col in table)
            return _sum_planes(planes, block.shape[:1], d), None
    elif spec.kind == "deconvolution":
        table, moment = _artifact(spec)
        factor = _gated_factor(moment[:d, :d], d)
        scores = lambda block: (table.sums(block, d), factor)
    elif family.invariant:
        factor = _gated_factor(_artifact(spec)[:d, :d], d)

        def scores(block):
            u = np.asarray(family.cdf(block, family.fit(block)), dtype=float)
            return score_sums(basis, np.clip(u, 0.0, 1.0), d), factor
    else:

        def scores(block):
            us, covs = [], []
            for x in block:
                beta = family.fit(x)
                us.append(np.clip(np.asarray(family.cdf(x, beta), dtype=float), 0.0, 1.0))
                covs.append(_composite_cov(family, beta, basis, d))
            return score_sums(basis, np.array(us), d), _gated_factor(np.array(covs), d)

    def test(block) -> SelectionOutcome:
        if not np.all(np.isfinite(block)):
            raise ValueError("data contains non-finite values")
        sums, factor = scores(block)
        return _select(_series(sums, n, factor), pens)

    return (n, 2) if spec.kind == "independence_rank" else (n,), test


def run_test(data, spec: TestSpec) -> SelectionOutcome:
    """Run whichever catalog test ``spec`` describes."""
    data = _check_sample(data, 2 if spec.kind == "independence_rank" else None)
    n = data.shape[0]
    series = _prepare(spec, n)[1](data[None]).series[0]
    return select_dimension(series, spec.penalty, n)


def null_sampler(spec: TestSpec) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Sampler producing null data of the shape ``spec``'s test consumes.

    Like every sampler the Monte Carlo engine calls, it takes all its
    draws from the generator within the call.
    """
    if spec.kind == "uniformity":
        return lambda rng, n: rng.random(n)
    if spec.kind == "independence_rank":
        return lambda rng, n: rng.random((n, 2))
    if spec.kind == "deconvolution":
        null_d, noise = spec.null_density, spec.noise
        return lambda rng, n: null_d.sampler(rng, n) + noise.sampler(rng, n)
    if spec.kind == "composite":
        family, beta0 = spec.family, spec.beta0
        return lambda rng, n: family.sampler(rng, n, beta0)
    raise ValueError(f"unknown test kind {spec.kind!r}")


def noisy_copy_pairs(noise_sd: float, name: str | None = None) -> AlternativeSpec:
    """Dependent pairs (X, X + eps) with X ~ N(0,1), eps ~ N(0, noise_sd^2).

    A stock alternative for the rank independence test: the grade
    correlation excites the first product-score direction, so the
    declared first component is 1.
    """
    if not 0 <= noise_sd < math.inf:
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd!r}")

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        x = rng.standard_normal(n)
        return np.column_stack([x, x + noise_sd * rng.standard_normal(n)])

    return AlternativeSpec(
        name=name or f"noisy_copy(sd={noise_sd:g})",
        sampler=sampler,
        first_component=1,
    )


# Evenly spaced points of [0, 1] at which a contamination density must
# stay positive.
_DENSITY_GRID = 4096


def contamination_alternative(
    coefficients: Mapping[int, float] | Sequence[float],
    basis: OrthonormalBasis | None = None,
    name: str | None = None,
) -> AlternativeSpec:
    """Smooth contaminated-uniform alternative g = 1 + sum c_j b_j.

    ``coefficients`` is either {degree: coefficient} or a plain
    sequence for degrees 1, 2, ....  The resulting function must be a
    genuine density: if it dips to zero or below anywhere on [0, 1]
    construction fails.  Sampling is by rejection with the exact
    envelope 1 + sum |c_j| sqrt(2j + 1), so draws cost a constant
    factor more than the envelope and stay deterministic per stream.
    """
    basis = basis or legendre_basis(12)
    if isinstance(coefficients, Mapping):
        coeffs = {int(j): float(c) for j, c in coefficients.items() if c != 0.0}
    else:
        coeffs = {j + 1: float(c) for j, c in enumerate(coefficients) if c != 0.0}
    for j, c in coeffs.items():
        if not math.isfinite(c):
            raise ValueError(f"coefficient of degree {j} must be finite, got {c}")
    if not coeffs:
        raise ValueError("alternative needs at least one non-zero coefficient")
    jmax = max(coeffs)
    if jmax > basis.max_degree:
        raise ValueError(f"coefficient degree {jmax} exceeds basis max_degree")

    def density(x):
        g = np.ones_like(np.asarray(x, dtype=float))
        for j, c in coeffs.items():
            g = g + c * eval_basis(basis, j, x)
        return g

    grid = np.linspace(0.0, 1.0, _DENSITY_GRID)
    gmin = float(np.min(density(grid)))
    if gmin <= 0.0:
        raise ValueError(
            f"1 + sum c_j b_j dips to {gmin:.4f} on [0, 1]; not a density"
        )
    envelope = 1.0 + sum(abs(c) * math.sqrt(2 * j + 1) for j, c in coeffs.items())

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        out = np.empty(n)
        have = 0
        while have < n:
            m = max(int((n - have) * envelope * 1.2) + 16, 16)
            x = rng.random(m)
            keep = rng.random(m) * envelope <= density(x)
            take = min(n - have, int(np.count_nonzero(keep)))
            out[have : have + take] = x[keep][:take]
            have += take
        return out

    first = min(coeffs)
    label = name or "contamination(" + ", ".join(
        f"c{j}={coeffs[j]:g}" for j in sorted(coeffs)
    ) + ")"
    return AlternativeSpec(
        name=label,
        sampler=sampler,
        first_component=first,
    )
