"""Concrete data-driven score tests.

Every test here follows the same recipe: map the data into score
components l_1, ..., l_d that are mean-zero under the null, reduce each
sample of a block straight to its score sums sum_i l_j(Y_i), form the
statistic series T_1, ..., T_d from the sums with :func:`_series` (the
nested quadratic forms in the scores' null covariance, which is the
identity for orthonormal scores), and hand the series to the penalized
selector :func:`_select`.  No kind forms a (B, n, d) array of scores.
For a given spec and n everything but the sample is fixed, so
:func:`_prepare` works it out once -- the sample shape, d(n), the
penalties, the slice of the spec's artifact and the gated Cholesky
factor of a shared covariance -- into the plan that :func:`run_test`
runs on one sample and the Monte Carlo engine on every block.  What varies is where
the scores come from and what their covariance is:

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
    These are not orthonormal, so the table also holds their moment
    matrix over draws of the null sampler, formed from each grid cell's
    count, sum of dy and sum of dy^2 (the scores are linear in a cell),
    and the statistic series uses its nested leading blocks.

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
with its moment matrix, or an invariant family's Sigma) when it is made,
from its own inputs and at its cap, and never changes afterwards; a
failed build raises from the constructor, and a spec made by
``dataclasses.replace`` builds its own.

Monte Carlo calibration needs the matching null samplers; use
:func:`null_sampler`.  Smooth contamination alternatives g = 1 + sum
c_j b_j for power studies come from :func:`contamination_alternative`.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ._rng import KeyedStreams
from .basis import (
    OrthonormalBasis,
    _Workspace,
    _gauss_legendre,
    _score_planes,
    _sum_planes,
    design_matrix,
    eval_basis,
    legendre_basis,
    score_sums,
)
from .errors import NumericError, ScoreMeanError, SingularMatrixError
from .selection import (
    DimensionBudget,
    PenaltySchedule,
    SelectionOutcome,
    _penalties,
    _select,
    default_budget,
    schwarz_schedule,
)
from .statistics import _gated_factor, _series

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
    """A fully specified continuous null on a finite interval (a, b), a < b."""

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    sampler: Callable[[np.random.Generator, int], np.ndarray]

    def __post_init__(self):
        a, b = self.support
        if not -math.inf < a < b < math.inf:
            raise ValueError(
                f"null support must be a finite interval (a, b) with a < b, got {self.support!r}"
            )


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


def _scipy_ndtr():
    """scipy's compiled ``ndtr`` ufunc, without running scipy.special's __init__.

    ``from scipy import special`` costs a fresh process 0.2-0.3 s, most
    of it in scipy's array-API support (which imports numpy.f2py,
    numpy.testing and numpy.ma), none of it needed for ``ndtr``.  Recent
    scipy releases keep the ufunc in the extension module
    ``scipy.special._special_ufuncs``, which is loaded here from the
    package's directory on its own and registered in ``sys.modules``,
    so later calls and a later ``import scipy.special`` reuse it.  On
    releases without that module or attribute, the package import is
    the one path.
    """
    import importlib.machinery
    import importlib.util

    name = "scipy.special._special_ufuncs"
    module = sys.modules.get(name)
    if module is None:
        where = importlib.util.find_spec("scipy.special").submodule_search_locations
        spec = importlib.machinery.PathFinder.find_spec(name, where)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
    ndtr = getattr(module, "ndtr", None)
    if ndtr is None:
        from scipy.special import ndtr
    return ndtr


def gaussian_location_family() -> ParametricFamily:
    """N(mu, 1) with unknown location.

    The MLE is the sample mean and every information block is free of
    mu (location invariance), so the family is ``invariant`` and its
    blocks are evaluated at mu = 0 whatever beta is asked for.

    ``cdf`` is scipy's compiled ``ndtr`` (see :func:`_scipy_ndtr`).
    ``ndtri`` is only reachable through the whole scipy.special import,
    so ``ppf`` starts from the standard library's normal quantile in
    the lower tail and takes one Newton step on the same ``ndtr``.  That
    equals ``scipy.special.ndtri`` bit for bit at the information-block
    quadrature limits, where the stdlib quantile alone is an ulp off at
    the upper one (enough to move composite statistics by about 1e-8
    relative), and stays within a few ulp elsewhere.
    """
    import statistics  # only this family needs it; keeps import ntgof lean

    ndtr = _scipy_ndtr()
    normal = statistics.NormalDist()

    def cdf(x, beta):
        u = x - beta[..., :1]
        return ndtr(u, out=u)

    def ppf(p, beta):
        p = np.asarray(p, dtype=float)
        y = np.minimum(p, 1.0 - p)  # lower tail; 1 - p is exact for p >= 1/2
        z = np.where(y == 0.0, -np.inf, np.nan)
        inner = y > 0.0
        z0 = np.array([normal.inv_cdf(v) for v in y[inner].tolist()])
        pdf = np.exp(-0.5 * z0 * z0) / math.sqrt(2 * math.pi)
        z[inner] = z0 - (ndtr(z0) - y[inner]) / pdf
        return beta[0] + np.where(p <= 0.5, z, -z)

    _family = ParametricFamily(
        name="gaussian_location",
        q=1,
        cdf=cdf,
        logpdf=lambda x, beta: -0.5 * (x - beta[0]) ** 2 - 0.5 * math.log(2 * math.pi),
        fit=lambda data: np.mean(data, axis=-1, keepdims=True),
        sampler=lambda rng, n, beta: beta[0] + rng.standard_normal(n),
        ppf=ppf,
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
    excites (when known), an integer >= 1; consistency probes use it to
    know which P(S >= K) should climb to one.
    """

    name: str
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    first_component: int | None = None

    def __post_init__(self):
        k = self.first_component
        if k is not None and (not isinstance(k, numbers.Integral) or k < 1):
            raise ValueError(f"first_component must be None or an integer >= 1, got {k!r}")


@dataclass(frozen=True)
class TestSpec:
    """Everything needed to run one of the catalog tests.

    The budget cap may not exceed the basis degree -- the selector can
    only consider dimensions whose scores exist.  The constructor builds
    the spec's artifact (see the module docstring) and raises its errors.
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
    # the artifact __post_init__ builds from this spec's own inputs; not
    # an __init__ argument, so dataclasses.replace builds the copy its own
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
            # the spec's artifact, built at the cap; a test at dimension d
            # slices its leading d rows, or d x d block of Sigma below
            object.__setattr__(self, "_built", _DeconvScoreTable(self, cap))
        if self.kind == "composite":
            if self.family is None or self.beta0 is None:
                raise ValueError("composite spec needs family and beta0")
            object.__setattr__(self, "beta0", np.asarray(self.beta0, dtype=float))
            if self.beta0.shape != (self.family.q,):
                raise ValueError(
                    f"beta0 must have shape ({self.family.q},), got {self.beta0.shape}"
                )
            if not np.all(np.isfinite(self.beta0)):
                raise ValueError(f"beta0 must be finite, got {self.beta0.tolist()}")
            if self.family.invariant:
                cov = _composite_cov(self.family, self.beta0, self.basis, self.budget.cap)
                object.__setattr__(self, "_built", cov)


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


def _warn_caller(message: str) -> None:
    """Warn at the line that called into the package, however deep the call."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").startswith(__package__ + "."):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, UserWarning, stacklevel=level)


def _midranks(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """m = 2R - 2 for the mid-rank R of every entry along the last axis of x.

    A run of ties at sorted positions a..b shares the mid-rank
    (a + b)/2 + 1, so m = a + b, which is 2a for an untied entry.  The
    order among tied values does not matter, so any sort will do.  Tied
    data break the distribution-free guarantee, so a warning is emitted.
    m is written into ``out``, an intp array shaped like x, when given.
    """
    order = np.argsort(x, axis=-1)
    ordered = np.take_along_axis(x, order, axis=-1)
    pos = np.arange(x.shape[-1])
    tied = ordered[..., 1:] == ordered[..., :-1]
    if np.any(tied):
        _warn_caller(
            "tied observations: using average ranks; the null distribution "
            "of the rank test is no longer exact"
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
    m = np.empty_like(order) if out is None else out
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
# and grid rows integrated at once; a block's largest array, one degree's
# basis values, holds _DECONV_BLOCK * _DECONV_NODES floats.
_DECONV_NODES = 64
_DECONV_BLOCK = 256

# Null draws per chunk of the moment matrix, and the number of standard
# errors a score component's mean may lie from zero.
_MOMENT_CHUNK = 4096
_MEAN_GATE = 4.0


class _DeconvScoreTable:
    """Scores l_1..l_k tabulated on a y-grid, and their null moment matrix.

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
    scores and one of cell slopes, and :meth:`sums` interpolates them
    through :meth:`_interp`.

    ``moment`` is the k x k second-moment matrix N^{-1} sum l(Y_i)
    l(Y_i)^T of the interpolated scores over the spec's ``l_draws`` null
    draws, in chunks of _MOMENT_CHUNK, chunk c drawn from the stream
    ``SeedSequence(entropy=l_seed, spawn_key=(c,))``.  The scores are
    linear in each grid cell, l(y) = S_i + G_i dy, so the draws enter
    only through each cell's count, sum of dy and sum of dy^2.
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
        work = _Workspace()
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
            block = self.scores[:, start : start + _DECONV_BLOCK]
            # one degree at a time, so no (rows, nodes, k) array is formed
            for j, plane in enumerate(_score_planes(spec.basis, u, k, work)):
                np.divide(np.einsum("bn,bn->b", weighted, plane), den, out=block[j])
            bad_rows = ~(np.isfinite(den) & np.all(np.isfinite(block), axis=0))
            if np.any(bad_rows):
                bad = float(y[np.argmax(bad_rows), 0])
                raise NumericError(f"quadrature failed at y={bad:.6g}")
        # slope of each grid cell; the zero past the last point makes
        # points clamped to grid[-1] read scores[:, -1] exactly
        self._slopes = np.zeros_like(self.scores)
        self._slopes[:, :-1] = np.diff(self.scores, axis=1) / np.diff(self.grid)
        self._domain = (a - 8.0 * scale, b + 8.0 * scale)
        # cells per unit of y, and the upper edge of every cell (the last
        # cell, a single point, has none)
        self._cells_per_unit = (spec.grid_points - 1) / (self.grid[-1] - self.grid[0])
        self._upper = np.append(self.grid[1:], np.inf)
        self.moment = self._moment_matrix(null_sampler(spec), spec.l_draws, spec.l_seed)

    def _moment_matrix(self, sampler, draws: int, seed: int) -> np.ndarray:
        """The class docstring's ``moment``, after the mean gate.

        Each component mean must land within _MEAN_GATE standard errors of
        zero; a violation means the sampler is not the null of this score
        system and raises ScoreMeanError rather than returning a biased
        matrix.  A draw that is not finite, or is more than 8 noise scales
        from the support, raises NumericError.
        """
        cells = self.grid.size
        count, s1, s2 = np.zeros(cells), np.zeros(cells), np.zeros(cells)
        work = _Workspace()
        chunks = -(-draws // _MOMENT_CHUNK)
        streams = KeyedStreams(seed, ())
        for chunk, [key] in streams.blocks(range(chunks), 1, chunks):
            m = min(_MOMENT_CHUNK, draws - chunk * _MOMENT_CHUNK)
            y = np.asarray(sampler(streams.at(key), m), dtype=float)
            if y.shape != (m,):
                raise ValueError(f"null sampler drew shape {y.shape}, expected ({m},)")
            i, dy = self._cells(y, work)
            count += np.bincount(i, minlength=cells)
            s1 += np.bincount(i, dy, minlength=cells)
            s2 += np.bincount(i, dy * dy, minlength=cells)
        scores, slopes = self.scores, self._slopes
        cross = (scores * s1) @ slopes.T
        moment = (scores * count) @ scores.T + cross + cross.T + (slopes * s2) @ slopes.T
        moment /= draws
        mean = (scores @ count + slopes @ s1) / draws
        se = np.sqrt(np.maximum(np.diag(moment) - mean * mean, 0.0) / draws)
        off = np.abs(mean) > _MEAN_GATE * np.maximum(se, 1e-300)
        if np.any(off):
            j = int(np.argmax(off))
            raise ScoreMeanError(
                f"component {j + 1} has mean {mean[j]:.4e} "
                f"({abs(mean[j]) / max(se[j], 1e-300):.1f} standard errors from zero); "
                "sampler and score system disagree about the null"
            )
        return 0.5 * (moment + moment.T)

    def _cells(self, y, work: _Workspace) -> tuple[np.ndarray, np.ndarray]:
        """(i, y - grid[i]) of each point y, clamped to the grid, in y's shape.

        The cell i of each point is guessed from the grid spacing,
        floor((y - grid[0]) * cells per unit), then corrected by one
        comparison each way against the grid itself, which gives exactly
        the cell a binary search would.  Both results, and every step on
        the way, are arrays of ``work``.
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
        y = np.clip(y, grid[0], grid[-1], out=work.get("y", y.shape))
        # dy holds the cell guess, then each grid value gathered at i
        dy, i = work.get("dy", y.shape), work.get("i", y.shape, np.intp)
        flags = work.get("flags", y.shape, bool)
        np.subtract(y, grid[0], out=dy)
        dy *= self._cells_per_unit
        np.copyto(i, dy, casting="unsafe")  # truncates, as astype(np.intp) does
        np.minimum(i, grid.size - 1, out=i)
        # Every index is in range by construction, so mode="clip" changes
        # no value; under the default mode="raise" NumPy writes through a
        # temporary the size of ``out``.
        i -= np.greater(np.take(grid, i, out=dy, mode="clip"), y, out=flags)
        i += np.less_equal(np.take(self._upper, i, out=dy, mode="clip"), y, out=flags)
        np.subtract(y, np.take(grid, i, out=dy, mode="clip"), out=dy)
        return i, dy

    def _interp(self, i, dy, j: int, work: _Workspace) -> np.ndarray:
        """Scores of degree j + 1 at cells i, with dy = y - grid[i], in i's shape.

        Linear interpolation, clamped outside the grid: slope[i] * dy +
        score[i], the same numbers as ``np.interp``.  The result is an
        array of ``work``, overwritten by the next call; the gathers use
        mode="clip" for the reason :meth:`_cells` gives.
        """
        out = np.take(self._slopes[j], i, out=work.get("l", i.shape), mode="clip")
        out *= dy
        out += np.take(self.scores[j], i, out=work.get("s", i.shape), mode="clip")
        return out

    def sums(self, block, k: int, work: _Workspace | None = None) -> np.ndarray:
        """(B, k) sums of l_1..l_k over each row of a (B, n) block, one degree at a time.

        The temporaries live in ``work``, a fresh workspace when None.
        """
        work = _Workspace() if work is None else work
        i, dy = self._cells(block, work)
        return _sum_planes((self._interp(i, dy, j, work) for j in range(k)), dy.shape[:-1], k)


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


# ---------------------------------------------------------------------------
# the prepared plan, null samplers, alternatives


@dataclass(frozen=True)
class _Plan:
    """What :func:`_prepare` works out for one (spec, n)."""

    shape: tuple[int, ...]  # of one sample, (n,) or (n, 2)
    penalties: np.ndarray  # pi(1..d, n), so d = d(n) is its length
    test: Callable[[np.ndarray], SelectionOutcome]  # a (B, *shape) block's outcome


def _prepare(spec: TestSpec, n: int) -> _Plan:
    """The :class:`_Plan` of ``spec`` at sample size n, an integer >= 2.

    Everything but the sample is fixed here, on the calling thread: d(n),
    the penalties pi(1..d, n), the per-n rank table, the slice of the
    artifact the spec built when it was made and the gated Cholesky
    factor of the d x d block of a covariance every sample shares, so a
    bad n, penalty or block raises before any sample is drawn.  Only
    that block is gated: a cap-sized matrix that fails the gate still
    serves every d whose leading block passes.  The test's callers have
    checked the block's shape, so it checks only that the values are
    finite.
    Each row's numbers are those the sample gives alone.  Every kind maps
    the block to its (score sums, Cholesky factor), the factor being None
    for orthonormal scores, and the test forms the series from that pair.
    Each kind's sums go through :func:`_sum_planes`.  A family that is
    not ``invariant`` forms and gates its Sigma row by row, at d, in
    every block.  The test writes its block-sized temporaries into one
    :class:`~ntgof.basis._Workspace` of its own, reused from block to
    block and never part of the outcome, so a plan is tested on one
    thread at a time.
    """
    if not isinstance(n, numbers.Integral) or n < 2:
        raise ValueError(f"sample size n must be an integer >= 2, got {n!r}")
    d = spec.budget.d(n)
    pens = _penalties(spec.penalty, d, n)
    basis, family = spec.basis, spec.family
    work = _Workspace()
    if spec.kind == "uniformity":
        scores = lambda block: (score_sums(basis, block, d, work), None)
    elif spec.kind == "independence_rank":
        # row j holds b_j at every mid-rank (m/2 + 1/2) / n, m = 0..2n-2,
        # so each product score is a lookup at its entries' _midranks
        table = design_matrix(basis, (np.arange(2 * n - 1) / 2 + 0.5) / n, d).T.copy()

        def planes(u, v):
            # every mid-rank indexes the table, so mode="clip" changes no
            # value and keeps take from writing through a temporary
            for col in table:
                prod = np.take(col, u, out=work.get("bu", u.shape), mode="clip")
                prod *= np.take(col, v, out=work.get("bv", v.shape), mode="clip")
                yield prod

        def scores(block):
            shape = block.shape[:-1]
            u = _midranks(block[..., 0], work.get("u", shape, np.intp))
            v = _midranks(block[..., 1], work.get("v", shape, np.intp))
            return _sum_planes(planes(u, v), shape[:1], d), None
    elif spec.kind == "deconvolution":
        table = spec._built
        factor = _gated_factor(table.moment[:d, :d], d)
        scores = lambda block: (table.sums(block, d, work), factor)
    elif family.invariant:
        factor = _gated_factor(spec._built[:d, :d], d)

        def scores(block):
            u = np.asarray(family.cdf(block, family.fit(block)), dtype=float)
            u = np.clip(u, 0.0, 1.0, out=work.get("u", u.shape))
            return score_sums(basis, u, d, work), factor
    else:

        def scores(block):
            us, covs = [], []
            for x in block:
                beta = family.fit(x)
                us.append(np.clip(np.asarray(family.cdf(x, beta), dtype=float), 0.0, 1.0))
                covs.append(_composite_cov(family, beta, basis, d))
            return score_sums(basis, np.array(us), d, work), _gated_factor(np.array(covs), d)

    def test(block) -> SelectionOutcome:
        if not np.all(np.isfinite(block)):
            raise ValueError("data contains non-finite values")
        sums, factor = scores(block)
        return _select(_series(sums, n, factor), pens)

    return _Plan((n, 2) if spec.kind == "independence_rank" else (n,), pens, test)


def run_test(data, spec: TestSpec) -> SelectionOutcome:
    """Run whichever catalog test ``spec`` describes on one sample, (n,) or (n, 2)."""
    data = np.atleast_1d(np.asarray(data, dtype=float))
    plan = _prepare(spec, data.shape[0])
    if data.shape != plan.shape:
        raise ValueError(f"data must have shape {plan.shape}, got {data.shape}")
    return _select(plan.test(data[None]).series[0], plan.penalties)


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

    ``coefficients`` is either {degree: coefficient}, each degree an
    integer >= 1 (not a bool), or a plain sequence for degrees 1, 2,
    ....  The resulting function must be a genuine density: if it dips
    to zero or below anywhere on [0, 1] construction fails.  Sampling is
    by rejection with the exact envelope 1 + sum |c_j| sqrt(2j + 1), so
    draws cost a constant factor more than the envelope and stay
    deterministic per stream.
    """
    basis = basis or legendre_basis(12)
    if isinstance(coefficients, Mapping):
        for j in coefficients:
            if isinstance(j, bool) or not isinstance(j, numbers.Integral) or j < 1:
                raise ValueError(f"contamination degree must be an integer >= 1, got {j!r}")
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
