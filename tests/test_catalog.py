"""Catalog test instances: uniformity, rank independence, deconvolution,
composite parametric nulls, and the stock alternatives."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

import ntgof
import _reference
from _reference import block_test, column_sums, deconvolution_score, quadratic_form
from ntgof.basis import design_matrix, eval_basis, legendre_basis, score_sums, user_basis
from ntgof.catalog import (
    composite_spec,
    contamination_alternative,
    deconvolution_spec,
    gaussian_location_family,
    gaussian_noise,
    independence_spec,
    information_blocks,
    noisy_copy_pairs,
    null_sampler,
    rank_transform,
    run_test,
    uniform_null,
    uniformity_spec,
)
from ntgof.catalog import AlternativeSpec, NullDensity, ParametricFamily, TestSpec as CatalogSpec
from ntgof import catalog
from ntgof.catalog import _DeconvScoreTable, _numeric_information_blocks
from ntgof.errors import NumericError, ScoreMeanError, SingularMatrixError
from ntgof.montecarlo import MonteCarloConfig, null_distribution, power_curve
from ntgof.selection import _penalties, _select, default_budget, fixed_budget, schwarz_schedule
from ntgof.statistics import _series


# ---------------------------------------------------------------------------
# uniformity


def test_midpoint_grid_is_maximally_uniform():
    n = 100
    data = (np.arange(1, n + 1) - 0.5) / n
    out = run_test(data, uniformity_spec())
    # every low-degree score sum cancels to quadrature error
    assert abs(out.series[0]) < 1e-20
    assert out.s == 1


def test_two_symmetric_points():
    out = run_test(np.array([0.25, 0.75]), uniformity_spec())
    assert out.series[0] == pytest.approx(0.0, abs=1e-28)


def shifted_legendre_explicit(j, x):
    # hand-expanded shifted Legendre polynomials, normalized
    p = {
        1: 2 * x - 1,
        2: 6 * x**2 - 6 * x + 1,
        3: 20 * x**3 - 30 * x**2 + 12 * x - 1,
        4: 70 * x**4 - 140 * x**3 + 90 * x**2 - 20 * x + 1,
        5: 252 * x**5 - 630 * x**4 + 560 * x**3 - 210 * x**2 + 30 * x - 1,
    }[j]
    return math.sqrt(2 * j + 1) * p


def test_uniformity_against_explicit_reimplementation():
    # straight-line reimplementation: explicit polynomials, scalar loops,
    # and the selection rule spelled out
    rng = np.random.default_rng(42)
    n = 1000
    data = rng.random(n)

    d = min(12, max(2, int(n**0.25)))
    assert d == 5
    series = []
    total = 0.0
    for j in range(1, d + 1):
        colsum = 0.0
        for x in data:
            colsum += shifted_legendre_explicit(j, float(x))
        total += (colsum / math.sqrt(n)) ** 2
        series.append(total)
    penalized = [series[k - 1] - k * math.log(n) for k in range(1, d + 1)]
    best = max(penalized)
    s_ref = next(i + 1 for i in range(d) if penalized[i] == best)

    out = run_test(data, uniformity_spec())
    assert out.s == s_ref
    assert out.t_s == pytest.approx(series[s_ref - 1], abs=1e-10)
    assert np.max(np.abs(out.series - np.array(series))) < 1e-10


def test_uniformity_series_permutation_invariant():
    rng = np.random.default_rng(1)
    data = rng.random(60)
    a = run_test(data, uniformity_spec())
    b = run_test(data[::-1].copy(), uniformity_spec())
    assert np.allclose(a.series, b.series, rtol=0, atol=1e-12)
    assert a.s == b.s


def test_uniformity_rejects_out_of_range_data():
    with pytest.raises(ValueError):
        run_test(np.array([0.5, 1.5]), uniformity_spec())


def test_uniformity_rejects_single_point():
    with pytest.raises(ValueError):
        run_test(np.array([0.5]), uniformity_spec())


# ---------------------------------------------------------------------------
# rank transform


def test_rank_single_value():
    assert rank_transform(np.array([7.0]))[0] == 0.5


def test_rank_hand_example():
    # values (10, 30, 20): rank of the 30 is 3 -> (3 - 1/2)/3
    assert rank_transform(np.array([10.0, 30.0, 20.0]))[1] == pytest.approx(2.5 / 3)


def test_rank_last_of_sorted():
    n = 9
    vals = np.arange(n, dtype=float)
    assert rank_transform(vals)[n - 1] == pytest.approx((n - 0.5) / n)


def test_rank_vector_between_zero_and_one():
    rng = np.random.default_rng(6)
    u = rank_transform(rng.standard_normal(50))
    assert u.shape == (50,)
    assert np.all((u > 0) & (u < 1))
    # mid-ranks of distinct values enumerate the grid (i - 1/2)/n
    assert np.allclose(np.sort(u), (np.arange(1, 51) - 0.5) / 50)


def test_rank_ties_average_and_warn():
    with pytest.warns(UserWarning, match="tie"):
        u = rank_transform(np.array([1.0, 1.0, 2.0]))
    assert u == pytest.approx([1.0 / 3, 1.0 / 3, 2.5 / 3])


def test_tie_warnings_point_at_the_caller():
    # however deep in the package the ranks are taken, the warning names
    # the line that called into it
    pairs = np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 1.0], [3.0, 0.0]] * 3)
    for call in (lambda: run_test(pairs, independence_spec()), lambda: rank_transform(pairs[:, 0])):
        with pytest.warns(UserWarning, match="tie") as record:
            call()
        assert [r.filename for r in record] == [__file__] * len(record)


@pytest.mark.parametrize("tied", [False, True])
def test_rank_matches_scipy_rankdata_bitwise(tied):
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        v = rng.integers(0, max(1, n // 3), n).astype(float) if tied else rng.standard_normal(n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = rank_transform(v)
        want = (stats.rankdata(v) - 0.5) / n
        assert np.array_equal(got, want)


def test_rank_invariant_under_monotone_map():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(40)
    assert np.array_equal(rank_transform(x), rank_transform(np.exp(x)))


# ---------------------------------------------------------------------------
# rank independence


def test_independence_hand_example():
    out = run_test(np.array([[1.0, 2.0], [2.0, 1.0]]), independence_spec())
    # l_1 sums to -1.5, so T_1 = 1.5^2 / 2
    assert out.series[0] == pytest.approx(1.125)


def test_perfect_dependence_oracle():
    n = 50
    x = np.arange(1, n + 1, dtype=float)
    pairs = np.column_stack([x, x])
    out = run_test(pairs, independence_spec())
    u = (np.arange(1, n + 1) - 0.5) / n
    t1 = (np.sum(3.0 * (2 * u - 1) ** 2) / math.sqrt(n)) ** 2
    assert out.series[0] == pytest.approx(t1, rel=1e-12)
    assert out.s >= 1 and out.t_s >= out.series[0] - 1e-12


def test_independence_invariant_under_monotone_maps():
    rng = np.random.default_rng(3)
    pairs = rng.standard_normal((80, 2))
    a = run_test(pairs, independence_spec())
    warped = np.column_stack([np.exp(pairs[:, 0]), pairs[:, 1] ** 3])
    b = run_test(warped, independence_spec())
    assert a.s == b.s
    assert np.array_equal(a.series, b.series)


def test_independence_needs_pairs():
    with pytest.raises(ValueError):
        run_test(np.array([[1.0, 2.0]]), independence_spec())
    with pytest.raises(ValueError):
        run_test(np.ones((5, 3)), independence_spec())


# ---------------------------------------------------------------------------
# deconvolution scores


def test_score_degenerates_to_clean_basis_at_tiny_noise():
    noise = gaussian_noise(1e-4)
    f0 = uniform_null()
    for y in (0.2, 0.4, 0.7):
        got = deconvolution_score(y, 1, f0, noise)
        assert got == pytest.approx(eval_basis(legendre_basis(12), 1, y), abs=1e-3)


def test_score_odd_symmetry():
    noise = gaussian_noise(0.25)
    f0 = uniform_null()
    assert deconvolution_score(0.5, 1, f0, noise) == pytest.approx(0.0, abs=1e-10)
    left = deconvolution_score(0.1, 1, f0, noise)
    right = deconvolution_score(0.9, 1, f0, noise)
    assert left == pytest.approx(-right, rel=1e-8)


def test_score_even_symmetry():
    noise = gaussian_noise(0.25)
    f0 = uniform_null()
    left = deconvolution_score(0.2, 2, f0, noise)
    right = deconvolution_score(0.8, 2, f0, noise)
    assert left == pytest.approx(right, rel=1e-8)


def test_score_against_trapezoid_oracle():
    # independent fine-grid trapezoid evaluation of both integrals
    sigma, y = 0.25, 0.9
    s = np.linspace(max(0.0, y - 8 * sigma), min(1.0, y + 8 * sigma), 200_001)
    h = np.exp(-0.5 * ((y - s) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    b1 = math.sqrt(3.0) * (2 * s - 1)
    num = integrate.trapezoid(b1 * h, s)
    den = integrate.trapezoid(h, s)
    want = num / den
    got = deconvolution_score(y, 1, uniform_null(), gaussian_noise(sigma))
    assert got == pytest.approx(want, abs=1e-6)
    assert got > 0


def test_score_zero_mean_under_observed_null():
    # integral of l_1 against the noise-smoothed null density vanishes
    sigma = 0.25
    noise = gaussian_noise(sigma)
    f0 = uniform_null()
    ys = np.linspace(-6 * sigma, 1 + 6 * sigma, 401)
    scores = np.array([deconvolution_score(y, 1, f0, noise) for y in ys])
    g0 = stats.norm.cdf(ys / sigma) - stats.norm.cdf((ys - 1) / sigma)
    assert integrate.trapezoid(scores * g0, ys) == pytest.approx(0.0, abs=1e-6)


def test_score_rejects_far_observation():
    with pytest.raises(NumericError):
        deconvolution_score(25.0, 1, uniform_null(), gaussian_noise(0.25))


def test_score_rejects_bad_degree():
    with pytest.raises(ValueError):
        deconvolution_score(0.5, 0, uniform_null(), gaussian_noise(0.25))


def small_deconv_spec():
    # cheap artifacts for test runs: coarse score table, modest
    # normalizing-matrix sample
    return deconvolution_spec(l_draws=20_000, grid_points=501)


def test_deconvolution_test_runs_and_caches():
    spec = small_deconv_spec()
    rng = np.random.default_rng(0)
    n = 144  # d(144) = 3 dimensions of score table
    data = rng.random(n) + 0.25 * rng.standard_normal(n)
    out1 = run_test(data, spec)
    assert out1.s >= 1
    assert math.isfinite(out1.t_s)
    assert len(out1.series) == spec.budget.d(n)
    # the artifact is built once per spec, at the budget cap, when the
    # spec is made: runs at n = 144 and n = 1296 (d = 6) share its table
    table = spec._built
    big = rng.random(1296) + 0.25 * rng.standard_normal(1296)
    assert len(run_test(big, spec).series) == spec.budget.d(1296) == 6
    again = spec._built
    assert again is table
    out2 = run_test(data, spec)
    assert out2.t_s == out1.t_s
    # tabulated scores track the direct quadrature closely
    for y in (-0.3, 0.12, 0.55, 1.31):
        direct = deconvolution_score(y, 2, spec.null_density, spec.noise, spec.basis)
        assert table.sums(np.array([y]), 2)[1] == pytest.approx(direct, abs=1e-4)


@pytest.mark.parametrize("sigma", [0.02, 0.25, 1.0])
def test_score_table_matches_quadrature_oracle(sigma):
    spec = deconvolution_spec(noise=gaussian_noise(sigma), grid_points=64)
    table = spec._built
    for i in range(0, 64, 3):
        y = table.grid[i]
        for j in range(1, 13):
            direct = deconvolution_score(y, j, spec.null_density, spec.noise, spec.basis)
            assert abs(table.scores[j - 1, i] - direct) < 1e-10, (y, j)


def test_score_table_interpolates_like_np_interp():
    # the arithmetic cell index must land in the cell a binary search
    # finds: at every grid point, one ulp either side of it, on the
    # clamped stretches past both ends and at random points
    rng = np.random.default_rng(12)
    for grid_points in (64, 101, 2001):
        for sigma in (0.02, 0.25, 1.0):
            spec = deconvolution_spec(noise=gaussian_noise(sigma), grid_points=grid_points)
            cap = spec.budget.cap
            table = spec._built
            grid = table.grid
            lo, hi = table._domain
            y = np.concatenate(
                [
                    grid,
                    np.nextafter(grid, -np.inf),
                    np.nextafter(grid, np.inf),
                    np.linspace(lo, grid[0], 7),
                    np.linspace(grid[-1], hi, 7),
                    rng.uniform(lo, hi, 5000),
                ]
            )
            y = y[(y >= lo) & (y <= hi)]
            for k in (1, 4, cap):
                want = np.column_stack(
                    [np.interp(y, grid, table.scores[j]) for j in range(k)]
                )
                assert np.array_equal(table.sums(y[:, None], k), want), (grid_points, sigma, k)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_score_table_rejects_non_finite_observations(bad):
    table = deconvolution_spec(grid_points=64)._built
    y = np.array([0.2, 0.5, bad, 0.7])
    with pytest.raises(NumericError, match="not finite"):
        table.sums(y, 4)


def test_non_finite_null_draws_fail_loudly():
    # a sampler that returns NaN used to surface as an untyped LinAlgError
    # from the eigenvalue gate
    u = uniform_null()

    def sampler(rng, n):
        x = rng.random(n)
        x[::1000] = np.nan
        return x

    null_d = NullDensity(name="nan", pdf=u.pdf, cdf=u.cdf, support=u.support, sampler=sampler)
    with pytest.raises(NumericError, match="not finite"):
        deconvolution_spec(null_density=null_d, l_draws=20_000, grid_points=501)


@pytest.mark.parametrize(
    "bad, match",
    [(np.inf, "not finite"), (-np.inf, "not finite"), (5.0, "more than 8 noise scales")],
    ids=["inf", "-inf", "far"],
)
def test_null_draws_off_the_score_domain_fail_loudly(bad, match):
    # a draw the table cannot score stops the moment matrix, and with it
    # the spec's constructor
    u = uniform_null()

    def sampler(rng, n):
        x = rng.random(n)
        x[n // 2] = bad
        return x

    null_d = NullDensity(name="bad", pdf=u.pdf, cdf=u.cdf, support=u.support, sampler=sampler)
    with pytest.raises(NumericError, match=match):
        deconvolution_spec(null_density=null_d, l_draws=20_000, grid_points=64)


def test_null_sampler_shape_is_checked():
    # signal and noise both drawn as (n, 1) columns
    u = uniform_null()
    null_d = dataclasses.replace(u, sampler=lambda rng, n: rng.random((n, 1)))
    noise = dataclasses.replace(
        gaussian_noise(0.25), sampler=lambda rng, n: 0.25 * rng.standard_normal((n, 1))
    )
    with pytest.raises(ValueError, match=r"null sampler drew shape \(4096, 1\), expected \(4096,\)"):
        deconvolution_spec(noise=noise, null_density=null_d, l_draws=20_000, grid_points=64)


def test_sampler_that_disagrees_with_its_pdf_fails_the_mean_gate():
    # the sampler draws from [0, 1/2] where pdf and cdf describe [0, 1],
    # so the scores of the pdf's null are far from mean zero on its draws
    u = uniform_null()
    null_d = NullDensity(
        name="half", pdf=u.pdf, cdf=u.cdf, support=u.support,
        sampler=lambda rng, n: 0.5 * rng.random(n),
    )
    with pytest.raises(ScoreMeanError, match="component 1 has mean"):
        deconvolution_spec(null_density=null_d, l_draws=20_000, grid_points=64)


@pytest.mark.parametrize("grid_points", [64, 2001])
@pytest.mark.parametrize("sigma", [0.02, 0.25, 1.0])
def test_moment_matrix_matches_per_draw_oracle(sigma, grid_points):
    # 20_000 draws: four full chunks of 4096 and one of 3616.  The per-cell
    # weights sum the same draws' products in another order.
    spec = deconvolution_spec(noise=gaussian_noise(sigma), grid_points=grid_points, l_draws=20_000)
    table = spec._built
    want = _reference.estimate_moment_matrix(
        null_sampler(spec), 12, lambda y: _reference.evaluate(table, y), 20_000, spec.l_seed
    )
    scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    assert np.all(np.abs(table.moment - want) <= 1e-12 * scale)
    assert np.array_equal(table.moment, table.moment.T)


def test_deconvolution_spec_needs_moment_draws_at_cap():
    # the moment matrix is estimated at the cap (12): 10 * 12**2 = 1440
    with pytest.raises(ValueError, match=r"l_draws=1200 .*1440"):
        deconvolution_spec(l_draws=1200)
    assert deconvolution_spec(l_draws=1440).l_draws == 1440


def test_deconvolution_spec_needs_a_non_negative_integer_l_seed():
    for bad in (-1, 1.5, "3"):
        with pytest.raises(ValueError, match="l_seed must be a non-negative integer"):
            deconvolution_spec(l_seed=bad)
    assert deconvolution_spec(l_seed=np.int64(3)).l_seed == 3


def test_spec_builds_its_artifact_once_at_construction(monkeypatch):
    # one build when the spec is made and none after: not from a run, a
    # calibration, a power curve or two threads running the spec at once
    builds = []

    class CountingTable(_DeconvScoreTable):
        def __init__(self, spec, k):
            builds.append(k)
            super().__init__(spec, k)

    monkeypatch.setattr(catalog, "_DeconvScoreTable", CountingTable)
    spec = small_deconv_spec()
    cap = spec.budget.cap
    assert builds == [cap]
    assert type(spec._built) is CountingTable
    data = null_sampler(spec)(np.random.default_rng(3), 200)
    alone = run_test(data, spec)
    cfg = MonteCarloConfig(replications=100, seed=1, n_grid=(100, 200))
    null_distribution(spec, 200, cfg)
    power_curve(spec, AlternativeSpec("null", null_sampler(spec)), cfg)
    results = []

    def run():
        results.append(run_test(data, spec))
        results.append(null_distribution(spec, 100, cfg).critical_value)

    threads = [threading.Thread(target=run) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    assert builds == [cap]
    # a copy with new noise builds its own table from its own inputs
    replaced = dataclasses.replace(spec, noise=gaussian_noise(0.6))
    assert builds == [cap, cap]
    assert replaced._built is not spec._built
    assert run_test(data, spec).t_s == alone.t_s


def test_singular_moment_matrix_names_passing_dimension():
    # this spec's 12 x 12 moment matrix fails the 1e-10 gate and its
    # leading 11 x 11 block passes
    spec = deconvolution_spec(l_draws=20_000, grid_points=501, budget=fixed_budget(12))
    data = null_sampler(spec)(np.random.default_rng(5), 300)
    with pytest.raises(SingularMatrixError, match=r"dimension 12 .*passes is 11 x 11: cap") as e:
        run_test(data, spec)
    assert e.value.max_dimension == 11
    assert "--dmax" not in str(e.value)  # the CLI adds its flag name


def _zero_cross_information_family():
    # invariant like the Gaussian location family, with I_b = 0: Sigma = I
    return dataclasses.replace(
        gaussian_location_family(),
        information=lambda beta, basis, k: (np.zeros((1, k)), np.ones((1, 1))),
    )


@pytest.mark.parametrize(
    "kind, changes",
    [
        ("deconvolution", {"noise": gaussian_noise(0.6)}),
        ("deconvolution", {"l_seed": 1}),
        ("composite", {"family": _zero_cross_information_family()}),
    ],
    ids=["noise", "l_seed", "family"],
)
def test_replaced_spec_builds_its_own_artifact(kind, changes):
    # dataclasses.replace used to hand the new spec the old spec's
    # artifacts, so it tested with the old score table or Sigma
    rng = np.random.default_rng(40)
    if kind == "deconvolution":
        make = lambda **kw: deconvolution_spec(l_draws=20_000, grid_points=501, **kw)
        data = rng.random(200) + 0.25 * rng.standard_normal(200)
    else:
        make, data = composite_spec, 0.3 + rng.standard_normal(200)
    replaced = dataclasses.replace(make(), **changes)
    assert np.array_equal(run_test(data, replaced).series, run_test(data, make(**changes)).series)


def test_private_spec_fields_are_not_init_arguments():
    # dataclasses.replace passes every __init__ field on, so derived state
    # held in one would be shared with specs built from other inputs
    private = [f for f in dataclasses.fields(CatalogSpec) if f.name.startswith("_")]
    assert private and not any(f.init for f in private)


def test_deconvolution_test_rejects_far_data():
    spec = small_deconv_spec()
    with pytest.raises(NumericError):
        run_test(np.array([0.5, 0.6, 40.0]), spec)


# ---------------------------------------------------------------------------
# composite parametric nulls


def test_gaussian_location_information_blocks():
    fam = gaussian_location_family()
    i_b, i_bb = information_blocks(fam, np.zeros(1), legendre_basis(12), 6)
    assert i_bb[0, 0] == pytest.approx(1.0, rel=1e-6)  # Fisher info of N(mu, 1)
    # cross terms are Fourier coefficients of the standard normal
    # quantile; the first is sqrt(3/pi), even degrees vanish by symmetry
    assert i_b[0, 0] == pytest.approx(math.sqrt(3.0 / math.pi), rel=1e-6)
    assert abs(i_b[0, 1]) < 1e-8
    assert abs(i_b[0, 3]) < 1e-8
    assert abs(i_b[0, 5]) < 1e-8


def test_gaussian_location_cdf_and_ppf_pin_scipy_bits():
    from scipy import special

    fam = gaussian_location_family()
    zero = np.zeros(1)
    assert catalog._scipy_ndtr() is special.ndtr
    x = 3.0 * np.random.default_rng(5).standard_normal((4, 300))
    assert fam.cdf(x.copy(), np.zeros((4, 1))).tobytes() == special.ndtr(x).tobytes()
    # the information-block quadrature limits: an ulp here moves the
    # composite statistics by about 1e-8 relative
    for p in (catalog._INFO_TAIL, 1.0 - catalog._INFO_TAIL):
        assert fam.ppf(p, zero).tobytes() == special.ndtri(p).tobytes(), p
    p = np.concatenate([
        np.logspace(-300, -1, 600),
        np.linspace(0.001, 0.999, 2001),
        1.0 - np.logspace(-16, -1, 600),
    ])
    want = special.ndtri(p)
    assert np.all(np.abs(fam.ppf(p, zero) - want) <= 5 * np.spacing(np.abs(want)))
    edges = np.array([0.0, 1.0, 0.5, -0.5, 1.5, np.nan])
    np.testing.assert_array_equal(fam.ppf(edges, zero), special.ndtri(edges))
    assert fam.ppf(np.full((2, 3), 0.25), zero).shape == (2, 3)


def test_gaussian_location_block_cache_keyed_by_basis():
    # Each loop iteration drops its basis, so a cache keyed by id(basis)
    # would see freed ids reused and hand one basis the other's blocks.
    fam = gaussian_location_family()
    ref, _ = _numeric_information_blocks(fam, np.zeros(1), legendre_basis(4), 4)

    def flipped():
        return user_basis(
            [lambda x, j=j: -eval_basis(legendre_basis(4), j, x) for j in range(1, 5)]
        )

    for i in range(200):
        sign = 1.0 if i % 2 == 0 else -1.0
        i_b, _ = fam.information(np.zeros(1), legendre_basis(4) if sign > 0 else flipped(), 4)
        assert np.allclose(i_b, sign * ref, rtol=0, atol=1e-12), i


def test_composite_weight_matches_partitioned_inverse():
    # (I + I_b^T (I_bb - I_b I_b^T)^{-1} I_b) must equal the inverse of
    # (I - I_b^T I_bb^{-1} I_b); both are the efficient-score covariance
    fam = gaussian_location_family()
    k = 4
    i_b, i_bb = information_blocks(fam, np.zeros(1), legendre_basis(12), k)
    ib = i_b[:, :k]
    mid = np.linalg.inv(i_bb - ib @ ib.T)
    plus_r = np.eye(k) + ib.T @ mid @ ib
    woodbury = np.linalg.inv(np.eye(k) - ib.T @ np.linalg.inv(i_bb) @ ib)
    assert np.allclose(plus_r, woodbury, rtol=1e-10, atol=1e-12)


def test_composite_series_matches_woodbury_weight():
    # W_k from the Cholesky series must equal the quadratic form in the
    # weight I + I_b^T (I_bb - I_b I_b^T)^{-1} I_b at every k
    rng = np.random.default_rng(21)
    data = 0.3 + rng.standard_normal(1296)
    spec = composite_spec()
    d = spec.budget.d(data.size)
    out = run_test(data, spec)
    assert len(out.series) == d > 1
    beta_hat = spec.family.fit(data)
    u = spec.family.cdf(data, beta_hat)
    i_b, i_bb = information_blocks(spec.family, beta_hat, spec.basis, d)
    for k in range(1, d + 1):
        ib = i_b[:, :k]
        weight = np.eye(k) + ib.T @ np.linalg.inv(i_bb - ib @ ib.T) @ ib
        want = quadratic_form(design_matrix(spec.basis, u, k), np.linalg.inv(weight))
        assert out.series[k - 1] == pytest.approx(want, rel=1e-12)


def test_composite_statistic_location_invariant():
    rng = np.random.default_rng(10)
    data = rng.standard_normal(300)
    spec = composite_spec()
    a = run_test(data, spec)
    b = run_test(data + 7.5, spec)
    assert a.s == b.s
    assert np.allclose(a.series, b.series, rtol=0, atol=1e-9)


def test_composite_reduces_to_cumulative_form_when_orthogonal():
    # a family whose scores are orthogonal to every basis direction has
    # R = 0, so W_k collapses to the unweighted cumulative statistic
    flat = ParametricFamily(
        name="fixed_uniform",
        q=1,
        cdf=lambda x, beta: np.clip(x, 0.0, 1.0),
        logpdf=lambda x, beta: np.zeros_like(np.asarray(x, dtype=float)),
        fit=lambda data: np.zeros(1),
        sampler=lambda rng, n, beta: rng.random(n),
        ppf=lambda p, beta: p,
        information=lambda beta, basis, k: (np.zeros((1, k)), np.ones((1, 1))),
    )
    rng = np.random.default_rng(2)
    data = rng.random(100)
    for k in (1, 2, 4):
        w = run_test(data, composite_spec(flat, budget=fixed_budget(k))).series[-1]
        t = _series(design_matrix(legendre_basis(12), data, k).sum(0), 100)[-1]
        assert w == pytest.approx(t, abs=1e-8)


def test_composite_chi_square_mean():
    # W_1 over null replications should average near 1
    spec = composite_spec(gaussian_location_family(), budget=fixed_budget(1))
    vals = []
    rng = np.random.default_rng(5)
    for _ in range(2000):
        data = rng.standard_normal(500)
        vals.append(run_test(data, spec).series[-1])
    assert 0.8 < np.mean(vals) < 1.2


def test_composite_singular_middle_factor():
    bad = ParametricFamily(
        name="degenerate",
        q=1,
        cdf=lambda x, beta: np.clip(x, 0.0, 1.0),
        logpdf=lambda x, beta: np.zeros_like(np.asarray(x, dtype=float)),
        fit=lambda data: np.zeros(1),
        sampler=lambda rng, n, beta: rng.random(n),
        ppf=lambda p, beta: p,
        # |I_b| = 1 with I_bb = 1 makes I_bb - I_b I_b^T exactly zero
        information=lambda beta, basis, k: (
            np.concatenate([[1.0], np.zeros(k - 1)]).reshape(1, k),
            np.ones((1, 1)),
        ),
    )
    # zero Fisher information: I_bb cannot be inverted at all
    no_info = ParametricFamily(
        name="uninformative",
        q=1,
        cdf=bad.cdf,
        logpdf=bad.logpdf,
        fit=bad.fit,
        sampler=bad.sampler,
        ppf=bad.ppf,
        information=lambda beta, basis, k: (np.zeros((1, k)), np.zeros((1, 1))),
    )
    rng = np.random.default_rng(8)
    for family in (bad, no_info):
        with pytest.raises(SingularMatrixError):
            run_test(rng.random(50), composite_spec(family, budget=fixed_budget(2)))
    # declared invariant, the shared Sigma is built when the spec is made:
    # a singular middle factor fails the gate of the run ...
    spec = composite_spec(family=dataclasses.replace(bad, invariant=True))
    with pytest.raises(SingularMatrixError):
        run_test(rng.random(50), spec)
    # ... and a singular I_bb fails the spec's constructor
    with pytest.raises(SingularMatrixError, match="^Fisher information I_bb is singular"):
        composite_spec(family=dataclasses.replace(no_info, invariant=True))
    # singular only in the cap's last direction: the invariant Sigma is
    # built at the cap, and only the d x d block a test uses is gated
    last_only = dataclasses.replace(
        bad,
        information=lambda beta, basis, k: (np.eye(1, k, k - 1), np.ones((1, 1))),
        invariant=True,
    )
    data = rng.random(50)
    out = run_test(data, composite_spec(family=last_only))
    assert np.array_equal(out.series, run_test(data, uniformity_spec()).series)


def test_composite_sigma_matches_score_form_oracle():
    # the package's Sigma (central differences, 400 nodes, tail 1e-10)
    # against the score form on a 2000-node rule with tail 1e-14, which
    # itself moves by under 1e-12 at 4000 nodes and tail 1e-15
    spec = composite_spec()
    assert spec.budget.cap == 12
    err = np.max(np.abs(spec._built - _reference.gaussian_location_cov(12)))
    assert err <= 1e-10, err


def test_invariant_block_path_matches_row_path():
    # the same family without the declaration takes the row path: one
    # fit, one CDF and one Sigma per sample
    block_spec = composite_spec()
    row_spec = composite_spec(
        family=dataclasses.replace(gaussian_location_family(), invariant=False)
    )
    block = 0.4 + np.random.default_rng(23).standard_normal((9, 400))
    a, b = block_test(block, block_spec), block_test(block, row_spec)
    assert np.array_equal(a.series, b.series)
    assert np.array_equal(a.t_s, b.t_s) and np.array_equal(a.s, b.s)
    cfg = MonteCarloConfig(replications=200, seed=2**40 + 3)
    x, y = null_distribution(block_spec, 300, cfg), null_distribution(row_spec, 300, cfg)
    assert np.array_equal(x.statistics, y.statistics)
    assert np.array_equal(x.s_counts, y.s_counts)


# ---------------------------------------------------------------------------
# spec construction and dispatch


def test_budget_cap_must_fit_basis():
    with pytest.raises(ValueError, match="cap"):
        CatalogSpec(
            kind="uniformity",
            basis=legendre_basis(3),
            penalty=schwarz_schedule(),
            budget=default_budget(),  # cap 12 > max_degree 3
        )


def test_deconvolution_spec_requires_ingredients():
    with pytest.raises(ValueError):
        CatalogSpec(
            kind="deconvolution",
            basis=legendre_basis(12),
            penalty=schwarz_schedule(),
            budget=default_budget(),
        )


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        CatalogSpec(
            kind="bogus",
            basis=legendre_basis(12),
            penalty=schwarz_schedule(),
            budget=default_budget(),
        )


def test_composite_beta0_shape_checked():
    with pytest.raises(ValueError, match="beta0"):
        composite_spec(beta0=np.zeros(2))
    # a non-finite beta0 used to be blamed on replication 0 of a calibration
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^beta0 must be finite, got \["):
            composite_spec(beta0=[bad])


def test_run_test_checks_the_sample_against_the_plan():
    data = np.random.default_rng(0).random(50)
    with pytest.raises(ValueError, match=r"^data must have shape \(50, 2\), got \(50,\)$"):
        run_test(data, independence_spec())
    with pytest.raises(ValueError, match=r"^data must have shape \(50,\), got \(50, 1\)$"):
        run_test(data[:, None], uniformity_spec())
    for short in (data[:1], 0.5):
        with pytest.raises(ValueError, match=r"^sample size n must be an integer >= 2, got 1$"):
            run_test(short, uniformity_spec())
    # the plan is prepared first, so its penalty fails before the shape
    spec = independence_spec(penalty=ntgof.table_schedule({}))
    with pytest.raises(KeyError, match="no entry for \\(k=1, n=50\\)"):
        run_test(data, spec)


def test_dispatch_matches_direct_call():
    rng = np.random.default_rng(4)
    data = rng.random(50)
    spec = uniformity_spec()
    a = run_test(data, spec)
    d = spec.budget.d(50)
    b = _select(_series(score_sums(spec.basis, data, d), 50), _penalties(spec.penalty, d, 50))
    assert a.s == b.s and a.t_s == b.t_s


@pytest.mark.parametrize(
    "spec",
    [uniformity_spec(), independence_spec(), small_deconv_spec(), composite_spec()],
    ids=lambda spec: spec.kind,
)
def test_block_rows_equal_samples_alone(spec):
    rng = np.random.default_rng(6)
    block = np.stack([null_sampler(spec)(rng, 90) for _ in range(5)])
    out = block_test(block, spec)
    assert out.series.shape == (5, spec.budget.d(90))
    for i, data in enumerate(block):
        alone = run_test(data, spec)
        assert (out.s[i], out.t_s[i]) == (alone.s, alone.t_s)
        assert np.array_equal(out.series[i], alone.series)


def test_uniformity_series_equals_nt_series_of_design_matrix():
    spec = uniformity_spec()
    for n in (50, 500, 1296):
        x = np.random.default_rng(n).random(n)
        want = _series(column_sums(design_matrix(spec.basis, x, spec.budget.d(n))), n)
        assert np.array_equal(run_test(x, spec).series, want)


def test_deconvolution_sums_of_a_block_row_equal_the_row_alone():
    spec = small_deconv_spec()
    table = spec._built
    rng = np.random.default_rng(15)
    block = rng.random((64, 500)) + 0.25 * rng.standard_normal((64, 500))
    block[0, :3] = [-1.9, 2.9, table.grid[7]]  # clamped ends and a grid point
    for k in (1, 4, 12):
        sums = table.sums(block, k)
        assert sums.shape == (64, k)
        for i, row in enumerate(block):
            assert np.array_equal(sums[i], table.sums(row, k))
            assert np.array_equal(sums[i], column_sums(_reference.evaluate(table, row)[:, :k]))


def _rank_transform_series(block, spec, d):
    """The independence series through the reference rank transform, row by row."""
    u = np.array([_reference.rank_transform(pairs[:, 0]) for pairs in block])
    v = np.array([_reference.rank_transform(pairs[:, 1]) for pairs in block])
    scores = design_matrix(spec.basis, u, d) * design_matrix(spec.basis, v, d)
    return _series(column_sums(scores), block.shape[1])


@pytest.mark.parametrize("n", [50, 500, 1296])
def test_rank_table_matches_rank_transform_bitwise(n):
    spec = independence_spec()
    d = spec.budget.d(n)
    rng = np.random.default_rng(n)
    block = rng.standard_normal((16, n, 2))
    block[1, :, 1] = block[1, :, 0] ** 3  # perfect dependence
    block[2] = np.column_stack([np.arange(n), np.arange(n)[::-1]])  # sorted, reversed
    series = block_test(block, spec).series
    assert np.array_equal(series, _rank_transform_series(block, spec, d))
    for i in range(16):
        assert np.array_equal(series[i], block_test(block[i : i + 1], spec).series[0])


@pytest.mark.parametrize("n", [50, 500, 1296])
def test_untied_ranks_equal_stable_sort_ranks_bitwise(n):
    # distinct values have one sorting permutation, so the default sort
    # gives twice the zero-based ranks a stable sort gives
    x = np.random.default_rng(n + 1).standard_normal((64, n))
    want = np.empty((64, n), dtype=np.intp)
    np.put_along_axis(want, np.argsort(x, axis=-1, kind="mergesort"), np.arange(n), axis=-1)
    assert np.array_equal(catalog._midranks(x), 2 * want)
    x[5, 7] = x[5, 3]  # one tie: the pair shares a mid-rank, and the block's test warns
    with pytest.warns(UserWarning, match="tie"):
        m = catalog._midranks(x)
    assert m[5, 7] == m[5, 3]
    assert np.array_equal((m[5] + 1) / (2 * n), _reference.rank_transform(x[5]))
    assert np.array_equal(np.delete(m, 5, axis=0), np.delete(2 * want, 5, axis=0))
    pairs = np.stack([x, np.random.default_rng(n).standard_normal((64, n))], axis=-1)
    with pytest.warns(UserWarning, match="tie"):
        block_test(pairs, independence_spec())


def test_tied_block_uses_mid_ranks_and_warns():
    spec = independence_spec()
    n = 200
    rng = np.random.default_rng(16)
    block = rng.standard_normal((6, n, 2))
    block[3, : n // 2, 1] = 0.0  # one row with ties in one coordinate
    d = spec.budget.d(n)
    with pytest.warns(UserWarning, match="tie"):
        series = block_test(block, spec).series
    assert np.array_equal(series, _rank_transform_series(block, spec, d))
    # untied rows read the rank table alone and give the same bits
    for i in (0, 1, 2, 4, 5):
        assert np.array_equal(series[i], block_test(block[i : i + 1], spec).series[0])


@pytest.mark.parametrize("n", [2, 7, 300])
def test_tied_blocks_match_reference_ranks_bitwise(n):
    # ties in both coordinates, runs of every length, a constant column
    spec = independence_spec()
    d = spec.budget.d(n)
    rng = np.random.default_rng(n + 40)
    block = np.round(rng.standard_normal((8, n, 2)), 1)
    block[:, 1] = block[:, 0]  # every row tied in both coordinates
    block[1, :, 0] = 3.0  # a constant column
    block[2] = 1.0  # both columns constant
    block[3, :, 1] = rng.integers(0, 2, n)  # two long runs
    with pytest.warns(UserWarning, match="tie"):
        series = block_test(block, spec).series
    assert np.array_equal(series, _rank_transform_series(block, spec, d))
    for i in range(8):
        with pytest.warns(UserWarning, match="tie"):
            alone = run_test(block[i], spec).series
            u = (catalog._midranks(block[i, :, 0]) + 1) / (2 * n)
        assert np.array_equal(series[i], alone)
        assert np.array_equal(u, _reference.rank_transform(block[i, :, 0]))


# fixed_budget(1) calibrations at n = 80, R = 200, seed 21.  A one-column
# score sum is a pairwise sum however the block is laid out, so these
# bits are fixed by the arithmetic alone and must not move.
FIXED_ONE = {
    "uniformity": (uniformity_spec, "7ec3342f84f19380", 3.564621556788057),
    "independence_rank": (independence_spec, "44a9729273486b84", 3.3838165283203105),
    "deconvolution": (deconvolution_spec, "d73b6b03e79593cb", 3.382252077388605),
    "composite": (composite_spec, "d406fa8af15e904e", 4.195306939929805),
}


@pytest.mark.parametrize("kind", sorted(FIXED_ONE))
def test_fixed_budget_one_calibrations_are_pinned(kind):
    make, digest, critical = FIXED_ONE[kind]
    cal = null_distribution(
        make(budget=fixed_budget(1)), 80, MonteCarloConfig(replications=200, seed=21)
    )
    assert hashlib.sha256(cal.statistics.tobytes()).hexdigest()[:16] == digest
    assert cal.critical_value == critical
    assert list(cal.s_counts) == [200]


# Default-budget calibrations (d(500) = 4) at n = 500, R = 200, seed 21.
# Pinned to the last bit, so any change that moves a statistic at d >= 2
# shows here; a drift made on purpose must re-pin and say by how much.
# The deconvolution row was re-pinned when its moment matrix came to be
# formed from per-cell weights: the statistics moved by at most 7.0e-13
# relative and the critical value by 2 in its last digit.
DEFAULT_BUDGET = {
    "uniformity": (uniformity_spec, "df67d4e80f53930e", 4.413531028358762, [197, 3, 0, 0]),
    "independence_rank": (independence_spec, "6182975925188982", 3.5793840835630064, [198, 2, 0, 0]),
    "deconvolution": (deconvolution_spec, "7b8c20f7b097b3b3", 5.968866766572287, [194, 5, 1, 0]),
    "composite": (composite_spec, "45fafeb8a284b1a9", 3.593352900440842, [195, 5, 0, 0]),
}


@pytest.mark.parametrize("kind", sorted(DEFAULT_BUDGET))
def test_default_budget_calibrations_are_pinned(kind):
    make, digest, critical, s_counts = DEFAULT_BUDGET[kind]
    cal = null_distribution(make(), 500, MonteCarloConfig(replications=200, seed=21))
    assert hashlib.sha256(cal.statistics.tobytes()).hexdigest()[:16] == digest
    assert cal.critical_value == critical
    assert list(cal.s_counts) == s_counts


def test_user_basis_nan_scores_fail_loudly():
    def b1(x):
        x = np.asarray(x, dtype=float)
        # NaN only at 1/2, which no even Gauss-Legendre rule samples
        return np.where(x == 0.5, np.nan, math.sqrt(3.0) * (2.0 * x - 1.0))

    spec = uniformity_spec(basis=user_basis([b1]), budget=fixed_budget(1))
    data = np.random.default_rng(17).random(40)
    assert math.isfinite(run_test(data, spec).t_s)
    data[5] = 0.5
    with pytest.raises(ValueError, match="score matrix contains non-finite entries"):
        run_test(data, spec)


@pytest.mark.parametrize(
    "spec",
    [uniformity_spec(), independence_spec(), small_deconv_spec(), composite_spec()],
    ids=lambda spec: spec.kind,
)
def test_block_path_forms_no_score_tensor(spec, monkeypatch):
    rng = np.random.default_rng(18)
    block = np.stack([null_sampler(spec)(rng, 90) for _ in range(8)])
    block_test(block, spec)  # builds the spec's artifacts
    shapes = []
    real = catalog.design_matrix

    def recording(basis, x, k):
        shapes.append(np.shape(x))
        return real(basis, x, k)

    monkeypatch.setattr(catalog, "design_matrix", recording)
    block_test(block, spec)
    # only the independence kind's per-n rank table, one point per mid-rank
    assert shapes == ([(179,)] if spec.kind == "independence_rank" else [])


@pytest.mark.parametrize(
    "spec, shape",
    [
        (uniformity_spec(), (30,)),
        (independence_spec(), (30, 2)),
        (composite_spec(), (30,)),
    ],
)
def test_null_sampler_shapes(spec, shape):
    rng = np.random.default_rng(0)
    data = null_sampler(spec)(rng, 30)
    assert data.shape == shape
    out = run_test(data, spec)
    assert out.s >= 1


def test_null_sampler_deconvolution_shape():
    spec = small_deconv_spec()
    data = null_sampler(spec)(np.random.default_rng(0), 100)
    assert data.shape == (100,)
    # convolution widens the support beyond the unit interval
    assert data.min() < 0.5 < data.max()


# ---------------------------------------------------------------------------
# alternatives


def test_contamination_mean_matches_coefficient():
    alt = contamination_alternative({3: 0.3})
    assert alt.first_component == 3
    rng = np.random.default_rng(0)
    x = alt.sampler(rng, 200_000)
    assert x.shape == (200_000,)
    assert np.all((x >= 0) & (x <= 1))
    b3 = eval_basis(legendre_basis(12), 3, x)
    # E b_3 = 0.3 under the contaminated density; 4 sigma MC margin
    se = np.std(b3) / math.sqrt(x.size)
    assert abs(np.mean(b3) - 0.3) < 4 * se


def test_contamination_sequence_form():
    alt = contamination_alternative([0.2, 0.1])
    assert alt.first_component == 1


def test_contamination_rejects_non_density():
    # 1 + 0.6 b_1 dips below zero near x = 0
    with pytest.raises(ValueError, match="density"):
        contamination_alternative({1: 0.6})
    # a NaN coefficient used to pass the density check, which NaN fails
    # to trip, and broke the sampler
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="degree 2 must be finite"):
            contamination_alternative({1: 0.1, 2: bad})
        with pytest.raises(ValueError, match="degree 1 must be finite"):
            contamination_alternative([bad])


def test_contamination_rejects_empty():
    with pytest.raises(ValueError):
        contamination_alternative({})


def test_contamination_sampler_deterministic():
    alt = contamination_alternative({2: 0.25})
    a = alt.sampler(np.random.default_rng(123), 1000)
    b = alt.sampler(np.random.default_rng(123), 1000)
    assert np.array_equal(a, b)


def test_noisy_copy_pairs():
    alt = noisy_copy_pairs(0.5)
    assert alt.first_component == 1
    pairs = alt.sampler(np.random.default_rng(1), 4000)
    assert pairs.shape == (4000, 2)
    r = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
    assert r > 0.8  # correlation 1/sqrt(1.25) ~ 0.894


@pytest.mark.parametrize("sd", [-0.1, math.inf, math.nan])
def test_noisy_copy_pairs_rejects_non_finite_or_negative_noise(sd):
    # an infinite sd used to fail every replication with
    # "data contains non-finite values"
    with pytest.raises(ValueError, match=r"^noise_sd must be finite and >= 0"):
        noisy_copy_pairs(sd)


@pytest.mark.parametrize(
    "support", [(-math.inf, math.inf), (1.0, 0.0), (0.0, 0.0), (math.nan, 1.0)]
)
def test_null_support_must_be_a_finite_interval(support):
    # an infinite support used to fail in the score table with two numpy
    # warnings and "basis argument contains non-finite values", and an
    # empty one with "noise-smoothed null density vanishes"
    u = uniform_null()
    with pytest.raises(ValueError, match=r"^null support must be a finite interval"):
        dataclasses.replace(u, support=support)


def test_contamination_degree_must_be_an_integer():
    # 2.5 used to be truncated to 2, dropping the coefficient of degree 2
    for bad in (2.5, 0, -1, True, "3", np.float64(3.0)):
        with pytest.raises(ValueError, match=r"^contamination degree must be an integer >= 1"):
            contamination_alternative({2: 0.1, bad: 0.2})
    alt = contamination_alternative({np.int64(3): 0.3})
    assert (alt.name, alt.first_component) == ("contamination(c3=0.3)", 3)


@pytest.mark.parametrize("sigma", [0.0, -0.25, math.inf, math.nan])
def test_noise_scale_must_be_finite_and_positive(sigma):
    # an infinite sigma used to fail the deconvolution test later, with
    # "basis argument contains non-finite values"
    with pytest.raises(ValueError, match=r"^noise scale must be finite and positive"):
        gaussian_noise(sigma)
    u = uniform_null()
    with pytest.raises(ValueError, match=r"^noise scale must be finite and positive"):
        catalog.NoiseDensity(name="bad", pdf=u.pdf, scale=sigma, sampler=u.sampler)


# ---------------------------------------------------------------------------
# import cost


def _fresh_python(args, cwd=None):
    """Run ``python args`` in a fresh interpreter that imports this ntgof."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ntgof.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_loads_no_scipy():
    # import ntgof is numpy-only, and the Monte Carlo engine forks its
    # worker with os alone: no concurrent.futures (6 ms of cold import)
    # and no multiprocessing; the Gaussian location family loads scipy's
    # compiled ndtr alone, so neither composite_spec() nor a composite
    # run_test imports scipy.special or what its array-API support pulls in
    code = (
        "import sys, numpy as np, ntgof; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('scipy', 'concurrent', 'multiprocessing'))); "
        "ntgof.run_test(np.random.default_rng(0).standard_normal(100), ntgof.composite_spec()); "
        "print(sorted(m for m in ('scipy.special', 'numpy.f2py', 'numpy.testing', 'numpy.ma') "
        "if m in sys.modules))"
    )
    proc = _fresh_python(["-c", code])
    assert proc.stdout.split() == ["[]", "[]"]


# One composite run end to end: run_test on three samples and a small
# calibration, hashed bit for bit.
_COMPOSITE_DIGEST = """
import hashlib, numpy as np, ntgof
def composite_digest():
    spec = ntgof.composite_spec()
    h = hashlib.sha256()
    for seed in range(3):
        x = np.random.default_rng(seed).standard_normal(200) + 0.2 * seed
        h.update(ntgof.run_test(x, spec).series.tobytes())
    cal = ntgof.null_distribution(spec, 100, ntgof.MonteCarloConfig(replications=200, seed=1))
    h.update(cal.statistics.tobytes())
    h.update(cal.s_counts.tobytes())
    return h.hexdigest()
"""

# Make the family's lookup of scipy.special._special_ufuncs find nothing
# once, as on a scipy release without that module; scipy.special's own
# import of it afterwards goes through unchanged.
_NO_SPECIAL_UFUNCS = """
import importlib.machinery
_real = importlib.machinery.PathFinder.find_spec
def _find_spec(name, path=None, target=None):
    if name == "scipy.special._special_ufuncs":
        importlib.machinery.PathFinder.find_spec = _real
        return None
    return _real(name, path, target)
importlib.machinery.PathFinder.find_spec = _find_spec
"""


@pytest.mark.parametrize(
    "code, special_loaded",
    [
        # the compiled ndtr first, then the package: same ufunc, same bits
        (
            "a = composite_digest(); import scipy.special; "
            "assert catalog._scipy_ndtr() is scipy.special.ndtr; "
            "assert composite_digest() == a; print(a)",
            True,
        ),
        # the package first: the family reuses its module
        (
            "import scipy.special; a = composite_digest(); "
            "assert catalog._scipy_ndtr() is scipy.special.ndtr; print(a)",
            True,
        ),
        # the compiled ndtr alone
        ("print(composite_digest())", False),
        # no _special_ufuncs: the package import is the one path
        (_NO_SPECIAL_UFUNCS + "print(composite_digest())", True),
    ],
    ids=["family-then-scipy", "scipy-then-family", "family-alone", "no-special-ufuncs"],
)
def test_gaussian_location_ndtr_interop(code, special_loaded):
    code = _COMPOSITE_DIGEST + "import sys\nfrom ntgof import catalog\n" + code + (
        "\nprint('scipy.special' in sys.modules)"
    )
    namespace = {}
    exec(_COMPOSITE_DIGEST, namespace)
    expected = namespace["composite_digest"]()
    assert _fresh_python(["-c", code]).stdout.split() == [expected, str(special_loaded)]


def test_deconvolution_cli_loads_no_scipy(tmp_path):
    # -X importtime logs every module the process imports, one per line
    rng = np.random.default_rng(4)
    data = rng.random(200) + 0.25 * rng.standard_normal(200)
    (tmp_path / "y.csv").write_text("x\n" + "".join(f"{float(v)!r}\n" for v in data))
    proc = _fresh_python(
        ["-X", "importtime", "-m", "ntgof", "test", "--kind", "deconvolution",
         "--input", "y.csv", "--mc-reps", "100"],
        cwd=tmp_path,
    )
    assert '"kind":"deconvolution"' in proc.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "ntgof.catalog" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []
