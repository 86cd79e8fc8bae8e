"""Simulated reference distributions, power curves, and probes."""

import math
import sys
import threading

import numpy as np
import pytest

from _reference import substream
from ntgof import _rng, catalog, montecarlo
from ntgof.catalog import (
    AlternativeSpec,
    ParametricFamily,
    composite_spec,
    contamination_alternative,
    deconvolution_spec,
    noisy_copy_pairs,
    null_sampler,
    run_test,
    uniformity_spec,
    independence_spec,
)
from ntgof.errors import SingularMatrixError
from ntgof.selection import table_schedule
from ntgof.montecarlo import (
    MonteCarloConfig,
    consistency_probe,
    null_distribution,
    p_value,
    power_curve,
    tail_rate_probe,
)


# ---------------------------------------------------------------------------
# configuration guards


def test_config_validation():
    with pytest.raises(ValueError, match="replications"):
        MonteCarloConfig(replications=50, seed=0)
    with pytest.raises(ValueError, match="alpha"):
        MonteCarloConfig(replications=200, seed=0, alpha=1.0)
    with pytest.raises(ValueError, match="n_grid"):
        MonteCarloConfig(replications=200, seed=0, n_grid=(100, 100))
    for seed in (-1, 1.0, "3", None):
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer"):
            MonteCarloConfig(replications=200, seed=seed)
    assert MonteCarloConfig(replications=200, seed=np.int64(2**40)).seed == 2**40


@pytest.mark.parametrize("grid", [(1, 50), (0, 50), (-3, 50)])
def test_config_rejects_n_grid_sizes_below_two(grid):
    # checked with the config, not blamed on replication 0 of the first size
    with pytest.raises(ValueError, match=r"^n_grid sizes must be >= 2, got \["):
        MonteCarloConfig(replications=200, seed=0, n_grid=grid)
    assert MonteCarloConfig(replications=200, seed=0, n_grid=(2, 50)).n_grid == (2, 50)


# ---------------------------------------------------------------------------
# null calibration


def test_calibration_bookkeeping():
    spec = uniformity_spec()
    cfg = MonteCarloConfig(replications=500, seed=3, alpha=0.05)
    cal = null_distribution(spec, n=100, config=cfg)
    assert cal.statistics.shape == (500,)
    assert np.all(np.diff(cal.statistics) >= 0.0)
    # ceil(0.95 * 500) = 475th ascending order statistic
    assert cal.critical_value == cal.statistics[474]
    assert int(np.sum(cal.s_counts)) == 500
    assert len(cal.s_counts) == spec.budget.d(100)
    d = cal.as_dict()
    assert set(d) == {"n", "alpha", "replications", "seed", "critical_value", "s_counts"}


def run_at_blocks(monkeypatch, fn, blocks=(1, 7, 64)):
    """fn() once per replication block size."""
    out = []
    for block in blocks:
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        out.append(fn())
    return out


def test_calibration_deterministic_across_blocks(monkeypatch):
    spec = uniformity_spec()
    cfg = MonteCarloConfig(replications=300, seed=7)
    a, *rest = run_at_blocks(monkeypatch, lambda: null_distribution(spec, n=80, config=cfg))
    for b in rest:
        assert np.array_equal(a.statistics, b.statistics)
        assert np.array_equal(a.s_counts, b.s_counts)
        assert a.critical_value == b.critical_value


def test_null_mostly_selects_first_dimension():
    spec = uniformity_spec()
    cfg = MonteCarloConfig(replications=500, seed=1)
    cal = null_distribution(spec, n=200, config=cfg)
    assert cal.s_counts[0] / 500 > 0.85


def test_calibration_rejects_tiny_n():
    with pytest.raises(ValueError):
        null_distribution(
            uniformity_spec(), n=1, config=MonteCarloConfig(replications=200, seed=0)
        )


# ---------------------------------------------------------------------------
# p-values


@pytest.fixture(scope="module")
def small_calibration():
    return null_distribution(
        uniformity_spec(), n=120, config=MonteCarloConfig(replications=400, seed=11)
    )


def test_p_value_extremes(small_calibration):
    cal = small_calibration
    huge = float(cal.statistics[-1]) + 10.0
    assert p_value(huge, cal) == pytest.approx(1.0 / 401.0)
    assert p_value(-1.0, cal) == pytest.approx(1.0)


def test_p_value_counts_ties_as_extreme(small_calibration):
    cal = small_calibration
    obs = float(cal.statistics[200])
    count = int(np.sum(cal.statistics >= obs))
    assert p_value(obs, cal) == pytest.approx((1 + count) / 401.0)


def test_p_value_rejects_nan(small_calibration):
    with pytest.raises(ValueError):
        p_value(float("nan"), small_calibration)


def test_p_value_roughly_uniform_under_null(small_calibration):
    # fresh null statistics get p-values spread over (0, 1]
    from ntgof.catalog import run_test

    spec = uniformity_spec()
    ps = []
    for i in range(200):
        rng = substream(999, i)
        out = run_test(rng.random(120), spec)
        ps.append(p_value(out.t_s, small_calibration))
    assert 0.4 < float(np.mean(ps)) < 0.6


# ---------------------------------------------------------------------------
# power curves


def test_size_close_to_alpha():
    # feeding the null back as the "alternative" recovers the level
    spec = uniformity_spec()
    null_alt = AlternativeSpec(
        name="null", sampler=lambda rng, n: rng.random(n), first_component=1
    )
    cfg = MonteCarloConfig(replications=1000, seed=5, alpha=0.05, n_grid=(300,))
    curve = power_curve(spec, null_alt, cfg)
    rate = curve.points[0].rejection_rate
    assert 0.02 < rate < 0.08


def test_power_grows_along_grid():
    spec = uniformity_spec()
    alt = contamination_alternative({1: 0.3})
    cfg = MonteCarloConfig(replications=400, seed=2, alpha=0.05, n_grid=(50, 200, 800))
    curve = power_curve(spec, alt, cfg)
    rates = [p.rejection_rate for p in curve.points]
    assert rates[0] < rates[-1]
    assert rates[-1] > 0.9
    d = curve.as_dict()
    assert [row["n"] for row in d["points"]] == [50, 200, 800]


def test_power_deterministic_across_blocks(monkeypatch):
    spec = independence_spec()
    alt = noisy_copy_pairs(1.0)
    cfg = MonteCarloConfig(replications=200, seed=9, alpha=0.05, n_grid=(60,))
    a, *rest = run_at_blocks(monkeypatch, lambda: power_curve(spec, alt, cfg).as_dict())
    assert all(b == a for b in rest)


def reference_replications(spec, sampler, n, reps, seed, *path):
    """(T_S, S) of replication i = 0..reps-1 on a fresh substream(seed, *path, i)."""
    outs = [run_test(sampler(substream(seed, *path, i), n), spec) for i in range(reps)]
    return np.array([o.t_s for o in outs]), np.array([o.s for o in outs])


@pytest.fixture(scope="module")
def deconv_spec():
    return deconvolution_spec(l_draws=20_000, grid_points=501)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_samplers_of_varying_draws_match_substream_loop(monkeypatch, block, deconv_spec):
    # the rejection sampler draws a data-dependent number of values, the
    # deconvolution null sampler two arrays and the noisy copies two;
    # each must see the stream a fresh substream would give it
    monkeypatch.setattr(montecarlo, "_BLOCK", block)
    reps, seed = 100, 13
    cal = null_distribution(deconv_spec, 80, MonteCarloConfig(replications=reps, seed=seed))
    t, s = reference_replications(deconv_spec, null_sampler(deconv_spec), 80, reps, seed, 0)
    assert np.array_equal(cal.statistics, np.sort(t))
    assert np.array_equal(cal.s_counts, np.bincount(s, minlength=len(cal.s_counts) + 1)[1:])
    cfg = MonteCarloConfig(replications=reps, seed=seed, n_grid=(40, 70))
    for spec, alt in (
        (uniformity_spec(), contamination_alternative({2: 0.4})),
        (independence_spec(), noisy_copy_pairs(1.0)),
    ):
        for gi, point in enumerate(power_curve(spec, alt, cfg).points):
            t_null, _ = reference_replications(spec, null_sampler(spec), point.n, reps, seed, gi, 0)
            crit = float(np.sort(t_null)[math.ceil(0.95 * reps) - 1])
            t_alt, _ = reference_replications(spec, alt.sampler, point.n, reps, seed, gi, 1)
            assert point.critical_value == crit
            assert point.rejection_rate == float(np.mean(t_alt > crit))


def test_information_blocks_built_once_per_spec(monkeypatch):
    # the Gaussian location family is invariant: Sigma is formed once per
    # spec, at the cap, not once per replication or per dimension
    dims = []

    def counting(family, beta, basis, k):
        dims.append(k)
        return information_blocks(family, beta, basis, k)

    information_blocks = catalog.information_blocks
    monkeypatch.setattr(catalog, "information_blocks", counting)
    spec = composite_spec()
    null_distribution(spec, 500, MonteCarloConfig(replications=2000, seed=7))
    assert dims == [spec.budget.cap]
    null_distribution(spec, 500, MonteCarloConfig(replications=100, seed=8))
    null_distribution(spec, 5000, MonteCarloConfig(replications=100, seed=8))
    assert dims == [spec.budget.cap]
    assert spec.budget.d(500) != spec.budget.d(5000)


@pytest.mark.parametrize("kind", ["composite", "deconvolution"])
def test_shared_covariance_is_gated_and_factored_once_per_run(monkeypatch, kind, deconv_spec):
    # four blocks of 64 rows share one Sigma: one eigvalsh and one
    # cholesky, both on the d x d matrix, before replication 0
    spec = composite_spec() if kind == "composite" else deconv_spec
    calls = []

    def counting(name, fn):
        def wrapped(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)

        return wrapped

    null_distribution(spec, 100, MonteCarloConfig(replications=100, seed=1))  # artifacts
    for name in ("eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    null_distribution(spec, 100, MonteCarloConfig(replications=200, seed=1))
    d = spec.budget.d(100)
    assert calls == [("eigvalsh", (d, d)), ("cholesky", (d, d))]


def test_artifact_failure_raises_before_any_draw(monkeypatch):
    # a singular shared Sigma fails while the test is prepared: untagged,
    # with its own type, and no sample is drawn
    family = ParametricFamily(
        name="uninformative",
        q=1,
        cdf=lambda x, beta: np.clip(x, 0.0, 1.0),
        logpdf=lambda x, beta: np.zeros_like(np.asarray(x, dtype=float)),
        fit=lambda data: np.zeros(data.shape[:-1] + (1,)),
        sampler=lambda rng, n, beta: rng.random(n),
        ppf=lambda p, beta: p,
        information=lambda beta, basis, k: (np.zeros((1, k)), np.zeros((1, 1))),
        invariant=True,
    )
    draws = []
    monkeypatch.setattr(montecarlo, "null_sampler", lambda spec: lambda rng, n: draws.append(n))
    with pytest.raises(SingularMatrixError, match="^Fisher information I_bb is singular"):
        null_distribution(composite_spec(family=family), 100, MonteCarloConfig(100, seed=0))
    assert draws == []


def test_power_requires_grid():
    with pytest.raises(ValueError, match="n_grid"):
        power_curve(
            uniformity_spec(),
            contamination_alternative({1: 0.2}),
            MonteCarloConfig(replications=200, seed=0),
        )


def test_replication_errors_carry_index():
    spec = uniformity_spec()
    bad = AlternativeSpec(
        name="leaves unit interval",
        sampler=lambda rng, n: rng.random(n) + 1.0,
        first_component=1,
    )
    cfg = MonteCarloConfig(replications=100, seed=0, n_grid=(50,))
    with pytest.raises(ValueError, match=r"replication \d+:"):
        power_curve(spec, bad, cfg)


def breaking_sampler(bad_draw=-1, broken=-1):
    """Uniform alternative: call ``bad_draw`` draws in [1, 2), call ``broken`` raises.

    Calls count from 0; a run makes one per replication, in order.
    """
    calls = []

    def sampler(rng, n):
        calls.append(n)
        if len(calls) == broken + 1:
            raise RuntimeError("sampler broke")
        return rng.random(n) + (len(calls) == bad_draw + 1)

    return AlternativeSpec(name="breaks", sampler=sampler, first_component=1)


def test_replication_error_names_exact_index_mid_block(monkeypatch):
    # the 38th draw is replication 37 of the alternative leg: mid-block
    # at 64 rows, its own block at 1 row
    spec = uniformity_spec()
    cfg = MonteCarloConfig(replications=100, seed=0, n_grid=(50,))
    for block in (1, 64):
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        with pytest.raises(ValueError, match=r"^replication 37: basis argument outside"):
            power_curve(spec, breaking_sampler(bad_draw=37), cfg)


def test_sampler_failures_keep_index_order(monkeypatch):
    # replication 5's sample fails its test before replication 9's
    # sampler raises, so 5 is reported, as a one-by-one run would
    def sampler(rng, n):
        draw = rng.random(n)
        calls.append(n)
        if len(calls) == 10:
            raise RuntimeError("sampler broke")
        return draw + (len(calls) == 6)

    spec = uniformity_spec()
    cfg = MonteCarloConfig(replications=100, seed=0, n_grid=(50,))
    alt = AlternativeSpec(name="breaks", sampler=sampler, first_component=1)
    calls = []
    with pytest.raises(ValueError, match=r"^replication 5: "):
        consistency_probe(spec, alt, cfg)
    calls = [None] * 6  # the bad draw is already past
    with pytest.raises(RuntimeError, match=r"^replication 3: sampler broke"):
        consistency_probe(spec, alt, cfg)


def test_block_failure_precedes_next_block_sampler_failure(monkeypatch):
    # at 4 rows a block, replication 5 is in block 1 and 9 in block 2,
    # which the helper draws while block 1 is tested: the lower index is
    # reported, whichever thread fails first
    monkeypatch.setattr(montecarlo, "_BLOCK", 4)
    spec = uniformity_spec()
    cfg = MonteCarloConfig(replications=100, seed=0, n_grid=(50,))
    with pytest.raises(ValueError, match=r"^replication 5: basis argument outside"):
        consistency_probe(spec, breaking_sampler(bad_draw=5, broken=9), cfg)
    with pytest.raises(RuntimeError, match=r"^replication 5: sampler broke"):
        consistency_probe(spec, breaking_sampler(bad_draw=9, broken=5), cfg)


def test_samplers_run_on_a_helper_joined_on_every_path(monkeypatch):
    before = set(threading.enumerate())
    drawers = []

    def drawing_on(alt):
        def sampler(rng, n):
            drawers.append(threading.current_thread())
            return alt.sampler(rng, n)

        return lambda spec: sampler

    spec, cfg = uniformity_spec(), MonteCarloConfig(replications=300, seed=1)
    monkeypatch.setattr(montecarlo, "null_sampler", drawing_on(breaking_sampler()))
    null_distribution(spec, 50, cfg)
    assert set(threading.enumerate()) == before
    assert len(drawers) == 300 and len(set(drawers)) == 1
    assert drawers[0] is not threading.current_thread()
    # a statistic failure in block 2 while block 3 is drawn, then a
    # sampler failure in block 2
    for alt, error in ((breaking_sampler(bad_draw=150), ValueError),
                       (breaking_sampler(broken=150), RuntimeError)):
        monkeypatch.setattr(montecarlo, "null_sampler", drawing_on(alt))
        with pytest.raises(error, match=r"^replication 150: "):
            null_distribution(spec, 50, cfg)
        assert set(threading.enumerate()) == before


def test_row_of_another_shape_is_tested_alone():
    # replication 70 does not fit the buffers the prepared test shaped, so
    # drawing it fails and replications 64 to 69 are tested before it
    calls = []

    def sampler(rng, n):
        calls.append(n)
        return rng.random(n) if len(calls) == 71 else rng.random((n, 2))

    alt = AlternativeSpec(name="one column short", sampler=sampler, first_component=1)
    cfg = MonteCarloConfig(replications=100, seed=0, n_grid=(50,))
    with pytest.raises(
        ValueError, match=r"^replication 70: sampler drew shape \(50,\) for n=50; the test takes \(50, 2\)"
    ):
        consistency_probe(independence_spec(), alt, cfg)


def counting_blocks(sizes):
    """A stand-in for catalog._prepare whose test records each block's rows."""

    def prepare(spec, n):
        shape, test = catalog._prepare(spec, n)

        def counting(block):
            sizes.append(len(block))
            return test(block)

        return shape, counting

    return prepare


def test_runs_longer_than_a_key_call_match_substream_loop(monkeypatch):
    # no block spans two key-derivation calls, so at 40 keys a call and
    # 16 rows a block every third block is short and the two buffers are
    # filled to varying lengths
    monkeypatch.setattr(_rng, "_KEYS_PER_CALL", 40)
    monkeypatch.setattr(montecarlo, "_BLOCK", 16)
    sizes = []
    monkeypatch.setattr(montecarlo, "_prepare", counting_blocks(sizes))
    spec, reps, seed = uniformity_spec(), 130, 21
    cal = null_distribution(spec, 60, MonteCarloConfig(replications=reps, seed=seed))
    assert sizes == [16, 16, 8] * 3 + [10]
    t, s = reference_replications(spec, null_sampler(spec), 60, reps, seed, 0)
    assert np.array_equal(cal.statistics, np.sort(t))
    assert np.array_equal(cal.s_counts, np.bincount(s, minlength=len(cal.s_counts) + 1)[1:])


def test_concurrent_calibrations_match_serial(monkeypatch):
    # three calling threads, each with its helper, on two cores, with the
    # interpreter switching threads every microsecond
    monkeypatch.setattr(montecarlo, "_BLOCK", 7)
    spec = independence_spec()
    cfgs = [MonteCarloConfig(replications=150, seed=seed) for seed in range(3)]
    serial = [null_distribution(spec, 40, cfg).statistics for cfg in cfgs]
    got = [None] * len(cfgs)

    def run(j):
        got[j] = null_distribution(spec, 40, cfgs[j]).statistics

    threads = [threading.Thread(target=run, args=(j,)) for j in range(len(cfgs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(np.array_equal(a, b) for a, b in zip(got, serial))


def test_block_rows_shrink_at_large_n(monkeypatch):
    # a block holds at most _BLOCK_OBS observations, so its memory does
    # not grow with n; the numbers are those of one-row blocks
    sizes = []
    spec, cfg = uniformity_spec(), MonteCarloConfig(replications=100, seed=2)
    monkeypatch.setattr(montecarlo, "_prepare", counting_blocks(sizes))
    big = null_distribution(spec, 20_000, cfg)
    assert sizes == [1] * 100
    sizes.clear()
    monkeypatch.setattr(montecarlo, "_BLOCK_OBS", 2**16)
    assert np.array_equal(null_distribution(spec, 20_000, cfg).statistics, big.statistics)
    assert sizes == [3] * 33 + [1]


@pytest.mark.parametrize("study", ["probe", "power"])
def test_penalty_table_gap_raises_before_any_draw(monkeypatch, study):
    # the schedule is evaluated at (1..d, n) when the test is prepared, so
    # a table without an entry fails untagged, and nothing is drawn
    calls = []

    def sampler(rng, n):
        calls.append(n)
        return rng.random(n)

    monkeypatch.setattr(montecarlo, "null_sampler", lambda spec: sampler)
    spec = uniformity_spec(penalty=table_schedule({(1, 100): 4.6}))
    alt = AlternativeSpec(name="uniform", sampler=sampler, first_component=1)
    cfg = MonteCarloConfig(replications=100, seed=0, n_grid=(100,))
    run = consistency_probe if study == "probe" else power_curve
    with pytest.raises(KeyError) as e:
        run(spec, alt, cfg)
    assert e.value.args == ("penalty table has no entry for (k=2, n=100)",)
    assert calls == []


def test_sampler_must_draw_n_observations():
    spec = uniformity_spec()
    alt = AlternativeSpec(name="short", sampler=lambda rng, n: rng.random(n - 1))
    cfg = MonteCarloConfig(replications=100, seed=0, n_grid=(50,))
    with pytest.raises(ValueError, match=r"^replication 0: sampler drew shape \(49,\) for n=50"):
        power_curve(spec, alt, cfg)


# ---------------------------------------------------------------------------
# consistency probe


def test_consistency_probe_passes_for_growing_sample():
    spec = uniformity_spec()
    alt = contamination_alternative({2: 0.25})
    cfg = MonteCarloConfig(replications=300, seed=4, n_grid=(100, 400, 1600))
    probe = consistency_probe(spec, alt, cfg, threshold=0.8)
    assert probe.name == "consistency"
    assert probe.passed, probe.detail
    p_track = [row.values["p_s_ge_k"] for row in probe.rows]
    assert p_track[-1] >= 0.8
    med = [row.values["median_t_s"] for row in probe.rows]
    assert med[-1] > med[0]


def test_consistency_probe_requires_component():
    anon = AlternativeSpec(name="anon", sampler=lambda rng, n: rng.random(n))
    with pytest.raises(ValueError, match="component"):
        consistency_probe(
            uniformity_spec(),
            anon,
            MonteCarloConfig(replications=100, seed=0, n_grid=(50, 100)),
        )


def test_consistency_probe_as_dict():
    spec = uniformity_spec()
    alt = contamination_alternative({1: 0.3})
    cfg = MonteCarloConfig(replications=150, seed=6, n_grid=(200, 800))
    d = consistency_probe(spec, alt, cfg).as_dict()
    assert d["probe"] == "consistency"
    assert isinstance(d["passed"], bool)
    assert [row["n"] for row in d["rows"]] == [200, 800]


# ---------------------------------------------------------------------------
# tail-rate probe


def rademacher(rng, n):
    return 2.0 * rng.integers(0, 2, n) - 1.0


def test_tail_rate_halving_for_bounded_means():
    probe = tail_rate_probe(
        rademacher,
        mean=0.0,
        sigma=1.0,
        y=0.5,
        n_grid=(16, 32, 64),
        replications=20_000,
        seed=0,
    )
    assert probe.passed, probe.detail
    tails = [row.values["tail"] for row in probe.rows]
    # P(|mean_16| >= 1/2) = 2 P(Bin(16, 1/2) >= 12) = 2517/32768
    assert tails[0] == pytest.approx(2517.0 / 32768.0, abs=0.006)
    refs = [row.values["reference_rate"] for row in probe.rows]
    assert refs[0] == pytest.approx(math.exp(-16 * 0.25 / 2.0))


def test_tail_rate_zero_threshold_never_decays():
    probe = tail_rate_probe(
        rademacher,
        mean=0.0,
        sigma=1.0,
        y=0.0,
        n_grid=(16, 32),
        replications=200,
        seed=0,
    )
    assert not probe.passed
    assert all(row.values["tail"] == 1.0 for row in probe.rows)


def test_tail_rate_repeatable():
    kwargs = dict(
        mean=0.0, sigma=1.0, y=0.5, n_grid=(16, 32), replications=500, seed=3
    )
    a, b = (tail_rate_probe(rademacher, **kwargs).as_dict() for _ in range(2))
    assert a == b


def test_tail_rate_tails_match_substream_loop():
    ns, reps, seed = (16, 32), 300, 2**33 + 1
    probe = tail_rate_probe(rademacher, 0.0, 1.0, 0.5, ns, reps, seed)
    for gi, (n, row) in enumerate(zip(ns, probe.rows)):
        hits = [
            abs(float(rademacher(substream(seed, gi, i), n).mean())) >= 0.5 for i in range(reps)
        ]
        assert row.values["tail"] == float(np.mean(hits))


def test_tail_rate_validation():
    with pytest.raises(ValueError):
        tail_rate_probe(rademacher, 0.0, 1.0, 0.5, n_grid=(16,), replications=200, seed=0)
    with pytest.raises(ValueError):
        tail_rate_probe(rademacher, 0.0, 1.0, 0.5, n_grid=(16, 32), replications=50, seed=0)
    with pytest.raises(ValueError):
        tail_rate_probe(rademacher, 0.0, -1.0, 0.5, n_grid=(16, 32), replications=200, seed=0)
    # a size of 0 used to average empty samples and report a tail of 0
    with pytest.raises(ValueError, match=r"n_grid sizes must be >= 1, got \[0, 16\]"):
        tail_rate_probe(rademacher, 0.0, 1.0, 0.5, n_grid=(0, 16), replications=200, seed=0)


# ---------------------------------------------------------------------------
# substreams


def test_substream_paths_are_disjoint():
    a = substream(0, 1, 0, 5).random(4)
    b = substream(0, 1, 1, 5).random(4)
    c = substream(0, 1, 0, 5).random(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
