"""Simulated reference distributions, power curves, and probes."""

import dataclasses
import math
import os
import signal
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
from ntgof.selection import PenaltySchedule, table_schedule
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
    # 200.0 used to fail in NumPy at the first block, and 100.7 was truncated
    with pytest.raises(ValueError, match=r"^replications must be an integer >= 100, got 200.0$"):
        MonteCarloConfig(replications=200.0, seed=0)
    with pytest.raises(ValueError, match=r"^n_grid sizes must be integers, got \[100.7, 200\]$"):
        MonteCarloConfig(replications=200, seed=0, n_grid=(100.7, 200))
    assert MonteCarloConfig(replications=200, seed=0, n_grid=(np.int64(100),)).n_grid == (100,)


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
    d = dataclasses.asdict(cal)
    assert set(d) == {
        "n", "alpha", "replications", "seed", "critical_value", "statistics", "s_counts"
    }


def test_critical_value_index_is_exact():
    # in floats, (1 - 0.059) * 1000 is 941.0000000000001, whose ceiling
    # was the 942nd order statistic
    cal = null_distribution(uniformity_spec(), 50, MonteCarloConfig(1000, 1, alpha=0.059))
    assert cal.critical_value == cal.statistics[940] != cal.statistics[941]
    # every (alpha, R) the float product rounds past an integer, alpha in
    # 0.001..0.499 and R in 100..10000; alpha = a / 1000 exactly
    a = np.arange(1, 500)[:, None]
    reps = np.arange(100, 10_001)[None, :]
    exact = -((a - 1000) * reps // 1000)
    off = np.ceil((1.0 - a / 1000) * reps) != exact
    assert off.sum() > 2000 and not off[a[:, 0] == 50, reps[0] == 2000].any()
    for ai, ri in zip(*np.nonzero(off)):
        assert montecarlo._order_index(float(a[ai, 0]) / 1000, int(reps[0, ri])) == exact[ai, ri]
    for alpha, r, k in [(1e-05, 200_000, 199_998), (1.5e-05, 10**6, 999_985), (0.5, 101, 51)]:
        assert montecarlo._order_index(np.float64(alpha), r) == k


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
    # a float n used to fail in NumPy with a TypeError
    with pytest.raises(ValueError, match=r"^sample size n must be an integer >= 2, got 50.0$"):
        null_distribution(uniformity_spec(), 50.0, MonteCarloConfig(replications=200, seed=0))


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
    d = dataclasses.asdict(curve)
    assert [row["n"] for row in d["points"]] == [50, 200, 800]


def test_power_deterministic_across_blocks(monkeypatch):
    spec = independence_spec()
    alt = noisy_copy_pairs(1.0)
    cfg = MonteCarloConfig(replications=200, seed=9, alpha=0.05, n_grid=(60,))
    a, *rest = run_at_blocks(monkeypatch, lambda: dataclasses.asdict(power_curve(spec, alt, cfg)))
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
    # spec, at the cap, when the spec is made, not once per replication
    # or per dimension
    dims = []

    def counting(family, beta, basis, k):
        dims.append(k)
        return information_blocks(family, beta, basis, k)

    information_blocks = catalog.information_blocks
    monkeypatch.setattr(catalog, "information_blocks", counting)
    spec = composite_spec()
    assert dims == [spec.budget.cap]
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
    # a power curve prepares each grid size once, for both of its legs
    calls.clear()
    cfg = MonteCarloConfig(replications=100, seed=1, n_grid=(100, 300))
    power_curve(spec, AlternativeSpec("null", null_sampler(spec)), cfg)
    dims = [spec.budget.d(n) for n in cfg.n_grid]
    assert dims == [3, 4]
    assert calls == [(name, (d, d)) for d in dims for name in ("eigvalsh", "cholesky")]


def test_artifact_failure_raises_before_any_draw(monkeypatch):
    # a singular shared Sigma fails while the spec is made: untagged,
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


def key_of(seed, path, i):
    """The Philox key of replication i on the streams (seed, *path, .)."""
    return _rng._philox_keys(seed, path, [i])[0].tolist()


def key_at(rng):
    """The Philox key ``rng`` draws from; reading it draws nothing."""
    return rng.bit_generator.state["state"]["key"].tolist()


def breaking_sampler(seed, path, bad=(), broken=()):
    """Uniform alternative on the streams (seed, *path, .).

    Replications in ``bad`` draw in [1, 2) and those in ``broken``
    raise.  Each is known by its Philox key, so it fails in whichever
    process draws it.
    """
    bad = [key_of(seed, path, i) for i in bad]
    broken = [key_of(seed, path, i) for i in broken]

    def sampler(rng, n):
        if key_at(rng) in broken:
            raise RuntimeError("sampler broke")
        return rng.random(n) + (key_at(rng) in bad)

    return AlternativeSpec(name="breaks", sampler=sampler, first_component=1)


def test_replication_error_names_exact_index_mid_block(monkeypatch):
    # replication 37 of the alternative leg: mid-block at 64 rows, its
    # own block at 1 row
    spec = uniformity_spec()
    cfg = MonteCarloConfig(replications=100, seed=0, n_grid=(50,))
    for block in (1, 64):
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
        with pytest.raises(ValueError, match=r"^replication 37: basis argument outside"):
            power_curve(spec, breaking_sampler(0, (0, 1), bad=[37]), cfg)


def test_sampler_failures_keep_index_order():
    # replication 5's sample fails its test before replication 9's
    # sampler raises, both in block 0, so 5 is reported, as a one-by-one
    # run would
    spec = uniformity_spec()
    cfg = MonteCarloConfig(replications=100, seed=0, n_grid=(50,))
    with pytest.raises(ValueError, match=r"^replication 5: "):
        consistency_probe(spec, breaking_sampler(0, (0, 1), bad=[5], broken=[9]), cfg)
    with pytest.raises(RuntimeError, match=r"^replication 3: sampler broke"):
        consistency_probe(spec, breaking_sampler(0, (0, 1), broken=[3, 9]), cfg)


def test_block_failure_precedes_next_block_sampler_failure(monkeypatch):
    # at 4 rows a block, replications 1 and 9 are in blocks 0 and 2, which
    # the calling process runs, and 5 in block 1, which the worker runs
    # meanwhile: the lower index is reported, whichever process fails first
    monkeypatch.setattr(montecarlo, "_BLOCK", 4)
    spec = uniformity_spec()
    cfg = MonteCarloConfig(replications=100, seed=0, n_grid=(50,))
    for bad, broken, error, first in [
        (5, 9, ValueError, 5),
        (9, 5, RuntimeError, 5),
        (1, 5, ValueError, 1),
        (9, 1, RuntimeError, 1),
    ]:
        with pytest.raises(error, match=rf"^replication {first}: "):
            consistency_probe(spec, breaking_sampler(0, (0, 1), [bad], [broken]), cfg)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def recording_pids(log, alt):
    """A null_sampler stand-in that logs each draw's process id to the file ``log``."""

    def sampler(rng, n):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return alt.sampler(rng, n)

    return lambda spec: sampler


def test_worker_is_reaped_on_every_path(monkeypatch, tmp_path):
    # 300 replications are 5 blocks: this process draws blocks 0, 2 and 4,
    # a forked worker blocks 1 and 3, and no child outlives the run
    log = tmp_path / "pids"
    spec, cfg = uniformity_spec(), MonteCarloConfig(replications=300, seed=1)
    monkeypatch.setattr(montecarlo, "null_sampler", recording_pids(log, breaking_sampler(1, (0,))))
    want = null_distribution(spec, 50, cfg)
    assert no_child_left()
    pids = log.read_text().split()
    assert len(pids) == 300 and pids.count(str(os.getpid())) == 64 * 3 - 20
    assert len(set(pids)) == 2
    monkeypatch.undo()
    assert np.array_equal(null_distribution(spec, 50, cfg).statistics, want.statistics)
    # a statistic failure, then a sampler failure, in this process's block 2
    # while the worker draws block 3, then each in the worker's block 3
    for i in (150, 200):
        for alt, error in ((breaking_sampler(1, (0,), bad=[i]), ValueError),
                           (breaking_sampler(1, (0,), broken=[i]), RuntimeError)):
            monkeypatch.setattr(montecarlo, "null_sampler", lambda spec: alt.sampler)
            with pytest.raises(error, match=rf"^replication {i}: "):
                null_distribution(spec, 50, cfg)
            assert no_child_left()


def test_worker_is_reaped_with_sigchld_ignored():
    # with SIGCHLD ignored the kernel reaps the worker when it exits, and
    # waitpid then fails with ECHILD
    spec, cfg = uniformity_spec(), MonteCarloConfig(replications=200, seed=4)
    want = null_distribution(spec, 50, cfg)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        got = null_distribution(spec, 50, cfg)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert np.array_equal(got.statistics, want.statistics)


def reference_calibration(spec, n, reps, seed):
    t, s = reference_replications(spec, null_sampler(spec), n, reps, seed, 0)
    return np.sort(t), s


def same_calibration(cal, ref):
    t, s = ref
    return np.array_equal(cal.statistics, t) and np.array_equal(
        cal.s_counts, np.bincount(s, minlength=len(cal.s_counts) + 1)[1:]
    )


def test_blocks_of_a_dead_worker_run_in_the_caller(monkeypatch):
    # the worker kills itself at its first draw, so it finishes no block;
    # this process runs blocks 1 and 3 after its own
    spec, reps, seed, caller = independence_spec(), 250, 3, os.getpid()
    draw = null_sampler(spec)

    def sampler(rng, n):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return draw(rng, n)

    monkeypatch.setattr(montecarlo, "null_sampler", lambda spec: sampler)
    cal = null_distribution(spec, 40, MonteCarloConfig(replications=reps, seed=seed))
    assert no_child_left()
    assert same_calibration(cal, reference_calibration(spec, 40, reps, seed))


def refuse_to_fork():
    raise OSError("fork refused")


@pytest.mark.parametrize("why", ["thread alive", "no fork", "fork fails"])
def test_run_in_one_process_gives_the_same_bits(monkeypatch, why):
    # a process with another thread alive does not fork, nor one whose
    # fork is missing or raises: every draw is this process's
    spec, reps, seed = uniformity_spec(), 200, 6
    forked = null_distribution(spec, 60, MonteCarloConfig(replications=reps, seed=seed))
    pids = []
    draw = null_sampler(spec)

    def sampler(rng, n):
        pids.append(os.getpid())
        return draw(rng, n)

    monkeypatch.setattr(montecarlo, "null_sampler", lambda spec: sampler)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if why == "thread alive":
        other.start()
    elif why == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", refuse_to_fork)
    try:
        cal = null_distribution(spec, 60, MonteCarloConfig(replications=reps, seed=seed))
    finally:
        release.set()
        if other.is_alive():
            other.join()
    assert pids == [os.getpid()] * reps
    assert np.array_equal(cal.statistics, forked.statistics)
    assert np.array_equal(cal.s_counts, forked.s_counts)


def test_row_of_another_shape_is_tested_alone():
    # replication 70, in the worker's block 1, does not fit the buffer the
    # prepared test shaped, so drawing it fails and replications 64 to 69
    # are tested before it
    short = key_of(0, (0, 1), 70)

    def sampler(rng, n):
        return rng.random(n) if key_at(rng) == short else rng.random((n, 2))

    alt = AlternativeSpec(name="one column short", sampler=sampler, first_component=1)
    cfg = MonteCarloConfig(replications=100, seed=0, n_grid=(50,))
    with pytest.raises(
        ValueError, match=r"^replication 70: sampler drew shape \(50,\) for n=50; the test takes \(50, 2\)"
    ):
        consistency_probe(independence_spec(), alt, cfg)


def counting_blocks(log):
    """A stand-in for catalog._prepare whose plan's test logs each block's rows to ``log``.

    Each process appends to the file, so the sizes of both processes'
    blocks are there, in no set order.
    """

    def prepare(spec, n):
        plan = catalog._prepare(spec, n)

        def counting(block):
            with open(log, "a") as fh:
                fh.write(f"{len(block)}\n")
            return plan.test(block)

        return dataclasses.replace(plan, test=counting)

    return prepare


def logged_sizes(log):
    sizes = sorted(int(size) for size in log.read_text().split())
    log.unlink()
    return sizes


def test_runs_longer_than_a_key_call_match_substream_loop(monkeypatch, tmp_path):
    # at 40 keys a call and 16 rows a block, each process derives its
    # blocks' keys two blocks a call: three calls here, two in the worker
    monkeypatch.setattr(_rng, "_KEYS_PER_CALL", 40)
    monkeypatch.setattr(montecarlo, "_BLOCK", 16)
    log = tmp_path / "sizes"
    monkeypatch.setattr(montecarlo, "_prepare", counting_blocks(log))
    spec, reps, seed = uniformity_spec(), 130, 21
    cal = null_distribution(spec, 60, MonteCarloConfig(replications=reps, seed=seed))
    assert logged_sizes(log) == [2] + [16] * 8
    assert same_calibration(cal, reference_calibration(spec, 60, reps, seed))


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


def test_block_rows_shrink_at_large_n(monkeypatch, tmp_path):
    # a block holds at most _BLOCK_OBS observations, so its memory does
    # not grow with n; the numbers are those of one-row blocks
    log = tmp_path / "sizes"
    spec, cfg = uniformity_spec(), MonteCarloConfig(replications=100, seed=2)
    monkeypatch.setattr(montecarlo, "_prepare", counting_blocks(log))
    big = null_distribution(spec, 20_000, cfg)
    assert logged_sizes(log) == [1] * 100
    monkeypatch.setattr(montecarlo, "_BLOCK_OBS", 2**16)
    assert np.array_equal(null_distribution(spec, 20_000, cfg).statistics, big.statistics)
    assert logged_sizes(log) == [1] + [3] * 33


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


@pytest.mark.parametrize("study", ["run_test", "calibrate", "power", "probe"])
def test_penalty_is_evaluated_once_per_sample_size(study):
    # pi(1..d, n) is worked out when the plan is prepared; the observed
    # test, the calibration and both power legs read that one vector
    calls = []

    def pi(k, n):
        calls.append((k, n))
        return k * math.log(n)

    spec = uniformity_spec(penalty=PenaltySchedule("counting", pi))
    alt = contamination_alternative({1: 0.3})
    cfg = MonteCarloConfig(replications=100, seed=0, n_grid=(100, 500))
    if study == "run_test":
        run_test(np.random.default_rng(0).random(500), spec)
    elif study == "calibrate":
        null_distribution(spec, 500, cfg)
    elif study == "power":
        power_curve(spec, alt, cfg)
    else:
        consistency_probe(spec, alt, cfg)
    sizes = cfg.n_grid if study in ("power", "probe") else (500,)
    assert [spec.budget.d(n) for n in sizes][-1] == 4
    assert calls == [(k, n) for n in sizes for k in range(1, spec.budget.d(n) + 1)]


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
    assert probe.probe == "consistency"
    assert probe.passed, probe.detail
    p_track = [row["p_s_ge_k"] for row in probe.rows]
    assert p_track[-1] >= 0.8
    med = [row["median_t_s"] for row in probe.rows]
    assert med[-1] > med[0]


def test_consistency_probe_requires_component():
    anon = AlternativeSpec(name="anon", sampler=lambda rng, n: rng.random(n))
    with pytest.raises(ValueError, match="component"):
        consistency_probe(
            uniformity_spec(),
            anon,
            MonteCarloConfig(replications=100, seed=0, n_grid=(50, 100)),
        )


@pytest.mark.parametrize("k", [0, 2.5])
def test_first_component_is_an_integer_from_one(k):
    # at K = 0 the null sample passed the uniformity probe, P(S >= 0) = 1
    with pytest.raises(ValueError, match=r"^first_component must be None or an integer >= 1"):
        AlternativeSpec(name="x", sampler=lambda rng, n: rng.random(n), first_component=k)


@pytest.mark.parametrize("threshold", [math.nan, -1.0, 0.0, 1.5])
def test_consistency_probe_threshold_lies_in_unit_interval(threshold):
    # NaN could never pass, and a threshold of -1 always did
    with pytest.raises(ValueError, match=r"^threshold must lie in \(0, 1\], got "):
        consistency_probe(
            uniformity_spec(),
            contamination_alternative({1: 0.3}),
            MonteCarloConfig(replications=100, seed=0, n_grid=(50, 100)),
            threshold=threshold,
        )


def test_consistency_probe_as_dict():
    spec = uniformity_spec()
    alt = contamination_alternative({1: 0.3})
    cfg = MonteCarloConfig(replications=150, seed=6, n_grid=(200, 800))
    d = dataclasses.asdict(consistency_probe(spec, alt, cfg))
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
    tails = [row["tail"] for row in probe.rows]
    # P(|mean_16| >= 1/2) = 2 P(Bin(16, 1/2) >= 12) = 2517/32768
    assert tails[0] == pytest.approx(2517.0 / 32768.0, abs=0.006)
    refs = [row["reference_rate"] for row in probe.rows]
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
    assert all(row["tail"] == 1.0 for row in probe.rows)


def test_tail_rate_repeatable():
    kwargs = dict(
        mean=0.0, sigma=1.0, y=0.5, n_grid=(16, 32), replications=500, seed=3
    )
    a, b = (dataclasses.asdict(tail_rate_probe(rademacher, **kwargs)) for _ in range(2))
    assert a == b


def test_tail_rate_tails_match_substream_loop():
    ns, reps, seed = (16, 32), 300, 2**33 + 1
    probe = tail_rate_probe(rademacher, 0.0, 1.0, 0.5, ns, reps, seed)
    for gi, (n, row) in enumerate(zip(ns, probe.rows)):
        hits = [
            abs(float(rademacher(substream(seed, gi, i), n).mean())) >= 0.5 for i in range(reps)
        ]
        assert row["tail"] == float(np.mean(hits))


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
    # a factor of 0 used to divide by zero, and -2 passed trivially
    for factor in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^factor must be finite and > 0, got "):
            tail_rate_probe(rademacher, 0.0, 1.0, 0.5, (16, 32), 200, 0, factor=factor)
    # 200.0 stopped in a TypeError, 16.5 ran at n = 16, a NaN y or mean
    # passed trivially (every tail read 0), an infinite sigma reported a
    # reference rate of 1, and a short draw was averaged; a seed of 1.5
    # stopped in a TypeError and -1 did not name the seed
    bad = [
        (dict(replications=200.0), r"^replications must be an integer >= 100, got 200.0$"),
        (dict(seed=1.5), r"^seed must be a non-negative integer, got 1.5$"),
        (dict(seed=-1), r"^seed must be a non-negative integer, got -1$"),
        (dict(n_grid=(16.5, 32)), r"^n_grid sizes must be integers, got \[16.5, 32\]$"),
        (dict(mean=math.nan), r"^mean must be finite, got nan$"),
        (dict(y=math.nan), r"^y must be finite and >= 0, got nan$"),
        (dict(y=math.inf), r"^y must be finite and >= 0, got inf$"),
        (dict(y=-0.5), r"^y must be finite and >= 0, got -0.5$"),
        (dict(sigma=math.inf), r"^sigma must be finite and > 0, got inf$"),
        (dict(sigma=0.0), r"^sigma must be finite and > 0, got 0.0$"),
        (dict(draw=lambda rng, n: rademacher(rng, n - 3)),
         r"^replication 0: sampler drew shape \(13,\) for n=16; the test takes \(16,\)$"),
        (dict(draw=lambda rng, n: rademacher(rng, 2 * n).reshape(n, 2)),
         r"^replication 0: sampler drew shape \(16, 2\) for n=16; the test takes \(16,\)$"),
    ]
    good = dict(
        draw=rademacher, mean=0.0, sigma=1.0, y=0.5, n_grid=(16, 32), replications=200, seed=0
    )
    for change, message in bad:
        with pytest.raises(ValueError, match=message):
            tail_rate_probe(**{**good, **change})
    # NumPy integers are integers
    probe = tail_rate_probe(rademacher, 0.0, 1.0, 0.5, (np.int64(16), 32), np.int64(100), 0)
    assert [row["n"] for row in probe.rows] == [16, 32]


def test_tail_rate_failing_draws_name_their_replication():
    # a NaN mean used to count as outside the tail, so every tail read 0
    # and the probe passed
    with pytest.raises(ValueError, match=r"^replication 0: series contains non-finite values$"):
        tail_rate_probe(lambda rng, m: np.full(m, np.nan), 0.0, 1.0, 0.5, (16, 32), 200, 0)
    # replications 70 and 130 of the second size, in blocks the worker
    # and the caller run
    nan, short = key_of(0, (1,), 70), key_of(0, (1,), 130)

    def breaking(rng, n):
        x = rademacher(rng, n)
        if key_at(rng) == nan:
            x[3] = np.nan
        return x[:-1] if key_at(rng) == short else x

    with pytest.raises(ValueError, match=r"^replication 70: series contains non-finite values$"):
        tail_rate_probe(breaking, 0.0, 1.0, 0.5, (16, 32), 200, 0)
    nan = None  # the short draw alone
    shape = r"^replication 130: sampler drew shape \(31,\) for n=32; the test takes \(32,\)$"
    with pytest.raises(ValueError, match=shape):
        tail_rate_probe(breaking, 0.0, 1.0, 0.5, (16, 32), 200, 0)


def test_tail_rate_in_one_process_gives_the_same_tails(monkeypatch):
    args = (rademacher, 0.0, 1.0, 0.5, (16, 32, 64), 300, 5)
    forked = tail_rate_probe(*args)
    pids = []

    def draw(rng, n):
        pids.append(os.getpid())
        return rademacher(rng, n)

    monkeypatch.setattr(os, "fork", refuse_to_fork)
    alone = tail_rate_probe(draw, *args[1:])
    assert pids == [os.getpid()] * 900
    assert dataclasses.asdict(alone) == dataclasses.asdict(forked)


def test_every_entry_point_replicates_on_the_block_engine(monkeypatch):
    # one way to run replications: each entry point's draws go through
    # _replicate, once per leg and grid size
    calls = []
    replicate = montecarlo._replicate

    def counting(plan, sampler, reps, seed, path):
        calls.append(path)
        return replicate(plan, sampler, reps, seed, path)

    monkeypatch.setattr(montecarlo, "_replicate", counting)
    spec = uniformity_spec()
    cfg = MonteCarloConfig(replications=100, seed=0, n_grid=(40, 80))
    alt = contamination_alternative({1: 0.3})
    null_distribution(spec, 40, cfg)
    assert calls == [(0,)]
    power_curve(spec, alt, cfg)
    assert calls[1:] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    consistency_probe(spec, alt, cfg)
    assert calls[5:] == [(0, 1), (1, 1)]
    tail_rate_probe(rademacher, 0.0, 1.0, 0.5, (16, 32), 100, 0)
    assert calls[7:] == [(0,), (1,)]


# ---------------------------------------------------------------------------
# substreams


def test_substream_paths_are_disjoint():
    a = substream(0, 1, 0, 5).random(4)
    b = substream(0, 1, 1, 5).random(4)
    c = substream(0, 1, 0, 5).random(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
