"""Block tests reuse one run's work buffers and hand out none of them."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from _reference import substream
from ntgof import montecarlo
from ntgof.basis import _Workspace, design_matrix, eval_basis, legendre_basis
from ntgof.catalog import (
    AlternativeSpec,
    _prepare,
    composite_spec,
    deconvolution_spec,
    gaussian_location_family,
    independence_spec,
    null_sampler,
    uniformity_spec,
)
from ntgof.errors import NumericError
from ntgof.montecarlo import MonteCarloConfig, consistency_probe
from ntgof._rng import _philox_keys

SPECS = {
    "uniformity": uniformity_spec,
    "composite": composite_spec,
    "deconvolution": deconvolution_spec,
    "independence": independence_spec,
}


def null_blocks(spec, n, rows, seeds):
    """One (rows, *shape) null block per seed, row i from the stream (seed, i)."""
    sampler = null_sampler(spec)
    return [np.array([sampler(substream(seed, i), n) for i in range(rows)]) for seed in seeds]


def test_workspace_grows_and_hands_out_leading_entries():
    work = _Workspace()
    a = work.get("a", (4, 5))
    assert a.shape == (4, 5) and a.dtype == float and a.flags.c_contiguous
    a[...] = 1.0
    row = work.get("a", (1, 5))
    assert np.shares_memory(row, a) and np.all(row == 1.0)
    bigger = work.get("a", (6, 5))
    assert bigger.shape == (6, 5) and not np.shares_memory(bigger, a)
    assert work.get("a", ()).shape == ()
    # a name holds one buffer per dtype
    i = work.get("a", (6, 5), np.intp)
    assert i.dtype == np.intp and not np.shares_memory(i, bigger)


# A (64, 500) block plane: 32,000 floats.
PLANE = 64 * 500 * 8

# The largest transient a warm block test may allocate, per kind.  The
# composite family's cdf returns one fresh plane, and NumPy's broadcasting
# subtraction in it buffers 64 KiB; the independence ranks' argsort and
# ordered values are two more.
PEAKS = {
    "uniformity": PLANE - 1,
    "deconvolution": PLANE - 1,
    "composite": PLANE + 96 * 1024,
    "independence": 3 * PLANE,
}


@pytest.mark.parametrize("kind", SPECS)
def test_warm_block_test_makes_no_block_sized_temporaries(kind):
    spec = SPECS[kind]()
    plan = _prepare(spec, 500)
    first, second = null_blocks(spec, 500, 64, (1, 2))
    plan.test(first)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        plan.test(second)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= PEAKS[kind], (kind, peak)


@pytest.mark.parametrize("kind", SPECS)
def test_outcomes_do_not_alias_the_workspace(kind):
    spec = SPECS[kind]()
    plan = _prepare(spec, 80)
    first, second = null_blocks(spec, 80, 16, (3, 4))
    # the series a test returns is its own: later blocks leave it as it was
    series = plan.test(first)
    kept = series.copy()
    plan.test(second)
    plan.test(second[:1])
    assert np.array_equal(series, kept)


@pytest.mark.parametrize("kind", SPECS)
def test_two_plans_of_one_spec_used_alternately(kind):
    spec = SPECS[kind]()
    blocks = null_blocks(spec, 60, 8, range(6))
    lone = _prepare(spec, 60)
    alone = [lone.test(b).copy() for b in blocks]
    one, two = _prepare(spec, 60), _prepare(spec, 60)
    mixed = [(one if i % 2 else two).test(b).copy() for i, b in enumerate(blocks)]
    assert all(np.array_equal(a, b) for a, b in zip(alone, mixed))


def test_basis_results_are_not_reused():
    basis = legendre_basis(12)
    x = np.random.default_rng(5).random((3, 40))
    dm, ev = design_matrix(basis, x, 12), eval_basis(basis, 7, x)
    dm_copy, ev_copy = dm.copy(), ev.copy()
    design_matrix(basis, x[::-1], 12)
    eval_basis(basis, 7, 1.0 - x)
    eval_basis(basis, 3, x)
    assert np.array_equal(dm, dm_copy) and np.array_equal(ev, ev_copy)


def nan_above(threshold):
    """The Gaussian location family with a cdf that is NaN above ``threshold``."""
    family = gaussian_location_family()
    cdf = family.cdf
    return dataclasses.replace(
        family, cdf=lambda x, beta: np.where(x > threshold, np.nan, cdf(x, beta))
    )


@pytest.mark.parametrize(
    "spec, error, match",
    [
        (uniformity_spec(), ValueError, "basis argument outside"),
        (deconvolution_spec(), NumericError, "more than 8 noise scales"),
        (composite_spec(family=nan_above(50.0)), ValueError, "non-finite values"),
    ],
)
def test_failing_block_retest_tags_lowest_replication(spec, error, match):
    # replications 70 and 66 fail, in block 1; the calling process runs it
    # again after its blocks 0 and 2 warmed its workspace, and retests each
    # row alone in that workspace
    bad = [_philox_keys(0, (0, 1), [i])[0].tolist() for i in (66, 70)]

    def sampler(rng, n):
        x = null_sampler(spec)(rng, n)
        if rng.bit_generator.state["state"]["key"].tolist() in bad:
            x[n // 2] = 100.0
        return x

    alt = AlternativeSpec(name="breaks", sampler=sampler, first_component=1)
    cfg = MonteCarloConfig(replications=200, seed=0, n_grid=(50,))
    assert montecarlo._BLOCK == 64
    with pytest.raises(error, match=rf"^replication 66: .*{match}"):
        consistency_probe(spec, alt, cfg)
