"""Penalized dimension selection and penalty-contract validation."""

import math

import numpy as np
import pytest

from ntgof.selection import (
    DimensionBudget,
    ProperWeightSpec,
    check_proper_weight,
    default_budget,
    default_weight_spec,
    fixed_budget,
    linear_schedule,
    schwarz_penalty,
    schwarz_schedule,
    table_schedule,
    validate_penalty,
)
from ntgof.selection import _penalties, _select


# ---------------------------------------------------------------------------
# penalty values


def test_schwarz_at_e():
    assert schwarz_penalty(1, math.e) == pytest.approx(1.0)


def test_schwarz_oracle_values():
    assert schwarz_penalty(3, 100) == pytest.approx(13.8155106, abs=1e-6)
    assert schwarz_penalty(2, 2) == pytest.approx(2.0 * math.log(2.0))


def test_schwarz_rejects_tiny_n():
    with pytest.raises(ValueError):
        schwarz_penalty(2, 1)
    with pytest.raises(ValueError):
        schwarz_penalty(0, 100)


def test_schedule_delta():
    sched = schwarz_schedule()
    assert sched.delta(3, 100) == pytest.approx(2.0 * math.log(100.0))
    assert sched.delta(1, 100) == 0.0


def test_table_schedule_lookup_and_miss():
    sched = table_schedule({(1, 50): 1.0, (2, 50): 3.0})
    assert sched.pi(2, 50) == 3.0
    with pytest.raises(KeyError):
        sched.pi(3, 50)


# ---------------------------------------------------------------------------
# the selector


def test_singleton_series():
    out = _select(np.array([5.0]), _penalties(schwarz_schedule(), 1, 100))
    assert out.s == 1
    assert out.t_s == 5.0


def test_hand_computed_selection():
    # n=100: penalized = (3 - 4.605, 12 - 9.210, 12.5 - 13.816) -> k=2 wins
    out = _select(np.array([3.0, 12.0, 12.5]), _penalties(schwarz_schedule(), 3, 100))
    assert out.s == 2
    assert out.t_s == 12.0
    assert out.penalized == pytest.approx([-1.60517, 2.78966, -1.31551], abs=1e-5)


def test_exact_tie_takes_smallest_index():
    # with pi = k log n and n = e the penalized values tie at 4
    n = math.e
    out = _select(np.array([5.0, 5.0 + math.log(n)]), _penalties(schwarz_schedule(), 2, n))
    assert out.penalized == pytest.approx([4.0, 4.0])
    assert out.s == 1


def test_shift_invariance():
    # adding a constant to every T_k shifts all penalized values equally
    rng = np.random.default_rng(2)
    pens = _penalties(schwarz_schedule(), 6, 500)
    for _ in range(100):
        series = rng.standard_normal(6).cumsum() ** 2
        assert _select(series + 17.3, pens).s == _select(series, pens).s


def test_constant_penalty_offset_invariance():
    # pi and pi + c(n) rank the penalized series identically
    rng = np.random.default_rng(8)
    base = _penalties(schwarz_schedule(), 6, 300)
    off = _penalties(
        table_schedule({(k, 300): schwarz_penalty(k, 300) + 9.9 for k in range(1, 7)}), 6, 300
    )
    for _ in range(50):
        series = np.abs(rng.standard_normal(6)).cumsum()
        assert _select(series, base).s == _select(series, off).s


def test_outcome_records_inputs():
    out = _select(np.array([1.0, 9.0]), _penalties(schwarz_schedule(), 2, 50))
    assert out.series == pytest.approx([1.0, 9.0])
    assert out.penalties == pytest.approx([math.log(50.0), 2 * math.log(50.0)])
    assert out.penalized == pytest.approx(np.array([1.0, 9.0]) - out.penalties)


def test_batched_selection_matches_rows_alone():
    # with pi = k log n and n = e, rows 0 and 1 tie exactly at k = 1
    rng = np.random.default_rng(12)
    series = np.vstack(
        [[5.0, 6.0, 6.5], [5.0, 6.0, 7.0], rng.standard_normal((6, 3)).cumsum(axis=1) ** 2]
    )
    pens = _penalties(schwarz_schedule(), 3, math.e)
    out = _select(series, pens)
    for row, t, s in zip(series, out.t_s, out.s):
        alone = _select(row, pens)
        assert (s, t) == (alone.s, alone.t_s)
    assert out.s[:2].tolist() == [1, 1]
    assert out.penalties.shape == (3,)


def test_selector_rejects_bad_series():
    with pytest.raises(ValueError, match="series contains non-finite values"):
        _select(np.array([1.0, np.nan]), _penalties(schwarz_schedule(), 2, 100))


# ---------------------------------------------------------------------------
# dimension budgets


def test_default_budget_values():
    budget = default_budget()
    assert [budget.d(n) for n in (10, 100, 1000, 10_000, 100_000)] == [2, 3, 5, 10, 12]


def test_budget_cap_binds():
    assert default_budget(cap=4).d(10_000) == 4


def test_fixed_budget():
    assert fixed_budget(5).d(10) == 5
    with pytest.raises(ValueError):
        fixed_budget(0)
    # used to test at d = 2 under a cap of 2.5
    with pytest.raises(ValueError, match=r"^d must be an integer >= 1, got 2.5$"):
        fixed_budget(2.5)


def test_budget_rejects_degenerate_rule():
    budget = DimensionBudget(rule=lambda n: 0, cap=12)
    with pytest.raises(ValueError):
        budget.d(100)
    # a cap of 2.5 used to hand d = 2.5 to range(); an infinite rule
    # raised OverflowError
    with pytest.raises(ValueError, match=r"^cap must be an integer >= 1, got 2.5$"):
        DimensionBudget(rule=lambda n: 4, cap=2.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^budget rule produced .* at n=100; d\(n\) must be"):
            DimensionBudget(rule=lambda n: bad, cap=12).d(100)


# ---------------------------------------------------------------------------
# penalty validation


def test_schwarz_passes_validation():
    report = validate_penalty(
        schwarz_schedule(),
        default_budget(),
        eigenvalue_provider=lambda n: 1.0,
        n_grid=(100, 10_000, 1_000_000),
    )
    assert report.passed, report.failures()
    names = {c.name for c in report.checks}
    assert {"monotone_in_k", "increment_divergence", "normalized_penalty_vanishes"} <= names


def test_constant_penalty_fails_divergence():
    report = validate_penalty(
        linear_schedule(),
        default_budget(),
        eigenvalue_provider=lambda n: 1.0,
        n_grid=(100, 10_000, 1_000_000),
    )
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "increment_divergence" in failed
    # linear growth in k is still monotone
    assert "monotone_in_k" not in failed


def test_decreasing_table_fails_monotonicity():
    table = {}
    for n in (100, 1000, 10_000):
        for k in range(1, 13):
            table[(k, n)] = -float(k) * math.log(n)
    report = validate_penalty(
        table_schedule(table),
        default_budget(),
        eigenvalue_provider=lambda n: 1.0,
        n_grid=(100, 1000, 10_000),
    )
    assert not report.passed
    assert "monotone_in_k" in {c.name for c in report.failures()}


def test_validation_needs_three_grid_points():
    with pytest.raises(ValueError):
        validate_penalty(
            schwarz_schedule(),
            default_budget(),
            eigenvalue_provider=lambda n: 1.0,
            n_grid=(100, 1000),
        )


# ---------------------------------------------------------------------------
# proper-weight window checks


def weight_grid(ns=(1000, 10_000, 100_000), kmax=8):
    budget = default_budget()
    return [(k, n) for n in ns for k in range(1, min(kmax, budget.d(n)) + 1)]


def test_stock_window_passes():
    report = check_proper_weight(default_weight_spec(), schwarz_schedule(), weight_grid())
    assert report.passed, report.failures()
    names = {c.name for c in report.checks}
    assert "deviation_sandwich" in names
    assert "window_nonempty" in names


def test_oversized_lower_envelope_fails_sandwich():
    sched = schwarz_schedule()
    spec = default_weight_spec()
    bad = ProperWeightSpec(
        s=lambda k, n: 2.0 * sched.delta(k, n),
        t=spec.t,
        u_n=spec.u_n,
        m_n=spec.m_n,
    )
    report = check_proper_weight(bad, sched, weight_grid())
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "deviation_sandwich" in failed or "window_nonempty" in failed


def test_zero_upper_envelope_fails_sandwich():
    spec = default_weight_spec()
    bad = ProperWeightSpec(s=spec.s, t=lambda k, n: 0.0, u_n=spec.u_n, m_n=spec.m_n)
    report = check_proper_weight(bad, schwarz_schedule(), weight_grid())
    assert not report.passed
    failed = {c.name for c in report.failures()}
    # s(k,n) <= t(k,n) = 0 already fails as an empty window for k >= 2
    assert "window_nonempty" in failed or "deviation_sandwich" in failed


def test_linear_penalty_fails_proper_weight():
    # constant-in-n increments sit below the sqrt(2k) lower envelope
    report = check_proper_weight(default_weight_spec(), linear_schedule(), weight_grid())
    assert not report.passed
    assert "deviation_sandwich" in {c.name for c in report.failures()}
