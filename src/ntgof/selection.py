"""Data-driven choice of the score dimension.

Fitting ever more score components always inflates the test statistic,
so the dimension is chosen by a penalized criterion: given the statistic
series T_1, ..., T_d and a penalty schedule pi(k, n),

    S = min{ k <= d : T_k - pi(k, n) >= T_j - pi(j, n) for all j <= d }.

The minimum is deliberate -- on exact ties the smallest dimension wins,
which keeps the selected model parsimonious and the selector a
deterministic function of its inputs.  The reference schedule is the
Schwarz penalty pi(k, n) = k log n (natural log); a linear schedule
pi(k, n) = 2k is also provided as the classic AIC-flavored foil, and
arbitrary tabulated schedules can be loaded for experimentation.

A schedule is *admissible* for the selector's asymptotics when, along a
grid of sample sizes,

  * k -> pi(k, n) is strictly increasing for every n,
  * the increments pi(j, n) - pi(1, n) grow without bound in n for
    every fixed j >= 2 (this is what the linear schedule fails), and
  * pi(d(n), n) / (n * lambda(n)) decreases toward zero, where
    lambda(n) is the smallest normalizing-matrix eigenvalue in play at
    dimension d(n).

:func:`validate_penalty` checks exactly these on a finite grid.  The
finer calibration machinery needs more: a deviation window [s(k, n),
t(k, n)] on which tail majorants for sqrt(T_k) are valid, sandwiching
the penalty increments.  :func:`check_proper_weight` verifies, for
k >= 2,

    s(k, n) <= sqrt(pi(k, n) - pi(1, n)) <= t(k, n),

(the increment enters on the deviation scale, i.e. as the square root
of the penalized gap, since the window bounds the tail of sqrt(T_k))
together with the two normalized trend conditions

    max_{k <= u_n} s(k, n) / (n lambda_k)   strictly decreasing,
    max_{k <= m_n} pi(k, n) / (n lambda_k)  strictly decreasing.

The stock window is s(k, n) = sqrt(2k), t(k, n) = sqrt(n) / M(k) with
M(k) the basis envelope constant; it passes on the default budget for
n >= 1000 and tightens to infeasibility for small n, which the reports
surface as warnings rather than hard failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .basis import sup_norm_bound

__all__ = [
    "PenaltySchedule",
    "schwarz_penalty",
    "schwarz_schedule",
    "linear_schedule",
    "table_schedule",
    "DimensionBudget",
    "default_budget",
    "fixed_budget",
    "SelectionOutcome",
    "select_dimension",
    "CheckResult",
    "ValidationReport",
    "validate_penalty",
    "ProperWeightSpec",
    "default_weight_spec",
    "check_proper_weight",
]


def schwarz_penalty(k: int, n: int) -> float:
    """Schwarz penalty k * log(n), natural logarithm.

    Requires k >= 1 and n >= 2 (at n = 1 the penalty degenerates to 0
    for every k and the selector would always pick the largest model).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    return k * math.log(n)


@dataclass(frozen=True)
class PenaltySchedule:
    """A penalty pi(k, n), k >= 1, together with a short name."""

    name: str
    pi: Callable[[int, int], float]

    def delta(self, k: int, n: int) -> float:
        """Penalized gap pi(k, n) - pi(1, n) above the smallest model."""
        return self.pi(k, n) - self.pi(1, n)


def schwarz_schedule() -> PenaltySchedule:
    return PenaltySchedule("schwarz", schwarz_penalty)


def linear_schedule() -> PenaltySchedule:
    """pi(k, n) = 2k: strictly increasing in k but with increments flat
    in n, so it fails the divergence requirement (see validate_penalty)."""
    return PenaltySchedule("linear2k", lambda k, n: 2.0 * k)


def table_schedule(table: Mapping[tuple[int, int], float], name: str = "table") -> PenaltySchedule:
    """Penalty given by an explicit {(k, n): pi} table.

    Lookups outside the table raise KeyError with the offending pair,
    so a short table cannot silently extrapolate.
    """
    frozen = {(int(k), int(n)): float(v) for (k, n), v in table.items()}

    def pi(k: int, n: int) -> float:
        try:
            return frozen[(k, n)]
        except KeyError:
            raise KeyError(f"penalty table has no entry for (k={k}, n={n})") from None

    return PenaltySchedule(name, pi)


@dataclass(frozen=True)
class DimensionBudget:
    """Largest dimension d(n) the selector may consider at sample size n."""

    rule: Callable[[int], int]
    cap: int = 12

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError("cap must be >= 1")

    def d(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        d = min(self.cap, int(self.rule(n)))
        if d < 1:
            raise ValueError(f"budget rule produced d={d} < 1 at n={n}")
        return d


def default_budget(cap: int = 12) -> DimensionBudget:
    """d(n) = max(2, floor(n^(1/4))), capped.

    Grows slowly enough that the largest admissible model stays small
    relative to n, but is unbounded, which consistency against fixed
    smooth alternatives requires.
    """
    return DimensionBudget(rule=lambda n: max(2, int(math.floor(n ** 0.25))), cap=cap)


def fixed_budget(d: int) -> DimensionBudget:
    """Constant budget d(n) = d, for exploratory use and the CLI --dmax."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return DimensionBudget(rule=lambda n: d, cap=d)


@dataclass(frozen=True)
class SelectionOutcome:
    """Selected dimension with the full penalized series that chose it.

    For a batch of series (..., d), ``s`` and ``t_s`` hold one per row.
    """

    s: int | np.ndarray
    series: np.ndarray
    penalties: np.ndarray
    penalized: np.ndarray

    @property
    def t_s(self) -> float | np.ndarray:
        """Statistic value at the selected dimension."""
        if self.series.ndim == 1:
            return float(self.series[self.s - 1])
        return np.take_along_axis(self.series, self.s[..., None] - 1, axis=-1)[..., 0]


def select_dimension(series, penalty: PenaltySchedule, n: int) -> SelectionOutcome:
    """Penalized argmax over the statistic series, smallest index on ties.

    ``series`` holds T_1, ..., T_d, or one such row per leading index
    (..., d); the penalties are computed once for all rows.  Comparisons
    are exact, so two dimensions with bitwise-equal penalized values
    resolve to the smaller one.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim < 1 or series.shape[-1] < 1:
        raise ValueError("series must be a non-empty array, dimensions on the last axis")
    return _select(series, _penalties(penalty, series.shape[-1], n))


def _penalties(penalty: PenaltySchedule, d: int, n: int) -> np.ndarray:
    """pi(1, n), ..., pi(d, n), checked finite."""
    pens = np.array([penalty.pi(k, n) for k in range(1, d + 1)], dtype=float)
    if not np.all(np.isfinite(pens)):
        raise ValueError("penalty schedule produced non-finite values")
    return pens


def _select(series: np.ndarray, pens: np.ndarray) -> SelectionOutcome:
    """:func:`select_dimension` of a float series (..., d) with its d penalties."""
    if not np.all(np.isfinite(series)):
        raise ValueError("series contains non-finite values")
    penalized = series - pens
    s = np.argmax(penalized, axis=-1) + 1  # first maximum = smallest index
    if series.ndim == 1:
        s = int(s)
    return SelectionOutcome(s=s, series=series, penalties=pens, penalized=penalized)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a schedule or weight validation on a finite grid."""

    checks: tuple
    warnings: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def validate_penalty(
    penalty: PenaltySchedule,
    budget: DimensionBudget,
    n_grid: Sequence[int],
    eigenvalue_provider: Callable[[int], float] | None = None,
) -> ValidationReport:
    """Check schedule admissibility on a grid of sample sizes.

    ``eigenvalue_provider`` maps n to the smallest normalizing-matrix
    eigenvalue at dimension d(n); identity normalization (the default)
    uses 1.  The grid needs at least three strictly increasing sizes --
    trends cannot be judged from fewer.
    """
    ns = [int(n) for n in n_grid]
    if len(ns) < 3 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_grid must hold at least 3 strictly increasing sizes")
    lam = eigenvalue_provider or (lambda n: 1.0)

    checks = []
    warnings = []

    # strict monotonicity in k at every grid size
    mono_ok, mono_detail = True, "pi strictly increasing in k at every n"
    for n in ns:
        vals = [penalty.pi(k, n) for k in range(1, budget.d(n) + 1)]
        bad = [i for i in range(1, len(vals)) if not vals[i] > vals[i - 1]]
        if bad:
            mono_ok = False
            mono_detail = (
                f"pi not strictly increasing at n={n}: "
                f"pi({bad[0]},n)={vals[bad[0] - 1]:.6g} >= pi({bad[0] + 1},n)={vals[bad[0]]:.6g}"
            )
            break
    checks.append(CheckResult("monotone_in_k", mono_ok, mono_detail))

    # increments pi(j, n) - pi(1, n) must grow without bound in n
    jmax = min(budget.d(n) for n in ns)
    div_ok, div_detail = True, "increments non-decreasing and growing along the grid"
    for j in range(2, jmax + 1):
        deltas = [penalty.delta(j, n) for n in ns]
        if any(b < a for a, b in zip(deltas, deltas[1:])) or not deltas[-1] > deltas[0]:
            div_ok = False
            div_detail = (
                f"increment pi({j},n)-pi(1,n) does not grow along the grid: "
                f"{[round(d, 6) for d in deltas]}"
            )
            break
    checks.append(CheckResult("increment_divergence", div_ok, div_detail))

    # pi(d(n), n) / (n lambda(n)) must decrease toward zero
    ratios = [penalty.pi(budget.d(n), n) / (n * lam(n)) for n in ns]
    trend_ok = all(b < a for a, b in zip(ratios, ratios[1:])) and ratios[-1] > 0
    checks.append(
        CheckResult(
            "normalized_penalty_vanishes",
            trend_ok,
            f"pi(d(n),n)/(n lambda): {[f'{r:.3e}' for r in ratios]}",
        )
    )

    # deviation-window headroom: below delta(k, n) >= 2k the tail bounds
    # backing the calibration theory are not yet valid -- worth a warning
    # at small n, but not an admissibility failure.
    for n in ns:
        for k in range(2, budget.d(n) + 1):
            if penalty.delta(k, n) < 2 * k:
                warnings.append(
                    f"penalized gap delta({k},{n})={penalty.delta(k, n):.3f} "
                    f"below deviation-window floor 2k={2 * k}"
                )
    return ValidationReport(checks=tuple(checks), warnings=tuple(warnings))


@dataclass(frozen=True)
class ProperWeightSpec:
    """Deviation windows and range bounds entering the weight conditions.

    ``s`` and ``t`` give the lower/upper ends of the validity window for
    the tail of sqrt(T_k) at dimension k and sample size n; ``u_n`` and
    ``m_n`` bound the dimensions over which the two normalized trend
    conditions take their maxima.
    """

    s: Callable[[int, int], float]
    t: Callable[[int, int], float]
    u_n: Callable[[int], int]
    m_n: Callable[[int], int]


def default_weight_spec(budget: DimensionBudget | None = None) -> ProperWeightSpec:
    """Stock window s = sqrt(2k), t = sqrt(n)/M(k), ranges from the budget."""
    budget = budget or default_budget()
    return ProperWeightSpec(
        s=lambda k, n: math.sqrt(2.0 * k),
        t=lambda k, n: math.sqrt(n) / sup_norm_bound(k),
        u_n=budget.d,
        m_n=budget.d,
    )


def check_proper_weight(
    weight: ProperWeightSpec,
    penalty: PenaltySchedule,
    grid: Sequence[tuple[int, int]],
    eigenvalues: Callable[[int], float] | None = None,
) -> ValidationReport:
    """Verify the weight conditions on a finite (k, n) grid.

    ``grid`` holds (k, n) pairs; ``eigenvalues`` maps a dimension k to
    the smallest eigenvalue of its normalizing matrix (1 under identity
    normalization).  The sandwich condition applies for k >= 2 only:
    at k = 1 the penalized gap is identically zero and sits below every
    non-trivial window.
    """
    pairs = sorted({(int(k), int(n)) for k, n in grid})
    if not pairs:
        raise ValueError("grid must hold at least one (k, n) pair")
    lam = eigenvalues or (lambda k: 1.0)
    ns = sorted({n for _, n in pairs})
    if len(ns) < 3:
        raise ValueError("grid must span at least 3 distinct sample sizes")

    checks = []
    warnings = []

    # non-empty window wherever the sandwich applies
    empty = [(k, n) for k, n in pairs if k >= 2 and not weight.s(k, n) < weight.t(k, n)]
    checks.append(
        CheckResult(
            "window_nonempty",
            not empty,
            "s(k,n) < t(k,n) on the grid" if not empty else f"window empty at {empty[0]}",
        )
    )

    # s(k,n) <= sqrt(delta(k,n)) <= t(k,n) for k >= 2, on the deviation scale
    sand_ok, sand_detail = True, "penalty increments inside the deviation window"
    for k, n in pairs:
        if k < 2:
            continue
        root_gap = math.sqrt(max(penalty.delta(k, n), 0.0))
        if not (weight.s(k, n) <= root_gap <= weight.t(k, n)):
            sand_ok = False
            sand_detail = (
                f"sqrt(delta({k},{n}))={root_gap:.4f} outside "
                f"[s={weight.s(k, n):.4f}, t={weight.t(k, n):.4f}]"
            )
            break
    checks.append(CheckResult("deviation_sandwich", sand_ok, sand_detail))

    # normalized window floor must shrink: max_{k<=u_n} s(k,n)/(n lambda_k)
    by_n = {n: [k for k, nn in pairs if nn == n] for n in ns}
    a_vals = []
    for n in ns:
        ks = [k for k in by_n[n] if k <= weight.u_n(n)]
        if not ks:
            raise ValueError(f"no grid dimensions k <= u_n({n})={weight.u_n(n)}")
        a_vals.append(max(weight.s(k, n) / (n * lam(k)) for k in ks))
    a_ok = all(b < a for a, b in zip(a_vals, a_vals[1:]))
    checks.append(
        CheckResult(
            "normalized_deviation_trend",
            a_ok,
            f"max s/(n lambda): {[f'{v:.3e}' for v in a_vals]}",
        )
    )

    # normalized penalty must shrink: max_{k<=m_n} pi(k,n)/(n lambda_k)
    b_vals = []
    for n in ns:
        ks = [k for k in by_n[n] if k <= weight.m_n(n)]
        if not ks:
            raise ValueError(f"no grid dimensions k <= m_n({n})={weight.m_n(n)}")
        b_vals.append(max(penalty.pi(k, n) / (n * lam(k)) for k in ks))
    b_ok = all(b < a for a, b in zip(b_vals, b_vals[1:]))
    checks.append(
        CheckResult(
            "normalized_penalty_trend",
            b_ok,
            f"max pi/(n lambda): {[f'{v:.3e}' for v in b_vals]}",
        )
    )

    for k, n in pairs:
        if k >= 2 and weight.t(k, n) <= weight.s(k, n) * 1.25:
            warnings.append(
                f"window [s,t] at (k={k}, n={n}) is thin: "
                f"[{weight.s(k, n):.3f}, {weight.t(k, n):.3f}]"
            )
    return ValidationReport(checks=tuple(checks), warnings=tuple(warnings))
