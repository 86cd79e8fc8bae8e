"""Data-driven score tests for goodness of fit.

The package builds smooth score tests whose dimension is chosen from
the data by a penalized criterion, calibrates them by Monte Carlo, and
ships the finite-sample tail bounds that justify the selection rule.

Layout:

- :mod:`ntgof.basis` -- orthonormal score systems on [0, 1] (shifted
  Legendre by default) and their envelope constants.
- :mod:`ntgof.statistics` -- the nested quadratic-form series every
  test forms from its score sums.
- :mod:`ntgof.selection` -- penalty schedules, dimension budgets, the
  selection outcome, and admissibility validators.
- :mod:`ntgof.majorant` -- finite-sample tail bounds and their
  validity windows.
- :mod:`ntgof.catalog` -- ready-made test specs (uniformity, rank
  independence, deconvolution, composite parametric nulls), all run by
  :func:`run_test`.
- :mod:`ntgof.montecarlo` -- calibration, power curves, consistency
  and tail-rate probes; deterministic under any replication block size.
- :mod:`ntgof.cli` -- the ``ntgof`` command.
"""

from .basis import (
    OrthonormalBasis,
    design_matrix,
    eval_basis,
    gram_matrix,
    legendre_basis,
    score_sums,
    sup_norm_bound,
    user_basis,
)
from .catalog import (
    AlternativeSpec,
    NoiseDensity,
    NullDensity,
    ParametricFamily,
    TestSpec,
    composite_spec,
    contamination_alternative,
    deconvolution_spec,
    gaussian_location_family,
    gaussian_noise,
    independence_spec,
    noisy_copy_pairs,
    null_sampler,
    rank_transform,
    run_test,
    uniform_null,
    uniformity_spec,
)
from .errors import (
    InputError,
    NumericError,
    ScoreMeanError,
    SingularMatrixError,
    WindowViolationError,
)
from .majorant import (
    MajorantParams,
    b2_tail_sum,
    prohorov_bound,
    prohorov_ptype_params,
    ptype_majorant,
)
from .montecarlo import (
    CalibrationResult,
    MonteCarloConfig,
    PowerCurveResult,
    ProbeResult,
    consistency_probe,
    null_distribution,
    p_value,
    power_curve,
    tail_rate_probe,
)
from .selection import (
    DimensionBudget,
    PenaltySchedule,
    ProperWeightSpec,
    SelectionOutcome,
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

__version__ = "0.1.0"
