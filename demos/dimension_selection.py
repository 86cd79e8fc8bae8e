#!/usr/bin/env python3
"""How the penalized selector behaves, and what makes a penalty usable.

Three things worth seeing once:
  * the dimension budget d(n) and Schwarz penalty growing with n,
  * the validation report that separates a usable penalty schedule from
    a broken one (constant increments never diverge),
  * the proper-weight window check sandwiching penalty increments
    between the deviation envelopes sqrt(2k) and sqrt(n)/M(k).
"""

import numpy as np

from ntgof import (
    check_proper_weight,
    contamination_alternative,
    default_budget,
    default_weight_spec,
    linear_schedule,
    run_test,
    schwarz_schedule,
    uniformity_spec,
    validate_penalty,
)
from ntgof.basis import legendre_basis


def print_report(title, report):
    print(f"\n{title}: {'PASS' if report.passed else 'FAIL'}")
    for check in report.checks:
        print(f"  [{'ok' if check.passed else 'XX'}] {check.name}: {check.detail}")
    for w in report.warnings[:4]:
        print(f"  (warn) {w}")
    if len(report.warnings) > 4:
        print(f"  (... {len(report.warnings) - 4} more warnings)")


def main():
    print("dimension budget d(n) = min(12, max(2, floor(n^0.25)))")
    budget = default_budget()
    for n in (50, 500, 5000, 50_000, 500_000):
        print(f"  n={n:>7}: d={budget.d(n):>2}, pi(d,n)={schwarz_schedule().pi(budget.d(n), n):7.2f}")

    grid = (100, 10_000, 1_000_000)
    print_report(
        "validate_penalty(schwarz)",
        validate_penalty(schwarz_schedule(), budget, grid),
    )
    print_report(
        "validate_penalty(linear2k)  [constant increments: must fail]",
        validate_penalty(linear_schedule(), budget, grid),
    )

    # the window is a finite-n object: s = sqrt(2k) outgrows
    # t = sqrt(n)/M(k) once k pushes past the budget, so the check
    # grid pairs each n with the dimensions the budget actually allows
    pairs = [(k, n) for n in (1000, 10_000, 100_000)
             for k in range(1, budget.d(n) + 1)]
    print_report(
        "check_proper_weight(stock window, schwarz, k <= d(n))",
        check_proper_weight(default_weight_spec(), schwarz_schedule(), pairs),
    )

    # watch S lock onto the excited direction as the signal grows
    print("\nselector behavior for density 1 + c * b_2, n = 1500:")
    basis = legendre_basis(12)
    rng = np.random.default_rng(7)
    spec = uniformity_spec()
    n = 1500
    print(f"  {'c':>5} {'S':>3} {'T_S':>9}")
    for c in (0.0, 0.05, 0.1, 0.2, 0.4):
        if c == 0.0:
            data = rng.random(n)
        else:
            data = contamination_alternative({2: c}, basis).sampler(rng, n)
        out = run_test(data, spec)
        print(f"  {c:>5.2f} {out.s:>3} {out.t_s:>9.3f}")


if __name__ == "__main__":
    main()
