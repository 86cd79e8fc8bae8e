#!/usr/bin/env python3
"""Walkthrough: testing uniformity with a data-driven score dimension.

Simulates a clean uniform sample and a contaminated one, shows the
statistic series T_1..T_d with the Schwarz-penalized values that drive
the dimension choice, and finishes with a Monte Carlo p-value.
"""

import numpy as np

from ntgof import (
    MonteCarloConfig,
    contamination_alternative,
    null_distribution,
    p_value,
    run_test,
    uniformity_spec,
)


def show_outcome(label, outcome, n):
    print(f"\n{label} (n={n})")
    print(f"  {'k':>2} {'T_k':>10} {'pi(k,n)':>10} {'penalized':>10}")
    for k in range(1, len(outcome.series) + 1):
        marker = " <- S" if k == outcome.s else ""
        print(
            f"  {k:>2} {outcome.series[k - 1]:>10.4f} "
            f"{outcome.penalties[k - 1]:>10.4f} "
            f"{outcome.penalized[k - 1]:>10.4f}{marker}"
        )
    print(f"  selected dimension S = {outcome.s}, statistic T_S = {outcome.t_s:.4f}")


def main():
    rng = np.random.default_rng(20260816)
    spec = uniformity_spec()
    n = 800

    print("=" * 64)
    print("data-driven uniformity test")
    print("=" * 64)

    null_data = rng.random(n)
    null_out = run_test(null_data, spec)
    show_outcome("uniform sample", null_out, n)

    # a bump in the third score direction: density 1 + 0.35 b_3
    alt = contamination_alternative({3: 0.35})
    alt_data = alt.sampler(rng, n)
    alt_out = run_test(alt_data, spec)
    show_outcome(f"contaminated sample ({alt.name})", alt_out, n)

    print("\ncalibrating the null distribution of T_S (2000 replications)...")
    cal = null_distribution(spec, n, MonteCarloConfig(replications=2000, seed=0))
    print(f"  5% critical value: {cal.critical_value:.4f}")
    counts = ", ".join(f"S={k + 1}: {c}" for k, c in enumerate(cal.s_counts) if c)
    print(f"  null selection counts: {counts}")

    for label, out in (("uniform", null_out), ("contaminated", alt_out)):
        p = p_value(out.t_s, cal)
        verdict = "reject" if p <= 0.05 else "accept"
        print(f"  {label:>13}: T_S = {out.t_s:8.4f}, p = {p:.4f} -> {verdict}")


if __name__ == "__main__":
    main()
