#!/usr/bin/env python3
"""Testing a null density you only see through additive noise.

Observations are Y = X + eps with X under the hypothesized density and
eps a known noise.  The efficient scores are conditional expectations
E[b_j(F0(X)) | Y = y], computed by quadrature and cached on a grid, and
the rest of the machinery (selection, calibration) is unchanged.  The
scores printed first are computed here directly, by the trapezoid rule.
"""

import numpy as np
from scipy.integrate import trapezoid

from ntgof import (
    MonteCarloConfig,
    deconvolution_spec,
    gaussian_noise,
    null_distribution,
    p_value,
    run_test,
    uniform_null,
)
from ntgof.basis import eval_basis, legendre_basis


def deconvolution_score(y, j, null_d, noise, basis):
    """l_j(y): both integrals by the trapezoid rule on 20,001 points of
    [y - 8 sigma, y + 8 sigma] within the null support."""
    lo = max(null_d.support[0], y - 8 * noise.scale)
    hi = min(null_d.support[1], y + 8 * noise.scale)
    s = np.linspace(lo, hi, 20_001)
    weight = null_d.pdf(s) * noise.pdf(y - s)
    return trapezoid(eval_basis(basis, j, null_d.cdf(s)) * weight, s) / trapezoid(weight, s)


def score_table(noise, ys, degrees, basis):
    null_d = uniform_null()
    return [[deconvolution_score(y, j, null_d, noise, basis) for j in degrees] for y in ys]


def main():
    basis = legendre_basis(12)
    degrees = (1, 2, 3)
    ys = np.linspace(-0.3, 1.3, 9)

    # Smoothing flattens the scores: with sigma = 0.25 the conditional
    # expectation drags every score toward zero, and outside [0, 1] the
    # scores level off instead of being undefined.
    print("scores at sigma = 0.25 (uniform null):")
    print(f"{'y':>6} " + " ".join(f"{f'l_{j}':>9}" for j in degrees))
    for y, row in zip(ys, score_table(gaussian_noise(0.25), ys, degrees, basis)):
        print(f"{y:>6.2f} " + " ".join(f"{v:>9.4f}" for v in row))

    # As the noise vanishes the scores converge to the raw basis
    # functions b_j(F0(y)) -- the clean-data special case.
    tiny = gaussian_noise(1e-4)
    print("\nsigma = 1e-4 vs exact b_j(F0(y)) at y = 0.37:")
    for j in degrees:
        smoothed = deconvolution_score(0.37, j, uniform_null(), tiny, basis)
        exact = eval_basis(basis, j, 0.37)
        print(f"  j={j}: smoothed {smoothed:+.6f}   exact {exact:+.6f}")

    # End to end on data: same n, same noise, calibrated once.  The
    # small table settings keep this demo quick; defaults are finer.
    spec = deconvolution_spec(noise=gaussian_noise(0.25), l_draws=20_000,
                              grid_points=501)
    n = 144
    config = MonteCarloConfig(replications=400, alpha=0.05, seed=77)
    cal = null_distribution(spec, n, config)
    print(f"\ncalibration at n = {n}: critical value {cal.critical_value:.3f} "
          f"(alpha = {config.alpha})")

    rng = np.random.default_rng(20260816)
    clean_null = rng.random(n) + 0.25 * rng.standard_normal(n)
    squeezed = 0.2 + 0.6 * rng.random(n) + 0.25 * rng.standard_normal(n)

    for label, sample in (("uniform + noise", clean_null),
                          ("squeezed uniform + noise", squeezed)):
        out = run_test(sample, spec)
        p = p_value(out.t_s, cal)
        verdict = "reject" if out.t_s >= cal.critical_value else "accept"
        print(f"  {label:<26} S = {out.s}  T_S = {out.t_s:8.3f}  "
              f"p = {p:.4f}  -> {verdict}")


if __name__ == "__main__":
    main()
