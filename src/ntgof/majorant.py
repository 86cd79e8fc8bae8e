"""Finite-sample tail majorants for the score statistics.

Calibration of the data-driven selector rests on explicit bounds for

    P_0( sqrt(T_k) >= y ),

the null tail of the square-rooted quadratic form at dimension k.  In
the Gaussian limit sqrt(T_k) is a chi-distributed norm, and a
Prohorov-style Gaussian approximation carries that tail to finite n at
the price of a (very large) universal constant and a validity window:

    bound(k, y, n) = (150210 / Gamma(k/2)) * (y^2 / 2)^((k-1)/2)
                     * exp{ -(y^2 / 2) * (1 - M(k) * y / sqrt(n)) },

valid for 2k <= y^2 <= n / M(k)^2, where M(k) is the envelope constant
of the score system (sup of the score-vector norm contributes the
approximation slack M(k) * y / sqrt(n)).  The constant 150210 is what
the underlying approximation theorem delivers; the bound is never tight
but decays at the correct Gaussian-chi rate, which is all the selector
theory needs.  Requests outside the window raise WindowViolationError
-- the formula still evaluates there, it just bounds nothing.

For admissibility arguments one mostly needs the *shape*, abstracted as
a P-type majorant

    phi(k; y) = C1 * phi1(k) * phi2(lambda) * y^(k-1) * exp(-y^2 / C2)

with constants C1, C2 > 0, a dimension factor phi1, and a factor phi2
of the normalizing-matrix eigenvalues.  The Prohorov bound at a fixed
approximation slack eta is the special case

    C1 = 150210,  phi1(k) = (1/2)^((k-1)/2) / Gamma(k/2),
    phi2 = 1,     C2 = 2 / (1 - eta),

provided by :func:`prohorov_ptype_params`.  Finally, the summability
requirement on the window floor -- the tail sums

    sum_{k=K}^{u_n} phi(k; s(k, n))

staying below a tolerance -- is computed by :func:`b2_tail_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .basis import _integer, sup_norm_bound
from .errors import WindowViolationError

__all__ = [
    "PROHOROV_CONSTANT",
    "prohorov_bound",
    "MajorantParams",
    "ptype_majorant",
    "prohorov_ptype_params",
    "b2_tail_sum",
]

PROHOROV_CONSTANT = 150210.0


def _window(k: int, n: float, envelope: float | None = None) -> tuple[float, float]:
    """The validity window (sqrt(2k), sqrt(n) / M(k)) for y, unbounded above at n = inf.

    ``envelope`` is M(k), by default :func:`ntgof.basis.sup_norm_bound`.
    """
    m = sup_norm_bound(k) if envelope is None else envelope
    return math.sqrt(2.0 * k), math.sqrt(n) / m if math.isfinite(n) else math.inf


def prohorov_bound(k: int, y: float, n: float, envelope: float | None = None) -> float:
    """Gaussian-approximation tail bound for P_0(sqrt(T_k) >= y).

    Parameters
    ----------
    k : score dimension, an integer >= 1.
    y : deviation level; must satisfy 2k <= y^2 <= n / M(k)^2.
    n : sample size; math.inf is allowed and gives the pure Gaussian
        chi-tail shape (no approximation slack).
    envelope : score-vector envelope M(k); defaults to the built-in
        Legendre value from :func:`ntgof.basis.sup_norm_bound`.

    Requests outside the validity window raise WindowViolationError;
    numeric evaluation happens in log space so large k and y are safe.
    """
    _integer("k", k, 1)
    if not (y > 0 and math.isfinite(y)):
        raise ValueError("y must be positive and finite")
    if not n > 0:
        raise ValueError("n must be positive")
    m = sup_norm_bound(k) if envelope is None else float(envelope)
    if m <= 0:
        raise ValueError("envelope must be positive")
    y2 = y * y
    # compare on the y scale: the stock window floor is exactly
    # sqrt(2k), and squaring it can land one ulp below 2k
    lo, hi = _window(k, n, m)
    if y < lo or y > hi:
        raise WindowViolationError(
            f"y={y:.6g} outside validity window for (k={k}, n={n:.6g}): "
            f"need {lo:.6g} <= y <= {hi:.6g}"
        )
    slack = m * y / math.sqrt(n) if math.isfinite(n) else 0.0
    log_val = (
        math.log(PROHOROV_CONSTANT)
        - math.lgamma(k / 2.0)
        + 0.5 * (k - 1) * math.log(y2 / 2.0)
        - 0.5 * y2 * (1.0 - slack)
    )
    return math.exp(log_val)


@dataclass(frozen=True)
class MajorantParams:
    """Parameters of a P-type majorant.

    ``phi1`` maps the dimension k to a positive factor; ``phi2`` maps
    the normalizing-matrix eigenvalue vector to a positive factor (use
    the default for identity normalization); ``window``, if given, maps
    k to the (lo, hi) validity interval for y.
    """

    c1: float
    c2: float
    phi1: Callable[[int], float] = lambda k: 1.0
    phi2: Callable[[Sequence[float]], float] = lambda lam: 1.0
    window: Callable[[int], tuple[float, float]] | None = None

    def __post_init__(self):
        if not self.c1 > 0:
            raise ValueError("c1 must be positive")
        if not self.c2 > 0:
            raise ValueError("c2 must be positive")


def ptype_majorant(
    params: MajorantParams,
    k: int,
    y: float,
    eigenvalues: Sequence[float] | None = None,
) -> float:
    """Evaluate C1 * phi1(k) * phi2(lambda) * y^(k-1) * exp(-y^2 / C2).

    ``eigenvalues`` defaults to the identity spectrum (all ones) of
    length k.  If the params carry a validity window, y outside it
    raises WindowViolationError.
    """
    _integer("k", k, 1)
    if not (y > 0 and math.isfinite(y)):
        raise ValueError("y must be positive and finite")
    lam = np.ones(k) if eigenvalues is None else np.asarray(eigenvalues, dtype=float)
    if lam.shape != (k,):
        raise ValueError(f"eigenvalue vector must have length k={k}")
    if params.window is not None:
        lo, hi = params.window(k)
        if not lo <= y <= hi:
            raise WindowViolationError(
                f"y={y:.6g} outside majorant window [{lo:.6g}, {hi:.6g}] at k={k}"
            )
    f1 = float(params.phi1(k))
    f2 = float(params.phi2(lam))
    if not (f1 > 0 and f2 > 0):
        raise ValueError("phi1 and phi2 must be positive")
    log_val = (
        math.log(params.c1)
        + math.log(f1)
        + math.log(f2)
        + (k - 1) * math.log(y)
        - y * y / params.c2
    )
    return math.exp(log_val)


def prohorov_ptype_params(n: float, eta: float) -> MajorantParams:
    """P-type parameters reproducing the Prohorov bound at fixed slack eta.

    With eta frozen (instead of the y-dependent M(k) y / sqrt(n)), the
    Prohorov bound is exactly a P-type majorant; at any y where the
    frozen eta equals the true slack the two coincide.  The validity
    window is inherited from the sample size n.
    """
    if not 0 <= eta < 1:
        raise ValueError("eta must lie in [0, 1)")

    def phi1(k: int) -> float:
        return math.exp(-math.lgamma(k / 2.0) - 0.5 * (k - 1) * math.log(2.0))

    return MajorantParams(
        c1=PROHOROV_CONSTANT,
        c2=2.0 / (1.0 - eta),
        phi1=phi1,
        window=lambda k: _window(k, n),
    )


def b2_tail_sum(
    majorant: Callable[[int, float], float],
    k_from: int,
    k_to: int,
    s: Callable[[int, int], float],
    n: int,
) -> float:
    """Sum of the majorant along the window floor, k = k_from .. k_to.

    Computes sum_k majorant(k, s(k, n)); callers compare the result to
    their summability tolerance.  ``majorant`` is any callable (k, y)
    -> bound, e.g. a partially applied :func:`ptype_majorant` or
    :func:`prohorov_bound`.
    """
    _integer("k_from", k_from, 1)
    _integer("k_to", k_to, k_from)
    return float(sum(majorant(k, s(k, n)) for k in range(k_from, k_to + 1)))
