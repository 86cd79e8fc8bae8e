"""Orthonormal score bases on the unit interval.

The default system is the shifted, normalized Legendre family

    b_j(x) = sqrt(2j + 1) * P_j(2x - 1),        j = 0, 1, 2, ...

where ``P_j`` is the classical Legendre polynomial on [-1, 1].  These
functions are orthonormal in L2([0, 1], dx) and orthogonal to the
constant function, which is exactly what score components of a smooth
alternative family need: mean zero and unit variance under the null,
with zero cross-correlations.  The first two members are

    b_1(x) = sqrt(3) * (2x - 1)
    b_2(x) = sqrt(5) * (6x^2 - 6x + 1)

Evaluation goes through the three-term recurrence

    (j + 1) P_{j+1}(t) = (2j + 1) t P_j(t) - j P_{j-1}(t)

rather than expanded monomial coefficients; the recurrence is stable for
all degrees used here, while monomial coefficients lose digits well
before degree 12.

Each member is bounded, |b_j| <= sqrt(2j + 1) with the maximum attained
at the interval endpoints.  The envelope constant returned by
:func:`sup_norm_bound`,

    M(k) = sqrt((k - 1) (k + 3))           for k >= 2,
    M(1) = sqrt(3),

is the supremum over [0, 1] of the Euclidean norm of the vector
(b_2, ..., b_k) (for k = 1, of |b_1| itself); it is the scale constant
that the finite-sample deviation windows and tail majorants consume.
Note that the full vector (b_1, ..., b_k) has squared norm up to
k (k + 2) = M(k)^2 + 3 at the endpoints.

User-supplied bases are accepted as a sequence of vectorized callables
on [0, 1] and are checked for orthonormality (including orthogonality
to constants) by Gauss-Legendre quadrature at construction time; a
system that fails the check is rejected outright rather than producing
silently miscalibrated statistics downstream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "OrthonormalBasis",
    "legendre_basis",
    "user_basis",
    "eval_basis",
    "design_matrix",
    "score_sums",
    "gram_matrix",
    "sup_norm_bound",
]


@dataclass(frozen=True)
class OrthonormalBasis:
    """An orthonormal system b_1, ..., b_max_degree on [0, 1].

    ``kind`` is either ``"legendre"`` (the built-in shifted Legendre
    family) or ``"user_supplied"``.  For user systems ``components``
    holds one vectorized callable per degree, components[j - 1] == b_j.
    """

    kind: str
    max_degree: int
    components: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.kind not in ("legendre", "user_supplied"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if self.kind == "user_supplied" and len(self.components) != self.max_degree:
            raise ValueError(
                "user_supplied basis needs exactly max_degree component functions"
            )


def legendre_basis(max_degree: int = 12) -> OrthonormalBasis:
    """The shifted, normalized Legendre system up to ``max_degree``."""
    return OrthonormalBasis(kind="legendre", max_degree=max_degree)


def _check_domain(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size:
        # a NaN makes both bounds NaN and fails both comparisons
        lo, hi = np.min(x), np.max(x)
        if not (lo >= 0.0 and hi <= 1.0):
            if np.isnan(lo):
                raise ValueError("basis argument contains non-finite values")
            bad = float(x.flat[int(np.argmax((x < 0.0) | (x > 1.0)))])
            raise ValueError(f"basis argument outside [0, 1]: {bad}")
    return x


def _legendre_planes(x: np.ndarray, k: int):
    """Yield b_1(x), ..., b_k(x) by the three-term recurrence, one array
    shaped like x per degree."""
    t = 2.0 * x - 1.0
    p_prev, p_cur = 1.0, t  # P_0, P_1
    yield math.sqrt(3.0) * p_cur
    for j in range(1, k):
        # (j+1) P_{j+1} = (2j+1) t P_j - j P_{j-1}
        p_next = (2 * j + 1) * t
        p_next *= p_cur
        p_next -= j * p_prev
        p_next /= j + 1
        p_prev, p_cur = p_cur, p_next
        yield math.sqrt(2 * (j + 1) + 1) * p_cur


def _score_planes(basis: OrthonormalBasis, x, k: int):
    """Yield b_1(x), ..., b_k(x), each shaped like the checked x."""
    if not 1 <= k <= basis.max_degree:
        raise ValueError(f"k={k} outside 1..{basis.max_degree}")
    x = _check_domain(x)
    if basis.kind == "legendre":
        return _legendre_planes(x, k)
    return (np.asarray(f(x), dtype=float) for f in basis.components[:k])


def eval_basis(basis: OrthonormalBasis, j: int, x) -> np.ndarray:
    """Evaluate b_j at points x in [0, 1].

    ``j`` is one-based and must not exceed ``basis.max_degree``; points
    outside the unit interval raise ValueError rather than silently
    extrapolating, because every downstream statistic assumes the null
    has been transformed to Uniform[0, 1] first.
    """
    if not 1 <= j <= basis.max_degree:
        raise ValueError(f"degree j={j} outside 1..{basis.max_degree}")
    scalar = np.ndim(x) == 0
    x = _check_domain(x)
    if basis.kind == "legendre":
        *_, vals = _legendre_planes(x, j)
    else:
        vals = np.asarray(basis.components[j - 1](x), dtype=float)
    return float(vals) if scalar else vals


def design_matrix(basis: OrthonormalBasis, x, k: int) -> np.ndarray:
    """The n-by-k matrix with entries b_j(x_i), j = 1..k.

    This is the score matrix for a sample already transformed to the
    unit interval; row i is the k-vector of score components at x_i.
    """
    x = np.atleast_1d(x)
    planes = _score_planes(basis, x, k)
    out = np.empty(x.shape + (k,))
    for j, plane in enumerate(planes):
        out[..., j] = plane
    return out


def score_sums(basis: OrthonormalBasis, x, k: int) -> np.ndarray:
    """Score sums sum_i b_j(x_i), j = 1..k, of each sample in x.

    ``x`` holds samples along its last axis, (..., n), and the result is
    (..., k).  The scores are formed one degree at a time and summed by
    :func:`_sum_planes`, so the sums equal ``np.add.reduce`` over the
    contiguous columns of :func:`design_matrix`.  No (..., n, k) array
    is formed.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 1:
        raise ValueError("score sums need samples along a last axis")
    return _sum_planes(_score_planes(basis, x, k), x.shape[:-1], k)


def _sum_planes(planes, lead: tuple[int, ...], k: int) -> np.ndarray:
    """(*lead, k) sums of k score planes, each (*lead, n), along their last axis.

    This is the summation rule of every kind's score sums: each degree
    is summed by NumPy's pairwise sum along one sample's contiguous row,
    so a sample's sums do not depend on the samples beside it and any
    block size gives the same bits.
    """
    out = np.empty(lead + (k,))
    for j, plane in enumerate(planes):
        np.add.reduce(np.ascontiguousarray(plane), axis=-1, out=out[..., j])
    return out


@functools.lru_cache(maxsize=32, typed=True)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``nodes``-point Gauss-Legendre rule (t, w) on [-1, 1].

    Computed once per node count and handed out read-only, since every
    caller shares the same two arrays.
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def gram_matrix(basis: OrthonormalBasis, k: int, nodes: int = 200) -> np.ndarray:
    """Gram matrix of (1, b_1, ..., b_k) in L2([0,1]) by Gauss-Legendre.

    Row/column 0 corresponds to the constant function, so an orthonormal
    score system must produce the identity matrix here: the first row
    checks zero means, the rest checks orthonormality.  ``nodes`` points
    integrate polynomial products exactly up to degree 2*nodes - 1.
    """
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    t, w = _gauss_legendre(nodes)
    x = 0.5 * (t + 1.0)
    w = 0.5 * w
    cols = np.column_stack([np.ones_like(x), design_matrix(basis, x, k)])
    return (cols * w[:, None]).T @ cols


# Gauss-Legendre nodes of a user basis's Gram check, and the largest
# deviation from the identity it accepts.
_USER_NODES = 256
_USER_TOL = 1e-8


def user_basis(components: Sequence[Callable]) -> OrthonormalBasis:
    """Wrap user-supplied score functions, verifying orthonormality.

    Every component must be a vectorized callable on [0, 1].  The
    augmented Gram matrix (constant function included) is computed with
    _USER_NODES-point Gauss-Legendre quadrature and compared to the
    identity; any entry off by more than _USER_TOL is a hard error.
    """
    basis = OrthonormalBasis(
        kind="user_supplied",
        max_degree=len(components),
        components=tuple(components),
    )
    g = gram_matrix(basis, basis.max_degree, nodes=_USER_NODES)
    err = np.max(np.abs(g - np.eye(g.shape[0])))
    if err > _USER_TOL:
        raise ValueError(
            f"supplied system is not orthonormal on [0, 1]: "
            f"max Gram deviation {err:.3e} exceeds {_USER_TOL:.1e}"
        )
    return basis


def sup_norm_bound(k: int) -> float:
    """Envelope constant M(k) for the score vector of dimension k.

    For k >= 2 this is sqrt((k - 1)(k + 3)), the supremum over [0, 1]
    of the Euclidean norm of (b_2, ..., b_k), attained at the endpoints
    where b_j = sqrt(2j + 1).  For k = 1 it is sup |b_1| = sqrt(3).
    The constant feeds the validity windows of the finite-sample tail
    bounds, which degrade as M(k) y / sqrt(n) grows.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return math.sqrt(3.0)
    return math.sqrt((k - 1.0) * (k + 3.0))
