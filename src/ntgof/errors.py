"""Exception types shared across the package.

The split matters operationally: callers (and the command line driver)
treat malformed *inputs* differently from *numeric* failures discovered
mid-computation, and both differently from evaluating a bound outside
its stated validity window.
"""

from __future__ import annotations

__all__ = [
    "InputError",
    "NumericError",
    "SingularMatrixError",
    "ScoreMeanError",
    "WindowViolationError",
]


class InputError(ValueError):
    """Malformed user input: bad CSV row, unknown flag value, bad config."""


class NumericError(RuntimeError):
    """A computation failed numerically (ill-conditioning, divergence)."""


class SingularMatrixError(NumericError):
    """Second-moment matrix is singular or effectively so; no normalizing
    matrix exists at the requested dimension.  ``max_dimension``, when
    known, is the largest leading dimension at which one does."""

    max_dimension: int | None = None


class ScoreMeanError(NumericError):
    """Empirical mean of a score component is too many standard errors from
    zero: the sampler and the score system do not describe the same null."""


class WindowViolationError(ValueError):
    """A tail bound was requested outside the (k, y, n) region where it is
    valid.  Deliberately distinct from NumericError: the number could be
    computed, it just would not mean anything."""
