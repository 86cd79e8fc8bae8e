"""Comparison of program outputs with the recorded reference.

Floats may drift by 1e-9 relative (a refactor that reorders a sum moves
the last bits); integers such as S and ``s_counts``, and strings such as
the CLI's decision, must match exactly.
"""

from __future__ import annotations

RTOL = 1e-9


def mismatches(expected, actual, path: str = "") -> list:
    """Human-readable differences between two JSON-like values."""
    where = path or "value"
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if expected is actual else [f"{where}: expected {expected!r}, got {actual!r}"]
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or not isinstance(expected, (int, float)):
            return [f"{where}: expected {expected!r}, got {actual!r}"]
        if abs(actual - expected) <= RTOL * abs(expected):
            return []
        return [f"{where}: expected {expected!r}, got {actual!r}"]
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: expected keys {sorted(expected)}, got {actual!r}"]
        out = []
        for key in sorted(expected):
            out += mismatches(expected[key], actual[key], f"{path}.{key}" if path else key)
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected {expected!r}, got {actual!r}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, f"{where}[{i}]")
        return out
    return [] if expected == actual else [f"{where}: expected {expected!r}, got {actual!r}"]


class Tally:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label: str, expected, actual) -> bool:
        """Count one operation; ``actual`` None means it raised or exited nonzero."""
        self.attempted += 1
        if actual is None:
            bad = [f"{label}: no output"]
        else:
            bad = [f"{label}: {m}" for m in mismatches(expected, actual)]
        if bad:
            self.failed += 1
            self.problems += bad
        return not bad

    def fail(self, label: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{label}: {reason}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
