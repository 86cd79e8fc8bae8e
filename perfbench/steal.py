"""Steal time: CPU time the hypervisor gave this machine's CPUs to others.

On a shared virtual machine, stretches of high steal time slow the
benchmark's two-thread Monte Carlo loop by up to a third, while the
program does the same work.  Each timed Monte Carlo call therefore
records the share of CPU time stolen while it ran, read from the first
line of ``/proc/stat``, and an end-to-end rate or call time is the
median of the calls taken with the least steal: those whose share is
at most FLOOR or at most the run's median share, so at least half of
them are always kept, and all of them when steal stays low.  Where
``/proc/stat`` has no steal column every share reads 0 and every call
is kept.
"""

from __future__ import annotations

# Steal shares up to this one leave the loop's speed within its usual
# call-to-call noise; calls that saw more are the ones set aside.
FLOOR = 0.02


def snapshot():
    """(steal, total) clock ticks of all CPUs so far, or None if unknown."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    # user nice system idle iowait irq softirq steal; guest time is
    # already counted in user and nice.
    ticks = [int(x) for x in fields[1:9]]
    return [ticks[7], sum(ticks)]


def share(before, after) -> float:
    """Share of CPU time stolen between two snapshots (0 if unknown)."""
    if before is None or after is None:
        return 0.0
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def least_stolen(samples: list) -> list:
    """Values of the (value, share) samples stolen from no more than
    FLOOR or the median share, whichever is larger."""
    shares = sorted(s for _, s in samples)
    cut = max(FLOOR, shares[(len(shares) - 1) // 2])
    return [v for v, s in samples if s <= cut]
