"""Monte Carlo calibration, power curves, and diagnostic probes.

The selected-dimension statistic T_S has no usable closed-form null
distribution at finite n (the selector S is itself random), so critical
values and p-values come from simulation: draw null datasets, run the
full data-driven test on each, and read quantiles off the empirical
distribution of T_S.  The p-value uses the add-one estimator

    p = (1 + #{simulated T_S >= observed}) / (replications + 1),

which is exact-level for any replication count, and the critical value
at level alpha is the ceil((1 - alpha) * reps)-th order statistic,
with alpha the decimal it prints as and the product taken exactly.

Each run first prepares its (spec, n) plan in the calling process
(sample shape, d(n), penalties, artifact slices, a shared covariance's
factor), so a failure there raises before replication 0, untagged.
Replications then run in blocks of at most _BLOCK rows and _BLOCK_OBS
observations.  Block by block, a process draws each replication's
sample from its own Philox stream, the one
``SeedSequence(entropy=seed, spawn_key=(*path, i))`` starts for
replication i, into one buffer shaped by the plan (a sample of another
shape fails its replication), and runs the plan's test once on the
block, for its series.  The calling process derives the run's stream
keys, in index order, before it forks a worker.  The two claim blocks
from both ends, the calling process upward from block 0 and the worker
downward from the last: each sets a block's claimed byte in an
anonymous shared map before it draws the block, and stops at the first
block the other has claimed, so the faster process runs more blocks
and neither waits on the other.  Each slices its blocks' keys from the
table, and one reused Generator moved to each key in turn serves every
row (:class:`KeyedStreams`), so a sampler must take every draw it needs
from its generator before it returns.  When drawing
or testing a block fails, or its series is not finite, its replications
are drawn and tested again one at a time, and the first that fails
alone is raised with its own type, tagged with its index; a sampler
depends only on its generator and n, so that is the lowest failing
replication.  Both processes write each row's series by index into the
shared map and mark each block they finish done; the calling process
then runs, in index order, every block not marked done, so every
failure is raised there, as a one-by-one run would report it, and then
selects S once for every row.  The worker is killed if the caller's
blocks raise and reaped on every path.  A run of one block, a platform
without ``os.fork``, a fork that fails and a process with other Python
threads alive (a fork could deadlock on a lock one of them holds) run
every block in the calling process instead.  Which process runs a
block depends on timing: at worst both run the block where they meet,
and they write the same bytes, and a worker that starts late or dies
leaves its blocks to the calling process's final pass.  Only a
sampler's side effects can show any of this: samplers of the worker's
blocks run in a forked copy of the process, so their side effects stay
there.  Every row's numbers are those it would give alone, so any block
size and either process produce byte-identical output.
Power studies additionally split the seed path: calibration replications
and alternative replications never share a stream, so evaluating power
does not silently recycle the noise that built the critical value.

Two probes back the asymptotics with finite-sample evidence.  The
consistency probe tracks P(S >= K) and the median T_S along a sample
size grid under a fixed alternative whose first excited score direction
is K: a working selector pushes the selected dimension up to K and the
statistic through any fixed critical value.  The tail-rate probe checks
the large-deviation behaviour of bounded i.i.d. means against the
reference rate exp(-n y^2 / (2 sigma)): empirical tails must fall at
least geometrically along a doubling n-grid.  Both run their
replications on the block engine, as calibration and power do.
"""

from __future__ import annotations

import errno
import functools
import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._rng import KeyedStreams
from .basis import _integer
from .catalog import AlternativeSpec, TestSpec, _Plan, _prepare, null_sampler
from .selection import SelectionOutcome, _select

__all__ = [
    "MonteCarloConfig",
    "CalibrationResult",
    "PowerPoint",
    "PowerCurveResult",
    "ProbeResult",
    "null_distribution",
    "p_value",
    "power_curve",
    "consistency_probe",
    "tail_rate_probe",
]


@dataclass(frozen=True)
class MonteCarloConfig:
    """Replication budget, seed, level, and (for curves) the n-grid."""

    replications: int
    seed: int
    alpha: float = 0.05
    n_grid: tuple[int, ...] = ()

    def __post_init__(self):
        _integer("seed", self.seed, 0)
        if _integer("replications", self.replications, 100) > 2**32:  # a stream index each
            raise ValueError(f"replications must be at most 2**32, got {self.replications!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        grid = tuple(_integer("n_grid size", n, 2) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")


# Each result's fields are its report's keys: the CLI writes
# ``dataclasses.asdict(result)`` plus the keys that describe the run, so a
# result holds only what its report prints.


@dataclass(frozen=True)
class CalibrationResult:
    """Simulated null distribution of T_S at one sample size."""

    n: int
    alpha: float
    replications: int
    seed: int
    critical_value: float
    statistics: np.ndarray  # sorted ascending
    s_counts: np.ndarray  # s_counts[k-1] = #{replications with S == k}


def _tag_replication(e: Exception, i: int) -> None:
    """Prefix an in-flight exception's message with the replication index.

    An OSError with an errno prints its errno and strerror, not its
    arguments, so the index leads its strerror and its arguments stay.
    """
    head = f"replication {i}: "
    if isinstance(e, OSError) and e.errno is not None:
        e.strerror = f"{head}{e.strerror}"
    elif e.args and isinstance(e.args[0], str):
        e.args = (head + e.args[0],) + e.args[1:]
    else:
        e.args = (head.rstrip(": "),) + e.args


# Replications per block.  Blocks of 64 ran as fast as blocks of 128 and
# faster than 256 at n = 500, at a lower peak memory.  A block's arrays
# hold (rows, n) floats, so at large n its rows shrink to keep its
# observations within _BLOCK_OBS.  Results do not depend on either.
_BLOCK = 64
_BLOCK_OBS = 2**15


def _draw(sampler, n: int, streams: KeyedStreams, keys: list, out: np.ndarray) -> np.ndarray:
    """Draw one sample per stream key into ``out``'s rows; the view of the rows drawn.

    A sample shaped unlike ``out``'s rows raises a ValueError.
    """
    for j, key in enumerate(keys):
        x = sampler(streams.at(key), n)
        if np.shape(x) != out.shape[1:]:
            raise ValueError(
                f"sampler drew shape {np.shape(x)} for n={n}; the test takes {out.shape[1:]}"
            )
        out[j] = x
    return out[: len(keys)]


def _run_blocks(plan: _Plan, sampler, streams: KeyedStreams, rows: int, series, done, firsts):
    """Draw and test the blocks of replications starting at ``firsts``, in that order.

    Block k holds replications [k * rows, min((k + 1) * rows, len(series))).
    A block's series fills its rows of ``series``, and then ``done[k]`` is
    set.  When drawing or testing a block fails, or its series is not
    finite, its replications are drawn and tested again one at a time, and
    the first that fails alone is raised, tagged with its index; if none
    does, the block's own failure is raised untagged.
    """
    n = plan.shape[0]
    buffer = np.empty((rows,) + plan.shape)

    def test(keys):
        out = plan.test(_draw(sampler, n, streams, keys, buffer))
        if not np.all(np.isfinite(out)):
            raise ValueError("series contains non-finite values")
        return out

    for start in firsts:
        keys = streams.keys[start : start + rows].tolist()
        try:
            series[start : start + len(keys)] = test(keys)
        except Exception:
            for i, key in enumerate(keys):
                try:
                    test([key])
                except Exception as first:
                    _tag_replication(first, start + i)
                    raise
            raise
        done[start // rows] = 1


def _fork() -> int | None:
    """os.fork(), or None where it is missing, fails or other threads are alive.

    A process forked while another thread holds a lock (the import lock,
    an allocator's) can deadlock in the child, so only a process with
    one Python thread forks.
    """
    if threading.active_count() > 1 or not hasattr(os, "fork"):
        return None
    try:
        return os.fork()
    except OSError:
        return None


def _reap(pid: int) -> None:
    """Wait for the worker to exit."""
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:  # SIGCHLD is ignored, so the kernel reaped it on exit
        pass


def _stop(pid: int) -> None:
    """Kill the worker and reap it."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # SIGCHLD is ignored, and it exited and was reaped
        pass
    _reap(pid)


def _replicate(
    plan: _Plan,
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    reps: int,
    seed: int,
    path: tuple[int, ...],
) -> SelectionOutcome:
    """The selection over the series of ``reps`` replications of the plan's test.

    Replication i tests ``sampler(rng, n)``, n the plan's sample size,
    with rng in the state a Philox on
    ``SeedSequence(entropy=seed, spawn_key=(*path, i))`` starts in; one
    generator serves every row, so the sampler must have drawn all it
    needs when it returns.  This process claims blocks upward from
    block 0 and a forked worker downward from the last, each up to the
    first block the other has claimed, both into an anonymous shared
    map; which runs a block depends on timing, both may run the one
    where they meet, and only a sampler's side effects can tell.  This
    process then runs, in index order, every block not marked done (all
    of them without a worker), so every failure is raised here, and
    selects S once for every row.  The worker is killed if this
    process's blocks raise, and reaped before it returns or raises.
    """
    rows = max(1, min(_BLOCK, _BLOCK_OBS // plan.shape[0]))
    blocks = -(-reps // rows)
    # 8 d bytes of series a replication (96 MB at 10^6 and d = 12), then a
    # done byte and a claimed byte a block
    size = 8 * reps * plan.penalties.size + 2 * blocks
    try:
        shared = mmap.mmap(-1, size)
    except OSError as e:
        if e.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map {size} bytes for the series of {reps} replications") from e
    series = np.frombuffer(shared, float, reps * plan.penalties.size).reshape(reps, -1)
    done, claimed = np.frombuffer(shared, np.uint8, 2 * blocks, series.nbytes).reshape(2, -1)
    streams = KeyedStreams(seed, path, reps)  # every key, hashed once, before the fork

    def claim(order):
        """The first replication of each block in ``order``, up to the first block claimed.

        Check and set are two steps, so both may claim the block where they meet.
        """
        for k in order:
            if claimed[k]:
                return
            claimed[k] = 1
            yield k * rows

    run = functools.partial(_run_blocks, plan, sampler, streams, rows, series, done)
    pid = _fork() if blocks > 1 else None
    if pid == 0:  # the worker; it leaves without running the caller's code
        try:
            run(claim(range(blocks - 1, -1, -1)))
        finally:
            os._exit(0)
    if pid:
        try:
            try:
                run(claim(range(blocks)))
            except Exception:
                _stop(pid)  # the pass below reports the lowest failure
            else:
                _reap(pid)
        except BaseException:  # interrupted, as by KeyboardInterrupt
            _stop(pid)
            raise
    run([k * rows for k in np.flatnonzero(done == 0).tolist()])
    return _select(series.copy(), plan.penalties)


def _order_index(alpha: float, reps: int) -> int:
    """ceil((1 - alpha) * reps), exactly, for alpha the decimal its repr shows.

    In floats, (1 - 0.059) * 1000 is 941.0000000000001, one order
    statistic too high.  The fractions module would cost cold start 4 ms.
    """
    digits, _, exp = repr(float(alpha)).partition("e")
    whole, _, frac = digits.partition(".")
    scale = 10 ** (len(frac) - int(exp or 0))
    return -((int(whole + frac) - scale) * reps // scale)  # alpha = int(whole + frac) / scale


def _calibrate(spec: TestSpec, plan: _Plan, config: MonteCarloConfig, path: tuple[int, ...]):
    """(sorted T_S, S, critical value) of null replications on the streams (seed, *path, .)."""
    out = _replicate(plan, null_sampler(spec), config.replications, config.seed, path)
    t = np.sort(out.t_s)
    return t, out.s, float(t[_order_index(config.alpha, config.replications) - 1])


def null_distribution(
    spec: TestSpec,
    n: int,
    config: MonteCarloConfig,
) -> CalibrationResult:
    """Simulate the null distribution of T_S and its alpha critical value.

    Replication i draws from the stream (seed, 0, i); the returned
    statistics are sorted ascending and the critical value is the
    ceil((1 - alpha) * reps)-th order statistic, the product taken
    exactly for alpha the decimal it prints as.
    """
    plan = _prepare(spec, n)
    t, s, crit = _calibrate(spec, plan, config, (0,))
    return CalibrationResult(
        n=n,
        alpha=config.alpha,
        replications=config.replications,
        seed=config.seed,
        critical_value=crit,
        statistics=t,
        s_counts=np.bincount(s, minlength=plan.penalties.size + 1)[1:],
    )


def p_value(observed: float, calibration: CalibrationResult) -> float:
    """Add-one Monte Carlo p-value of an observed T_S."""
    if not math.isfinite(observed):
        raise ValueError("observed statistic must be finite")
    stats = calibration.statistics
    count = stats.size - int(np.searchsorted(stats, observed, side="left"))
    return (1.0 + count) / (calibration.replications + 1.0)


@dataclass(frozen=True)
class PowerPoint:
    n: int
    critical_value: float
    rejection_rate: float


@dataclass(frozen=True)
class PowerCurveResult:
    alternative: str
    alpha: float
    replications: int
    seed: int
    points: tuple[PowerPoint, ...]


def power_curve(
    spec: TestSpec,
    alternative: AlternativeSpec,
    config: MonteCarloConfig,
) -> PowerCurveResult:
    """Rejection rate of the calibrated test along the n-grid.

    At each grid size the critical value is calibrated on the stream
    family (seed, gi, 0, .) and the alternative replications use
    (seed, gi, 1, .): disjoint streams by construction, tested by the
    one plan prepared for n.  A replication rejects when its T_S exceeds
    the calibrated critical value.
    """
    if not config.n_grid:
        raise ValueError("config.n_grid must be non-empty for a power curve")
    points = []
    for gi, n in enumerate(config.n_grid):
        plan = _prepare(spec, n)
        crit = _calibrate(spec, plan, config, (gi, 0))[2]
        t_alt = _replicate(plan, alternative.sampler, config.replications, config.seed, (gi, 1)).t_s
        points.append(
            PowerPoint(
                n=n,
                critical_value=crit,
                rejection_rate=float(np.mean(t_alt > crit)),
            )
        )
    return PowerCurveResult(
        alternative=alternative.name,
        alpha=config.alpha,
        replications=config.replications,
        seed=config.seed,
        points=tuple(points),
    )


@dataclass(frozen=True)
class ProbeResult:
    probe: str
    passed: bool
    rows: tuple[dict, ...]  # one {"n": n, ...} per grid size
    detail: str = ""


def consistency_probe(
    spec: TestSpec,
    alternative: AlternativeSpec,
    config: MonteCarloConfig,
    threshold: float = 0.8,
) -> ProbeResult:
    """Track P(S >= K) and median T_S along the n-grid under an alternative.

    K is the alternative's first excited score direction.  The probe
    passes when P(S >= K) is non-decreasing along the grid and reaches
    at least ``threshold`` at the largest size -- the observable
    footprint of the selector eventually looking far enough to see the
    alternative.  ``threshold`` lies in (0, 1].
    """
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold!r}")
    if not config.n_grid:
        raise ValueError("config.n_grid must be non-empty for a probe")
    if alternative.first_component is None:
        raise ValueError("alternative must declare its first excited component K")
    k = alternative.first_component
    rows = []
    p_track = []
    med_track = []
    for gi, n in enumerate(config.n_grid):
        out = _replicate(
            _prepare(spec, n), alternative.sampler, config.replications, config.seed, (gi, 1)
        )
        p_k = float(np.mean(out.s >= k))
        med = float(np.median(out.t_s))
        p_track.append(p_k)
        med_track.append(med)
        rows.append({"n": n, "p_s_ge_k": p_k, "median_t_s": med})
    monotone_p = all(b >= a for a, b in zip(p_track, p_track[1:]))
    monotone_med = all(b >= a for a, b in zip(med_track, med_track[1:]))
    final_ok = p_track[-1] >= threshold
    detail = (
        f"P(S >= {k}) along grid: {[round(p, 4) for p in p_track]}; "
        f"median T_S: {[round(m, 3) for m in med_track]}; threshold {threshold:g}"
    )
    return ProbeResult(
        probe="consistency",
        passed=monotone_p and monotone_med and final_ok,
        rows=tuple(rows),
        detail=detail,
    )


def tail_rate_probe(
    draw: Callable[[np.random.Generator, int], np.ndarray],
    mean: float,
    sigma: float,
    y: float,
    n_grid: Sequence[int],
    replications: int,
    seed: int,
    factor: float = 2.0,
) -> ProbeResult:
    """Empirical large-deviation tails of a bounded i.i.d. mean.

    For each n in the grid, estimates P(|mean_n - mean| >= y) over
    ``replications`` independent streams (seed, grid index, i), each
    consumed by ``draw`` within its call, and reports it next to the
    reference rate exp(-n y^2 / (2 sigma)).  Passes when each successive
    tail is at most the previous divided by ``factor``, finite and > 0
    (with a doubling grid: tails at least halve), zeros allowed once the
    tail has died.  Each draw must be n values, shape (n,).  The draws
    run on the block engine as the one-term series T_1 = |mean_n - mean|,
    with a zero penalty, so a failing or non-finite draw raises tagged
    with its replication, and ``draw`` runs in a forked worker for the
    blocks it claims, whose side effects stay there.
    """
    ns = [_integer("n_grid size", n, 1) for n in n_grid]
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_grid must hold at least 2 strictly increasing sizes")
    config = MonteCarloConfig(replications, seed)
    if not math.isfinite(mean):
        raise ValueError(f"mean must be finite, got {mean!r}")
    if not 0 <= y < math.inf:
        raise ValueError(f"y must be finite and >= 0, got {y!r}")
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
    if not 0 < factor < math.inf:
        raise ValueError(f"factor must be finite and > 0, got {factor!r}")
    test = lambda block: np.abs(block.mean(axis=-1, keepdims=True) - mean)
    rows = []
    tails = []
    for gi, n in enumerate(ns):
        plan = _Plan((n,), np.zeros(1), test)
        t = _replicate(plan, draw, config.replications, config.seed, (gi,)).t_s
        tail = float(np.mean(t >= y))
        tails.append(tail)
        rows.append({"n": n, "tail": tail, "reference_rate": math.exp(-n * y * y / (2.0 * sigma))})
    ok = all(b <= a / factor for a, b in zip(tails, tails[1:]))
    detail = f"tails along grid: {tails}; required decay factor {factor:g}"
    return ProbeResult(probe="tail_rate", passed=ok, rows=tuple(rows), detail=detail)
