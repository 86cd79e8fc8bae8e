"""Spans recorded from the benchmark's own files around ntgof's layers.

The package looks its collaborators up as module globals at call time
(``run_test`` in ``ntgof.montecarlo``, ``design_matrix`` in
``ntgof.catalog``, ...), so replacing those attributes with timing
wrappers puts a span at every layer boundary without touching the
package.  A target that a later version deletes or renames is reported
as absent, never raised.

Spans are kept in memory per thread as (name, parent index, start, end,
rows) and reduced to the per-layer metrics when the run ends.  A
layer's self time is its duration minus the time its direct child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time

# (module, attribute, layer, how).  ``factory`` wraps the callable the
# target returns; ``rows`` also counts the rows of the x argument.
TARGETS = (
    ("ntgof.montecarlo", "substream", "rng.substream", "call"),
    ("ntgof.statistics", "substream", "rng.substream", "call"),
    ("ntgof.montecarlo", "null_sampler", "catalog.sample", "factory"),
    ("ntgof.montecarlo", "run_test", "catalog.run_test", "call"),
    ("ntgof.catalog", "design_matrix", "basis.design_matrix", "rows"),
    ("ntgof.catalog", "select_dimension", "selection.select_dimension", "call"),
    ("ntgof.catalog", "information_blocks", "catalog.information_blocks", "call"),
    ("ntgof.catalog", "snt_statistic", "statistics.series", "call"),
    ("ntgof.catalog", "nt_series", "statistics.series", "call"),
    ("ntgof.catalog", "nt_statistic", "statistics.series", "call"),
    ("ntgof.catalog", "deconvolution_score", "catalog.deconvolution_score", "call"),
    ("ntgof.catalog", "_DeconvScoreTable", "catalog.artifact_build", "call"),
    ("ntgof.catalog", "_numeric_information_blocks", "catalog.artifact_build", "call"),
    ("ntgof.catalog", "estimate_moment_matrix", "statistics.estimate_moment_matrix", "call"),
    ("ntgof.cli", "dump_report", "cli.dump_report", "call"),
    ("ntgof.cli", "run_test", "cli.run_test", "call"),
    ("ntgof.cli", "null_distribution", "cli.null_distribution", "call"),
)

# The span the benchmark opens around its own Monte Carlo call; in the
# CLI that role falls to cli.null_distribution.
TOP = "montecarlo.call"

# name -> (unit, better, e2e metric and workload it should move)
LAYER_METRICS = {
    "rng.substream.calls": ("count", "lower", "reps_per_s on calib-composite; negligible on cli-deconvolution-cold"),
    "rng.substream.s": ("s", "lower", "reps_per_s on calib-composite"),
    "rng.substream.p50_us": ("us", "lower", "reps_per_s on calib-composite"),
    "rng.substream.p99_us": ("us", "lower", "reps_per_s on calib-composite"),
    "catalog.sample.calls": ("count", "lower", "reps_per_s on calib-composite"),
    "catalog.sample.s": ("s", "lower", "reps_per_s on calib-composite"),
    "basis.design_matrix.calls": ("count", "lower", "reps_per_s on calib-composite"),
    "basis.design_matrix.s": ("s", "lower", "reps_per_s on calib-composite"),
    "basis.design_matrix.rows": ("count", "lower", "reps_per_s on calib-composite"),
    "selection.select_dimension.calls": ("count", "lower", "reps_per_s on calib-composite"),
    "selection.select_dimension.s": ("s", "lower", "reps_per_s on calib-composite"),
    "catalog.run_test.calls": ("count", "lower", "reps_per_s on calib-composite"),
    "catalog.run_test.s": ("s", "lower", "reps_per_s on calib-composite"),
    "catalog.run_test.self_s": ("s", "lower", "reps_per_s on calib-composite (fit, CDF and per-k weights)"),
    "catalog.run_test.p50_us": ("us", "lower", "reps_per_s on calib-composite"),
    "catalog.run_test.p99_us": ("us", "lower", "reps_per_s on calib-composite"),
    "catalog.information_blocks.calls": ("count", "lower", "reps_per_s on calib-composite"),
    "catalog.information_blocks.s": ("s", "lower", "reps_per_s on calib-composite"),
    "statistics.series.calls": ("count", "lower", "reps_per_s on calib-composite and cli-deconvolution-cold"),
    "statistics.series.s": ("s", "lower", "reps_per_s on calib-composite and cli-deconvolution-cold"),
    "catalog.deconvolution_score.calls": ("count", "lower", "setup_s and wall_s on cli-deconvolution-cold; zero on calib-composite"),
    "catalog.artifact_build_s": ("s", "lower", "setup_s and wall_s on cli-deconvolution-cold; small on calib-composite (its information blocks only)"),
    "statistics.estimate_moment_matrix.calls": ("count", "lower", "setup_s on cli-deconvolution-cold"),
    "statistics.estimate_moment_matrix.s": ("s", "lower", "setup_s on cli-deconvolution-cold"),
    "import.ntgof_s": ("s", "lower", "setup_s on every workload"),
    "import.scipy_stats_s": ("s", "lower", "setup_s on every workload"),
    "cli.dump_report.s": ("s", "lower", "wall_s on cli-deconvolution-cold (predicted to stay small)"),
    "cli.run_test.s": ("s", "lower", "wall_s on cli-deconvolution-cold"),
    "cli.null_distribution.s": ("s", "lower", "wall_s on cli-deconvolution-cold"),
    "montecarlo.serial_wall_s": ("s", "lower", "wall_s on every Monte Carlo workload"),
    "montecarlo.speedup_vs_serial": ("ratio", "higher", "wall_s on every Monte Carlo workload"),
    "montecarlo.unattributed_s": ("s", "lower", "wall_s on every Monte Carlo workload"),
    "trace.overhead_ratio": ("ratio", "lower", "none: cost of the traced run itself"),
    "trace.absent_targets": ("count", "lower", "none: wrap targets the package no longer has"),
}


class Recorder:
    """In-memory span store; one span list per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lists = []
        self._lock = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # spans, open-span stack
            with self._lock:
                self._lists.append(state[0])
        return state

    @contextlib.contextmanager
    def span(self, name: str, rows: int = 0):
        spans, stack = self._state()
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, parent, start, end, rows)

    def wrap(self, name: str, fn, count_rows: bool = False):
        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            rows = _size(args[1]) if count_rows and len(args) > 1 else 0
            with self.span(name, rows):
                return fn(*args, **kwargs)

        return wrapper

    def wrap_factory(self, name: str, factory):
        @functools.wraps(factory, updated=())
        def wrapper(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return wrapper

    def spans(self) -> list:
        with self._lock:
            return [list(s) for s in self._lists]


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) else 1
    return len(x)


@contextlib.contextmanager
def installed(recorder: Recorder, targets=TARGETS):
    """Wrap every target that exists; yield the list of absent ones.

    Originals are restored on exit.
    """
    saved = []
    absent = []
    try:
        for module_name, attr, layer, how in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                absent.append(f"{module_name}.{attr}")
                continue
            if how == "factory":
                wrapped = recorder.wrap_factory(layer, original)
            else:
                wrapped = recorder.wrap(layer, original, count_rows=how == "rows")
            saved.append((module, attr, original))
            setattr(module, attr, wrapped)
        yield absent
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# reduction


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty one)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_stats(span_lists: list) -> dict:
    """name -> {calls, s, self_s, rows, durations (ascending)}."""
    stats = {}
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, parent, start, end, rows in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, parent, start, end, rows) in enumerate(spans):
            entry = stats.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0, "durations": []}
            )
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["rows"] += rows
            entry["durations"].append(end - start)
    for entry in stats.values():
        entry["durations"].sort()
    return stats


def layer_metrics(stats: dict, top: str) -> dict:
    """The span-derived per-layer metrics; layers that did not run read 0."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0, "durations": []}

    def get(name):
        return stats.get(name, empty)

    out = {}
    for layer in ("rng.substream", "catalog.run_test"):
        entry = get(layer)
        out[f"{layer}.calls"] = entry["calls"]
        out[f"{layer}.s"] = entry["s"]
        out[f"{layer}.p50_us"] = 1e6 * percentile(entry["durations"], 50)
        out[f"{layer}.p99_us"] = 1e6 * percentile(entry["durations"], 99)
    out["catalog.run_test.self_s"] = get("catalog.run_test")["self_s"]
    for layer in (
        "catalog.sample",
        "basis.design_matrix",
        "selection.select_dimension",
        "catalog.information_blocks",
        "statistics.series",
        "statistics.estimate_moment_matrix",
    ):
        out[f"{layer}.calls"] = get(layer)["calls"]
        out[f"{layer}.s"] = get(layer)["s"]
    out["basis.design_matrix.rows"] = get("basis.design_matrix")["rows"]
    out["catalog.deconvolution_score.calls"] = get("catalog.deconvolution_score")["calls"]
    out["catalog.artifact_build_s"] = (
        get("catalog.artifact_build")["s"] + get("statistics.estimate_moment_matrix")["s"]
    )
    for layer in ("cli.dump_report", "cli.run_test", "cli.null_distribution"):
        out[f"{layer}.s"] = get(layer)["s"]
    out["montecarlo.unattributed_s"] = get(top)["self_s"]
    return out


def parse_importtime(stderr: str) -> dict:
    """name -> (self s, cumulative s) from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        try:
            self_us, cumulative_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the header line
        out[parts[2].strip()] = (self_us / 1e6, cumulative_us / 1e6)
    return out


def import_metrics(stderr: str) -> dict:
    """import.ntgof_s: cumulative time of ``import ntgof``.

    import.scipy_stats_s: self time of scipy.stats and its submodules
    (the importer does not list scipy.stats itself when it is reached
    through scipy's lazy attribute access, so its cumulative time is
    not available).
    """
    times = parse_importtime(stderr)
    return {
        "import.ntgof_s": times.get("ntgof", (0.0, 0.0))[1],
        "import.scipy_stats_s": sum(
            own for name, (own, _) in times.items()
            if name == "scipy.stats" or name.startswith("scipy.stats.")
        ),
    }
