"""Processes the benchmark starts; each prints one JSON object as its last line.

    python3 child.py setup   <workload> <slot>
        Fresh interpreter: time ``import ntgof`` plus the first
        ``run_test`` on a freshly built spec.
    python3 child.py measure <workload> <slot> <seconds>
        One set-up sample as above, then calls at the worker count the
        environment gives (the package default unless NTGOF_THREADS is
        set).  Calls alternate between a freshly built spec (wall_s) and
        the spec of the first call, whose artifacts then exist (the
        replication rate); they go on until the next call would overrun
        the given seconds, with at least one call of each kind.  Each
        sample is [seconds, steal share] (see steal.py).
    python3 child.py trace   <workload> <slot>
        A throwaway serial call that absorbs the process's one-off
        first-call costs, then an untraced call at the environment's
        worker count, an untraced serial call and a traced serial call;
        reports the per-layer metrics.
    python3 child.py cli <calls|warm|full> <spans.json> <ntgof argv...>
        Run ``python -m ntgof`` in this process with wrappers installed,
        then write the span summary to spans.json.  ``calls`` wraps only
        the CLI's two calls: run_test, which builds the artifacts, and
        null_distribution, which then runs on the warm spec.  ``warm``
        also repeats that calibration WARM_CALLS times once the CLI is
        done, for more replication-rate samples.  ``full`` wraps every
        target.  ``post_s`` is the time spent after the CLI returned,
        which the orchestrator takes off the process wall.

The benchmark's orchestrator (run.py) puts the checkout's ``src`` on
PYTHONPATH; every mode checks that ``ntgof`` really comes from there.
"""

from __future__ import annotations

import json
import os
import resource
import runpy
import sys
import time
import traceback

import steal
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_ntgof():
    import ntgof

    expected = os.path.join(ROOT, "src", "ntgof")
    if os.path.dirname(os.path.abspath(ntgof.__file__)) != expected:
        raise SystemExit(f"ntgof imported from {ntgof.__file__}, expected {expected}")
    return ntgof


def environment() -> dict:
    import numpy
    import scipy

    try:
        from ntgof._rng import resolve_workers

        workers = resolve_workers()
    except ImportError:
        workers = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "ntgof_threads": os.environ.get("NTGOF_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _observed_array(w, slot):
    import numpy as np

    return np.asarray(workloads.observed(w, slot), dtype=float)


def setup(w, slot: int) -> dict:
    t0 = time.perf_counter()
    _import_ntgof()
    t1 = time.perf_counter()
    data = _observed_array(w, slot)
    t2 = time.perf_counter()
    spec = workloads.make_spec(w)
    outcome = workloads.first_test(spec, data)
    t3 = time.perf_counter()
    return {
        "setup_s": (t1 - t0) + (t3 - t2),
        "outcome": outcome,
        "env": environment(),
    }


def measure(w, slot: int, seconds: float) -> dict:
    out = setup(w, slot)
    out.update({"wall_s": [], "warm_s": [], "outputs": []})
    warm = None
    start = time.perf_counter()
    while True:
        fresh = warm is None or len(out["wall_s"]) <= len(out["warm_s"])
        spec = workloads.make_spec(w) if fresh else warm
        before = steal.snapshot()
        t0 = time.perf_counter()
        out["outputs"].append(workloads.calibrate(w, spec, slot))
        t1 = time.perf_counter()
        sample = [t1 - t0, steal.share(before, steal.snapshot())]
        out["wall_s" if fresh else "warm_s"].append(sample)
        warm = warm or spec
        if out["warm_s"] and (t1 - start) + (t1 - t0) > seconds:
            return out


def _serial(fn):
    previous = os.environ.get("NTGOF_THREADS")
    os.environ["NTGOF_THREADS"] = "1"
    try:
        return fn()
    finally:
        if previous is None:
            del os.environ["NTGOF_THREADS"]
        else:
            os.environ["NTGOF_THREADS"] = previous


def _timed_call(w, slot):
    spec = workloads.make_spec(w)
    start = time.perf_counter()
    result = workloads.calibrate(w, spec, slot)
    return result, time.perf_counter() - start


def trace(w, slot: int) -> dict:
    _import_ntgof()
    _serial(lambda: _timed_call(w, slot))
    default_out, default_wall = _timed_call(w, slot)
    serial_out, serial_wall = _serial(lambda: _timed_call(w, slot))

    recorder = tracing.Recorder()

    def traced():
        with tracing.installed(recorder) as absent:
            spec = workloads.make_spec(w)
            with recorder.span(tracing.TOP):
                result = workloads.calibrate(w, spec, slot)
        return result, absent

    traced_out, absent = _serial(traced)
    stats = tracing.layer_stats(recorder.spans())
    metrics = tracing.layer_metrics(stats, tracing.TOP)
    traced_wall = stats[tracing.TOP]["s"]
    metrics.update(
        {
            "montecarlo.serial_wall_s": serial_wall,
            "montecarlo.speedup_vs_serial": serial_wall / default_wall,
            "trace.overhead_ratio": traced_wall / serial_wall,
            "trace.absent_targets": len(absent),
        }
    )
    return {
        "metrics": metrics,
        "absent": absent,
        "env": environment(),
        "traced_wall_s": traced_wall,
        "outputs": {"serial": serial_out, "default": default_out, "traced": traced_out},
    }


CLI_CALLS = ("cli.run_test", "cli.null_distribution")
WARM_CALLS = 1


def cli(mode: str, spans_path: str, argv: list) -> int:
    t0 = time.perf_counter()
    _import_ntgof()
    import_s = time.perf_counter() - t0
    import ntgof.cli

    calibrate = ntgof.cli.null_distribution
    calls = []
    own = []

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        before = steal.snapshot()
        start = time.perf_counter()
        result = calibrate(*args, **kwargs)
        own.append([time.perf_counter() - start, steal.share(before, steal.snapshot())])
        return result

    ntgof.cli.null_distribution = capture
    recorder = tracing.Recorder()
    targets = tracing.TARGETS
    if mode != "full":
        targets = [t for t in targets if t[2] in CLI_CALLS]
    code = 0
    try:
        with tracing.installed(recorder, targets) as absent:
            sys.argv = ["ntgof", *argv]
            try:
                runpy.run_module("ntgof", run_name="__main__", alter_sys=True)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        ntgof.cli.null_distribution = calibrate
    returned = time.perf_counter()
    warm = []
    if mode == "warm" and code == 0 and calls:
        args, kwargs = calls[0]
        for _ in range(WARM_CALLS):
            before = steal.snapshot()
            start = time.perf_counter()
            result = calibrate(*args, **kwargs)
            seconds = time.perf_counter() - start
            share = steal.share(before, steal.snapshot())
            warm.append([seconds, float(result.critical_value), share])
    stats = tracing.layer_stats(recorder.spans())
    summary = {
        "metrics": tracing.layer_metrics(stats, "cli.null_distribution"),
        "absent": absent,
        "import_s": import_s,
        "own": own,
        "warm": warm,
        "env": environment(),
    }
    with open(spans_path, "w") as fh:
        summary["post_s"] = time.perf_counter() - returned
        json.dump(summary, fh)
    return code


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "cli":
        return cli(argv[1], argv[2], argv[3:])
    w = workloads.WORKLOADS[argv[1]]
    slot = int(argv[2])
    try:
        if mode == "setup":
            result = setup(w, slot)
        elif mode == "measure":
            result = measure(w, slot, float(argv[3]))
        elif mode == "trace":
            result = trace(w, slot)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    except Exception:
        traceback.print_exc()
        return 1
    result["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
