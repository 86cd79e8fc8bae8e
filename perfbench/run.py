"""Benchmark of ntgof's Monte Carlo loop, end to end and layer by layer.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The package is taken from the
checkout's ``src`` directory (pure Python, nothing to build); without it
the benchmark exits with code 2 and prints no result.

``--trace 0`` prints the end-to-end metrics of the workload, each the
median of the samples one run takes.  Samples that are single Monte
Carlo calls (wall_s of the in-process workload, and reps_per_s) are
first cut to those the hypervisor stole least CPU time from (steal.py);
samples that are whole processes, three a run, are all kept:

    wall_s        time of the user's call on a freshly built spec; for the
                  CLI workload, the whole process
    reps_per_s    replications per second once the spec's artifacts
                  exist: calls on the spec of an earlier call, or for the
                  CLI workload its own calibration (after run_test built
                  the score table) and repeats of it in the same process
    setup_s       fresh interpreter: import ntgof plus the first run_test
                  on a fresh spec of the workload's kind and n
    peak_rss_mib  peak resident memory of the process that ran the calls
    error_rate    failed / attempted operations, printed as a line and
                  carried by the result's ``failed`` and ``attempted``

These run at the package's default worker count, as a user's call
does, pinned to nproc when os.cpu_count() exceeds it.  The in-process
workload measures for what is left of ``--seconds`` after its set-up
samples; the CLI workload starts cold processes until the next one
would overrun ``--seconds``, at least CLI_MIN_PROCESSES of them.

``--trace 1`` prints the per-layer metrics of a traced serial run (see
tracing.py), each with the end-to-end metric it should move.

Every output is checked against reference.json (check.py).  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import check
import steal
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

# Every run of one workload ends within this many seconds.
RUN_BUDGET_S = 170.0
# Fresh interpreters timed per run; the measuring child is one of them.
SETUP_SAMPLES = 3
# Cold CLI processes per run, at the least.
CLI_MIN_PROCESSES = 3

E2E_UNITS = {"wall_s": "s", "reps_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}


class ChildFailed(Exception):
    pass


class Child:
    """A finished child process: exit code, wall time, peak RSS and output."""

    def __init__(self, code, wall, maxrss_mib, stdout, stderr):
        self.code = code
        self.wall = wall
        self.maxrss_mib = maxrss_mib
        self.stdout = stdout
        self.stderr = stderr

    def result(self) -> dict:
        """The JSON object on the child's last stdout line."""
        if self.code != 0:
            tail = self.stderr.strip().splitlines()[-3:]
            raise ChildFailed(f"exit code {self.code}: {' | '.join(tail)}")
        lines = self.stdout.strip().splitlines()
        if not lines:
            raise ChildFailed("no output")
        return json.loads(lines[-1])


def run_child(argv: list, env: dict, workdir: str, deadline: float) -> Child:
    """Run argv to completion (killed at the deadline), reaping it with wait4."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=workdir, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        reaped = []
        waiter = threading.Thread(
            target=lambda: reaped.append((os.wait4(proc.pid, 0), time.perf_counter()))
        )
        waiter.start()
        try:
            waiter.join(max(0.0, deadline - time.perf_counter()))
        finally:
            if waiter.is_alive():
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                waiter.join()
    (_, status, usage), end = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()
    if end > deadline:
        stderr += f"\nkilled after the run budget of {RUN_BUDGET_S:g} s"
    return Child(proc.returncode, end - start, usage.ru_maxrss / 1024.0, stdout, stderr)


def threads_pinned() -> bool:
    return (os.cpu_count() or 1) > len(os.sched_getaffinity(0))


def child_env(serial: bool) -> dict:
    """Environment of a child: one worker, or the default pinned to nproc
    when cpu_count exceeds it, so no child runs more threads than cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("NTGOF_THREADS", None)
    if serial:
        env["NTGOF_THREADS"] = "1"
    elif threads_pinned():
        env["NTGOF_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def load_reference(workload: str, slot: int) -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    if reference["slots"] != workloads.SLOTS:
        raise SystemExit("reference.json was recorded for another slot count")
    return reference["workloads"][workload][slot]


def median(values: list) -> float:
    return float(statistics.median(values))


def steady(calls: list) -> float:
    """Median of the least-stolen (value, steal share) call samples."""
    return median(steal.least_stolen(calls))


def spread(values: list) -> str:
    return f"{len(values)} samples: " + " ".join(f"{v:.4g}" for v in values)


def call_spread(calls: list) -> str:
    """The call samples with their steal shares, and how many count."""
    values = " ".join(f"{v:.4g}@{100 * s:.1f}%" for v, s in calls)
    kept = len(steal.least_stolen(calls))
    return f"{len(calls)} calls (value@steal): {values}; the {kept} least stolen count"


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, w, seed: int, seconds: float, workdir: str):
        self.w = w
        self.seed = seed
        self.slot = seed % workloads.SLOTS
        self.seconds = seconds
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.ref = load_reference(w.name, self.slot)
        self.tally = check.Tally()
        self.env_line = None
        self.lines = []
        self.checksums = []

    def child(self, *args, serial: bool = False) -> Child:
        return run_child([sys.executable, *args], child_env(serial), self.workdir, self.deadline)

    def write_csv(self) -> str:
        path = os.path.join(self.workdir, "input.csv")
        with open(path, "w") as fh:
            fh.write(workloads.csv_text(self.w, self.slot))
        return path

    def note_env(self, env: dict) -> None:
        """Record the environment of the run's first child (default threads)."""
        if self.env_line is not None:
            return
        record = dict(env, seed=self.seed, slot=self.slot, threads_pinned=threads_pinned())
        self.env_line = f"env {json.dumps(record, sort_keys=True)}"

    def checksum(self, outputs: dict) -> None:
        line = repr(outputs["critical_value"])
        if line not in self.checksums:
            self.checksums.append(line)

    def setup_samples(self, count: int) -> list:
        setup_s = []
        for _ in range(count):
            try:
                r = self.child(CHILD, "setup", self.w.name, str(self.slot)).result()
            except ChildFailed as e:
                self.tally.fail("setup", str(e))
                continue
            setup_s.append(r["setup_s"])
            self.tally.record("setup run_test", self.ref["setup"], r["outcome"])
        return setup_s

    def end_to_end(self) -> dict:
        if self.w.is_cli:
            return self._cli_end_to_end()
        start = time.perf_counter()
        setup_s = self.setup_samples(SETUP_SAMPLES - 1)
        left = max(0.0, self.seconds - (time.perf_counter() - start))
        try:
            c = self.child(CHILD, "measure", self.w.name, str(self.slot), repr(left))
            m = c.result()
        except ChildFailed as e:
            self.tally.fail("measure", str(e))
            raise
        self.note_env(m["env"])
        setup_s.append(m["setup_s"])
        self.tally.record("setup run_test", self.ref["setup"], m["outcome"])
        for out in m["outputs"]:
            self.tally.record("calibration", self.ref["result"], out)
            self.checksum(out)
        walls = [tuple(sample) for sample in m["wall_s"]]
        reps = [(self.w.reps / seconds, share) for seconds, share in m["warm_s"]]
        self.lines.append(f"wall_s: {call_spread(walls)}")
        self.lines.append(f"reps_per_s: {call_spread(reps)}")
        self.lines.append(f"setup_s: {spread(setup_s)}")
        return {
            "wall_s": steady(walls),
            "reps_per_s": steady(reps),
            "setup_s": median(setup_s),
            "peak_rss_mib": c.maxrss_mib,
        }

    def _cli(self, mode: str, tag: str, serial: bool = False):
        """One CLI process run through child.py's launcher."""
        csv_path = self.write_csv()
        report_path = os.path.join(self.workdir, f"report-{tag}.json")
        spans_path = os.path.join(self.workdir, f"spans-{tag}.json")
        args = workloads.cli_args(self.w, self.slot, csv_path, report_path)
        c = self.child(CHILD, "cli", mode, spans_path, *args, serial=serial)
        if c.code != 0:
            self.tally.fail(f"cli {tag}", f"exit code {c.code}: {c.stderr.strip()[-300:]}")
            return c, None, None
        with open(report_path) as fh:
            report = workloads.report_outputs(json.load(fh))
        self.tally.record(f"cli {tag} report", self.ref["report"], report)
        self.checksum(report)
        with open(spans_path) as fh:
            spans = json.load(fh)
        self.note_env(spans["env"])
        return c, report, spans

    def _cli_end_to_end(self) -> dict:
        """Cold CLI processes, each giving one sample of every metric.

        Set-up is a process's import plus its run_test, which builds the
        score table and moment matrix; its calibration, and the repeats
        the launcher runs after the CLI returned, use the warm spec at
        the workload's n and R.  The repeats are taken off the wall.
        Rate samples carry the steal share of their own call.
        """
        walls, setups, rates, rss = [], [], [], []
        start = time.perf_counter()
        while True:
            c, report, spans = self._cli("warm", f"cold-{len(walls)}")
            if report is None:
                raise ChildFailed("a cold CLI process failed")
            calls = spans["metrics"]
            walls.append(c.wall - spans["post_s"])
            setups.append(spans["import_s"] + calls["cli.run_test.s"])
            rss.append(c.maxrss_mib)
            rates += [(self.w.reps / seconds, share) for seconds, share in spans["own"]]
            for seconds, critical_value, share in spans["warm"]:
                rates.append((self.w.reps / seconds, share))
                self.tally.record(
                    "warm calibration",
                    {"critical_value": self.ref["report"]["critical_value"]},
                    {"critical_value": critical_value},
                )
            elapsed = time.perf_counter() - start
            if len(walls) >= CLI_MIN_PROCESSES and elapsed + c.wall > self.seconds:
                break
        self.lines.append(f"wall_s: {spread(walls)} cold CLI processes")
        self.lines.append(f"reps_per_s: {call_spread(rates)}")
        self.lines.append(f"setup_s: {spread(setups)}")
        return {
            "wall_s": median(walls),
            "reps_per_s": steady(rates),
            "setup_s": median(setups),
            "peak_rss_mib": median(rss),
        }

    # -----------------------------------------------------------------------
    # traced run: per-layer metrics

    def import_times(self) -> dict:
        c = self.child("-X", "importtime", "-c", "import ntgof")
        if c.code != 0:
            self.tally.fail("import", c.stderr.strip()[-300:])
            return {"import.ntgof_s": 0.0, "import.scipy_stats_s": 0.0}
        return tracing.import_metrics(c.stderr)

    def per_layer(self) -> tuple[dict, float, list]:
        """(metrics, the wall the shares are taken of, absent targets)."""
        if self.w.is_cli:
            return self._cli_per_layer()
        try:
            t = self.child(CHILD, "trace", self.w.name, str(self.slot)).result()
        except ChildFailed as e:
            self.tally.fail("trace", str(e))
            raise
        outs = t["outputs"]
        for tag in ("serial", "default", "traced"):
            self.tally.record(f"{tag} calibration", self.ref["result"], outs[tag])
        if outs["traced"] != outs["serial"]:
            self.tally.fail("traced calibration", "differs from the untraced serial run")
        self.checksum(outs["serial"])
        self.note_env(t["env"])
        metrics = dict(t["metrics"], **self.import_times())
        self.lines.append("shares are of the traced serial Monte Carlo wall")
        return metrics, t["traced_wall_s"], t["absent"]

    def _cli_per_layer(self) -> tuple[dict, float, list]:
        default, default_report, default_spans = self._cli("calls", "default")
        serial, serial_report, serial_spans = self._cli("calls", "serial", serial=True)
        traced, traced_report, traced_spans = self._cli("full", "traced", serial=True)
        if None in (default_spans, serial_spans, traced_spans):
            raise ChildFailed("a CLI process of the traced run failed")
        if traced_report != serial_report:
            self.tally.fail("traced CLI report", "differs from the untraced serial run")
        serial_mc = serial_spans["metrics"]["cli.null_distribution.s"]
        metrics = dict(traced_spans["metrics"], **self.import_times())
        metrics.update(
            {
                "montecarlo.serial_wall_s": serial_mc,
                "montecarlo.speedup_vs_serial": serial_mc
                / default_spans["metrics"]["cli.null_distribution.s"],
                "trace.overhead_ratio": (traced.wall - traced_spans["post_s"])
                / (serial.wall - serial_spans["post_s"]),
                "trace.absent_targets": len(traced_spans["absent"]),
            }
        )
        wall = default.wall - default_spans["post_s"]
        self.lines.append(f"shares are of the default-thread CLI process wall, {wall:.6g} s")
        return metrics, wall, traced_spans["absent"]


# ---------------------------------------------------------------------------
# printing


# Span-derived times, printed with their share of the run's wall.
SHARED = [
    name for name, (unit, _, _) in tracing.LAYER_METRICS.items()
    if unit == "s" and not name.startswith(("import.", "montecarlo.serial"))
]


def layer_table(metrics: dict, share_of: float, absent: list) -> list:
    lines = []
    for name, (unit, _, target) in tracing.LAYER_METRICS.items():
        value = metrics[name]
        note = ""
        if name in SHARED:
            note = f" share={value / share_of:.3f}"
        if name.endswith("_us"):
            note = f" n={metrics[name.rsplit('.', 1)[0] + '.calls']}"
        lines.append(f"{name:40s} {value:>14.6g} {unit:5s}{note}  -> {target}")
    for target in absent:
        lines.append(f"absent wrap target: {target}")
    return lines


def run_one(w, seed: int, seconds: float, trace: bool) -> tuple[check.Tally, dict, list]:
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        run = Run(w, seed, seconds, workdir)
        if trace:
            metrics, share_of, absent = run.per_layer()
            units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
            body = layer_table(metrics, share_of, absent)
            metrics = {name: metrics[name] for name in tracing.LAYER_METRICS}
        else:
            metrics = run.end_to_end()
            units = E2E_UNITS
            body = [f"{k:14s} {v:>14.6g} {units[k]}" for k, v in metrics.items()]
        tally = run.tally
        lines = [f"== {w.name}", run.env_line or "env unknown", *run.lines]
        lines += [f"checksum {w.name} critical_value {c}" for c in run.checksums]
        lines += body
        lines.append(
            f"{'error_rate':14s} {tally.error_rate:>14.6g} ratio "
            f"({tally.failed} of {tally.attempted} operations failed)"
        )
        lines += [f"mismatch: {p}" for p in tally.problems]
        tagged = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        return tally, tagged, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ntgof", "__init__.py")):
        print(f"ntgof sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            tally, tagged, lines = run_one(
                workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
            )
        except ChildFailed as e:
            print(f"{name}: {e}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in tagged.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
