"""Tests of the benchmark itself: reference checks, wrap targets, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import steal  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IN_PROCESS = [w for w in workloads.WORKLOADS.values() if not w.is_cli]
CLI = workloads.WORKLOADS["cli-deconvolution-cold"]


def tiny(w):
    return dataclasses.replace(w, reps=100)


def reference_row(name, slot=0):
    return run.load_reference(name, slot)


def test_benchmark_json_lists_the_benchmark_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in tracing.LAYER_METRICS.items()
    ]


def test_reference_covers_every_slot():
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    assert reference["slots"] == workloads.SLOTS
    for name in workloads.WORKLOADS:
        assert len(reference["workloads"][name]) == workloads.SLOTS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_perturbed_reference_raises_error_rate(name):
    row = reference_row(name)
    key = "report" if name == CLI.name else "result"
    exact = check.Tally()
    assert exact.record("x", row[key], copy.deepcopy(row[key]))
    assert exact.error_rate == 0.0

    drifted = copy.deepcopy(row[key])
    perturbed = copy.deepcopy(row[key])
    drifted["critical_value"] *= 1 + 1e-13
    perturbed["critical_value"] *= 1 + 1e-6
    tally = check.Tally()
    assert tally.record("drift", row[key], drifted)
    assert not tally.record("perturbed", row[key], perturbed)
    assert tally.failed == 1 and tally.error_rate == 0.5


def test_integer_outputs_must_match_exactly():
    row = reference_row("calib-composite")["result"]
    off = copy.deepcopy(row)
    off["s_counts"][0] -= 1
    off["s_counts"][1] += 1
    tally = check.Tally()
    assert not tally.record("s_counts", row, off)
    assert not tally.record("missing", row, None)
    assert tally.error_rate == 1.0


def test_missing_wrap_target_reports_absent():
    import ntgof.catalog

    original = ntgof.catalog.run_test
    targets = (
        ("ntgof.catalog", "run_test", "catalog.run_test", "call"),
        ("ntgof.catalog", "gnt_statistic_renamed", "statistics.series", "call"),
        ("ntgof.no_such_module", "substream", "rng.substream", "call"),
    )
    recorder = tracing.Recorder()
    with tracing.installed(recorder, targets) as absent:
        assert ntgof.catalog.run_test is not original
        ntgof.catalog.run_test(
            [0.1, 0.5, 0.9, 0.3], ntgof.catalog.uniformity_spec()
        )
    assert ntgof.catalog.run_test is original
    assert absent == [
        "ntgof.catalog.gnt_statistic_renamed",
        "ntgof.no_such_module.substream",
    ]
    stats = tracing.layer_stats(recorder.spans())
    assert stats["catalog.run_test"]["calls"] == 1


def test_self_time_subtracts_direct_children():
    spans = [
        ("top", -1, 0.0, 10.0, 0),
        ("a", 0, 1.0, 4.0, 0),
        ("b", 1, 2.0, 3.0, 0),
        ("a", 0, 5.0, 6.0, 0),
    ]
    stats = tracing.layer_stats([spans])
    assert stats["top"]["self_s"] == pytest.approx(6.0)
    assert stats["a"]["calls"] == 2
    assert stats["a"]["self_s"] == pytest.approx(3.0)
    assert tracing.percentile([1, 2, 3, 4], 50) == 2
    assert tracing.percentile([1, 2, 3, 4], 99) == 4


def test_least_stolen_keeps_at_least_half():
    samples = [(1.0, 0.05), (2.0, 0.0), (3.0, 0.2), (4.0, 0.04), (5.0, 0.3)]
    assert steal.least_stolen(samples) == [1.0, 2.0, 4.0]
    assert steal.least_stolen([(1.0, 0.1), (2.0, 0.0)]) == [2.0]
    low = [(1.0, 0.0), (2.0, 0.015), (3.0, 0.02), (4.0, 0.3)]
    assert steal.least_stolen(low) == [1.0, 2.0, 3.0]
    assert steal.share(None, [5, 100]) == 0.0
    assert steal.share([1, 100], [3, 200]) == pytest.approx(0.02)


def test_importtime_parser():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |       4500 |   scipy.stats\n"
        "import time:        80 |    1600000 | ntgof\n"
    )
    assert tracing.parse_importtime(text) == {
        "scipy.stats": (0.00012, 0.0045),
        "ntgof": (0.00008, 1.6),
    }
    assert tracing.import_metrics(text) == {
        "import.ntgof_s": 1.6,
        "import.scipy_stats_s": 0.00012,
    }


@pytest.mark.parametrize("w", IN_PROCESS, ids=lambda w: w.name)
def test_smoke_in_process_workload_at_tiny_r(w):
    w = tiny(w)
    s = child.setup(w, 3)
    assert s["setup_s"] > 0 and s["outcome"] == reference_row(w.name, 3)["setup"]
    m = child.measure(w, 3, 0.0)
    assert len(m["wall_s"]) == len(m["warm_s"]) == 1
    fresh, warm = m["outputs"]
    assert fresh == warm
    t = child.trace(w, 3)
    outs = t["outputs"]
    assert outs["traced"] == outs["serial"] == outs["default"] == fresh
    assert t["absent"] == []
    assert set(t["metrics"]) | {"import.ntgof_s", "import.scipy_stats_s"} == set(
        tracing.LAYER_METRICS
    )
    assert t["metrics"]["catalog.run_test.calls"] == w.reps
    assert t["metrics"]["rng.substream.calls"] == w.reps
    assert t["metrics"]["catalog.information_blocks.calls"] == w.reps


def test_smoke_cli_workload_at_tiny_r(tmp_path):
    csv_path = tmp_path / "input.csv"
    csv_path.write_text(workloads.csv_text(CLI, 0))
    reports = {}
    for mode in ("warm", "full"):
        report = tmp_path / f"{mode}.json"
        spans = tmp_path / f"{mode}-spans.json"
        argv = workloads.cli_args(CLI, 0, str(csv_path), str(report)) + ["--mc-reps", "100"]
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "cli", mode, str(spans), *argv],
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "NTGOF_THREADS": "1"},
            timeout=300,
        )
        assert proc.returncode == 0
        reports[mode] = report.read_text()
        summary = json.loads(spans.read_text())
        assert summary["absent"] == []
        assert len(summary["warm"]) == (child.WARM_CALLS if mode == "warm" else 0)
    assert reports["warm"] == reports["full"]
    metrics = summary["metrics"]
    assert metrics["catalog.deconvolution_score.calls"] > 0
    assert metrics["catalog.artifact_build_s"] > 0
    assert metrics["catalog.run_test.calls"] == 100
    ref = reference_row(CLI.name)["report"]
    assert workloads.report_outputs(json.loads(reports["full"]))["s"] == ref["s"]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work-*"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calib-composite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
