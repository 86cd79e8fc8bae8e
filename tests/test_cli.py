"""Command-line driver: flags, report format, exit codes."""

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ntgof.cli import dump_report, main
from ntgof.montecarlo import CalibrationResult, PowerCurveResult, ProbeResult


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_module(*argv):
    """``python -m ntgof argv`` in a child that imports this checkout's ntgof."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "ntgof", *argv], capture_output=True, text=True, env=env
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_uniform_csv(path, n=200, seed=0):
    rng = np.random.default_rng(seed)
    rows = "\n".join(f"{x:.17g}" for x in rng.random(n))
    path.write_text("x\n" + rows + "\n")
    return str(path)


def write_pairs_csv(path, rows):
    body = "\n".join(f"{a:.17g},{b:.17g}" for a, b in rows)
    path.write_text("x,y\n" + body + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# report format


def test_report_floats_are_full_precision():
    text = dump_report({"b": 0.1, "a": [1, {"z": 2.5}], "s": "hi", "t": True})
    assert text.endswith("\n")
    # keys sorted, floats via repr-faithful %.17g
    assert text == '{"a":[1,{"z":2.5}],"b":0.10000000000000001,"s":"hi","t":true}\n'
    assert json.loads(text)["b"] == 0.1


def test_report_rejects_non_finite():
    with pytest.raises(ValueError):
        dump_report({"x": math.inf})


CONTAMINATION = {"type": "contamination", "coefficients": {"1": 0.3}}

# the calibrate, power and probe reports are the result's fields plus
# these, a probe's by the flags it reads
RUN_KEYS = {
    "calibrate": {"command", "kind", "penalty", "budget_dim"},
    "power": {"command", "kind", "penalty"},
    "consistency": {"command", "seed", "replications", "kind", "penalty", "dmax"},
    "tail_rate": {"command", "seed", "replications"},
}
RESULT_CLASSES = {
    "calibrate": CalibrationResult,
    "power": PowerCurveResult,
    "consistency": ProbeResult,
    "tail_rate": ProbeResult,
}


@pytest.mark.parametrize(
    "command, config, keys, rows, row_keys",
    [
        ("test", None,
         {"command", "kind", "n", "s", "t_s", "p_value", "critical_value", "alpha", "decision",
          "penalty", "budget_dim", "mc_reps", "seed", "series"},
         "series", {"k", "t", "pi", "penalized"}),
        ("calibrate", {"n": 100},
         {"n", "alpha", "replications", "seed", "critical_value", "statistics", "s_counts",
          "command", "kind", "penalty", "budget_dim"}, None, None),
        ("power", {"n_grid": [50, 100], "alternative": CONTAMINATION},
         {"alternative", "alpha", "replications", "seed", "points",
          "command", "kind", "penalty"},
         "points", {"n", "critical_value", "rejection_rate"}),
        ("probe", {"probe": "consistency", "n_grid": [50, 100], "alternative": CONTAMINATION},
         {"probe", "passed", "detail", "rows", "command", "seed", "replications",
          "kind", "penalty", "dmax"},
         "rows", {"n", "p_s_ge_k", "median_t_s"}),
        ("probe", {"probe": "tail_rate", "n_grid": [16, 32]},
         {"probe", "passed", "detail", "rows", "command", "seed", "replications"},
         "rows", {"n", "tail", "reference_rate"}),
    ],
    ids=["test", "calibrate", "power", "consistency", "tail_rate"],
)
def test_report_keys(tmp_path, capsys, command, config, keys, rows, row_keys):
    # a field added to a result class shows up here as a report change
    if config is None:
        path = write_uniform_csv(tmp_path / "u.csv", n=80)
    else:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--input", str(path), "--mc-reps", "100")
    assert code == 0, err
    report = json.loads(out)
    assert set(report) == keys
    if rows is not None:
        assert all(set(row) == row_keys for row in report[rows])
    which = config.get("probe", command) if config else command
    if which in RUN_KEYS:
        fields = {f.name for f in dataclasses.fields(RESULT_CLASSES[which])}
        assert keys == fields | RUN_KEYS[which]


# ---------------------------------------------------------------------------
# test subcommand


def test_uniform_data_accepted(tmp_path, capsys):
    path = write_uniform_csv(tmp_path / "u.csv", n=300, seed=3)
    code, out, err = run_cli(
        capsys, "test", "--input", path, "--mc-reps", "400", "--seed", "5"
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["command"] == "test"
    assert report["kind"] == "uniformity"
    assert report["n"] == 300
    assert report["decision"] == ("reject" if report["p_value"] <= 0.05 else "accept")
    assert report["decision"] == "accept"
    assert report["budget_dim"] == 4  # floor(300^(1/4))
    assert len(report["series"]) == 4
    ks = [row["k"] for row in report["series"]]
    assert ks == [1, 2, 3, 4]
    for row in report["series"]:
        assert row["penalized"] == pytest.approx(row["t"] - row["pi"], abs=1e-12)


def test_test_calls_the_module_level_run_test_and_null_distribution_once(
    tmp_path, capsys, monkeypatch
):
    # the benchmark times `ntgof test` by replacing these two module
    # globals of ntgof.cli, so the subcommand must call each through them
    import ntgof.cli

    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for name in ("run_test", "null_distribution"):
        monkeypatch.setattr(ntgof.cli, name, counting(name, getattr(ntgof.cli, name)))
    path = write_uniform_csv(tmp_path / "u.csv", n=80)
    code, _, err = run_cli(capsys, "test", "--input", path, "--mc-reps", "100")
    assert code == 0, err
    assert calls == ["run_test", "null_distribution"]


def test_dependent_pairs_rejected(tmp_path, capsys):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(150)
    path = write_pairs_csv(tmp_path / "p.csv", np.column_stack([x, x]))
    code, out, err = run_cli(
        capsys,
        "test", "--kind", "independence", "--input", path, "--mc-reps", "300",
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["decision"] == "reject"
    assert report["p_value"] == pytest.approx(1.0 / 301.0)
    assert report["t_s"] > report["critical_value"]


def test_out_flag_matches_stdout(tmp_path, capsys):
    path = write_uniform_csv(tmp_path / "u.csv", n=100)
    args = ["test", "--input", path, "--mc-reps", "200", "--seed", "1"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    dest = tmp_path / "report.json"
    code2 = main(args + ["--out", str(dest)])
    captured = capsys.readouterr()
    assert code2 == 0
    assert captured.out == ""  # report went to the file
    assert dest.read_text() == out


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    path = write_uniform_csv(tmp_path / "u.csv", n=150, seed=9)
    args = ["test", "--input", path, "--mc-reps", "200", "--seed", "4"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_explicit_dmax(tmp_path, capsys):
    path = write_uniform_csv(tmp_path / "u.csv", n=400)
    code, out, _ = run_cli(
        capsys, "test", "--input", path, "--dmax", "3", "--mc-reps", "200"
    )
    assert code == 0
    report = json.loads(out)
    assert report["budget_dim"] == 3
    assert len(report["series"]) == 3


def test_penalty_table_flow(tmp_path, capsys):
    data = write_uniform_csv(tmp_path / "u.csv", n=100)
    # d(100) = 3, so the table must cover k = 1..3 at n = 100, for both
    # the observed data and every calibration replication
    lines = ["k,n,pi"] + [f"{k},100,{k * math.log(100)}" for k in (1, 2, 3)]
    table = tmp_path / "pi.csv"
    table.write_text("\n".join(lines) + "\n")
    args = ["test", "--input", data, "--mc-reps", "200", "--seed", "2"]
    code, with_table, _ = run_cli(capsys, *args, "--penalty", f"table:{table}")
    assert code == 0
    # this table reproduces the stock penalty, so only the penalty label
    # may differ from the default run
    code, stock, _ = run_cli(capsys, *args)
    assert code == 0
    a, b = json.loads(with_table), json.loads(stock)
    assert a["penalty"].startswith("table:")
    del a["penalty"], b["penalty"]
    assert a == b


def test_incomplete_penalty_table(tmp_path, capsys):
    data = write_uniform_csv(tmp_path / "u.csv", n=100)
    table = tmp_path / "pi.csv"
    table.write_text("k,n,pi\n1,100,4.6\n")  # missing k = 2, 3
    code, _, err = run_cli(
        capsys, "test", "--input", data, "--penalty", f"table:{table}",
        "--mc-reps", "200",
    )
    assert code == 2
    assert "no entry" in err


@pytest.mark.parametrize(
    "command, config",
    [
        ("calibrate", {"n": 500}),
        ("power", {"n_grid": [500, 1000],
                   "alternative": {"type": "contamination", "coefficients": {"2": 0.3}}}),
    ],
)
def test_penalty_table_gap_is_not_blamed_on_a_replication(tmp_path, capsys, command, config):
    # the schedule is evaluated before anything is drawn
    table = tmp_path / "pi.csv"
    table.write_text("k,n,pi\n1,500,6.2\n")  # d(500) = 4, so k = 2 is missing
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(
        capsys, command, "--input", str(cfg), "--penalty", f"table:{table}",
        "--mc-reps", "100",
    )
    assert (code, out) == (2, "")
    assert err == "ntgof: penalty table has no entry for (k=2, n=500)\n"


# ---------------------------------------------------------------------------
# input errors -> exit 2


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "test", "--input", "/nonexistent/data.csv")
    assert code == 2
    assert "cannot read" in err


def test_empty_csv(tmp_path, capsys):
    f = tmp_path / "empty.csv"
    f.write_text("")
    code, _, err = run_cli(capsys, "test", "--input", str(f))
    assert code == 2
    assert "empty CSV" in err


def test_header_only_csv(tmp_path, capsys):
    f = tmp_path / "h.csv"
    f.write_text("x\n")
    code, _, err = run_cli(capsys, "test", "--input", str(f))
    assert code == 2
    assert "no data rows" in err


def test_wrong_header(tmp_path, capsys):
    f = tmp_path / "w.csv"
    f.write_text("value\n0.5\n")
    code, _, err = run_cli(capsys, "test", "--input", str(f))
    assert code == 2
    assert "line 1" in err and "header" in err


def test_bad_number_reports_line(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("x\n0.5\nabc\n0.7\n")
    code, _, err = run_cli(capsys, "test", "--input", str(f))
    assert code == 2
    assert "line 3" in err and "abc" in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_cell_reports_line(tmp_path, capsys, cell):
    f = tmp_path / "bad.csv"
    f.write_text(f"x\n0.5\n{cell}\n0.7\n")
    code, out, err = run_cli(capsys, "test", "--input", str(f))
    assert (code, out) == (2, "")
    assert err == f"ntgof: {f}, line 3: {cell!r} is not finite\n"


def test_duplicate_penalty_table_entry_is_input_error(tmp_path, capsys):
    # the last row used to win, so this ran with pi(2, 100) = 0.5
    data = write_uniform_csv(tmp_path / "u.csv", n=100)
    table = tmp_path / "pi.csv"
    table.write_text("k,n,pi\n1,100,4.6\n2,100,5.0\n2,100,0.5\n")
    code, out, err = run_cli(
        capsys, "test", "--input", data, "--penalty", f"table:{table}", "--dmax", "2",
        "--mc-reps", "100",
    )
    assert (code, out) == (2, "")
    assert err == f"ntgof: {table}: penalty table has two entries for (k=2, n=100)\n"


def test_non_finite_penalty_table_cell_is_input_error(tmp_path, capsys):
    # k = inf used to end in an OverflowError traceback from int(k)
    data = write_uniform_csv(tmp_path / "u.csv", n=100)
    table = tmp_path / "pi.csv"
    table.write_text("k,n,pi\ninf,500,1.0\n")
    code, out, err = run_cli(
        capsys, "test", "--input", data, "--penalty", f"table:{table}", "--mc-reps", "100"
    )
    assert (code, out) == (2, "")
    assert err == f"ntgof: {table}, line 2: 'inf' is not finite\n"


def test_data_outside_unit_interval(tmp_path, capsys):
    f = tmp_path / "range.csv"
    f.write_text("x\n0.5\n1.5\n0.7\n")
    code, _, err = run_cli(capsys, "test", "--input", f"{f}", "--mc-reps", "200")
    assert code == 2
    assert "outside" in err


def test_bad_alpha(tmp_path, capsys):
    f = write_uniform_csv(tmp_path / "u.csv")
    code, _, err = run_cli(capsys, "test", "--input", f, "--alpha", "1.5")
    assert code == 2
    assert "alpha" in err


def test_too_few_replications(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"n": 100}')
    code, _, err = run_cli(capsys, "calibrate", "--input", str(cfg), "--mc-reps", "50")
    assert code == 2
    assert "mc-reps" in err


@pytest.mark.parametrize("command", ["test", "calibrate", "power", "probe"])
def test_too_few_replications_named_by_every_subcommand(tmp_path, capsys, command):
    if command == "test":
        path = write_uniform_csv(tmp_path / "u.csv")
    else:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "n": 100,
            "n_grid": [16, 32],
            "alternative": {"type": "contamination", "coefficients": {"1": 0.3}},
            "probe": "tail_rate",
        }))
    code, out, err = run_cli(capsys, command, "--input", str(path), "--mc-reps", "50")
    assert code == 2 and out == ""
    assert err == "ntgof: --mc-reps must be >= 100\n"


@pytest.mark.parametrize(
    "command, kind, config, key, shown",
    [
        ("calibrate", "uniformity", {"n": 100.7}, "n", "100.7"),
        ("calibrate", "uniformity", {"n": "abc"}, "n", '"abc"'),
        ("calibrate", "uniformity", {"n": True}, "n", "true"),
        ("power", "uniformity", {"n_grid": [100.5, 200], "alternative": CONTAMINATION},
         "n_grid[0]", "100.5"),
        ("probe", "uniformity",
         {"probe": "consistency", "n_grid": [100, "200"], "alternative": CONTAMINATION},
         "n_grid[1]", '"200"'),
        ("probe", "uniformity", {"probe": "tail_rate", "n_grid": [16, 32.0]},
         "n_grid[1]", "32.0"),
        ("calibrate", "deconvolution", {"n": 100, "l_draws": "many"}, "l_draws", '"many"'),
        ("calibrate", "deconvolution", {"n": 100, "l_seed": 1.5}, "l_seed", "1.5"),
        ("calibrate", "deconvolution", {"n": 100, "grid_points": 501.0}, "grid_points", "501.0"),
    ],
    ids=["n-float", "n-string", "n-bool", "power-n_grid-float", "consistency-n_grid-string",
         "tail_rate-n_grid-float", "l_draws-string", "l_seed-float", "grid_points-float"],
)
def test_integer_config_fields_are_read_strictly(
    tmp_path, capsys, command, kind, config, key, shown
):
    # a float used to be truncated and a string failed in int() naming no key
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(
        capsys, command, "--kind", kind, "--input", str(cfg), "--mc-reps", "100"
    )
    assert code == 2 and out == ""
    assert err == f'ntgof: config "{key}" must be an integer, got {shown}\n'


NOISY_COPY = {"type": "noisy_copy", "noise_sd": 0.5}


@pytest.mark.parametrize(
    "command, kind, config, key",
    [
        ("calibrate", "deconvolution", {"n": 100, "noise_sigma": None}, "noise_sigma"),
        ("calibrate", "composite", {"n": 100, "beta0": [None]}, "beta0[0]"),
        ("probe", "uniformity",
         {"probe": "consistency", "n_grid": [100, 200], "alternative": CONTAMINATION,
          "threshold": None}, "threshold"),
        ("probe", "uniformity", {"probe": "tail_rate", "n_grid": [16, 32], "sigma": None},
         "sigma"),
        ("probe", "uniformity", {"probe": "tail_rate", "n_grid": [16, 32], "y": None}, "y"),
        ("probe", "uniformity", {"probe": "tail_rate", "n_grid": [16, 32], "factor": None},
         "factor"),
        ("power", "independence",
         {"n_grid": [100], "alternative": dict(NOISY_COPY, noise_sd=None)}, "noise_sd"),
        ("power", "uniformity",
         {"n_grid": [100], "alternative": dict(CONTAMINATION, coefficients={"1": None})},
         "coefficients[1]"),
    ],
    ids=["noise_sigma", "beta0", "threshold", "sigma", "y", "factor", "noise_sd", "coefficients"],
)
@pytest.mark.parametrize(
    "value, shown", [(True, "true"), ("wide", '"wide"'), (math.nan, "NaN"), (-math.inf, "-Infinity")]
)
def test_float_config_fields_are_read_strictly(
    tmp_path, capsys, command, kind, config, key, value, shown
):
    # a bool used to pass as 0 or 1, a string failed in float() naming no
    # key, and NaN or infinity failed later or not at all
    config = json.loads(json.dumps(config).replace("null", json.dumps(value)))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(
        capsys, command, "--kind", kind, "--input", str(cfg), "--mc-reps", "100"
    )
    assert code == 2 and out == ""
    assert err == f'ntgof: config "{key}" must be a finite number, got {shown}\n'


def test_float_config_fields_take_json_integers(tmp_path, capsys):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({"probe": "tail_rate", "n_grid": [16, 64], "sigma": 1, "y": 1}))
    code, out, err = run_cli(capsys, "probe", "--input", str(cfg), "--mc-reps", "100")
    assert code == 0, err
    assert json.loads(out)["rows"][0]["reference_rate"] == math.exp(-8.0)


def test_power_n_grid_below_two_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"n_grid": [1, 50], "alternative": CONTAMINATION}))
    code, out, err = run_cli(capsys, "power", "--input", str(cfg), "--mc-reps", "100")
    assert code == 2 and out == ""
    assert err == "ntgof: n_grid sizes must be >= 2, got [1, 50]\n"


@pytest.mark.parametrize(
    "command, kind, config, where, keys",
    [
        ("calibrate", "deconvolution", {"n": 200, "noise_sigm": 0.1}, None, 'key "noise_sigm"'),
        # a spec whose score table cannot be built is not made before the
        # keys are checked, so the bad key exits 2, not the build's 3
        ("calibrate", "deconvolution", {"n": 200, "noise_sigma": 1e-300, "bogus": 1}, None,
         'key "bogus"'),
        # a key another kind reads
        ("calibrate", "uniformity", {"n": 200, "beta0": [0.0]}, None, 'key "beta0"'),
        ("power", "independence",
         {"n_grid": [100], "alternative": NOISY_COPY, "alpha": 0.1, "probe": "consistency"},
         None, 'keys "alpha", "probe"'),
        ("power", "uniformity", {"n_grid": [100], "alternative": dict(CONTAMINATION, noise_sd=1)},
         'config "alternative"', 'key "noise_sd"'),
        ("probe", "uniformity",
         {"probe": "consistency", "n_grid": [100, 200], "alternative": CONTAMINATION,
          "threshhold": 0.99}, None, 'key "threshhold"'),
        ("probe", "deconvolution", {"probe": "tail_rate", "n_grid": [16, 32], "noise_sigma": 1},
         None, 'key "noise_sigma"'),
        ("probe", "uniformity",
         {"probe": "tail_rate", "n_grid": [16, 32], "sampler": {"type": "rademacher", "p": 0.3}},
         'config "sampler"', 'key "p"'),
    ],
    ids=["calibrate-misspelt", "calibrate-unbuildable", "calibrate-other-kind", "power",
         "power-alternative",
         "consistency", "tail_rate", "tail_rate-sampler"],
)
def test_unknown_config_keys_are_input_errors(
    tmp_path, capsys, monkeypatch, command, kind, config, where, keys
):
    # an unread key used to be ignored: a misspelt "noise_sigm" calibrated
    # at the default sigma and a "threshhold" probe ran at 0.8, exit 0
    import ntgof.cli

    def never(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("null_distribution", "power_curve", "consistency_probe", "tail_rate_probe"):
        monkeypatch.setattr(ntgof.cli, name, never)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(
        capsys, command, "--kind", kind, "--input", str(cfg), "--mc-reps", "100"
    )
    assert (code, out, err) == (2, "", f"ntgof: {where or cfg}: unknown {keys}\n")


def test_bad_dmax(tmp_path, capsys):
    f = write_uniform_csv(tmp_path / "u.csv")
    code, _, err = run_cli(capsys, "test", "--input", f, "--dmax", "20")
    assert code == 2
    assert "dmax" in err


def test_negative_seed(tmp_path, capsys):
    # the flag is checked as a flag, not blamed on a replication
    f = write_uniform_csv(tmp_path / "u.csv")
    code, _, err = run_cli(capsys, "test", "--input", f, "--seed", "-1")
    assert code == 2
    assert err == "ntgof: --seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("command", ["test", "calibrate", "power", "probe"])
def test_negative_seed_named_by_every_subcommand(tmp_path, capsys, command):
    # the tail-rate probe takes no MonteCarloConfig, so only the flag
    # check stands between its seed and the stream keys
    if command == "test":
        path = write_uniform_csv(tmp_path / "u.csv")
    else:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "n": 100,
            "n_grid": [16, 32],
            "alternative": {"type": "contamination", "coefficients": {"1": 0.3}},
            "probe": "tail_rate",
        }))
    code, out, err = run_cli(capsys, command, "--input", str(path), "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "ntgof: --seed must be a non-negative integer, got -1\n"


def test_negative_l_seed_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"n": 100, "l_seed": -1, "l_draws": 20000, "grid_points": 501}')
    code, out, err = run_cli(
        capsys, "calibrate", "--kind", "deconvolution", "--input", str(cfg), "--mc-reps", "100"
    )
    assert code == 2 and out == ""
    assert "l_seed" in err
    assert "replication" not in err


def test_out_in_missing_directory_fails_before_the_run(tmp_path, capsys, monkeypatch):
    import ntgof.cli as cli_module

    def never(*args):
        raise AssertionError("calibrated although the report cannot be written")

    monkeypatch.setattr(cli_module, "null_distribution", never)
    f = write_uniform_csv(tmp_path / "u.csv")
    out = tmp_path / "missing" / "r.json"
    code, stdout, err = run_cli(capsys, "test", "--input", f, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == f"ntgof: cannot write {out}: no such directory\n"


def test_unwritable_out(tmp_path, capsys):
    f = write_uniform_csv(tmp_path / "u.csv")
    code, stdout, err = run_cli(
        capsys, "test", "--input", f, "--mc-reps", "100", "--out", str(tmp_path)
    )
    assert code == 2 and stdout == ""
    assert err == f"ntgof: cannot write {tmp_path}: Is a directory\n"


def test_unknown_kind_is_usage_error(tmp_path, capsys):
    f = write_uniform_csv(tmp_path / "u.csv")
    with pytest.raises(SystemExit) as exc:
        main(["test", "--kind", "bogus", "--input", f])
    assert exc.value.code == 2


def test_numeric_failures_exit_3(tmp_path, capsys, monkeypatch):
    from ntgof.errors import NumericError
    import ntgof.cli as cli_module

    def boom(data, spec):
        raise NumericError("score table evaluation failed")

    monkeypatch.setattr(cli_module, "run_test", boom)
    f = write_uniform_csv(tmp_path / "u.csv")
    code, _, err = run_cli(capsys, "test", "--input", f)
    assert code == 3
    assert "numeric failure" in err


def test_failed_replication_exit_codes(tmp_path, capsys, monkeypatch):
    # a failed run keeps its exit code: 2 for a bad sample (a 1-column
    # alternative for the pairs test), named by its replication, and 3
    # for a numeric failure (the 12 x 12 moment matrix of this small
    # deconvolution spec fails the eigenvalue gate), which is found
    # before replication 0 and so names none.  The config reader turns
    # away every 1-column alternative for the pairs test, so one is
    # put in place of its noisy copy.
    import ntgof.cli as cli_module
    from ntgof.catalog import AlternativeSpec

    monkeypatch.setattr(
        cli_module, "noisy_copy_pairs",
        lambda noise_sd: AlternativeSpec("flat", lambda rng, n: rng.random(n)),
    )
    pow_cfg = tmp_path / "p.json"
    pow_cfg.write_text(json.dumps({"n_grid": [100], "alternative": {"type": "noisy_copy"}}))
    code, _, err = run_cli(
        capsys, "power", "--kind", "independence", "--input", str(pow_cfg), "--mc-reps", "100"
    )
    assert code == 2
    assert "replication 0: sampler drew shape (100,) for n=100; the test takes (100, 2)" in err
    cal_cfg = tmp_path / "c.json"
    cal_cfg.write_text('{"n": 200, "l_draws": 20000, "grid_points": 501}')
    code, _, err = run_cli(
        capsys, "calibrate", "--kind", "deconvolution", "--dmax", "12",
        "--input", str(cal_cfg), "--mc-reps", "100",
    )
    assert code == 3
    assert "ntgof: numeric failure: score covariance is singular at dimension 12" in err
    assert "--dmax 11" in err


# ---------------------------------------------------------------------------
# calibrate subcommand


def test_calibrate_report(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"n": 150}')
    code, out, err = run_cli(
        capsys, "calibrate", "--input", str(cfg), "--mc-reps", "300", "--seed", "8"
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["command"] == "calibrate"
    assert report["n"] == 150
    assert report["replications"] == 300
    stats = report["statistics"]
    assert len(stats) == 300
    assert stats == sorted(stats)
    assert report["critical_value"] == stats[math.ceil(0.95 * 300) - 1]
    assert sum(report["s_counts"]) == 300


def test_calibrate_requires_n(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"alpha": 0.05}')
    code, _, err = run_cli(capsys, "calibrate", "--input", str(cfg))
    assert code == 2
    assert '"n"' in err


def test_deconvolution_l_draws_below_cap_need_is_input_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"n": 150, "l_draws": 1200}')
    code, _, err = run_cli(capsys, "calibrate", "--kind", "deconvolution", "--input", str(cfg))
    assert code == 2
    assert "1200" in err and "1440" in err


def test_config_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, "calibrate", "--input", str(cfg))
    assert code == 2
    assert "JSON object" in err


# ---------------------------------------------------------------------------
# power subcommand


def test_power_report(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({
        "n_grid": [50, 200],
        "alternative": {"type": "contamination", "coefficients": {"1": 0.3}},
    }))
    code, out, err = run_cli(
        capsys, "power", "--input", str(cfg), "--mc-reps", "200", "--seed", "3"
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["command"] == "power"
    assert [p["n"] for p in report["points"]] == [50, 200]
    assert report["points"][1]["rejection_rate"] >= report["points"][0]["rejection_rate"]


def test_power_noisy_copy_requires_independence(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({
        "n_grid": [50],
        "alternative": {"type": "noisy_copy", "noise_sd": 0.5},
    }))
    code, _, err = run_cli(capsys, "power", "--input", str(cfg), "--mc-reps", "200")
    assert code == 2
    assert "independence" in err


@pytest.mark.parametrize("command", ["power", "probe"])
def test_contamination_with_independence_is_a_config_error(tmp_path, capsys, command):
    # the alternative draws single values and the pairs test would fail
    # at its first draw, blamed on replication 0
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({
        "probe": "consistency",
        "n_grid": [100, 300],
        "alternative": {"type": "contamination", "coefficients": {"2": 0.3}},
    }))
    code, out, err = run_cli(
        capsys, command, "--kind", "independence", "--input", str(cfg), "--mc-reps", "100"
    )
    assert (code, out) == (2, "")
    assert err.startswith('ntgof: config "alternative": a contamination alternative')
    assert "--kind independence" in err and "replication" not in err


def test_power_requires_alternative(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    cfg.write_text('{"n_grid": [100]}')
    code, _, err = run_cli(capsys, "power", "--input", str(cfg))
    assert code == 2
    assert "alternative" in err


# ---------------------------------------------------------------------------
# probe subcommand


def test_probe_tail_rate(tmp_path, capsys):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({
        "probe": "tail_rate",
        "n_grid": [16, 32, 64],
        "y": 0.5,
        "sigma": 1.0,
    }))
    code, out, err = run_cli(
        capsys, "probe", "--input", str(cfg), "--mc-reps", "4000", "--seed", "0"
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["command"] == "probe"
    assert report["probe"] == "tail_rate"
    assert report["passed"] is True
    tails = [row["tail"] for row in report["rows"]]
    assert all(b <= a / 2 for a, b in zip(tails, tails[1:]))


def test_probe_consistency(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "probe": "consistency",
        "n_grid": [100, 400],
        "alternative": {"type": "contamination", "coefficients": {"1": 0.3}},
        "threshold": 0.8,
    }))
    code, out, err = run_cli(
        capsys, "probe", "--input", str(cfg), "--mc-reps", "200", "--seed", "1"
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["probe"] == "consistency"
    assert report["passed"] is True
    assert [row["n"] for row in report["rows"]] == [100, 400]


@pytest.mark.parametrize(
    "config, shown",
    [
        ({"probe": "tail_rate", "n_grid": [16, 32], "factor": 0},
         "factor must be finite and > 0, got 0.0"),
        ({"probe": "tail_rate", "n_grid": [16, 32], "factor": -2},
         "factor must be finite and > 0, got -2.0"),
        ({"probe": "consistency", "n_grid": [100, 200], "alternative": CONTAMINATION,
          "threshold": -1}, "threshold must lie in (0, 1], got -1.0"),
    ],
    ids=["factor-zero", "factor-negative", "threshold-negative"],
)
def test_probe_settings_out_of_range_are_config_errors(tmp_path, capsys, config, shown):
    # a factor of 0 used to end in a ZeroDivisionError traceback, exit 1
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "probe", "--input", str(cfg), "--mc-reps", "100")
    assert (code, out, err) == (2, "", f"ntgof: {shown}\n")


PROBE_CONFIGS = {
    "consistency": {"probe": "consistency", "n_grid": [50, 100], "alternative": CONTAMINATION},
    "tail_rate": {"probe": "tail_rate", "n_grid": [16, 32]},
}


@pytest.mark.parametrize(
    "probe, flags, shown",
    [
        ("tail_rate", ["--kind", "independence", "--penalty", "linear2k", "--dmax", "2",
                       "--alpha", "0.5"], "--alpha, --dmax, --kind, --penalty"),
        # set, even at its default value
        ("tail_rate", ["--kind", "uniformity"], "--kind"),
        ("consistency", ["--alpha", "0.9"], "--alpha"),
        ("consistency", ["--alpha=0.05"], "--alpha"),
    ],
    ids=["tail_rate-all", "tail_rate-default-value", "consistency-alpha",
         "consistency-default-value"],
)
def test_probe_flags_it_does_not_read_are_input_errors(
    tmp_path, capsys, monkeypatch, probe, flags, shown
):
    # a tail-rate probe at --kind independence --alpha 0.5 used to print
    # the plain Rademacher report, exit 0
    import ntgof.cli

    def never(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(ntgof.cli, f"{probe}_probe", never)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(PROBE_CONFIGS[probe]))
    code, out, err = run_cli(capsys, "probe", "--input", str(cfg), "--mc-reps", "100", *flags)
    assert (code, out, err) == (2, "", f"ntgof: a {probe} probe does not read {shown}\n")


def test_consistency_report_names_the_flags_it_reads(tmp_path, capsys):
    # --dmax 1 and auto used to give reports with the same run keys
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(PROBE_CONFIGS["consistency"]))
    code, out, err = run_cli(
        capsys, "probe", "--input", str(cfg), "--mc-reps", "100",
        "--kind", "uniformity", "--penalty", "linear2k", "--dmax", "1",
    )
    assert code == 0, err
    report = json.loads(out)
    assert (report["kind"], report["penalty"], report["dmax"]) == ("uniformity", "linear2k", "1")


def test_probe_requires_known_name(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"probe": "other"}')
    code, _, err = run_cli(capsys, "probe", "--input", str(cfg))
    assert code == 2
    assert "probe" in err


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_runs(tmp_path):
    path = write_uniform_csv(tmp_path / "u.csv", n=80)
    proc = run_module("test", "--input", path, "--mc-reps", "200")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == "test"


def test_help_exits_zero():
    proc = run_module("--help")
    assert proc.returncode == 0
    for sub in ("test", "calibrate", "power", "probe"):
        assert sub in proc.stdout
