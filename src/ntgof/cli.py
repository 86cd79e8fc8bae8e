"""Command-line front end.

Four subcommands cover the operational surface:

    ntgof test      --kind KIND --input data.csv [flags]
    ntgof calibrate --kind KIND --input study.json [flags]
    ntgof power     --kind KIND --input study.json [flags]
    ntgof probe     --input study.json [flags]

``test`` reads observations from CSV (header required; ``x`` for
uniformity/deconvolution/composite, ``x,y`` for independence), runs the
data-driven test, calibrates a null distribution by Monte Carlo, and
writes a JSON report with the selected dimension, statistic, p-value,
critical value, and the full per-dimension series.  ``calibrate``,
``power``, and ``probe`` read study parameters (sample sizes,
alternatives, probe settings) from a small JSON file -- the flag set is
the same for every subcommand; what changes is what ``--input`` holds.
A config key that the command and kind do not read is an input error,
and so is a flag set on the command line that a probe does not read: a
tail-rate probe reads none of ``--kind``, ``--penalty``, ``--dmax`` and
``--alpha``, a consistency probe does not read ``--alpha``.  Their
reports are the result's fields plus the keys that describe the run.

Flags: ``--kind {uniformity,independence,deconvolution,composite}``,
``--input PATH``, ``--penalty {schwarz|linear2k|table:<path>}``,
``--dmax {auto|<int>}``, ``--alpha``, ``--mc-reps``, ``--seed``,
``--out``.  A penalty table CSV has columns ``k,n,pi``.  Each Monte
Carlo replication draws from its own stream of ``--seed``.

Exit codes: 0 = completed run (whatever the decision), 2 = input error
(malformed CSV or config, with a line number when it is a CSV, or an
``--out`` path that cannot be written: a missing directory is caught
before the run starts), 3 = numeric failure (singular normalizing
matrix and friends).  All JSON numbers carry 17 significant digits so
reports round-trip losslessly and repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys

import numpy as np

from .basis import legendre_basis
from .catalog import (
    AlternativeSpec,
    composite_spec,
    contamination_alternative,
    deconvolution_spec,
    gaussian_noise,
    independence_spec,
    noisy_copy_pairs,
    run_test,
    uniformity_spec,
)
from .errors import InputError, NumericError
from .montecarlo import (
    MonteCarloConfig,
    consistency_probe,
    null_distribution,
    p_value,
    power_curve,
    tail_rate_probe,
)
from .selection import (
    PenaltySchedule,
    default_budget,
    fixed_budget,
    linear_schedule,
    schwarz_schedule,
    table_schedule,
)

CLI_KINDS = ("uniformity", "independence", "deconvolution", "composite")

# degree of the Legendre basis every CLI spec uses, and so the largest --dmax
_MAX_DEGREE = legendre_basis(12).max_degree


# ---------------------------------------------------------------------------
# JSON emission: deterministic, 17 significant digits


def _fmt(value, pieces: list) -> None:
    if value is None:
        pieces.append("null")
    elif isinstance(value, bool):
        pieces.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"non-finite number in report: {v}")
        pieces.append("%.17g" % v)
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif isinstance(value, dict):
        pieces.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                pieces.append(",")
            pieces.append(json.dumps(str(key)) + ":")
            _fmt(value[key], pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(",")
            _fmt(item, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def dump_report(obj: dict) -> str:
    """Deterministic JSON: sorted keys, %.17g floats, trailing newline."""
    pieces: list = []
    _fmt(obj, pieces)
    return "".join(pieces) + "\n"


# ---------------------------------------------------------------------------
# input readers


def _read_text(path: str) -> str:
    """An input file's text: UTF-8, without the byte-order mark it may start with.

    Spreadsheet "CSV UTF-8" exports and some editors write the mark.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from None
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        raise InputError(
            f"cannot read {path}: not UTF-8 ({e.reason} at byte offset {e.start})"
        ) from None


def _read_csv_columns(path: str, columns: tuple[str, ...]) -> np.ndarray:
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty CSV (missing header)") from None
    got = tuple(h.strip() for h in header)
    if got != columns:
        raise InputError(
            f"{path}, line 1: expected header {','.join(columns)!r}, got {','.join(got)!r}"
        )
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(columns):
            raise InputError(
                f"{path}, line {lineno}: expected {len(columns)} fields, got {len(row)}"
            )
        values = []
        for cell in row:
            try:
                # float() also reads PEP 515 underscores and non-ASCII digits
                if "_" in cell or not cell.isascii():
                    raise ValueError(cell)
                value = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}, line {lineno}: could not parse {cell.strip()!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise InputError(f"{path}, line {lineno}: {cell.strip()!r} is not finite")
            values.append(value)
        rows.append(values)
    if not rows:
        raise InputError(f"{path}: no data rows")
    data = np.array(rows, dtype=float)
    return data[:, 0] if len(columns) == 1 else data


def _read_penalty_table(path: str) -> PenaltySchedule:
    raw = _read_csv_columns(path, ("k", "n", "pi"))
    table = {}
    for row in np.atleast_2d(raw):
        k, n, pi = row
        if k != int(k) or n != int(n):
            raise InputError(f"{path}: k and n must be integers, got k={k}, n={n}")
        if (int(k), int(n)) in table:
            raise InputError(f"{path}: penalty table has two entries for (k={int(k)}, n={int(n)})")
        table[(int(k), int(n))] = float(pi)
    return table_schedule(table, name=f"table:{path}")


def _read_config(path: str) -> dict:
    def once(pairs: list) -> dict:
        # json.load would keep a repeated key's last value
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"{path}: config sets {json.dumps(key)} twice in one object")
            obj[key] = value
        return obj

    text = _read_text(path)
    try:
        cfg = json.loads(text, object_pairs_hook=once)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(cfg, dict):
        raise InputError(f"{path}: config must be a JSON object")
    return cfg


def _config_int(value, key: str) -> int:
    """A config value that must be a JSON integer, not a bool, a float or a string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f'config "{key}" must be an integer, got {json.dumps(value)}')
    return value


def _config_float(value, key: str) -> float:
    """A config value that must be a finite JSON number, not a bool, a string or NaN."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise InputError(f'config "{key}" must be a finite number, got {json.dumps(value)}')
    return float(value)


def _no_unknown_keys(cfg: dict, where: str) -> None:
    """Reject what is left of a config object once its reader has popped the keys it reads."""
    if cfg:
        keys = ", ".join(json.dumps(k) for k in sorted(cfg))
        raise InputError(f"{where}: unknown key{'s' if len(cfg) > 1 else ''} {keys}")


def _n_grid(cfg: dict, path: str, what: str, least: int = 1) -> tuple[int, ...]:
    """The config's "n_grid": a list of at least ``least`` integer sample sizes."""
    grid = cfg.pop("n_grid", None)
    if not isinstance(grid, list) or len(grid) < least:
        raise InputError(f'{path}: {what} needs an "n_grid" list of >= {least} sizes')
    return tuple(_config_int(n, f"n_grid[{i}]") for i, n in enumerate(grid))


# ---------------------------------------------------------------------------
# spec assembly


def _parse_penalty(text: str) -> PenaltySchedule:
    if text == "schwarz":
        return schwarz_schedule()
    if text == "linear2k":
        return linear_schedule()
    if text.startswith("table:"):
        return _read_penalty_table(text[len("table:"):])
    raise InputError(
        f"unknown penalty {text!r}; expected schwarz, linear2k, or table:<path>"
    )


def _parse_budget(text: str):
    if text == "auto":
        return default_budget(cap=_MAX_DEGREE)
    try:
        d = int(text)
    except ValueError:
        raise InputError(f"--dmax must be 'auto' or an integer, got {text!r}") from None
    if not 1 <= d <= _MAX_DEGREE:
        raise InputError(f"--dmax {d} outside 1..{_MAX_DEGREE}")
    return fixed_budget(d)


def _study(args, cfg: dict, n_grid: tuple[int, ...] = ()):
    """The spec maker (call it once ``cfg`` is checked) and Monte Carlo config; pops kind keys."""
    common = {"budget": _parse_budget(args.dmax), "penalty": _parse_penalty(args.penalty)}
    if args.kind == "uniformity":
        make_spec = functools.partial(uniformity_spec, **common)
    elif args.kind == "independence":
        make_spec = functools.partial(independence_spec, **common)
    elif args.kind == "deconvolution":
        sigma = _config_float(cfg.pop("noise_sigma", 0.25), "noise_sigma")
        if sigma <= 0:
            raise InputError("noise_sigma must be positive")
        make_spec = functools.partial(
            deconvolution_spec,
            noise=gaussian_noise(sigma),
            l_draws=_config_int(cfg.pop("l_draws", 200_000), "l_draws"),
            l_seed=_config_int(cfg.pop("l_seed", 0), "l_seed"),
            grid_points=_config_int(cfg.pop("grid_points", 2001), "grid_points"),
            **common,
        )
    else:
        beta0 = cfg.pop("beta0", [0.0])
        if not isinstance(beta0, list):
            raise InputError(f'config "beta0" must be a list, got {json.dumps(beta0)}')
        beta0 = [_config_float(b, f"beta0[{i}]") for i, b in enumerate(beta0)]
        make_spec = functools.partial(composite_spec, beta0=np.array(beta0), **common)
    config = MonteCarloConfig(
        replications=args.mc_reps, seed=args.seed, alpha=args.alpha, n_grid=n_grid
    )
    return make_spec, config


def _parse_alternative(kind: str, cfg: dict, path: str) -> AlternativeSpec:
    """The alternative that ``cfg``, read from ``path``, pops as "alternative"."""
    alt = cfg.pop("alternative", None)
    if not isinstance(alt, dict) or "type" not in alt:
        raise InputError('config needs an "alternative" object with a "type"')
    which = alt.pop("type")
    if which == "contamination":
        if kind == "independence":
            raise InputError(
                'config "alternative": a contamination alternative draws single values, '
                "and --kind independence tests (x, y) pairs"
            )
        coeffs = alt.pop("coefficients", None)
        if not isinstance(coeffs, dict) or not coeffs:
            raise InputError('contamination alternative needs a "coefficients" map')
        parsed = {}
        for j, c in coeffs.items():
            # int() would also read "01", "+1", " 1" and "1_0"
            if not (j.isascii() and j.isdigit() and j[0] != "0"):
                raise InputError(
                    f"{path}: contamination degree must be a decimal integer >= 1, "
                    f"got {json.dumps(j)}"
                )
            parsed[int(j)] = _config_float(c, f"coefficients[{j}]")
        alternative = contamination_alternative(parsed)
    elif which == "noisy_copy":
        if kind != "independence":
            raise InputError("noisy_copy alternative only applies to --kind independence")
        alternative = noisy_copy_pairs(_config_float(alt.pop("noise_sd", 0.5), "noise_sd"))
    else:
        raise InputError(f"unknown alternative type {which!r}")
    _no_unknown_keys(alt, 'config "alternative"')
    return alternative


# ---------------------------------------------------------------------------
# subcommands


def _cmd_test(args) -> dict:
    kind = args.kind
    columns = ("x", "y") if kind == "independence" else ("x",)
    data = _read_csv_columns(args.input, columns)
    n = int(data.shape[0])
    make_spec, config = _study(args, {})
    spec = make_spec()
    try:
        outcome = run_test(data, spec)
    except ValueError as e:
        raise InputError(f"{args.input}: {e}") from e
    calibration = null_distribution(spec, n, config)
    p = p_value(outcome.t_s, calibration)
    decision = "reject" if p <= args.alpha else "accept"
    series = [
        {
            "k": k + 1,
            "t": float(outcome.series[k]),
            "pi": float(outcome.penalties[k]),
            "penalized": float(outcome.penalized[k]),
        }
        for k in range(outcome.series.size)
    ]
    return {
        "command": "test",
        "kind": kind,
        "n": n,
        "s": outcome.s,
        "t_s": outcome.t_s,
        "p_value": p,
        "critical_value": calibration.critical_value,
        "alpha": args.alpha,
        "decision": decision,
        "penalty": args.penalty,
        "budget_dim": len(outcome.series),
        "mc_reps": args.mc_reps,
        "seed": args.seed,
        "series": series,
    }


def _cmd_calibrate(args) -> dict:
    cfg = _read_config(args.input)
    if "n" not in cfg:
        raise InputError(f'{args.input}: calibrate config needs "n"')
    n = _config_int(cfg.pop("n"), "n")
    make_spec, config = _study(args, cfg)
    _no_unknown_keys(cfg, args.input)
    result = null_distribution(make_spec(), n, config)
    return dataclasses.asdict(result) | {
        "command": "calibrate",
        "kind": args.kind,
        "penalty": args.penalty,
        "budget_dim": len(result.s_counts),
    }


def _cmd_power(args) -> dict:
    cfg = _read_config(args.input)
    make_spec, config = _study(args, cfg, _n_grid(cfg, args.input, "power config"))
    alternative = _parse_alternative(args.kind, cfg, args.input)
    _no_unknown_keys(cfg, args.input)
    result = power_curve(make_spec(), alternative, config)
    run = {"command": "power", "kind": args.kind, "penalty": args.penalty}
    return dataclasses.asdict(result) | run


def _no_unread_flags(args, probe: str, unread: set) -> None:
    """Reject the flags of ``unread`` that the command line set: the probe ignores them."""
    given = sorted(args.given & unread)
    if given:
        raise InputError(f"a {probe} probe does not read {', '.join(given)}")


def _cmd_probe(args) -> dict:
    cfg = _read_config(args.input)
    which = cfg.pop("probe", None)
    run = {"command": "probe", "seed": args.seed, "replications": args.mc_reps}
    if which == "consistency":
        make_spec, config = _study(args, cfg, _n_grid(cfg, args.input, "probe config"))
        alternative = _parse_alternative(args.kind, cfg, args.input)
        threshold = _config_float(cfg.pop("threshold", 0.8), "threshold")
        _no_unknown_keys(cfg, args.input)
        _no_unread_flags(args, which, {"--alpha"})
        result = consistency_probe(make_spec(), alternative, config, threshold=threshold)
        run |= {"kind": args.kind, "penalty": args.penalty, "dmax": args.dmax}
    elif which == "tail_rate":
        sampler_cfg = cfg.pop("sampler", {})
        stype = sampler_cfg.pop("type", "rademacher") if isinstance(sampler_cfg, dict) else None
        if stype != "rademacher":
            raise InputError('tail_rate probe supports sampler {"type": "rademacher"}')
        _no_unknown_keys(sampler_cfg, 'config "sampler"')
        settings = dict(
            n_grid=_n_grid(cfg, args.input, "tail_rate probe", least=2),
            sigma=_config_float(cfg.pop("sigma", 1.0), "sigma"),
            y=_config_float(cfg.pop("y", 0.5), "y"),
            factor=_config_float(cfg.pop("factor", 2.0), "factor"),
        )
        _no_unknown_keys(cfg, args.input)
        _no_unread_flags(args, which, {"--kind", "--penalty", "--dmax", "--alpha"})
        result = tail_rate_probe(
            draw=lambda rng, m: 2.0 * rng.integers(0, 2, m) - 1.0,
            mean=0.0,
            replications=args.mc_reps,
            seed=args.seed,
            **settings,
        )
    else:
        raise InputError(f'{args.input}: "probe" must be "consistency" or "tail_rate"')
    return dataclasses.asdict(result) | run


# ---------------------------------------------------------------------------
# driver


class _Given(argparse.Action):
    """Store the flag's value and add the flag to ``args.given``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.option_strings[0]}


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    # ``given`` holds the flags below that the command line set, so a
    # probe can refuse one it does not read and still run at defaults
    sub.set_defaults(given=frozenset())
    sub.add_argument("--kind", choices=CLI_KINDS, default="uniformity", action=_Given)
    sub.add_argument("--input", required=True, help="CSV data (test) or JSON study config")
    sub.add_argument(
        "--penalty", default="schwarz", action=_Given, help="schwarz | linear2k | table:<path>"
    )
    sub.add_argument(
        "--dmax", default="auto", action=_Given, help="auto | largest dimension to consider"
    )
    sub.add_argument("--alpha", type=float, default=0.05, action=_Given)
    sub.add_argument("--mc-reps", type=int, default=2000, dest="mc_reps")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="report path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntgof",
        description="Data-driven score tests with Monte Carlo calibration.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("test", _cmd_test),
        ("calibrate", _cmd_calibrate),
        ("power", _cmd_power),
        ("probe", _cmd_probe),
    ):
        sub = commands.add_parser(name)
        _add_common_flags(sub)
        sub.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not 0.0 < args.alpha < 1.0:
        print("ntgof: --alpha must lie strictly between 0 and 1", file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"ntgof: --seed must be a non-negative integer, got {args.seed}", file=sys.stderr)
        return 2
    if args.mc_reps < 100:
        print("ntgof: --mc-reps must be >= 100", file=sys.stderr)
        return 2
    if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
        print(f"ntgof: cannot write {args.out}: no such directory", file=sys.stderr)
        return 2
    try:
        report = args.fn(args)
    except ValueError as e:  # InputError included
        print(f"ntgof: {e}", file=sys.stderr)
        return 2
    except KeyError as e:
        # a user penalty table without an entry the run needs
        print(f"ntgof: {e.args[0] if e.args else e}", file=sys.stderr)
        return 2
    except NumericError as e:
        j = getattr(e, "max_dimension", None)
        print(f"ntgof: numeric failure: {e}" + (f" (--dmax {j})" if j else ""), file=sys.stderr)
        return 3
    text = dump_report(report)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"ntgof: cannot write {args.out}: {e.strerror or e}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
