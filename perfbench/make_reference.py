"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Computes, for every workload and every seed slot, the outputs of the
workload's calls with one worker (the package promises the same bytes
for any worker count, so the benchmark's default-thread runs must match
them).  The CLI workload's report fields are computed through the
library on one shared spec, and the real CLI is run on a few slots to
confirm they agree.  Writes perfbench/reference.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

os.environ["NTGOF_THREADS"] = "1"

import numpy as np  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_SLOTS_VERIFIED = (0, 1)


def cli_report(w, spec, slot: int) -> dict:
    import ntgof

    data = np.asarray(workloads.observed(w, slot), dtype=float)
    outcome = ntgof.run_test(data, spec)
    cal = ntgof.null_distribution(spec, w.n, workloads.config(w, slot))
    p = ntgof.p_value(outcome.t_s, cal)
    return {
        "s": int(outcome.s),
        "t_s": float(outcome.t_s),
        "p_value": float(p),
        "critical_value": float(cal.critical_value),
        "decision": "reject" if p <= 0.05 else "accept",
    }


def run_cli(w, slot: int) -> dict:
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        csv_path = os.path.join(tmp, "input.csv")
        report_path = os.path.join(tmp, "report.json")
        with open(csv_path, "w") as fh:
            fh.write(workloads.csv_text(w, slot))
        subprocess.run(
            [sys.executable, "-m", "ntgof", *workloads.cli_args(w, slot, csv_path, report_path)],
            check=True,
        )
        with open(report_path) as fh:
            return workloads.report_outputs(json.load(fh))


def main() -> int:
    reference = {"slots": workloads.SLOTS, "rtol": check.RTOL, "workloads": {}}
    for w in workloads.WORKLOADS.values():
        rows = []
        shared = workloads.make_spec(w) if w.is_cli else None
        for slot in range(workloads.SLOTS):
            if w.is_cli:
                row = {"report": cli_report(w, shared, slot)}
            else:
                data = np.asarray(workloads.observed(w, slot), dtype=float)
                row = {
                    "setup": workloads.first_test(workloads.make_spec(w), data),
                    "result": workloads.calibrate(w, workloads.make_spec(w), slot),
                }
            rows.append(row)
            print(w.name, slot, json.dumps(row), flush=True)
        if w.is_cli:
            for slot in CLI_SLOTS_VERIFIED:
                bad = check.mismatches(rows[slot]["report"], run_cli(w, slot))
                if bad:
                    print(f"CLI disagrees with the library on slot {slot}: {bad}")
                    return 1
        reference["workloads"][w.name] = rows
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
