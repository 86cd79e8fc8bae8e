"""The workloads of the ntgof benchmark and the inputs each one gets.

A workload is one public entry point at a fixed size.  Its inputs (the
Monte Carlo seed handed to the program and the observed sample) come
from the benchmark seed through ``slot = seed % SLOTS``, so every input
the program can receive has a recorded reference output in
``reference.json``.  The observed samples are drawn with the standard
library's generator, which lets the orchestrator write the CLI's CSV
without importing numpy.

This module imports nothing from ntgof or numpy at import time; the
functions that build specs and call the package import it lazily.
"""

from __future__ import annotations

import dataclasses
import random

SLOTS = 32


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # ntgof.cli kind name
    n: int
    reps: int
    why: str

    @property
    def is_cli(self) -> bool:
        return self.name.startswith("cli-")


# Two more workloads were tried and left out, because their run-to-run
# spread on a shared 2-vCPU machine went past the 0.25 bound:
# null_distribution(uniformity_spec(), n=500, R=10000) at the default
# worker count (up to 0.30 of the median), and a power curve on the
# independence kind (up to 0.27).  calib-composite runs every layer the
# uniformity workload ran.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "calib-composite", "composite", 500, 2_000,
            "Gaussian location null at the default worker count: per-replication engine, substreams, MLE fit, CDF transform, information-block cache and a weighted series",
        ),
        Workload(
            "cli-deconvolution-cold", "deconvolution", 500, 2_000,
            "fresh CLI process at its flag defaults: import and the quadrature score table dominate, Monte Carlo is a small share",
        ),
    )
}

DECONV_SIGMA = 0.25


def mc_seed(slot: int) -> int:
    """The Monte Carlo seed the program receives for a slot."""
    return slot


def observed(workload: Workload, slot: int) -> list:
    """The observed sample of a workload, as a list of floats."""
    rng = random.Random(f"ntgof-bench/{workload.name}/{slot}")
    n = workload.n
    if workload.kind == "composite":
        return [rng.gauss(0.0, 1.0) for _ in range(n)]
    if workload.kind == "deconvolution":
        return [rng.random() + rng.gauss(0.0, DECONV_SIGMA) for _ in range(n)]
    raise ValueError(f"unknown kind {workload.kind!r}")


def csv_text(workload: Workload, slot: int) -> str:
    """The CLI's input file for a slot, with round-trip exact floats."""
    return "x\n" + "".join(f"{x!r}\n" for x in observed(workload, slot))


def cli_args(workload: Workload, slot: int, csv_path: str, report_path: str) -> list:
    """``ntgof test`` arguments: the CLI defaults apart from input, seed and output."""
    return [
        "test", "--kind", workload.kind, "--input", csv_path,
        "--seed", str(mc_seed(slot)), "--out", report_path,
    ]


# ---------------------------------------------------------------------------
# calls into the package (lazy imports)


def make_spec(workload: Workload):
    """A freshly built spec, as the CLI builds it for this kind."""
    import ntgof

    if workload.kind == "composite":
        return ntgof.composite_spec()
    if workload.kind == "deconvolution":
        return ntgof.deconvolution_spec(noise=ntgof.gaussian_noise(DECONV_SIGMA))
    raise ValueError(f"unknown kind {workload.kind!r}")


def config(workload: Workload, slot: int):
    import ntgof

    return ntgof.MonteCarloConfig(replications=workload.reps, seed=mc_seed(slot))


def calibrate(workload: Workload, spec, slot: int) -> dict:
    """One Monte Carlo call of the workload; returns the outputs to check.

    The CLI workload calibrates the same way the CLI does:
    ``null_distribution`` at n and the CLI's R.  The worker count comes
    from ``NTGOF_THREADS`` as for any user.
    """
    import ntgof

    result = ntgof.null_distribution(spec, workload.n, config(workload, slot))
    return {
        "critical_value": float(result.critical_value),
        "s_counts": [int(c) for c in result.s_counts],
    }


def first_test(spec, data) -> dict:
    import ntgof

    outcome = ntgof.run_test(data, spec)
    return {"s": int(outcome.s), "t_s": float(outcome.t_s)}


def report_outputs(report: dict) -> dict:
    """The fields of a CLI report that the reference pins."""
    return {key: report[key] for key in ("s", "t_s", "p_value", "critical_value", "decision")}
