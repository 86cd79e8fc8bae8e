"""The demos run to completion against the current public API, and print what they printed."""

import functools
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout.  A change that moves a demo's numbers on
# purpose re-pins its digest here and says in CHANGES.md what moved.
STDOUT_SHA256 = {
    "dimension_selection": "8ffa1a81184943d9f1f2f497baee8881666b8bd44434f957f9d573e32dec42e0",
    "noisy_observations": "8c409f04884fbe035f0e3e2727c2ac805e267ad19adcdd95f0c01fb7ae7c2fca",
    "parametric_null": "f8705a9fb5255a9bef6dcdd6c8c6a74b0fa290a52c3d26021caff376dbc06fc6",
    "rank_independence": "9e34d3f117aed8efd60cd9a72c8b551b98af5994261012424f820705b36dd5ed",
    "tail_bounds": "17cc5204ff162192f5b750bd6605a13f3e57b6afdedf3f14258502e5107a9b77",
    "uniformity_basics": "21bb2415375f336e1e97c37c0980e1fa119f9ac2ed384c4c6d635011a3140f10",
}


@functools.cache
def run(demo: pathlib.Path) -> subprocess.CompletedProcess:
    """One run of ``demo`` against this checkout's ntgof, stdout and stderr as bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=300)


def test_every_demo_is_collected():
    assert len(DEMOS) == 6
    assert {demo.stem for demo in DEMOS} == set(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    proc = run(demo)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_is_pinned(demo):
    proc = run(demo)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem], (
        proc.stdout.decode()
    )
