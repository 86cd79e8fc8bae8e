"""Checks that every test shares."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped.

    The Monte Carlo engine forks a worker per run and must reap it on
    every path, a raise included.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left behind ({'running' if pid == 0 else f'pid {pid}'})")
