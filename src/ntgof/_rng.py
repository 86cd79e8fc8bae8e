"""Deterministic random-stream plumbing.

Every randomized routine in the package draws from Philox counter-based
streams addressed by (seed, path): the same address always yields the
same stream, however the work around it is grouped.  The Monte Carlo
engine draws replication i from its own address, so results are
bit-identical for any block size.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream"]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the work item addressed by ``path`` under ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(ss))
