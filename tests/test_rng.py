"""Keyed streams: NumPy's SeedSequence keys, derived a block at a time."""

import re

import numpy as np
import pytest

from _reference import substream
from ntgof import _rng
from ntgof._rng import _KEYS_PER_CALL, KeyedStreams, _philox_keys

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 7)
PATHS = ((), (0,), (3, 1), (2**33, 0))
INDICES = (0, 1, 63, 64, 1999)  # 1999: the last replication of a 2,000-replication run


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("path", PATHS)
def test_philox_keys_match_seed_sequence(seed, path):
    run = _philox_keys(seed, path, 0, 2000)
    assert run.shape == (2000, 2) and run.dtype == np.uint64
    for i in INDICES:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(*path, i))
        assert np.array_equal(run[i], ss.generate_state(2, np.uint64))
        assert np.array_equal(run[i], np.random.Philox(ss).state["state"]["key"])
        # a block may start at any index
        assert np.array_equal(_philox_keys(seed, path, i, i + 1)[0], run[i])


def test_negative_seed_raises_like_seed_sequence():
    with pytest.raises(ValueError) as want:
        np.random.SeedSequence(entropy=-1, spawn_key=(0,))
    message = f"^{re.escape(str(want.value))}$"
    with pytest.raises(ValueError, match=message):
        _philox_keys(-1, (0,), 0, 4)
    with pytest.raises(ValueError, match=message):
        _philox_keys(3, (-2,), 0, 4)
    with pytest.raises(ValueError, match=message):
        next(KeyedStreams(-1, (0,)).rows(0, 1))


def test_keyed_streams_draw_like_substreams(monkeypatch):
    # each row draws an odd number of 32-bit words, so a half-used
    # buffer would leak into the next row if the reset missed it
    calls = []

    def counting(*args):
        calls.append(args[2:])
        return _philox_keys(*args)

    monkeypatch.setattr(_rng, "_philox_keys", counting)
    rows = list(range(60, 80 + _KEYS_PER_CALL))
    got = []
    for i, rng in KeyedStreams(11, (2, 5)).rows(rows[0], rows[-1] + 1):
        got.append((i, rng.integers(0, 1000, 3, dtype=np.int32), rng.standard_normal(2)))
    assert [i for i, *_ in got] == rows
    assert calls == [(60, 60 + _KEYS_PER_CALL), (60 + _KEYS_PER_CALL, 80 + _KEYS_PER_CALL)]
    for i, ints, normals in got:
        ref = substream(11, 2, 5, i)
        assert np.array_equal(ints, ref.integers(0, 1000, 3, dtype=np.int32))
        assert np.array_equal(normals, ref.standard_normal(2))
