"""Keyed streams: NumPy's SeedSequence keys, derived for chosen blocks."""

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
    run = _philox_keys(seed, path, range(2000))
    assert run.shape == (2000, 2) and run.dtype == np.uint64
    for i in INDICES:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(*path, i))
        assert np.array_equal(run[i], ss.generate_state(2, np.uint64))
        assert np.array_equal(run[i], np.random.Philox(ss).state["state"]["key"])
        # the indices may be any set
        assert np.array_equal(_philox_keys(seed, path, [i])[0], run[i])
    picked = [1999, 0, 64, 63]
    assert np.array_equal(_philox_keys(seed, path, picked), run[picked])


def test_negative_seed_raises_like_seed_sequence():
    with pytest.raises(ValueError) as want:
        np.random.SeedSequence(entropy=-1, spawn_key=(0,))
    message = f"^{re.escape(str(want.value))}$"
    with pytest.raises(ValueError, match=message):
        _philox_keys(-1, (0,), range(4))
    with pytest.raises(ValueError, match=message):
        _philox_keys(3, (-2,), range(4))
    with pytest.raises(ValueError, match=message):
        next(KeyedStreams(-1, (0,)).blocks([0], 1, 1))


def test_keyed_streams_draw_like_substreams(monkeypatch):
    # each row draws an odd number of 32-bit words, so a half-used
    # buffer would leak into the next row if the reset missed it
    calls = []

    def counting(seed, path, indices):
        calls.append((indices[0], indices[-1] + 1, len(indices)))
        return _philox_keys(seed, path, indices)

    monkeypatch.setattr(_rng, "_philox_keys", counting)
    rows = list(range(60, 80 + _KEYS_PER_CALL))
    streams = KeyedStreams(11, (2, 5))
    got = []
    for first, keys in streams.blocks(range(rows[0], rows[-1] + 1, 64), 64, rows[-1] + 1):
        for i, key in enumerate(keys, first):
            rng = streams.at(key)
            got.append((i, rng.integers(0, 1000, 3, dtype=np.int32), rng.standard_normal(2)))
    assert [i for i, *_ in got] == rows
    assert calls == [(60, 60 + _KEYS_PER_CALL, _KEYS_PER_CALL), (60 + _KEYS_PER_CALL, 80 + _KEYS_PER_CALL, 20)]
    for i, ints, normals in got:
        ref = substream(11, 2, 5, i)
        assert np.array_equal(ints, ref.integers(0, 1000, 3, dtype=np.int32))
        assert np.array_equal(normals, ref.standard_normal(2))


def test_blocks_derive_only_their_own_keys(monkeypatch):
    # every other block of 16, as a forked worker takes them, with 40 keys
    # a call: two blocks per call, and no other index is hashed
    calls = []

    def counting(seed, path, indices):
        calls.append(indices.tolist())
        return _philox_keys(seed, path, indices)

    monkeypatch.setattr(_rng, "_KEYS_PER_CALL", 40)
    monkeypatch.setattr(_rng, "_philox_keys", counting)
    got = list(KeyedStreams(4, (0,)).blocks(range(16, 130, 32), 16, 130))
    assert [first for first, _ in got] == [16, 48, 80, 112]
    assert [len(keys) for _, keys in got] == [16, 16, 16, 16]
    owned = [i for first in (16, 48, 80, 112) for i in range(first, min(first + 16, 130))]
    assert sum(calls, []) == owned and [len(c) for c in calls] == [32, 32]
    want = _philox_keys(4, (0,), owned).tolist()
    assert sum((keys for _, keys in got), []) == want
    # a short last block
    (first, keys), = KeyedStreams(4, (0,)).blocks([128], 16, 130)
    assert first == 128 and keys == _philox_keys(4, (0,), [128, 129]).tolist()
