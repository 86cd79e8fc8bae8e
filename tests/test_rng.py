"""Keyed streams: NumPy's SeedSequence keys, derived once per run."""

import os
import re
import tracemalloc

import numpy as np
import pytest

from _reference import substream
from ntgof import _rng, montecarlo
from ntgof._rng import _KEYS_PER_CALL, KeyedStreams, _philox_keys
from ntgof.catalog import uniformity_spec
from ntgof.montecarlo import MonteCarloConfig, null_distribution

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
        KeyedStreams(-1, (0,), 1)


def test_keyed_streams_draw_like_substreams(monkeypatch):
    # each row draws an odd number of 32-bit words, so a half-used
    # buffer would leak into the next row if the reset missed it
    calls = []

    def counting(seed, path, indices):
        calls.append((indices[0], indices[-1] + 1, len(indices)))
        return _philox_keys(seed, path, indices)

    monkeypatch.setattr(_rng, "_philox_keys", counting)
    count = 80 + _KEYS_PER_CALL
    streams = KeyedStreams(11, (2, 5), count)
    assert streams.keys.shape == (count, 2) and streams.keys.dtype == np.uint64
    assert calls == [(0, _KEYS_PER_CALL, _KEYS_PER_CALL), (_KEYS_PER_CALL, count, 80)]
    for i in range(60, count):
        rng = streams.at(streams.keys[i].tolist())
        ref = substream(11, 2, 5, i)
        assert np.array_equal(
            rng.integers(0, 1000, 3, dtype=np.int32), ref.integers(0, 1000, 3, dtype=np.int32)
        )
        assert np.array_equal(rng.standard_normal(2), ref.standard_normal(2))


def test_a_run_hashes_its_keys_once_before_the_fork(monkeypatch, tmp_path):
    # at 40 keys a call, 130 replications hash in four calls, every one in
    # this process and before the fork; the chunks equal one hash of all
    log = tmp_path / "calls"
    fork = os.fork

    def logging_keys(seed, path, indices):
        with open(log, "a") as fh:
            fh.write(f"keys {os.getpid()} {len(indices)}\n")
        return _philox_keys(seed, path, indices)

    def logging_fork():
        with open(log, "a") as fh:
            fh.write("fork\n")
        return fork()

    monkeypatch.setattr(_rng, "_KEYS_PER_CALL", 40)
    monkeypatch.setattr(montecarlo, "_BLOCK", 16)
    spec = uniformity_spec()
    monkeypatch.setattr(_rng, "_philox_keys", logging_keys)
    monkeypatch.setattr(os, "fork", logging_fork)
    null_distribution(spec, 60, MonteCarloConfig(replications=130, seed=21))
    me = os.getpid()  # the worker is reaped before the run returns, so its lines are in
    assert log.read_text().splitlines() == [f"keys {me} {m}" for m in (40, 40, 40, 10)] + ["fork"]
    whole = _philox_keys(21, (0,), np.arange(130, dtype=np.uint64))  # the unwrapped hash
    assert np.array_equal(KeyedStreams(21, (0,), 130).keys, whole)


def test_key_table_memory_is_the_table_and_one_call():
    # beyond the 15.3 MiB table, one call's temporaries (0.41 MiB, warm);
    # 10**6 keys hashed in one call would peak near 99 MiB
    count = 10**6
    KeyedStreams(3, (0,), _KEYS_PER_CALL)  # NumPy's first-use allocations
    tracemalloc.start()
    try:
        keys = KeyedStreams(3, (0,), count).keys
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.nbytes == 16 * count
    assert peak - keys.nbytes < 2**19
