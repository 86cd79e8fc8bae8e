"""Deterministic random-stream plumbing.

Every randomized routine in the package draws from Philox counter-based
streams addressed by (seed, path): the stream of (seed, *path, i) is
the one ``Philox(SeedSequence(entropy=seed, spawn_key=(*path, i)))``
starts, so the same address always yields the same stream, however the
work around it is grouped.  The Monte Carlo engine draws replication i
from its own address, so results are bit-identical for any block size.

A fresh SeedSequence per address costs its hash and two new objects.
:class:`KeyedStreams` serves the addresses (seed, *path, i), i < count,
of a run from one Philox and one Generator: it hashes their keys once,
_KEYS_PER_CALL indices at a time, with NumPy's SeedSequence hash written
out in vectorized integer arithmetic, into one (count, 2) table in index
order, and moves the Philox to a key with counter 0 and an empty
buffer -- the state a fresh Philox starts in, so the draws are the same
bits.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["KeyedStreams"]


# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx), which NumPy
# documents as stable across releases: a pool of 4 uint32 words and the
# hashmix/mix constants below.  Values stay below 2**32 and are masked
# after every product, so the same code runs on Python ints and on
# uint64 arrays, whose products of two such values cannot overflow.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(n) -> list[int]:
    """uint32 words of a non-negative integer, least significant first.

    The split SeedSequence applies to its entropy and spawn key, with
    its error for a negative value.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(value, const: int, mult: int = _MULT_A):
    """One hashmix step: the hashed value and the next hash constant."""
    nxt = (const * mult) & _MASK32
    value = ((value ^ const) * nxt) & _MASK32
    return value ^ (value >> 16), nxt


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ (r >> 16)


def _philox_keys(seed: int, path: tuple[int, ...], indices) -> np.ndarray:
    """(len(indices), 2) uint64 Philox keys of the streams (seed, *path, i), i in ``indices``.

    Row j equals ``SeedSequence(entropy=seed, spawn_key=(*path, i))
    .generate_state(2, np.uint64)`` for i = indices[j], the key
    ``Philox`` takes from that sequence.  The words before i are hashed
    as Python ints; only the index word and the output run on arrays.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    if indices.size and indices.max() >= 2**32:
        raise ValueError("stream index beyond 2**32 - 1")
    run = _words(seed)
    # with a spawn key, SeedSequence pads the run entropy to the pool size
    entropy = run + [0] * (_POOL - len(run)) + [w for p in path for w in _words(p)]
    entropy.append(indices)
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL]:
        h, const = _hashmix(word, const)
        pool.append(h)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            h, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], h)
    # generate_state(2, np.uint64): four words, paired little-endian
    const = _INIT_B
    out = []
    for word in pool:
        h, const = _hashmix(word, const, _MULT_B)
        out.append(h)
    return np.stack([out[0] | (out[1] << 32), out[2] | (out[3] << 32)], axis=-1)


# Indices hashed per _philox_keys call: the hash's temporaries for one
# call, about 0.4 MB, are all the memory a key table needs beyond itself,
# for any run length.  A run of up to this many replications derives its
# keys in one call (0.2 ms for 2,000 keys on a 2-vCPU VM).
_KEYS_PER_CALL = 4096


class KeyedStreams:
    """The streams (seed, *path, i), i < count, from one Generator.

    ``keys[i]`` is the (2,) uint64 Philox key of stream i, derived when
    the object is made.  ``at(key)`` moves the one Generator to the
    start of the stream with that key, so it draws the same bits as a
    Generator on ``Philox(SeedSequence(entropy=seed, spawn_key=(*path, i)))``.
    The Generator is one object for every stream: a caller must take
    every draw it needs from it before moving it to the next key.
    """

    def __init__(self, seed: int, path: tuple[int, ...], count: int):
        self.keys = np.empty((count, 2), np.uint64)
        for first in range(0, count, _KEYS_PER_CALL):
            stop = min(first + _KEYS_PER_CALL, count)
            indices = np.arange(first, stop, dtype=np.uint64)
            self.keys[first:stop] = _philox_keys(seed, path, indices)
        self._bitgen = np.random.Philox(0)
        self._rng = np.random.Generator(self._bitgen)
        # Python ints, not uint64 arrays: the Philox state setter reads
        # them in half the time (1.0 against 2.3 us a row, 2-vCPU VM)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": None},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def at(self, key) -> np.random.Generator:
        """The Generator at counter 0 of ``key`` ([k0, k1], Python ints), its buffer empty."""
        self._state["state"]["key"] = key
        self._bitgen.state = self._state
        return self._rng
