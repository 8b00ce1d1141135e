"""Deterministic stream splitting on top of the Philox generator.

A node of a seed's stream tree is the generator
Philox(SeedSequence(seed, spawn_key=path)) (substream).  A Philox stream
is fixed by its key and counter alone (Salmon, Moraes, Dror & Shaw 2011,
SC '11), so a caller that needs many nodes can derive their keys and
re-key one generator instead of building one per node.  substream_keys
derives the keys of a stack of paths in one vectorised pass: it restates
numpy's SeedSequence mixing (pool size 4, hashmix and mix with their
constants, the seed's words zero-padded to the pool, then the path's
words, then generate_state) on uint32 vectors.  The hash constants
advance the same way whatever the words are, and the seed's own words
come first, so the seed's part of the pool is mixed once, on Python
ints, and only the path words are vector work.  Its domain is any
non-negative int seed and path entries in [0, 2**32); substream is the
reference it is tested against.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
# numpy's SeedSequence constants: hash constants and multipliers for
# mixing entropy into the pool (A) and for reading state out of it (B)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator for one node of a seed's stream tree.

    Streams for distinct paths are statistically independent and do not
    depend on the order in which they are created, so work items can be
    drawn in parallel or out of order without changing any result.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    seq = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in path))
    return np.random.Generator(np.random.Philox(seq))


def _hash_constants(init: int, mult: int):
    """The (xor, multiplier) pairs of successive hashmix calls."""
    h = init
    while True:
        nxt = (h * mult) & _MASK32
        yield h, nxt
        h = nxt


def _hashmix(value, consts):
    # on Python ints and on uint32 arrays alike, which wrap at 2**32
    xor, mult = next(consts)
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def substream_keys(seed: int, paths) -> np.ndarray:
    """The Philox keys of the nodes `paths` (k, L) of seed's stream tree.

    Row r is SeedSequence(seed, spawn_key=paths[r]).generate_state(2,
    np.uint64), the key substream(seed, *paths[r]) runs on with its
    counter at 0; returns (k, 2) uint64.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    paths = np.asarray(paths)
    if paths.ndim != 2 or paths.dtype.kind not in "iu" or (
        paths.size and (paths.min() < 0 or paths.max() > _MASK32)
    ):
        raise ValueError("paths must be (k, L) integers in [0, 2**32)")
    words = []
    seed = int(seed)
    while seed or not words:
        words.append(seed & _MASK32)
        seed >>= 32
    words += [0] * (_POOL_SIZE - len(words))
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    pool = [np.full(paths.shape[0], word, dtype=np.uint32) for word in pool]
    for column in paths.astype(np.uint32).T:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(column, consts))
    consts = _hash_constants(_INIT_B, _MULT_B)
    # four uint32 words read little-endian as two uint64
    low0, high0, low1, high1 = (_hashmix(word, consts).astype(np.uint64) for word in pool)
    return np.stack([low0 | high0 << np.uint64(32), low1 | high1 << np.uint64(32)], axis=1)
