"""Deterministic stream splitting on top of the Philox generator.

A node of a seed's stream tree is the generator
Philox(SeedSequence(seed, spawn_key=path)) (substream).  A Philox stream
is fixed by its key and counter alone (Salmon, Moraes, Dror & Shaw 2011,
SC '11), so a caller that needs many nodes can derive their keys and
re-key one generator instead of building one per node.  substream_keys
derives the keys of a stack of paths in one vectorised pass.  numpy's
SeedSequence mixes the seed's words into its pool before the path's, so
SeedSequence(seed).pool is the pool the path words start from; only what
numpy does not expose is restated, on uint32 vectors: the hash constant
after the seed's hashmix calls, the mixing of each path word into the
pool (hashmix and mix with their constants) and generate_state's
read-out.  substream is the reference it is tested against.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
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
    counter at 0; returns (k, 2) uint64.  seed is a non-negative
    integer, as for substream.
    """
    pool = np.random.SeedSequence(seed).pool
    paths = np.asarray(paths)
    if paths.ndim != 2 or paths.dtype.kind not in "iu" or (
        paths.size and (paths.min() < 0 or paths.max() > _MASK32)
    ):
        raise ValueError("paths must be (k, L) integers in [0, 2**32)")
    # the seed's words took 4 hashmix calls to fill the pool, 12 to mix
    # it and 4 for each word past the fourth
    words = -(-int(seed).bit_length() // 32)
    calls = 4 + 12 + 4 * max(0, words - 4)
    consts = _hash_constants(_INIT_A * pow(_MULT_A, calls, 2**32) & _MASK32, _MULT_A)
    pool = [np.full(paths.shape[0], word, dtype=np.uint32) for word in pool]
    for column in paths.astype(np.uint32).T:
        for dst in range(len(pool)):
            pool[dst] = _mix(pool[dst], _hashmix(column, consts))
    consts = _hash_constants(_INIT_B, _MULT_B)
    # four uint32 words read little-endian as two uint64
    low0, high0, low1, high1 = (_hashmix(word, consts).astype(np.uint64) for word in pool)
    return np.stack([low0 | high0 << np.uint64(32), low1 | high1 << np.uint64(32)], axis=1)
