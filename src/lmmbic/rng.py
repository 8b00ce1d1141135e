"""Deterministic stream splitting on top of the Philox generator.

A node of a seed's stream tree is the generator
Philox(SeedSequence(seed, spawn_key=path)).  A Philox stream is fixed by
its key and counter alone (Salmon, Moraes, Dror & Shaw 2011, SC '11), so
distinct nodes are independent streams, and a caller that needs many
independent draws takes them as one block from one node rather than
building a node per draw.
"""

from __future__ import annotations

import numpy as np


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
