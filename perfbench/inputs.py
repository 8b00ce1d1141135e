"""Seeded input files for the select workloads.

File k of a workload draws its generating structure from a
seed-dependent permutation of all sixteen candidates, its parameters
from `sample_true_parameters`, and its data from a further substream,
so the same seed always gives the same files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from lmmbic.candidates import X_RANGE, enumerate_candidates, generate_dataset
from lmmbic.data import Dataset, SubjectBlock
from lmmbic.rng import substream
from lmmbic.simulation import DESIGNS, sample_true_parameters

# Substream roots, one per workload, so the two file sets are unrelated.
SHARED_STREAM = 1
RAGGED_STREAM = 2

RAGGED_SUBJECTS = 40
RAGGED_SIZES = (2, 12)


def shared_dataset(truth, rng: np.random.Generator) -> Dataset:
    """Design d: 100 subjects on one common 100-point grid."""
    return generate_dataset(DESIGNS["d"], truth, int(rng.integers(2**63)))


def ragged_dataset(truth, rng: np.random.Generator) -> Dataset:
    """40 subjects, each with its own sorted U[0, 10] grid of 2..12 points."""
    sd_eta = np.sqrt(truth.omega2)
    sd_eps = np.sqrt(truth.sigma2)
    subjects = []
    for i in range(RAGGED_SUBJECTS):
        n = int(rng.integers(RAGGED_SIZES[0], RAGGED_SIZES[1] + 1))
        x = np.sort(rng.uniform(*X_RANGE, size=n))
        c = rng.normal(0.0, 1.0)
        eta = rng.normal(0.0, 1.0, size=3) * sd_eta
        psi0 = truth.mu[0] + eta[0]
        psi1 = truth.mu[1] + truth.alpha[0] * c + eta[1]
        psi2 = truth.mu[2] + truth.alpha[1] * c + eta[2]
        y = psi0 + psi1 * x + psi2 * x * x + sd_eps * rng.normal(0.0, 1.0, size=n)
        subjects.append(SubjectBlock(id=f"s{i + 1:02d}", x=x, c=c, y=y))
    return Dataset(subjects=tuple(subjects))


def datasets(kind: str, seed: int, count: int) -> list[Dataset]:
    """The datasets of files 0..count-1."""
    stream, make = {
        "shared": (SHARED_STREAM, shared_dataset),
        "ragged": (RAGGED_STREAM, ragged_dataset),
    }[kind]
    candidates = enumerate_candidates()
    order = substream(seed, stream).permutation(len(candidates))
    out = []
    for k in range(count):
        cand = candidates[int(order[k % len(candidates)])]
        truth = sample_true_parameters(cand, substream(seed, stream, k, 0))
        out.append(make(truth, substream(seed, stream, k, 1)))
    return out


def write_csv(data: Dataset, path: Path) -> None:
    """subject,x,c,y rows with float reprs, which read_dataset parses exactly."""
    lines = ["subject,x,c,y"]
    for s in data.subjects:
        c = repr(s.c)
        lines.extend(f"{s.id},{x!r},{c},{y!r}" for x, y in zip(s.x.tolist(), s.y.tolist()))
    path.write_text("\n".join(lines) + "\n")
