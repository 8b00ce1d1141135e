"""Time layers L0-L2 in-process on fixed inputs; print one JSON record per layer and input set.

The inputs are fixed by the seed:
  - study: the 64 study datasets of designs a-d x 16 truths, replicate 0,
    as simulation.draw_replicate draws them;
  - ragged: the 16 ragged 40-subject files of
    perfbench/inputs.datasets("ragged", seed, 16), read in-process as
    tools/refit_set.py reads them.

The layers, each timed best of k = 5 runs:
  - L0: one estimation._profile call at B = 16, every candidate at the
    start the family search gives it, in us per call, on design d's one
    grid (the study dataset of design d, truth O1M1) and on ragged file 0;
  - L1: per dataset, DatasetStatistics(data) and the family search on
    those statistics, estimation._search_family, with the median over
    the datasets of each best time in ms and the iterations and
    evaluations of the family's fits summed over the datasets;
  - L2: simulation.run_replicate on each of the 64 study cells, which
    draws, fits and scores the cell's dataset, with the median over the
    cells of the best times in ms.
Every record also holds k, OMP_NUM_THREADS (1 unless set, as for the
CLI) and the Python and numpy versions.

Run from the repository root:

    python tools/layer_clock.py [--seed S]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# the CLI's default, before numpy loads its BLAS
os.environ.setdefault("OMP_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from inputs import datasets  # noqa: E402
from lmmbic.candidates import DESIGNS, enumerate_candidates  # noqa: E402
from lmmbic.estimation import (  # noqa: E402
    _MEAN,
    _PRESENT,
    _START,
    _START_CEILING,
    DatasetStatistics,
    FittedModel,
    _profile,
    _search_family,
)
from lmmbic.simulation import StudyConfig, draw_replicate, run_replicate  # noqa: E402

SEED = 42201
REPEATS = 5


def best_of(repeats: int, call) -> tuple[float, object]:
    """The shortest of `repeats` timed calls, in ms, and the last call's result."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best, out


def setting(repeats: int) -> dict:
    """The part of every record that says how it was timed."""
    return {
        "k": repeats,
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def profile_clock(inputs: str, data, repeats: int) -> dict:
    """The L0 record of one dataset (see the module docstring)."""
    stats = DatasetStatistics(data)
    start = np.where(_PRESENT, np.minimum(_START, _START_CEILING / stats.z_scale2), 0.0)
    ms, _ = best_of(repeats, lambda: _profile(stats, _MEAN, start))
    return {
        "layer": "L0",
        "inputs": inputs,
        "rows": len(start),
        "profile_us": round(1e3 * ms, 1),
        **setting(repeats),
    }


def clock(inputs: str, data_sets: list, repeats: int) -> dict:
    """The L1 record of one input set (see the module docstring)."""
    statistics_ms, search_ms, iterations, evaluations = [], [], 0, 0
    for data in data_sets:
        ms, stats = best_of(repeats, lambda: DatasetStatistics(data))
        statistics_ms.append(ms)
        ms, fits = best_of(repeats, lambda: _search_family(stats))
        search_ms.append(ms)
        found = [fit for fit in fits.values() if isinstance(fit, FittedModel)]
        iterations += sum(fit.iterations for fit in found)
        evaluations += sum(fit.evaluations for fit in found)
    return {
        "layer": "L1",
        "inputs": inputs,
        "datasets": len(data_sets),
        "statistics_ms_median": round(statistics.median(statistics_ms), 4),
        "family_search_ms_median": round(statistics.median(search_ms), 4),
        "iterations": iterations,
        "evaluations": evaluations,
        **setting(repeats),
    }


def replicate_clock(inputs: str, cells: list, seed: int, repeats: int) -> dict:
    """The L2 record of (design, truth) cells, replicate 0 (see the module docstring)."""
    config = StudyConfig(seed=seed)
    replicate_ms = [
        best_of(repeats, lambda: run_replicate(design, truth, 0, config))[0]
        for design, truth in cells
    ]
    return {
        "layer": "L2",
        "inputs": inputs,
        "replicates": len(cells),
        "replicate_ms_median": round(statistics.median(replicate_ms), 4),
        **setting(repeats),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    cells = [(design, truth) for design in DESIGNS.values() for truth in enumerate_candidates()]
    study = [draw_replicate(design, truth, 0, args.seed)[1] for design, truth in cells]
    one_grid = draw_replicate(DESIGNS["d"], enumerate_candidates()[0], 0, args.seed)[1]
    ragged = datasets("ragged", args.seed, 16)
    records = [
        lambda: profile_clock(f"study design d, truth O1M1, seed {args.seed}", one_grid, REPEATS),
        lambda: profile_clock(f"ragged 40 subjects, file 0, seed {args.seed}", ragged[0], REPEATS),
        lambda: clock(f"study a-d x 16, seed {args.seed}", study, REPEATS),
        lambda: clock(f"ragged 40 subjects x 16, seed {args.seed}", ragged, REPEATS),
        lambda: replicate_clock(f"study a-d x 16, seed {args.seed}", cells, args.seed, REPEATS),
    ]
    for record in records:
        print(json.dumps(record()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
