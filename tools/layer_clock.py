"""Time the family search (layer L1) in-process on fixed inputs; print one JSON record per input set.

The inputs are fixed by the seed:
  - study: the 64 study datasets of designs a-d x 16 truths, replicate 0,
    as simulation.draw_replicate draws them;
  - ragged: the 16 ragged 40-subject files of
    perfbench/inputs.datasets("ragged", seed, 16), read in-process as
    tools/refit_set.py reads them.

Per dataset, DatasetStatistics(data) and the family search on those
statistics, estimation._search_family, are each timed best of k = 5 runs.
A record holds, per input set, the median over its datasets of each
best time in ms, the iterations and evaluations of the family's fits
summed over the datasets, k, OMP_NUM_THREADS (1 unless set, as for the
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
from lmmbic.estimation import DatasetStatistics, FittedModel, _search_family  # noqa: E402
from lmmbic.simulation import draw_replicate  # noqa: E402

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


def clock(inputs: str, data_sets: list, repeats: int) -> dict:
    """The record of one input set (see the module docstring)."""
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
        "inputs": inputs,
        "datasets": len(data_sets),
        "statistics_ms_median": round(statistics.median(statistics_ms), 4),
        "family_search_ms_median": round(statistics.median(search_ms), 4),
        "iterations": iterations,
        "evaluations": evaluations,
        "k": repeats,
        "omp_num_threads": os.environ["OMP_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    study = [
        draw_replicate(design, truth, 0, args.seed)[1]
        for design in DESIGNS.values()
        for truth in enumerate_candidates()
    ]
    sets = {
        f"study a-d x 16, seed {args.seed}": study,
        f"ragged 40 subjects x 16, seed {args.seed}": datasets("ragged", args.seed, 16),
    }
    for inputs, data_sets in sets.items():
        print(json.dumps(clock(inputs, data_sets, REPEATS)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
