"""Monte-Carlo study of selection accuracy across generating structures.

Every candidate takes a turn as the generating truth.  For each
(design, truth) cell the study draws fresh generating parameters per
replicate, simulates a dataset, fits all sixteen candidates, lets each
criterion pick a winner, and counts exact structure recoveries.

Randomness is split into Philox substreams keyed by
(seed, design, truth, replicate), so results do not depend on the
execution schedule and the study parallelizes over replicates with
bit-identical output for any worker count.  draw_replicate alone
derives those substreams, so any replicate can be drawn again on its
own.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from numbers import Integral

import numpy as np

from .candidates import (
    DESIGNS,
    CandidateModel,
    SimulationDesign,
    TrueParameters,
    enumerate_candidates,
    generate_dataset,
)
from .criteria import CRITERIA, build_report, select_model, usable_reports
from .data import Dataset
from .estimation import fit_ml
from .rng import substream

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class StudyConfig:
    """What to run: which designs, how many replicates per (design,
    truth) cell, and the master seed."""

    designs: tuple[str, ...] = tuple(DESIGNS)
    replicates: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.designs, str):  # tuple() would split it into characters
            raise ValueError(f"designs must be a sequence of labels, got {self.designs!r}")
        object.__setattr__(self, "designs", tuple(self.designs))
        # True or 2.0 would pass the range checks and fail, or run, later
        for name in ("replicates", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if not self.designs:
            raise ValueError("designs must name at least one design")
        unknown = [d for d in self.designs if d not in DESIGNS]
        if unknown:
            raise ValueError(f"unknown design labels {unknown}; available: {sorted(DESIGNS)}")
        if len(set(self.designs)) != len(self.designs):
            raise ValueError("design labels must not repeat")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def sample_true_parameters(true_candidate: CandidateModel, rng: np.random.Generator) -> TrueParameters:
    """Draw one generating parameter set for a structure.

    Mean coefficients are near-zero normals (mu0, mu1, mu2 centered at
    0.01, 0.005, 0.0025; free alphas at 0.01, all with unit variance);
    free variances are uniform on [0.01, 1.01]; sigma2 is fixed at 1.
    Parameters absent from the structure are exact zeros.
    """
    mu = rng.normal([0.01, 0.005, 0.0025], 1.0)
    alpha, omega2 = np.zeros(2), np.zeros(3)
    free = true_candidate.mean_columns[3:]  # alpha1 and alpha2
    alpha[free] = rng.normal(0.01, 1.0, size=np.count_nonzero(free))
    free = true_candidate.random_columns  # omega0^2, omega1^2 and omega2^2
    omega2[free] = rng.uniform(0.01, 1.01, size=np.count_nonzero(free))
    return TrueParameters(mu=mu, alpha=alpha, omega2=omega2, sigma2=1.0)


def draw_replicate(
    design: SimulationDesign, true_candidate: CandidateModel, replicate_index: int, seed: int
) -> tuple[TrueParameters, Dataset]:
    """The generating parameters and the dataset of one study replicate.

    The parameters come from substream (seed, design, truth, replicate,
    0) and the dataset's seed from (..., 1).  A design is keyed by its
    position in DESIGNS, so an appended design leaves every other
    design's draws as they were.
    """
    path = (list(DESIGNS).index(design.label), true_candidate.enumeration_index, replicate_index)
    truth = sample_true_parameters(true_candidate, substream(seed, *path, 0))
    data_seed = int(substream(seed, *path, 1).integers(2 ** 63))
    return truth, generate_dataset(design, truth, data_seed)


@dataclass(frozen=True)
class ReplicateResult:
    """Winners per criterion for one simulated dataset.

    selections is None when no candidate fit survived, in which case
    the replicate is dropped from every denominator.
    """

    design_label: str
    truth_id: str
    replicate_index: int
    selections: dict[str, str] | None
    n_failed: int


def run_replicate(
    design: SimulationDesign,
    true_candidate: CandidateModel,
    replicate_index: int,
    config: StudyConfig,
) -> ReplicateResult:
    """Simulate one dataset and let every criterion pick its winner.

    The criteria rank the fits usable_reports keeps; each candidate it
    leaves out is logged and counted in n_failed.
    """
    _, data = draw_replicate(design, true_candidate, replicate_index, config.seed)
    reports, left_out = usable_reports(data, fit_ml, build_report)
    where = f"design {design.label} truth {true_candidate.id} rep {replicate_index}"
    for cand_id, reason in left_out.items():
        logger.warning("%s: candidate %s %s", where, cand_id, reason)
    if not reports:
        logger.warning("%s: no candidate converged; replicate dropped", where)
    selections = {crit: select_model(reports, crit) for crit in CRITERIA} if reports else None
    return ReplicateResult(
        design_label=design.label,
        truth_id=true_candidate.id,
        replicate_index=replicate_index,
        selections=selections,
        n_failed=len(left_out),
    )


@dataclass(frozen=True)
class SelectionCell:
    """Correct-selection count for one (design, truth, criterion) cell."""

    design: str
    truth: str
    criterion: str
    correct: int
    replicates: int

    @property
    def frequency(self) -> float:
        return self.correct / self.replicates if self.replicates else 0.0


@dataclass(frozen=True, eq=False)
class FrequencyTable:
    """Tallied study results.

    rows hold per-(design, truth, criterion) counts over the valid
    replicates; aggregates() pools the truths within a design.
    """

    rows: tuple[SelectionCell, ...]
    invalid_replicates: int
    total_fits: int
    failed_fits: int

    @property
    def nonconvergence_rate(self) -> float:
        return self.failed_fits / self.total_fits if self.total_fits else 0.0

    def aggregates(self) -> list[tuple[str, str, float]]:
        """(design, criterion, pooled frequency) in row order."""
        totals: dict[tuple[str, str], list[int]] = {}
        for row in self.rows:
            total = totals.setdefault((row.design, row.criterion), [0, 0])
            total[0] += row.correct
            total[1] += row.replicates
        return [
            (design, crit, correct / count if count else 0.0)
            for (design, crit), (correct, count) in totals.items()
        ]


def _replicate_task(args: tuple[str, int, int, StudyConfig]) -> ReplicateResult:
    design_label, truth_index, replicate_index, config = args
    truth = enumerate_candidates()[truth_index]
    return run_replicate(DESIGNS[design_label], truth, replicate_index, config)


def run_study(config: StudyConfig, n_workers: int | None = None) -> FrequencyTable:
    """Run the full study grid and tally correct selections.

    n_workers > 1 spreads replicates over a process pool of at most one
    worker per replicate; results are aggregated in task order, so the
    table is identical for any worker count.
    """
    truths = enumerate_candidates()
    tasks = [
        (design_label, truth.enumeration_index, rep, config)
        for design_label in config.designs
        for truth in truths
        for rep in range(config.replicates)
    ]
    workers = 1 if n_workers is None else min(n_workers, len(tasks))
    if workers <= 1:
        results = [_replicate_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_task, tasks, chunksize=4))

    rows = []
    # tasks run design by design, then truth by truth, so a cell's replicates are adjacent
    cells = groupby(results, lambda res: (res.design_label, res.truth_id))
    for (design_label, truth_id), cell in cells:
        valid = [res.selections for res in cell if res.selections is not None]
        for crit in CRITERIA:
            correct = sum(sel[crit] == truth_id for sel in valid)
            rows.append(SelectionCell(design_label, truth_id, crit, correct, len(valid)))
    invalid = sum(res.selections is None for res in results)
    table = FrequencyTable(
        rows=tuple(rows),
        invalid_replicates=invalid,
        total_fits=len(truths) * len(results),  # usable_reports fits every candidate
        failed_fits=sum(res.n_failed for res in results),
    )
    logger.info(
        "study finished: %d replicates dropped, non-convergence rate %.4f",
        invalid, table.nonconvergence_rate,
    )
    return table
