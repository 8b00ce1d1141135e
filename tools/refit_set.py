"""Print every fit of the refit set, one line per fit, for diffing two checkouts.

The refit set is all sixteen candidates on:
  - the study datasets of seeds 1 and 7, designs a-d x 16 truths,
    replicate 0, as run_replicate generates them;
  - the 16 ragged 40-subject files of perfbench/inputs.datasets("ragged", 41, 16).

A fit prints the reprs of loglik, beta, omega2, sigma2, converged,
boundary, iterations, evaluations, restarted and n_e; a fit that raises
prints its error message.  The study datasets are kept by a
perfbench/tracing.Tracer around simulation.generate_dataset while
run_replicate runs, so their seeding is run_replicate's own.

Run from the repository root, once per checkout, and compare:

    python tools/refit_set.py > refit.txt
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import lmmbic.simulation  # noqa: E402
from inputs import datasets  # noqa: E402
from lmmbic.candidates import DESIGNS, enumerate_candidates  # noqa: E402
from lmmbic.estimation import UnidentifiableModelError, effective_sample_size, fit_ml  # noqa: E402
from lmmbic.simulation import StudyConfig, run_replicate  # noqa: E402
from tracing import Tracer  # noqa: E402

STUDY_SEEDS = (1, 7)
RAGGED = ("ragged", 41, 16)


def study_datasets(seed: int) -> list[tuple[str, object]]:
    """(label, dataset) of every (design, truth) cell's replicate 0."""
    kept = []
    tracer = Tracer(lambda summary, calls: kept.extend(result for _, _, result in calls))
    tracer.wrap(lmmbic.simulation, "generate_dataset", "generate_dataset", keep=True)
    labels = []
    try:
        for design in sorted(DESIGNS):
            config = StudyConfig(designs=(design,), replicates=1, seed=seed)
            for truth in enumerate_candidates():
                run_replicate(DESIGNS[design], truth, 0, config)
                labels.append(f"seed {seed} design {design} truth {truth.id}")
    finally:
        tracer.uninstall()
    return list(zip(labels, kept, strict=True))


def fit_line(cand, data) -> str:
    try:
        fit = fit_ml(cand, data)
    except (UnidentifiableModelError, np.linalg.LinAlgError) as exc:
        return f"error {exc}"
    theta = fit.theta_hat
    fields = (
        fit.loglik, theta.beta.tolist(), theta.omega2.tolist(), theta.sigma2, fit.converged,
        fit.boundary, fit.iterations, fit.evaluations, fit.restarted, effective_sample_size(fit),
    )
    return " ".join(repr(field) for field in fields)


def main() -> None:
    sets = [pair for seed in STUDY_SEEDS for pair in study_datasets(seed)]
    kind, seed, count = RAGGED
    sets += [(f"{kind} {seed} file {k}", data) for k, data in enumerate(datasets(*RAGGED))]
    for label, data in sets:
        for cand in enumerate_candidates():
            print(f"{label} {cand.id}: {fit_line(cand, data)}")


if __name__ == "__main__":
    main()
