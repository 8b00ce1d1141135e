"""Print every fit of the refit set, one line per fit, for diffing two checkouts.

The refit set is all sixteen candidates on:
  - the study datasets of seeds 1 and 7, designs a-d x 16 truths,
    replicate 0, as simulation.draw_replicate draws them;
  - the 16 ragged 40-subject files of perfbench/inputs.datasets("ragged", 41, 16).

A fit prints the reprs of loglik, beta, omega2, sigma2, converged,
boundary, iterations, evaluations, restarted and n_e; a fit that raises
prints its error message.

Run from the repository root, once per checkout, and compare:

    python tools/refit_set.py > refit.txt

or compare this checkout's refit set with another's, with a tolerance:

    python tools/refit_set.py --against OLD.txt

which prints per numeric field the largest and the median relative
difference, max|a - b| / max(max|a|, max|b|) over a fit's values, and
counts the fits whose converged flag, boundary, restarted flag,
iterations, evaluations or error line changed, and prints the
iterations and evaluations summed over each set's fits, the search
cost of the change; the sums gate nothing.  It exits with status 1
when the two sets hold different fits, when an error line, a converged
flag or a boundary changed, or when a loglik moved by more than
LOGLIK_RTOL relative.
"""

from __future__ import annotations

import argparse
import ast
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from inputs import datasets  # noqa: E402
from lmmbic.candidates import DESIGNS, enumerate_candidates  # noqa: E402
from lmmbic.estimation import UnidentifiableModelError, effective_sample_size, fit_ml  # noqa: E402
from lmmbic.simulation import draw_replicate  # noqa: E402

STUDY_SEEDS = (1, 7)
RAGGED = ("ragged", 41, 16)
# the fields of a fit line, in order
FIELDS = (
    "loglik", "beta", "omega2", "sigma2", "converged",
    "boundary", "iterations", "evaluations", "restarted", "n_e",
)
NUMERIC = ("loglik", "beta", "omega2", "sigma2", "n_e")
COUNTED = ("converged", "boundary", "restarted", "iterations", "evaluations")
# a change in any of these fails the comparison
GATED = ("error", "converged", "boundary")
LOGLIK_RTOL = 1e-10


def study_datasets(seed: int) -> list[tuple[str, object]]:
    """(label, dataset) of every (design, truth) cell's replicate 0."""
    return [
        (f"seed {seed} design {label} truth {truth.id}", draw_replicate(design, truth, 0, seed)[1])
        for label, design in DESIGNS.items()
        for truth in enumerate_candidates()
    ]


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


def refit_lines() -> list[str]:
    sets = [pair for seed in STUDY_SEEDS for pair in study_datasets(seed)]
    kind, seed, count = RAGGED
    sets += [(f"{kind} {seed} file {k}", data) for k, data in enumerate(datasets(*RAGGED))]
    return [
        f"{label} {cand.id}: {fit_line(cand, data)}"
        for label, data in sets
        for cand in enumerate_candidates()
    ]


def parse_fields(text: str) -> list:
    """The values of a fit line's fields, split on the spaces outside brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch in "([") - (ch in ")]")
        if ch == " " and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [ast.literal_eval(part) for part in parts]


def parse(lines: list[str]) -> dict[str, dict | str]:
    """Fit label -> its fields by name, or the error line."""
    fits = {}
    for line in lines:
        label, _, text = line.rstrip("\n").partition(": ")
        fits[label] = text if text.startswith("error ") else dict(zip(FIELDS, parse_fields(text)))
    return fits


def relative_difference(a, b) -> float:
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
    return float(np.abs(a - b).max(initial=0.0) / scale) if scale > 0.0 else 0.0


def compare(old_lines: list[str], new_lines: list[str]) -> tuple[list[str], bool]:
    """A report of how the new refit set differs from the old one, and
    whether it is within tolerance (see the module docstring)."""
    old, new = parse(old_lines), parse(new_lines)
    if old.keys() != new.keys():
        missing, extra = len(old.keys() - new.keys()), len(new.keys() - old.keys())
        return [f"different fits: {missing} only in the old set, {extra} only in the new"], False
    differences = {name: [] for name in NUMERIC}
    changed = dict.fromkeys(("error",) + COUNTED, 0)
    for label, a in old.items():
        b = new[label]
        if isinstance(a, str) or isinstance(b, str):
            changed["error"] += a != b
            continue
        for name in NUMERIC:
            differences[name].append(relative_difference(a[name], b[name]))
        for name in COUNTED:
            changed[name] += a[name] != b[name]
    report = [f"fits: {len(old)}"]
    for name, values in differences.items():
        largest, median = (max(values), statistics.median(values)) if values else (0.0, 0.0)
        report.append(f"{name}: max relative difference {largest:.3g}, median {median:.3g}")
    report += [f"{name} changed: {count}" for name, count in changed.items()]
    for name in ("iterations", "evaluations"):
        sums = [sum(f[name] for f in fits.values() if isinstance(f, dict)) for fits in (old, new)]
        report.append(f"{name} summed: old {sums[0]}, new {sums[1]}")
    loglik = max(differences["loglik"], default=0.0)
    ok = loglik <= LOGLIK_RTOL and not any(changed[name] for name in GATED)
    report.append("within tolerance" if ok else f"NOT within tolerance (loglik {LOGLIK_RTOL:g})")
    return report, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--against", type=Path, help="compare with this saved refit set")
    args = parser.parse_args(argv)
    lines = refit_lines()
    if args.against is None:
        print("\n".join(lines))
        return 0
    report, ok = compare(args.against.read_text().splitlines(), lines)
    print("\n".join(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
