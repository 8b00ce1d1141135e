"""Information criteria, parameter partitions and candidate ranking.

Each criterion charges every free parameter the log of a sample size,
N, n or the effective n_e; SAMPLE_SIZES says which, per parameter class:

    BIC_N  = -2 loglik + p ln N
    BIC_n  = -2 loglik + p ln n
    BIC_ne = -2 loglik + p ln n_e
    BIC_h  = -2 loglik + |theta_R| ln N + |theta_F| ln n

where theta_R collects the parameters tied to subject-level variation
(every free omega_k^2, plus the mean coefficients mu_k and alpha_k of a
component whose omega_k^2 is free) and theta_F the rest, always
including sigma2.  Smaller is better everywhere.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import compress
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .candidates import MEAN_Z, CandidateModel, enumerate_candidates
from .data import Dataset
from .estimation import FittedModel, UnidentifiableModelError, effective_sample_size

# criterion -> (size a theta_R parameter pays, size a theta_F parameter pays)
SAMPLE_SIZES = {"N": ("N", "N"), "n": ("n", "n"), "ne": ("n_e", "n_e"), "h": ("N", "n")}
CRITERIA = tuple(SAMPLE_SIZES)

_JEFFREYS_BREAKS = (1.0, 10.0 ** 0.5, 10.0, 10.0 ** 1.5, 100.0)
_JEFFREYS_LABELS = (
    "Negative",
    "Barely worth mentioning",
    "Substantial",
    "Strong",
    "Very strong",
    "Decisive",
)

# Criterion values within this relative distance of the best are tied:
# the fitted log-likelihood is good to about 1e-11 relative when y carries
# no large trend in x (y + 1000 x^2 moves it by up to 3e-7, README), so a
# nested pair whose extra variance sits at zero differs only in rounding.
# Each fit holds its own search's optimum, so this is the only rule that
# keeps such a collapsed candidate from winning on its last digits.
_TIE_RTOL = 1e-9

_DELTA_BREAKS = (2.0, 6.0, 10.0)
_DELTA_LABELS = (
    "Not worth more than a bare mention",
    "Positive",
    "Strong",
    "Very Strong",
)


@dataclass(frozen=True)
class ParameterPartition:
    """Free-parameter labels split into subject-level and population-level."""

    random: tuple[str, ...]
    fixed: tuple[str, ...]

    @property
    def n_random(self) -> int:
        return len(self.random)

    @property
    def n_fixed(self) -> int:
        return len(self.fixed)


@cache
def partition_parameters(candidate: CandidateModel) -> ParameterPartition:
    """Split a candidate's free parameters into theta_R and theta_F.

    mu_k belongs to theta_R when omega_k^2 is free; alpha_k belongs to
    theta_R when both alpha_k and omega_k^2 are free; every free
    omega_k^2 is in theta_R.  sigma2 and the remaining mean
    coefficients make up theta_F, sigma2 listed first.  The split
    depends on the candidate alone, so it is made once per candidate.
    """
    # the random column on the direction of mu0, mu1, mu2, alpha1 and alpha2
    subject_level = candidate.random_columns[MEAN_Z][candidate.mean_columns]
    mean = candidate.mean_labels()
    random = tuple(compress(mean, subject_level)) + candidate.variance_labels()
    fixed = ("sigma2",) + tuple(compress(mean, ~subject_level))
    return ParameterPartition(random=random, fixed=fixed)


def criterion_values(
    loglik: float, partition: ParameterPartition, sizes: Mapping[str, float]
) -> dict[str, float]:
    """Every criterion's value, in CRITERIA order.

    sizes maps "N", "n" and "n_e" to positive, possibly fractional values.
    A size both parameter classes pay is charged as one p ln m term.
    """
    logs = {}
    for key, m in sizes.items():
        if m <= 0:
            raise ValueError("sample sizes must be positive")
        logs[key] = math.log(m)
    deviance = -2.0 * loglik
    r, f = partition.n_random, partition.n_fixed
    values = {}
    for name, (random_size, fixed_size) in SAMPLE_SIZES.items():
        if random_size == fixed_size:
            values[name] = deviance + (r + f) * logs[random_size]
        else:
            values[name] = deviance + r * logs[random_size] + f * logs[fixed_size]
    return values


def bayes_factor_from_bics(bic_1: float, bic_2: float) -> float:
    """Approximate Bayes factor of model 1 over model 2, exp(-(bic_1 - bic_2)/2).

    Saturates to inf with a warning when the difference is too large
    for a float.
    """
    if not (math.isfinite(bic_1) and math.isfinite(bic_2)):
        raise ValueError("criterion values must be finite")
    try:
        return math.exp(-0.5 * (bic_1 - bic_2))
    except OverflowError:
        warnings.warn("Bayes factor overflows a float; reporting inf", RuntimeWarning)
        return math.inf


def jeffreys_label(bayes_factor: float) -> str:
    """Evidence grade for a Bayes factor; intervals are closed on the left."""
    if not bayes_factor > 0:
        raise ValueError("a Bayes factor must be positive")
    return _JEFFREYS_LABELS[bisect_right(_JEFFREYS_BREAKS, bayes_factor)]


def delta_bic_label(delta: float) -> str:
    """Evidence grade for a non-negative criterion difference."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return _DELTA_LABELS[bisect_right(_DELTA_BREAKS, delta)]


@dataclass(frozen=True, eq=False)
class BicReport:
    """One fit and every criterion's value for it, keyed by CRITERIA."""

    fit: FittedModel
    values: Mapping[str, float]

    @property
    def candidate_id(self) -> str:
        return self.fit.candidate.id

    @property
    def loglik(self) -> float:
        return self.fit.loglik


def build_report(fit: FittedModel) -> BicReport:
    """Evaluate every criterion for one fit (n_e is the fit's n_effective)."""
    sizes = {"N": fit.n_subjects, "n": fit.n_obs, "n_e": effective_sample_size(fit)}
    values = criterion_values(fit.loglik, partition_parameters(fit.candidate), sizes)
    return BicReport(fit=fit, values=MappingProxyType(values))


def usable_reports(
    data: Dataset, fit: Callable[..., FittedModel], report: Callable[..., BicReport]
) -> tuple[list[BicReport], dict[str, str]]:
    """What a selection ranks: report(fit(candidate, data)) for every
    candidate whose fit neither raised nor stopped unconverged, in
    enumeration order; and, by id, why each other candidate was left
    out: "failed to fit (<message>)" or "did not converge".

    The caller passes the fit_ml and build_report its own module
    imported, so that whatever wraps those names sees every call.
    """
    reports, left_out = [], {}
    for cand in enumerate_candidates():
        try:
            fitted = fit(cand, data)
        except (UnidentifiableModelError, np.linalg.LinAlgError) as exc:
            left_out[cand.id] = f"failed to fit ({exc})"
            continue
        if fitted.converged:
            reports.append(report(fitted))
        else:
            left_out[cand.id] = "did not converge"
    return reports, left_out


def _ranked(reports: Sequence[BicReport], criterion: str) -> tuple[list[BicReport], int]:
    """Reports best first: the candidates tied with the best (within
    _TIE_RTOL of the smallest value) by (p, enumeration index), then the
    rest by value; and how many are tied.  Raises ValueError on an
    unknown criterion name."""
    if criterion not in SAMPLE_SIZES:
        raise ValueError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")

    def parsimony(r: BicReport) -> tuple[int, int]:
        return r.fit.candidate.n_parameters, r.fit.candidate.enumeration_index

    by_value = sorted(reports, key=lambda r: (r.values[criterion], *parsimony(r)))
    best = by_value[0].values[criterion]
    tolerance = _TIE_RTOL * abs(best)
    tied = [r for r in by_value if r.values[criterion] - best <= tolerance]
    return sorted(tied, key=parsimony) + by_value[len(tied):], len(tied)


def select_model(reports: Sequence[BicReport], criterion: str) -> str:
    """Candidate id with the smallest value of one criterion.

    Values within _TIE_RTOL of the smallest are ties; they go to the
    candidate with fewer parameters, then to the earlier one in
    enumeration order.
    """
    if not reports:
        raise ValueError("no reports to select from")
    return _ranked(reports, criterion)[0][0].candidate_id


def report_to_dict(report: BicReport) -> dict:
    fit = report.fit
    part = partition_parameters(fit.candidate)
    return {
        "candidate": fit.candidate.id,
        "loglik": fit.loglik,
        "p": fit.candidate.n_parameters,
        "n": fit.n_obs,
        "N": fit.n_subjects,
        "n_e": fit.n_effective,
        **{f"bic_{name}": report.values[name] for name in CRITERIA},
        "theta_R": list(part.random),
        "theta_F": list(part.fixed),
    }


def selection_summary(
    reports: Sequence[BicReport],
    criteria: Iterable[str] = CRITERIA,
) -> dict:
    """Ranking summary across candidates, one winner per criterion.

    For each criterion the two best candidates are compared by
    criterion difference and the matching approximate Bayes factor,
    each with its evidence grade; a runner-up tied with the winner (see
    select_model) has difference 0 and Bayes factor 1.  Raises
    ValueError on an unknown or repeated criterion name, or on a bare
    string of names.
    """
    if not reports:
        raise ValueError("no reports to summarize")
    if isinstance(criteria, str):  # list() would split it into characters
        raise ValueError(f"criteria must be a sequence of names, got {criteria!r}")
    criteria = list(criteria)
    if len(set(criteria)) != len(criteria):
        raise ValueError("criteria must not repeat")
    winners: dict[str, str] = {}
    evidence: dict[str, dict] = {}
    for crit in criteria:
        ranked, n_tied = _ranked(reports, crit)
        winners[crit] = ranked[0].candidate_id
        if len(ranked) > 1:
            best, runner = ranked[0], ranked[1]
            best_value = best.values[crit]
            # a tied runner-up may sit above or below the winner by rounding
            runner_value = best_value if n_tied > 1 else runner.values[crit]
            delta = runner_value - best_value
            bf = bayes_factor_from_bics(best_value, runner_value)
            evidence[crit] = {
                "best": best.candidate_id,
                "runner_up": runner.candidate_id,
                "delta": delta,
                "delta_label": delta_bic_label(delta),
                "bayes_factor": bf,
                "jeffreys_label": jeffreys_label(bf),
            }
    return {
        "n": reports[0].fit.n_obs,
        "N": reports[0].fit.n_subjects,
        "criteria": criteria,
        "candidates": [report_to_dict(r) for r in reports],
        "winners": winners,
        "evidence": evidence,
    }
