"""Output checks and the correctness oracle.

A check returns a list of problems; an empty list means it passed.
Nesting violations and failed fits are not check failures: they are
counted and reported as metrics.
"""

from __future__ import annotations

import math

from lmmbic.candidates import CandidateModel, enumerate_candidates
from lmmbic.criteria import CRITERIA
from lmmbic.model import log_likelihood

NESTING_TOLERANCE = 1e-3
BIC_REL_TOLERANCE = 1e-9
# A fit's loglik and the dense reference at its estimate: differences
# above ORACLE_ABS_TOLERANCE are counted, and one above
# ORACLE_REL_TOLERANCE of |loglik| fails the run.  On 10,000-row data the
# sufficient-statistics path loses digits to cancellation that grows with
# |y|: over 60 seeded design-d files the two paths differed by up to
# 5.3e-10 relative (8e-6 absolute), so only a relative bound can be a
# gate, and it sits well above that rounding and far below any error
# that could change a BIC ranking.
ORACLE_ABS_TOLERANCE = 1e-6
ORACLE_REL_TOLERANCE = 1e-8


def _terms(c: CandidateModel) -> set[str]:
    flags = {
        "alpha1": c.alpha1_free,
        "alpha2": c.alpha2_free,
        "omega1": c.omega1_free,
        "omega2": c.omega2_free,
    }
    return {name for name, on in flags.items() if on}


def nested_pairs() -> list[tuple[str, str]]:
    """(smaller, larger) id pairs where the larger candidate strictly nests the smaller."""
    cands = enumerate_candidates()
    return [
        (small.id, large.id)
        for small in cands
        for large in cands
        if small != large and _terms(small) <= _terms(large)
    ]


NESTED_PAIRS = nested_pairs()


def nesting_counts(logliks: dict[str, float]) -> tuple[int, int]:
    """(violations, pairs checked) over nested pairs with both candidates fitted."""
    checked = violations = 0
    for small, large in NESTED_PAIRS:
        if small in logliks and large in logliks:
            checked += 1
            violations += logliks[large] < logliks[small] - NESTING_TOLERANCE
    return violations, checked


def check_select(payload: dict, n_obs: int, n_subjects: int) -> list[str]:
    """Problems in one `lmmbic select` JSON document."""
    problems = []
    if payload.get("n") != n_obs or payload.get("N") != n_subjects:
        problems.append(f"n, N = {payload.get('n')}, {payload.get('N')}; expected {n_obs}, {n_subjects}")
    reports = payload.get("candidates") or []
    ids = [r["candidate"] for r in reports]
    valid = {c.id for c in enumerate_candidates()}
    if not ids or len(set(ids)) != len(ids) or not set(ids) <= valid:
        problems.append(f"candidate list {ids} is empty, repeated or unknown")
    winners = payload.get("winners") or {}
    if sorted(winners) != sorted(CRITERIA) or not set(winners.values()) <= set(ids):
        problems.append(f"winners {winners} are not one listed candidate per criterion")
    log_N, log_n = math.log(n_subjects), math.log(n_obs)
    for r in reports:
        deviance = -2.0 * r["loglik"]
        expected = {
            "bic_N": deviance + r["p"] * log_N,
            "bic_n": deviance + r["p"] * log_n,
            "bic_h": deviance + len(r["theta_R"]) * log_N + len(r["theta_F"]) * log_n,
        }
        for key, value in expected.items():
            if not math.isclose(r[key], value, rel_tol=BIC_REL_TOLERANCE):
                problems.append(f"{r['candidate']} {key} = {r[key]!r}, expected {value!r}")
        n_e = r["n_e"]
        if not (math.isfinite(n_e) and n_e >= n_subjects * (1.0 - BIC_REL_TOLERANCE)):
            problems.append(f"{r['candidate']} n_e = {n_e!r} is not finite and at least N")
    return problems


def check_study(result: dict, n_designs: int, tasks: int) -> list[str]:
    """Problems in a summarized FrequencyTable."""
    problems = []
    expected_rows = n_designs * len(enumerate_candidates()) * len(CRITERIA)
    if len(result["frequencies"]) != expected_rows:
        problems.append(f"{len(result['frequencies'])} rows, expected {expected_rows}")
    if result["total_fits"] != 16 * tasks:
        problems.append(f"total_fits {result['total_fits']}, expected {16 * tasks}")
    if not all(0.0 <= f <= 1.0 for f in result["frequencies"]):
        problems.append("a selection frequency lies outside [0, 1]")
    return problems


def digest(summary: dict, kept: list[tuple]) -> dict:
    """Condense one span tree and its kept results.

    Kept fit_ml results are compared against the dense reference
    likelihood, model.log_likelihood; kept build_report results give the
    tree's log-likelihoods by candidate, for the nesting count.
    """
    nonconverged = mismatch = 0
    max_rel_diff = 0.0
    logliks = {}
    for name, args, result in kept:
        if name == "estimation.fit_ml":
            candidate, data = args[0], args[1]
            nonconverged += not result.converged
            diff = abs(result.loglik - log_likelihood(result.theta_hat, candidate, data))
            mismatch += not diff <= ORACLE_ABS_TOLERANCE
            max_rel_diff = max(max_rel_diff, diff / max(1.0, abs(result.loglik)))
        elif name == "criteria.build_report":
            logliks[result.candidate_id] = result.loglik
    return {
        "layers": summary,
        "nonconverged": nonconverged,
        "mismatch": mismatch,
        "max_rel_diff": max_rel_diff,
        "logliks": logliks,
    }
