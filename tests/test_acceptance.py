"""End-to-end acceptance gate.

Ten numbered checks cover the load-bearing guarantees of the package:
the information-content closed forms, the hybrid-penalty parameter
split, the degenerate sample-size identities, likelihood and GLS
correctness, estimator sanity on the largest design, the Monte-Carlo
selection patterns, the evidence grading scales, and cross-worker
determinism of the simulate command.  Each check prints a single
PASS/FAIL line (visible under pytest -s) before asserting.

The study check (08) runs 4 designs x 16 truths x 25 replicates x 16
fits and takes several minutes on a small machine.  It asserts that
BIC_N, BIC_n and BIC_ne select better on design d than on design a and
that BIC_ne stays within 0.05 of the better of BIC_N and BIC_n at d,
pooled over all 16 truths.  BIC_h is held to the same two patterns
only on the truths its penalty can recover at both a and d (every
strictly nesting candidate pays a strictly larger r ln N + f ln n; see
hybrid_recovery.py), with the bar taken from BIC_N and BIC_n on the
same truths.  On the truths that have a strictly cheaper nesting
candidate at d, BIC_h must show the collapse the README documents: a
pooled frequency of at most 0.05.  The printed line reports BIC_h's
frequency on each subset and the subset sizes.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from lmmbic.candidates import (
    CandidateModel,
    TrueParameters,
    build_design,
    enumerate_candidates,
    generate_dataset,
)
from lmmbic.cli import main
from lmmbic.criteria import (
    CRITERIA,
    bayes_factor_from_bics,
    build_report,
    delta_bic_label,
    jeffreys_label,
    partition_parameters,
)
from lmmbic.data import Dataset, SubjectBlock
from lmmbic.estimation import (
    DatasetStatistics,
    ProfiledLikelihood,
    _effective_sizes,
    effective_sample_size,
    fit_ml,
)
from lmmbic.model import ParameterVector, log_likelihood, magnitude
from lmmbic.rng import substream
from lmmbic.simulation import DESIGNS, SimulationDesign, StudyConfig, sample_true_parameters, run_study

from hybrid_recovery import cheaper_upgrade_truths, recoverable_truths

EXPECTED_PARTITIONS = {
    "O1M1": (("mu0", "omega0"), ("sigma2", "mu1", "mu2")),
    "O1M2": (("mu0", "omega0"), ("sigma2", "mu1", "mu2", "alpha1")),
    "O1M3": (("mu0", "omega0"), ("sigma2", "mu1", "mu2", "alpha2")),
    "O1M4": (("mu0", "omega0"), ("sigma2", "mu1", "mu2", "alpha1", "alpha2")),
    "O2M1": (("mu0", "mu1", "omega0", "omega1"), ("sigma2", "mu2")),
    "O2M2": (("mu0", "mu1", "alpha1", "omega0", "omega1"), ("sigma2", "mu2")),
    "O2M3": (("mu0", "mu1", "omega0", "omega1"), ("sigma2", "mu2", "alpha2")),
    "O2M4": (("mu0", "mu1", "alpha1", "omega0", "omega1"), ("sigma2", "mu2", "alpha2")),
    "O3M1": (("mu0", "mu2", "omega0", "omega2"), ("sigma2", "mu1")),
    "O3M2": (("mu0", "mu2", "omega0", "omega2"), ("sigma2", "mu1", "alpha1")),
    "O3M3": (("mu0", "mu2", "alpha2", "omega0", "omega2"), ("sigma2", "mu1")),
    "O3M4": (("mu0", "mu2", "alpha2", "omega0", "omega2"), ("sigma2", "mu1", "alpha1")),
    "O4M1": (("mu0", "mu1", "mu2", "omega0", "omega1", "omega2"), ("sigma2",)),
    "O4M2": (("mu0", "mu1", "mu2", "alpha1", "omega0", "omega1", "omega2"), ("sigma2",)),
    "O4M3": (("mu0", "mu1", "mu2", "alpha2", "omega0", "omega1", "omega2"), ("sigma2",)),
    "O4M4": (
        ("mu0", "mu1", "mu2", "alpha1", "alpha2", "omega0", "omega1", "omega2"),
        ("sigma2",),
    ),
}


def _line(num: int, description: str, ok: bool) -> None:
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {description}")


def _exchangeable(n: int, rho: float) -> np.ndarray:
    R = np.full((n, n), rho)
    np.fill_diagonal(R, 1.0)
    return R


def test_01_pairwise_magnitude_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in (-0.9, -0.5, 0.0, 0.3, 0.5, 0.9):
        worst = max(worst, abs(magnitude(_exchangeable(2, rho)) - 2.0 / (1.0 + rho)))
    anticorrelated = magnitude(_exchangeable(2, -0.5))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and abs(anticorrelated - 4.0) <= 1e-10 and anticorrelated > 2.0 and elapsed < 1.0
    _line(1, f"2x2 information content matches 2/(1+rho), max err {worst:.2e}", ok)
    assert ok


def test_02_magnitude_matches_explicit_inverse():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        A = rng.normal(size=(k, k))
        S = A @ A.T + k * np.eye(k)
        d = np.sqrt(np.diagonal(S))
        R = S / np.outer(d, d)
        worst = max(worst, abs(magnitude(R) - float(np.linalg.inv(R).sum())))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _line(2, f"100 random PD matrices up to 8x8 vs explicit inverse, max err {worst:.2e}", ok)
    assert ok


def test_03_hybrid_penalty_partition_table():
    ok = True
    for cand in enumerate_candidates():
        part = partition_parameters(cand)
        expected_random, expected_fixed = EXPECTED_PARTITIONS[cand.id]
        ok &= part.random == expected_random
        ok &= part.fixed == expected_fixed
        ok &= part.n_random + part.n_fixed == cand.n_parameters
    _line(3, "per-candidate parameter split and penalty counts, all 16, exact", ok)
    assert ok


def test_04_degenerate_sample_size_identities():
    # no random effects: the model-implied correlation is the identity,
    # so n_e is exactly the observation count and BIC_ne == BIC_n
    truth = TrueParameters(
        mu=[1.0, 0.3, -0.02], alpha=[0.0, 0.0], omega2=[0.4, 0.0, 0.0], sigma2=1.0
    )
    data = generate_dataset(SimulationDesign("t", 10, 5), truth, seed=104)
    cand = CandidateModel.from_id("O1M1")
    base = fit_ml(cand, data)
    no_effects = dataclasses.replace(
        base,
        theta_hat=ParameterVector(
            beta=base.theta_hat.beta, omega2=np.zeros(1), sigma2=1.3
        ),
        # n_e at no random effects, from the fit path's own computation
        n_effective=float(_effective_sizes(DatasetStatistics(data), np.zeros((1, 3)))[0]),
    )
    exact_n = effective_sample_size(no_effects) == float(data.n_obs)
    rep = build_report(no_effects)
    exact_bic = rep.values["ne"] == rep.values["n"]

    # one observation per subject: N == n and every criterion collapses
    # to the same value
    rng = np.random.default_rng(1004)
    # keep every x away from zero: at x == 0 a per-direction variance
    # model can zero one observation's variance while the mean
    # interpolates it, which makes the likelihood unbounded
    singles = Dataset(
        subjects=tuple(
            SubjectBlock(
                id=f"s{i}",
                x=np.array([float(i % 5) + 0.5 * (i % 3) + 0.5]),
                c=float(rng.normal()),
                y=rng.normal(size=1),
            )
            for i in range(12)
        )
    )
    coincide = True
    for cand in enumerate_candidates():
        r = build_report(fit_ml(cand, singles))
        values = tuple(r.values.values())
        coincide &= max(values) - min(values) <= 1e-10
    ok = exact_n and exact_bic and coincide
    _line(4, "n_e == n without random effects (exact); all criteria coincide at n_i == 1", ok)
    assert ok


def test_05_ess_bounds_random_intercept():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1005)
    cand = CandidateModel.from_id("O1M1")
    # omega0 is estimated at exactly zero on five of the datasets; the
    # observations are then independent and carry n_e = n exactly
    independent, correlated, at_zero = 0, 0, []
    for index in range(100):
        n_sub = int(rng.integers(2, 16))
        n_per = int(rng.integers(4, 9))
        truth = TrueParameters(
            mu=rng.normal(size=3),
            alpha=[0.0, 0.0],
            omega2=[float(rng.uniform(0.1, 2.0)), 0.0, 0.0],
            sigma2=float(rng.uniform(0.5, 2.0)),
        )
        data = generate_dataset(
            SimulationDesign("t", n_sub, n_per), truth, seed=int(rng.integers(2 ** 31))
        )
        fit = fit_ml(cand, data)
        n_e = effective_sample_size(fit)
        if "omega0" in fit.boundary:
            at_zero.append(index)
            independent += int(fit.theta_hat.omega2[0] == 0.0 and n_e == data.n_obs)
        else:
            correlated += int(data.n_subjects < n_e < data.n_obs)
    elapsed = time.perf_counter() - t0
    ok = at_zero == [0, 10, 30, 31, 92] and independent == 5 and correlated == 95
    ok = ok and elapsed < 30.0
    _line(
        5,
        f"n_e == n on {independent}/5 fits with omega0 = 0 (at {at_zero}), "
        f"N < n_e < n on {correlated}/95 others in {elapsed:.1f}s",
        ok,
    )
    assert ok


def _brute_force_loglik(params, candidate, data):
    total = 0.0
    for block in data.subjects:
        design = build_design(candidate, block)
        V = design.Z @ np.diag(params.omega2) @ design.Z.T + params.sigma2 * np.eye(
            block.n_obs
        )
        resid = block.y - design.X @ params.beta
        quad = float(resid @ np.linalg.inv(V) @ resid)
        total += -0.5 * (
            block.n_obs * math.log(2.0 * math.pi) + math.log(np.linalg.det(V)) + quad
        )
    return total


def test_06_literal_likelihood_and_gls():
    rng = np.random.default_rng(1006)
    candidates = enumerate_candidates()
    worst_ll = 0.0
    worst_orth = 0.0
    for r in range(50):
        cand = candidates[r % 16]
        subjects = []
        for i in range(int(rng.integers(3, 7))):
            n_i = int(rng.integers(2, 7))
            subjects.append(
                SubjectBlock(
                    id=f"s{i}",
                    x=np.sort(rng.uniform(0.0, 10.0, size=n_i)),
                    c=float(rng.normal()),
                    y=rng.normal(size=n_i),
                )
            )
        data = Dataset(subjects=tuple(subjects))
        q = len(cand.variance_labels())
        # small coefficients keep the quadratic form O(10), so the
        # absolute 1e-8 comparison is meaningful
        params = ParameterVector(
            beta=0.1 * rng.normal(size=cand.n_mean),
            omega2=rng.uniform(0.1, 1.5, size=q),
            sigma2=float(rng.uniform(0.5, 2.0)),
        )
        worst_ll = max(
            worst_ll,
            abs(log_likelihood(params, cand, data) - _brute_force_loglik(params, cand, data)),
        )

        _, beta_hat = ProfiledLikelihood(cand, data).evaluate(params.omega2, params.sigma2)
        score = np.zeros(cand.n_mean)
        for block in data.subjects:
            design = build_design(cand, block)
            V = design.Z @ np.diag(params.omega2) @ design.Z.T + params.sigma2 * np.eye(
                block.n_obs
            )
            score += design.X.T @ np.linalg.solve(V, block.y - design.X @ beta_hat)
        worst_orth = max(worst_orth, float(np.max(np.abs(score))))
    ok = worst_ll <= 1e-8 and worst_orth < 1e-8
    _line(
        6,
        f"likelihood vs brute force err {worst_ll:.2e}; GLS orthogonality {worst_orth:.2e}",
        ok,
    )
    assert ok


def test_07_fit_dominates_truth_on_large_design():
    seed = 7
    design = DESIGNS["d"]
    design_index = sorted(DESIGNS).index("d")
    cand = CandidateModel.from_id("O1M1")
    dominated = 0
    sigma2_hats = []
    for rep in range(25):
        truth_rng = substream(seed, design_index, cand.enumeration_index, rep, 0)
        truth = sample_true_parameters(cand, truth_rng)
        data_seed = int(
            substream(seed, design_index, cand.enumeration_index, rep, 1).integers(2 ** 63)
        )
        data = generate_dataset(design, truth, data_seed)
        fit = fit_ml(cand, data)
        beta, omega2, sigma2 = truth.free_values(cand)
        ll_truth = log_likelihood(ParameterVector(beta, omega2, sigma2), cand, data)
        dominated += int(fit.loglik >= ll_truth - 1e-6)
        sigma2_hats.append(fit.theta_hat.sigma2)
    mean_sigma2 = float(np.mean(sigma2_hats))
    ok = dominated == 25 and abs(mean_sigma2 - 1.0) <= 0.1
    _line(
        7,
        f"fitted loglik beats truth in {dominated}/25 replicates; mean sigma2 {mean_sigma2:.4f}",
        ok,
    )
    assert ok


def _pooled(table, design: str, criterion: str, truths) -> float:
    """Correct-selection frequency pooled over the given truths' rows."""
    rows = [
        r for r in table.rows if r.design == design and r.criterion == criterion and r.truth in truths
    ]
    count = sum(r.replicates for r in rows)
    return sum(r.correct for r in rows) / count if count else 0.0


def test_08_study_selection_patterns():
    workers = os.cpu_count() or 1
    t0 = time.perf_counter()
    table = run_study(
        StudyConfig(designs=("a", "b", "c", "d"), replicates=25, seed=1),
        n_workers=workers,
    )
    elapsed = time.perf_counter() - t0
    budget = 600.0 * 4.0 / min(4, workers)
    agg = {(d, c): f for d, c, f in table.aggregates()}
    standard = ("N", "n", "ne")
    gain = all(agg[("d", c)] > agg[("a", c)] for c in standard)
    bar = max(agg[("d", "N")], agg[("d", "n")]) - 0.05
    competitive = agg[("d", "ne")] >= bar

    # BIC_h is held to the same patterns only on the truths its penalty
    # can recover at both designs; on truths with a strictly cheaper
    # nesting candidate it must show the collapse the README documents
    recoverable = set(recoverable_truths(DESIGNS["a"])) & set(recoverable_truths(DESIGNS["d"]))
    cheaper = set(cheaper_upgrade_truths(DESIGNS["d"]))
    h_a, h_d = (_pooled(table, d, "h", recoverable) for d in ("a", "d"))
    h_bar = max(_pooled(table, "d", c, recoverable) for c in ("N", "n")) - 0.05
    h_cheaper = _pooled(table, "d", "h", cheaper)
    h_ok = bool(recoverable) and bool(cheaper) and h_d > h_a and h_d >= h_bar and h_cheaper <= 0.05

    ok = gain and competitive and h_ok and elapsed <= budget
    freqs = " ".join(
        f"{c}:a={agg[('a', c)]:.2f},d={agg[('d', c)]:.2f}" for c in CRITERIA
    )
    _line(
        8,
        f"d>a for N,n,ne and ne within 0.05 of best at d; {freqs}; "
        f"h on {len(recoverable)} recoverable truths a={h_a:.2f},d={h_d:.2f} (bar {h_bar:.2f}); "
        f"h on {len(cheaper)} cheaper-upgrade truths d={h_cheaper:.2f} (<= 0.05); "
        f"{elapsed:.0f}s of {budget:.0f}s budget",
        ok,
    )
    assert ok


def test_09_evidence_grade_tables():
    jeffreys_rows = [
        (0.5, "Negative"),
        (2.0, "Barely worth mentioning"),
        (5.0, "Substantial"),
        (20.0, "Strong"),
        (50.0, "Very strong"),
        (200.0, "Decisive"),
    ]
    delta_rows = [
        (1.0, "Not worth more than a bare mention"),
        (4.0, "Positive"),
        (8.0, "Strong"),
        (20.0, "Very Strong"),
    ]
    ok = all(jeffreys_label(bf) == label for bf, label in jeffreys_rows)
    ok &= all(delta_bic_label(d) == label for d, label in delta_rows)
    rng = np.random.default_rng(1009)
    for _ in range(20):
        a, b = rng.uniform(50.0, 400.0, size=2)
        ok &= abs(bayes_factor_from_bics(a, b) * bayes_factor_from_bics(b, a) - 1.0) <= 1e-12
    _line(9, "both evidence scales at interior points; Bayes factor reciprocity", ok)
    assert ok


def test_10_simulate_determinism_across_threads(tmp_path):
    flags = ["simulate", "--design", "a", "--replicates", "1", "--seed", "9"]
    outputs = []
    for name, threads in (("one", "1"), ("two", "1"), ("three", "2")):
        out_dir = tmp_path / name
        code = main(flags + ["--threads", threads, "--out", str(out_dir)])
        assert code == 0
        outputs.append(
            (
                (out_dir / "results.csv").read_bytes(),
                (out_dir / "summary.csv").read_bytes(),
            )
        )
    ok = outputs[0] == outputs[1] == outputs[2]
    _line(10, "results.csv and summary.csv byte-identical across runs and worker counts", ok)
    assert ok
