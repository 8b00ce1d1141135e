import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from lmmbic.candidates import CandidateModel, TrueParameters, enumerate_candidates, generate_dataset
from lmmbic.criteria import (
    _TIE_RTOL,
    CRITERIA,
    BicReport,
    ParameterPartition,
    bayes_factor_from_bics,
    build_report,
    criterion_values,
    delta_bic_label,
    jeffreys_label,
    partition_parameters,
    report_to_dict,
    select_model,
    selection_summary,
    usable_reports,
)
from lmmbic.data import Dataset, SubjectBlock
from lmmbic.estimation import FittedModel, UnidentifiableModelError, fit_ml
from lmmbic.model import ParameterVector
from lmmbic.simulation import DESIGNS, SimulationDesign

from hybrid_recovery import cheaper_upgrade_truths, recoverable_truths, sample_sizes

# Expected split of each candidate's free parameters into the
# subject-level group (pays ln N) and the population-level group
# (pays ln n), enumerated exhaustively.
PARTITION_TABLE = {
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


def sizes(n_subjects, n_obs, n_effective):
    return {"N": n_subjects, "n": n_obs, "n_e": n_effective}


def closed_forms(loglik, part, n_subjects, n_obs, n_effective):
    """The paper's criteria, each summed as the formula reads."""
    p = part.n_random + part.n_fixed
    return {
        "N": -2.0 * loglik + p * math.log(n_subjects),
        "n": -2.0 * loglik + p * math.log(n_obs),
        "ne": -2.0 * loglik + p * math.log(n_effective),
        "h": -2.0 * loglik + part.n_random * math.log(n_subjects) + part.n_fixed * math.log(n_obs),
    }


# p = 3 and p = 2: one size for every parameter, as the single-size rows charge it
THREE = ParameterPartition(random=("mu0", "omega0"), fixed=("sigma2",))
TWO = ParameterPartition(random=("omega0",), fixed=("sigma2",))


class TestBic:
    """The rows that charge one sample size on every parameter."""

    def test_frozen_value(self):
        values = criterion_values(-100.0, THREE, sizes(100, 100, 100))
        for name in ("N", "n", "ne"):
            np.testing.assert_allclose(values[name], 213.81551055796427, rtol=1e-12)

    def test_manual_formula(self):
        values = criterion_values(-10.0, TWO, sizes(50, 80, 60))
        assert values["N"] == pytest.approx(20.0 + 2.0 * math.log(50.0))
        assert values["n"] == pytest.approx(20.0 + 2.0 * math.log(80.0))
        assert values["ne"] == pytest.approx(20.0 + 2.0 * math.log(60.0))

    def test_nonpositive_sample_size(self):
        for size in ("N", "n", "n_e"):
            for bad in (0, -3):
                with pytest.raises(ValueError, match="positive"):
                    criterion_values(-10.0, TWO, {**sizes(50, 80, 60), size: bad})

    def test_fractional_sample_size_accepted(self):
        # effective sample sizes are rarely integers
        values = criterion_values(-10.0, TWO, sizes(50, 80, 36.7))
        assert values["ne"] == pytest.approx(20.0 + 2.0 * math.log(36.7))


class TestPartition:
    def test_exhaustive_table(self):
        for cand in enumerate_candidates():
            part = partition_parameters(cand)
            expected_random, expected_fixed = PARTITION_TABLE[cand.id]
            assert part.random == expected_random, cand.id
            assert part.fixed == expected_fixed, cand.id

    def test_counts_cover_all_parameters(self):
        for cand in enumerate_candidates():
            part = partition_parameters(cand)
            assert part.n_random + part.n_fixed == cand.n_parameters
            assert set(part.random).isdisjoint(part.fixed)
            assert "sigma2" in part.fixed

    def test_penalty_coefficient_extremes(self):
        assert partition_parameters(CandidateModel(m=4, o=4)).n_random == 8
        assert partition_parameters(CandidateModel(m=1, o=1)).n_random == 2


class TestBicH:
    """The hybrid row: theta_R pays ln N, theta_F pays ln n."""

    def test_frozen_value(self):
        part = partition_parameters(CandidateModel(m=1, o=2))
        assert (part.n_random, part.n_fixed) == (4, 2)
        values = criterion_values(-50.0, part, sizes(20, 100, 50))
        np.testing.assert_allclose(values["h"], 121.19326946619215, rtol=1e-12)

    def test_reduces_to_bic_when_counts_match(self):
        part = partition_parameters(CandidateModel(m=1, o=1))
        values = criterion_values(-30.0, part, sizes(40, 40, 40))
        assert values["h"] == pytest.approx(values["N"])

    def test_nonpositive_counts(self):
        part = partition_parameters(CandidateModel(m=1, o=1))
        with pytest.raises(ValueError):
            criterion_values(-30.0, part, sizes(0, 10, 5))
        with pytest.raises(ValueError):
            criterion_values(-30.0, part, sizes(10, 0, 5))


class TestCriterionValues:
    # fractional n_e included; (12.5, 7, 7, 7.0) has N == n == n_e
    @pytest.mark.parametrize("loglik, n_subjects, n_obs, n_e", [
        (-100.0, 20, 100, 60.0),
        (-50.0, 100, 300, 137.25),
        (12.5, 7, 7, 7.0),
        (-1234.5678, 100, 10000, 5234.891),
        (-3.25, 2, 3, 2.000001),
    ])
    def test_every_candidate_matches_closed_form_exactly(self, loglik, n_subjects, n_obs, n_e):
        for cand in enumerate_candidates():
            part = partition_parameters(cand)
            values = criterion_values(loglik, part, sizes(n_subjects, n_obs, n_e))
            assert list(values) == list(CRITERIA)
            expected = closed_forms(loglik, part, n_subjects, n_obs, n_e)
            for name in CRITERIA:
                assert values[name] == expected[name], (cand.id, name)

    def test_report_keys_follow_the_table(self):
        row = report_to_dict(report_for("O2M3", -50.0))
        assert list(row) == [
            "candidate", "loglik", "p", "n", "N", "n_e",
            "bic_N", "bic_n", "bic_ne", "bic_h", "theta_R", "theta_F",
        ]


class TestHybridRecovery:
    """The truths BIC_h can recover on each study design."""

    def test_one_direction_upgrade_cost(self):
        # freeing omega_k^2 moves mu_k, and alpha_k when free, into theta_R
        for label, design in sorted(DESIGNS.items()):
            n_subjects, n_obs = sample_sizes(design)
            design_sizes = sizes(n_subjects, n_obs, n_obs)
            for m in (1, 2, 3, 4):
                for o_from, o_to, k in ((1, 2, 1), (1, 3, 2), (3, 4, 1), (2, 4, 2)):
                    small, big = CandidateModel(m=m, o=o_from), CandidateModel(m=m, o=o_to)
                    a_k = int(small.alpha1_free if k == 1 else small.alpha2_free)
                    big_h, small_h = (
                        criterion_values(-50.0, partition_parameters(c), design_sizes)["h"]
                        for c in (big, small)
                    )
                    cost = big_h - small_h
                    expected = (2 + a_k) * math.log(n_subjects) - (1 + a_k) * math.log(n_obs)
                    assert cost == pytest.approx(expected, abs=1e-9), (label, small.id, big.id)

    def test_recoverable_truths_per_design(self):
        o4 = ("O4M1", "O4M2", "O4M3", "O4M4")
        expected = {
            "a": ("O1M1", "O2M1", "O2M2", "O3M1", "O3M3") + o4,
            "b": o4,
            "c": tuple(c.id for c in enumerate_candidates()),
            "d": o4,
        }
        for label, truths in expected.items():
            assert recoverable_truths(DESIGNS[label]) == truths, label

    def test_cheaper_upgrade_truths_per_design(self):
        # design d sits on the tie 2 ln N == ln n: the five truths whose
        # open directions carry no alpha_k are in neither subset there
        alpha_upgrades = ("O1M2", "O1M3", "O1M4", "O2M3", "O2M4", "O3M2", "O3M4")
        assert cheaper_upgrade_truths(DESIGNS["a"]) == alpha_upgrades
        assert cheaper_upgrade_truths(DESIGNS["c"]) == ()
        assert cheaper_upgrade_truths(DESIGNS["d"]) == alpha_upgrades
        assert set(cheaper_upgrade_truths(DESIGNS["b"])) == {
            c.id for c in enumerate_candidates() if c.o != 4
        }


class TestBayesFactor:
    def test_identity(self):
        bf = bayes_factor_from_bics(100.0, 104.0)
        assert bf == pytest.approx(math.exp(2.0))

    def test_reciprocal_pair(self):
        a = bayes_factor_from_bics(10.0, 16.0)
        b = bayes_factor_from_bics(16.0, 10.0)
        assert a * b == pytest.approx(1.0)

    def test_equal_bics_give_unity(self):
        assert bayes_factor_from_bics(5.0, 5.0) == 1.0

    def test_overflow_saturates_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bf = bayes_factor_from_bics(0.0, 5000.0)
        assert bf == math.inf
        assert any("inf" in str(w.message) for w in caught)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            bayes_factor_from_bics(math.nan, 1.0)
        with pytest.raises(ValueError):
            bayes_factor_from_bics(1.0, math.inf)


class TestEvidenceLabels:
    def test_jeffreys_breakpoints_left_closed(self):
        assert jeffreys_label(0.5) == "Negative"
        assert jeffreys_label(1.0) == "Barely worth mentioning"
        assert jeffreys_label(10.0 ** 0.5) == "Substantial"
        assert jeffreys_label(10.0) == "Strong"
        assert jeffreys_label(10.0 ** 1.5) == "Very strong"
        assert jeffreys_label(100.0) == "Decisive"
        assert jeffreys_label(1e6) == "Decisive"

    def test_jeffreys_interior_points(self):
        assert jeffreys_label(2.0) == "Barely worth mentioning"
        assert jeffreys_label(5.0) == "Substantial"
        assert jeffreys_label(20.0) == "Strong"
        assert jeffreys_label(50.0) == "Very strong"

    def test_jeffreys_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            jeffreys_label(0.0)

    def test_delta_breakpoints_left_closed(self):
        assert delta_bic_label(0.0) == "Not worth more than a bare mention"
        assert delta_bic_label(2.0) == "Positive"
        assert delta_bic_label(6.0) == "Strong"
        assert delta_bic_label(10.0) == "Very Strong"
        assert delta_bic_label(50.0) == "Very Strong"

    def test_delta_rejects_negative(self):
        with pytest.raises(ValueError):
            delta_bic_label(-0.1)


def report_for(candidate_id, loglik, n_obs=100, n_subjects=20, n_effective=60.0):
    cand = CandidateModel.from_id(candidate_id)
    theta = ParameterVector(np.zeros(cand.mean_columns.sum()), np.ones(cand.n_variance), 1.0)
    fit = FittedModel(cand, theta, loglik, True, (), n_obs, n_subjects, n_effective)
    return build_report(fit)


def rigged(report, criterion, value):
    """report with one criterion's value replaced."""
    return dataclasses.replace(report, values={**report.values, criterion: value})


class TestSelectModel:
    def test_picks_smallest(self):
        reports = [report_for("O1M1", -60.0), report_for("O2M1", -40.0)]
        assert select_model(reports, "n") == "O2M1"

    def test_tie_prefers_fewer_parameters(self):
        # force bit-identical criterion values, leaving only p to break the tie
        r_small = report_for("O1M1", -50.0)  # p = 5
        r_large = rigged(report_for("O4M4", -41.0), "n", r_small.values["n"])
        assert r_large.values["n"] == r_small.values["n"]
        assert select_model([r_large, r_small], "n") == "O1M1"

    def test_rounding_level_tie_prefers_fewer_parameters(self):
        # the larger candidate is lower by 1e-12 relative, rounding in the
        # log-likelihood rather than evidence
        r_small = report_for("O1M1", -50.0)
        lower = r_small.values["h"] * (1 - 1e-12)
        r_large = rigged(report_for("O2M1", -50.0), "h", lower)
        assert r_large.values["h"] < r_small.values["h"]
        assert select_model([r_large, r_small], "h") == "O1M1"

    def test_tie_on_everything_prefers_enumeration_order(self):
        # O2M1 and O3M1 have identical p; give them identical logliks
        r_a = report_for("O3M1", -50.0)
        r_b = report_for("O2M1", -50.0)
        assert select_model([r_a, r_b], "n") == "O2M1"

    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="criterion"):
            select_model([report_for("O1M1", -50.0)], "AIC")

    def test_empty_reports(self):
        with pytest.raises(ValueError):
            select_model([], "n")

    def test_each_criterion_consulted(self):
        # rigged reports where different criteria pick different winners
        base = report_for("O1M1", -50.0, n_effective=99.0)
        rival = report_for("O4M4", -43.0, n_effective=99.0)
        winners = {crit: select_model([base, rival], crit) for crit in CRITERIA}
        assert winners["N"] != winners["n"]


class TestSelectionSummary:
    def test_no_reports_rejected(self):
        with pytest.raises(ValueError, match="no reports to summarize"):
            selection_summary([])

    def test_structure_and_evidence(self):
        reports = [report_for("O1M1", -60.0), report_for("O2M1", -40.0)]
        payload = selection_summary(reports)
        assert payload["n"] == 100 and payload["N"] == 20
        assert set(payload["winners"]) == set(CRITERIA)
        row = payload["candidates"][0]
        for key in ("candidate", "loglik", "p", "n", "N", "n_e",
                    "bic_N", "bic_n", "bic_ne", "bic_h", "theta_R", "theta_F"):
            assert key in row
        ev = payload["evidence"]["n"]
        assert ev["best"] == "O2M1"
        assert ev["delta"] >= 0
        assert ev["bayes_factor"] >= 1.0
        assert ev["delta_label"] == delta_bic_label(ev["delta"])
        assert ev["jeffreys_label"] == jeffreys_label(ev["bayes_factor"])

    def test_tied_runner_up_below_winner_has_zero_delta(self):
        r_small = report_for("O1M1", -50.0)
        lower = r_small.values["h"] * (1 - 1e-12)
        r_large = rigged(report_for("O2M1", -50.0), "h", lower)
        ev = selection_summary([r_large, r_small], criteria=["h"])["evidence"]["h"]
        assert (ev["best"], ev["runner_up"]) == ("O1M1", "O2M1")
        assert ev["delta"] == 0.0
        assert ev["bayes_factor"] == 1.0
        assert ev["delta_label"] == delta_bic_label(0.0)

    # O2M1's value sits this many _TIE_RTOL, relative, above O1M1's
    @pytest.mark.parametrize("offset", [0.999, -0.999, 1.001, -1.001])
    def test_tie_reads_the_same_on_both_sides(self, offset):
        r_small = report_for("O1M1", -50.0)
        value = r_small.values["h"] * (1 + offset * _TIE_RTOL)
        r_large = rigged(report_for("O2M1", -50.0), "h", value)
        ev = selection_summary([r_large, r_small], criteria=["h"])["evidence"]["h"]
        if abs(offset) < 1:
            assert (ev["best"], ev["runner_up"]) == ("O1M1", "O2M1")
            assert (ev["delta"], ev["bayes_factor"]) == (0.0, 1.0)
        else:
            best, runner = sorted([r_large, r_small], key=lambda r: r.values["h"])
            assert (ev["best"], ev["runner_up"]) == (best.candidate_id, runner.candidate_id)
            assert ev["delta"] == runner.values["h"] - best.values["h"] > 0
            assert ev["bayes_factor"] == bayes_factor_from_bics(best.values["h"], runner.values["h"])
            assert ev["bayes_factor"] > 1

    def test_criteria_subset(self):
        reports = [report_for("O1M1", -60.0), report_for("O2M1", -40.0)]
        payload = selection_summary(reports, criteria=["ne"])
        assert list(payload["winners"]) == ["ne"]
        assert list(payload["evidence"]) == ["ne"]

    def test_unknown_criterion_rejected(self):
        reports = [report_for("O1M1", -60.0), report_for("O2M1", -40.0)]
        with pytest.raises(ValueError, match="unknown criterion 'AIC'"):
            selection_summary(reports, criteria=["n", "AIC"])

    def test_repeated_criteria_rejected(self):
        reports = [report_for("O1M1", -60.0), report_for("O2M1", -40.0)]
        with pytest.raises(ValueError, match="repeat"):
            selection_summary(reports, criteria=["N", "N", "ne"])

    @pytest.mark.parametrize("criteria", ["Nn", "ne", "h"])
    def test_bare_string_criteria_rejected(self, criteria):
        reports = [report_for("O1M1", -60.0), report_for("O2M1", -40.0)]
        with pytest.raises(ValueError, match="criteria"):
            selection_summary(reports, criteria=criteria)

    def test_single_report_has_no_evidence(self):
        payload = selection_summary([report_for("O1M1", -60.0)])
        assert payload["evidence"] == {}


class TestBuildReport:
    def fit_small(self):
        truth = TrueParameters(
            mu=[1.0, 0.4, -0.05], alpha=[0.0, 0.0], omega2=[0.5, 0.0, 0.0], sigma2=1.0
        )
        data = generate_dataset(SimulationDesign("t", 10, 4), truth, seed=77)
        return fit_ml(CandidateModel(m=1, o=1), data), data

    def test_values_consistent_with_parts(self):
        fit, data = self.fit_small()
        report = build_report(fit)
        assert report.candidate_id == "O1M1"
        assert [field.name for field in dataclasses.fields(BicReport)] == ["fit", "values"]
        assert report.fit is fit
        assert report.fit.candidate.n_parameters == 5
        assert report.fit.n_obs == data.n_obs and report.fit.n_subjects == data.n_subjects
        expected = closed_forms(
            fit.loglik, partition_parameters(fit.candidate),
            data.n_subjects, data.n_obs, report.fit.n_effective,
        )
        assert dict(report.values) == expected
        with pytest.raises(TypeError):
            report.values["n"] = 0.0  # read-only
        assert data.n_subjects < report.fit.n_effective < data.n_obs
        # intermediate sample size puts BIC_ne between its siblings
        lo, hi = sorted((report.values["N"], report.values["n"]))
        assert lo <= report.values["ne"] <= hi

    def test_single_observation_per_subject_collapses_criteria(self):
        # x stays off zero so no single observation's variance can be
        # driven to zero while the mean interpolates it
        rng = np.random.default_rng(78)
        subjects = tuple(
            SubjectBlock(
                id=f"s{i}",
                x=np.array([float(i % 5) + 0.5 * (i % 3) + 0.5]),
                c=rng.normal(),
                y=rng.normal(size=1),
            )
            for i in range(12)
        )
        data = Dataset(subjects=subjects)
        for cand in enumerate_candidates():
            fit = fit_ml(cand, data)
            report = build_report(fit)
            values = list(report.values.values())
            assert max(values) - min(values) < 1e-10, cand.id


class TestUsableReports:
    def test_ranks_the_fits_that_neither_raised_nor_stopped_unconverged(self):
        data = object()  # passed through to fit untouched
        fitted, reported = [], []

        def fit(cand, given):
            fitted.append((cand, given))
            if cand.id == "O2M3":
                raise UnidentifiableModelError("alpha2 not estimable")
            if cand.id == "O1M4":
                raise np.linalg.LinAlgError("singular capacitance")
            return SimpleNamespace(candidate=cand, converged=cand.id != "O4M1")

        def report(fit):
            reported.append(fit)
            return fit.candidate.id

        reports, left_out = usable_reports(data, fit, report)
        candidates = enumerate_candidates()
        assert fitted == [(cand, data) for cand in candidates]
        kept = [c.id for c in candidates if c.id not in {"O1M4", "O2M3", "O4M1"}]
        assert len(reports) == 13 and reports == kept
        assert [r.candidate.id for r in reported] == kept
        assert list(left_out.items()) == [
            ("O1M4", "failed to fit (singular capacitance)"),
            ("O2M3", "failed to fit (alpha2 not estimable)"),
            ("O4M1", "did not converge"),
        ]

    def test_other_errors_propagate(self):
        def fit(cand, data):
            raise RuntimeError("not a fit failure")

        with pytest.raises(RuntimeError):
            usable_reports(object(), fit, build_report)
