import hashlib

import numpy as np
import pytest

import lmmbic.simulation
from lmmbic.candidates import CandidateModel, SimulationDesign, enumerate_candidates
from lmmbic.criteria import CRITERIA, build_report, select_model, usable_reports
from lmmbic.estimation import fit_ml
from lmmbic.report import emit_report
from lmmbic.rng import substream
from lmmbic.simulation import (
    DESIGNS,
    FrequencyTable,
    SelectionCell,
    StudyConfig,
    draw_replicate,
    run_replicate,
    run_study,
    sample_true_parameters,
)


class TestDesigns:
    def test_catalog(self):
        sizes = {label: (d.n_subjects, d.n_per_subject) for label, d in DESIGNS.items()}
        assert sizes == {"a": (20, 5), "b": (20, 100), "c": (100, 5), "d": (100, 100)}

    def test_labels_match_keys(self):
        for label, design in DESIGNS.items():
            assert design.label == label


class TestStudyConfig:
    def test_defaults(self):
        config = StudyConfig()
        assert config.designs == ("a", "b", "c", "d")
        assert config.replicates == 100

    def test_bad_label(self):
        with pytest.raises(ValueError, match="unknown design"):
            StudyConfig(designs=("a", "z"))

    @pytest.mark.parametrize("designs", [(), []])
    def test_no_designs_rejected(self, designs):
        # run_study would return an empty table, and emit_report fail on it
        with pytest.raises(ValueError, match="at least one design"):
            StudyConfig(designs=designs)

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="repeat"):
            StudyConfig(designs=("a", "a"))

    def test_replicates_below_one(self):
        with pytest.raises(ValueError, match="replicates"):
            StudyConfig(replicates=0)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            StudyConfig(seed=-1)

    @pytest.mark.parametrize("field", ["replicates", "seed"])
    @pytest.mark.parametrize("value", [True, False, 2.0, 1.5, "3"])
    def test_non_integer_counts_rejected(self, field, value):
        # True would run one replicate or seed 1; 2.0 would fail inside the study
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            StudyConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        config = StudyConfig(replicates=np.int64(3), seed=np.uint32(9))
        assert (config.replicates, config.seed) == (3, 9)

    def test_designs_coerced_to_tuple(self):
        config = StudyConfig(designs=["b", "c"])
        assert config.designs == ("b", "c")

    @pytest.mark.parametrize("designs", ["abd", "a", ""])
    def test_bare_string_designs_rejected(self, designs):
        with pytest.raises(ValueError, match="designs"):
            StudyConfig(designs=designs)


class TestSampleTrueParameters:
    def test_zero_pattern_follows_structure(self):
        for cand in enumerate_candidates():
            truth = sample_true_parameters(cand, substream(5, cand.enumeration_index))
            assert (truth.alpha[0] != 0.0) == cand.alpha1_free
            assert (truth.alpha[1] != 0.0) == cand.alpha2_free
            assert truth.omega2[0] > 0.0
            assert (truth.omega2[1] != 0.0) == cand.omega1_free
            assert (truth.omega2[2] != 0.0) == cand.omega2_free
            assert truth.sigma2 == 1.0

    def test_variance_ranges(self):
        cand = CandidateModel(m=4, o=4)
        for k in range(200):
            truth = sample_true_parameters(cand, substream(9, k))
            assert np.all(truth.omega2 >= 0.01)
            assert np.all(truth.omega2 <= 1.01)

    def test_deterministic_given_stream(self):
        cand = CandidateModel(m=2, o=3)
        a = sample_true_parameters(cand, substream(3, 1, 4))
        b = sample_true_parameters(cand, substream(3, 1, 4))
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.omega2, b.omega2)

    def test_mean_draws_roughly_standard_normal(self):
        cand = CandidateModel(m=1, o=1)
        draws = np.array(
            [sample_true_parameters(cand, substream(11, k)).mu for k in range(500)]
        )
        assert abs(draws.mean()) < 0.15
        assert abs(draws.std() - 1.0) < 0.15


class TestRunReplicate:
    def test_deterministic(self):
        config = StudyConfig(designs=("a",), replicates=2, seed=42)
        truth_cand = CandidateModel.from_id("O2M1")
        first = run_replicate(DESIGNS["a"], truth_cand, 1, config)
        second = run_replicate(DESIGNS["a"], truth_cand, 1, config)
        assert first.selections == second.selections
        assert first.n_failed == second.n_failed

    def test_fields(self):
        config = StudyConfig(designs=("a",), replicates=1, seed=7)
        truth_cand = CandidateModel.from_id("O1M1")
        result = run_replicate(DESIGNS["a"], truth_cand, 0, config)
        assert result.design_label == "a"
        assert result.truth_id == "O1M1"
        assert result.replicate_index == 0
        assert 0 <= result.n_failed <= 16
        if result.selections is not None:
            assert set(result.selections) == set(CRITERIA)
            for winner in result.selections.values():
                assert CandidateModel.from_id(winner).id == winner

    def test_replicates_differ(self):
        # different replicate indices should draw different data; winners
        # usually differ across at least some of a handful of replicates
        config = StudyConfig(designs=("a",), replicates=4, seed=3)
        truth_cand = CandidateModel.from_id("O4M4")
        picks = [
            run_replicate(DESIGNS["a"], truth_cand, rep, config).selections
            for rep in range(4)
        ]
        assert len({tuple(sorted(p.items())) for p in picks if p is not None}) > 1


class TestDrawReplicate:
    def test_appended_design_moves_no_draws(self, monkeypatch):
        truth = CandidateModel.from_id("O3M4")
        before = [draw_replicate(DESIGNS[label], truth, 2, 16003)[1].y for label in "abcd"]
        # "N200n50" sorts before "a", so keys from sorted labels would shift a-d's draws
        monkeypatch.setitem(DESIGNS, "N200n50", SimulationDesign("N200n50", 200, 50))
        after = [draw_replicate(DESIGNS[label], truth, 2, 16003)[1].y for label in "abcd"]
        assert all(map(np.array_equal, before, after))

    def test_study_cells_match_replicates_drawn_again(self):
        table = run_study(StudyConfig(designs=("a", "c"), replicates=1, seed=16005))
        rows, failed = iter(table.rows), 0
        for label in ("a", "c"):
            for truth in enumerate_candidates():
                _, data = draw_replicate(DESIGNS[label], truth, 0, 16005)
                reports, left_out = usable_reports(data, fit_ml, build_report)
                failed += len(left_out)
                for crit in CRITERIA:
                    row = next(rows)
                    assert (row.design, row.truth, row.criterion) == (label, truth.id, crit)
                    assert row.correct == (select_model(reports, crit) == truth.id)
        assert table.failed_fits == failed


class TestFrequencyTable:
    def synthetic(self):
        rows = (
            SelectionCell("a", "O1M1", "N", 3, 5),
            SelectionCell("a", "O1M1", "n", 2, 5),
            SelectionCell("a", "O2M1", "N", 1, 5),
            SelectionCell("a", "O2M1", "n", 4, 5),
            SelectionCell("b", "O1M1", "N", 5, 5),
            SelectionCell("b", "O1M1", "n", 0, 5),
        )
        return FrequencyTable(rows=rows, invalid_replicates=1, total_fits=160, failed_fits=8)

    def test_cell_frequency(self):
        cell = SelectionCell("a", "O1M1", "N", 3, 5)
        assert cell.frequency == pytest.approx(0.6)
        assert SelectionCell("a", "O1M1", "N", 0, 0).frequency == 0.0

    def test_nonconvergence_rate(self):
        table = self.synthetic()
        assert table.nonconvergence_rate == pytest.approx(8 / 160)
        empty = FrequencyTable(rows=(), invalid_replicates=0, total_fits=0, failed_fits=0)
        assert empty.nonconvergence_rate == 0.0

    def test_aggregates_pool_counts_not_frequencies(self):
        table = self.synthetic()
        agg = dict(((d, c), f) for d, c, f in table.aggregates())
        # (3 + 1) correct over (5 + 5) replicates, not mean of 0.6 and 0.2
        assert agg[("a", "N")] == pytest.approx(0.4)
        assert agg[("a", "n")] == pytest.approx(0.6)
        assert agg[("b", "N")] == pytest.approx(1.0)
        assert agg[("b", "n")] == pytest.approx(0.0)

    def test_aggregates_preserve_first_seen_order(self):
        table = self.synthetic()
        keys = [(d, c) for d, c, _ in table.aggregates()]
        assert keys == [("a", "N"), ("a", "n"), ("b", "N"), ("b", "n")]


@pytest.fixture(scope="module")
def small_study():
    config = StudyConfig(designs=("a",), replicates=1, seed=5)
    return config, run_study(config)


class TestRunStudy:
    def test_row_grid(self, small_study):
        _, table = small_study
        assert len(table.rows) == 16 * len(CRITERIA)
        expected = [
            ("a", truth.id, crit)
            for truth in enumerate_candidates()
            for crit in CRITERIA
        ]
        assert [(r.design, r.truth, r.criterion) for r in table.rows] == expected

    def test_counts_sane(self, small_study):
        _, table = small_study
        for row in table.rows:
            assert 0 <= row.correct <= row.replicates
            assert row.replicates <= 1
        assert table.total_fits == 16 * 16
        assert 0 <= table.failed_fits <= table.total_fits
        assert table.invalid_replicates == 0

    def test_some_selections_correct(self, small_study):
        # even with one replicate per truth, a decent fraction of the 64
        # (truth, criterion) cells should recover the generating model
        _, table = small_study
        hit_rate = sum(r.correct for r in table.rows) / len(table.rows)
        assert hit_rate > 0.2

    def test_worker_count_does_not_change_results(self, small_study):
        config, table = small_study
        parallel = run_study(config, n_workers=2)
        assert parallel.rows == table.rows
        assert parallel.failed_fits == table.failed_fits
        assert parallel.invalid_replicates == table.invalid_replicates

    def test_pool_capped_at_the_replicates(self, small_study, monkeypatch):
        # a process pool may start all its workers at the first submit,
        # so it must not be asked for more than there are replicates;
        # the recording pool runs the replicates in this process
        config, table = small_study
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(lmmbic.simulation, "ProcessPoolExecutor", InProcessPool)
        capped = run_study(config, n_workers=64)
        assert asked == [16]
        assert capped.rows == table.rows


    def test_cells_tally_their_own_replicates(self, monkeypatch):
        # every criterion picks the truth, except that design b truth O2M1
        # drops replicate 1 and design a truth O3M3 picks O1M1 in replicate 0
        def fake_replicate(design, true_candidate, replicate_index, config):
            key = (design.label, true_candidate.id, replicate_index)
            winner = "O1M1" if key == ("a", "O3M3", 0) else true_candidate.id
            selections = None if key == ("b", "O2M1", 1) else dict.fromkeys(CRITERIA, winner)
            return lmmbic.simulation.ReplicateResult(
                design.label, true_candidate.id, replicate_index, selections, replicate_index
            )

        monkeypatch.setattr(lmmbic.simulation, "run_replicate", fake_replicate)
        table = run_study(StudyConfig(designs=("b", "a"), replicates=3, seed=0))
        expected = []
        for design in ("b", "a"):
            for truth in enumerate_candidates():
                count = 2 if (design, truth.id) == ("b", "O2M1") else 3
                correct = 2 if (design, truth.id) == ("a", "O3M3") else count
                expected += [SelectionCell(design, truth.id, crit, correct, count)
                             for crit in CRITERIA]
        assert table.rows == tuple(expected)
        assert table.invalid_replicates == 1
        assert table.total_fits == 2 * 16 * 3 * 16
        assert table.failed_fits == 2 * 16 * (0 + 1 + 2)


# sha256 of the report of designs a-d at one replicate per cell and seed 1.
# Any change to the draws, the fits, the criteria or the report moves
# them; a change that means to must say why and record the new digests.
# Recorded when generate_dataset moved to two streams per dataset, which
# redrew every dataset.
STUDY_DIGESTS = {
    "results.csv": "e4ba63147c5c680991a26b7ccab6831e78f3ce0df74f0245553fb1ddeb154931",
    "summary.csv": "18647d0ce7f35866b427f85a2ff7530ea8d041c8fd69ba47f279c9485dc9e3bd",
    "figure.svg": "8f01ef35c1506a7cfc7768e9d6fc3de1a9b179f65fc779223bb18f3840d45e9c",
}


def test_study_report_is_pinned(tmp_path):
    table = run_study(StudyConfig(designs=("a", "b", "c", "d"), replicates=1, seed=1), n_workers=1)
    emit_report(table, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in STUDY_DIGESTS
    }
    assert digests == STUDY_DIGESTS
