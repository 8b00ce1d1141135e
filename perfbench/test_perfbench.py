"""Tests of the benchmark itself.

Run from the root of the repository:

    python -m pytest perfbench -q

They stay out of the package's own test run, whose testpaths is tests/.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from lmmbic.simulation import StudyConfig, run_study  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402


def test_run_study_rows_identical_for_one_and_two_workers():
    config = StudyConfig(designs=("a",), replicates=1, seed=5)
    one = run_study(config, n_workers=1)
    two = run_study(config, n_workers=2)
    assert one.rows == two.rows
    assert (one.total_fits, one.failed_fits) == (two.total_fits, two.failed_fits)


def test_generators_are_deterministic_for_a_seed(tmp_path):
    for kind in ("shared", "ragged"):
        paths = []
        for run in range(2):
            data, = inputs.datasets(kind, 11, 1)
            path = tmp_path / f"{kind}-{run}.csv"
            inputs.write_csv(data, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
    other, = inputs.datasets("ragged", 12, 1)
    same_seed, = inputs.datasets("ragged", 11, 1)
    assert not np.array_equal(other.subjects[0].y, same_seed.subjects[0].y)


def test_ragged_files_have_distinct_uneven_grids():
    data, = inputs.datasets("ragged", 3, 1)
    sizes = [s.n_obs for s in data.subjects]
    assert data.n_subjects == inputs.RAGGED_SUBJECTS
    assert min(sizes) >= inputs.RAGGED_SIZES[0] and max(sizes) <= inputs.RAGGED_SIZES[1]
    assert len({s.x.tobytes() for s in data.subjects}) == data.n_subjects


def test_written_files_read_back_exactly(tmp_path):
    from lmmbic.data import read_dataset

    data, = inputs.datasets("ragged", 4, 1)
    path = tmp_path / "r.csv"
    inputs.write_csv(data, path)
    back = read_dataset(path)
    for a, b in zip(data.subjects, back.subjects):
        assert a.id == b.id and a.c == b.c
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_nesting_enumeration_yields_65_pairs():
    pairs = checks.nested_pairs()
    assert len(pairs) == 65
    assert len(set(pairs)) == 65
    assert ("O1M1", "O4M4") in pairs and ("O4M4", "O1M1") not in pairs
    assert ("O2M1", "O3M1") not in pairs


def test_nesting_counts_flag_a_drop_beyond_tolerance():
    logliks = {c: 0.0 for pair in checks.NESTED_PAIRS for c in pair}
    assert checks.nesting_counts(logliks) == (0, 65)
    logliks["O4M4"] = -1.0
    violations, checked = checks.nesting_counts(logliks)
    assert checked == 65 and violations == 15  # every other candidate is nested in O4M4


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    parents = np.array([-1, 0, 0, 2])
    durations = np.array([10.0, 3.0, 4.0, 2.0])
    assert np.allclose(self_times(parents, durations), [3.0, 3.0, 2.0, 2.0])


def test_tracer_spans_nest_and_flush_at_the_outermost_call():
    class Module:
        @staticmethod
        def leaf(x):
            return x + 1

        @staticmethod
        def fails():
            raise ValueError("boom")

        @staticmethod
        def outer():
            try:
                Module.fails()
            except ValueError:
                pass
            return Module.leaf(1) + Module.leaf(2)

    trees = []
    tracer = Tracer(lambda summary, kept: trees.append((summary, kept)))
    tracer.wrap(Module, "leaf", "leaf", keep=True)
    tracer.wrap(Module, "fails", "fails")
    tracer.wrap(Module, "outer", "outer")
    assert Module.outer() == 5
    assert Module.outer() == 5
    tracer.uninstall()
    assert Module.leaf(0) == 1 and len(trees) == 2

    summary, kept = trees[0]
    assert summary["leaf"]["dur"].size == 2 and summary["outer"]["dur"].size == 1
    assert summary["fails"]["raised"] == 1 and summary["leaf"]["raised"] == 0
    assert [result for _, _, result in kept] == [2, 3]
    children = summary["leaf"]["dur"].sum() + summary["fails"]["dur"].sum()
    assert np.isclose(summary["outer"]["self"][0], summary["outer"]["dur"][0] - children)
    total_self = sum(layer["self"].sum() for layer in summary.values())
    assert np.isclose(total_self, summary["outer"]["dur"][0])


def test_summarize_empty_tree():
    assert summarize([]) == {}
