import importlib.util
from pathlib import Path

import numpy as np

from lmmbic.candidates import CandidateModel, enumerate_candidates
from lmmbic.data import Dataset, SubjectBlock
from lmmbic.estimation import fit_ml

_PATH = Path(__file__).resolve().parent.parent / "tools" / "refit_set.py"
_SPEC = importlib.util.spec_from_file_location("refit_set", _PATH)
refit_set = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(refit_set)


def small_dataset(covariate):
    rng = np.random.default_rng(5)
    x = np.linspace(0.0, 10.0, 5)
    return Dataset(subjects=tuple(
        SubjectBlock(id=f"s{i}", x=x, c=covariate(i), y=1.0 + 0.5 * x + rng.normal(size=5))
        for i in range(8)
    ))


def test_fit_line_prints_ten_fields():
    data = small_dataset(float)
    cand = CandidateModel(m=2, o=1)
    values = refit_set.parse_fields(refit_set.fit_line(cand, data))
    assert len(values) == 10
    fit = fit_ml(cand, data)
    assert values[0] == fit.loglik
    assert values[-1] == fit.n_effective


def test_fit_line_reports_an_unidentifiable_candidate():
    data = small_dataset(lambda i: 1.0)  # a constant covariate leaves M2 unidentifiable
    line = refit_set.fit_line(CandidateModel(m=2, o=1), data)
    assert line.startswith("error candidate O1M2 ")


def refit_lines():
    """A small refit set: all sixteen fits on one dataset, and an error line."""
    data = small_dataset(float)
    lines = [f"small {c.id}: {refit_set.fit_line(c, data)}" for c in enumerate_candidates()]
    line = refit_set.fit_line(CandidateModel(m=2, o=1), small_dataset(lambda i: 1.0))
    return lines + [f"constant O1M2: {line}"]


def with_field(line, name, value):
    """line with one field's value replaced."""
    label, _, text = line.partition(": ")
    values = refit_set.parse_fields(text)
    values[refit_set.FIELDS.index(name)] = value
    return f"{label}: " + " ".join(repr(v) for v in values)


def test_compare_accepts_the_same_set():
    lines = refit_lines()
    report, ok = refit_set.compare(lines, lines)
    assert ok
    assert "loglik: max relative difference 0, median 0" in report
    assert "converged changed: 0" in report and "error changed: 0" in report


def test_compare_tolerates_rounding_and_counts_changes():
    old = refit_lines()
    new = list(old)
    fit = refit_set.parse(old[:1])["small O1M1"]
    new[0] = with_field(old[0], "loglik", fit["loglik"] * (1.0 + 1e-12))
    new[0] = with_field(new[0], "iterations", fit["iterations"] + 1)
    new[1] = with_field(old[1], "restarted", True)
    report, ok = refit_set.compare(old, new)
    assert ok
    assert "iterations changed: 1" in report and "restarted changed: 1" in report


def test_compare_prints_the_summed_search_cost():
    old = refit_lines()
    fits = refit_set.parse(old)
    totals = {
        name: sum(fit[name] for fit in fits.values() if isinstance(fit, dict))
        for name in ("iterations", "evaluations")
    }
    new = list(old)
    new[0] = with_field(old[0], "iterations", fits["small O1M1"]["iterations"] + 2)
    new[1] = with_field(old[1], "evaluations", fits["small O1M2"]["evaluations"] + 3)
    report, ok = refit_set.compare(old, new)
    assert ok
    iterations, evaluations = totals["iterations"], totals["evaluations"]
    assert f"iterations summed: old {iterations}, new {iterations + 2}" in report
    assert f"evaluations summed: old {evaluations}, new {evaluations + 3}" in report


def test_compare_fails_on_a_gated_change():
    old = refit_lines()
    fit = refit_set.parse(old[:1])["small O1M1"]
    changes = [
        with_field(old[0], "loglik", fit["loglik"] * (1.0 + 1e-9)),
        with_field(old[0], "converged", not fit["converged"]),
        with_field(old[0], "boundary", ("sigma2",)),
        "small O1M1: error the GLS normal matrix is singular",
    ]
    for changed in changes:
        _, ok = refit_set.compare(old, [changed] + old[1:])
        assert not ok, changed
    _, ok = refit_set.compare(old, old[:-1])
    assert not ok


def test_main_compares_against_a_saved_set(tmp_path, monkeypatch, capsys):
    lines = refit_lines()
    monkeypatch.setattr(refit_set, "refit_lines", lambda: lines)
    saved = tmp_path / "old.txt"
    saved.write_text("\n".join(lines) + "\n")
    assert refit_set.main(["--against", str(saved)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "within tolerance"
    saved.write_text("\n".join([with_field(lines[0], "converged", "x")] + lines[1:]) + "\n")
    assert refit_set.main(["--against", str(saved)]) == 1
    assert refit_set.main([]) == 0
    assert capsys.readouterr().out.splitlines()[-len(lines):] == lines
