import ast
import importlib.util
from pathlib import Path

import numpy as np

from lmmbic.candidates import CandidateModel
from lmmbic.data import Dataset, SubjectBlock
from lmmbic.estimation import fit_ml

_PATH = Path(__file__).resolve().parent.parent / "tools" / "refit_set.py"
_SPEC = importlib.util.spec_from_file_location("refit_set", _PATH)
refit_set = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(refit_set)


def fields(line):
    """The reprs of a fit line, split on the spaces outside brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(line):
        depth += (ch in "([") - (ch in ")]")
        if ch == " " and depth == 0:
            parts.append(line[start:i])
            start = i + 1
    parts.append(line[start:])
    return [ast.literal_eval(part) for part in parts]


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
    values = fields(refit_set.fit_line(cand, data))
    assert len(values) == 10
    fit = fit_ml(cand, data)
    assert values[0] == fit.loglik
    assert values[-1] == fit.n_effective


def test_fit_line_reports_an_unidentifiable_candidate():
    data = small_dataset(lambda i: 1.0)  # a constant covariate leaves M2 unidentifiable
    line = refit_set.fit_line(CandidateModel(m=2, o=1), data)
    assert line.startswith("error candidate O1M2 ")
