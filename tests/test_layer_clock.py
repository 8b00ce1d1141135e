import importlib.util
from pathlib import Path

import numpy as np

from lmmbic.candidates import DESIGNS, CandidateModel
from lmmbic.data import Dataset, SubjectBlock

_PATH = Path(__file__).resolve().parent.parent / "tools" / "layer_clock.py"
_SPEC = importlib.util.spec_from_file_location("layer_clock", _PATH)
layer_clock = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layer_clock)


SETTING = ["k", "omp_num_threads", "python", "numpy"]


def tiny_dataset():
    rng = np.random.default_rng(42503)
    x = np.linspace(0.0, 10.0, 4)
    return Dataset(subjects=tuple(
        SubjectBlock(id=f"s{i}", x=x, c=rng.normal(), y=1.0 + 0.5 * x + rng.normal(size=4))
        for i in range(6)
    ))


def test_clock_record_on_one_tiny_dataset():
    record = layer_clock.clock("tiny", [tiny_dataset()], repeats=1)
    assert sorted(record) == sorted([
        "layer", "inputs", "datasets", "statistics_ms_median", "family_search_ms_median",
        "iterations", "evaluations", *SETTING,
    ])
    assert (record["layer"], record["inputs"], record["datasets"], record["k"]) == ("L1", "tiny", 1, 1)
    assert record["statistics_ms_median"] > 0.0 and record["family_search_ms_median"] > 0.0
    assert record["evaluations"] >= record["iterations"] > 0
    assert record["numpy"] == np.__version__


def test_profile_record_on_one_tiny_dataset():
    record = layer_clock.profile_clock("tiny", tiny_dataset(), repeats=1)
    assert sorted(record) == sorted(["layer", "inputs", "rows", "profile_us", *SETTING])
    assert (record["layer"], record["inputs"], record["rows"], record["k"]) == ("L0", "tiny", 16, 1)
    assert record["profile_us"] > 0.0


def test_replicate_record_on_one_cell():
    cells = [(DESIGNS["a"], CandidateModel.from_id("O1M1"))]
    record = layer_clock.replicate_clock("one cell", cells, seed=42503, repeats=1)
    assert sorted(record) == sorted(["layer", "inputs", "replicates", "replicate_ms_median", *SETTING])
    assert (record["layer"], record["replicates"], record["k"]) == ("L2", 1, 1)
    assert record["replicate_ms_median"] > 0.0
