import importlib.util
from pathlib import Path

import numpy as np

from lmmbic.data import Dataset, SubjectBlock

_PATH = Path(__file__).resolve().parent.parent / "tools" / "layer_clock.py"
_SPEC = importlib.util.spec_from_file_location("layer_clock", _PATH)
layer_clock = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layer_clock)


def test_clock_record_on_one_tiny_dataset():
    rng = np.random.default_rng(42503)
    x = np.linspace(0.0, 10.0, 4)
    data = Dataset(subjects=tuple(
        SubjectBlock(id=f"s{i}", x=x, c=rng.normal(), y=1.0 + 0.5 * x + rng.normal(size=4))
        for i in range(6)
    ))
    record = layer_clock.clock("tiny", [data], repeats=1)
    assert sorted(record) == sorted([
        "inputs", "datasets", "statistics_ms_median", "family_search_ms_median",
        "iterations", "evaluations", "k", "omp_num_threads", "python", "numpy",
    ])
    assert (record["inputs"], record["datasets"], record["k"]) == ("tiny", 1, 1)
    assert record["statistics_ms_median"] > 0.0 and record["family_search_ms_median"] > 0.0
    assert record["evaluations"] >= record["iterations"] > 0
    assert record["numpy"] == np.__version__
