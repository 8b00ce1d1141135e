import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def runs(latencies, shares):
    return [
        {"latency_p50_s": {"value": v, "unit": "s"}, "fit_ok_share": {"value": s, "unit": "ratio"}}
        for v, s in zip(latencies, shares)
    ]


def test_summarise_fixed_numbers():
    parent = runs([10.0, 12.0, 11.0, 13.0, 14.0], [1.0] * 5)
    change = runs([9.0, 12.0, 12.0, 10.0, 11.0], [1.0, 1.0, 0.5, 1.0, 1.0])
    better = {"latency_p50_s": "lower", "fit_ok_share": "higher", "wall_s": "lower"}
    out = bench_pairs.summarise(parent, change, better)
    assert sorted(out) == ["fit_ok_share", "latency_p50_s"]  # no run reports wall_s
    latency = out["latency_p50_s"]
    assert latency["unit"] == "s" and latency["better"] == "lower"
    assert latency["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    assert latency["change"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    # pairs: 10->9 win, 12->12 tie, 11->12 loss, 13->10 win, 14->11 win
    assert (latency["change_wins"], latency["change_losses"], latency["pairs"]) == (3, 1, 5)
    share = out["fit_ok_share"]
    assert (share["change_wins"], share["change_losses"]) == (0, 1)
    claim = bench_pairs.claim_result(latency)
    assert claim["relative_change"] == round(-1.0 / 12.0, 4)
    assert claim["parent_iqr"] == 2.0
    assert claim["medians_apart_by_more_than_parent_iqr"] is False
