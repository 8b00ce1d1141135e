"""Benchmark a change against its parent in alternating pairs; write BENCH_<label>.json.

Run from the repository root:

    python tools/bench_pairs.py --parent REV --label NAME --seed S \
        [--pairs 10] [--claim study-shared:latency_p50_s]

REV and HEAD are exported with git archive into a temporary directory,
and for each workload of BENCHMARK.json each run is

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

with N its run_seconds, from the root of one checkout, with
PYTHONDONTWRITEBYTECODE=1 so that neither side gains a bytecode cache
the other lacks.  Pair k runs the parent first when k is even and HEAD
first when k is odd.  The record holds, per workload and per end-to-end
metric of BENCHMARK.json, each side's median and quartiles, and in how
many pairs the change did better (change_wins) or worse
(change_losses); the layout is that of BENCH_replicate_fixed_costs.json's
end_to_end.  With --claim it also
states the claimed metric's medians, its relative change, the pairs
won and the parent's interquartile spread.  Runs whose checks failed are
counted per workload and side under incorrect_runs and still summarised.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> dict:
    """Median and the inclusive-method quartiles of one side's runs."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarise(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric of `better` (name -> "lower" or "higher"), both sides'
    quartiles and the change's wins and losses over the pairs.

    parent[k] and change[k] are pair k's metrics as perfbench/run.py
    prints them, name -> {"value", "unit"}; a metric a run lacks is
    left out of that workload's summary.
    """
    out = {}
    for name, direction in better.items():
        if not all(name in run for run in parent + change):
            continue
        p = [run[name]["value"] for run in parent]
        c = [run[name]["value"] for run in change]
        sign = 1.0 if direction == "higher" else -1.0
        out[name] = {
            "unit": parent[0][name]["unit"],
            "better": direction,
            "parent": quartiles(p),
            "change": quartiles(c),
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "change_losses": sum(sign * (b - a) < 0 for a, b in zip(p, c)),
            "pairs": len(p),
        }
    return out


def claim_result(metric: dict) -> dict:
    """The claimed metric's medians, relative change, pairs won and the
    parent's interquartile spread, from one summarise() entry."""
    p, c = metric["parent"], metric["change"]
    spread = p["q3"] - p["q1"]
    return {
        "parent_median": p["median"],
        "change_median": c["median"],
        "relative_change": round((c["median"] - p["median"]) / p["median"], 4),
        "change_wins": metric["change_wins"],
        "pairs": metric["pairs"],
        "parent_iqr": round(spread, 6),
        "medians_apart_by_more_than_parent_iqr": abs(c["median"] - p["median"]) > spread,
    }


def export(rev: str, into: Path) -> str:
    """Extract revision rev into `into` with git archive; returns its hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return sha


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, bool]:
    """One benchmark run in a checkout: (metrics, whether its checks passed)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout.name} {workload}: no output\n{proc.stderr}")
    result = json.loads(lines[-1])
    return result["metrics"], bool(result["correct"]) and proc.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain")
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    workloads = [w["name"] for w in contract["workloads"]]
    seconds = contract["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        revisions = {side: export(rev, sides[side])
                     for side, rev in (("parent", args.parent), ("change", "HEAD"))}
        runs = {w: {"parent": [], "change": []} for w in workloads}
        incorrect = {w: {"parent": 0, "change": 0} for w in workloads}
        for k in range(args.pairs):
            for workload in workloads:
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    metrics, correct = run_once(sides[side], workload, args.seed, seconds)
                    runs[workload][side].append(metrics)
                    incorrect[workload][side] += not correct
                    print(f"pair {k + 1}/{args.pairs} {workload} {side}: "
                          + ", ".join(f"{n} {m['value']:.6g}" for n, m in metrics.items()),
                          file=sys.stderr, flush=True)

    end_to_end = {w: summarise(runs[w]["parent"], runs[w]["change"], better) for w in workloads}
    record = {
        "label": args.label,
        "parent": revisions["parent"],
        "change": revisions["change"],
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "pairs": f"{args.pairs} per workload, parent and change alternating which runs first, "
                 "each from its own checkout made by git archive, with PYTHONDONTWRITEBYTECODE=1",
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, "
                   f"Python {platform.python_version()}, numpy {version('numpy')}",
        "incorrect_runs": incorrect,
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claim"] = {"workload": workload, "metric": metric, "seed": args.seed,
                           "result": claim_result(end_to_end[workload][metric])}
    record["end_to_end"] = {f"seed {args.seed}": end_to_end}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
