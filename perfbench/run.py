"""The lmmbic benchmark.

Usage, from the root of a checkout (the package need not be installed):

    python3 perfbench/run.py --workload select-ragged --seed 3 --seconds 25 --trace 0

Workloads:
  select-shared  `lmmbic select` processes on 100-subject files whose
                 subjects share one 100-point grid (design d).
  select-ragged  `lmmbic select` processes on 40-subject files where each
                 subject has its own grid of 2..12 points.
  study-shared   one run_study over designs a-d with min(2, CPUs) workers.

The amount of work is fixed by --seconds and a per-item cost measured on
a 2-CPU machine (ITEM_SECONDS), so both sides of a comparison do the
same work and a faster program finishes early.  Inputs come from
--seed and are written before anything is timed.

--trace 0 measures the end-to-end metrics with nothing wrapped.
--trace 1 repeats the work with every layer wrapped (select calls run
in-process through lmmbic.cli.main) and reports per-layer metrics.
Either way every output is checked.  The last stdout line is one JSON
object with keys correct, attempted, failed and metrics; the lines
before it list the same metrics for a reader.  Exit status: 0 when every
check passed, 1 when one failed, 2 when the checkout holds no lmmbic
source.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# Seconds one work item took on a 2-CPU machine at the first baseline:
# one select process, or one study at one replicate per cell.
ITEM_SECONDS = {"select-shared": 1.5, "select-ragged": 14.0, "study-shared": 26.0}
STUDY_DESIGNS = ("a", "b", "c", "d")
SETUP_PROBES = 9
FITS_PER_DATASET = 16
# Every child is killed at this many seconds into the run, so the run
# ends within its 180 s limit.
DEADLINE_S = 170.0

PROBE = "import lmmbic.cli\nimport time\nprint(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], deadline: float) -> tuple[float, float, int]:
    """Run a child in its own process group to completion.

    Returns (wall seconds, peak resident MB of the child and the
    descendants it reaped, exit code).  The group is killed at the
    deadline.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=_child_env(), stdout=subprocess.DEVNULL, start_new_session=True
    )
    timer = threading.Timer(max(0.0, deadline - start), _kill_group, (proc,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc)
        proc.wait()
        raise
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def setup_seconds(deadline: float) -> list[float]:
    """Launch-to-import times of fresh interpreters importing lmmbic.cli.

    One unmeasured launch first compiles and caches the bytecode, a cost
    users pay once.
    """
    times = []
    for i in range(SETUP_PROBES + 1):
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", PROBE],
            env=_child_env(),
            capture_output=True,
            text=True,
            check=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
        if i:
            times.append(float(done.stdout) - launched)
    return times


def write_inputs(kind: str, seed: int, count: int, work: Path) -> list[tuple[Path, int, int]]:
    """(path, n, N) of each seeded input file."""
    import inputs

    files = []
    for k, data in enumerate(inputs.datasets(kind, seed, count)):
        path = work / f"{kind}-{k}.csv"
        inputs.write_csv(data, path)
        files.append((path, data.n_obs, data.n_subjects))
    return files


def _read_select(out: Path, n_obs: int, n_subjects: int) -> tuple[dict | None, list[str]]:
    try:
        payload = json.loads(out.read_text())
    except (OSError, ValueError) as exc:
        return None, [f"{out.name}: {exc}"]
    import checks

    return payload, [f"{out.name}: {p}" for p in checks.check_select(payload, n_obs, n_subjects)]


def _shares(fits: int, failed_fits: int, violations: int, pairs: int) -> dict:
    return {
        "fit_ok_share": (1.0 - failed_fits / fits, "ratio"),
        "nesting_ok_share": (1.0 - violations / pairs if pairs else 0.0, "ratio"),
    }


def select_untraced(files, work: Path, deadline: float) -> dict:
    import checks

    setup = setup_seconds(deadline)
    latencies, peaks, codes, problems = [], [], [], []
    failed = failed_fits = violations = pairs = 0
    start = time.perf_counter()
    for i, (path, _, _) in enumerate(files):
        argv = [sys.executable, "-m", "lmmbic.cli", "select", str(path),
                "--out", str(work / f"out-{i}.json")]
        elapsed, peak, code = run_child(argv, deadline)
        latencies.append(elapsed)
        peaks.append(peak)
        codes.append(code)
    wall = time.perf_counter() - start
    for i, (path, n_obs, n_subjects) in enumerate(files):
        payload, found = _read_select(work / f"out-{i}.json", n_obs, n_subjects)
        if codes[i]:
            found.append(f"select on {path.name} exited with {codes[i]}")
        problems += found
        failed += bool(found)
        reports = payload.get("candidates", []) if payload else []
        failed_fits += FITS_PER_DATASET - len(reports)
        v, p = checks.nesting_counts({r["candidate"]: r["loglik"] for r in reports})
        violations += v
        pairs += p
    fits = FITS_PER_DATASET * len(files)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "fits_per_s": (fits / wall, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        **_shares(fits, failed_fits, violations, pairs),
        "peak_rss_mb": (max(peaks), "MB"),
    }
    notes = {
        "select processes": len(files),
        "fit_failed_share": failed_fits / fits,
        "nesting_violation_share": violations / pairs if pairs else None,
        "nested pairs checked": pairs,
    }
    return _result(len(files), failed, problems, metrics, notes)


def select_traced(files, work: Path) -> dict:
    """Every select in-process under the tracer.  The first third of the
    files (at least one) also runs untraced, alternately just before and
    just after its traced run; the overhead is the median traced/untraced
    ratio of those pairs."""
    import checks
    import layers
    import lmmbic.cli
    from tracing import Tracer

    records: list[dict] = []
    tracer = Tracer(lambda summary, kept: records.append(checks.digest(summary, kept)))
    ratios = []
    problems = []
    failed = 0

    def untraced(argv: list[str]) -> float:
        start = time.perf_counter()
        lmmbic.cli.main(argv)
        return time.perf_counter() - start

    for i, (path, n_obs, n_subjects) in enumerate(files):
        out = work / f"out-{i}.json"
        argv = ["select", str(path), "--out", str(out)]
        paired = i < max(1, len(files) // 3)
        before = untraced(argv) if paired and i % 2 == 0 else None
        layers.install(tracer)
        try:
            code = lmmbic.cli.main(argv)
        finally:
            tracer.uninstall()
        traced = float(records[-1]["layers"]["cli.main"]["dur"].sum())
        if paired:
            ratios.append(traced / (before if before is not None else untraced(argv)))
        _, found = _read_select(out, n_obs, n_subjects)
        if code:
            found.append(f"select on {path.name} returned {code}")
        problems += found
        failed += bool(found)
    metrics = layers.layer_metrics(records, statistics.median(ratios) - 1.0, 0.0)
    return _result(len(files), failed, problems, metrics, {"overhead pairs": len(ratios)})


def study(seed: int, replicates: int, trace: bool, work: Path, deadline: float) -> dict:
    import checks
    import layers

    workers = min(2, os.cpu_count() or 1)
    setup = [] if trace else setup_seconds(deadline)
    records_dir = work / "records"
    records_dir.mkdir()
    config = work / "study.json"
    out = work / "study-out.json"
    config.write_text(json.dumps({
        "src": str(SRC), "designs": STUDY_DESIGNS, "replicates": replicates, "seed": seed,
        "workers": workers, "trace": trace, "records": str(records_dir), "out": str(out),
    }))
    tasks = len(STUDY_DESIGNS) * 16 * replicates
    _, peak, code = run_child([sys.executable, str(HERE / "study_child.py"), str(config)], deadline)
    if code:
        return _result(tasks, tasks, [f"study process exited with {code}"], {}, {})
    result = json.loads(out.read_text())
    problems = checks.check_study(result, len(STUDY_DESIGNS), tasks)
    records = []
    for path in sorted(records_dir.glob("records-*.pkl")):
        with path.open("rb") as handle:
            while True:
                try:
                    records.append(pickle.load(handle))
                except EOFError:
                    break
    if len(records) != tasks:
        problems.append(f"{len(records)} replicate records, expected {tasks}")
    failed = result["invalid_replicates"]
    replicate_s = [float(r["layers"]["simulation.run_replicate"]["dur"].sum()) for r in records]
    if trace:
        overhead = statistics.median(t / u for u, t in result["overhead_pairs"]) - 1.0
        # Worker time spent digesting and checking spans is not idle time.
        available = workers * result["wall_s"] - sum(r["flush_s"] for r in records)
        metrics = layers.layer_metrics(records, overhead, sum(replicate_s) / available)
        notes = {"workers": workers, "overhead pairs": len(result["overhead_pairs"])}
        return _result(tasks, failed, problems, metrics, notes)
    violations = pairs = 0
    for r in records:
        v, p = checks.nesting_counts(r["logliks"])
        violations += v
        pairs += p
    fits = result["total_fits"]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (result["wall_s"], "s"),
        "fits_per_s": (fits / result["wall_s"], "1/s"),
        "latency_p50_s": (statistics.median(replicate_s), "s"),
        **_shares(fits, result["failed_fits"], violations, pairs),
        "peak_rss_mb": (peak, "MB"),
    }
    notes = {
        "workers": workers,
        "replicates": tasks,
        "fit_failed_share": result["failed_fits"] / fits,
        "nesting_violation_share": violations / pairs if pairs else None,
        "nested pairs checked": pairs,
    }
    return _result(tasks, failed, problems, metrics, notes)


def _result(attempted: int, failed: int, problems: list[str], metrics: dict, notes: dict) -> dict:
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "notes": notes}


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    count = max(1, round(seconds / ITEM_SECONDS[workload]))
    deadline = time.perf_counter() + DEADLINE_S
    if workload == "study-shared":
        return study(seed, count, trace, work, deadline)
    kind = workload.split("-")[1]
    files = write_inputs(kind, seed, count, work)
    if trace:
        return select_traced(files, work)
    return select_untraced(files, work, deadline)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ITEM_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds at least 1")
    if not (SRC / "lmmbic" / "__init__.py").is_file():
        print(f"no lmmbic source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    rel_diff = result["metrics"].get("estimation.fit_ml.loglik_max_rel_diff", (0.0, ""))[0]
    if rel_diff > checks.ORACLE_REL_TOLERANCE:
        result["problems"].append(f"a fit's loglik is {rel_diff:.3g} away from the dense reference")
    correct = not result["problems"] and result["failed"] == 0
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in result["notes"].items():
        print(f"  {key}: {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
