"""Run one Monte-Carlo study in a process of its own.

Usage: python perfbench/study_child.py <config.json>

The config names the study (designs, replicates, seed, workers), whether
to trace every layer or only capture replicate spans and reports, the
directory for span records and the file for the result.  The study runs
here rather than in the benchmark process so that the parent's wait4
on this process reads the peak memory of the study and its pool workers
and nothing else.

Pool workers are forked and inherit the wrappers; each appends one
digested span tree per replicate to records-<pid>.pkl.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from pathlib import Path


def _overhead_pairs(tracer, install, config) -> list[tuple[float, float]]:
    """(untraced, traced) seconds for the first two replicates of each design.

    Each replicate runs untraced and traced in this process, in
    alternating order; the traced time is the replicate's own span, so
    flushing and checks are not counted.
    """
    import lmmbic.simulation as sim
    from lmmbic.candidates import enumerate_candidates

    truth = enumerate_candidates()[0]
    traced: list[float] = []
    tracer.sink = lambda summary, kept: traced.append(
        float(summary["simulation.run_replicate"]["dur"].sum())
    )
    tracer.uninstall()
    untraced = []
    for label in config.designs:
        for replicate in range(2):
            for run_traced in ((False, True), (True, False))[replicate]:
                if run_traced:
                    install(tracer)
                    sim.run_replicate(sim.DESIGNS[label], truth, replicate, config)
                    tracer.uninstall()
                else:
                    start = time.perf_counter()
                    sim.run_replicate(sim.DESIGNS[label], truth, replicate, config)
                    untraced.append(time.perf_counter() - start)
    return list(zip(untraced, traced))


def main() -> int:
    cfg = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, cfg["src"])
    import checks
    import layers
    from lmmbic.simulation import StudyConfig, run_study
    from tracing import Tracer

    records = Path(cfg["records"])

    def append_record(summary, kept):
        start = time.perf_counter()
        record = checks.digest(summary, kept)
        record["flush_s"] = time.perf_counter() - start
        with open(records / f"records-{os.getpid()}.pkl", "ab") as handle:
            pickle.dump(record, handle)

    install = layers.install if cfg["trace"] else layers.install_capture
    tracer = install(Tracer(append_record))
    config = StudyConfig(
        designs=tuple(cfg["designs"]), replicates=cfg["replicates"], seed=cfg["seed"]
    )
    start = time.perf_counter()
    table = run_study(config, n_workers=cfg["workers"])
    wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "total_fits": table.total_fits,
        "failed_fits": table.failed_fits,
        "invalid_replicates": table.invalid_replicates,
        "frequencies": [row.frequency for row in table.rows],
    }
    if cfg["trace"]:
        result["overhead_pairs"] = _overhead_pairs(tracer, install, config)
    tracer.uninstall()
    Path(cfg["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
