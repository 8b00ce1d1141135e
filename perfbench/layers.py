"""Which lmmbic functions are traced, and the per-layer metrics their spans give.

Functions are wrapped where callers look them up: the CLI and the
simulation module each import fit_ml and build_report by name, so both
lookups are wrapped under the same span name.
"""

from __future__ import annotations

import numpy as np

import lmmbic.cli
import lmmbic.criteria
import lmmbic.estimation
import lmmbic.simulation
from tracing import Tracer, merge

# Span names of the outermost calls: one per select, one per replicate.
ROOTS = ("cli.main", "simulation.run_replicate")


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer."""
    cli, sim = lmmbic.cli, lmmbic.simulation
    prof = lmmbic.estimation.ProfiledLikelihood
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "read_dataset", "data.read_dataset")
    tracer.wrap(cli, "fit_ml", "estimation.fit_ml", keep=True)
    tracer.wrap(cli, "build_report", "criteria.build_report", keep=True)
    tracer.wrap(sim, "run_replicate", "simulation.run_replicate")
    tracer.wrap(sim, "generate_dataset", "candidates.generate_dataset")
    tracer.wrap(sim, "fit_ml", "estimation.fit_ml", keep=True)
    tracer.wrap(sim, "build_report", "criteria.build_report", keep=True)
    tracer.wrap(lmmbic.criteria, "effective_sample_size", "ess.effective_sample_size")
    tracer.wrap(prof, "__init__", "estimation.ProfiledLikelihood.__init__")
    tracer.wrap(prof, "evaluate", "estimation.evaluate")
    return tracer


def install_capture(tracer: Tracer) -> Tracer:
    """Wrap only what the untraced study needs: one span per replicate
    for its latency, and the reports for the nesting count."""
    sim = lmmbic.simulation
    tracer.wrap(sim, "run_replicate", "simulation.run_replicate")
    tracer.wrap(sim, "build_report", "criteria.build_report", keep=True)
    return tracer


_EMPTY = {"dur": np.zeros(0), "self": np.zeros(0), "raised": 0}


def _q(values: np.ndarray, q: float, scale: float) -> float:
    return float(np.quantile(values, q)) * scale if values.size else 0.0


def layer_metrics(records: list[dict], overhead: float, busy_share: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from digested span trees.

    Shares are of the busy time: the summed duration of the outermost
    spans.  A layer the workload never calls reports 0 with 0 calls.
    """
    layers = merge(r["layers"] for r in records)

    def get(name: str) -> dict:
        return layers.get(name, _EMPTY)

    busy = sum(float(get(root)["dur"].sum()) for root in ROOTS)
    ev = get("estimation.evaluate")
    fit = get("estimation.fit_ml")
    n_fit = fit["dur"].size
    return {
        "estimation.evaluate.calls": (ev["dur"].size, "count"),
        "estimation.evaluate.us_p50": (_q(ev["dur"], 0.5, 1e6), "us"),
        "estimation.evaluate.self_share": (float(ev["self"].sum()) / busy, "ratio"),
        "estimation.evaluate.failed": (ev["raised"], "count"),
        "estimation.fit_ml.calls": (n_fit, "count"),
        "estimation.fit_ml.evals_per_fit": (ev["dur"].size / n_fit if n_fit else 0.0, "count"),
        "estimation.fit_ml.ms_p50": (_q(fit["dur"], 0.5, 1e3), "ms"),
        "estimation.fit_ml.ms_p90": (_q(fit["dur"], 0.9, 1e3), "ms"),
        "estimation.fit_ml.self_share": (float(fit["self"].sum()) / busy, "ratio"),
        "estimation.fit_ml.nonconverged": (sum(r["nonconverged"] for r in records), "count"),
        "estimation.fit_ml.raised": (fit["raised"], "count"),
        "estimation.fit_ml.loglik_mismatch": (sum(r["mismatch"] for r in records), "count"),
        "estimation.fit_ml.loglik_max_rel_diff": (
            max((r["max_rel_diff"] for r in records), default=0.0), "ratio"
        ),
        "estimation.ProfiledLikelihood.init_ms_p50": (
            _q(get("estimation.ProfiledLikelihood.__init__")["dur"], 0.5, 1e3), "ms"
        ),
        "data.read_dataset.ms": (_q(get("data.read_dataset")["dur"], 0.5, 1e3), "ms"),
        "candidates.generate_dataset.ms_p50": (
            _q(get("candidates.generate_dataset")["dur"], 0.5, 1e3), "ms"
        ),
        "ess.effective_sample_size.calls": (get("ess.effective_sample_size")["dur"].size, "count"),
        "ess.effective_sample_size.ms_p50": (
            _q(get("ess.effective_sample_size")["dur"], 0.5, 1e3), "ms"
        ),
        "criteria.build_report.self_ms_p50": (
            _q(get("criteria.build_report")["self"], 0.5, 1e3), "ms"
        ),
        "simulation.run_replicate.ms_p50": (
            _q(get("simulation.run_replicate")["dur"], 0.5, 1e3), "ms"
        ),
        "simulation.run_replicate.ms_p90": (
            _q(get("simulation.run_replicate")["dur"], 0.9, 1e3), "ms"
        ),
        "simulation.run_study.busy_share": (busy_share, "ratio"),
        "cli.main.self_ms": (_q(get("cli.main")["self"], 0.5, 1e3), "ms"),
        "trace.overhead": (overhead, "ratio"),
    }

