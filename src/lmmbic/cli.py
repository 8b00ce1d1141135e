"""Command-line interface.

Subcommands: fit one candidate, select across all sixteen, report the
effective sample size of one fit, or run the Monte-Carlo study.
Results go to stdout (or --out) as JSON, except simulate, which writes
its three report files into a directory.  Log lines go to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Callable, Collection

# Before numpy loads: one BLAS thread unless the user set one, as the largest
# matrix is one subject's n_i x n_i block and simulate runs a process per CPU.
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .candidates import DESIGNS, CandidateModel
from .criteria import CRITERIA, build_report, selection_summary, usable_reports
from .data import read_dataset
from .estimation import UnidentifiableModelError, effective_sample_size, fit_ml
from .model import correlation_from_covariance, implied_covariance

logger = logging.getLogger("lmmbic")


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever sys.stderr is when a record is emitted, as
    logging.lastResort does, so a stream swapped or closed after main
    returns is never written to."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)  # StreamHandler's would assign stream

    stream = property(lambda self: sys.stderr)


_STDERR_HANDLER = _StderrHandler()
_STDERR_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(message)s"))


def _candidate_id(text: str) -> CandidateModel:
    try:
        return CandidateModel.from_id(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _subset(what: str, choices: Collection[str]) -> Callable[[str], list[str]]:
    """Argument type: a non-empty comma-separated subset of choices, no key twice."""
    message = f"{what} must be a comma-separated subset of {','.join(choices)}"

    def parse(text: str) -> list[str]:
        keys = [k.strip() for k in text.split(",") if k.strip()]
        if not keys or not set(keys) <= set(choices) or len(set(keys)) != len(keys):
            raise argparse.ArgumentTypeError(message)
        return keys

    return parse


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmmbic",
        description="Model selection for linear mixed-effects models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more log output on stderr (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one candidate by maximum likelihood")
    p_fit.add_argument("data", help="delimited file with columns subject,x,c,y")
    p_fit.add_argument("--candidate", type=_candidate_id, required=True,
                       help="candidate id such as O2M1")
    p_fit.add_argument("--out", help="write JSON here instead of stdout")
    p_fit.set_defaults(func=cmd_fit)

    p_select = sub.add_parser("select", help="rank all sixteen candidates")
    p_select.add_argument("data", help="delimited file with columns subject,x,c,y")
    p_select.add_argument("--criteria", type=_subset("criteria", CRITERIA), default=list(CRITERIA),
                          help=f"comma-separated subset of {','.join(CRITERIA)} (default: all)")
    p_select.add_argument("--out", help="write JSON here instead of stdout")
    p_select.set_defaults(func=cmd_select)

    p_ess = sub.add_parser("ess", help="effective sample size under one fitted candidate")
    p_ess.add_argument("data", help="delimited file with columns subject,x,c,y")
    p_ess.add_argument("--candidate", type=_candidate_id, required=True,
                       help="candidate id such as O1M1")
    p_ess.add_argument("--out", help="write JSON here instead of stdout")
    p_ess.set_defaults(func=cmd_ess)

    p_sim = sub.add_parser("simulate", help="run the Monte-Carlo selection study")
    p_sim.add_argument("--design", type=_subset("designs", DESIGNS), default=list(DESIGNS),
                       help=f"comma-separated subset of {','.join(DESIGNS)} (default: all)")
    p_sim.add_argument("--replicates", type=_positive_int, default=25,
                       help="replicates per (design, truth) cell (default 25)")
    p_sim.add_argument("--out", default=".",
                       help="directory for results.csv, summary.csv, figure.svg (default .)")
    p_sim.add_argument("--threads", type=_positive_int, default=None,
                       help="worker processes (default: the CPUs this process may run on)")
    p_sim.add_argument("--seed", type=_non_negative_int, default=0,
                       help="seed for every random draw of the study (default 0)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if out:
        Path(out).write_text(text + "\n")
        logger.info("wrote %s", out)
    else:
        print(text)


def _block_summaries(fit, data) -> list[dict]:
    """Per-subject covariance and correlation summaries of fit on data, in subject order.

    Subjects on one observation grid share V_i, so each grid's summary is
    computed once.
    """
    subjects = data.subjects
    summaries = [None] * len(subjects)
    for _, members in data.grids:
        V = implied_covariance(fit.candidate, fit.theta_hat, subjects[members[0]])
        R = correlation_from_covariance(V)
        off = R[~np.eye(R.shape[0], dtype=bool)]
        summary = {
            "n_obs": int(V.shape[0]),
            "variance_mean": float(np.diagonal(V).mean()),
            "correlation_mean": float(off.mean()) if off.size else 0.0,
        }
        for i in members.tolist():
            summaries[i] = summary
    return summaries


def cmd_fit(args: argparse.Namespace) -> int:
    data = read_dataset(args.data)
    fit = fit_ml(args.candidate, data)
    labels = (
        fit.candidate.mean_labels()
        + fit.candidate.variance_labels()
        + ("sigma2",)
    )
    values = list(fit.theta_hat.beta) + list(fit.theta_hat.omega2) + [fit.theta_hat.sigma2]
    payload = {
        "candidate": fit.candidate.id,
        "converged": fit.converged,
        "loglik": fit.loglik,
        "n": fit.n_obs,
        "N": fit.n_subjects,
        "estimates": {label: float(v) for label, v in zip(labels, values)},
        "boundary": list(fit.boundary),
        "search": {
            "iterations": fit.iterations,
            "evaluations": fit.evaluations,
            "restarted": fit.restarted,
        },
        "blocks": _block_summaries(fit, data),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    data = read_dataset(args.data)
    reports, left_out = usable_reports(data, fit_ml, build_report)
    for cand_id, reason in left_out.items():
        logger.warning("candidate %s %s", cand_id, reason)
    if not reports:
        raise UnidentifiableModelError("no candidate could be fitted on this data")
    payload = selection_summary(reports, args.criteria)
    # x's origin is part of the model, so say which x was fitted
    payload["x_range"] = [float(data.x.min()), float(data.x.max())]
    _emit_json(payload, args.out)
    return 0


def cmd_ess(args: argparse.Namespace) -> int:
    data = read_dataset(args.data)
    fit = fit_ml(args.candidate, data)
    payload = {
        "candidate": fit.candidate.id,
        "n": fit.n_obs,
        "N": fit.n_subjects,
        "n_e": effective_sample_size(fit),
    }
    _emit_json(payload, args.out)
    return 0


def _thread_count(args: argparse.Namespace) -> int:
    if args.threads is not None:
        return args.threads
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_simulate(args: argparse.Namespace) -> int:
    # imported here so that fit, select and ess start up without the
    # study stack and its process pool
    from .report import emit_report
    from .simulation import StudyConfig, run_study

    config = StudyConfig(designs=tuple(args.design), replicates=args.replicates, seed=args.seed)
    Path(args.out).mkdir(parents=True, exist_ok=True)  # fail before the study, not after
    workers = _thread_count(args)
    logger.info(
        "running %d designs x 16 truths x %d replicates on %d worker(s)",
        len(config.designs), config.replicates, workers,
    )
    table = run_study(config, n_workers=workers)
    paths = emit_report(table, args.out)
    logger.info("non-convergence rate: %.4f", table.nonconvergence_rate)
    logger.info("dropped replicates: %d", table.invalid_replicates)
    for path in paths:
        logger.info("wrote %s", path)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # stderr through lmmbic's logger only: the root logger is the caller's;
    # addHandler ignores a handler the logger already has
    logger.addHandler(_STDERR_HANDLER)
    logger.setLevel(logging.WARNING - 10 * min(args.verbose, 2))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # data, fit and linalg errors are ValueErrors
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
