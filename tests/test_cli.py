import argparse
import csv
import dataclasses
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lmmbic.cli
import lmmbic.estimation
import lmmbic.simulation
from lmmbic.candidates import (
    DESIGNS,
    CandidateModel,
    TrueParameters,
    build_design,
    enumerate_candidates,
    generate_dataset,
)
from lmmbic.cli import _thread_count, build_parser, main
from lmmbic.criteria import CRITERIA, build_report, usable_reports
from lmmbic.data import Dataset, SubjectBlock, read_dataset
from lmmbic.estimation import UnidentifiableModelError, fit_ml
from lmmbic.model import assemble_marginal_covariance, correlation_from_covariance
from lmmbic.simulation import SimulationDesign, StudyConfig, run_replicate


@pytest.fixture()
def data_file(tmp_path):
    truth = TrueParameters(
        mu=[1.2, 0.5, -0.08], alpha=[0.3, 0.0], omega2=[0.5, 0.1, 0.0], sigma2=1.0
    )
    data = generate_dataset(SimulationDesign("t", 15, 6), truth, seed=202)
    path = tmp_path / "data.csv"
    write_data(data, path)
    return path, data


def write_data(data, path):
    lines = ["subject,x,c,y"]
    for block in data.subjects:
        for x, y in zip(block.x, block.y):
            lines.append(f"{block.id},{float(x)!r},{float(block.c)!r},{float(y)!r}")
    path.write_text("\n".join(lines) + "\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFitCommand:
    def test_json_payload(self, data_file, capsys):
        path, data = data_file
        code, out, _ = run_cli(capsys, "fit", str(path), "--candidate", "O2M2")
        assert code == 0
        payload = json.loads(out)
        assert payload["candidate"] == "O2M2"
        assert payload["converged"] is True
        assert payload["n"] == data.n_obs and payload["N"] == data.n_subjects
        assert set(payload["estimates"]) == {
            "mu0", "mu1", "mu2", "alpha1", "omega0", "omega1", "sigma2"
        }
        assert payload["boundary"] == []
        assert len(payload["blocks"]) == data.n_subjects
        for block in payload["blocks"]:
            assert block["n_obs"] == 6
            assert block["variance_mean"] > 0

    def test_matches_library_fit(self, data_file, capsys):
        path, data = data_file
        code, out, _ = run_cli(capsys, "fit", str(path), "--candidate", "O1M1")
        assert code == 0
        payload = json.loads(out)
        fit = fit_ml(CandidateModel.from_id("O1M1"), data)
        assert payload["loglik"] == pytest.approx(fit.loglik, abs=1e-10)
        assert payload["estimates"]["mu0"] == pytest.approx(fit.theta_hat.beta[0], abs=1e-10)

    def test_search_diagnostics(self, data_file, capsys):
        path, data = data_file
        code, out, _ = run_cli(capsys, "fit", str(path), "--candidate", "O4M4")
        assert code == 0
        search = json.loads(out)["search"]
        fit = fit_ml(CandidateModel.from_id("O4M4"), data)
        assert search == {
            "iterations": fit.iterations,
            "evaluations": fit.evaluations,
            "restarted": fit.restarted,
        }
        assert 1 <= search["iterations"] < search["evaluations"]

    def test_block_summaries_match_dense_per_subject(self, tmp_path, capsys):
        # shared grids interleaved with singleton grids of the same lengths:
        # summaries computed once per grid must come out in subject order
        rng = np.random.default_rng(203)

        def grid(n_points):
            return np.sort(rng.uniform(0.0, 10.0, size=n_points))

        a, b = grid(5), grid(3)
        subjects = []
        for i, x in enumerate([a, b, a, grid(5), a, b, grid(3), a]):
            c = rng.normal()
            y = 1.0 + 0.5 * x - 0.05 * x * x + 0.3 * c * x + rng.normal(size=x.size)
            subjects.append(SubjectBlock(id=f"s{i}", x=x, c=c, y=y))
        path = tmp_path / "mixed.csv"
        write_data(Dataset(subjects=tuple(subjects)), path)
        code, out, _ = run_cli(capsys, "fit", str(path), "--candidate", "O4M2")
        assert code == 0
        cand = CandidateModel.from_id("O4M2")
        data = read_dataset(path)
        fit = fit_ml(cand, data)
        expected = []
        for block in data.subjects:
            Z = build_design(cand, block).Z
            V = assemble_marginal_covariance(Z, fit.theta_hat.omega2, fit.theta_hat.sigma2)
            R = correlation_from_covariance(V)
            off = R[~np.eye(R.shape[0], dtype=bool)]
            expected.append({
                "n_obs": block.n_obs,
                "variance_mean": float(np.diagonal(V).mean()),
                "correlation_mean": float(off.mean()) if off.size else 0.0,
            })
        assert json.loads(out)["blocks"] == expected

    def test_out_flag_writes_file(self, data_file, tmp_path, capsys):
        path, _ = data_file
        target = tmp_path / "fit.json"
        code, out, _ = run_cli(
            capsys, "fit", str(path), "--candidate", "O1M1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["candidate"] == "O1M1"

    def test_candidate_id_is_case_insensitive(self, data_file, capsys):
        path, _ = data_file
        code, out, _ = run_cli(capsys, "fit", str(path), "--candidate", "o3m1")
        assert code == 0
        assert json.loads(out)["candidate"] == "O3M1"

    def test_missing_column_exits_one_and_names_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject,x,c\ns1,0,1\n")
        code, out, err = run_cli(capsys, "fit", str(bad), "--candidate", "O1M1")
        assert code == 1
        assert out == ""
        assert "'y'" in err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "fit", str(tmp_path / "nope.csv"), "--candidate", "O1M1"
        )
        assert code == 1
        assert "nope.csv" in err

    def test_bad_candidate_id_is_usage_error(self, data_file, capsys):
        path, _ = data_file
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", str(path), "--candidate", "O9M1"])
        assert excinfo.value.code == 2


class TestSelectCommand:
    def test_full_ranking(self, data_file, capsys):
        path, data = data_file
        code, out, _ = run_cli(capsys, "select", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == data.n_obs and payload["N"] == data.n_subjects
        assert payload["x_range"] == [data.x.min(), data.x.max()]
        assert payload["criteria"] == list(CRITERIA)
        assert len(payload["candidates"]) == 16
        assert set(payload["winners"]) == set(CRITERIA)
        for crit, ev in payload["evidence"].items():
            assert ev["best"] == payload["winners"][crit]
            assert ev["delta"] >= 0

    def test_criteria_flag_restricts_output(self, data_file, capsys):
        path, _ = data_file
        code, out, _ = run_cli(capsys, "select", str(path), "--criteria", "ne")
        assert code == 0
        payload = json.loads(out)
        assert list(payload["winners"]) == ["ne"]
        assert list(payload["evidence"]) == ["ne"]
        # per-candidate table still reports every criterion column
        assert len(payload["candidates"]) == 16
        assert "bic_N" in payload["candidates"][0]

    def test_response_in_large_units(self, tmp_path, capsys):
        # y in units 1e80 times smaller: the same ranking, without a warning,
        # and every loglik moved by n ln 1e80
        rng = np.random.default_rng(47041)
        x = np.array([0.0, 4.0, 9.0])
        subjects = [
            SubjectBlock(id=f"s{i}", x=x, c=rng.normal(), y=1.0 + 0.5 * x + rng.normal(size=3))
            for i in range(4)
        ]
        payloads = []
        for scale in (1.0, 1e80):
            path = tmp_path / f"y{scale:g}.csv"
            blocks = [dataclasses.replace(b, y=b.y * scale) for b in subjects]
            write_data(Dataset(subjects=blocks), path)
            code, out, _ = run_cli(capsys, "select", str(path))
            assert code == 0
            payloads.append(json.loads(out))
        plain, scaled = payloads
        assert scaled["winners"] == plain["winners"]
        shift = 12 * np.log(1e80)
        for a, b in zip(plain["candidates"], scaled["candidates"]):
            assert a["candidate"] == b["candidate"]
            assert b["loglik"] + shift == pytest.approx(a["loglik"], rel=1e-9)

    def test_bad_criteria_is_usage_error(self, data_file):
        path, _ = data_file
        with pytest.raises(SystemExit) as excinfo:
            main(["select", str(path), "--criteria", "N,aic"])
        assert excinfo.value.code == 2

    def test_help_lists_every_criterion(self, capsys):
        with pytest.raises(SystemExit):
            main(["select", "--help"])
        assert ",".join(CRITERIA) in capsys.readouterr().out

    def test_repeated_criteria_is_usage_error(self, data_file, capsys):
        path, _ = data_file
        with pytest.raises(SystemExit) as excinfo:
            main(["select", str(path), "--criteria", "N,N,ne"])
        assert excinfo.value.code == 2
        assert "comma-separated subset" in capsys.readouterr().err

    def test_bayes_factor_beyond_a_float_is_null(self, tmp_path, capsys):
        # with c constant only the M1 candidates fit, and O4M1 leads O3M1 by
        # over 4000 on every criterion: exp(delta / 2) is beyond a float
        truth = TrueParameters(mu=(1, 0.5, -0.05), alpha=(0, 0), omega2=(1, 1, 0.05), sigma2=1)
        data = generate_dataset(DESIGNS["d"], truth, 42401)
        path = tmp_path / "constant_c.csv"
        write_data(Dataset(subjects=[dataclasses.replace(b, c=0.0) for b in data.subjects]), path)
        code, out, err = run_cli(capsys, "select", str(path))  # a warning raises here

        def strict(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(out, parse_constant=strict)
        assert code == 0 and len(payload["evidence"]) == 4
        for ev in payload["evidence"].values():
            assert (ev["best"], ev["runner_up"]) == ("O4M1", "O3M1")
            assert ev["delta"] > 2.0 * np.log(sys.float_info.max)
            assert ev["bayes_factor"] is None and ev["jeffreys_label"] == "Decisive"
            assert ev["delta_label"] == "Very Strong"
        assert all(line.startswith("WARNING candidate O") for line in err.splitlines())

    def test_each_left_out_reason_is_said_once(self, tmp_path, capsys):
        # with c constant the twelve M2-M4 candidates fail for one reason
        truth = TrueParameters(mu=(1, 0.5, -0.05), alpha=(0, 0), omega2=(1, 1, 0.05), sigma2=1)
        data = generate_dataset(DESIGNS["d"], truth, 42401)
        path = tmp_path / "constant_c.csv"
        write_data(Dataset(subjects=[dataclasses.replace(b, c=0.0) for b in data.subjects]), path)
        code, _, err = run_cli(capsys, "select", str(path))
        ids = ", ".join(c.id for c in enumerate_candidates() if c.m > 1)
        assert code == 0 and err == (
            f"WARNING candidate {ids} failed to fit (each candidate has a covariate-by-x "
            "term but the subject covariate takes a single value)\n"
        )


def test_failed_and_unconverged_fits_left_out(data_file, monkeypatch, capsys, caplog):
    raising = {"O2M2"}

    def flaky_fit_ml(cand, data):
        if cand.id in raising:
            raise UnidentifiableModelError(f"candidate {cand.id} made to fail")
        fit = fit_ml(cand, data)
        return dataclasses.replace(fit, converged=False) if cand.id == "O3M1" else fit

    monkeypatch.setattr(lmmbic.cli, "fit_ml", flaky_fit_ml)
    monkeypatch.setattr(lmmbic.simulation, "fit_ml", flaky_fit_ml)
    config = StudyConfig(designs=("a",), seed=16001)
    result = run_replicate(DESIGNS["a"], CandidateModel.from_id("O1M1"), 0, config)
    assert result.n_failed == 2 and not set(result.selections.values()) & {"O2M2", "O3M1"}
    assert "candidate O2M2 failed to fit" in caplog.text
    assert "candidate O3M1 did not converge" in caplog.text
    code, out, err = run_cli(capsys, "select", str(data_file[0]))
    listed = {row["candidate"] for row in json.loads(out)["candidates"]}
    assert code == 0 and len(listed) == 14 and not listed & {"O2M2", "O3M1"}
    # main logs to this call's stderr; caplog sees the same records (TestLogging)
    assert "candidate O2M2 failed to fit" in err and "candidate O3M1 did not converge" in err

    raising.update(cand.id for cand in enumerate_candidates())
    assert run_cli(capsys, "select", str(data_file[0]))[:2] == (1, "")
    result = run_replicate(DESIGNS["a"], CandidateModel.from_id("O1M1"), 0, config)
    assert result.selections is None and result.n_failed == 16


def test_likelihood_never_evaluated_leaves_every_candidate_out(data_file, monkeypatch, capsys):
    def broken(stats, mean, theta):
        raise np.linalg.LinAlgError("broken")

    monkeypatch.setattr(lmmbic.estimation, "_profile", broken)
    path, data = data_file  # a fresh dataset: no fits of it are kept yet
    for cand in enumerate_candidates():
        message = f"candidate {cand.id} could not be evaluated at any visited point"
        with pytest.raises(UnidentifiableModelError, match=message):
            fit_ml(cand, data)
    reports, left_out = usable_reports(data, fit_ml, build_report)
    assert reports == [] and len(left_out) == 16
    code, out, err = run_cli(capsys, "select", str(path))
    assert (code, out) == (1, "")
    assert err.endswith("ERROR no candidate could be fitted on this data\n")


class TestLogging:
    def test_root_handlers_survive_main(self, data_file, capsys):
        root = logging.getLogger()
        handler = logging.StreamHandler(io.StringIO())
        root.addHandler(handler)
        try:
            assert run_cli(capsys, "select", str(data_file[0]))[0] == 0
            assert handler in root.handlers
        finally:
            root.removeHandler(handler)

    def test_select_warnings_reach_caplog_and_stderr_once(
        self, data_file, monkeypatch, capsys, caplog
    ):
        def unconverged_fit_ml(cand, data):
            fit = fit_ml(cand, data)
            return dataclasses.replace(fit, converged=False) if cand.id == "O3M1" else fit

        monkeypatch.setattr(lmmbic.cli, "fit_ml", unconverged_fit_ml)
        for _ in range(2):  # a second in-process call must not stack handlers
            code, _, err = run_cli(capsys, "select", str(data_file[0]))
            assert code == 0 and err == "WARNING candidate O3M1 did not converge\n"
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["candidate O3M1 did not converge"] * 2

    def test_records_after_main_reach_the_current_stderr(self, tmp_path, monkeypatch, capsys):
        # main logs to the stderr of its call; its caller then closes that
        # stream, as capsys does at teardown, and logs on
        stream = io.StringIO()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stderr", stream)
            assert main(["fit", str(tmp_path / "nope.csv"), "--candidate", "O1M1"]) == 1
        assert stream.getvalue().startswith("ERROR ") and "nope.csv" in stream.getvalue()
        stream.close()
        logging.getLogger("lmmbic.simulation").warning("after main")
        assert capsys.readouterr().err == "WARNING after main\n"


class TestEssCommand:
    def test_payload_between_bounds(self, data_file, capsys):
        path, data = data_file
        code, out, _ = run_cli(capsys, "ess", str(path), "--candidate", "O2M1")
        assert code == 0
        payload = json.loads(out)
        assert payload["candidate"] == "O2M1"
        assert payload["N"] == data.n_subjects
        assert payload["n"] == data.n_obs
        assert data.n_subjects < payload["n_e"] < data.n_obs


class TestSimulateCommand:
    def test_writes_report_files(self, tmp_path, capsys):
        out_dir = tmp_path / "study"
        code, out, _ = run_cli(
            capsys,
            "simulate", "--design", "a", "--replicates", "1",
            "--seed", "5", "--threads", "1", "--out", str(out_dir),
        )
        assert code == 0
        assert out == ""
        with (out_dir / "results.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 16 * 4
        assert {r["design"] for r in rows} == {"a"}
        with (out_dir / "summary.csv").open(newline="") as handle:
            summary = list(csv.DictReader(handle))
        assert [r["criterion"] for r in summary] == list(CRITERIA)
        assert (out_dir / "figure.svg").read_text().startswith("<svg")

    def test_unwritable_out_fails_before_the_study(self, tmp_path, monkeypatch, capsys):
        # --out names an existing file: the command stops before any replicate runs
        out = tmp_path / "f.txt"
        out.write_text("")
        studies = []
        monkeypatch.setattr(lmmbic.simulation, "run_study", lambda *a, **k: studies.append(a))
        code, _, err = run_cli(capsys, "simulate", "--design", "a", "--out", str(out))
        assert code == 1
        assert "File exists" in err
        assert studies == []

    @pytest.mark.parametrize("flag", [["--seed", "-1"], ["--replicates", "0"]])
    def test_out_of_range_count_is_usage_error(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--design", "a", "--out", str(tmp_path), *flag])
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_bad_design_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--design", "a,x"])
        assert excinfo.value.code == 2

    def test_repeated_design_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--design", "a,a"])
        assert excinfo.value.code == 2
        assert "designs must be a comma-separated subset" in capsys.readouterr().err

    def test_help_lists_every_design(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert ",".join(DESIGNS) in capsys.readouterr().out


class TestThreadCount:
    def make_args(self, threads=None):
        return argparse.Namespace(threads=threads)

    def test_flag_wins(self):
        assert _thread_count(self.make_args(threads=3)) == 3

    def test_defaults_to_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _thread_count(self.make_args()) == 1

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _thread_count(self.make_args()) == (os.cpu_count() or 1)


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([])
        assert excinfo.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "lmmbic" in capsys.readouterr().out

    def test_verbose_flag_counts(self):
        args = build_parser().parse_args(["-vv", "simulate", "--design", "a"])
        assert args.verbose == 2


def _python(probe, **env):
    """Run probe in a fresh interpreter that imports lmmbic from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in dict(os.environ, PYTHONPATH=path, **env).items() if v is not None}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_leaves_scipy_unloaded():
    # scipy serves only the dense reference likelihood, and the study
    # stack only simulate; loading either would add to the start-up time
    # and memory of every lmmbic process
    unwanted = ("scipy", "lmmbic.simulation", "lmmbic.report", "concurrent.futures.process")
    for module in ("lmmbic.cli", "lmmbic"):
        probe = (
            f"import sys, {module}; "
            f"print([m for m in sys.modules if m.startswith({unwanted!r})])"
        )
        assert _python(probe).strip() == "[]", module


def test_package_root_leaves_numpy_unloaded():
    # `python -m lmmbic.cli` imports the package root first, so the CLI
    # can choose numpy's BLAS threads only if the root loads no numpy
    assert _python("import sys, lmmbic; print('numpy' in sys.modules)").strip() == "False"


def test_cli_defaults_to_one_blas_thread():
    probe = "import os, lmmbic.cli; print(os.environ['OMP_NUM_THREADS'])"
    assert _python(probe, OMP_NUM_THREADS=None).strip() == "1"
    assert _python(probe, OMP_NUM_THREADS="3").strip() == "3"


def test_select_leaves_numpy_ma_unloaded(data_file):
    # numpy.ma loads lazily, from np.unique among others, and would add
    # about 10 ms to the start-up of every select process
    path, _ = data_file
    probe = (
        "import sys; from lmmbic.cli import main; "
        f"code = main(['select', {str(path)!r}]); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    assert _python(probe).splitlines()[-1] == "0 False"
