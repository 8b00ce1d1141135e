import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lmmbic.candidates import CandidateModel, build_design, enumerate_candidates
from lmmbic.data import Dataset, SubjectBlock
from lmmbic.model import (
    ParameterVector,
    assemble_marginal_covariance,
    correlation_from_covariance,
    log_likelihood,
)


def random_dataset(rng, n_subjects=5, min_obs=2, max_obs=6):
    subjects = []
    for i in range(n_subjects):
        n_i = int(rng.integers(min_obs, max_obs + 1))
        x = np.sort(rng.uniform(0.0, 10.0, size=n_i))
        subjects.append(
            SubjectBlock(id=f"s{i}", x=x, c=rng.normal(), y=rng.normal(size=n_i) * 2.0)
        )
    return Dataset(subjects=tuple(subjects))


def random_params(rng, candidate):
    return ParameterVector(
        beta=rng.normal(size=candidate.n_mean),
        omega2=rng.uniform(0.05, 1.0, size=candidate.n_variance),
        sigma2=rng.uniform(0.3, 2.0),
    )


def dense_block_loglik(resid, V):
    sign, logdet = np.linalg.slogdet(V)
    assert sign > 0
    quad = resid @ np.linalg.inv(V) @ resid
    return -0.5 * (resid.size * np.log(2.0 * np.pi) + logdet + quad)


def dense_loglik(params, candidate, data):
    total = 0.0
    for block in data.subjects:
        d = build_design(candidate, block)
        V = d.Z @ np.diag(params.omega2) @ d.Z.T + params.sigma2 * np.eye(block.n_obs)
        total += dense_block_loglik(block.y - d.X @ params.beta, V)
    return total


class TestParameterVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterVector(beta=[0.0], omega2=[-0.1], sigma2=1.0)
        with pytest.raises(ValueError):
            ParameterVector(beta=[0.0], omega2=[0.1], sigma2=0.0)
        with pytest.raises(ValueError, match="one-dimensional"):
            ParameterVector(beta=[[0.0, 1.0]], omega2=[0.1], sigma2=1.0)

    def test_zero_omega_allowed(self):
        p = ParameterVector(beta=[1.0, 2.0], omega2=[0.0], sigma2=0.5)
        assert p.omega2[0] == 0.0

    def test_readonly(self):
        p = ParameterVector(beta=[1.0], omega2=[0.1], sigma2=1.0)
        with pytest.raises(ValueError):
            p.beta[0] = 2.0


class TestAssembleCovariance:
    def test_vector_design_rejected(self):
        with pytest.raises(ValueError, match="Z must be a matrix"):
            assemble_marginal_covariance(np.ones(3), np.array([0.5, 0.5, 0.5]), 1.0)

    def test_hand_computed_intercept_slope(self):
        Z = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        V = assemble_marginal_covariance(Z, np.array([0.5, 0.25]), 1.0)
        # V_jk = 0.5 + 0.25 * x_j * x_k + (j == k)
        expected = 0.5 + 0.25 * np.outer([0, 1, 2], [0, 1, 2]) + np.eye(3)
        np.testing.assert_allclose(V, expected, rtol=1e-14)

    def test_symmetry_machine_exact(self):
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(7, 3))
        V = assemble_marginal_covariance(Z, np.array([0.3, 0.7, 0.1]), 0.9)
        np.testing.assert_array_equal(V, V.T)

    def test_positive_definite_when_sigma_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            Z = rng.normal(size=(5, 2))
            V = assemble_marginal_covariance(Z, rng.uniform(0, 1, 2), rng.uniform(0.1, 2))
            np.linalg.cholesky(V)  # raises if not PD

    def test_degenerate_omegas_give_white_noise(self):
        Z = np.ones((4, 1))
        V = assemble_marginal_covariance(Z, np.array([0.0]), 2.0)
        np.testing.assert_array_equal(V, 2.0 * np.eye(4))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assemble_marginal_covariance(np.ones((3, 2)), np.array([0.1]), 1.0)

    def test_invalid_variances(self):
        Z = np.ones((2, 1))
        with pytest.raises(ValueError):
            assemble_marginal_covariance(Z, np.array([-0.1]), 1.0)
        with pytest.raises(ValueError):
            assemble_marginal_covariance(Z, np.array([0.1]), 0.0)


class TestLogLikelihood:
    def test_matches_dense_path(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            cand = enumerate_candidates()[int(rng.integers(16))]
            data = random_dataset(rng)
            params = random_params(rng, cand)
            fast = log_likelihood(params, cand, data)
            np.testing.assert_allclose(fast, dense_loglik(params, cand, data), rtol=1e-10)

    def test_single_observation_blocks(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, n_subjects=6, min_obs=1, max_obs=1)
        cand = CandidateModel(m=1, o=4)
        params = random_params(rng, cand)
        np.testing.assert_allclose(
            log_likelihood(params, cand, data),
            dense_loglik(params, cand, data),
            rtol=1e-10,
        )

    def test_beta_size_checked(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng)
        params = ParameterVector(beta=np.zeros(3), omega2=np.array([0.5]), sigma2=1.0)
        with pytest.raises(ValueError, match="mean columns"):
            log_likelihood(params, CandidateModel(m=4, o=1), data)

    def test_likelihood_decreases_away_from_data_mean(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng)
        cand = CandidateModel(m=1, o=1)
        p0 = ParameterVector(beta=np.zeros(3), omega2=np.array([0.5]), sigma2=1.0)
        p_far = ParameterVector(
            beta=np.array([1e3, 1e3, 1e3]), omega2=np.array([0.5]), sigma2=1.0
        )
        assert log_likelihood(p0, cand, data) > log_likelihood(p_far, cand, data)


class TestCorrelationFromCovariance:
    def test_known_two_by_two(self):
        V = np.array([[4.0, 2.0], [2.0, 25.0]])
        R = correlation_from_covariance(V)
        np.testing.assert_allclose(R, [[1.0, 0.2], [0.2, 1.0]], rtol=1e-14)

    def test_unit_diagonal_exact(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(5, 5))
        V = A @ A.T + 5.0 * np.eye(5)
        R = correlation_from_covariance(V)
        np.testing.assert_array_equal(np.diagonal(R), np.ones(5))

    def test_single_entry(self):
        R = correlation_from_covariance(np.array([[3.7]]))
        np.testing.assert_array_equal(R, [[1.0]])

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError):
            correlation_from_covariance(np.array([[0.0, 0.0], [0.0, 1.0]]))


# A subprocess in which importing scipy fails: the dense likelihood, the
# magnitude and the correlation structure must run on numpy alone.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
from lmmbic.candidates import CandidateModel
from lmmbic.data import Dataset, SubjectBlock
from lmmbic.estimation import fit_ml
from lmmbic.model import ParameterVector, correlation_structure, log_likelihood, magnitude

rng = np.random.default_rng(3)
x = np.linspace(0.0, 10.0, 4)
data = Dataset(subjects=tuple(
    SubjectBlock(id=f"s{i}", x=x, c=rng.normal(), y=1.0 + 0.5 * x + rng.normal(size=4))
    for i in range(6)
))
cand = CandidateModel(m=1, o=1)
params = ParameterVector(beta=[1.0, 0.5, 0.0], omega2=[0.5], sigma2=1.0)
structure = correlation_structure(fit_ml(cand, data), data)
print(log_likelihood(params, cand, data), magnitude(np.eye(3)), structure.n_e)
"""


def test_dense_reference_runs_without_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loglik, ones, n_e = map(float, result.stdout.split())
    assert np.isfinite(loglik)
    assert ones == 3.0
    assert 6.0 <= n_e <= 24.0
