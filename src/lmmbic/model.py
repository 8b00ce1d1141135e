"""Exact Gaussian marginal likelihood for block-structured mixed models.

Integrating the random effects out of the subject model leaves
independent multivariate-normal blocks

    y_i ~ N(X_i beta, V_i),   V_i = Z_i diag(omega2) Z_i' + sigma2 * I,

and the log-likelihood is the sum of the per-block log-densities.  Each
block is evaluated through a Cholesky factorization of V_i; an explicit
inverse is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import CandidateModel, build_design
from .data import Dataset

LN_TWO_PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """A full parameter point for one candidate.

    beta follows the X column order of build_design and omega2 the Z
    column order.  Zero entries in omega2 are allowed (degenerate
    random effects); sigma2 must be positive so every V_i stays
    positive definite.
    """

    beta: np.ndarray
    omega2: np.ndarray
    sigma2: float

    def __post_init__(self) -> None:
        beta = np.array(self.beta, dtype=float)
        omega2 = np.array(self.omega2, dtype=float)
        if beta.ndim != 1 or omega2.ndim != 1:
            raise ValueError("beta and omega2 must be one-dimensional")
        if np.any(omega2 < 0):
            raise ValueError("omega2 entries must be non-negative")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
        beta.flags.writeable = False
        omega2.flags.writeable = False
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "omega2", omega2)
        object.__setattr__(self, "sigma2", float(self.sigma2))


def assemble_marginal_covariance(Z: np.ndarray, omega2: np.ndarray, sigma2: float) -> np.ndarray:
    """V = Z diag(omega2) Z' + sigma2 * I, symmetrized exactly.

    Z may be a stack (..., n, q) of designs, giving a stack of V.
    """
    Z = np.asarray(Z, dtype=float)
    omega2 = np.asarray(omega2, dtype=float)
    if Z.ndim < 2:
        raise ValueError("Z must be a matrix")
    if omega2.shape != (Z.shape[-1],):
        raise ValueError(
            f"omega2 has {omega2.size} entries but Z has {Z.shape[-1]} columns"
        )
    if np.any(omega2 < 0):
        raise ValueError("omega2 entries must be non-negative")
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    V = (Z * omega2) @ Z.swapaxes(-1, -2)
    V = 0.5 * (V + V.swapaxes(-1, -2))
    diagonal = np.arange(Z.shape[-2])
    V[..., diagonal, diagonal] += sigma2
    return V


def _block_log_density(resid: np.ndarray, V: np.ndarray) -> float:
    # the reference path alone needs scipy, so importing lmmbic does not
    from scipy.linalg import solve_triangular

    # np.linalg.cholesky raises LinAlgError when V is not numerically PD
    L = np.linalg.cholesky(V)
    half = solve_triangular(L, resid, lower=True, check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(L))))
    return -0.5 * (resid.size * LN_TWO_PI + logdet + float(half @ half))


def log_likelihood(params: ParameterVector, candidate: CandidateModel, data: Dataset) -> float:
    """Exact marginal log-likelihood (natural log) of `params` on `data`.

    Raises:
        ValueError: when beta or omega2 do not match the candidate's
            design dimensions.
        numpy.linalg.LinAlgError: when some V_i is not numerically
            positive definite.
    """
    total = 0.0
    for block in data.subjects:
        d = build_design(candidate, block)
        if params.beta.size != d.X.shape[1]:
            raise ValueError(
                f"beta has {params.beta.size} entries but candidate "
                f"{candidate.id} has {d.X.shape[1]} mean columns"
            )
        V = assemble_marginal_covariance(d.Z, params.omega2, params.sigma2)
        total += _block_log_density(block.y - d.X @ params.beta, V)
    return total


def correlation_from_covariance(V: np.ndarray) -> np.ndarray:
    """Rescale a covariance matrix, or a stack (..., n, n) of them, to
    unit diagonal.

    The diagonal of the result is set to exactly 1.
    """
    V = np.asarray(V, dtype=float)
    d = np.diagonal(V, axis1=-2, axis2=-1)
    if np.any(d <= 0):
        raise ValueError("covariance diagonal must be strictly positive")
    inv_sd = 1.0 / np.sqrt(d)
    R = V * inv_sd[..., :, None] * inv_sd[..., None, :]
    diagonal = np.arange(V.shape[-1])
    R[..., diagonal, diagonal] = 1.0
    return R
