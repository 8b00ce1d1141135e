"""Dense reference for the likelihood and the effective sample size.

Integrating the random effects out of the subject model leaves
independent multivariate-normal blocks

    y_i ~ N(X_i beta, V_i),   V_i = Z_i diag(omega2) Z_i' + sigma2 * I,

and the log-likelihood is the sum of the per-block log-densities.  Each
block is evaluated through a Cholesky factorization of V_i; an explicit
inverse is never formed.

n observations with correlation matrix R carry the information of
1' R^-1 1 independent ones; that scalar is the magnitude of R.  For an
exchangeable n x n block with correlation rho it reduces to
n / (1 + (n - 1) rho), so strong positive correlation shrinks the
count toward 1 and independence leaves it at n.  Grouped data has
block-diagonal correlation, so the dataset total n_e is the sum of
per-subject magnitudes.

Both are computed here one subject's dense n_i x n_i block at a time, as
the reference the fast path in estimation is checked against; a fit
carries its own n_e (FittedModel.n_effective), read off the
capacitances the likelihood uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .candidates import CandidateModel, build_design
from .data import Dataset, SubjectBlock, _readonly

if TYPE_CHECKING:
    from .estimation import FittedModel

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
        beta, omega2 = _readonly(self.beta), _readonly(self.omega2)
        if beta.ndim != 1 or omega2.ndim != 1:
            raise ValueError("beta and omega2 must be one-dimensional")
        if np.any(omega2 < 0):
            raise ValueError("omega2 entries must be non-negative")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive")
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


def implied_covariance(
    candidate: CandidateModel, params: ParameterVector, block: SubjectBlock
) -> np.ndarray:
    """One subject's V_i under the candidate at params."""
    Z = build_design(candidate, block).Z
    return assemble_marginal_covariance(Z, params.omega2, params.sigma2)


def _whiten(V: np.ndarray, b: np.ndarray | float) -> tuple[np.ndarray, float]:
    """L^-1 b and log det V for V = L L', from one Cholesky factorization.

    w = L^-1 b is the last row of the Cholesky factor of the bordered
    matrix [[V, b], [b', c]], whose top-left block is L, for any c that
    keeps its last pivot c - w'w positive; c = the largest float does for
    every V that factorizes (w'w overflows only when V is numerically
    singular, and then the factorization raises).  Raises
    numpy.linalg.LinAlgError when it does.
    """
    n = V.shape[0]
    bordered = np.empty((n + 1, n + 1))
    bordered[:n, :n] = V
    bordered[:n, n] = b
    bordered[n, :n] = b
    bordered[n, n] = np.finfo(float).max
    L = np.linalg.cholesky(bordered)
    return L[n, :n], 2.0 * float(np.sum(np.log(np.diagonal(L)[:n])))


def log_likelihood(params: ParameterVector, candidate: CandidateModel, data: Dataset) -> float:
    """Exact marginal log-likelihood (natural log) of `params` on `data`.

    Raises:
        ValueError: when beta or omega2 do not match the candidate's
            design dimensions.
        numpy.linalg.LinAlgError: when some V_i is not numerically
            positive definite.
    """
    if params.beta.size != candidate.n_mean:
        raise ValueError(
            f"beta has {params.beta.size} entries but candidate "
            f"{candidate.id} has {candidate.n_mean} mean columns"
        )
    total = 0.0
    for block in data.subjects:
        d = build_design(candidate, block)
        V = assemble_marginal_covariance(d.Z, params.omega2, params.sigma2)
        half, logdet = _whiten(V, block.y - d.X @ params.beta)
        total -= 0.5 * (block.n_obs * LN_TWO_PI + logdet + float(half @ half))
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


def magnitude(R: np.ndarray) -> float:
    """Sum of the entries of R^-1, 1' R^-1 1, from one Cholesky factorization.

    Expects a symmetric positive-definite matrix (a correlation matrix
    in this package's usage).  Raises numpy.linalg.LinAlgError when the
    factorization fails.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError("R must be square")
    w, _ = _whiten(R, 1.0)
    return float((w * w).sum())


@dataclass(frozen=True, eq=False)
class CorrelationStructure:
    """Model-implied correlation blocks and their magnitude weights."""

    blocks: tuple[np.ndarray, ...]
    weights: tuple[float, ...]
    n_e: float


def correlation_structure(fit: FittedModel, data: Dataset) -> CorrelationStructure:
    """Per-subject implied correlation matrices and magnitudes for a fit on data."""
    blocks = tuple(
        correlation_from_covariance(implied_covariance(fit.candidate, fit.theta_hat, block))
        for block in data.subjects
    )
    weights = tuple(magnitude(R) for R in blocks)
    return CorrelationStructure(blocks=blocks, weights=weights, n_e=float(sum(weights)))
