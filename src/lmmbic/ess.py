"""Effective sample size of correlated responses.

n observations with correlation matrix R carry the information of
1' R^-1 1 independent ones; that scalar is the magnitude of R.  For an
exchangeable n x n block with correlation rho it reduces to
n / (1 + (n - 1) rho), so strong positive correlation shrinks the
count toward 1 and independence leaves it at n.

Grouped data has block-diagonal correlation, so the dataset total is
the sum of per-subject magnitudes.  A fit carries that total for its own
variances (FittedModel.n_effective), read off the capacitances the
likelihood uses, for a family's sixteen optima in one call (see
estimation); magnitude and correlation_structure are the dense
reference, one subject's R_i at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import build_design
from .estimation import FittedModel
from .model import assemble_marginal_covariance, correlation_from_covariance


def _magnitudes(R: np.ndarray) -> np.ndarray:
    """1' R^-1 1 for each matrix of a stack (..., n, n).

    With R = L L', 1' R^-1 1 = ||w||^2 for w = L^-1 1, and w' is the
    last row of the Cholesky factor of the bordered matrix
    [[R, 1], [1', c]], for any c that keeps its last pivot c - w'w
    positive; c = the largest float does for every R that factorizes
    (w'w overflows only when R is numerically singular, and then the
    factorization raises).  One batched factorization thus stands in for
    a factorization and a triangular solve.
    """
    n = R.shape[-1]
    bordered = np.empty(R.shape[:-2] + (n + 1, n + 1))
    bordered[..., :n, :n] = R
    bordered[..., :n, n] = 1.0
    bordered[..., n, :n] = 1.0
    bordered[..., n, n] = np.finfo(float).max
    w = np.linalg.cholesky(bordered)[..., n, :n]
    return (w * w).sum(axis=-1)


def magnitude(R: np.ndarray) -> float:
    """Sum of the entries of R^-1, 1' R^-1 1, from one Cholesky factorization.

    Expects a symmetric positive-definite matrix (a correlation matrix
    in this package's usage).  Raises numpy.linalg.LinAlgError when the
    factorization fails.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError("R must be square")
    return float(_magnitudes(R))


@dataclass(frozen=True, eq=False)
class CorrelationStructure:
    """Model-implied correlation blocks and their magnitude weights."""

    blocks: tuple[np.ndarray, ...]
    weights: tuple[float, ...]
    n_e: float


def correlation_structure(fit: FittedModel) -> CorrelationStructure:
    """Per-subject implied correlation matrices and magnitudes for a fit."""
    blocks = []
    weights = []
    for block in fit.data.subjects:
        Z = build_design(fit.candidate, block).Z
        V = assemble_marginal_covariance(Z, fit.theta_hat.omega2, fit.theta_hat.sigma2)
        R = correlation_from_covariance(V)
        blocks.append(R)
        weights.append(magnitude(R))
    return CorrelationStructure(
        blocks=tuple(blocks),
        weights=tuple(weights),
        n_e=float(sum(weights)),
    )


def effective_sample_size(fit: FittedModel) -> float:
    """Total magnitude of the fit's implied correlation structure.

    Equals sum_i 1' R_i^-1 1 over subjects: the fit's n_effective, read
    off the capacitance of each distinct grid of the dataset's
    statistics, shared with the likelihood (estimation._effective_sizes).
    """
    return fit.n_effective
