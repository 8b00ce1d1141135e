"""Effective sample size of correlated responses.

n observations with correlation matrix R carry the information of
1' R^-1 1 independent ones; that scalar is the magnitude of R.  For an
exchangeable n x n block with correlation rho it reduces to
n / (1 + (n - 1) rho), so strong positive correlation shrinks the
count toward 1 and independence leaves it at n.

Grouped data has block-diagonal correlation, so the dataset total is
the sum of per-subject magnitudes.  Neither the full matrix nor a
subject's R_i is formed: with a grid's basis Q and capacitance
Ct = I + D = L L', D = R Theta R' (see estimation), s the square roots
of Vt's diagonal 1 + diag(Q D Q') and a = Q's, R_i^-1 =
diag(s) Vt^-1 diag(s) and the Woodbury identity give

    1' R_i^-1 1 = ||s - Q a||^2 + a' Ct^-1 a
                = (n_i - ||Q'1||^2) + (||s - Q a||^2 + ||L^-1 a||^2).

The first term is zero in exact arithmetic (the intercept puts 1 in
Q's span); it makes two cases exact by construction.  Without random
effects D = 0, so s = 1, a = Q'1, L = I, and ||s - Q a||^2 is below
half an ulp of ||Q'1||^2, which is within a factor 2 of n_i:
n_i - ||Q'1||^2 is exact and adding ||Q'1||^2 back gives n_i.  On a
one-point grid Q = [1, 0, 0], s = Q a and s^2 = 1 + D_00 = Ct_00, so
L^-1 a = s / sqrt(Ct_00) = 1: the sum is 1.  The second term adds two
non-negative parts, so nothing cancels as the variances grow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candidates import build_design
from .estimation import FittedModel, dataset_statistics
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

    Equals sum_i 1' R_i^-1 1 over subjects, read off the capacitance of
    each distinct grid of the dataset's statistics (dataset_statistics),
    shared with the likelihood, in a few batched calls over all grids.
    """
    stats = dataset_statistics(fit.data)
    theta = fit.theta_hat.omega2 / fit.theta_hat.sigma2
    D = (theta @ stats.rr[fit.candidate.random_columns]).reshape(-1, 3, 3)
    q, sizes = stats.point_q, stats.grid_sizes
    s = np.sqrt(1.0 + np.einsum("pa,pab,pb->p", q, np.repeat(D, sizes, axis=0), q))
    starts = np.cumsum(sizes) - sizes
    ones, a = np.add.reduceat(q, starts), np.add.reduceat(q * s[:, None], starts)
    perp = s - (q * np.repeat(a, sizes, axis=0)).sum(axis=1)
    # L^-1 a by forward substitution, dividing as the one-point case needs
    L = np.linalg.cholesky(D + np.eye(3))
    x = np.empty_like(a)
    for k in range(3):
        x[:, k] = (a[:, k] - (L[:, k, :k] * x[:, :k]).sum(axis=1)) / L[:, k, k]
    second = np.add.reduceat(perp * perp, starts) + (x * x).sum(axis=1)
    return float(stats.counts @ ((sizes - (ones * ones).sum(axis=1)) + second))
