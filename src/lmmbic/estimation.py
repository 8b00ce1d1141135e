"""Maximum-likelihood fitting of one candidate structure.

The mean coefficients have a closed form at fixed variances: the
generalized-least-squares solution

    beta_hat = (sum_i X_i' V_i^-1 X_i)^-1  sum_i X_i' V_i^-1 y_i

maximizes the likelihood over beta, so the numerical search runs only
over the log variances, a space of dimension q + 1 <= 4.

Each objective evaluation would naively refactor every n_i x n_i block.
Instead, each subject's data is rotated once per candidate into an
orthonormal basis [Q Q_perp] of its grid, with Z = Q R from a QR
factorization (R is k x q, k = min(n_i, q)).  Then

    V_i^-1 = Q C^-1 Q' + (I - Q Q') / sigma2,   C = sigma2 * I_k + R W R',
    log det V_i = (n_i - k) log sigma2 + log det C,       W = diag(omega2),

so the evaluation needs only the k x k "capacitance" matrix C and
cross-products of the rotated data: Q'X_i and Q'y_i along Z, and the
components orthogonal to Z, which enter as plain sums.  Both parts of
X' V^-1 X are positive semi-definite, so nothing cancels as variances
grow relative to sigma2.  Subjects that share an observation grid share
Q and R, so their cross-products collapse into one group tensor per
distinct grid.  The G group tensors are stacked (R zero-padded to
q x q, which adds sigma2 to C's diagonal and nothing else), and each
evaluation is a fixed number of batched numpy calls whose arithmetic is
linear in G: with one shared grid the cost does not grow with the
number of subjects, and on unbalanced data, where every subject may
have its own grid, it does not pay a Python loop over the grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .candidates import CandidateModel, DesignBlocks, build_design
from .data import Dataset
from .model import LN_TWO_PI, ParameterVector, assemble_marginal_covariance
from .rng import substream

# Log-variance bounds used inside the optimizer; the lower bound is the
# configured floor, this is just the overflow guard above.
_LOG_CEILING = 50.0


class UnidentifiableModelError(ValueError):
    """The candidate's mean structure is not estimable from the data."""


@dataclass(frozen=True)
class FitOptions:
    """Controls for the variance search.

    seed drives the restart-jitter stream, so fits are reproducible
    bit for bit.
    """

    max_iterations: int = 2000
    rel_tolerance: float = 1e-8
    n_restarts: int = 3
    variance_floor: float = 1e-12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.rel_tolerance > 0:
            raise ValueError("rel_tolerance must be positive")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be at least 1")
        if not self.variance_floor > 0:
            raise ValueError("variance_floor must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Result of fit_ml.

    boundary lists the variance labels (omega* or sigma2) whose
    estimate landed on the configured floor; such solutions are
    reported rather than rejected.
    """

    candidate: CandidateModel
    theta_hat: ParameterVector
    loglik: float
    converged: bool
    boundary: tuple[str, ...]
    designs: tuple[DesignBlocks, ...]
    n_obs: int
    n_subjects: int

    def covariance_blocks(self) -> list[np.ndarray]:
        """Per-subject marginal covariances V_i at the fitted variances."""
        return [
            assemble_marginal_covariance(d.Z, self.theta_hat.omega2, self.theta_hat.sigma2)
            for d in self.designs
        ]


class ProfiledLikelihood:
    """Callable core of the fit: likelihood with beta profiled out.

    Construction performs all O(n) work and stacks the per-grid
    tensors; evaluate() then makes the same fixed number of numpy calls
    for any number G of distinct observation grids, with arithmetic
    linear in G: one batched Cholesky factorization and one batched
    inverse of the G capacitance matrices, and one matrix-vector product
    per term of the GLS normal equations.
    """

    def __init__(self, candidate: CandidateModel, data: Dataset):
        if (candidate.alpha1_free or candidate.alpha2_free) and (
            np.unique(data.subject_covariates()).size < 2
        ):
            raise UnidentifiableModelError(
                f"candidate {candidate.id} has a covariate-by-x term but "
                "the subject covariate takes a single value"
            )
        designs = tuple(build_design(candidate, b) for b in data.subjects)
        self.candidate = candidate
        self.designs = designs
        self.p = designs[0].X.shape[1]
        self.q = designs[0].Z.shape[1]
        self.n_obs = data.n_obs
        self.n_subjects = data.n_subjects

        by_grid: dict[bytes, list[int]] = {}
        for idx, block in enumerate(data.subjects):
            by_grid.setdefault(block.x.tobytes(), []).append(idx)

        p, q = self.p, self.q
        xtx = np.zeros((p, p))
        perp_xx = np.zeros((p, p))
        perp_xy = np.zeros(p)
        perp_yy = 0.0
        sigma_weight = 0
        rr, counts, cross_xx, cross_xy, cross_yy = [], [], [], [], []
        for indices in by_grid.values():
            Z = designs[indices[0]].Z
            Xs = np.stack([designs[i].X for i in indices], axis=1)       # (n, m, p)
            Ys = np.stack([data.subjects[i].y for i in indices], axis=1)  # (n, m)
            n, m = Ys.shape
            # a grid with n < q points has k = n; zero-padding Q and R to q
            # axes leaves C = sigma2 there, whose log sigma2 the weight
            # n - q (not n - k) absorbs
            Q_thin, R_thin = np.linalg.qr(Z)                             # (n, k), (k, q)
            k = R_thin.shape[0]
            Q = np.zeros((n, q))
            Q[:, :k] = Q_thin
            R = np.zeros((q, q))
            R[:k] = R_thin
            flat_x = Xs.reshape(n, m * p)
            QtX = Q.T @ flat_x                                           # (q, m*p)
            Qty = Q.T @ Ys                                               # (q, m)
            perp_x = (flat_x - Q @ QtX).reshape(n * m, p)
            perp_y = (Ys - Q @ Qty).reshape(n * m)
            perp_xx += perp_x.T @ perp_x
            perp_xy += perp_x.T @ perp_y
            perp_yy += float(perp_y @ perp_y)
            sigma_weight += m * (n - q)
            counts.append(m)
            rr.append((R[:, None, :] * R[None, :, :]).reshape(q * q, q))
            # sums over the group's subjects of Q'X_i (x) Q'X_i etc., with
            # the two capacitance axes flattened in front
            along = QtX.reshape(q, m, p).transpose(1, 0, 2).reshape(m, q * p)
            gram = (along.T @ along).reshape(q, p, q, p)
            # X_i'X_i = X_i'QQ'X_i + perp part; the first is gram's trace
            # over its capacitance axes
            xtx += np.einsum("aiaj->ij", gram)
            cross_xx.append(gram.transpose(0, 2, 1, 3).reshape(q * q, p * p))
            cross_xy.append(
                (along.T @ Qty.T).reshape(q, p, q).transpose(0, 2, 1).reshape(q * q, p)
            )
            cross_yy.append((Qty @ Qty.T).reshape(q * q))
        xtx += perp_xx
        if np.linalg.matrix_rank(xtx, hermitian=True) < p:
            raise UnidentifiableModelError(
                f"mean design for candidate {candidate.id} is rank deficient"
            )
        self._rr = np.concatenate(rr)                  # (G*q*q, q): C = rr @ omega2 + sigma2*I
        self._counts = np.array(counts, dtype=float)   # (G,)
        self._sigma_weight = float(sigma_weight)       # sum_i (n_i - q)
        self._cross_xx = np.concatenate(cross_xx)      # (G*q*q, p*p)
        self._cross_xy = np.concatenate(cross_xy)      # (G*q*q, p)
        self._cross_yy = np.concatenate(cross_yy)      # (G*q*q,)
        self._perp_xx = perp_xx
        self._perp_xy = perp_xy
        self._perp_yy = perp_yy
        self._eye_q = np.eye(q)

    def evaluate(self, omega2: np.ndarray, sigma2: float) -> tuple[float, np.ndarray]:
        """Profiled log-likelihood and the GLS beta at these variances.

        Raises:
            numpy.linalg.LinAlgError: capacitance factorization broke
                down for some grid (numerically invalid variances).
            UnidentifiableModelError: the GLS normal matrix is singular.
        """
        p, q = self.p, self.q
        C = (self._rr @ omega2).reshape(-1, q, q)
        C += sigma2 * self._eye_q
        L = np.linalg.cholesky(C)
        log_diag = np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        logdet_total = self._sigma_weight * math.log(sigma2) + 2.0 * float(self._counts @ log_diag)
        kernel = np.linalg.inv(C).reshape(-1)
        A = self._perp_xx / sigma2 + (kernel @ self._cross_xx).reshape(p, p)
        b = self._perp_xy / sigma2 + kernel @ self._cross_xy
        quad_const = self._perp_yy / sigma2 + float(kernel @ self._cross_yy)
        try:
            La = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise UnidentifiableModelError(
                f"normal matrix for candidate {self.candidate.id} is singular"
            ) from None
        beta = cho_solve((La, True), b, check_finite=False)
        quad = quad_const - float(b @ beta)
        loglik = -0.5 * (self.n_obs * LN_TWO_PI + logdet_total + quad)
        return loglik, beta


def profile_beta(
    omega2: np.ndarray,
    sigma2: float,
    candidate: CandidateModel,
    data: Dataset,
) -> tuple[np.ndarray, float]:
    """GLS mean coefficients and profiled log-likelihood at fixed variances.

    The returned log-likelihood is recomputed through the per-block
    Cholesky path of model.log_likelihood at the profiled solution.
    """
    from .model import log_likelihood

    omega2 = np.asarray(omega2, dtype=float)
    prof = ProfiledLikelihood(candidate, data)
    if omega2.shape != (prof.q,):
        raise ValueError(
            f"candidate {candidate.id} has {prof.q} random-effect variances, "
            f"got {omega2.size}"
        )
    _, beta = prof.evaluate(omega2, sigma2)
    params = ParameterVector(beta=beta, omega2=omega2, sigma2=sigma2)
    return beta, log_likelihood(params, candidate, data)


def _nelder_mead(
    objective,
    x0: np.ndarray,
    max_iterations: int,
    rel_tol: float,
    step: float = 1.0,
) -> tuple[np.ndarray, float, bool]:
    """Minimize with the classic reflect/expand/contract/shrink simplex.

    Converged means the spread of function values across the simplex
    dropped below rel_tol relative to the best value, i.e. a full
    update cycle produced no meaningful relative improvement.  The best
    vertex is never discarded, so the result is monotone in the start
    value.
    """
    d = x0.size
    simplex = np.tile(x0, (d + 1, 1))
    for i in range(d):
        simplex[i + 1, i] += step
    fvals = [float(objective(v)) for v in simplex]
    vertex_sum = simplex.sum(axis=0)
    converged = False

    def replace_worst(iw: int, vertex: np.ndarray, value: float) -> None:
        nonlocal vertex_sum
        vertex_sum = vertex_sum + (vertex - simplex[iw])
        simplex[iw] = vertex
        fvals[iw] = value

    for _ in range(max_iterations):
        ib = min(range(d + 1), key=fvals.__getitem__)
        iw = max(range(d + 1), key=fvals.__getitem__)
        f_best, f_worst = fvals[ib], fvals[iw]
        if f_worst - f_best <= rel_tol * (1.0 + abs(f_best)):
            converged = True
            break
        f_second = max(v for i, v in enumerate(fvals) if i != iw)
        centroid = (vertex_sum - simplex[iw]) / d
        step_out = centroid - simplex[iw]
        reflected = centroid + step_out
        f_reflected = float(objective(reflected))
        if f_reflected < f_best:
            expanded = centroid + 2.0 * step_out
            f_expanded = float(objective(expanded))
            if f_expanded < f_reflected:
                replace_worst(iw, expanded, f_expanded)
            else:
                replace_worst(iw, reflected, f_reflected)
        elif f_reflected < f_second:
            replace_worst(iw, reflected, f_reflected)
        else:
            if f_reflected < f_worst:
                contracted = centroid + 0.5 * step_out
            else:
                contracted = centroid - 0.5 * step_out
            f_contracted = float(objective(contracted))
            if f_contracted < min(f_reflected, f_worst):
                replace_worst(iw, contracted, f_contracted)
            else:
                best = simplex[ib].copy()
                simplex[:] = best + 0.5 * (simplex - best)
                for i in range(d + 1):
                    if i != ib:
                        fvals[i] = float(objective(simplex[i]))
                vertex_sum = simplex.sum(axis=0)
    ib = min(range(d + 1), key=fvals.__getitem__)
    return simplex[ib].copy(), fvals[ib], converged


def _moment_start(designs: tuple[DesignBlocks, ...], data: Dataset, q: int, floor: float) -> np.ndarray:
    """Log-variance start: OLS residual variance for sigma2, half of it
    for each random-effect variance."""
    X = np.vstack([d.X for d in designs])
    y = np.concatenate([b.y for b in data.subjects])
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    dof = max(y.size - X.shape[1], 1)
    s0 = max(float(resid @ resid) / dof, floor)
    start = np.log(np.array([0.5 * s0] * q + [s0]))
    return np.clip(start, math.log(floor), _LOG_CEILING)


def fit_ml(
    candidate: CandidateModel,
    data: Dataset,
    options: FitOptions = FitOptions(),
) -> FittedModel:
    """Fit one candidate by maximum likelihood.

    Runs a multistart simplex search over log variances (the first
    start from moment estimates, later starts jittered by a factor
    exp(U[-1, 1]) per coordinate), then a refinement pass with a small
    simplex from the best point found.  The reported log-likelihood is
    the maximum over all starts.  Variances that land on the floor are
    listed in `boundary`; a search that exhausts max_iterations is
    returned with converged=False rather than raised.

    Raises:
        UnidentifiableModelError: fewer observations than parameters,
            rank-deficient mean design, or an alpha term with a
            constant subject covariate.
    """
    if data.n_obs <= candidate.n_parameters:
        raise UnidentifiableModelError(
            f"candidate {candidate.id} has {candidate.n_parameters} parameters "
            f"but the data has only {data.n_obs} observations"
        )
    prof = ProfiledLikelihood(candidate, data)
    q = prof.q
    log_floor = math.log(options.variance_floor)

    def objective(z: np.ndarray) -> float:
        # rank deficiency is rejected at construction, so a breakdown
        # here means the variances are numerically extreme, not that
        # the model is unidentifiable: price the point out instead
        v = np.exp(np.clip(z, log_floor, _LOG_CEILING))
        try:
            loglik, _ = prof.evaluate(v[:q], float(v[q]))
        except (np.linalg.LinAlgError, UnidentifiableModelError):
            return math.inf
        return -loglik if math.isfinite(loglik) else math.inf

    start = _moment_start(prof.designs, data, q, options.variance_floor)
    jitter = substream(options.seed)
    best_z: np.ndarray | None = None
    best_f = math.inf
    for restart in range(options.n_restarts):
        z0 = start if restart == 0 else start + jitter.uniform(-1.0, 1.0, size=q + 1)
        z, f, _ = _nelder_mead(objective, z0, options.max_iterations, options.rel_tolerance)
        if f < best_f:
            best_z, best_f = z, f
    # Refinement from the incumbent with a tight simplex; monotone, so
    # this can only improve the incumbent.
    best_z, best_f, converged = _nelder_mead(
        objective, best_z, options.max_iterations, options.rel_tolerance, step=0.05
    )
    if not math.isfinite(best_f):
        raise UnidentifiableModelError(
            f"likelihood for candidate {candidate.id} could not be evaluated "
            "at any visited point"
        )

    z_final = np.clip(best_z, log_floor, _LOG_CEILING)
    variances = np.exp(z_final)
    loglik, beta = prof.evaluate(variances[:q], float(variances[q]))
    labels = candidate.variance_labels() + ("sigma2",)
    # On a collapsed-variance ridge the simplex can stall a hair above
    # the clamp, so treat anything within 10% of the floor as pinned.
    boundary = tuple(
        label
        for label, z in zip(labels, best_z)
        if z <= log_floor + 0.1
    )
    theta = ParameterVector(beta=beta, omega2=variances[:q], sigma2=float(variances[q]))
    return FittedModel(
        candidate=candidate,
        theta_hat=theta,
        loglik=float(loglik),
        converged=converged,
        boundary=boundary,
        designs=prof.designs,
        n_obs=prof.n_obs,
        n_subjects=prof.n_subjects,
    )
