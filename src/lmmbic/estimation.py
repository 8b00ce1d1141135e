"""Maximum-likelihood fitting of one candidate structure.

Write the marginal covariance of subject i as

    V_i = sigma2 * (I + Z_i Theta Z_i'),   Theta = diag(theta),

with theta = omega2 / sigma2 the relative variances.  At fixed theta
the likelihood is maximized in closed form by the generalized-least-
squares mean coefficients and the residual variance

    beta_hat  = (sum_i X_i' Vt_i^-1 X_i)^-1  sum_i X_i' Vt_i^-1 y_i,
    rss       = sum_i (y_i - X_i beta_hat)' Vt_i^-1 (y_i - X_i beta_hat),
    sigma2_hat = rss / n,                     Vt_i = I + Z_i Theta Z_i',

as in the lme4 profiled deviance (Bates, Maechler, Bolker & Walker
2015, JSS 67(1)).  The numerical search therefore runs only over theta,
a space of dimension q <= 3, and the profiled objective has an exact
gradient (see ProfiledLikelihood.profile) that a small projected BFGS
uses (fit_ml).

Each evaluation would naively refactor every n_i x n_i block.  Instead,
each distinct observation grid gets an orthonormal basis [Q Q_perp],
with Q from a QR factorization of O4M4's Z = [1, x, x^2] (k = min(n_i, 3)
columns), so that any candidate's Z is Q R with R k x q, and

    Vt_i^-1 = Q K Q' + (I - Q Q'),   K = Ct^-1,   Ct = I_k + R Theta R',
    log det Vt_i = log det Ct,

so the evaluation needs only the k x k capacitance matrix Ct and
cross-products of the rotated data: Q'X_i and Q'y_i along Z, and the
components orthogonal to Z, which enter as plain sums.  Both parts of
X' Vt^-1 X are positive semi-definite, so nothing cancels as the
relative variances grow.  Subjects that share a grid share Q and R, so
their cross-products collapse into one group tensor per distinct grid.

All sixteen candidates are O4M4 with some terms removed, so these
statistics are built once per dataset (dataset_statistics), for O4M4's
full design, and each candidate reads them whole.  Its mean columns are
a mask on O4M4's, and its R is its columns of O4M4's R, so a random
effect the candidate lacks has no column in Ct = I_3 + R Theta R': the
candidate is O4M4 with that variance held at zero, as the lme4
profiled deviance treats a term at its boundary.  The G group tensors
are stacked (Q and R zero-padded to 3 axes on a grid of fewer than 3
points, which adds 1 to Ct's diagonal and nothing else), and each
evaluation is a fixed number of batched numpy calls whose arithmetic
is linear in G:
with one shared grid the cost does not grow with the number of
subjects, and on unbalanced data, where every subject may have its own
grid, it does not pay a Python loop over the grids.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .candidates import CandidateModel, design_columns, full_design
from .data import Dataset, SubjectBlock
from .model import LN_TWO_PI, ParameterVector

# The lower bound of the profiled sigma2: on data the mean fits exactly
# sigma2_hat sits on it and is listed as boundary.  Relative variances
# have their own bound at exactly zero (see _ZERO_SHIFT).
VARIANCE_FLOOR = 1e-12
# KKT tolerance: a fit converged when its projected gradient on the
# search scale is at most _KKT_TOLERANCE * (1 + |loglik|).
_KKT_TOLERANCE = 1e-8
# Quasi-Newton iteration cap of each search.
_MAX_ITERATIONS = 2000
# Every candidate's search starts at theta_j = _START for each random effect.
_START = 0.5

# fit_ml searches w_j = log(theta_j s_j^2 + _ZERO_SHIFT), where s_j^2 is
# the mean square of Z's column j: theta_j s_j^2 = 1 puts a random effect's
# share of the variance on a par with the noise, and the shift makes the
# scale linear below about _ZERO_SHIFT and puts theta_j = 0 at a finite
# bound.  _LOG_CEILING is the overflow guard above.
_ZERO_SHIFT = 1e-2
_LOG_CEILING = 50.0
# Max-norm cap on one quasi-Newton step in w: an uncapped first step can
# land far out where the objective is flat.
_MAX_STEP = 2.0
# Backtracking halvings before the line search gives up.
_LINE_SEARCH_STEPS = 30
# Relative size of the rounding in the objective: near an optimum, changes
# in f smaller than this carry no information.
_F_ROUNDING = 1e-12
# rss is a difference of sums over the n observations, each term at most
# y'y, so its rounding grows like sqrt(n) eps y'y (on data the mean fits
# exactly it reached 16 eps y'y at n = 24 and 171 eps y'y at n = 10^4).
# An rss below _RSS_ROUNDING sqrt(n) y'y is taken as zero: the mean fits
# the data exactly.
_RSS_ROUNDING = 8.0 * float(np.finfo(float).eps)
_EYE3 = np.eye(3)


class UnidentifiableModelError(ValueError):
    """The candidate's mean structure is not estimable from the data."""


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Result of fit_ml.

    converged is the KKT check at the reported point (see fit_ml).
    boundary lists the omega* labels whose estimate is exactly zero, and
    sigma2 when it sits on VARIANCE_FLOOR; such solutions are reported
    rather than rejected.
    """

    candidate: CandidateModel
    theta_hat: ParameterVector
    loglik: float
    converged: bool
    boundary: tuple[str, ...]
    data: Dataset
    n_obs: int
    n_subjects: int


class DatasetStatistics:
    """Everything the fits of all sixteen candidates need from one dataset.

    The subjects are grouped by observation grid once.  Per distinct
    grid g, with O4M4's Z = [1, x, x^2] = Q R (Q and R zero-padded to 3
    axes when the grid has fewer than 3 points) and the sums running
    over the grid's subjects:

        R[g]                                          (G, 3, 3)
        cross_xx[g] = sum Q'X_i (x) Q'X_i, capacitance axes first,
                                                      (G, 3, 3, 5, 5),
        cross_xy[g], cross_yy[g] likewise             (G, 3, 3, 5), (G, 3, 3),
        counts[g], the grid's number of subjects      (G,)

    plus the sums over all subjects of the components orthogonal to Z:
    perp_xx, perp_xy and perp_yy.  X has O4M4's five mean columns.  xtx
    is O4M4's plain X'X and yty is y'y.  grids holds, per grid length n,
    O4M4's Z of every grid of that length, stacked (g_n, n, 3), and
    those grids' subject counts.  optima holds each candidate's optimum
    once it has been searched (_optimum); no entry refers to the data.
    """

    def __init__(self, data: Dataset):
        by_grid: dict[bytes, list[SubjectBlock]] = {}
        for block in data.subjects:
            by_grid.setdefault(block.x.tobytes(), []).append(block)

        self.n_obs = data.n_obs
        self.n_subjects = data.n_subjects
        self.optima: dict[CandidateModel, tuple[np.ndarray, float, bool]] = {}
        self.constant_covariate = np.unique(data.subject_covariates()).size < 2
        self.xtx = np.zeros((5, 5))
        self.yty = 0.0
        self.perp_xx = np.zeros((5, 5))
        self.perp_xy = np.zeros(5)
        self.perp_yy = 0.0
        rs, cross_xx, cross_xy, cross_yy = [], [], [], []
        by_length: dict[int, tuple[list[np.ndarray], list[int]]] = {}
        for subjects in by_grid.values():
            Xs, Z = full_design(subjects[0].x, [b.c for b in subjects])  # (n, m, 5), (n, 3)
            Ys = np.stack([b.y for b in subjects], axis=1)                # (n, m)
            X = Xs.reshape(-1, 5)
            self.xtx += X.T @ X
            self.yty += float((Ys * Ys).sum())
            n, m = Ys.shape
            flat_x = Xs.reshape(n, m * 5)
            # a grid with n < 3 points has k = n; zero-padding Q and R to 3
            # axes leaves Ct = 1 on the padded axes, which adds nothing
            Q_thin, R_thin = np.linalg.qr(Z)                             # (n, k), (k, 3)
            k = R_thin.shape[0]
            Q = np.zeros((n, 3))
            Q[:, :k] = Q_thin
            R = np.zeros((3, 3))
            R[:k] = R_thin
            QtX = Q.T @ flat_x                                           # (3, m*5)
            Qty = Q.T @ Ys                                               # (3, m)
            perp_x = (flat_x - Q @ QtX).reshape(n * m, 5)
            perp_y = (Ys - Q @ Qty).reshape(n * m)
            self.perp_xx += perp_x.T @ perp_x
            self.perp_xy += perp_x.T @ perp_y
            self.perp_yy += float(perp_y @ perp_y)
            rs.append(R)
            # sums over the group's subjects of Q'X_i (x) Q'X_i etc., with
            # the two capacitance axes in front
            along = QtX.reshape(3, m, 5).transpose(1, 0, 2).reshape(m, 15)
            cross_xx.append((along.T @ along).reshape(3, 5, 3, 5).transpose(0, 2, 1, 3))
            cross_xy.append((along.T @ Qty.T).reshape(3, 5, 3).transpose(0, 2, 1))
            cross_yy.append(Qty @ Qty.T)
            same_length, grid_counts = by_length.setdefault(n, ([], []))
            same_length.append(Z)
            grid_counts.append(m)
        self.counts = np.array([len(subjects) for subjects in by_grid.values()], dtype=float)
        self.R = np.stack(rs)
        self.cross_xx = np.stack(cross_xx)
        self.cross_xy = np.stack(cross_xy)
        self.cross_yy = np.stack(cross_yy)
        self.grids = tuple(
            (np.stack(same_length), np.array(grid_counts, dtype=float))
            for same_length, grid_counts in by_length.values()
        )


# A Dataset is frozen and its arrays are read-only, so its statistics
# never go stale; they live exactly as long as the dataset does.
_STATISTICS: weakref.WeakKeyDictionary[Dataset, DatasetStatistics] = weakref.WeakKeyDictionary()


def dataset_statistics(data: Dataset) -> DatasetStatistics:
    """The dataset's O4M4 statistics, built on first use per dataset."""
    stats = _STATISTICS.get(data)
    if stats is None:
        stats = _STATISTICS[data] = DatasetStatistics(data)
    return stats


class ProfiledLikelihood:
    """Callable core of the fit: likelihood with beta profiled out.

    Construction slices the candidate's statistics out of the dataset's
    (dataset_statistics), which are built once per dataset for all
    candidates.  Both evaluate() and profile() then run one core that
    makes the same fixed number of numpy calls for any number G of
    distinct observation grids, with arithmetic linear in G: one batched
    Cholesky factorization and one batched inverse of the G capacitance
    matrices Ct = I + R Theta R', and one matrix-vector product per term
    of the GLS normal equations.
    """

    def __init__(self, candidate: CandidateModel, data: Dataset):
        stats = dataset_statistics(data)
        if (candidate.alpha1_free or candidate.alpha2_free) and stats.constant_covariate:
            raise UnidentifiableModelError(
                f"candidate {candidate.id} has a covariate-by-x term but "
                "the subject covariate takes a single value"
            )
        mean, random = design_columns(candidate)
        p, q = mean.size, random.size
        if np.linalg.matrix_rank(stats.xtx[np.ix_(mean, mean)], hermitian=True) < p:
            raise UnidentifiableModelError(
                f"mean design for candidate {candidate.id} is rank deficient"
            )
        self.candidate = candidate
        self.p = p
        self.q = q
        self.n_obs = stats.n_obs
        self.n_subjects = stats.n_subjects
        self._R = stats.R[:, :, random]                # (G, 3, q): Z = Q R per grid
        # (G*3*3, q): Ct = I + rr @ theta, the outer products of R's columns
        self._rr = (self._R[:, :, None, :] * self._R[:, None, :, :]).reshape(-1, q)
        self._counts = stats.counts                    # (G,)
        self._cross_xx = stats.cross_xx[..., mean[:, None], mean].reshape(-1, p * p)
        self._cross_xy = stats.cross_xy[..., mean].reshape(-1, p)
        self._cross_yy = stats.cross_yy.reshape(-1)
        self._perp_xx = stats.perp_xx[np.ix_(mean, mean)]
        self._perp_xy = stats.perp_xy[mean]
        self._perp_yy = stats.perp_yy
        self._rss_rounding = _RSS_ROUNDING * math.sqrt(self.n_obs) * stats.yty
        # mean square of each Z column over all observations: sum_g m_g R_g'R_g
        self.z_scale2 = self._counts @ (self._R ** 2).sum(axis=1) / self.n_obs

    def _solve(self, theta: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray]:
        """Core at relative variances theta.

        Returns sum_i log det Vt_i, the GLS residual sum of squares rss
        in the Vt^-1 metric, beta_hat, and the stacked K = Ct^-1.  An
        rss within its rounding (_RSS_ROUNDING) is returned as exactly 0.
        """
        p = self.p
        C = (self._rr @ theta).reshape(-1, 3, 3)
        C += _EYE3
        L = np.linalg.cholesky(C)
        log_diag = np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        logdet = 2.0 * float(self._counts @ log_diag)
        K = np.linalg.inv(C)
        kernel = K.reshape(-1)
        A = self._perp_xx + (kernel @ self._cross_xx).reshape(p, p)
        b = self._perp_xy + kernel @ self._cross_xy
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise UnidentifiableModelError(
                f"normal matrix for candidate {self.candidate.id} is singular"
            ) from None
        beta = np.linalg.solve(A, b)
        rss = self._perp_yy + float(kernel @ self._cross_yy) - float(b @ beta)
        if rss <= self._rss_rounding:
            rss = 0.0
        return logdet, rss, beta, K

    def evaluate(self, omega2: np.ndarray, sigma2: float) -> tuple[float, np.ndarray]:
        """Profiled log-likelihood and the GLS beta at these variances.

        Raises:
            numpy.linalg.LinAlgError: capacitance factorization broke
                down for some grid (numerically invalid variances).
            UnidentifiableModelError: the GLS normal matrix is singular.
        """
        logdet, rss, beta, _ = self._solve(np.asarray(omega2, dtype=float) / sigma2)
        loglik = -0.5 * (self.n_obs * (LN_TWO_PI + math.log(sigma2)) + logdet + rss / sigma2)
        return loglik, beta

    def profile(self, theta: np.ndarray) -> tuple[float, np.ndarray, float]:
        """Negative log-likelihood with beta and sigma2 profiled out.

        At relative variances theta = omega2 / sigma2 the likelihood is
        maximized by sigma2_hat = max(rss / n, VARIANCE_FLOOR).  Returns
        f = -loglik at (theta * sigma2_hat, sigma2_hat), its exact
        gradient in theta, and sigma2_hat.  With r_j the j-th column of
        a grid's R, K = Ct^-1 and S = sum_i u_i u_i' over the grid's
        subjects, u_i = Q'(y_i - X_i beta_hat),

            d log det Vt / d theta_j = sum_g m_g r_j' K_g r_j,
            d rss / d theta_j        = -sum_g r_j' K_g S_g K_g r_j,

        (beta_hat is stationary, and sigma2_hat stationary or held at the
        floor, so neither adds a term), and df/dtheta_j = (d log det +
        d rss / sigma2_hat) / 2.  S comes from the same cross-product
        tensors as the normal equations.  Where the mean fits the data
        exactly, rss is zero (see _solve) and so is its gradient term:
        S is then rounding, which sigma2_hat on the floor would magnify.

        Raises the same errors as evaluate().
        """
        logdet, rss, beta, K = self._solve(theta)
        n = self.n_obs
        sigma2 = max(rss / n, VARIANCE_FLOOR)
        value = 0.5 * (n * (LN_TWO_PI + math.log(sigma2)) + logdet + rss / sigma2)
        W = K @ self._R                                # columns K_g r_j
        d_logdet = self._counts @ (self._R * W).sum(axis=1)
        if rss == 0.0:
            return value, 0.5 * d_logdet, sigma2
        # S up to an antisymmetric part, which the quadratic forms w'Sw
        # below do not see: sum_i Q'y Q'y' - 2 Q'X beta Q'y' + Q'X beta beta'X'Q
        S = (
            self._cross_yy
            - 2.0 * (self._cross_xy @ beta)
            + self._cross_xx @ np.outer(beta, beta).reshape(-1)
        ).reshape(-1, 3, 3)
        d_rss = -((S @ W) * W).sum(axis=(0, 1))
        return value, 0.5 * (d_logdet + d_rss / sigma2), sigma2


def _minimize_box(
    fun,
    z0: np.ndarray,
    lower: float,
    upper: float,
    max_iterations: int,
    rel_tol: float,
) -> tuple[np.ndarray, float, np.ndarray, bool, int]:
    """Minimize fun over the box [lower, upper]^d by projected BFGS.

    fun(z) returns the value and its gradient.  Each iteration takes a
    quasi-Newton step on the coordinates not held at a bound, capped at
    _MAX_STEP in max-norm, and halves it along the projected path until
    the Armijo condition holds.  When the held set changes, the inverse
    Hessian restarts from the scaled identity.  converged is the KKT
    check at the returned point: the projected gradient is at most
    rel_tol * (1 + |f|) in max-norm.  Returns (z, f, gradient,
    converged, iterations taken); a start where f is not finite returns
    at once, unconverged.
    """

    def kkt(z: np.ndarray, f: float, g: np.ndarray) -> bool:
        projected = z - np.clip(z - g, lower, upper)
        return float(np.max(np.abs(projected))) <= rel_tol * (1.0 + abs(f))

    z = np.clip(z0, lower, upper)
    f, g = fun(z)
    if not math.isfinite(f):
        return z, f, g, False, 0
    eye = np.eye(z.size)
    H = None                   # inverse Hessian; None until a step has been taken
    scale = 1.0                # s'y / y'y of the last step, the restart scale
    held = np.zeros(z.size, dtype=bool)
    for iteration in range(max_iterations):
        if kkt(z, f, g):
            return z, f, g, True, iteration
        previous, held = held, ((z <= lower) & (g > 0)) | ((z >= upper) & (g < 0))
        if H is not None and np.any(held != previous):
            # curvature learnt on another face of the box misleads here
            H = scale * eye
        g_free = np.where(held, 0.0, g)
        d = -g_free if H is None else -(H @ g_free)
        d[held] = 0.0
        if not float(d @ g_free) < 0:
            H, d = scale * eye, -scale * g_free
        d *= min(1.0, _MAX_STEP / float(np.max(np.abs(d))))
        t = 1.0
        for _ in range(_LINE_SEARCH_STEPS):
            z_new = np.clip(z + t * d, lower, upper)
            step = z_new - z
            slope = float(g @ step)
            if slope < 0:
                f_new, g_new = fun(z_new)
                # Armijo, or its exact form on a quadratic, which reads
                # the gradient where rounding has flattened f
                if f_new <= f + 1e-4 * slope or (
                    f_new <= f + _F_ROUNDING * (1.0 + abs(f))
                    and float(g_new @ step) <= (2e-4 - 1.0) * slope
                ):
                    break
            t *= 0.5
        else:
            return z, f, g, kkt(z, f, g), iteration + 1
        y = g_new - g
        sy = float(step @ y)
        yy = float(y @ y)
        if sy > 1e-12 * math.sqrt(float(step @ step) * yy):
            scale = sy / yy
            if H is None:
                H = scale * eye
            V = eye - np.outer(step, y) / sy
            H = V @ H @ V.T + np.outer(step, step) / sy
        z, f, g = z_new, f_new, g_new
    return z, f, g, kkt(z, f, g), max_iterations


def _covers(candidate: CandidateModel) -> list[CandidateModel]:
    """The candidates with exactly one term fewer; for O4M4: O4M2, O4M3, O2M4, O3M4."""
    fewer = {1: (), 2: (1,), 3: (1,), 4: (2, 3)}
    return [CandidateModel(m=m, o=candidate.o) for m in fewer[candidate.m]] + [
        CandidateModel(m=candidate.m, o=o) for o in fewer[candidate.o]
    ]


def _optimum(candidate: CandidateModel, data: Dataset) -> tuple[np.ndarray, float, bool]:
    """The candidate's optimum, memoised beside the dataset's statistics.

    Returns theta over O4M4's three random effects (zero where the
    candidate has none), f = -loglik there and the KKT flag.  A cover
    (_covers) is this candidate with a variance or a mean coefficient
    held at zero, so its optimum is a feasible point here: where the best
    one is lower than the search from _START by more than rounding, the
    search restarts from it.
    """
    optima = dataset_statistics(data).optima
    if candidate in optima:
        return optima[candidate]
    prof = ProfiledLikelihood(candidate, data)
    _, random = design_columns(candidate)
    lower = math.log(_ZERO_SHIFT)

    def relative_variances(w: np.ndarray) -> np.ndarray:
        # the lower bound is theta_j = 0 exactly, not exp(lower) - _ZERO_SHIFT
        return np.where(w > lower, np.exp(w) - _ZERO_SHIFT, 0.0) / prof.z_scale2

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        # rank deficiency is rejected at construction, so a breakdown
        # here means the variances are numerically extreme, not that
        # the model is unidentifiable: price the point out instead
        try:
            f, g, _ = prof.profile(relative_variances(w))
        except (np.linalg.LinAlgError, UnidentifiableModelError):
            return math.inf, np.zeros(prof.q)
        return f, g * np.exp(w) / prof.z_scale2

    def search(theta: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, bool, int]:
        w0 = np.log(theta * prof.z_scale2 + _ZERO_SHIFT)
        return _minimize_box(objective, w0, lower, _LOG_CEILING, _MAX_ITERATIONS, _KKT_TOLERANCE)

    w, f, _, converged, _ = search(np.full(prof.q, _START))
    nested = (_optimum(cover, data) for cover in _covers(candidate))
    best = min(nested, key=lambda optimum: optimum[1], default=None)
    # rounding relative to the cover's f, which is finite even where f is not
    if best is not None and best[1] < f - _F_ROUNDING * (1.0 + abs(best[1])):
        w, f, _, converged, _ = search(best[0][random])
    if not math.isfinite(f):
        raise UnidentifiableModelError(
            f"likelihood for candidate {candidate.id} could not be evaluated "
            "at any visited point"
        )
    theta = np.zeros(3)
    theta[random] = relative_variances(w)
    theta.flags.writeable = False
    optima[candidate] = theta, f, converged
    return optima[candidate]


def fit_ml(candidate: CandidateModel, data: Dataset) -> FittedModel:
    """Fit one candidate by maximum likelihood.

    beta and sigma2 are profiled out (ProfiledLikelihood.profile), and
    a projected BFGS with the exact gradient searches the relative
    variances on the scale w_j = log(theta_j s_j^2 + _ZERO_SHIFT), with
    s_j^2 the mean square of Z's column j.  That scale is logarithmic for
    variances well above zero and linear near zero, and its lower bound
    w_j = log(_ZERO_SHIFT) is theta_j = 0, so a variance whose maximum is
    at zero gets there in a few steps, and one near zero whose likelihood
    rises with it is not hidden by a vanishing log-scale gradient.  The
    search starts from _START, and once more from the best optimum of
    the candidates with one term fewer where that is lower (_optimum),
    so the candidates below this one are fitted too, once per dataset,
    and no candidate's maximum lies below one it nests.  converged is the
    KKT check at the returned point (see _minimize_box), to
    _KKT_TOLERANCE: a search that exhausts _MAX_ITERATIONS or stalls is
    returned with converged=False rather than raised.  The log-likelihood
    and beta are those at the point found, zero variances included, and
    `boundary` lists those zeros.

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
    theta, _, converged = _optimum(candidate, data)
    theta = theta[design_columns(candidate)[1]]
    _, _, sigma2 = prof.profile(theta)
    omega2 = theta * sigma2
    loglik, beta = prof.evaluate(omega2, sigma2)
    boundary = tuple(label for label, v in zip(candidate.variance_labels(), omega2) if v == 0.0)
    if sigma2 <= VARIANCE_FLOOR:
        boundary += ("sigma2",)
    return FittedModel(
        candidate=candidate,
        theta_hat=ParameterVector(beta=beta, omega2=omega2, sigma2=sigma2),
        loglik=float(loglik),
        converged=converged,
        boundary=boundary,
        data=data,
        n_obs=prof.n_obs,
        n_subjects=prof.n_subjects,
    )
