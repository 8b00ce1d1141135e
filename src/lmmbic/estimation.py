"""Maximum-likelihood fitting of the sixteen candidate structures.

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
gradient and Hessian (see _profile): a small projected Newton search
(_minimize_box; Lindstrom & Bates 1988, JASA 83) fits a dataset's
sixteen candidates in about 8.5 rounds (90th percentile 11).

Each evaluation would naively refactor every n_i x n_i block.  Instead,
each distinct observation grid gets an orthonormal basis [Q Q_perp],
with Q from a QR factorization of O4M4's Z = [1, x, x^2] (k = min(n_i, 3)
columns), so that any candidate's Z is Q R with R k x q, and

    Vt_i^-1 = Q K Q' + (I - Q Q'),   K = Ct^-1,   Ct = I_k + R Theta R',
    log det Vt_i = log det Ct,

so the evaluation needs only the k x k capacitance matrix Ct and
cross-products of the rotated data.  Every mean column of O4M4, 1, x,
x^2, c x and c x^2, lies in the span of Z, so X has no component
orthogonal to Z: Q'X_i = [R, c_i R[:, 1:]] follows from the grid's R and
the subject's covariate alone, and only y's orthogonal component enters,
as a plain sum of squares.  Subjects that share a grid share Q and R, so
their cross-products collapse into one group tensor per distinct grid,
built from R, the subjects' Q'y_i and their covariate moments.

All sixteen candidates are O4M4 with some terms removed, so these
statistics are built once per family search (DatasetStatistics), for
O4M4's full design, and one core (_solve, _profile) evaluates B
candidates at once: theta (B, 3) is over O4M4's random effects, zero on
those a candidate lacks, as the lme4 profiled deviance treats a term at
its boundary, and a mean column it lacks gets 1 on the normal matrix's
diagonal and 0 on its right-hand side.  The G group tensors are stacked
(Q and R zero-padded to 3 axes on a grid of fewer than 3 points, which
adds 1 to Ct's diagonal and nothing else), and each evaluation is a
fixed number of batched numpy calls whose arithmetic is linear in B G:
with one shared grid the cost does not grow with the number of
subjects, and on unbalanced data, where every subject may have its own
grid, it does not pay a Python loop over the grids.  The sixteen
searches run in lockstep on a dataset's first fit (_search_family),
which rejects candidates once per parameter count and mean structure
and calls the core on the whole stack: the fit path constructs no
ProfiledLikelihood.

The same capacitances give the effective sample size n_e = sum_i
1' R_i^-1 1 of every optimum (Faes, Molenberghs, Aerts, Verbeke &
Kenward 2009, Am. Stat. 63(4)), which the family search computes for all
sixteen in one call (_effective_sizes).  Neither the full matrix nor a
subject's correlation matrix R_i is formed: with a grid's basis Q and
capacitance Ct = I + D = L L', D = R Theta R', s the square roots of
Vt's diagonal 1 + diag(Q D Q') and a = Q's, R_i^-1 = diag(s) Vt^-1
diag(s) and the Woodbury identity give

    1' R_i^-1 1 = ||s - Q a||^2 + a' Ct^-1 a
                = (n_i - ||Q'1||^2) + (||s - Q a||^2 + ||L^-1 a||^2).

The first term is zero in exact arithmetic (the intercept puts 1 in
Q's span); it makes two cases exact by construction.  Without random
effects D = 0, so s = 1, a = Q'1, L = I, and ||s - Q a||^2 is below
half an ulp of ||Q'1||^2, which is within a factor 2 of n_i:
n_i - ||Q'1||^2 is exact and adding ||Q'1||^2 back gives n_i.  On a
one-point grid Q = [1, 0, 0], s = Q a, s^2 = 1 + D_00 = Ct_00 and L is
diagonal, so L^-1 a = s / sqrt(Ct_00) = 1 by division: the sum is 1.
The second term's two parts are non-negative, so nothing cancels.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .candidates import MEAN_FACTOR, MEAN_Z, CandidateModel, enumerate_candidates
from .data import Dataset, _readonly
from .model import LN_TWO_PI, ParameterVector

# KKT tolerance: a fit converged when its projected gradient on the
# search scale is at most _KKT_TOLERANCE * f_scale, the -loglik of n
# unit-variance observations (DatasetStatistics.f_scale), which no unit
# of y moves.
_KKT_TOLERANCE = 1e-8
# Newton iteration cap of each search.
_MAX_ITERATIONS = 2000
# Every candidate's search starts at theta_j = _START for each random effect,
# or at theta_j s_j^2 = _START_CEILING where that is lower (s_j^2 as below):
# far above it, Ct = I + theta R R' rounds by more than f's differences show,
# and a search that starts there stalls, as one from _START does with x in
# large units.
_START = 0.5
_START_CEILING = 1e4

# fit_ml searches w_j = log(theta_j s_j^2 + _ZERO_SHIFT), where s_j^2 is
# the mean square of Z's column j: theta_j s_j^2 = 1 puts a random effect's
# share of the variance on a par with the noise, and the shift makes the
# scale linear below about _ZERO_SHIFT and puts theta_j = 0 at a finite
# bound.  Where f rises about linearly in theta_j, a Newton step above
# the shift moves w_j by about one unit, so a variance whose maximum is
# zero needs about log(theta_j s_j^2 / _ZERO_SHIFT) steps to reach its
# bound.  _LOG_CEILING is the overflow guard above.
_ZERO_SHIFT = 0.1
_LOWER = math.log(_ZERO_SHIFT)
_LOG_CEILING = 50.0
# Max-norm cap on one Newton step in w: an uncapped step from where the
# objective is far from quadratic can land far out where it is flat.  The
# study designs' start is 9.5 units above the x^2 variance's bound.
_MAX_STEP = 4.0
# Backtracking halvings before the line search gives up.
_LINE_SEARCH_STEPS = 30
# Restart margin relative to f_scale: a cover whose optimum is lower by
# no more than _F_ROUNDING * f_scale is no better than the candidate's own.
_F_ROUNDING = 1e-12
# rss is a difference of sums over the n observations, each term at most the
# centred y'y, so its rounding grows like sqrt(n) eps y'y (on data the mean
# fits exactly it reached 16 eps y'y at n = 24 and 171 eps y'y at n = 10^4). An
# rss below _RSS_ROUNDING sqrt(n) y'y is taken as zero: the mean fits the data
# exactly, and sigma2_hat is held at that rounding over n.
_RSS_ROUNDING = 8.0 * float(np.finfo(float).eps)
_EYE3 = np.eye(3)
_EYE5 = np.eye(5)


class UnidentifiableModelError(ValueError):
    """The candidate's mean structure is not estimable from the data."""


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Result of fit_ml.

    converged is the KKT check where the search stopped (see fit_ml), to
    a tolerance no unit of y moves.
    boundary lists the omega* labels whose estimate is exactly zero, and
    sigma2 when the mean fits the data exactly, rss within its rounding,
    where sigma2_hat is on its floor, DatasetStatistics.sigma2_floor;
    such solutions are reported rather than rejected.  n_effective is
    the effective sample size sum_i 1' R_i^-1 1 at theta_hat's
    variances (_effective_sizes).  iterations counts the Newton steps
    and evaluations the likelihood evaluations of the candidate's
    searches, and restarted says whether its optimum came from the
    restart at the optimum of a candidate it nests.  A fit holds no
    reference to its dataset.
    """

    candidate: CandidateModel
    theta_hat: ParameterVector
    loglik: float
    converged: bool
    boundary: tuple[str, ...]
    n_obs: int
    n_subjects: int
    n_effective: float
    iterations: int = 0
    evaluations: int = 0
    restarted: bool = False


def effective_sample_size(fit: FittedModel) -> float:
    """sum_i 1' R_i^-1 1 over the fit's subjects: its n_effective.

    model.correlation_structure is the dense reference, one subject's
    R_i at a time.
    """
    return fit.n_effective


class DatasetStatistics:
    """Everything the fits of all sixteen candidates need from one dataset.

    Subjects are grouped by observation grid as the dataset's grids give
    them, grids in order of first appearance and subjects in dataset
    order, and a grid's responses are read from y as one (m, n) array.
    y is centred on its mean y_mean, which every intercept absorbs, and
    c on its mean c_mean, which mu1 and mu2 absorb in candidates with
    alpha terms (restore_origins), so that rss and the search's
    derivatives are not differences of terms the size of either origin.
    Per distinct grid g, with O4M4's Z = [1, x, x^2] = Q R (Q and R
    zero-padded to 3 axes when the grid has fewer than 3 points), X has
    no component orthogonal to Z: subject i's Q'X_i = E diag(w_i), with
    E = R[:, MEAN_Z] (3, 5), w_i = (1, c_i)[MEAN_FACTOR] =
    (1, 1, 1, c_i, c_i) and c_i centred.  So, with the sums running over
    the grid's subjects and capacitance axes first,

        R[g]                                                  (G, 3, 3)
        cross_xx[g][a, b, p, q] = E[a, p] E[b, q] sum w_ip w_iq (G, 3, 3, 5, 5)
        cross_xy[g][a, b, p] = E[a, p] sum w_ip (Q'y_i)[b]    (G, 3, 3, 5)
        cross_yy[g] = sum Q'y_i (Q'y_i)'                      (G, 3, 3)
        counts[g], the grid's number of subjects              (G,)

    with the cross tensors kept flat, (G*9, 25), (G*9, 5) and (G*9,), and
    rr (3, G*9) the outer products of R's columns: Ct = I + theta @ rr.
    Only y has a component orthogonal to Z; perp_yy is its sum of squares
    over all subjects.  xtx = sum_g sum_a cross_xx[g][a, a] is O4M4's
    plain X'X and yty is y'y, both centred; constant_covariate and
    constant_response say whether the raw c and y take a single value;
    z_scale2 is the mean square of each Z column; f_scale = 1 + n (1 +
    ln 2 pi) / 2, the -loglik of n unit-variance observations, is the
    search's unit-free scale of f.  An rss within rss_rounding =
    _RSS_ROUNDING sqrt(n) y'y is zero, and sigma2_floor = rss_rounding /
    n is sigma2_hat's floor.  point_q (P, 3) stacks the rows of every
    grid's Q, grid after grid in the order of R, and grid_sizes (G,)
    their number of points.
    """

    # an overflowing X'X is rejected with a clear message by _identifiability
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, data: Dataset):
        self.n_obs = data.n_obs
        self.n_subjects = data.n_subjects
        self.constant_covariate = bool(data.c.min() == data.c.max())
        self.constant_response = bool(data.y.min() == data.y.max())
        self.y_mean = float(data.y.mean())
        self.c_mean = float(data.c.mean())
        self.yty = 0.0
        self.perp_yy = 0.0
        rs, qs, moments, cross_ty, cross_yy = [], [], [], [], []
        for x, members in data.grids:
            n = x.size
            Ys = data.y[data.bounds[members][:, None] + np.arange(n)].T - self.y_mean  # (n, m)
            self.yty += float((Ys * Ys).sum())
            # a grid with n < 3 points has k = n; zero-padding Q and R to 3
            # axes leaves Ct = 1 on the padded axes, which adds nothing
            Q_thin, R_thin = np.linalg.qr(np.column_stack([np.ones(n), x, x * x]))
            k = R_thin.shape[0]
            Q = np.zeros((n, 3))
            Q[:, :k] = Q_thin
            R = np.zeros((3, 3))
            R[:k] = R_thin
            Qty = Q.T @ Ys                                               # (3, m)
            perp_y = Ys - Q @ Qty
            self.perp_yy += float((perp_y * perp_y).sum())
            rs.append(R)
            qs.append(Q)
            # w_i repeats 1 and c_i (see MEAN_FACTOR), so the grid's sums need only those
            one_c = np.stack([np.ones(len(members)), data.c[members] - self.c_mean])
            moments.append(one_c @ one_c.T)
            cross_ty.append(one_c @ Qty.T)
            cross_yy.append(Qty @ Qty.T)
        self.counts = np.array([len(members) for _, members in data.grids], dtype=float)
        self.R = np.stack(rs)
        E = self.R.take(MEAN_Z, axis=2)                                  # (G, 3, 5)
        w2 = np.stack(moments)[:, MEAN_FACTOR][:, :, MEAN_FACTOR]        # sum w_i w_i'
        wy = np.stack(cross_ty)[:, MEAN_FACTOR]                          # sum w_i (Q'y_i)'
        cross_xx = E[:, :, None, :, None] * E[:, None, :, None, :] * w2[:, None, None]
        self.xtx = np.einsum("gaapq->pq", cross_xx)
        self.cross_xx = cross_xx.reshape(-1, 25)
        self.cross_xy = (E[:, :, None, :] * wy.transpose(0, 2, 1)[:, None]).reshape(-1, 5)
        self.cross_yy = np.stack(cross_yy).reshape(-1)
        self.rr = (self.R[:, :, None, :] * self.R[:, None, :, :]).reshape(-1, 3).T.copy()
        self.rss_rounding = _RSS_ROUNDING * math.sqrt(self.n_obs) * self.yty
        self.sigma2_floor = self.rss_rounding / self.n_obs
        self.f_scale = 1.0 + 0.5 * self.n_obs * (1.0 + LN_TWO_PI)
        # sum_g m_g R_g'R_g over all observations
        self.z_scale2 = self.counts @ (self.R ** 2).sum(axis=1) / self.n_obs
        self.point_q = np.concatenate(qs)
        self.grid_sizes = np.array([len(q) for q in qs])

    def restore_origins(self, beta: np.ndarray) -> None:
        """Move a beta stack (B, 5) fitted on the centred y and c back to
        the data's origins, in place: mu0 takes y_mean, and mu1 and mu2
        the c_mean alpha that the centred alpha columns held."""
        beta[:, 0] += self.y_mean
        beta[:, 1:3] -= self.c_mean * beta[:, 3:5]


class ProfiledLikelihood:
    """One candidate's likelihood with beta profiled out.

    Construction checks that the candidate is identifiable on the data
    (_identifiability) and builds the dataset's statistics for this
    likelihood alone.  evaluate() is the one-row case of the stacked core
    (_solve) on them.  The fit path does not construct it: the family
    search (_search_family) checks identifiability once for all mean
    structures and calls the core on the whole stack.
    """

    def __init__(self, candidate: CandidateModel, data: Dataset):
        stats = DatasetStatistics(data)
        problem = _identifiability(stats)[candidate.m]
        if problem is not None:
            raise UnidentifiableModelError(problem.format(id=candidate.id))
        self.candidate = candidate
        self._stats = stats

    def evaluate(self, omega2: np.ndarray, sigma2: float) -> tuple[float, np.ndarray]:
        """Profiled log-likelihood and the GLS beta at these variances.

        Raises:
            numpy.linalg.LinAlgError: capacitance factorization broke
                down for some grid (numerically invalid variances).
            UnidentifiableModelError: the GLS normal matrix is singular.
        """
        theta = np.zeros((1, 3))
        theta[0, self.candidate.random_columns] = np.asarray(omega2, dtype=float) / sigma2
        logdet, rss, beta, _, _ = _solve(self._stats, self.candidate.mean_columns[None], theta)
        self._stats.restore_origins(beta)
        n = self._stats.n_obs
        loglik = -0.5 * (n * (LN_TWO_PI + math.log(sigma2)) + logdet[0] + rss[0] / sigma2)
        return float(loglik), beta[0, self.candidate.mean_columns]


def _solve(stats: DatasetStatistics, mean: np.ndarray, theta: np.ndarray) -> tuple:
    """The core at B candidates' relative variances theta (B, 3).

    mean (B, 5) marks each candidate's columns of O4M4's X.  Returns per
    candidate sum_i log det Vt_i, the GLS residual sum of squares rss in
    the Vt^-1 metric (0 within its rounding, _RSS_ROUNDING), beta_hat
    (B, 5), zero on absent columns, K = Ct^-1 (B, G, 3, 3) and the GLS
    normal matrix A (B, 5, 5).  Raises as ProfiledLikelihood.evaluate does.
    """
    B = theta.shape[0]
    C = (theta @ stats.rr).reshape(B, -1, 3, 3)
    C += _EYE3
    L = np.linalg.cholesky(C)
    logdet = 2.0 * (np.log(np.diagonal(L, axis1=2, axis2=3)).sum(axis=2) @ stats.counts)
    K = np.linalg.inv(C)
    kernel = K.reshape(B, -1)
    A = (kernel @ stats.cross_xx).reshape(B, 5, 5)
    A = np.where(mean[:, :, None] & mean[:, None, :], A, _EYE5)
    b = np.where(mean, kernel @ stats.cross_xy, 0.0)
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise UnidentifiableModelError("the GLS normal matrix is singular") from None
    beta = np.linalg.solve(A, b[:, :, None])[:, :, 0]
    rss = stats.perp_yy + kernel @ stats.cross_yy - (b * beta).sum(axis=1)
    rss[rss <= stats.rss_rounding] = 0.0
    return logdet, rss, beta, K, A


def _effective_sizes(stats: DatasetStatistics, theta: np.ndarray) -> np.ndarray:
    """n_e = sum_i 1' R_i^-1 1 (B,) at B candidates' relative variances
    theta (B, 3), zero where a candidate has no random effect, read off
    each grid's capacitance as the module docstring derives it."""
    B = theta.shape[0]
    D = (theta @ stats.rr).reshape(B, -1, 3, 3)
    q, sizes = stats.point_q, stats.grid_sizes
    s = np.sqrt(1.0 + np.einsum("pi,bpij,pj->bp", q, np.repeat(D, sizes, axis=1), q))
    starts = np.cumsum(sizes) - sizes
    ones, a = np.add.reduceat(q, starts), np.add.reduceat(q * s[:, :, None], starts, axis=1)
    perp = s - (q * np.repeat(a, sizes, axis=1)).sum(axis=2)
    x = np.linalg.solve(np.linalg.cholesky(D + _EYE3), a[..., None])[..., 0]  # L^-1 a, Ct = LL'
    second = np.add.reduceat(perp * perp, starts, axis=1) + (x * x).sum(axis=2)
    return ((sizes - (ones * ones).sum(axis=1)) + second) @ stats.counts


def _profile(stats: DatasetStatistics, mean: np.ndarray, theta: np.ndarray) -> tuple:
    """Negative log-likelihoods with beta and sigma2 profiled out.

    At relative variances theta = omega2 / sigma2 (B, 3) the likelihood
    is maximized by sigma2_hat = rss / n; where the mean fits the data
    exactly, rss is zero (see _solve) and sigma2_hat is held at the
    floor sigma2_floor, which scales with the centred y'y.  Returns
    per candidate f = -loglik at (theta * sigma2_hat, sigma2_hat), its
    exact gradient (B, 3) and Hessian (B, 3, 3) in theta, sigma2_hat and
    beta_hat (B, 5).  With r_j the j-th column of a grid's R, K = Ct^-1,
    w_j = K r_j, M = R'KR, N = W'SW for S = sum_i u_i u_i' over the
    grid's subjects, u_i = Q'(y_i - X_i beta_hat), and
    c_j = X' (d Vt^-1 / d theta_j) u = -sum_g sum_ab w_ja w_jb P_g[a, b]
    for P = cross_xy - cross_xx beta_hat (zero on absent mean columns),

        d log det Vt = sum_g m_g diag(M),   d2 log det Vt = -sum_g m_g M o M,
        d rss = -sum_g diag(N),             d2 rss = 2 sum_g M o N - 2 c' A^-1 c

    (beta_hat is stationary, and sigma2_hat stationary or held at the
    floor, so neither adds a term to the gradient).  f's gradient is
    (d log det + d rss / sigma2_hat) / 2 and its Hessian (d2 log det +
    d2 rss / sigma2_hat - d rss d rss' / (n sigma2_hat^2)) / 2.  S and P
    come from the same cross-product tensors as the normal equations.
    Where sigma2_hat is on the floor, rss is zero and so are its terms:
    S is then rounding, which the floor would magnify.

    Raises the same errors as _solve.
    """
    logdet, rss, beta, K, A = _solve(stats, mean, theta)
    B, n = theta.shape[0], stats.n_obs
    sigma2 = np.maximum(rss / n, stats.sigma2_floor)
    value = 0.5 * (n * (LN_TWO_PI + np.log(sigma2)) + logdet + rss / sigma2)
    W = K @ stats.R                                # columns K_g r_j
    Wt = W.transpose(0, 1, 3, 2)
    M = stats.R.transpose(0, 2, 1) @ W
    # P = sum_i Q'X_i (x) Q'(y_i - X_i beta), and S up to an antisymmetric
    # part, which the symmetric forms below do not see
    P = stats.cross_xy - (beta @ stats.cross_xx.reshape(-1, 5).T).reshape(B, -1, 5)
    S = stats.cross_yy - ((stats.cross_xy + P) @ beta[:, :, None])[:, :, 0]
    N = Wt @ S.reshape(W.shape) @ W
    ww = (Wt[..., :, None] * Wt[..., None, :]).reshape(B, -1, 3, 9)
    c = np.where(mean[:, None], -(ww @ P.reshape(B, -1, 9, 5)).sum(axis=1), 0.0)
    d_rss = -np.diagonal(N.sum(axis=1), axis1=1, axis2=2)
    MN = (M * N).sum(axis=1)
    h_rss = MN + MN.transpose(0, 2, 1) - 2.0 * c @ np.linalg.solve(A, c.transpose(0, 2, 1))
    # d rss d rss' / (n sigma2_hat) as (d rss / rss) d rss', so that y^4 is never formed
    g_rss = d_rss / sigma2[:, None]
    h_rss -= g_rss[:, :, None] / n * d_rss[:, None, :]
    fitted = (rss > 0.0)[:, None]
    grad = np.where(fitted, g_rss, 0.0)
    grad += stats.counts @ np.diagonal(M, axis1=2, axis2=3)
    hess = np.where(fitted[:, :, None], h_rss / sigma2[:, None, None], 0.0)
    hess -= (stats.counts @ (M * M).reshape(B, -1, 9)).reshape(B, 3, 3)
    return value, 0.5 * grad, 0.5 * hess, sigma2, beta


def _profile_stack(stats: DatasetStatistics, mean: np.ndarray, theta: np.ndarray) -> tuple:
    """_profile with a breakdown kept to its own rows: when the stack raises
    or an f, gradient or Hessian is not finite, each row is evaluated alone,
    and one that breaks down alone gets f = inf and zero derivatives."""
    try:
        out = _profile(stats, mean, theta)
        if all(np.isfinite(a).all() for a in out[:3]):
            return out
    except (np.linalg.LinAlgError, UnidentifiableModelError):
        pass
    if theta.shape[0] == 1:
        inf, nan = np.array([math.inf]), np.array([math.nan])
        return inf, np.zeros((1, 3)), np.zeros((1, 3, 3)), nan, np.zeros((1, 5))
    rows = [_profile_stack(stats, mean[i : i + 1], theta[i : i + 1]) for i in range(theta.shape[0])]
    return tuple(np.concatenate(column) for column in zip(*rows))


def _relative_variances(w: np.ndarray, z_scale2: np.ndarray) -> np.ndarray:
    """theta at w_j = log(theta_j s_j^2 + _ZERO_SHIFT); w_j = _LOWER is theta_j = 0 exactly."""
    return np.where(w > _LOWER, np.exp(w) - _ZERO_SHIFT, 0.0) / z_scale2


def _minimize_box(fun, z0, lower, upper, max_iterations: int, tol: float) -> tuple:
    """Minimize B functions, each over its box, by projected Newton in lockstep.

    z0 (B, d) holds the starts; lower and upper broadcast to its shape.
    fun(z, rows) returns the values (k,), gradients (k, d), Hessians
    (k, d, d) and the values' roundings (k,) of stack rows `rows` at z
    (k, d), and any further per-row outputs (k, ...) it has there; each
    round calls it once, at clip(z + t direction) for every row still
    searching, with t the step its line search settled on.
    Each row is a search of its own: an iteration takes a Newton step on
    the coordinates neither held at a bound nor boxed to a point, along
    -V |L|^-1 V'g for the eigenpairs (L, V) of their Hessian, with |L|
    floored at 1e-10 of the row's largest, so every step descends; it
    caps the step at _MAX_STEP in max-norm and halves it along the
    projected path until the Armijo condition holds, or its exact form on
    a quadratic where f rises by no more than its rounding.  f is only
    ever compared by differences, so no decision reads its size.
    converged is the KKT check at the returned point: the projected
    gradient is at most tol in max-norm.  Returns per row (z, f,
    gradient, converged, iterations, calls of fun), then the rounding and
    fun's further outputs at z; a row whose start is not finite stops
    there, unconverged, after 0 iterations; every other keeps a finite f.
    """
    B, d = z0.shape
    lower, upper = np.broadcast_to(lower, z0.shape), np.broadcast_to(upper, z0.shape)
    eye = np.eye(d)
    z = np.clip(z0, lower, upper)
    state = list(fun(z, np.arange(B)))  # f, g, h, rounding, then fun's further outputs
    f, g, h, rounding = state[:4]
    evaluations, iterations = np.ones(B, dtype=int), np.zeros(B, dtype=int)
    # stepped marks the rows that moved last round and need a new direction;
    # every other running row halves its last step
    running, stepped = np.isfinite(f), np.isfinite(f)
    direction = np.zeros((B, d))
    t, tries = np.ones(B), np.zeros(B, dtype=int)

    def kkt() -> np.ndarray:
        return np.abs(z - np.clip(z - g, lower, upper)).max(axis=1) <= tol

    def halve(rows: np.ndarray) -> np.ndarray:
        # a row out of halvings stops where it is
        if not rows.size:
            return rows
        t[rows] *= 0.5
        tries[rows] += 1
        out = tries[rows] >= _LINE_SEARCH_STEPS
        running[rows[out]] = False
        iterations[rows[out]] += 1
        return rows[~out]

    while True:
        running &= ~(stepped & (kkt() | (iterations >= max_iterations)))
        rows = np.flatnonzero(stepped & running)
        zr, gr, lo, up = z[rows], g[rows], lower[rows], upper[rows]
        held = (lo >= up) | ((zr <= lo) & (gr > 0)) | ((zr >= up) & (gr < 0))
        g_free = np.where(held, 0.0, gr)
        lam, V = np.linalg.eigh(np.where(held[:, :, None] | held[:, None, :], eye, h[rows]))
        lam = np.maximum(np.abs(lam), 1e-10 * np.abs(lam).max(axis=1, keepdims=True))
        dr = np.where(held, 0.0, -(V @ ((g_free[:, None, :] @ V)[:, 0] / lam)[:, :, None])[:, :, 0])
        direction[rows] = dr * np.minimum(1.0, _MAX_STEP / np.abs(dr).max(axis=1))[:, None]
        t[rows], tries[rows] = 1.0, 0
        # each row halves its step until its projected path descends
        rows = np.flatnonzero(running)
        while rows.size:
            step = np.clip(z + t[:, None] * direction, lower, upper)
            rows = halve(rows[~((g * (step - z)).sum(axis=1)[rows] < 0)])
        rows = np.flatnonzero(running)
        if not rows.size:
            # a row stopped by its halvings or the iteration cap has not
            # moved since its last check, so one check here covers all
            return z, f, g, np.isfinite(f) & kkt(), iterations, evaluations, *state[3:]
        zt = np.clip(z[rows] + t[rows, None] * direction[rows], lower[rows], upper[rows])
        new = fun(zt, rows)
        evaluations += running
        fr, s = f[rows], zt - z[rows]
        slope = (g[rows] * s).sum(axis=1)
        # Armijo, or its exact form on a quadratic, which reads the
        # gradient where rounding has flattened f
        flat = (new[0] <= fr + rounding[rows]) & ((new[1] * s).sum(axis=1) <= (2e-4 - 1.0) * slope)
        accept = (new[0] <= fr + 1e-4 * slope) | flat
        halve(rows[~accept])
        moved = rows[accept]
        z[moved] = zt[accept]
        for value, value_new in zip(state, new):
            value[moved] = value_new[accept]
        stepped[:] = False
        stepped[moved] = True
        iterations += stepped


# The candidate lattice, in enumeration order: each candidate's columns of
# O4M4's X (16, 5) and Z (16, 3), its parameter count, and the enumeration
# indices of its covers (CandidateModel.covers).
_CANDIDATES = tuple(enumerate_candidates())
_MEAN = _readonly([c.mean_columns for c in _CANDIDATES], dtype=bool)
_PRESENT = _readonly([c.random_columns for c in _CANDIDATES], dtype=bool)
_N_PARAMETERS = tuple(c.n_parameters for c in _CANDIDATES)
_COVERS = tuple(tuple(cover.enumeration_index for cover in c.covers()) for c in _CANDIDATES)


def _identifiability(stats: DatasetStatistics) -> dict[int, str | None]:
    """Why the candidates of each mean structure m (M1-M4) are
    unidentifiable on the data, as a message with {id} for the
    candidate's id, or None.

    A candidate's mean columns depend only on m, so each answer holds for
    all four of its variance structures.  The rank of each structure's
    X'X is numpy.linalg.matrix_rank's of X'X scaled to unit diagonal, so
    that the units of x and c do not move it, from one eigvalsh of the
    four with the absent columns zeroed, which adds only zero eigenvalues;
    an all-zero column stays zero, so it reads as rank deficient.  An X'X
    that overflows a float rejects all four structures, and so do a y
    that takes a single value and a y whose centred y'y, the scale of
    rss's rounding, is subnormal or so large that _profile's products
    overflow.
    """
    if not np.isfinite(stats.xtx).all():  # eigvalsh would raise LinAlgError
        message = "mean design for candidate {id} overflows a float; rescale x or c"
        return dict.fromkeys((1, 2, 3, 4), message)
    if stats.constant_response:
        return dict.fromkeys((1, 2, 3, 4), "response y for candidate {id} is constant")
    # _profile's largest products, N = W'SW and M o N, are about y'y (sum |rr|)^2
    size, floats = np.abs(stats.rr).sum(), np.finfo(float)
    if not floats.tiny <= stats.yty <= floats.max / size / size:
        message = "response y for candidate {id} is out of float range; rescale y"
        return dict.fromkeys((1, 2, 3, 4), message)
    masks = _MEAN[:4]
    sizes = masks.sum(axis=1)
    diagonal = np.diagonal(stats.xtx)
    root = np.sqrt(np.where(diagonal > 0.0, diagonal, 1.0))  # an all-zero column stays zero
    unit = stats.xtx / np.outer(root, root)
    s = np.abs(np.linalg.eigvalsh(np.where(masks[:, :, None] & masks[:, None, :], unit, 0.0)))
    rank = (s > s.max(axis=1, keepdims=True) * sizes[:, None] * np.finfo(float).eps).sum(axis=1)
    problems: dict[int, str | None] = dict.fromkeys((1, 2, 3, 4))
    for m in problems:
        if m > 1 and stats.constant_covariate:
            problems[m] = (
                "candidate {id} has a covariate-by-x term but "
                "the subject covariate takes a single value"
            )
        elif rank[m - 1] < sizes[m - 1]:
            problems[m] = "mean design for candidate {id} is rank deficient"
    return problems


def _search(stats: DatasetStatistics, mean: np.ndarray, present: np.ndarray, start: np.ndarray):
    """Search B candidates' maxima from start (B, 3) in one stack; mean
    (B, 5) and present (B, 3) mark their columns of O4M4's X and Z.
    Both margins of the search come from the data, so a fit takes the
    same steps in any units of y: the KKT tolerance is _KKT_TOLERANCE *
    f_scale, and f's rounding is rss's carried through n/2 ln rss,
    rss_rounding / (2 sigma2_hat), zero on the floor, where the rss term
    is exactly zero.  Returns per candidate theta, f, the KKT flag, the
    iterations, the evaluations, and sigma2_hat and beta_hat at theta."""
    scale2 = stats.z_scale2

    def objective(w: np.ndarray, rows: np.ndarray) -> tuple:
        # rank deficiency is rejected before the search, so a breakdown
        # means the variances are numerically extreme: price them out
        f, g, h, sigma2, beta = _profile_stack(stats, mean[rows], _relative_variances(w, scale2))
        rounding = np.where(sigma2 > stats.sigma2_floor, 0.5 * stats.rss_rounding / sigma2, 0.0)
        # the chain rule through theta_j = (e^w_j - _ZERO_SHIFT) / s_j^2,
        # whose first and second derivatives are both e^w_j / s_j^2
        jac = np.where(present[rows], np.exp(w) / scale2, 0.0)
        g, h = g * jac, jac[:, :, None] * h * jac[:, None, :]
        return f, g, h + _EYE3 * g[:, None, :], rounding, sigma2, beta

    w0 = np.log(start * scale2 + _ZERO_SHIFT)
    upper = np.where(present, _LOG_CEILING, _LOWER)
    w, f, _, converged, iterations, evaluations, _, sigma2, beta = _minimize_box(
        objective, w0, _LOWER, upper, _MAX_ITERATIONS, _KKT_TOLERANCE * stats.f_scale
    )
    return _relative_variances(w, scale2), f, converged, iterations, evaluations, sigma2, beta


def _search_family(stats: DatasetStatistics) -> dict[CandidateModel, FittedModel | str]:
    """Fit all sixteen candidates on the dataset whose statistics are stats.

    A candidate with no fewer parameters than the data has observations,
    or an unidentifiable mean structure, gets its error's message, in
    that order of precedence.  Every other candidate searches from
    _START, with theta_j s_j^2 at most _START_CEILING, all in one
    stack.  A cover (CandidateModel.covers) is the
    candidate with a term held at zero, so its optimum is a feasible
    point: level by level up the lattice, each candidate whose best
    cover is lower by more than rounding searches once more from there,
    each level's restarts in one stack.  Every candidate reports the
    optimum its own searches reached, and sigma2_hat and beta_hat are
    those the searches evaluated there.
    """
    problems = _identifiability(stats)
    fits: dict[CandidateModel, FittedModel | str] = {}
    ids = []  # enumeration indices of the stack's rows
    for k, candidate in enumerate(_CANDIDATES):
        if stats.n_obs <= _N_PARAMETERS[k]:
            fits[candidate] = (
                f"candidate {candidate.id} has {_N_PARAMETERS[k]} parameters "
                f"but the data has only {stats.n_obs} observations"
            )
        elif problems[candidate.m] is not None:
            fits[candidate] = problems[candidate.m].format(id=candidate.id)
        else:
            ids.append(k)
    if not ids:
        return fits
    row = {k: i for i, k in enumerate(ids)}
    mean, present = _MEAN[ids], _PRESENT[ids]
    start = np.where(present, np.minimum(_START, _START_CEILING / stats.z_scale2), 0.0)
    found = _search(stats, mean, present, start)
    theta, f, converged, iterations, evaluations, sigma2, beta = found
    restarted = np.zeros(len(ids), dtype=bool)
    # each level of the lattice above the smallest; its covers have a parameter fewer
    for size in sorted(set(_N_PARAMETERS))[1:]:
        fs = f.tolist()
        best = {
            row[k]: min((row[j] for j in _COVERS[k]), key=fs.__getitem__)
            for k in ids if _N_PARAMETERS[k] == size
        }
        rows = [i for i, j in best.items() if fs[j] < fs[i] - _F_ROUNDING * stats.f_scale]
        if rows:
            found = _search(stats, mean[rows], present[rows], theta[[best[i] for i in rows]])
            iterations[rows] += found[3]
            evaluations[rows] += found[4]
            # a restart that breaks down at its start keeps the first
            # optimum, which its cover beats: that one is not converged
            kept = np.isfinite(found[1])
            converged[rows] &= kept
            rows, found = np.array(rows)[kept], [a[kept] for a in found]
            theta[rows], f[rows], converged[rows], _, _, sigma2[rows], beta[rows] = found
            restarted[rows] = True
    stats.restore_origins(beta)
    # n_e at the variances each FittedModel holds, omega2 / sigma2
    n_e, finite = np.full(len(ids), math.nan), np.isfinite(f)
    if finite.any():
        scale = sigma2[finite, None]
        n_e[finite] = _effective_sizes(stats, theta[finite] * scale / scale)
    for i, k in enumerate(ids):
        candidate = _CANDIDATES[k]
        if not finite[i]:
            fits[candidate] = (
                f"likelihood for candidate {candidate.id} "
                "could not be evaluated at any visited point"
            )
            continue
        omega2 = theta[i, candidate.random_columns] * sigma2[i]
        boundary = tuple(label for label, v in zip(candidate.variance_labels(), omega2) if v == 0.0)
        if sigma2[i] <= stats.sigma2_floor:  # rss is zero
            boundary += ("sigma2",)
        fits[candidate] = FittedModel(
            candidate=candidate,
            theta_hat=ParameterVector(beta[i, candidate.mean_columns], omega2, sigma2[i]),
            loglik=-float(f[i]),
            converged=bool(converged[i]),
            boundary=boundary,
            n_obs=stats.n_obs,
            n_subjects=stats.n_subjects,
            n_effective=float(n_e[i]),
            iterations=int(iterations[i]),
            evaluations=int(evaluations[i]),
            restarted=bool(restarted[i]),
        )
    return fits


# A Dataset is frozen and its arrays are read-only, so its fits never go
# stale; they live exactly as long as the dataset does.
_FITS: weakref.WeakKeyDictionary[Dataset, dict] = weakref.WeakKeyDictionary()


def fit_ml(candidate: CandidateModel, data: Dataset) -> FittedModel:
    """Fit one candidate by maximum likelihood.

    The first fit on a dataset builds its statistics and fits all sixteen
    (_search_family); the fits live as long as the dataset, the
    statistics only until the search ends.  Every call returns the
    FittedModel that search built for the candidate, the same object
    each time.  beta and sigma2 are profiled out (_profile), and a
    projected Newton search with the exact gradient and Hessian
    searches the relative variances on the scale
    w_j = log(theta_j s_j^2 + _ZERO_SHIFT), with s_j^2 the mean square
    of Z's column j.  That scale is logarithmic for variances well above
    zero and linear near zero, and its lower bound w_j = log(_ZERO_SHIFT)
    is theta_j = 0, so a variance whose maximum is at zero gets there in
    a few steps, and one near zero whose likelihood rises with it is not
    hidden by a vanishing log-scale gradient.  The search starts from
    _START, with theta_j s_j^2 at most _START_CEILING, and once more
    from the best optimum of the candidates with one term fewer where
    that is lower, so no candidate's maximum lies below one it nests.
    converged is the KKT check at the point the search returned (see
    _minimize_box), to _KKT_TOLERANCE * f_scale, and the search compares
    values of f only by their differences, so a fit takes the same steps
    in any units of y: a search that exhausts _MAX_ITERATIONS or stalls
    is returned with converged=False rather than raised.  The
    log-likelihood and beta are those at the point found, zero variances
    included, and `boundary` lists those zeros.  y's origin moves only
    mu0, and c's only mu1 and mu2 (DatasetStatistics.restore_origins).

    Raises:
        UnidentifiableModelError: fewer observations than parameters, a
            rank-deficient or overflowing mean design, a constant or
            out-of-range y, an alpha term with a constant subject covariate,
            or a likelihood that could not be evaluated anywhere the search went.
    """
    fits = _FITS.get(data)
    if fits is None:
        fits = _FITS[data] = _search_family(DatasetStatistics(data))
    fit = fits[candidate]
    if isinstance(fit, str):
        raise UnidentifiableModelError(fit)
    return fit
