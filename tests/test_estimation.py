import dataclasses
import functools
import gc
import importlib.util
import math
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmmbic.candidates import (
    CandidateModel,
    TrueParameters,
    build_design,
    enumerate_candidates,
    generate_dataset,
)
import lmmbic.estimation
from lmmbic.criteria import CRITERIA, build_report, select_model, usable_reports
from lmmbic.data import Dataset, SubjectBlock
from lmmbic.estimation import (
    _LINE_SEARCH_STEPS,
    DatasetStatistics,
    ProfiledLikelihood,
    UnidentifiableModelError,
    _minimize_box,
    _profile,
    _profile_stack,
    _search,
    _solve,
    fit_ml,
)
from lmmbic.model import ParameterVector, log_likelihood
from lmmbic.rng import substream
from lmmbic.simulation import DESIGNS, SimulationDesign, draw_replicate, sample_true_parameters

from hybrid_recovery import penalty_ratio


def random_dataset(rng, n_subjects=6, min_obs=2, max_obs=7):
    subjects = []
    for i in range(n_subjects):
        n_i = int(rng.integers(min_obs, max_obs + 1))
        x = np.sort(rng.uniform(0.0, 10.0, size=n_i))
        c = rng.normal()
        y = 1.0 + 0.5 * x - 0.05 * x * x + rng.normal(size=n_i)
        subjects.append(SubjectBlock(id=f"s{i}", x=x, c=c, y=y))
    return Dataset(subjects=tuple(subjects))


def mixed_grid_dataset(grids, positive, seed):
    """Subjects on a mix of shared and singleton observation grids.

    grids lists (n_points, n_subjects) per distinct grid; positive gives
    the covariate sign of each subject in order.
    """
    rng = np.random.default_rng(seed)
    subjects = []
    for n_points, n_subjects in grids:
        x = np.sort(rng.uniform(0.0, 10.0, size=n_points))
        for _ in range(n_subjects):
            i = len(subjects)
            c = rng.uniform(0.2, 2.0) * (1.0 if positive[i] else -1.0)
            y = 1.0 + 0.5 * x - 0.05 * x * x + 0.3 * c * x + rng.normal(size=n_points)
            subjects.append(SubjectBlock(id=f"s{i}", x=x, c=c, y=y))
    return Dataset(subjects=tuple(subjects))


@st.composite
def mixed_grids(draw):
    """Layouts with at least one grid shared by several subjects and at
    least one singleton grid.  The first grid has three or more points
    and carries subjects of both covariate signs, so every candidate's
    mean design is identifiable."""
    first = (draw(st.integers(3, 6)), draw(st.integers(2, 4)))
    shared = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(2, 4)), max_size=2))
    singletons = draw(st.lists(st.tuples(st.integers(1, 6), st.just(1)), min_size=1, max_size=4))
    grids = draw(st.permutations([first] + shared + singletons))
    n_subjects = sum(m for _, m in grids)
    positive = draw(st.lists(st.booleans(), min_size=n_subjects, max_size=n_subjects))
    # the first grid's leading two subjects take opposite signs
    start = sum(m for _, m in grids[: grids.index(first)])
    positive[start], positive[start + 1] = True, False
    return grids, positive, draw(st.integers(0, 2**32 - 1))


def gls_dense(omega2, sigma2, candidate, data):
    """Reference GLS solution with explicit inverses."""
    A = 0.0
    b = 0.0
    for block in data.subjects:
        d = build_design(candidate, block)
        V = d.Z @ np.diag(omega2) @ d.Z.T + sigma2 * np.eye(block.n_obs)
        Vinv = np.linalg.inv(V)
        A = A + d.X.T @ Vinv @ d.X
        b = b + d.X.T @ Vinv @ block.y
    return np.linalg.solve(A, b)


class TestProfiledLikelihood:
    def test_matches_dense_gls_and_literal_loglik(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            cand = enumerate_candidates()[int(rng.integers(16))]
            data = random_dataset(rng)
            omega2 = rng.uniform(0.05, 1.0, size=cand.n_variance)
            sigma2 = float(rng.uniform(0.3, 2.0))
            prof = ProfiledLikelihood(cand, data)
            loglik, beta = prof.evaluate(omega2, sigma2)
            np.testing.assert_allclose(beta, gls_dense(omega2, sigma2, cand, data), rtol=1e-9)
            params = ParameterVector(beta=beta, omega2=omega2, sigma2=sigma2)
            np.testing.assert_allclose(loglik, log_likelihood(params, cand, data), rtol=1e-8)

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(mixed_grids())
    def test_mixed_grid_sharing_matches_dense(self, layout):
        # shared grids weight the stacked log-det and cross tensors by
        # their subject counts; singleton grids and n_i = 1 < q ride along
        data = mixed_grid_dataset(*layout)
        rng = np.random.default_rng(layout[2])
        for cand in enumerate_candidates():
            omega2 = rng.uniform(0.05, 1.0, size=cand.n_variance)
            sigma2 = float(rng.uniform(0.3, 2.0))
            loglik, beta = ProfiledLikelihood(cand, data).evaluate(omega2, sigma2)
            np.testing.assert_allclose(beta, gls_dense(omega2, sigma2, cand, data), rtol=1e-9)
            params = ParameterVector(beta=beta, omega2=omega2, sigma2=sigma2)
            np.testing.assert_allclose(loglik, log_likelihood(params, cand, data), rtol=1e-8)

    def test_subject_order_does_not_matter(self):
        # permuting subjects permutes the stacking order of the grid groups
        grids = [(4, 3), (1, 1), (5, 2), (2, 1), (3, 4), (6, 1)]
        positive = [True, False] * 6
        data = mixed_grid_dataset(grids, positive, seed=14)
        rng = np.random.default_rng(15)
        for cand in enumerate_candidates():
            omega2 = rng.uniform(0.05, 1.0, size=cand.n_variance)
            sigma2 = float(rng.uniform(0.3, 2.0))
            loglik, beta = ProfiledLikelihood(cand, data).evaluate(omega2, sigma2)
            for _ in range(3):
                order = rng.permutation(data.n_subjects)
                shuffled = Dataset(subjects=tuple(data.subjects[i] for i in order))
                loglik_p, beta_p = ProfiledLikelihood(cand, shuffled).evaluate(omega2, sigma2)
                np.testing.assert_allclose(loglik_p, loglik, rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(beta_p, beta, rtol=1e-10, atol=0.0)

    def test_zero_variances_reduce_to_ols(self):
        rng = np.random.default_rng(11)
        data = random_dataset(rng)
        cand = CandidateModel(m=1, o=1)
        prof = ProfiledLikelihood(cand, data)
        _, beta = prof.evaluate(np.array([0.0]), 1.0)
        X = np.vstack([build_design(cand, b).X for b in data.subjects])
        y = np.concatenate([b.y for b in data.subjects])
        ols, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(beta, ols, rtol=1e-9)

    def test_single_observation_subjects(self):
        rng = np.random.default_rng(12)
        data = random_dataset(rng, n_subjects=10, min_obs=1, max_obs=1)
        cand = CandidateModel(m=1, o=4)  # q = 3 > n_i = 1
        prof = ProfiledLikelihood(cand, data)
        omega2 = np.array([0.4, 0.2, 0.1])
        loglik, beta = prof.evaluate(omega2, 0.8)
        params = ParameterVector(beta=beta, omega2=omega2, sigma2=0.8)
        np.testing.assert_allclose(loglik, log_likelihood(params, cand, data), rtol=1e-10)

    def test_gls_orthogonality(self):
        # X' V^-1 (y - X beta_hat) vanishes at the profiled solution
        rng = np.random.default_rng(13)
        for _ in range(10):
            cand = enumerate_candidates()[int(rng.integers(16))]
            data = random_dataset(rng)
            omega2 = rng.uniform(0.05, 1.0, size=cand.n_variance)
            sigma2 = float(rng.uniform(0.3, 2.0))
            _, beta = ProfiledLikelihood(cand, data).evaluate(omega2, sigma2)
            score = 0.0
            for block in data.subjects:
                d = build_design(cand, block)
                V = d.Z @ np.diag(omega2) @ d.Z.T + sigma2 * np.eye(block.n_obs)
                score = score + d.X.T @ np.linalg.inv(V) @ (block.y - d.X @ beta)
            assert np.max(np.abs(score)) < 1e-8

    @staticmethod
    def gradient_layouts():
        """A shared-grid, a ragged and a mixed-grid dataset."""
        shared, _ = study_data(seed=102, n_subjects=12, n_per=6)
        ragged = random_dataset(np.random.default_rng(16), n_subjects=8, min_obs=1, max_obs=7)
        mixed = mixed_grid_dataset([(4, 3), (1, 1), (5, 2), (2, 1)], [True, False] * 4, seed=17)
        return shared, ragged, mixed

    @staticmethod
    def profile_at(stats, cand, theta):
        """_profile at one candidate's relative variances theta: f, the
        gradient over its random effects and sigma2_hat."""
        padded = np.zeros((1, 3))
        padded[0, cand.random_columns] = theta
        f, g, _, sigma2, _ = _profile(stats, cand.mean_columns[None], padded)
        return float(f[0]), g[0, cand.random_columns], float(sigma2[0])

    def test_profile_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        for data in self.gradient_layouts():
            stats = DatasetStatistics(data)
            for cand in enumerate_candidates():
                scales2 = stats.z_scale2[cand.random_columns]
                theta = rng.uniform(0.05, 2.0, size=cand.n_variance)
                # the same point with some relative variances at zero
                zeroed = theta * (rng.uniform(size=theta.size) < 0.5)
                for point in (theta, zeroed):
                    _, grad, _ = self.profile_at(stats, cand, point)
                    fd = np.empty_like(point)
                    for j in range(point.size):
                        # a step of 1e-6 in theta_j s_j^2, the unit of the search
                        scale2 = scales2[j]
                        h = 1e-6 * max(point[j] * scale2, 1.0) / scale2
                        up, down = point.copy(), point.copy()
                        up[j] += h
                        down[j] -= h
                        fd[j] = (
                            self.profile_at(stats, cand, up)[0] - self.profile_at(stats, cand, down)[0]
                        ) / (2 * h)
                    np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7 * data.n_obs)

    def test_profile_hessian_matches_differenced_gradient(self):
        # the exact Hessian against central differences of the exact
        # gradient, at interior theta and on faces with one theta_j = 0
        x = np.linspace(0.0, 10.0, 4)
        line = [SubjectBlock(id=f"s{i}", x=x, c=float(i), y=1.0 + 2.0 * x) for i in range(6)]
        exact = Dataset(subjects=tuple(line))  # rss = 0: the mean fits exactly
        # noise of 7e-7 about a line of slope 2e-6: rss > 0 with rss / n below 1e-12,
        # small enough that the free-sigma2 term shows, yet above rss's rounding
        rng = np.random.default_rng(22)
        on_floor = Dataset(subjects=tuple(
            SubjectBlock(id=b.id, x=b.x, c=b.c, y=1e-6 * b.y + 7e-7 * rng.normal(size=b.x.size))
            for b in line
        ))
        for data in TestFitMl.reference_layouts() + (on_floor, exact):
            stats = DatasetStatistics(data)
            for cand in enumerate_candidates():
                random_columns = np.flatnonzero(cand.random_columns)
                mean = cand.mean_columns[None]
                theta = np.zeros((1, 3))
                theta[0, random_columns] = rng.uniform(0.05, 2.0, size=random_columns.size)
                theta /= stats.z_scale2
                face = theta.copy()
                face[0, random_columns[rng.integers(random_columns.size)]] = 0.0
                for point in (theta, face):
                    _, _, hess, sigma2, _ = _profile(stats, mean, point)
                    for j in random_columns:
                        # a step of 1e-6 in theta_j s_j^2, the unit of the search
                        h = 1e-6 * max(point[0, j] * stats.z_scale2[j], 1.0) / stats.z_scale2[j]
                        up, down = point.copy(), point.copy()
                        up[0, j] += h
                        down[0, j] -= h
                        fd = (_profile(stats, mean, up)[1] - _profile(stats, mean, down)[1]) / (2 * h)
                        row = hess[0, j, random_columns]
                        scale = np.abs(row).max()
                        np.testing.assert_allclose(row, fd[0, random_columns], rtol=0.0, atol=1e-4 * scale)
                    rss = _solve(stats, mean, point)[1][0]
                    if data is on_floor:
                        assert rss > 0.0 and sigma2[0] == rss / data.n_obs
                    elif data is exact:
                        assert rss == 0.0 and sigma2[0] == stats.rss_rounding / data.n_obs

    def test_profile_is_evaluate_at_sigma2_hat(self):
        rng = np.random.default_rng(19)
        for data in self.gradient_layouts():
            for cand in enumerate_candidates():
                prof = ProfiledLikelihood(cand, data)
                theta = rng.uniform(0.0, 2.0, size=cand.n_variance)
                value, _, sigma2 = self.profile_at(DatasetStatistics(data), cand, theta)
                loglik, _ = prof.evaluate(theta * sigma2, sigma2)
                np.testing.assert_allclose(value, -loglik, rtol=1e-12, atol=0.0)
                # sigma2_hat maximizes over sigma2 at fixed theta
                for factor in (0.9, 1.1):
                    assert prof.evaluate(theta * sigma2 * factor, sigma2 * factor)[0] < loglik

    def test_breakdown_stays_in_its_row(self):
        # a stacked factorization that fails, or overflows, fails for the
        # whole stack: the other rows keep their one-row values bit for bit
        stats = DatasetStatistics(study_dataset("a", "O4M4"))
        theta = np.random.default_rng(21).uniform(0.0, 2.0, size=(4, 3))
        theta[2] = 1e306  # 1e300 still gives a finite f on this design
        mean = np.ones((4, 5), dtype=bool)
        mean[1, 3:] = False
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = _profile_stack(stats, mean, theta)
            assert stacked[0][2] == np.inf
            assert not stacked[2][2].any()  # a zero Hessian at the priced-out row
            for i in (0, 1, 3):
                alone = _profile_stack(stats, mean[i : i + 1], theta[i : i + 1])
                for a, b in zip(alone, stacked):
                    np.testing.assert_array_equal(a[0], b[i])

    def test_overflowing_derivatives_price_out_their_row(self):
        # y'y at a quarter of the largest float and theta = 0, where K = I:
        # f is finite, but its derivatives overflow, and no step can use them
        data = study_dataset("a", "O4M4")
        scale = math.sqrt(np.finfo(float).max / 4.0 / DatasetStatistics(data).yty)
        y = data.y * scale
        stats = DatasetStatistics(Dataset.from_columns(data.ids, np.diff(data.bounds), data.c, data.x, y))
        mean, theta = np.ones((1, 5), dtype=bool), np.zeros((1, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            f, grad, hess, _, _ = _profile(stats, mean, theta)
            assert np.isfinite(f).all() and not (np.isfinite(grad).all() and np.isfinite(hess).all())
            f, grad, hess, _, _ = _profile_stack(stats, mean, theta)
        assert f[0] == np.inf and not grad.any() and not hess.any()

    def test_singular_normal_matrix_stays_in_its_row(self):
        # with c = 0 the c x column is zero and M2's normal matrix singular
        # (with c = 0.7 the collinear one still factorizes); M1 is fine
        rng = np.random.default_rng(30019)
        x = np.linspace(0.0, 10.0, 5)
        subjects = tuple(
            SubjectBlock(id=f"s{i}", x=x, c=0.0, y=rng.normal(size=5)) for i in range(8)
        )
        stats = DatasetStatistics(Dataset(subjects=subjects))
        mean = np.array([CandidateModel(m=m, o=2).mean_columns for m in (1, 2)])
        theta = np.array([[0.5, 0.3, 0.0]] * 2)
        with pytest.raises(UnidentifiableModelError, match="normal matrix is singular"):
            _solve(stats, mean, theta)
        stacked = _profile_stack(stats, mean, theta)
        assert stacked[0][1] == np.inf
        assert not stacked[1][1].any() and not stacked[2][1].any()
        for a, b in zip(_profile(stats, mean[:1], theta[:1]), stacked):
            np.testing.assert_array_equal(a[0], b[0])

    def test_absent_random_effects_are_zero_variances_of_o4(self):
        # every candidate reads O4M4's one rotation: it is O4Mm with the
        # variances it lacks held at zero
        rng = np.random.default_rng(20)
        for data in self.gradient_layouts():
            for cand in enumerate_candidates():
                full = CandidateModel(m=cand.m, o=4)
                omega2 = rng.uniform(0.05, 1.0, size=cand.n_variance)
                sigma2 = float(rng.uniform(0.3, 2.0))
                padded = np.zeros(3)
                padded[[label in cand.variance_labels() for label in full.variance_labels()]] = omega2
                loglik, beta = ProfiledLikelihood(cand, data).evaluate(omega2, sigma2)
                loglik_4, beta_4 = ProfiledLikelihood(full, data).evaluate(padded, sigma2)
                np.testing.assert_allclose(loglik, loglik_4, rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(beta, beta_4, rtol=1e-10, atol=0.0)


class TestDatasetStatistics:
    def test_built_once_for_all_candidates(self, monkeypatch):
        built = []

        class Counting(lmmbic.estimation.DatasetStatistics):
            def __init__(self, data):
                built.append(data)
                super().__init__(data)

        monkeypatch.setattr(lmmbic.estimation, "DatasetStatistics", Counting)
        data = random_dataset(np.random.default_rng(22), n_subjects=10)
        for cand in enumerate_candidates():
            fit_ml(cand, data)
        assert built == [data]

    def test_freed_once_the_search_ends(self, monkeypatch):
        # the fits outlive the statistics they were searched on
        built = []

        class Watched(lmmbic.estimation.DatasetStatistics):
            def __init__(self, data):
                super().__init__(data)
                built.append(weakref.ref(self))

        monkeypatch.setattr(lmmbic.estimation, "DatasetStatistics", Watched)
        data = random_dataset(np.random.default_rng(26), n_subjects=10)
        cand = CandidateModel(m=4, o=4)
        fit = fit_ml(cand, data)
        gc.collect()
        assert len(built) == 1 and built[0]() is None
        assert fit_ml(cand, data) is fit

    def test_equal_dataset_gets_fits_of_its_own(self):
        data = random_dataset(np.random.default_rng(23), n_subjects=10)
        copy = Dataset(subjects=tuple(
            SubjectBlock(id=b.id, x=b.x.copy(), c=b.c, y=b.y.copy()) for b in data.subjects
        ))
        for cand in enumerate_candidates():
            assert fit_ml(cand, copy) is not fit_ml(cand, data)
            a, b = fit_ml(cand, data), fit_ml(cand, copy)
            assert a.loglik == b.loglik
            np.testing.assert_array_equal(a.theta_hat.beta, b.theta_hat.beta)
            np.testing.assert_array_equal(a.theta_hat.omega2, b.theta_hat.omega2)
            assert a.theta_hat.sigma2 == b.theta_hat.sigma2

    def test_fit_does_not_depend_on_call_order(self):
        # a fit first searches the candidates it nests, memoised per
        # dataset: alone on a fresh dataset it equals the fit made after
        # its predecessors in enumeration order
        cands = enumerate_candidates()
        in_order = study_dataset("d", "O1M4", seed=7)
        for cand in cands:
            a = fit_ml(cand, study_dataset("d", "O1M4", seed=7))
            b = fit_ml(cand, in_order)
            assert a.loglik == b.loglik, cand.id
            np.testing.assert_array_equal(a.theta_hat.beta, b.theta_hat.beta)
            np.testing.assert_array_equal(a.theta_hat.omega2, b.theta_hat.omega2)
            assert a.theta_hat.sigma2 == b.theta_hat.sigma2
            assert (a.converged, a.boundary) == (b.converged, b.boundary)

    @staticmethod
    def tiny_layouts():
        """Ragged data with 1-, 2- and 5-point grids, a grid two subjects
        share and a subject with a repeated x, and the same layout with a
        constant covariate."""
        grids = [[2.0], [1.0, 4.0], [0.5, 3.0, 7.0, 9.0], [0.5, 3.0, 7.0, 9.0], [2.0, 2.0, 6.0],
                 [1.0, 3.0, 5.0, 8.0, 9.5]]
        rng = np.random.default_rng(25)
        covariates = rng.normal(size=len(grids))
        ys = [rng.normal(size=len(x)) + np.asarray(x) for x in grids]

        def layout(cs):
            return Dataset(subjects=tuple(
                SubjectBlock(id=f"s{i}", x=x, c=c, y=y)
                for i, (x, c, y) in enumerate(zip(grids, cs, ys))
            ))

        return layout(covariates), layout(np.full(len(grids), 0.7))

    def test_statistics_equal_their_definition(self):
        # the normal equations and the GLS rss that _solve reads off the
        # statistics equal the sums over subjects of the dense matrices,
        # with y and c centred on their means
        def assert_close(fast, dense):
            assert np.abs(fast - dense).max() <= 1e-10 * np.abs(dense).max()

        full = CandidateModel(m=4, o=4)
        thetas = ([0.0, 0.0, 0.0], [0.5, 0.1, 0.01], [3.0, 0.0, 0.2], [100.0, 10.0, 1.0])
        varying, constant = self.tiny_layouts()
        for data, m in ((varying, 4), (constant, 1)):
            stats = DatasetStatistics(data)
            mean = CandidateModel(m=m, o=1).mean_columns
            centred = [dataclasses.replace(b, c=b.c - data.c.mean()) for b in data.subjects]
            xtx, A_dense, b_dense = np.zeros((5, 5)), np.zeros((5, 5)), np.zeros(5)
            for theta in thetas:
                A_dense[:], b_dense[:], blocks = 0.0, 0.0, []
                for block in centred:
                    d = build_design(full, block)
                    y = block.y - data.y.mean()
                    Vt_inv = np.linalg.inv(np.eye(block.n_obs) + d.Z @ np.diag(theta) @ d.Z.T)
                    A_dense += d.X.T @ Vt_inv @ d.X
                    b_dense += d.X.T @ Vt_inv @ y
                    blocks.append((d.X[:, mean], Vt_inv, y))
                beta = np.linalg.solve(A_dense[np.ix_(mean, mean)], b_dense[mean])
                rss = sum((y - X @ beta) @ Vt_inv @ (y - X @ beta) for X, Vt_inv, y in blocks)
                _, rss_fast, _, K, A = _solve(stats, mean[None], np.array([theta]))
                b = K.reshape(1, -1) @ stats.cross_xy
                assert_close(A[0][np.ix_(mean, mean)], A_dense[np.ix_(mean, mean)])
                assert_close(b[0, mean], b_dense[mean])
                assert_close(rss_fast[0], rss)
            for block in centred:
                X = build_design(full, block).X
                xtx += X.T @ X
            assert_close(stats.xtx, xtx)

    def test_memo_does_not_keep_dataset_alive(self):
        # nor does a fit that outlives its dataset
        data = random_dataset(np.random.default_rng(24), n_subjects=10)
        fit = fit_ml(CandidateModel(m=4, o=4), data)
        ref = weakref.ref(data)
        del data
        gc.collect()
        assert ref() is None
        assert fit.n_obs > 0

    def test_fit_is_one_object_per_dataset(self):
        data = random_dataset(np.random.default_rng(25), n_subjects=10)
        for cand in enumerate_candidates():
            assert fit_ml(cand, data) is fit_ml(cand, data), cand.id


class TestProfileBeta:
    def test_beta_maximizes_over_grid(self):
        rng = np.random.default_rng(20)
        data = random_dataset(rng, n_subjects=2, min_obs=4, max_obs=4)
        cand = CandidateModel(m=1, o=1)
        omega2 = np.array([0.4])
        sigma2 = 0.8
        _, beta_hat = ProfiledLikelihood(cand, data).evaluate(omega2, sigma2)
        loglik_hat = log_likelihood(
            ParameterVector(beta=beta_hat, omega2=omega2, sigma2=sigma2), cand, data
        )

        offsets = np.linspace(-0.3, 0.3, 13)
        best = -np.inf
        best_offset = None
        for d0 in offsets:
            for d1 in offsets:
                for d2 in offsets:
                    beta = beta_hat + np.array([d0, d1, d2])
                    ll = log_likelihood(
                        ParameterVector(beta=beta, omega2=omega2, sigma2=sigma2), cand, data
                    )
                    if ll > best:
                        best = ll
                        best_offset = (d0, d1, d2)
        assert loglik_hat >= best
        assert best_offset == (0.0, 0.0, 0.0)


class TestBoundedNewton:
    # _minimize_box searches a stack of functions; these call it on
    # one-row stacks, except the test that compares a stack against them.
    # Each function is exact, so it returns a zero rounding.

    @staticmethod
    def bowl(target):
        def f(z, rows):
            hess = np.tile(2.0 * np.eye(z.shape[1]), (len(z), 1, 1))
            return ((z - target) ** 2).sum(axis=1), 2.0 * (z - target), hess, np.zeros(len(z))

        return f

    @staticmethod
    def rosenbrock(z, rows):
        a, b = z[:, 0], z[:, 1]
        value = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
        grad = np.stack([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)], axis=1)
        hess = np.empty((len(z), 2, 2))
        hess[:, 0, 0] = 2.0 - 400.0 * (b - 3.0 * a * a)
        hess[:, 0, 1] = hess[:, 1, 0] = -400.0 * a
        hess[:, 1, 1] = 200.0
        return value, grad, hess, np.zeros(len(z))

    def test_quadratic_bowl(self):
        target = np.array([1.5, -2.0, 0.5])
        z, fz, g, converged, _, _, _ = _minimize_box(
            self.bowl(target), np.zeros((1, 3)), -5.0, 5.0, 500, 1e-10
        )
        assert converged[0]
        np.testing.assert_allclose(z[0], target, atol=1e-8)
        assert fz[0] < 1e-14

    def test_minimum_outside_box_lands_on_bound(self):
        # the unconstrained minimum (-3, 7, 0.5) lies outside [-1, 2]^3
        # on two coordinates: both stop on their bounds with the gradient
        # pointing out of the box, and the KKT report holds there
        target = np.array([-3.0, 7.0, 0.5])
        z, _, g, converged, _, _, _ = _minimize_box(
            self.bowl(target), np.zeros((1, 3)), -1.0, 2.0, 500, 1e-10
        )
        assert converged[0]
        np.testing.assert_allclose(z[0], [-1.0, 2.0, 0.5], atol=1e-8)
        assert g[0, 0] > 0 and g[0, 1] < 0

    def test_further_outputs_are_those_at_the_returned_point(self):
        def with_point(fun):
            return lambda z, rows: (*fun(z, rows), z.copy(), rows.astype(float))

        # Rosenbrock from (-1.2, 1) rejects some trial points on its way
        starts, fun = np.array([[-1.2, 1.0], [0.5, 0.5]]), with_point(self.rosenbrock)
        for cap in (3, 500):
            z, *_, point, row = _minimize_box(fun, starts, -5.0, 5.0, cap, 1e-10)
            np.testing.assert_array_equal(point, z)
            np.testing.assert_array_equal(row, [0.0, 1.0])

        # a gradient of the wrong sign: every trial is rejected until the
        # halvings run out, and the start is returned with its own outputs
        def uphill(z, rows):
            hess = np.tile(2.0 * np.eye(2), (len(z), 1, 1))
            return -(z * z).sum(axis=1), 2.0 * z, hess, np.zeros(len(z))

        z, *_, point, _ = _minimize_box(with_point(uphill), np.ones((1, 2)), -5.0, 5.0, 500, 1e-10)
        np.testing.assert_array_equal(z, np.ones((1, 2)))
        np.testing.assert_array_equal(point, z)

    def test_iteration_cap_reports_nonconvergence(self):
        start = np.array([[-1.2, 1.0]])
        z, _, _, converged, iterations, *_ = _minimize_box(self.rosenbrock, start, -5.0, 5.0, 3, 1e-10)
        assert not converged[0]
        assert iterations[0] == 3
        _, _, _, converged, *_ = _minimize_box(self.rosenbrock, start, -5.0, 5.0, 500, 1e-10)
        assert converged[0]

    def test_stack_rows_search_as_if_alone(self):
        # a bowl, a bowl whose minimum lies outside its box, Rosenbrock on
        # the first two coordinates, a row whose start is not finite, and
        # a liar whose gradient points uphill, so its line search runs out
        bowl, boxed = self.bowl(np.array([1.5, -2.0, 0.5])), self.bowl(np.array([-3.0, 7.0, 0.5]))

        def rosenbrock(z, rows):
            value, grad, hess, rounding = self.rosenbrock(z, rows)
            padded = np.zeros((len(z), 3, 3))
            padded[:, :2, :2] = hess
            return value, np.column_stack([grad, np.zeros(len(z))]), padded, rounding

        def infinite(z, rows):
            zeros = np.zeros(len(z))
            return np.full(len(z), np.inf), np.zeros_like(z), np.zeros((len(z), 3, 3)), zeros

        def liar(z, rows):
            hess = np.tile(2.0 * np.eye(3), (len(z), 1, 1))
            return -((z - 1.0) ** 2).sum(axis=1), 2.0 * (z - 1.0), hess, np.zeros(len(z))

        pieces = [bowl, boxed, rosenbrock, infinite, liar]
        calls = []

        def stacked(z, rows):
            calls.append(rows.tolist())
            parts = [pieces[r](z[k : k + 1], rows[k : k + 1]) for k, r in enumerate(rows)]
            return tuple(np.concatenate(column) for column in zip(*parts))

        starts = np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.2, 1.0, 0.0], [1.0, 1.0, 1.0], [0.3, -0.2, 0.1]]
        )
        lower = np.array([[-5.0], [-1.0], [-5.0], [-5.0], [-5.0]])
        upper = np.array([[5.0], [2.0], [5.0], [5.0], [5.0]])
        together = _minimize_box(stacked, starts, lower, upper, 500, 1e-10)
        assert list(together[3]) == [True, True, True, False, False]
        assert together[1][3] == np.inf and together[4][3] == 0
        # the liar stays at its start after one iteration: its first
        # evaluation and every one of the halvings after it
        np.testing.assert_array_equal(together[0][4], starts[4])
        assert together[4][4] == 1 and together[5][4] == 1 + _LINE_SEARCH_STEPS
        # lockstep: call k evaluates exactly the rows with more than k
        # evaluations, so each row appears in as many calls as it evaluated
        evaluations = together[5]
        assert len(calls) == evaluations.max()
        for r in range(len(pieces)):
            assert sum(r in rows for rows in calls) == evaluations[r]
        for k, rows in enumerate(calls):
            assert rows == np.flatnonzero(evaluations > k).tolist()
        for r, piece in enumerate(pieces):
            alone = _minimize_box(piece, starts[r : r + 1], lower[r], upper[r], 500, 1e-10)
            for a, b in zip(alone, together):
                np.testing.assert_array_equal(a[0], b[r])


def study_data(seed=101, n_subjects=40, n_per=8, truth=None):
    design = SimulationDesign("t", n_subjects, n_per)
    if truth is None:
        truth = TrueParameters(
            mu=[1.0, 0.5, -0.1],
            alpha=[0.7, 0.0],
            omega2=[0.6, 0.15, 0.0],
            sigma2=1.0,
        )
    return generate_dataset(design, truth, seed=seed), truth


def study_dataset(design_label, truth_id, seed=1, replicate=0):
    """The dataset of one study cell's replicate."""
    truth = CandidateModel.from_id(truth_id)
    return draw_replicate(DESIGNS[design_label], truth, replicate, seed)[1]


def free_terms(cand):
    flags = {
        "alpha1": cand.alpha1_free,
        "alpha2": cand.alpha2_free,
        "omega1": cand.omega1_free,
        "omega2": cand.omega2_free,
    }
    return {name for name, free in flags.items() if free}


class TestFitMl:
    def test_deterministic_bit_for_bit(self):
        # a regenerated copy, since a refit of the same dataset reads the memo
        cand = CandidateModel(m=2, o=2)
        a = fit_ml(cand, study_data()[0])
        b = fit_ml(cand, study_data()[0])
        assert a.loglik == b.loglik
        np.testing.assert_array_equal(a.theta_hat.beta, b.theta_hat.beta)
        np.testing.assert_array_equal(a.theta_hat.omega2, b.theta_hat.omega2)
        assert a.theta_hat.sigma2 == b.theta_hat.sigma2
        assert a.converged == b.converged

    def test_fit_beats_truth(self):
        data, truth = study_data()
        cand = CandidateModel(m=2, o=2)
        fit = fit_ml(cand, data)
        beta_t, omega2_t, sigma2_t = truth.free_values(cand)
        truth_ll = log_likelihood(
            ParameterVector(beta=beta_t, omega2=omega2_t, sigma2=sigma2_t), cand, data
        )
        assert fit.loglik >= truth_ll - 1e-6

    def test_loglik_matches_literal_path(self):
        data, _ = study_data()
        for cand in (CandidateModel(m=1, o=1), CandidateModel(m=2, o=2), CandidateModel(m=4, o=4)):
            fit = fit_ml(cand, data)
            np.testing.assert_allclose(
                fit.loglik, log_likelihood(fit.theta_hat, cand, data), rtol=1e-8
            )

    def test_nested_candidates_ordered(self):
        data, _ = study_data()
        small = fit_ml(CandidateModel(m=1, o=1), data)
        large = fit_ml(CandidateModel(m=4, o=4), data)
        assert large.loglik >= small.loglik - 1e-6

    def test_nesting_never_loses_likelihood(self):
        # a candidate whose free terms include another's can reach the
        # smaller candidate's optimum, so its maximum is never lower
        datasets = [study_dataset("a", t) for t in ("O1M1", "O2M2", "O3M3", "O4M4")]
        datasets += [study_dataset("c", t) for t in ("O1M1", "O1M3", "O3M2", "O3M4")]
        # searches from _START alone end 3.26 below O1M3 for O4M3 here, and
        # 10.92 below it for O2M3 and O4M3 on the seed-7 dataset; each
        # candidate restarts from its best cover's optimum, which it nests
        datasets.append(study_dataset("b", "O1M4", seed=71))
        datasets.append(study_dataset("d", "O1M4", seed=7))
        # at design d, N^2 = n: freeing a variance with no alpha term
        # leaves BIC_h's penalty unchanged, so the tie rule alone settles it
        datasets.append(study_dataset("d", "O1M1"))
        # data on one line: every variance is zero, and one reported at a
        # floor instead cost the larger candidates up to 32 units
        x = np.linspace(0.0, 10.0, 4)
        datasets.append(Dataset(subjects=tuple(
            SubjectBlock(id=f"s{i}", x=x, c=float(i), y=1.0 + 2.0 * x) for i in range(6)
        )))
        rng = np.random.default_rng(34)
        datasets += [random_dataset(rng, n_subjects=12, min_obs=2, max_obs=9) for _ in range(3)]
        cands = enumerate_candidates()
        collapsed = 0
        for data in datasets:
            fits = {c: fit_ml(c, data) for c in cands}
            loglik = {c: fit.loglik for c, fit in fits.items()}
            for small in cands:
                for large in cands:
                    if free_terms(small) <= free_terms(large):
                        tolerance = 1e-11 * (1.0 + abs(loglik[large]))
                        assert loglik[large] >= loglik[small] - tolerance, (small.id, large.id)
                # a candidate whose search ends with the variance it adds over
                # a cover at exactly zero has reached that cover's model, up to
                # rounding, and the criteria pick the cover wherever the
                # larger candidate's penalty is not smaller: BIC_h's can be
                for large in cands:
                    if small in large.covers() and small.m == large.m:
                        labels = large.variance_labels()
                        (extra,) = set(labels) - set(small.variance_labels())
                        if fits[large].theta_hat.omega2[labels.index(extra)] != 0.0:
                            continue
                        assert loglik[large] == pytest.approx(loglik[small], rel=1e-11, abs=0.0)
                        reports = [build_report(fits[large]), build_report(fits[small])]
                        cheaper = penalty_ratio(large, small, data.n_subjects, data.n_obs) < 1
                        for crit in CRITERIA:
                            if not (crit == "h" and cheaper):
                                assert select_model(reports, crit) == small.id, (large.id, crit)
                                collapsed += 1
        assert collapsed

    @staticmethod
    def reference_layouts():
        """A shared grid, ragged grids, a mix of shared and singleton
        grids, and subjects with fewer points than O4's three random
        effects."""
        shared = study_dataset("a", "O4M4")
        rng = np.random.default_rng(35)
        ragged = random_dataset(rng, n_subjects=12, min_obs=2, max_obs=9)
        layout = [(4, 3), (1, 1), (5, 2), (2, 1), (3, 4)]
        mixed = mixed_grid_dataset(layout, [True, False] * 6, seed=36)
        tiny = random_dataset(rng, n_subjects=30, min_obs=1, max_obs=2)
        return shared, ragged, mixed, tiny

    def test_loglik_matches_dense_reference_at_fitted_optima(self):
        for data in self.reference_layouts():
            for cand in enumerate_candidates():
                fit = fit_ml(cand, data)
                dense = log_likelihood(fit.theta_hat, cand, data)
                np.testing.assert_allclose(fit.loglik, dense, rtol=1e-9, err_msg=cand.id)

    def test_family_matches_one_row_searches(self):
        # each candidate's optimum from the family's stacked searches is the
        # one its own search reaches from the same start; O2M3 and O4M3
        # restart from O1M3's optimum on the last dataset
        for data in self.reference_layouts() + (study_dataset("d", "O1M4", seed=7),):
            stats = DatasetStatistics(data)
            for cand in enumerate_candidates():
                fit = fit_ml(cand, data)
                mean, random = cand.mean_columns[None], cand.random_columns[None]
                start = np.where(random, lmmbic.estimation._START, 0.0)
                if fit.restarted:
                    cover = max((fit_ml(c, data) for c in cand.covers()), key=lambda o: o.loglik)
                    start = np.zeros((1, 3))
                    start[0, cover.candidate.random_columns] = (
                        cover.theta_hat.omega2 / cover.theta_hat.sigma2
                    )
                _, f, *_ = _search(stats, mean, random, start.reshape(1, 3))
                np.testing.assert_allclose(-fit.loglik, f[0], rtol=1e-12, atol=0.0, err_msg=cand.id)
                # every Newton step costs at least one evaluation, the start one more
                assert 0 < fit.iterations < fit.evaluations, cand.id

    def test_reaches_optimum_the_log_variance_simplex_missed(self):
        # the simplex stopped at -191.53 here, 1.73 short of the optimum
        truth = sample_true_parameters(CandidateModel.from_id("O1M4"), substream(7, 3))
        data = generate_dataset(DESIGNS["a"], truth, 103)
        for cid in ("O2M3", "O4M3"):
            fit = fit_ml(CandidateModel.from_id(cid), data)
            assert fit.converged
            assert fit.loglik >= -189.81

    def test_recovery_on_moderate_data(self):
        data, truth = study_data(seed=7, n_subjects=80, n_per=10)
        fit = fit_ml(CandidateModel(m=2, o=2), data)
        assert fit.converged
        beta_t, omega2_t, sigma2_t = truth.free_values(CandidateModel(m=2, o=2))
        np.testing.assert_allclose(fit.theta_hat.beta, beta_t, atol=0.5)
        assert abs(fit.theta_hat.sigma2 - sigma2_t) < 0.25
        assert abs(fit.theta_hat.omega2[0] - omega2_t[0]) < 0.5

    def test_boundary_reported_for_degenerate_data(self):
        # responses lie exactly on one line: every variance collapses
        # to the floor and is reported, not hidden
        x = np.linspace(0.0, 10.0, 4)
        subjects = tuple(
            SubjectBlock(id=f"s{i}", x=x, c=float(i), y=1.0 + 2.0 * x)
            for i in range(6)
        )
        data = Dataset(subjects=subjects)
        fit = fit_ml(CandidateModel(m=1, o=1), data)
        assert "omega0" in fit.boundary
        assert "sigma2" in fit.boundary
        assert fit.theta_hat.sigma2 == DatasetStatistics(data).rss_rounding / data.n_obs
        np.testing.assert_allclose(fit.theta_hat.beta, [1.0, 2.0, 0.0], atol=1e-6)

    def test_every_candidate_converges_on_exact_fit(self):
        # on exact data rss is rounding; divided by sigma2 on its floor it
        # would read as a gradient and fail the KKT check
        x = np.linspace(0.0, 10.0, 4)
        subjects = tuple(
            SubjectBlock(id=f"s{i}", x=x, c=float(i), y=1.0 + 2.0 * x)
            for i in range(6)
        )
        data = Dataset(subjects=subjects)
        for cand in enumerate_candidates():
            fit = fit_ml(cand, data)
            assert fit.converged, cand.id
            assert "sigma2" in fit.boundary, cand.id

    def test_boundary_empty_on_regular_data(self):
        data, _ = study_data()
        fit = fit_ml(CandidateModel(m=2, o=2), data)
        assert fit.boundary == ()

    def test_absent_variance_reported_as_exact_zero(self):
        # the truth has no x^2 random effect, so O4M4's omega2 goes to zero,
        # and it is reported at the search's zero, not at a floor
        data, _ = study_data()
        fit = fit_ml(CandidateModel(m=4, o=4), data)
        assert np.all(fit.theta_hat.omega2 >= 0.0)
        assert fit.theta_hat.sigma2 > DatasetStatistics(data).rss_rounding / data.n_obs
        assert fit.theta_hat.omega2[2] == 0.0
        assert fit.boundary == ("omega2",)

    def test_constant_covariate_with_alpha_rejected(self):
        x = np.linspace(0.0, 10.0, 5)
        rng = np.random.default_rng(31)
        subjects = tuple(
            SubjectBlock(id=f"s{i}", x=x, c=1.0, y=rng.normal(size=5)) for i in range(8)
        )
        data = Dataset(subjects=subjects)
        for cand in enumerate_candidates():
            if cand.m == 1:
                # without an alpha term the same data is fine
                fit_ml(cand, data)
                ProfiledLikelihood(cand, data)
            else:
                message = f"candidate {cand.id} .*single value"
                with pytest.raises(UnidentifiableModelError, match=message):
                    fit_ml(cand, data)
                with pytest.raises(UnidentifiableModelError, match=message):
                    ProfiledLikelihood(cand, data)

    def test_too_few_observations_rejected(self):
        x = np.array([0.0, 5.0])
        subjects = tuple(
            SubjectBlock(id=f"s{i}", x=x, c=float(i), y=np.array([1.0, 2.0]))
            for i in range(2)
        )
        data = Dataset(subjects=subjects)
        with pytest.raises(UnidentifiableModelError, match="observations"):
            fit_ml(CandidateModel(m=1, o=1), data)

    def test_rank_checked_per_mean_structure(self):
        # c x equals c x^2 on every row: c = 1 only on the grid {0, 1},
        # where x^2 = x, so only M4, which has both columns, loses rank
        rng = np.random.default_rng(35)
        subjects = []
        for i in range(10):
            x = np.array([0.0, 1.0] if i % 2 else [0.0, 1.0, 2.0])
            subjects.append(SubjectBlock(id=f"s{i}", x=x, c=float(i % 2), y=rng.normal(size=x.size)))
        data = Dataset(subjects=tuple(subjects))
        for cand in enumerate_candidates():
            if cand.m == 4:
                with pytest.raises(UnidentifiableModelError, match=f"candidate {cand.id} is rank"):
                    fit_ml(cand, data)
            else:
                fit_ml(cand, data)

    @pytest.mark.parametrize("x_scale, c_scale", [(1e100, 1.0), (1.0, 1e160)])
    def test_overflowing_design_rejected_after_one_search(self, monkeypatch, x_scale, c_scale):
        # x^4 or c^2 x^4 overflows O4M4's X'X, which eigvalsh cannot take
        searches = []
        search_family = lmmbic.estimation._search_family

        def counting(stats):
            searches.append(stats)
            return search_family(stats)

        monkeypatch.setattr(lmmbic.estimation, "_search_family", counting)
        rng = np.random.default_rng(8123)
        x = np.linspace(0.0, 10.0, 5) * x_scale
        subjects = tuple(
            SubjectBlock(id=f"s{i}", x=x, c=rng.normal() * c_scale, y=rng.normal(size=5))
            for i in range(12)
        )
        data = Dataset(subjects=subjects)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # nothing reaches stderr
            for cand in enumerate_candidates():
                message = f"candidate {cand.id} overflows a float"
                with pytest.raises(UnidentifiableModelError, match=message):
                    fit_ml(cand, data)
        assert len(searches) == 1

    def test_restart_that_breaks_down_keeps_the_first_optimum(self):
        # O4M4's first search converges at loglik -98.48; its best cover,
        # O4M3, stops unconverged at -72.77 with theta_2 ~ 4.9e12, and the
        # restart from there breaks down at its start
        rows = (
            ("s0", [0.22320180671786316, 5.76958659189928, 7.45591060929546], -0.4926536476785379,
             [-229.4883180362001, 42.90673855210697, -87.34816485997531]),
            ("s1", [5.608735499299372, 5.903670651877305], 1.7085421562163476,
             [-78.58115557399107, -101.50853230281837]),
            ("s2", [2.2958472176348046, 3.9775476031096013], 0.2322475498646426,
             [1.0204715858745528, -2.206642861233222]),
            ("s3", [4.216369177008793, 7.40996170299113], 1.6580429844796694,
             [9.129519578228154, -7.896576688577811]),
            ("s4", [3.239804307305457], 0.1289212452444852, [33915.28901503941]),
            ("s5", [5.519465163145086, 6.063452517437088], 0.1789270588977097,
             [-14.778031236278473, 0.7327519479905468]),
        )
        data = Dataset(subjects=tuple(
            SubjectBlock(id=i, x=np.array(x), c=c, y=np.array(y)) for i, x, c, y in rows
        ))
        cand = CandidateModel.from_id("O4M4")
        fit = fit_ml(cand, data)
        assert not fit.converged and not fit.restarted
        assert fit.loglik == pytest.approx(-98.48, abs=0.01)
        assert max(fit_ml(cover, data).loglik for cover in cand.covers()) > fit.loglik
        _, left_out = usable_reports(data, fit_ml, build_report)
        assert left_out["O4M4"] == "did not converge"

    def test_step_onto_the_optimum_is_accepted_within_rounding(self):
        # O4M4's eleventh Newton step here lands on the optimum, where f
        # reads 1.9e-9 above the last point, more than 1e-12 (1 + |f|):
        # the rounding f carries from rss accepts it
        data = study_dataset("c", "O1M3", seed=36301)
        fit = fit_ml(CandidateModel.from_id("O4M4"), data)
        assert fit.converged and fit.evaluations <= 15
        _, left_out = usable_reports(data, fit_ml, build_report)
        assert not left_out

    def test_collinear_design_rejected(self):
        # x in {0, 1} makes the linear and quadratic columns identical
        rng = np.random.default_rng(33)
        x = np.array([0.0, 1.0])
        subjects = tuple(
            SubjectBlock(id=f"s{i}", x=x, c=rng.normal(), y=rng.normal(size=2))
            for i in range(8)
        )
        data = Dataset(subjects=subjects)
        for cand in enumerate_candidates():
            message = f"candidate {cand.id} is rank deficient"
            with pytest.raises(UnidentifiableModelError, match=message):
                fit_ml(cand, data)


@pytest.fixture()
def searches(monkeypatch):
    """The statistics of every family search the test runs, in order."""
    calls = []
    search_family = lmmbic.estimation._search_family

    def counting(stats):
        calls.append(stats)
        return search_family(stats)

    monkeypatch.setattr(lmmbic.estimation, "_search_family", counting)
    return calls


@functools.cache
def benchmark_dataset(kind, seed):
    """File 0 of a benchmark workload's inputs at this seed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.datasets(kind, seed, 1)[0]


class TestResponseScale:
    # y in other units or from another origin, c from another origin or
    # x in other units: each fit moves with them, and a y that is constant
    # or whose products the core cannot hold in floats is rejected for
    # every candidate
    FILES = [("ragged", 46021), ("shared", 46023)]

    def select_scaled(self, data, scale, searches, shift=0.0):
        """True when select on y * scale + shift picks the winners it picks
        on y, every loglik + n ln scale within 1e-9 relative of the one on
        y and, given a shift, every mu0 moved to scale mu0 + shift; False
        when every candidate is rejected for y.  Either way the family is
        searched once and nothing warns."""
        reference, left_out = usable_reports(data, fit_ml, build_report)
        assert not left_out
        moved = data.y * scale + shift
        scaled = Dataset.from_columns(data.ids, np.diff(data.bounds), data.c, data.x, moved)
        searches.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports, left_out = usable_reports(scaled, fit_ml, build_report)
        assert len(searches) == 1
        if not reports:
            assert len(left_out) == 16
            reason = "is constant" if scale == 0.0 else "is out of float range; rescale y"
            for cand_id, why in left_out.items():
                assert why == f"failed to fit (response y for candidate {cand_id} {reason})"
            return False
        assert not left_out
        for crit in CRITERIA:
            assert select_model(reports, crit) == select_model(reference, crit), (scale, crit)
        n_ln_scale = data.n_obs * math.log(scale)
        for before, after in zip(reference, reports):
            assert after.loglik + n_ln_scale == pytest.approx(before.loglik, rel=1e-9, abs=0.0)
            if shift:  # y + shift itself rounds by about eps shift
                mu0 = scale * before.fit.theta_hat.beta[0]
                assert after.fit.theta_hat.beta[0] - shift == pytest.approx(mu0, abs=1e-12 * shift)
        return True

    @pytest.mark.parametrize("kind, seed", FILES)
    def test_fits_move_with_the_units(self, kind, seed, searches):
        for scale in (1e-30, 1e-8, 1e80, 1e120):
            assert self.select_scaled(benchmark_dataset(kind, seed), scale, searches), scale

    @pytest.mark.parametrize("kind, seed", FILES)
    def test_search_takes_the_same_steps_in_any_units(self, kind, seed):
        # no margin of the search reads the size of f, which holds n ln s
        # in units s of y
        data = benchmark_dataset(kind, seed)
        reference = {cand: fit_ml(cand, data) for cand in enumerate_candidates()}
        sizes = np.diff(data.bounds)
        for k in (-100, -20, 20, 100):
            scaled = Dataset.from_columns(data.ids, sizes, data.c, data.x, data.y * 10.0 ** k)
            n_ln_scale = data.n_obs * k * math.log(10.0)
            for cand, before in reference.items():
                after = fit_ml(cand, scaled)
                for name in ("iterations", "evaluations", "converged", "restarted"):
                    assert getattr(after, name) == getattr(before, name), (k, cand.id, name)
                assert after.loglik + n_ln_scale == pytest.approx(before.loglik, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("kind, seed", FILES)
    def test_fits_move_with_the_origin(self, kind, seed, searches):
        for shift in (1e3, 1e4, 1e7):
            assert self.select_scaled(benchmark_dataset(kind, seed), 1.0, searches, shift), shift

    @pytest.mark.parametrize("kind, seed", FILES)
    def test_fits_move_with_the_covariate_origin(self, kind, seed, searches):
        # mu_k x^k + alpha_k c x^k = (mu_k - alpha_k a) x^k + alpha_k (c + a) x^k,
        # so c + a moves mu1 and mu2 by -alpha a and nothing else
        data = benchmark_dataset(kind, seed)
        reference, left_out = usable_reports(data, fit_ml, build_report)
        assert not left_out
        for shift in (1e2, 1e4, 1e6):
            sizes = np.diff(data.bounds)
            moved = Dataset.from_columns(data.ids, sizes, data.c + shift, data.x, data.y)
            searches.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reports, left_out = usable_reports(moved, fit_ml, build_report)
            assert len(searches) == 1
            assert not left_out, shift
            for crit in CRITERIA:
                assert select_model(reports, crit) == select_model(reference, crit), (shift, crit)
            for before, after in zip(reference, reports):
                assert after.loglik == pytest.approx(before.loglik, rel=1e-9, abs=0.0)
                old = dict(zip(before.fit.candidate.mean_labels(), before.fit.theta_hat.beta))
                new = dict(zip(after.fit.candidate.mean_labels(), after.fit.theta_hat.beta))
                for k in ("1", "2"):
                    if "alpha" + k in old:
                        alpha, mu = old["alpha" + k], old["mu" + k]
                        assert new["alpha" + k] == pytest.approx(alpha, rel=1e-6, abs=0.0)
                        scale = abs(mu) + abs(alpha) * shift
                        assert new["mu" + k] == pytest.approx(mu - alpha * shift, abs=1e-6 * scale)

    @pytest.mark.parametrize("kind, seed", FILES)
    def test_moderate_trend_keeps_every_winner(self, kind, seed):
        # every candidate's mean holds x^2, so y + a x^2 moves mu2 by a and
        # nothing else; the core still forms cross-products the size of the
        # trend, and at a = 1000 logliks move by up to 3.4e-8 relative
        # (ROADMAP item 3), so only what is left out, the winners and mu2
        # are held here
        trend = 1000.0
        data = benchmark_dataset(kind, seed)
        reference, left_out = usable_reports(data, fit_ml, build_report)
        assert not left_out
        y = data.y + trend * data.x ** 2
        moved = Dataset.from_columns(data.ids, np.diff(data.bounds), data.c, data.x, y)
        reports, left_out = usable_reports(moved, fit_ml, build_report)
        assert not left_out
        for crit in CRITERIA:
            assert select_model(reports, crit) == select_model(reference, crit), crit
        for before, after in zip(reference, reports):
            mu2 = before.fit.theta_hat.beta[2] + trend
            assert after.fit.theta_hat.beta[2] == pytest.approx(mu2, rel=0.0, abs=1e-8)

    @pytest.mark.parametrize("which", ["study", "ragged"])
    def test_fits_do_not_move_with_the_units_of_x(self, which, searches):
        # x s is a reparametrisation of every candidate (beta_k and omega_k
        # times s^-k), unlike a shift of x, which changes the candidates;
        # the rank check reads X'X at unit diagonal, and the start is capped
        # on the search scale, so neither moves with s
        if which == "study":
            cand = CandidateModel.from_id("O2M3")
            data = draw_replicate(DESIGNS["d"], cand, 0, seed=36201)[1]
        else:
            data = benchmark_dataset("ragged", 36203)
        reference, left_out = usable_reports(data, fit_ml, build_report)
        sizes = np.diff(data.bounds)
        for scale in (0.1, 10.0, 1e-6, 1e3, 1e6):
            moved = Dataset.from_columns(data.ids, sizes, data.c, data.x * scale, data.y)
            searches.clear()
            reports, moved_out = usable_reports(moved, fit_ml, build_report)
            assert len(searches) == 1
            assert moved_out == left_out, scale
            for crit in CRITERIA:
                assert select_model(reports, crit) == select_model(reference, crit), (scale, crit)
            for before, after in zip(reference, reports):
                assert after.loglik == pytest.approx(before.loglik, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("kind, seed", FILES)
    def test_constant_response_rejected(self, kind, seed, searches):
        # y's mean is exact at 3 and rounds at 0.1
        for value in (3.0, 0.1):
            assert not self.select_scaled(benchmark_dataset(kind, seed), 0.0, searches, value)

    @pytest.mark.parametrize("kind, seed", FILES)
    def test_zero_or_huge_response_rejected(self, kind, seed, searches):
        for scale in (1e200, 0.0):
            assert not self.select_scaled(benchmark_dataset(kind, seed), scale, searches), scale

    @pytest.mark.parametrize("kind, seed", FILES)
    def test_every_decade_fits_or_is_rejected(self, kind, seed, searches):
        data = benchmark_dataset(kind, seed)
        fitted = [self.select_scaled(data, 10.0 ** e, searches) for e in range(-200, 201)]
        # the decades that fit are one run about scale 1
        first, last = fitted.index(True), len(fitted) - fitted[::-1].index(True)
        assert all(fitted[first:last]) and first <= 200 < last
