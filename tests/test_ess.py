import numpy as np
import pytest

from lmmbic.candidates import (
    CandidateModel,
    TrueParameters,
    enumerate_candidates,
    generate_dataset,
)
from lmmbic.data import Dataset, SubjectBlock
from lmmbic.estimation import (
    VARIANCE_FLOOR,
    DatasetStatistics,
    FittedModel,
    _effective_sizes,
    effective_sample_size,
    fit_ml,
)
from lmmbic.model import ParameterVector, correlation_structure, magnitude
from lmmbic.simulation import SimulationDesign


def exchangeable(n, rho):
    R = np.full((n, n), rho)
    np.fill_diagonal(R, 1.0)
    return R


class TestMagnitude:
    def test_pairwise_closed_form(self):
        for rho in (-0.9, -0.5, 0.0, 0.3, 0.5, 0.9):
            got = magnitude(exchangeable(2, rho))
            np.testing.assert_allclose(got, 2.0 / (1.0 + rho), rtol=1e-12)

    def test_five_by_five_exchangeable_frozen(self):
        # brute-force inverse of the rho = 0.5 matrix sums to 5/3
        got = magnitude(exchangeable(5, 0.5))
        np.testing.assert_allclose(got, 5.0 / 3.0, rtol=1e-12)

    def test_exchangeable_closed_form_random(self):
        rng = np.random.default_rng(50)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            rho = float(rng.uniform(-1.0 / (n - 1) + 0.05, 0.95))
            got = magnitude(exchangeable(n, rho))
            np.testing.assert_allclose(got, n / (1.0 + (n - 1) * rho), rtol=1e-10)

    def test_identity_counts_everything(self):
        for n in (1, 2, 7, 30):
            assert magnitude(np.eye(n)) == float(n)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            A = rng.normal(size=(n, n + 2))
            V = A @ A.T + 0.5 * np.eye(n)
            d = 1.0 / np.sqrt(np.diagonal(V))
            R = V * d[:, None] * d[None, :]
            np.fill_diagonal(R, 1.0)
            np.testing.assert_allclose(
                magnitude(R), float(np.linalg.inv(R).sum()), rtol=1e-8
            )

    def test_permutation_invariant(self):
        rng = np.random.default_rng(52)
        R = exchangeable(6, 0.0)
        A = rng.normal(size=(6, 8))
        V = A @ A.T + np.eye(6)
        d = 1.0 / np.sqrt(np.diagonal(V))
        R = V * d[:, None] * d[None, :]
        np.fill_diagonal(R, 1.0)
        perm = rng.permutation(6)
        np.testing.assert_allclose(magnitude(R[np.ix_(perm, perm)]), magnitude(R), rtol=1e-10)

    def test_block_diagonal_adds(self):
        R1 = exchangeable(3, 0.4)
        R2 = exchangeable(4, -0.2)
        R = np.zeros((7, 7))
        R[:3, :3] = R1
        R[3:, 3:] = R2
        np.testing.assert_allclose(magnitude(R), magnitude(R1) + magnitude(R2), rtol=1e-10)

    def test_near_singular_stays_finite(self):
        R = exchangeable(4, 1.0 - 1e-10)
        got = magnitude(R)
        assert np.isfinite(got)
        assert got > 0

    def test_strong_positive_correlation_shrinks_toward_one(self):
        got = magnitude(exchangeable(10, 0.999))
        assert 1.0 < got < 1.02

    def test_negative_correlation_exceeds_count(self):
        # anticorrelated pairs carry more information than independent ones
        assert magnitude(exchangeable(2, -0.5)) == pytest.approx(4.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            magnitude(np.ones((2, 3)))

    def test_singular_raises(self):
        R = np.ones((3, 3))
        with pytest.raises(np.linalg.LinAlgError):
            magnitude(R)


def intercept_fit(seed=60, n_subjects=12, n_per=5, omega0=0.5):
    truth = TrueParameters(
        mu=[1.0, 0.3, -0.02], alpha=[0.0, 0.0], omega2=[omega0, 0.0, 0.0], sigma2=1.0
    )
    design = SimulationDesign("t", n_subjects, n_per)
    data = generate_dataset(design, truth, seed=seed)
    return fit_ml(CandidateModel(m=1, o=1), data), data


def synthetic_fit(candidate, data, omega2, sigma2, loglik=-50.0):
    """A FittedModel at chosen variances, bypassing the optimizer."""
    theta = ParameterVector(
        beta=np.zeros(candidate.n_mean), omega2=np.array(omega2), sigma2=sigma2
    )
    relative = np.zeros((1, 3))
    relative[0, candidate.random_columns] = theta.omega2 / theta.sigma2
    return FittedModel(
        candidate=candidate,
        theta_hat=theta,
        loglik=loglik,
        converged=True,
        boundary=(),
        n_obs=data.n_obs,
        n_subjects=data.n_subjects,
        n_effective=float(_effective_sizes(DatasetStatistics(data), relative)[0]),
    )


class TestEffectiveSampleSize:
    def test_between_subject_and_observation_counts(self):
        fit, data = intercept_fit()
        n_e = effective_sample_size(fit)
        assert data.n_subjects < n_e < data.n_obs

    def test_matches_exchangeable_closed_form(self):
        fit, data = intercept_fit()
        omega0 = fit.theta_hat.omega2[0]
        rho = omega0 / (omega0 + fit.theta_hat.sigma2)
        n_per = data.subjects[0].n_obs
        expected = data.n_subjects * n_per / (1.0 + (n_per - 1) * rho)
        np.testing.assert_allclose(effective_sample_size(fit), expected, rtol=1e-10)

    def test_agrees_with_per_subject_structure(self):
        fit, data = intercept_fit(seed=61)
        structure = correlation_structure(fit, data)
        np.testing.assert_allclose(
            effective_sample_size(fit), sum(structure.weights), rtol=1e-12
        )
        assert len(structure.blocks) == fit.n_subjects

    def test_no_random_effects_counts_observations_exactly(self):
        rng = np.random.default_rng(62)
        x = np.linspace(0.0, 10.0, 6)
        subjects = tuple(
            SubjectBlock(id=f"s{i}", x=x, c=rng.normal(), y=rng.normal(size=6))
            for i in range(9)
        )
        data = Dataset(subjects=subjects)
        fit = synthetic_fit(CandidateModel(m=1, o=1), data, omega2=[0.0], sigma2=1.3)
        assert effective_sample_size(fit) == float(data.n_obs)

    def test_single_observation_subjects_count_subjects_exactly(self):
        rng = np.random.default_rng(63)
        subjects = tuple(
            SubjectBlock(
                id=f"s{i}", x=np.array([float(i % 4)]), c=rng.normal(), y=rng.normal(size=1)
            )
            for i in range(11)
        )
        data = Dataset(subjects=subjects)
        fit = synthetic_fit(CandidateModel(m=1, o=1), data, omega2=[0.8], sigma2=1.0)
        assert effective_sample_size(fit) == float(data.n_subjects)

    def test_deduplication_matches_naive_sum(self):
        # mixed grids force several groups; totals must agree anyway
        rng = np.random.default_rng(64)
        subjects = []
        for i in range(10):
            n_i = int(rng.integers(2, 5))
            x = np.sort(rng.uniform(0, 10, n_i)) if i % 2 else np.linspace(0, 10, n_i)
            subjects.append(
                SubjectBlock(id=f"s{i}", x=x, c=rng.normal(), y=rng.normal(size=n_i))
            )
        data = Dataset(subjects=tuple(subjects))
        fit = synthetic_fit(CandidateModel(m=1, o=2), data, omega2=[0.5, 0.1], sigma2=0.9)
        structure = correlation_structure(fit, data)
        np.testing.assert_allclose(
            effective_sample_size(fit), sum(structure.weights), rtol=1e-12
        )

    def test_shrinks_as_correlation_grows(self):
        rng = np.random.default_rng(65)
        x = np.linspace(0.0, 10.0, 5)
        subjects = tuple(
            SubjectBlock(id=f"s{i}", x=x, c=rng.normal(), y=rng.normal(size=5))
            for i in range(8)
        )
        data = Dataset(subjects=subjects)
        weak = synthetic_fit(CandidateModel(m=1, o=1), data, omega2=[0.05], sigma2=1.0)
        strong = synthetic_fit(CandidateModel(m=1, o=1), data, omega2=[5.0], sigma2=1.0)
        assert effective_sample_size(strong) < effective_sample_size(weak)

    @staticmethod
    def grid_layouts():
        """A shared grid, ragged grids, shared grids mixed with singleton
        grids, and 2-point grids."""
        rng = np.random.default_rng(66)
        truth = TrueParameters(
            mu=[1.0, 0.3, -0.02], alpha=[0.5, 0.0], omega2=[0.5, 0.1, 0.0], sigma2=1.0
        )
        shared = generate_dataset(SimulationDesign("t", 12, 6), truth, seed=67)

        def subjects(grids):
            return Dataset(subjects=tuple(
                SubjectBlock(id=f"s{i}", x=x, c=rng.normal(), y=rng.normal(size=x.size))
                for i, x in enumerate(grids)
            ))

        def grid(n_points):
            return np.sort(rng.uniform(0.0, 10.0, size=n_points))

        ragged = subjects([grid(int(rng.integers(1, 10))) for _ in range(12)])
        a, b = grid(5), grid(3)
        mixed = subjects([a, grid(4), a, b, grid(1), a, b, grid(2)])
        pair = grid(2)
        two_point = subjects([pair, grid(2), pair, grid(2), pair, grid(2)])
        return shared, ragged, mixed, two_point

    def test_matches_dense_reference(self):
        # the capacitance form against the dense correlation blocks, at
        # random variances, with sigma2 on the floor, and at fitted optima;
        # theta_j s_j^2 up to 2 puts a random effect's share of the
        # variance at up to twice the noise's, as the search scales it
        rng = np.random.default_rng(68)
        for data in self.grid_layouts():
            z_scale2 = DatasetStatistics(data).z_scale2
            for cand in enumerate_candidates():
                theta = rng.uniform(0.0, 2.0, size=cand.n_variance) / z_scale2[cand.random_columns]
                fits = [
                    synthetic_fit(cand, data, omega2=theta * 0.7, sigma2=0.7),
                    synthetic_fit(cand, data, omega2=theta * VARIANCE_FLOOR, sigma2=VARIANCE_FLOOR),
                ]
                try:
                    fits.append(fit_ml(cand, data))
                except ValueError:
                    pass  # not identifiable on this layout
                for fit in fits:
                    np.testing.assert_allclose(
                        effective_sample_size(fit), correlation_structure(fit, data).n_e,
                        rtol=1e-10, err_msg=cand.id,
                    )

    def test_single_observation_subjects_count_exactly_at_random(self):
        # R_i = [1] whatever the variances: one square root of each side
        # of 1 + theta z'z rounded apart would miss N
        rng = np.random.default_rng(69)
        cands = enumerate_candidates()
        for _ in range(300):
            data = Dataset(subjects=tuple(
                SubjectBlock(
                    id=f"s{i}", x=rng.uniform(-10.0, 10.0, size=1), c=rng.normal(),
                    y=rng.normal(size=1),
                )
                for i in range(int(rng.integers(1, 16)))
            ))
            cand = cands[int(rng.integers(16))]
            omega2 = rng.uniform(0.0, 5.0, size=cand.n_variance) * 10.0 ** rng.integers(-6, 4)
            fit = synthetic_fit(cand, data, omega2=omega2, sigma2=float(rng.uniform(0.1, 3.0)))
            assert effective_sample_size(fit) == float(data.n_subjects)


class TestFamilyBatch:
    """fit_ml's n_effective comes from one call for the whole family."""

    @staticmethod
    def layouts():
        """A shared grid, ragged grids of 2-8 points, and one-point grids."""
        rng = np.random.default_rng(70)
        truth = TrueParameters(
            mu=[1.0, 0.3, -0.02], alpha=[0.5, -0.1], omega2=[0.6, 0.05, 0.001], sigma2=1.0
        )
        shared = generate_dataset(SimulationDesign("t", 15, 6), truth, seed=71)
        subjects = []
        for i in range(20):
            x = np.sort(rng.uniform(0.0, 10.0, size=int(rng.integers(2, 9))))
            c, b0 = rng.normal(size=2)
            y = 1.0 + b0 + (0.3 + c) * x + rng.normal(size=x.size)
            subjects.append(SubjectBlock(id=f"s{i}", x=x, c=c, y=y))
        ragged = Dataset(subjects=tuple(subjects))
        # x kept away from zero, as acceptance 04 explains
        single = Dataset(subjects=tuple(
            SubjectBlock(
                id=f"s{i}", x=np.array([float(i % 5) + 0.5 * (i % 3) + 0.5]),
                c=float(rng.normal()), y=rng.normal(size=1),
            )
            for i in range(12)
        ))
        return shared, ragged, single

    @staticmethod
    def fits(data):
        out = []
        for cand in enumerate_candidates():
            try:
                out.append(fit_ml(cand, data))
            except ValueError:
                pass  # not identifiable on this layout
        return out

    def test_batch_matches_one_row_and_dense_reference(self):
        for data in self.layouts():
            fits = self.fits(data)
            assert len(fits) >= 8
            for fit in fits:
                theta = fit.theta_hat
                alone = synthetic_fit(fit.candidate, data, theta.omega2, theta.sigma2)
                np.testing.assert_allclose(
                    fit.n_effective, alone.n_effective, rtol=1e-11, err_msg=fit.candidate.id
                )
                np.testing.assert_allclose(
                    fit.n_effective, correlation_structure(fit, data).n_e, rtol=1e-10,
                    err_msg=fit.candidate.id,
                )
                assert effective_sample_size(fit) == fit.n_effective

    def test_one_point_grids_count_subjects_exactly(self):
        data = self.layouts()[2]
        fits = self.fits(data)
        assert len(fits) == 16
        for fit in fits:
            assert fit.n_effective == float(data.n_subjects), fit.candidate.id

    def test_zero_variance_optima_count_observations_exactly(self):
        # with no random effect in the truth, many optima put every
        # variance at zero; they share the batch with optima that do not
        truth = TrueParameters(
            mu=[1.0, 0.3, -0.02], alpha=[0.4, 0.0], omega2=[0.0, 0.0, 0.0], sigma2=1.0
        )
        at_zero = 0
        for seed in (74, 75):
            data = generate_dataset(SimulationDesign("t", 10, 6), truth, seed=seed)
            for fit in self.fits(data):
                if not fit.theta_hat.omega2.any():
                    at_zero += 1
                    assert fit.n_effective == float(data.n_obs), fit.candidate.id
        assert at_zero >= 10
