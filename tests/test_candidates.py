import numpy as np
import pytest

from lmmbic.candidates import (
    MEAN_FACTOR,
    MEAN_Z,
    CandidateModel,
    TrueParameters,
    build_design,
    enumerate_candidates,
    generate_dataset,
    shared_x_grid,
)
from lmmbic.data import SubjectBlock
from lmmbic.rng import substream
from lmmbic.simulation import SimulationDesign


class TestCandidateModel:
    def test_enumeration_order(self):
        cands = enumerate_candidates()
        assert len(cands) == 16
        ids = [c.id for c in cands]
        assert ids[0] == "O1M1"
        assert ids[1] == "O1M2"
        assert ids[4] == "O2M1"
        assert ids[-1] == "O4M4"
        assert len(set(ids)) == 16
        assert [c.enumeration_index for c in cands] == list(range(16))

    def test_flags(self):
        c = CandidateModel(m=2, o=3)
        assert c.alpha1_free and not c.alpha2_free
        assert not c.omega1_free and c.omega2_free
        c = CandidateModel(m=4, o=4)
        assert c.alpha1_free and c.alpha2_free and c.omega1_free and c.omega2_free
        c = CandidateModel(m=1, o=1)
        assert not any([c.alpha1_free, c.alpha2_free, c.omega1_free, c.omega2_free])

    def test_labels_and_counts(self):
        c = CandidateModel(m=3, o=2)
        assert c.mean_labels() == ("mu0", "mu1", "mu2", "alpha2")
        assert c.variance_labels() == ("omega0", "omega1")
        assert c.n_mean == 4
        assert c.n_variance == 2
        assert c.n_parameters == 7

    def test_masks_agree_with_flags_labels_and_counts(self):
        for c in enumerate_candidates():
            assert c.mean_columns.tolist() == [True, True, True, c.alpha1_free, c.alpha2_free]
            assert c.random_columns.tolist() == [True, c.omega1_free, c.omega2_free]
            alphas = ("alpha1",) * c.alpha1_free + ("alpha2",) * c.alpha2_free
            omegas = ("omega1",) * c.omega1_free + ("omega2",) * c.omega2_free
            assert c.mean_labels() == ("mu0", "mu1", "mu2") + alphas, c.id
            assert c.variance_labels() == ("omega0",) + omegas, c.id
            assert c.n_parameters == c.mean_columns.sum() + c.random_columns.sum() + 1
            # one read-only table entry, not a new array per read
            assert c.mean_columns is c.mean_columns and c.random_columns is c.random_columns
            assert not c.mean_columns.flags.writeable and not c.random_columns.flags.writeable

    def test_covers_have_one_optional_column_fewer(self):
        cands = enumerate_candidates()
        masks = {c: np.concatenate([c.mean_columns, c.random_columns]) for c in cands}
        for cand in cands:
            expected = []
            # alpha2, alpha1, then omega2, omega1: mean covers first, each
            # axis's in the order of its codes
            for column in (4, 3, 7, 6):
                if masks[cand][column]:
                    cleared = masks[cand].copy()
                    cleared[column] = False
                    (cover,) = [c for c in cands if np.array_equal(masks[c], cleared)]
                    expected.append(cover)
            assert cand.covers() == expected, cand.id
        assert CandidateModel(m=1, o=1).covers() == []
        ids = [c.id for c in CandidateModel(m=4, o=4).covers()]
        assert ids == ["O4M2", "O4M3", "O2M4", "O3M4"]

    def test_parameter_count_range(self):
        counts = sorted(c.n_parameters for c in enumerate_candidates())
        assert counts[0] == 5 and counts[-1] == 9

    def test_from_id_round_trip(self):
        for cand in enumerate_candidates():
            assert CandidateModel.from_id(cand.id) == cand
        assert CandidateModel.from_id(" o2m3 ") == CandidateModel(m=3, o=2)

    def test_from_id_rejects_garbage(self):
        for bad in ("O5M1", "O1M0", "M1O1", "O1", "", "O1M12"):
            with pytest.raises(ValueError):
                CandidateModel.from_id(bad)
        # a letter where a digit belongs is reported as a malformed id
        with pytest.raises(ValueError, match="must look like 'O2M1', got 'OXM1'"):
            CandidateModel.from_id("OXM1")

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            CandidateModel(m=0, o=1)
        with pytest.raises(ValueError):
            CandidateModel(m=1, o=5)

    def test_non_integer_codes_rejected(self):
        # True == 1 and 2.0 == 2, so membership alone would accept them
        # and they would print into the id as O1MTrue or O1M2.0
        for bad in (True, 2.0, "2"):
            with pytest.raises(ValueError, match="candidate indices"):
                CandidateModel(m=bad, o=1)
            with pytest.raises(ValueError, match="candidate indices"):
                CandidateModel(m=1, o=bad)


class TestBuildDesign:
    def test_full_candidate_columns(self):
        block = SubjectBlock(id="s", x=np.array([1.0, 2.0]), c=2.0, y=np.zeros(2))
        d = build_design(CandidateModel(m=4, o=4), block)
        np.testing.assert_array_equal(
            d.X, [[1.0, 1.0, 1.0, 2.0, 2.0], [1.0, 2.0, 4.0, 4.0, 8.0]]
        )
        np.testing.assert_array_equal(d.Z, [[1.0, 1.0, 1.0], [1.0, 2.0, 4.0]])

    def test_minimal_candidate_columns(self):
        block = SubjectBlock(id="s", x=np.array([3.0]), c=-1.0, y=np.zeros(1))
        d = build_design(CandidateModel(m=1, o=1), block)
        np.testing.assert_array_equal(d.X, [[1.0, 3.0, 9.0]])
        np.testing.assert_array_equal(d.Z, [[1.0]])

    def test_alpha2_only(self):
        block = SubjectBlock(id="s", x=np.array([2.0]), c=3.0, y=np.zeros(1))
        d = build_design(CandidateModel(m=3, o=3), block)
        np.testing.assert_array_equal(d.X, [[1.0, 2.0, 4.0, 12.0]])
        np.testing.assert_array_equal(d.Z, [[1.0, 4.0]])

    @pytest.mark.parametrize("x, c", [([3.0], -1.3), ([0.7, 2.2], 0.0), ([0.1, 1.7, 4.4], 2.9)])
    def test_mean_layout_rebuilds_every_x(self, x, c):
        block = SubjectBlock(id="s", x=np.array(x), c=c, y=np.zeros(len(x)))
        Z = build_design(CandidateModel(m=4, o=4), block).Z
        full = Z[:, MEAN_Z] * np.array([1.0, c])[MEAN_FACTOR]
        # O4M4's [1, x, x^2, c*x, c*x^2]
        assert full.tobytes() == np.column_stack([Z, c * Z[:, 1:]]).tobytes()
        for cand in enumerate_candidates():
            X = build_design(cand, block).X
            assert X.tobytes() == np.ascontiguousarray(full[:, cand.mean_columns]).tobytes()
        assert not MEAN_Z.flags.writeable and not MEAN_FACTOR.flags.writeable

    def test_shapes_match_counts(self):
        block = SubjectBlock(id="s", x=np.linspace(0, 10, 6), c=0.3, y=np.zeros(6))
        for cand in enumerate_candidates():
            d = build_design(cand, block)
            assert d.X.shape == (6, cand.n_mean)
            assert d.Z.shape == (6, cand.n_variance)


class TestTrueParameters:
    def test_free_values_selects_entries(self):
        truth = TrueParameters(
            mu=[1.0, 2.0, 3.0], alpha=[4.0, 5.0], omega2=[0.1, 0.2, 0.3], sigma2=1.5
        )
        beta, omega2, sigma2 = truth.free_values(CandidateModel(m=2, o=3))
        np.testing.assert_array_equal(beta, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(omega2, [0.1, 0.3])
        assert sigma2 == 1.5

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TrueParameters(mu=[1.0], alpha=[0.0, 0.0], omega2=[0.1, 0.0, 0.0], sigma2=1.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            TrueParameters(
                mu=[0.0, 0.0, 0.0], alpha=[0.0, 0.0], omega2=[-0.1, 0.0, 0.0], sigma2=1.0
            )


class TestSharedGrid:
    def test_endpoints_and_spacing(self):
        grid = shared_x_grid(5)
        np.testing.assert_allclose(grid, [0.0, 2.5, 5.0, 7.5, 10.0])
        assert grid[0] == 0.0 and grid[-1] == 10.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            shared_x_grid(1)


def simple_truth(**overrides):
    base = dict(
        mu=[1.0, 0.5, -0.25],
        alpha=[0.0, 0.0],
        omega2=[0.4, 0.0, 0.0],
        sigma2=1.0,
    )
    base.update(overrides)
    return TrueParameters(**base)


class TestGenerateDataset:
    def test_shape_and_shared_grid(self):
        design = SimulationDesign("t", 7, 4)
        data = generate_dataset(design, simple_truth(), seed=11)
        assert data.n_subjects == 7
        assert data.n_obs == 28
        for s in data.subjects:
            np.testing.assert_array_equal(s.x, shared_x_grid(4))

    def test_deterministic(self):
        design = SimulationDesign("t", 5, 3)
        a = generate_dataset(design, simple_truth(), seed=5)
        b = generate_dataset(design, simple_truth(), seed=5)
        for sa, sb in zip(a.subjects, b.subjects):
            np.testing.assert_array_equal(sa.y, sb.y)
            assert sa.c == sb.c

    def test_seed_changes_data(self):
        design = SimulationDesign("t", 5, 3)
        a = generate_dataset(design, simple_truth(), seed=5)
        b = generate_dataset(design, simple_truth(), seed=6)
        assert not np.array_equal(a.subjects[0].y, b.subjects[0].y)

    def test_subject_streams_independent_of_count(self):
        # adding subjects must not perturb the earlier ones
        truth = simple_truth()
        small = generate_dataset(SimulationDesign("t", 4, 3), truth, seed=9)
        large = generate_dataset(SimulationDesign("t", 9, 3), truth, seed=9)
        for ss, sl in zip(small.subjects, large.subjects):
            np.testing.assert_array_equal(ss.y, sl.y)
            assert ss.c == sl.c

    def test_noise_free_limit_lies_on_quadratic(self):
        truth = simple_truth(omega2=[0.0, 0.0, 0.0], sigma2=1e-30)
        design = SimulationDesign("t", 6, 5)
        data = generate_dataset(design, truth, seed=3)
        x = shared_x_grid(5)
        expected = truth.mu[0] + truth.mu[1] * x + truth.mu[2] * x * x
        for s in data.subjects:
            np.testing.assert_allclose(s.y, expected, atol=1e-12)

    def test_alpha_enters_through_c(self):
        # same seed, alpha toggled: y shifts by alpha * c * x exactly
        design = SimulationDesign("t", 4, 6)
        base = generate_dataset(design, simple_truth(), seed=21)
        shifted = generate_dataset(design, simple_truth(alpha=[2.0, 0.0]), seed=21)
        x = shared_x_grid(6)
        for sb, ss in zip(base.subjects, shifted.subjects):
            np.testing.assert_allclose(ss.y - sb.y, 2.0 * sb.c * x, atol=1e-12)

    def test_covariate_distribution(self):
        design = SimulationDesign("t", 400, 2)
        data = generate_dataset(design, simple_truth(), seed=17)
        c = data.c
        assert abs(c.mean()) < 0.15
        assert abs(c.std() - 1.0) < 0.15


def reference_dataset(design, truth, seed):
    """generate_dataset as two generators draw it, one subject's row at a time."""
    x = shared_x_grid(design.n_per_subject)
    xsq = x * x
    sd_eta, sd_eps = np.sqrt(truth.omega2), np.sqrt(truth.sigma2)
    draw, noise = substream(seed, 0), substream(seed, 1)
    out = []
    for _ in range(design.n_subjects):
        c = draw.normal(0.0, 1.0)
        eta = draw.normal(0.0, 1.0, size=3) * sd_eta
        psi0 = truth.mu[0] + eta[0]
        psi1 = truth.mu[1] + truth.alpha[0] * c + eta[1]
        psi2 = truth.mu[2] + truth.alpha[1] * c + eta[2]
        y = psi0 + psi1 * x + psi2 * xsq + sd_eps * noise.normal(0.0, 1.0, size=x.size)
        out.append((c, y))
    return out


class TestSubstream:
    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            substream(-1)
        with pytest.raises(TypeError):
            substream(1.5)

    @pytest.mark.parametrize("n_subjects", [1, 7, 100, 400])
    def test_generate_dataset_matches_substreams(self, n_subjects):
        truths = (
            simple_truth(omega2=[0.0, 0.0, 0.0], sigma2=0.7),
            simple_truth(alpha=[0.6, -0.2], omega2=[0.5, 0.02, 0.001], sigma2=1.3),
        )
        for n_per in (2, 5, 100):
            design = SimulationDesign("t", n_subjects, n_per)
            for truth in truths:
                for seed in (0, 2**63 - 1, 2**70 + 5):
                    data = generate_dataset(design, truth, seed)
                    expected = reference_dataset(design, truth, seed)
                    width = len(str(n_subjects))
                    assert [s.id for s in data.subjects] == [
                        f"s{i + 1:0{width}d}" for i in range(n_subjects)
                    ]
                    for block, (c, y) in zip(data.subjects, expected):
                        assert block.c == c
                        assert block.y.tobytes() == y.tobytes()
