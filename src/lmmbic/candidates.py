"""The sixteen candidate structures for the quadratic growth model.

Each subject's response is quadratic in the within-subject covariate,
with subject-specific coefficients:

    y_ij = psi_i0 + psi_i1 * x_ij + psi_i2 * x_ij**2 + eps_ij

    psi_i0 = mu0                + eta_i0
    psi_i1 = mu1 + alpha1 * c_i + eta_i1
    psi_i2 = mu2 + alpha2 * c_i + eta_i2

where eta_ik ~ N(0, omega_k^2) are subject random effects and eps is
white noise with variance sigma2.  A candidate toggles alpha1/alpha2 in
the mean (structures M1..M4) and the variances omega1^2/omega2^2
(structures O1..O4); the intercept variance omega0^2 is always free.

Expanding the coefficients gives the fixed-effect regressors
[1, x, x^2] plus c*x and/or c*x^2, and the random-effect regressors
[1] plus x and/or x^2, which is what build_design assembles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from numbers import Integral

import numpy as np

from .data import Dataset, SubjectBlock, _readonly
from .rng import substream

X_RANGE = (0.0, 10.0)

# Which of an axis's two optional terms a candidate keeps, by its m or o:
# 1 neither, 2 the first, 3 the second, 4 both.
_OPTIONAL = {1: (False, False), 2: (True, False), 3: (False, True), 4: (True, True)}
_MEAN_COLUMNS = {
    code: _readonly((True, True, True) + pair, dtype=bool) for code, pair in _OPTIONAL.items()
}
_RANDOM_COLUMNS = {code: _readonly((True,) + pair, dtype=bool) for code, pair in _OPTIONAL.items()}
# O4M4's mean columns 1, x, x^2, c*x and c*x^2 as Z's [1, x, x^2] times a
# factor in (1, c): MEAN_Z holds each column's Z column, MEAN_FACTOR the
# index of its factor.
MEAN_Z = _readonly([0, 1, 2, 1, 2], dtype=int)
MEAN_FACTOR = _readonly([0, 0, 0, 1, 1], dtype=int)


@dataclass(frozen=True)
class CandidateModel:
    """One mean/variance structure, identified as O{o}M{m}.

    m selects which alpha terms enter the mean: 1 neither, 2 only
    alpha1, 3 only alpha2, 4 both.  o selects which slope variances are
    free, with the same coding for omega1^2/omega2^2.

    A candidate is O4M4 with some columns removed: the read-only masks
    mean_columns (5,) over X's [1, x, x^2, c*x, c*x^2] and random_columns
    (3,) over Z's [1, x, x^2] (see build_design) mark those it keeps, and
    its labels, counts and designs follow them in O4M4's column order.
    covers() lists the candidates with one optional column fewer.
    """

    m: int
    o: int

    def __post_init__(self) -> None:
        # True or 2.0 would compare equal to a code and print into the id
        for code in (self.m, self.o):
            if isinstance(code, bool) or not isinstance(code, Integral) or code not in (1, 2, 3, 4):
                raise ValueError(f"candidate indices must be in 1..4, got m={self.m}, o={self.o}")

    @property
    def id(self) -> str:
        return f"O{self.o}M{self.m}"

    @classmethod
    def from_id(cls, text: str) -> "CandidateModel":
        text = text.strip().upper()
        if len(text) != 4 or text[0] != "O" or text[2] != "M":
            raise ValueError(f"candidate id must look like 'O2M1', got {text!r}")
        try:
            o, m = int(text[1]), int(text[3])
        except ValueError:
            raise ValueError(f"candidate id must look like 'O2M1', got {text!r}") from None
        return cls(m=m, o=o)

    @property
    def alpha1_free(self) -> bool:
        return _OPTIONAL[self.m][0]

    @property
    def alpha2_free(self) -> bool:
        return _OPTIONAL[self.m][1]

    @property
    def omega1_free(self) -> bool:
        return _OPTIONAL[self.o][0]

    @property
    def omega2_free(self) -> bool:
        return _OPTIONAL[self.o][1]

    @property
    def mean_columns(self) -> np.ndarray:
        return _MEAN_COLUMNS[self.m]

    @property
    def random_columns(self) -> np.ndarray:
        return _RANDOM_COLUMNS[self.o]

    def covers(self) -> list[CandidateModel]:
        """The candidates with one optional column fewer, mean covers
        first; for O4M4: O4M2, O4M3, O2M4, O3M4."""
        fewer = {1: (), 2: (1,), 3: (1,), 4: (2, 3)}
        return [CandidateModel(m=m, o=self.o) for m in fewer[self.m]] + [
            CandidateModel(m=self.m, o=o) for o in fewer[self.o]
        ]

    def mean_labels(self) -> tuple[str, ...]:
        return tuple(compress(("mu0", "mu1", "mu2", "alpha1", "alpha2"), self.mean_columns))

    def variance_labels(self) -> tuple[str, ...]:
        return tuple(compress(("omega0", "omega1", "omega2"), self.random_columns))

    @property
    def n_mean(self) -> int:
        return int(np.count_nonzero(self.mean_columns))

    @property
    def n_variance(self) -> int:
        return int(np.count_nonzero(self.random_columns))

    @property
    def n_parameters(self) -> int:
        """Free parameters in total: means, variances and sigma2."""
        return self.n_mean + self.n_variance + 1

    @property
    def enumeration_index(self) -> int:
        return (self.o - 1) * 4 + (self.m - 1)


def enumerate_candidates() -> list[CandidateModel]:
    """All sixteen candidates, O varying slowest: O1M1, O1M2, ..., O4M4."""
    return [CandidateModel(m=m, o=o) for o in (1, 2, 3, 4) for m in (1, 2, 3, 4)]


@dataclass(frozen=True, eq=False)
class DesignBlocks:
    """Per-subject design matrices: X for the mean, Z for the random effects."""

    X: np.ndarray
    Z: np.ndarray


def build_design(candidate: CandidateModel, block: SubjectBlock) -> DesignBlocks:
    """Assemble X_i and Z_i for one subject under one candidate.

    Column order is fixed: X_i holds [1, x, x^2], then c*x when alpha1
    is in the mean, then c*x^2 when alpha2 is; Z_i holds [1], then x
    when omega1^2 is free, then x^2 when omega2^2 is.  These are O4M4's
    X_i = [1, x, x^2, c*x, c*x^2] and Z_i = [1, x, x^2] without the
    columns the candidate lacks.
    """
    x = block.x
    Z = np.column_stack([np.ones_like(x), x, x * x])
    X = (Z[:, MEAN_Z] * np.array([1.0, block.c])[MEAN_FACTOR])[:, candidate.mean_columns]
    return DesignBlocks(X=_readonly(X), Z=_readonly(Z[:, candidate.random_columns]))


@dataclass(frozen=True, eq=False)
class TrueParameters:
    """A full generating parameter set; entries absent from the
    generating structure are stored as exact zeros.

    Attributes:
        mu: (mu0, mu1, mu2).
        alpha: (alpha1, alpha2).
        omega2: (omega0^2, omega1^2, omega2^2).
        sigma2: noise variance.
    """

    mu: np.ndarray
    alpha: np.ndarray
    omega2: np.ndarray
    sigma2: float

    def __post_init__(self) -> None:
        mu, alpha, omega2 = _readonly(self.mu), _readonly(self.alpha), _readonly(self.omega2)
        if mu.shape != (3,) or alpha.shape != (2,) or omega2.shape != (3,):
            raise ValueError("expected shapes: mu (3,), alpha (2,), omega2 (3,)")
        if np.any(omega2 < 0) or self.sigma2 <= 0:
            raise ValueError("variances must be non-negative and sigma2 positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "omega2", omega2)
        object.__setattr__(self, "sigma2", float(self.sigma2))

    def free_values(self, candidate: CandidateModel) -> tuple[np.ndarray, np.ndarray, float]:
        """The (beta, omega2, sigma2) triple seen by `candidate`.

        beta follows the X column order of build_design; omega2 follows
        the Z column order.  Only meaningful when this parameter set is
        compatible with the candidate (zeros where the candidate has no
        term).
        """
        beta = np.concatenate([self.mu, self.alpha])[candidate.mean_columns]
        return beta, self.omega2[candidate.random_columns], self.sigma2


def shared_x_grid(n_per_subject: int) -> np.ndarray:
    """Observation times common to every subject: equally spaced over
    [0, 10] including both endpoints."""
    if n_per_subject < 2:
        raise ValueError("need at least two observations per subject")
    return np.linspace(X_RANGE[0], X_RANGE[1], n_per_subject)


@dataclass(frozen=True)
class SimulationDesign:
    """A study cell size: N subjects, each observed n_per_subject times."""

    label: str
    n_subjects: int
    n_per_subject: int


# a design's position keys its replicates' draws: append new designs, never insert them
DESIGNS = {
    "a": SimulationDesign("a", 20, 5),
    "b": SimulationDesign("b", 20, 100),
    "c": SimulationDesign("c", 100, 5),
    "d": SimulationDesign("d", 100, 100),
}


def generate_dataset(design: SimulationDesign, truth: TrueParameters, seed: int) -> Dataset:
    """Simulate one dataset from `truth` on the given design.

    Two Philox substreams hold every draw: (seed, 0) gives each subject's
    covariate and three random effects as one (N, 4) standard-normal
    block, and (seed, 1) its noise vectors as one (N, n) block.  A block
    is filled row by row, so subject i's draws do not depend on how many
    subjects follow it, and the result is reproducible from the seed.
    Random-effect draws are always taken for all three components and
    scaled by the stored standard deviations, which keeps the stream
    layout identical across generating structures.
    """
    x = shared_x_grid(design.n_per_subject)
    xsq = x * x
    sd_eta = np.sqrt(truth.omega2)
    sd_eps = np.sqrt(truth.sigma2)
    N = design.n_subjects
    first = substream(seed, 0).normal(0.0, 1.0, size=(N, 4))  # c, then the three eta
    noise = substream(seed, 1).normal(0.0, 1.0, size=(N, x.size))
    c = first[:, 0]
    eta = first[:, 1:] * sd_eta
    psi0 = truth.mu[0] + eta[:, 0]
    psi1 = truth.mu[1] + truth.alpha[0] * c + eta[:, 1]
    psi2 = truth.mu[2] + truth.alpha[1] * c + eta[:, 2]
    y = psi0[:, None] + psi1[:, None] * x + psi2[:, None] * xsq + sd_eps * noise
    width = len(str(N))
    ids = [f"s{i + 1:0{width}d}" for i in range(N)]
    return Dataset.from_columns(ids, np.full(N, x.size), c, np.tile(x, N), y.ravel())
