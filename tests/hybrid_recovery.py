"""Which generating structures the hybrid criterion BIC_h can recover.

BIC_h charges a candidate r ln N + f ln n, where r and f count its
theta_R and theta_F parameters (`lmmbic.criteria.partition_parameters`).
A candidate that strictly nests the truth never has a lower maximized
log-likelihood, so whenever its hybrid penalty is no larger than the
truth's, BIC_h prefers it over the truth on almost every dataset.

Freeing omega_k^2 moves mu_k (and alpha_k, when it is in the mean) from
theta_F into theta_R, so that upgrade changes the penalty by
(2 + a_k) ln N - (1 + a_k) ln n, with a_k = 1 when alpha_k is free.
Whether a truth is recoverable therefore depends on the design sizes.

Shared by the acceptance study check and the criteria and estimation
unit tests; it is test support, not part of the package.
"""

from __future__ import annotations

from fractions import Fraction

from lmmbic.candidates import CandidateModel, enumerate_candidates
from lmmbic.criteria import partition_parameters
from lmmbic.simulation import SimulationDesign


def sample_sizes(design: SimulationDesign) -> tuple[int, int]:
    """(N subjects, n observations) of a study design."""
    return design.n_subjects, design.n_subjects * design.n_per_subject


def penalty_ratio(
    outer: CandidateModel, inner: CandidateModel, n_subjects: int, n_obs: int
) -> Fraction:
    """N^dr * n^df as an exact Fraction, for the differences dr and df in
    theta_R and theta_F parameters from inner to outer: BIC_h charges
    outer more than inner when it is above 1, as much when it is 1.
    Exact, since design d sits on the tie 2 ln N == ln n, which
    floating-point logs need not keep."""
    a, b = partition_parameters(outer), partition_parameters(inner)
    return (Fraction(n_subjects) ** (a.n_random - b.n_random)
            * Fraction(n_obs) ** (a.n_fixed - b.n_fixed))


def _nesting_signs(truth: CandidateModel, design: SimulationDesign) -> list[int]:
    """Sign (-1, 0, +1) of each strictly nesting candidate's hybrid
    penalty minus the truth's (penalty_ratio against 1)."""
    signs = []
    for outer in enumerate_candidates():
        nests = (
            outer != truth
            and set(truth.mean_labels()) <= set(outer.mean_labels())
            and set(truth.variance_labels()) <= set(outer.variance_labels())
        )
        if nests:
            ratio = penalty_ratio(outer, truth, *sample_sizes(design))
            signs.append((ratio > 1) - (ratio < 1))
    return signs


def recoverable_truths(design: SimulationDesign) -> tuple[str, ...]:
    """Truths whose every strictly nesting candidate pays a strictly larger penalty."""
    return tuple(
        truth.id
        for truth in enumerate_candidates()
        if all(sign > 0 for sign in _nesting_signs(truth, design))
    )


def cheaper_upgrade_truths(design: SimulationDesign) -> tuple[str, ...]:
    """Truths with a strictly nesting candidate that pays a strictly smaller penalty."""
    return tuple(
        truth.id
        for truth in enumerate_candidates()
        if any(sign < 0 for sign in _nesting_signs(truth, design))
    )
