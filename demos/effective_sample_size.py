"""How many independent observations is clustered data worth?

Repeated measurements on the same subject are correlated, so n raw
observations carry less information than n independent ones.  This
script walks the effective sample size n_e through its two extremes:
with no within-subject correlation it equals the observation count n,
and with perfect correlation it collapses to the subject count N.
"""

import numpy as np

from lmmbic.candidates import CandidateModel, TrueParameters, generate_dataset
from lmmbic.estimation import effective_sample_size, fit_ml
from lmmbic.model import magnitude
from lmmbic.simulation import SimulationDesign

# ---------------------------------------------------------------------
# The building block: one cluster's worth of information.
#
# For a correlation matrix R the information content of the cluster is
# ones @ inv(R) @ ones.  An identity matrix (independent rows) is worth
# its full size; correlation discounts it.
# ---------------------------------------------------------------------

n_per = 5
print(f"one cluster of {n_per} observations, exchangeable correlation rho:")
for rho in (0.0, 0.2, 0.5, 0.8, 0.99):
    R = np.full((n_per, n_per), rho)
    np.fill_diagonal(R, 1.0)
    worth = magnitude(R)
    closed_form = n_per / (1.0 + (n_per - 1) * rho)
    print(f"  rho = {rho:4.2f}   worth = {worth:6.3f}   closed form = {closed_form:6.3f}")

print()
print("rho -> 0 recovers the cluster size, rho -> 1 leaves a single")
print("effective observation per cluster.")
print()

# ---------------------------------------------------------------------
# The same idea on a fitted model.
#
# Simulate 30 subjects, 8 observations each, from a random-intercept
# truth.  The fitted model implies a correlation matrix per subject;
# summing the per-subject magnitudes gives n_e.
# ---------------------------------------------------------------------

design = SimulationDesign("demo", n_subjects=30, n_per_subject=8)

for omega0 in (0.05, 0.5, 5.0):
    truth = TrueParameters(
        mu=[1.0, 0.5, -0.05],
        alpha=[0.0, 0.0],
        omega2=[omega0, 0.0, 0.0],
        sigma2=1.0,
    )
    data = generate_dataset(design, truth, seed=7)
    fit = fit_ml(CandidateModel.from_id("O1M1"), data)
    n_e = effective_sample_size(fit)
    icc = fit.theta_hat.omega2[0] / (fit.theta_hat.omega2[0] + fit.theta_hat.sigma2)
    print(
        f"true omega0^2 = {omega0:4.2f}   fitted ICC = {icc:5.3f}   "
        f"N = {data.n_subjects}   n_e = {n_e:7.2f}   n = {data.n_obs}"
    )

print()
print("n_e always lands between the subject count and the observation")
print("count, sliding toward N as the within-subject correlation grows.")
