"""Fit the sixteen candidate structures and let each criterion vote.

The generating model here is O2M2: a random intercept and a random
slope on x, plus a covariate effect on the slope.  Four information
criteria rank the candidates; they differ only in which sample size
pays the complexity penalty, and on moderate designs that difference
is enough to change the winner.
"""

from lmmbic.candidates import TrueParameters, generate_dataset
from lmmbic.criteria import CRITERIA, build_report, selection_summary, usable_reports
from lmmbic.estimation import fit_ml
from lmmbic.simulation import SimulationDesign

truth = TrueParameters(
    mu=[1.0, 0.8, -0.04],
    alpha=[0.5, 0.0],
    omega2=[0.6, 0.2, 0.0],
    sigma2=1.0,
)
design = SimulationDesign("demo", n_subjects=40, n_per_subject=10)
data = generate_dataset(design, truth, seed=11)
print(f"data: {data.n_subjects} subjects, {data.n_obs} observations, truth O2M2")
print()

# rank only the fits that neither raised nor stopped unconverged
reports, left_out = usable_reports(data, fit_ml, build_report)
for cand_id, reason in left_out.items():
    print(f"{cand_id} left out: {reason}")

# ranking table, one column per criterion
header = f"{'candidate':<10}{'loglik':>12}{'p':>4}" + "".join(
    f"{'BIC_' + c:>12}" for c in CRITERIA
)
print(header)
for report in reports:
    cells = "".join(f"{report.values[c]:>12.2f}" for c in CRITERIA)
    p = report.fit.candidate.n_parameters
    print(f"{report.candidate_id:<10}{report.loglik:>12.2f}{p:>4}{cells}")

print()
summary = selection_summary(reports)
ess = [report.fit.n_effective for report in reports]
print(
    f"sample sizes: N = {summary['N']}, n = {summary['n']}, "
    f"n_e between {min(ess):.1f} and {max(ess):.1f} depending on the candidate"
)
for crit in CRITERIA:
    ev = summary["evidence"][crit]
    print(
        f"BIC_{crit:<3} picks {summary['winners'][crit]}  "
        f"(over {ev['runner_up']}, delta = {ev['delta']:.2f}, {ev['delta_label']})"
    )
