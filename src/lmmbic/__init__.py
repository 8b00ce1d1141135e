"""Model selection for linear mixed-effects models.

Fits a family of quadratic growth-curve structures by maximum
likelihood and ranks them under four BIC-type criteria whose penalties
differ in what they count as the sample size: subjects, observations,
the effective sample size implied by the fitted correlation structure,
or a hybrid that charges subject-level parameters and population-level
parameters separately.  The Monte-Carlo harness that measures how often
each criterion recovers the generating structure lives in
lmmbic.simulation, and its report files in lmmbic.report.

The package root imports nothing, so that it loads no numpy: import
each name from its module, as in `from lmmbic.estimation import fit_ml`.
"""

__version__ = "0.1.0"
