"""Model selection for linear mixed-effects models.

Fits a family of quadratic growth-curve structures by maximum
likelihood and ranks them under four BIC-type criteria whose penalties
differ in what they count as the sample size: subjects, observations,
the effective sample size implied by the fitted correlation structure,
or a hybrid that charges subject-level parameters and population-level
parameters separately.  The Monte-Carlo harness that measures how often
each criterion recovers the generating structure lives in
lmmbic.simulation, and its report files in lmmbic.report.
"""

from .candidates import CandidateModel, TrueParameters, enumerate_candidates, generate_dataset
from .criteria import CRITERIA, build_report, criterion_value, selection_summary
from .data import read_dataset
from .estimation import effective_sample_size, fit_ml
from .model import magnitude

__version__ = "0.1.0"

__all__ = [
    "CRITERIA",
    "CandidateModel",
    "TrueParameters",
    "build_report",
    "criterion_value",
    "effective_sample_size",
    "enumerate_candidates",
    "fit_ml",
    "generate_dataset",
    "magnitude",
    "read_dataset",
    "selection_summary",
    "__version__",
]
