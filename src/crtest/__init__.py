"""Independence tests for failure time vs. failure cause in two-cause
competing risks data: an empirical-likelihood test calibrated against
chi-square(1), a normal-calibrated concordance test, a parametric sampler
with tunable dependence, and a Monte Carlo rejection-rate harness.
"""

__version__ = "0.2.0"

from .data import Sample
from .datagen import FamilyParams, rng_from_seed, sample, true_delta
from .ddk import DdkTestResult, ddk_test, ddk_z
from .errors import (
    CrtestError,
    DegenerateSample,
    DomainError,
    HullViolation,
    NegativeTime,
    NoConvergence,
    ParseError,
    SampleTooSmall,
    UnmappedLabel,
)
from .ingest import IngestResult, IngestSpec, RunReport, ingest
from .jel import ElSolution, JelTestResult, jel_statistic, jel_test, solve_lambda
from .mc import SimCell, SimConfig, SimTable, run, to_csv, to_json
from .specialfn import (
    chisq1_cdf,
    chisq1_quantile,
    chisq1_sf,
    normal_cdf,
    normal_quantile,
)
from .ustat import JackknifeSet, delta_hat, jackknife

__all__ = [
    "__version__",
    "Sample",
    "FamilyParams",
    "rng_from_seed",
    "sample",
    "true_delta",
    "DdkTestResult",
    "ddk_test",
    "ddk_z",
    "CrtestError",
    "DegenerateSample",
    "DomainError",
    "HullViolation",
    "NegativeTime",
    "NoConvergence",
    "ParseError",
    "SampleTooSmall",
    "UnmappedLabel",
    "IngestResult",
    "IngestSpec",
    "RunReport",
    "ingest",
    "ElSolution",
    "JelTestResult",
    "jel_statistic",
    "jel_test",
    "solve_lambda",
    "SimCell",
    "SimConfig",
    "SimTable",
    "run",
    "to_csv",
    "to_json",
    "chisq1_cdf",
    "chisq1_quantile",
    "chisq1_sf",
    "normal_cdf",
    "normal_quantile",
    "JackknifeSet",
    "delta_hat",
    "jackknife",
]
