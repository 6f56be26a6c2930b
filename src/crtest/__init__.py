"""Independence tests for failure time vs. failure cause in two-cause
competing risks data: an empirical-likelihood test calibrated against
chi-square(1), a normal-calibrated concordance test, a parametric sampler
with tunable dependence, and a Monte Carlo rejection-rate harness.

The statistic path (``data``, ``errors``, ``ingest``, ``jel``, ``specialfn``,
``ustat``) loads with the package; the names from the harness side
(``datagen``, ``ddk``, ``mc``) load their module on first use, so
``crtest test`` never loads the harness.
"""

__version__ = "0.3.0"

import importlib

from .data import Sample
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
from .ingest import IngestResult, IngestSpec, ingest
from .jel import ElSolution, JelTestResult, jel_statistic, jel_test, solve_lambda
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

# the harness-side names by the submodule that defines them: __getattr__
# imports it on a name's first access and caches the value as a global
_LAZY = {
    **dict.fromkeys(("FamilyParams", "rng_from_seed", "sample", "true_delta"), "datagen"),
    **dict.fromkeys(("DdkTestResult", "ddk_test", "ddk_z"), "ddk"),
    **dict.fromkeys(("SimCell", "SimConfig", "SimTable", "run", "to_csv", "to_json"), "mc"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
