"""Independence tests for failure time vs. failure cause in two-cause
competing risks data: an empirical-likelihood test calibrated against
chi-square(1), a normal-calibrated concordance test, a parametric sampler
with tunable dependence, and a Monte Carlo rejection-rate harness.

``import crtest`` runs this file alone: every public name imports its
module on first use, so ``crtest test`` never loads the harness.
"""

__version__ = "0.8.0"

import importlib

# every public name by the submodule that defines it: __getattr__
# imports it on a name's first access and caches the value as a global
_LAZY = {
    **dict.fromkeys(("Sample",), "data"),
    **dict.fromkeys(("FamilyParams", "rng_from_seed", "sample", "true_delta"), "datagen"),
    **dict.fromkeys(("DdkTestResult", "ddk_test"), "ddk"),
    **dict.fromkeys(("CrtestError", "DegenerateSample", "DomainError", "NegativeTime",
                     "NoConvergence", "ParseError", "SampleTooSmall", "UnmappedLabel"), "errors"),
    **dict.fromkeys(("IngestResult", "IngestSpec", "ingest"), "reader"),
    **dict.fromkeys(("ElSolution", "JelTestResult", "jel_statistic", "jel_test"), "jel"),
    **dict.fromkeys(("SimCell", "SimConfig", "SimTable", "run", "to_csv", "to_json"), "mc"),
    **dict.fromkeys(("chisq1_cdf", "chisq1_quantile", "chisq1_sf", "normal_cdf",
                     "normal_quantile"), "specialfn"),
    **dict.fromkeys(("JackknifeSet", "delta_hat", "jackknife"), "ustat"),
}

__all__ = ["__version__", *_LAZY]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
