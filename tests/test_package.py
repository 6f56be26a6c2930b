import subprocess
import sys
from pathlib import Path

import crtest


# the public names of crtest 0.5.0
EXPORTS = {
    "__version__", "Sample", "FamilyParams", "rng_from_seed", "sample", "true_delta",
    "DdkTestResult", "ddk_test", "ddk_z", "CrtestError", "DegenerateSample", "DomainError",
    "HullViolation", "NegativeTime", "NoConvergence", "ParseError", "SampleTooSmall",
    "UnmappedLabel", "IngestResult", "IngestSpec", "ingest", "ElSolution", "JelTestResult",
    "jel_statistic", "jel_test", "solve_lambda", "SimCell", "SimConfig", "SimTable", "run",
    "to_csv", "to_json", "chisq1_cdf", "chisq1_quantile", "chisq1_sf", "normal_cdf",
    "normal_quantile", "JackknifeSet", "delta_hat", "jackknife",
}


def run_fresh(*lines: str) -> None:
    """Run ``lines`` in a new interpreter that imports this checkout's crtest:
    ``-c`` puts the working directory, this checkout's ``src``, first on
    ``sys.path``."""
    src = Path(crtest.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], cwd=src, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_all_lists_each_public_name_once():
    assert len(crtest.__all__) == len(set(crtest.__all__))
    assert set(crtest.__all__) == EXPORTS


def test_import_loads_ingest_and_its_imports_only():
    run_fresh(
        "import sys",
        "import crtest",
        "loaded = {m for m in sys.modules if m.split('.')[0] == 'crtest'}",
        "expected = {'crtest', 'crtest._checks', 'crtest.data', 'crtest.errors', 'crtest.ingest'}",
        "assert loaded == expected, sorted(loaded)",
    )


def test_ingest_stays_the_function_after_its_module_is_imported():
    run_fresh(
        "import crtest.ingest",
        "import crtest",
        "from crtest import ingest",
        "assert crtest.ingest is ingest, ingest",
        "assert callable(ingest) and ingest.__module__ == 'crtest.ingest', ingest",
    )


def test_lazy_names_behave_like_eager_ones():
    # in a fresh interpreter, before any harness name is used
    run_fresh(
        "import importlib, sys",
        "import crtest",
        "assert not {'crtest.mc', 'crtest.datagen', 'crtest.ddk'} & set(sys.modules)",
        "missing = set(crtest.__all__) - set(dir(crtest))",
        "assert not missing, missing",
        "for name in crtest.__all__[1:]:",
        "    value = getattr(crtest, name)",
        "    home = importlib.import_module(value.__module__)",
        "    assert home.__name__.startswith('crtest.'), (name, home)",
        "    assert getattr(home, name) is value, name",
        "namespace = {}",
        "exec('from crtest import *', namespace)",
        "assert all(namespace[name] is getattr(crtest, name) for name in crtest.__all__)",
        "try:",
        "    crtest.no_such_name",
        "except AttributeError as exc:",
        "    assert 'no_such_name' in str(exc), exc",
        "else:",
        "    raise AssertionError('crtest.no_such_name resolved')",
        "assert not hasattr(crtest, 'no_such_name')",
    )
