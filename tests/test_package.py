import ast
import importlib
import re
from pathlib import Path

from numpy.random.bit_generator import ISeedSequence

import crtest
from crtest.data import Record


# the public names of crtest 0.8.0
EXPORTS = {
    "__version__", "Sample", "FamilyParams", "rng_from_seed", "sample", "true_delta",
    "DdkTestResult", "ddk_test", "CrtestError", "DegenerateSample", "DomainError",
    "NegativeTime", "NoConvergence", "ParseError", "SampleTooSmall",
    "UnmappedLabel", "IngestResult", "IngestSpec", "ingest", "ElSolution", "JelTestResult",
    "jel_statistic", "jel_test", "SimCell", "SimConfig", "SimTable", "run",
    "to_csv", "to_json", "chisq1_cdf", "chisq1_quantile", "chisq1_sf", "normal_cdf",
    "normal_quantile", "JackknifeSet", "delta_hat", "jackknife",
}


def test_all_lists_each_public_name_once():
    assert len(crtest.__all__) == len(set(crtest.__all__))
    assert set(crtest.__all__) == EXPORTS


def test_import_runs_the_package_alone(fresh):
    proc = fresh("-c", "\n".join([
        "import sys",
        "import crtest",
        "loaded = {m for m in sys.modules if m.split('.')[0] == 'crtest'}",
        "assert loaded == {'crtest'}, sorted(loaded)",
        "assert 'numpy' not in sys.modules",
    ]))
    assert proc.returncode == 0, proc.stderr


def test_no_submodule_import_hides_a_public_name(fresh):
    # importing crtest.<module> binds the package attribute <module>, so no
    # module may share a name with a public one
    proc = fresh("-c", "\n".join([
        "import importlib, sys",
        "from pathlib import Path",
        "import crtest",
        "src = Path(crtest.__file__).parent",
        "stems = sorted(p.stem for p in src.glob('*.py') if p.stem not in ('__init__', '__main__'))",
        "for stem in stems:",
        "    importlib.import_module(f'crtest.{stem}')",
        "for name in crtest.__all__[1:]:",
        "    home = sys.modules[f'crtest.{crtest._LAZY[name]}']",
        "    assert getattr(crtest, name) is getattr(home, name), name",
        "assert isinstance(crtest.__version__, str)",
    ]))
    assert proc.returncode == 0, proc.stderr


def test_lazy_names_behave_like_eager_ones(fresh):
    # in a fresh interpreter, before any harness name is used
    proc = fresh("-c", "\n".join([
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
    ]))
    assert proc.returncode == 0, proc.stderr


def test_every_module_level_definition_is_public_or_used():
    # a function or class that only tests call is oracle code: it belongs
    # in tests/oracles.py, not in the package
    src = Path(crtest.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    # console entry points name their function as "crtest.<module>:<name>"
    pyproject = (src.parents[1] / "pyproject.toml").read_text()
    entry_points = set(re.findall(r'"crtest\.\w+:(\w+)"', pyproject))

    def names(nodes) -> set[str]:
        found = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    found.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    found.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    found.add(sub.name)
        return found

    unused = []
    for module, tree in trees.items():
        elsewhere = names(t for other, t in trees.items() if other != module)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            used = elsewhere | names(other for other in tree.body if other is not node)
            if name not in crtest._LAZY and name not in used | entry_points:
                unused.append(f"{module}:{name}")
    assert not unused, unused


def test_every_class_is_a_record_or_an_exception():
    # one design per job: values derive from data.Record and errors from
    # Exception; datagen's seed words implement numpy's seed protocol
    bases = (Record, Exception, ISeedSequence)
    src = Path(crtest.__file__).parent
    others = []
    for path in sorted(src.glob("*.py")):
        classes = [node.name for node in ast.parse(path.read_text()).body
                   if isinstance(node, ast.ClassDef)]
        if classes:
            module = importlib.import_module(f"crtest.{path.stem}")
            others += [f"{path.name}:{name}" for name in classes
                       if not issubclass(getattr(module, name), bases)]
    assert not others, others
