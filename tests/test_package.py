import os
import subprocess
import sys
from pathlib import Path

import crtest


def test_lazy_names_behave_like_eager_ones():
    # in a fresh interpreter, before any harness name is used
    src = str(Path(crtest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "\n".join([
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
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
