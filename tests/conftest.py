import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture
def fresh():
    """A function that runs ``python *args`` in a new interpreter and returns
    the completed process, its output captured as text.

    The interpreter imports this checkout's crtest: it starts in the
    checkout's ``src``, which ``-c`` and ``-m`` put first on ``sys.path``.
    It runs outside the suite's warning filters, so a script may fork next
    to threads, which Python 3.12+ reports with a DeprecationWarning.
    """
    import crtest

    src = Path(crtest.__file__).resolve().parents[1]

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], cwd=src, capture_output=True, text=True,
                              timeout=300)

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the one-line-per-criterion acceptance summary at the end."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for line in results:
        terminalreporter.write_line(line)
