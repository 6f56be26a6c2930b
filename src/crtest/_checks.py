"""Argument checks shared by the public entry points.

Each check returns the value as a plain Python type, so the records built
from it stay JSON-ready whether the caller passed a Python, numpy or 0-d
array value, and raises ``ValueError`` for anything it does not accept.
"""

from __future__ import annotations

import numpy as np


def level(value, name: str = "alpha") -> float:
    """A significance level: a real scalar strictly inside (0, 1)."""
    a = np.asarray(value)
    # kind f, i or u: bools, strings, complex and object values are refused
    if a.ndim == 0 and a.dtype.kind in "fiu" and 0.0 < float(a) < 1.0:
        return float(a)
    raise ValueError(f"{name} must be a real number in (0, 1), got {value!r}")


def flag(value, name: str) -> bool:
    """A yes/no switch: ``bool`` or ``numpy.bool_``, nothing merely truthy."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{name} must be a bool, got {value!r}")
