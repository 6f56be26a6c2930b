"""Argument checks shared by the public entry points.

Each check returns the value as a plain Python type, so the records built
from it stay JSON-ready whether the caller passed a Python, numpy or 0-d
array value, and raises ``ValueError`` for anything it does not accept.
"""

from __future__ import annotations

import sys

import numpy as np

# Largest R*n stack one harness task holds, and so the largest sample size
# the harness takes: bounds a task's memory whatever the replication count,
# while keeping numpy's per-call overhead amortised.  Kept here, where the
# CLI's help text finds it without loading the harness.
BLOCK_ELEMS = 1 << 14


def real(value, name: str, lo: float, hi: float, ends: str = "[]", what: str | None = None) -> float:
    """A real scalar between ``lo`` and ``hi``; ``ends`` gives the interval's
    brackets, ``[``/``]`` for a closed end and ``(``/``)`` for an open one.

    ``what`` replaces the description of the range in the error message.
    """
    a = np.asarray(value)
    # kind f, i or u: bools, strings, complex and object values are refused,
    # and NaN fails every comparison
    if a.ndim == 0 and a.dtype.kind in "fiu":
        x = float(a)
        if (lo <= x if ends[0] == "[" else lo < x) and (x <= hi if ends[1] == "]" else x < hi):
            return x
    if what is None:
        what = f"a real number in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
    raise ValueError(f"{name} must be {what}, got {value!r}")


def reals(values, name: str) -> np.ndarray:
    """A 1-d array of real numbers, as a new float64 array.

    Bool, string, complex and object values are refused, and so is a bool
    in a list or tuple of numbers, which numpy would promote to a number.
    """
    a = np.array(values)
    # a type-set scan costs a fraction of a per-element test, which only a
    # list holding a bool or an array needs; an array input's dtype tells
    odd = isinstance(values, (list, tuple)) and {bool, np.bool_, np.ndarray} & set(map(type, values))
    if a.ndim != 1 or a.dtype.kind not in "fiu" or odd and any(
            np.asarray(v).dtype == bool for v in values):
        raise ValueError(f"{name} must be a 1-d array of real numbers")
    return a.astype(np.float64, copy=False)


def level(value, name: str = "alpha") -> float:
    """A significance level: a real scalar in [2**-52, 1).

    Below 2**-52, 1 - alpha rounds to 1, where the critical values'
    quantile functions are undefined.
    """
    x = real(value, name, 0.0, 1.0, "()")
    if x < sys.float_info.epsilon:
        raise ValueError(f"{name} must be at least 2**-52, got {value!r}")
    return x


def integer(value, name: str, lo: int = 0, hi: int | None = None, what: str | None = None) -> int:
    """An integer in [lo, hi], unbounded above when ``hi`` is None: an
    ``int``, numpy integer or 0-d integer array, never a ``bool`` or a float.

    ``what`` replaces the description of the range in the error message.
    """
    a = np.asarray(value)
    # type() is exact, so a bool is not taken for an int; an int too large
    # for any numpy integer type, which numpy holds as an object, still is one
    if type(value) is int or a.ndim == 0 and a.dtype.kind in "iu":
        x = int(a)
        if lo <= x and (hi is None or x <= hi):
            return x
    if what is None:
        what = (f"an integer in [{lo}, {hi}]" if hi is not None
                else "a nonnegative integer" if lo == 0 else f"an integer >= {lo}")
    raise ValueError(f"{name} must be {what}, got {value!r}")


def flag(value, name: str) -> bool:
    """A yes/no switch: ``bool`` or ``numpy.bool_``, nothing merely truthy."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{name} must be a bool, got {value!r}")


def items(values, name: str) -> tuple:
    """The members of a collection, as a tuple; a bare ``str`` or ``bytes``,
    which would be split into characters, or anything not iterable is refused."""
    if not isinstance(values, (str, bytes)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a collection of values, got {values!r}")
