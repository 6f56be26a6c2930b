"""The sample container for two-cause competing risks data.

A sample is n failure times, each paired with which of two competing causes
produced it.  :meth:`Sample.from_arrays` is its one constructor: it validates
once and then hands out read-only numpy views, so the statistics modules
never re-check inputs.
"""

from __future__ import annotations

import numpy as np

from ._checks import reals


class Sample:
    """Immutable, validated failure times and causes.

    Construction order is preserved; nothing here assumes sorted times.
    ``times`` and ``causes`` are read-only float64/int64 arrays of equal
    length so downstream code can broadcast without copying.
    """

    __slots__ = ("_times", "_causes")

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Sample with Sample.from_arrays(times, causes)")

    @classmethod
    def from_arrays(cls, times, causes) -> "Sample":
        """Build a sample from parallel 1-d arrays of real numbers.

        Every time must be finite and >= 0 and every cause 1 or 2; bools,
        strings and other non-numeric values are refused, not converted.
        The sample owns copies of its inputs.
        """
        t, c = reals(times, "times"), reals(causes, "causes")
        if c.shape != t.shape:
            raise ValueError("times and causes must be of equal length")
        # check the causes before the int64 cast, which would truncate 1.5 to 1
        if t.size:
            if not np.all(np.isfinite(t)) or float(t.min()) < 0.0:
                raise ValueError("every time must be finite and >= 0")
            if not np.all((c == 1) | (c == 2)):
                raise ValueError("every cause must be 1 or 2")
        c = c.astype(np.int64, copy=False)
        # -0.0 == 0.0 passes the checks; make it +0.0, as __hash__ reads bytes
        t += 0.0
        t.flags.writeable = False
        c.flags.writeable = False
        self = object.__new__(cls)
        self._times, self._causes = t, c
        return self

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def causes(self) -> np.ndarray:
        return self._causes

    @property
    def n(self) -> int:
        return self._times.size

    def count_cause(self, cause: int) -> int:
        """Number of observations failing from the given cause."""
        if cause not in (1, 2):
            raise ValueError(f"cause must be 1 or 2, got {cause!r}")
        return int(np.count_nonzero(self._causes == cause))

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sample):
            return NotImplemented
        return np.array_equal(self._times, other._times) and np.array_equal(
            self._causes, other._causes
        )

    def __hash__(self) -> int:
        return hash((self._times.tobytes(), self._causes.tobytes()))

    def __repr__(self) -> str:
        return f"Sample(n={self.n}, cause1={self.count_cause(1)}, cause2={self.count_cause(2)})"
