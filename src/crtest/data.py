"""Data containers for two-cause competing risks observations.

An observation is a failure time together with which of two competing causes
produced it.  :class:`Sample` validates once at construction and then hands
out read-only numpy views, so the statistics modules never re-check inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class Observation:
    """One subject's failure time and failure cause (1 or 2)."""

    time: float
    cause: int

    def __post_init__(self) -> None:
        t = float(self.time)
        if not math.isfinite(t) or t < 0.0:
            raise ValueError(f"time must be finite and >= 0, got {self.time!r}")
        object.__setattr__(self, "time", t)
        if self.cause not in (1, 2):
            raise ValueError(f"cause must be 1 or 2, got {self.cause!r}")


class Sample:
    """Immutable, validated collection of observations.

    Construction order is preserved; nothing here assumes sorted times.
    ``times`` and ``causes`` are read-only float64/int64 arrays of equal
    length so downstream code can broadcast without copying.
    """

    __slots__ = ("_times", "_causes")

    def __init__(self, observations: Iterable[Observation]):
        obs = tuple(observations)
        times = np.array([o.time for o in obs], dtype=np.float64)
        causes = np.array([o.cause for o in obs], dtype=np.int64)
        self._adopt(times, causes)

    @classmethod
    def from_arrays(cls, times, causes) -> "Sample":
        """Build a sample from parallel arrays, validating vectorized."""
        t = np.array(times, dtype=np.float64)
        raw = np.asarray(causes)
        if t.ndim != 1 or raw.shape != t.shape:
            raise ValueError("times and causes must be 1-d arrays of equal length")
        self = object.__new__(cls)
        self._adopt(t, raw)
        return self

    def _adopt(self, t: np.ndarray, raw: np.ndarray) -> None:
        # check the causes before the int64 cast, which would truncate 1.5 to 1
        if t.size:
            if not np.all(np.isfinite(t)) or float(t.min()) < 0.0:
                raise ValueError("every time must be finite and >= 0")
            if not np.all((raw == 1) | (raw == 2)):
                raise ValueError("every cause must be 1 or 2")
        c = np.array(raw, dtype=np.int64)
        t.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "_times", t)
        object.__setattr__(self, "_causes", c)

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

    def observations(self) -> tuple[Observation, ...]:
        return tuple(
            Observation(float(t), int(c))
            for t, c in zip(self._times, self._causes)
        )

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Observation]:
        return iter(self.observations())

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
