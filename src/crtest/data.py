"""The sample container for two-cause competing risks data, and the base of
crtest's result and parameter records.

A sample is n failure times, each paired with which of two competing causes
produced it.  :meth:`Sample.from_arrays` is its one constructor: it validates
once and then hands out read-only numpy views, so the statistics modules
never re-check inputs.
"""

from __future__ import annotations

import numpy as np

from ._checks import reals


class Record:
    """A frozen record whose fields are its class's annotations, in order.

    A field's default is its class attribute.  ``__post_init__`` runs once
    the fields are set, and may still fix them with ``object.__setattr__``;
    after that, assignment and deletion raise ``AttributeError``.  Records of
    one class are equal when their fields are, an array field by its values;
    they hash and print by their fields, and ``vars(record)`` is the field
    dict.  A record holding an array or a dict is unhashable.  Making a class
    generates and compiles no code, which keeps import time down.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        object.__setattr__(self, "__dict__", self._fields_of(args, kwargs))
        self.__post_init__()

    @classmethod
    def _fields_of(cls, args: tuple, kwargs: dict) -> dict:
        """The field dict, in field order, of a call's arguments and the defaults."""
        fields, name = cls.__match_args__, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected field {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for field {field!r}")
        values.update(kwargs)
        defaults = vars(cls)
        missing = [f for f in fields if f not in values and f not in defaults]
        if missing:
            raise TypeError(f"{name}() missing fields: {', '.join(map(repr, missing))}")
        return {f: values[f] if f in values else defaults[f] for f in fields}

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # an array's == is elementwise, which has no single truth value
        return all(a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b)
                   for a, b in zip(vars(self).values(), vars(other).values()))

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"


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
