import numpy as np
import pytest

from crtest import Sample

from oracles import sample_of


def test_sample_from_observations_keeps_order():
    s = sample_of((3.0, 1), (1.0, 2), (2.0, 1))
    assert s.n == 3
    assert list(s.times) == [3.0, 1.0, 2.0]
    assert list(s.causes) == [1, 2, 1]
    assert s.count_cause(1) == 2 and s.count_cause(2) == 1


def test_sample_from_int_and_float_arrays_is_one_sample():
    # -0.0 passes the time check and equals 0.0, so it must hash alike too
    a = Sample.from_arrays([0.0, 2.0], [1, 2])
    for times, causes in [([0, 2], [1.0, 2.0]), (np.array([0, 2], np.uint8), np.array([1, 2])),
                          ([-0.0, 2.0], [1, 2])]:
        b = Sample.from_arrays(times, causes)
        assert a == b
        assert hash(a) == hash(b)
        assert (b.times.dtype, b.causes.dtype) == (np.float64, np.int64)
    with pytest.raises(TypeError):
        Sample([(1.0, 1), (2.0, 2)])


def test_sample_arrays_are_readonly():
    s = Sample.from_arrays([1.0, 2.0], [1, 2])
    with pytest.raises(ValueError):
        s.times[0] = 9.0
    with pytest.raises(ValueError):
        s.causes[0] = 2


def test_sample_rejects_bad_arrays():
    with pytest.raises(ValueError):
        Sample.from_arrays([1.0, -1.0], [1, 2])
    with pytest.raises(ValueError):
        Sample.from_arrays([1.0, float("nan")], [1, 2])
    with pytest.raises(ValueError):
        Sample.from_arrays([1.0, float("inf")], [1, 2])
    with pytest.raises(ValueError):
        Sample.from_arrays([1.0, 2.0], [1, 0])
    # bool and string arrays are refused, not converted
    with pytest.raises(ValueError):
        Sample.from_arrays([1.0, 2.0, 3.0], [True, True, True])
    with pytest.raises(ValueError):
        Sample.from_arrays(["1", "2"], [1, 2])
    with pytest.raises(ValueError):
        Sample.from_arrays([1.0, 2.0], [1, 3])
    with pytest.raises(ValueError):
        Sample.from_arrays([1.0, 2.0, 3.0], [1.5, 2.9, 1])
    with pytest.raises(ValueError):
        Sample.from_arrays([1.0, 2.0], [1])
    with pytest.raises(ValueError):
        Sample.from_arrays([[1.0], [2.0]], [[1], [2]])


def test_empty_sample_is_allowed_at_container_level():
    s = Sample.from_arrays([], [])
    assert s.n == 0 and len(s) == 0


def test_sample_does_not_alias_caller_arrays():
    t = np.array([1.0, 2.0])
    c = np.array([1, 2])
    s = Sample.from_arrays(t, c)
    t[0] = 99.0
    assert s.times[0] == 1.0


def test_sample_helpers():
    s = Sample.from_arrays([1.0, 2.0], [1, 2])
    with pytest.raises(ValueError, match=r"^cause must be 1 or 2, got 3$"):
        s.count_cause(3)
    # a non-Sample compares unequal through NotImplemented, not an error
    assert (s == 3) is False and (s != 3) is True
    assert repr(s) == "Sample(n=2, cause1=1, cause2=1)"
