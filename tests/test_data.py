import numpy as np
import pytest

from crtest import Observation, Sample


def test_observation_validates():
    obs = Observation(1.5, 1)
    assert obs.time == 1.5 and obs.cause == 1
    with pytest.raises(ValueError):
        Observation(-0.1, 1)
    with pytest.raises(ValueError):
        Observation(float("nan"), 2)
    with pytest.raises(ValueError):
        Observation(float("inf"), 2)
    with pytest.raises(ValueError):
        Observation(1.0, 3)
    with pytest.raises(ValueError):
        Observation(1.0, 0)


def test_observation_coerces_int_time():
    assert Observation(2, 2).time == 2.0
    assert isinstance(Observation(2, 2).time, float)


def test_sample_from_observations_keeps_order():
    s = Sample([Observation(3.0, 1), Observation(1.0, 2), Observation(2.0, 1)])
    assert s.n == 3
    assert list(s.times) == [3.0, 1.0, 2.0]
    assert list(s.causes) == [1, 2, 1]
    assert s.count_cause(1) == 2 and s.count_cause(2) == 1


def test_sample_from_arrays_matches_observation_path():
    a = Sample.from_arrays([1.0, 2.0], [1, 2])
    b = Sample([Observation(1.0, 1), Observation(2.0, 2)])
    assert a == b
    assert hash(a) == hash(b)


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


def test_sample_iteration_and_roundtrip():
    s = Sample.from_arrays([0.5, 1.5, 0.5], [2, 1, 2])
    obs = list(s)
    assert obs == [Observation(0.5, 2), Observation(1.5, 1), Observation(0.5, 2)]
    assert Sample(obs) == s


def test_sample_does_not_alias_caller_arrays():
    t = np.array([1.0, 2.0])
    c = np.array([1, 2])
    s = Sample.from_arrays(t, c)
    t[0] = 99.0
    assert s.times[0] == 1.0
