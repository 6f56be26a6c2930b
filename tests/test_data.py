import pickle

import numpy as np
import pytest

from crtest import (
    FamilyParams, IngestSpec, Sample, SimCell, SimConfig, SimTable, jackknife, jel_test,
)
from crtest.data import Record

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


CELL = dict(method="jel", a=1.5, n=20, alpha=0.05, rate=0.25, stderr=0.05, rejections=25,
            used=100, excluded=0)


def test_record_repr_is_name_and_fields():
    assert repr(FamilyParams(lam=1.0, p1=0.3, a=1.5, seed=2)) == \
        "FamilyParams(lam=1.0, p1=0.3, a=1.5, seed=2)"
    assert repr(SimCell(**CELL)) == (
        "SimCell(method='jel', a=1.5, n=20, alpha=0.05, rate=0.25, stderr=0.05, rejections=25,"
        " used=100, excluded=0, hull_violations=0, newton_iters_max=0)")
    spec = IngestSpec("x.csv", 0, "status", ["1"], {"2"})
    assert repr(spec) == (
        "IngestSpec(path='x.csv', time_column=0, cause_column='status',"
        " cause1_labels=frozenset({'1'}), cause2_labels=frozenset({'2'}),"
        " drop_labels=frozenset(), has_header=True)")
    assert repr(SimTable(cells={}, metadata={"seed": 1})) == "SimTable(cells={}, metadata={'seed': 1})"


def test_record_equality_and_hash_go_by_class_and_fields():
    class Other(Record):
        lam: float
        p1: float
        a: float
        seed: int

    a, b = FamilyParams(1.0, 0.3, 1.5, 2), FamilyParams(lam=1, p1=0.3, a=1.5, seed=2)
    assert a == b and hash(a) == hash(b) == hash((1.0, 0.3, 1.5, 2))
    assert a != FamilyParams(1.0, 0.3, 1.5, 3)
    other = Other(1.0, 0.3, 1.5, 2)
    assert a != other and other != a and vars(a) == vars(other)
    assert (a == (1.0, 0.3, 1.5, 2)) is False
    # fields compare as a tuple would: the one NaN object equals itself
    nan_cell = {**CELL, "rate": float("nan")}
    assert SimCell(**nan_cell) == SimCell(**nan_cell)


def test_records_holding_arrays_compare_by_value():
    # the arrays are the pseudo-values and the EL weights; == on two arrays
    # is elementwise, which has no single truth value
    s = sample_of((1, 1), (2, 2), (3, 1), (4, 2), (5, 1))
    t = sample_of((1, 2), (2, 1), (3, 1), (4, 2), (5, 1))
    assert jackknife(s) == jackknife(s) and jel_test(s) == jel_test(s)
    assert jackknife(s) != jackknife(t) and jel_test(s) != jel_test(t)
    assert jel_test(s).el is not None
    with pytest.raises(TypeError, match="unhashable"):
        hash(jackknife(s))


def test_record_is_frozen():
    params = FamilyParams(1.0, 0.3, 1.5)
    table = SimTable(cells={}, metadata={})
    for record, name in [(params, "a"), (params, "unknown"), (table, "cells")]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert params == FamilyParams(1.0, 0.3, 1.5)
    # a record's dicts are the caller's to fill
    table.metadata["seed"] = 1
    assert table.metadata == {"seed": 1}


def test_record_arguments_name_each_field_once():
    with pytest.raises(TypeError, match=r"^FamilyParams\(\) missing fields: 'p1', 'a'$"):
        FamilyParams(lam=1.0)
    with pytest.raises(TypeError, match=r"^FamilyParams\(\) got an unexpected field 'b'$"):
        FamilyParams(1.0, 0.3, 1.5, b=2)
    with pytest.raises(TypeError, match=r"^FamilyParams\(\) got multiple values for field 'lam'$"):
        FamilyParams(1.0, 0.3, 1.5, lam=2.0)
    with pytest.raises(TypeError, match=r"^FamilyParams\(\) takes 4 fields but 5 were given$"):
        FamilyParams(1.0, 0.3, 1.5, 2, 3)


def test_record_defaults_order_and_match_args():
    params = FamilyParams(p1=0.3, a=1.5, lam=1.0)
    assert list(vars(params).items()) == [("lam", 1.0), ("p1", 0.3), ("a", 1.5), ("seed", 0)]
    cell = SimCell(**CELL)
    assert (cell.hull_violations, cell.newton_iters_max) == (0, 0)
    assert list(vars(cell)) == list(SimCell.__match_args__) == [*CELL, "hull_violations",
                                                                 "newton_iters_max"]
    match params:
        case FamilyParams(lam, p1, a, seed):
            assert (lam, p1, a, seed) == (1.0, 0.3, 1.5, 0)


def test_record_post_init_normalises_fields():
    spec = IngestSpec(path="x.csv", time_column=np.int64(0), cause_column="status",
                      cause1_labels=[" 1", "1 "], cause2_labels=("2",), drop_labels={0})
    assert spec.cause1_labels == frozenset({"1"}) and type(spec.cause1_labels) is frozenset
    assert (spec.cause2_labels, spec.drop_labels) == (frozenset({"2"}), frozenset({"0"}))
    assert type(spec.time_column) is int


def test_sim_config_pickles_as_it_is_sent_to_pool_workers():
    config = SimConfig(params=FamilyParams(1.0, 0.3, 1.5, 2), n_grid=[20, 50],
                       alpha_grid=(0.05,), a_grid=(1.0, 1.5), reps=100)
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config and copy is not config and hash(copy) == hash(config)
    assert repr(copy) == repr(config)
