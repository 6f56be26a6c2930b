"""Hostile argument values at every public entry point.

Every entry point below gets every value of ``HOSTILE``: numpy scalars, 0-d
arrays, bools, NaN, infinities, strings and huge integers.  A call either
raises ``ValueError`` or ``CrtestError``, or gives the same record as the
call with the value's plain Python form, and that record is valid JSON.  Any
other exception, a ``TypeError``, ``AttributeError`` or ``MemoryError``
among them, fails the test.
"""

import json
import math

import numpy as np
import pytest

from crtest import (
    CrtestError,
    FamilyParams,
    IngestSpec,
    Sample,
    SimConfig,
    ddk_test,
    ingest,
    jel_statistic,
    jel_test,
    run,
    sample,
    to_json,
)
from crtest.cli import cli_main
from crtest.specialfn import chisq1_quantile, normal_quantile

BASES = (0.25, 1.5, 2, 7, 150)
HOSTILE = [
    *BASES,
    *(wrap(b) for b in BASES for wrap in (np.float32, np.float64, np.array)),
    *(wrap(b) for b in (0, 2, 7, 150) for wrap in (np.int64, np.uint16, np.array)),
    True, False, np.bool_(True), np.bool_(False), np.array(True),
    math.nan, np.float32("nan"), math.inf, -math.inf, np.float64("-inf"),
    "7", "0.25", "", b"7", 0.25j,
    0, -1, 2**40, 2**70, -(2**70), np.uint64(2**64 - 1),
    None,
]

PARAMS = dict(lam=1.0, p1=0.3, a=1.5, seed=5)
CONFIG = dict(params=FamilyParams(**PARAMS), n_grid=(7,), alpha_grid=(0.25,), a_grid=(1.5,),
              reps=150, methods=("jel", "ddk"), ddk_two_sided=True)
TINY_RUN = SimConfig(**{**CONFIG, "reps": 100, "methods": ("jel",)})
TEST_SAMPLE = Sample.from_arrays(np.arange(1.0, 9.0), [1, 2, 2, 1, 2, 1, 1, 2])
CSV = "time,status\n1.5,1\n2.5,2\n0.5,1\n3.0,0\n2.0,2\n"
SPEC = dict(time_column="time", cause_column="status", cause1_labels={"1"},
            cause2_labels={"2"}, drop_labels={"0"})


def plain(value):
    return value.item() if isinstance(value, (np.generic, np.ndarray)) else value


def record(s: Sample):
    return [s.times.tolist(), s.causes.tolist()]


def el_record(el):
    return None if el is None else [el.lam, el.weights.tolist(), el.log_ratio, el.iterations,
                                    el.residual]


def jel_record(result):
    stat, hull_ok, degenerate, el = result
    return [repr(stat), hull_ok, degenerate, el_record(el)]


def run_record(table):
    payload = json.loads(to_json(table))
    return [payload["cells"], payload["metadata"]["workers"]]


def fields(record) -> dict:
    """``vars(record)``, with a ``FamilyParams`` field (``SimConfig.params``) as its own dict."""
    return {k: vars(v) if isinstance(v, FamilyParams) else v for k, v in vars(record).items()}


def family(field):
    return lambda v: fields(FamilyParams(**{**PARAMS, field: v}))


def config(field, wrap=lambda v: v):
    return lambda v: fields(SimConfig(**{**CONFIG, field: wrap(v)}))


def ingested(csv_path, field, wrap=lambda v: v):
    def call(v):
        result = ingest(IngestSpec(path=csv_path, **{**SPEC, field: wrap(v)}))
        return [record(result.sample), result.n_used, result.n_dropped]
    return call


def entries(csv_path):
    return {
        "Sample.from_arrays times": lambda v: record(Sample.from_arrays([v], [1])),
        "Sample.from_arrays causes": lambda v: record(Sample.from_arrays([1.0], [v])),
        "Sample.from_arrays arrays": lambda v: record(Sample.from_arrays(v, v)),
        "jel_statistic pseudo-values": lambda v: jel_record(jel_statistic([-1.0, v, 2.0])),
        "jel_statistic delta0": lambda v: jel_record(jel_statistic([-1.0, 0.5, 2.0], v)),
        **{f"FamilyParams.{f}": family(f) for f in ("lam", "p1", "a", "seed")},
        "SimConfig.params": config("params"),
        **{f"SimConfig.{f}": config(f) for f in ("n_grid", "alpha_grid", "a_grid", "methods")},
        **{f"SimConfig.{f} value": config(f, lambda v: (v,))
           for f in ("n_grid", "alpha_grid", "a_grid", "methods")},
        "SimConfig.reps": config("reps"),
        "SimConfig.ddk_two_sided": config("ddk_two_sided"),
        "run workers": lambda v: run_record(run(TINY_RUN, workers=v)),
        # a huge n is a huge draw, not a bad argument: sample has no upper bound
        "sample n": lambda v: record(sample(FamilyParams(**PARAMS), min(v, 1000)
                                            if type(v) is int else v)),
        "jel_test alpha": lambda v: jel_test(TEST_SAMPLE, alpha=v).to_dict(),
        "ddk_test alpha": lambda v: ddk_test(TEST_SAMPLE, alpha=v).to_dict(),
        "ddk_test two_sided": lambda v: ddk_test(TEST_SAMPLE, two_sided=v).to_dict(),
        "IngestSpec.path": lambda v: str(IngestSpec(path=v, **SPEC).path),
        **{f"IngestSpec.{f}": ingested(csv_path, f)
           for f in ("time_column", "cause_column", "has_header", "cause1_labels")},
        "IngestSpec.cause1_labels value": ingested(csv_path, "cause1_labels", lambda v: [v, "1"]),
    }


ENTRY_NAMES = list(entries("unused"))


def canonical(call, value) -> str | None:
    """The call's record as JSON, or None when it refused the value."""
    try:
        got = call(value)
    except (ValueError, CrtestError):
        return None
    return json.dumps(got, allow_nan=False, sort_keys=True)


@pytest.mark.parametrize("entry", ENTRY_NAMES)
def test_hostile_values_are_refused_or_taken_as_plain(entry, tmp_path):
    csv_path = tmp_path / "tiny.csv"
    csv_path.write_text(CSV)
    call = entries(csv_path)[entry]
    for value in HOSTILE:
        got = canonical(call, value)
        if got is not None:
            assert got == canonical(call, plain(value)), (entry, value)


def test_grid_and_spec_values_seen_accepted_before():
    # each of these was accepted with a wrong meaning, or reached np.empty
    with pytest.raises(ValueError, match="n_grid"):
        SimConfig(**{**CONFIG, "n_grid": (2**40,)})
    with pytest.raises(ValueError, match="n_grid"):
        SimConfig(**{**CONFIG, "n_grid": ("50",)})
    with pytest.raises(ValueError, match="a_grid"):
        SimConfig(**{**CONFIG, "a_grid": ("1.5",)})
    with pytest.raises(ValueError, match="a must be a real number"):
        FamilyParams(**{**PARAMS, "a": "1.5"})
    with pytest.raises(ValueError, match="lam must be a real number"):
        FamilyParams(**{**PARAMS, "lam": True})
    with pytest.raises(ValueError, match="n must be"):
        sample(FamilyParams(**PARAMS), True)
    for field, value in [("time_column", True), ("has_header", "no"), ("cause1_labels", "12")]:
        with pytest.raises(ValueError, match=field):
            IngestSpec(path="x.csv", **{**SPEC, field: value})
    assert IngestSpec(path="x.csv", **{**SPEC, "time_column": np.int64(0)}).time_column == 0
    # strings and bools, also a bool among numbers, are not real numbers
    for call, args in [
        (jel_statistic, ([-1.0, 0.5, 2.0], "0.1")),
        (jel_statistic, ([-1.0, 0.5, 2.0], None)),
        (jel_statistic, (["-1", "1", "1"],)),
        (jel_statistic, ([True, False, True],)),
        (jel_statistic, ([[-1.0, 1.0, 1.0]],)),
        (Sample.from_arrays, ([True, 2.0], [1, 2])),
        (Sample.from_arrays, ([1.0, 2.0], [True, 2])),
        (Sample.from_arrays, ([1.0, 2.0], (np.array(True), 2))),
    ]:
        with pytest.raises(ValueError):
            call(*args)
    # below 2**-52, 1 - alpha rounds to 1, which has no chi-square or normal quantile
    for alpha in (1e-20, 2.0**-53):
        for call in (jel_test, ddk_test):
            with pytest.raises(ValueError, match="alpha must be at least 2"):
                call(TEST_SAMPLE, alpha=alpha)
        with pytest.raises(ValueError, match="alpha_grid"):
            SimConfig(**{**CONFIG, "alpha_grid": (alpha,)})
    alpha = 2.0**-52
    assert all(math.isfinite(q) for q in (chisq1_quantile(1.0 - alpha), normal_quantile(1.0 - alpha),
                                          normal_quantile(1.0 - alpha / 2.0)))
    assert jel_test(TEST_SAMPLE, alpha=alpha).alpha == alpha
    for two_sided in (True, False):
        assert ddk_test(TEST_SAMPLE, alpha=alpha, two_sided=two_sided).alpha == alpha
    assert run(SimConfig(**{**CONFIG, "reps": 100, "alpha_grid": (alpha,)}), workers=1).cells


@pytest.mark.parametrize("argv", [
    ["power", "--n-grid", "1099511627776", "--a-grid", "1.5"],
    ["power", "--n-grid", "20,1099511627776", "--a-grid", "1.5", "--alphas", "0.05"],
    ["power", "--n-grid", "20", "--a-grid", "nan"],
    ["power", "--n-grid", "20", "--a-grid", "1.5", "--alphas", "inf"],
    ["power", "--n-grid", "20", "--a-grid", "1.5", "--lambda", "inf"],
    ["power", "--n-grid", "20", "--a-grid", "1.5", "--workers", "-1"],
    ["power", "--n-grid", "20", "--a-grid", "1.5", "--reps", "4294967297"],
])
def test_cli_refuses_hostile_values_cleanly(argv, capsys):
    assert cli_main([*argv, "--p1", "0.3", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
