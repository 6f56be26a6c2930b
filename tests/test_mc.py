import json
import math
import os

import pytest

from crtest import FamilyParams, SimConfig, run, to_csv, to_json
from crtest.mc import _resolve_workers


def small_config(**overrides):
    kwargs = dict(
        params=FamilyParams(lam=1.0, p1=0.4, a=1.0, seed=55),
        n_grid=(10,),
        alpha_grid=(0.05,),
        a_grid=(1.0,),
        reps=150,
    )
    kwargs.update(overrides)
    return SimConfig(**kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(reps=99)
    with pytest.raises(ValueError):
        small_config(n_grid=(2,))
    with pytest.raises(ValueError):
        small_config(n_grid=())
    with pytest.raises(ValueError):
        small_config(alpha_grid=(0.0,))
    with pytest.raises(ValueError):
        small_config(alpha_grid=(1.0,))
    with pytest.raises(ValueError):
        small_config(a_grid=(2.5,))
    with pytest.raises(ValueError):
        small_config(methods=())
    with pytest.raises(ValueError):
        small_config(methods=("jel", "nope"))


def test_cell_bookkeeping():
    cfg = small_config(a_grid=(1.0, 1.5), alpha_grid=(0.01, 0.05), n_grid=(5, 10))
    table = run(cfg, workers=1)
    assert len(table.cells) == 2 * 2 * 2 * 2  # methods x a x n x alpha
    for cell in table.rows():
        assert cell.used + cell.excluded == cfg.reps
        assert 0 <= cell.rejections <= cell.used
        if cell.used:
            assert cell.rate == pytest.approx(cell.rejections / cell.used)


def test_run_is_deterministic():
    t1 = run(small_config(), workers=1)
    t2 = run(small_config(), workers=1)
    assert t1.cells == t2.cells


def test_workers_do_not_change_results(monkeypatch):
    # two CPUs available, so the pool runs with two workers on any runner
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = small_config(reps=200, n_grid=(8,))
    serial = run(cfg, workers=1)
    parallel = run(cfg, workers=2)
    assert serial.cells == parallel.cells
    assert parallel.metadata["workers"] == 2


def test_rates_monotone_in_alpha():
    cfg = small_config(alpha_grid=(0.01, 0.05, 0.2), reps=400, n_grid=(20,), a_grid=(1.6,))
    table = run(cfg, workers=1)
    for method in ("jel", "ddk"):
        rates = [table.get(method, 1.6, 20, al).rate for al in (0.01, 0.05, 0.2)]
        assert rates[0] <= rates[1] <= rates[2]


def test_power_rises_with_departure_strength():
    cfg = small_config(
        params=FamilyParams(lam=1.0, p1=0.5, a=1.0, seed=77),
        a_grid=(1.3, 1.5, 1.7, 1.9),
        n_grid=(100,),
        reps=250,
    )
    table = run(cfg)
    for method in ("jel", "ddk"):
        rates = [table.get(method, a, 100, 0.05).rate for a in cfg.a_grid]
        assert all(b >= c for b, c in zip(rates[1:], rates))


def test_degenerate_replications_are_excluded_not_fatal():
    # tiny samples with p1 near zero often contain a single cause
    cfg = small_config(
        params=FamilyParams(lam=1.0, p1=0.05, a=1.0, seed=2),
        n_grid=(3,),
        reps=300,
    )
    table = run(cfg, workers=1)
    for method in ("jel", "ddk"):
        cell = table.get(method, 1.0, 3, 0.05)
        assert cell.excluded > 0
        assert cell.used + cell.excluded == 300


def test_one_sided_ddk_raises_power_under_positive_dependence():
    base = dict(
        params=FamilyParams(lam=1.0, p1=0.5, a=1.5, seed=91),
        n_grid=(40,),
        alpha_grid=(0.05,),
        a_grid=(1.5,),
        reps=400,
        methods=("ddk",),
    )
    two = run(SimConfig(**base), workers=1).get("ddk", 1.5, 40, 0.05)
    one = run(SimConfig(**base, ddk_two_sided=False), workers=1).get("ddk", 1.5, 40, 0.05)
    assert one.rate >= two.rate


def test_metadata_records_reproduction_info():
    table = run(small_config(), workers=1)
    md = table.metadata
    assert md["schema_version"] == 1
    assert md["seed"] == 55
    assert md["reps"] == 150
    assert md["methods"] == ["jel", "ddk"]
    assert md["ddk_two_sided"] is True
    assert "pcg64" in md["generator"].lower()
    assert "spawn_key" in md["generator"]


def test_csv_output_shape():
    table = run(small_config(alpha_grid=(0.05, 0.1)), workers=1)
    text = to_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == "method,a,n,alpha,rate,stderr,excluded,rejections,used"
    assert len(lines) == 1 + len(table.cells)
    first = lines[1].split(",")
    assert first[0] in ("jel", "ddk")
    float(first[4])  # rate parses


def test_json_output_roundtrip():
    table = run(small_config(), workers=1)
    payload = json.loads(to_json(table))
    assert payload["schema_version"] == 1
    assert payload["metadata"]["seed"] == 55
    assert len(payload["cells"]) == len(table.cells)
    cell = payload["cells"][0]
    assert set(cell) == {
        "method", "a", "n", "alpha", "rate", "stderr", "rejections", "used", "excluded",
    }


def test_stderr_uses_used_replications():
    cfg = small_config(params=FamilyParams(lam=1.0, p1=0.05, a=1.0, seed=2), n_grid=(3,), reps=300)
    table = run(cfg, workers=1)
    for method in ("jel", "ddk"):
        cell = table.get(method, 1.0, 3, 0.05)
        assert cell.excluded > 0 and cell.used > 0
        assert cell.stderr == math.sqrt(cell.rate * (1.0 - cell.rate) / cell.used)
        assert cell.stderr != math.sqrt(cell.rate * (1.0 - cell.rate) / 300)


def test_json_writes_undefined_rates_as_null():
    # p1 = 0 gives one observed cause in every replication, so no method has
    # a defined statistic and every rate is undefined
    table = run(small_config(params=FamilyParams(lam=1.0, p1=0.0, a=1.0, seed=4)), workers=1)
    assert all(c.used == 0 and math.isnan(c.rate) for c in table.rows())

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(to_json(table), parse_constant=reject)
    for cell in payload["cells"]:
        assert cell["rate"] is None and cell["stderr"] is None
        assert cell["used"] == 0 and cell["excluded"] == 150


def test_workers_bounded_by_available_cpus():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # resolving starts no process, so a huge request is safe to test
    assert _resolve_workers(10**6) == cpus
    assert _resolve_workers(0) == cpus
    assert _resolve_workers(1) == 1
    with pytest.raises(ValueError):
        _resolve_workers(-1)


def test_workers_bounded_by_task_count():
    # 100 replications of one cell make two blocks of 50
    table = run(small_config(reps=100), workers=8)
    assert table.metadata["workers"] == min(2, _resolve_workers(8))


@pytest.mark.parametrize("value", ["two", "1.5"])
def test_non_integer_thread_variable_is_named_in_error(monkeypatch, value):
    monkeypatch.setenv("CRTEST_THREADS", value)
    with pytest.raises(ValueError, match="CRTEST_THREADS"):
        _resolve_workers(None)


def test_thread_variable_sets_requested_workers(monkeypatch):
    monkeypatch.setenv("CRTEST_THREADS", "1")
    assert _resolve_workers(None) == 1
