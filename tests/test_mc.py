import json
import math
import os
import tracemalloc

import pytest

import crtest.jel
from crtest import (
    DegenerateSample,
    FamilyParams,
    NoConvergence,
    SimConfig,
    chisq1_quantile,
    ddk_z,
    jackknife,
    jel_statistic,
    normal_quantile,
    rng_from_seed,
    run,
    sample,
    to_csv,
    to_json,
)
from crtest.mc import _BLOCK_ELEMS, _resolve_workers, _run_block


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
    assert md["schema_version"] == 2
    assert md["newton_iters_max"] == max(c.newton_iters_max for c in table.rows())
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
    assert lines[0] == (
        "method,a,n,alpha,rate,stderr,excluded,rejections,used,hull_violations,newton_iters_max"
    )
    assert len(lines) == 1 + len(table.cells)
    first = lines[1].split(",")
    assert first[0] in ("jel", "ddk")
    float(first[4])  # rate parses


def test_json_output_roundtrip():
    table = run(small_config(), workers=1)
    payload = json.loads(to_json(table))
    assert payload["schema_version"] == 2
    assert payload["metadata"]["seed"] == 55
    assert payload["metadata"]["newton_iters_max"] == table.metadata["newton_iters_max"]
    assert len(payload["cells"]) == len(table.cells)
    cell = payload["cells"][0]
    assert set(cell) == {
        "method", "a", "n", "alpha", "rate", "stderr", "rejections", "used", "excluded",
        "hull_violations", "newton_iters_max",
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


def replay(cfg, a_idx, n_idx):
    """One cell recomputed replication by replication through the public API."""
    a, n = cfg.a_grid[a_idx], cfg.n_grid[n_idx]
    params = FamilyParams(lam=cfg.params.lam, p1=cfg.params.p1, a=a, seed=cfg.params.seed)
    jel_thr = [chisq1_quantile(1.0 - al) for al in cfg.alpha_grid]
    ddk_thr = [normal_quantile(1.0 - al / 2.0) for al in cfg.alpha_grid]
    jel_rej = [0] * len(jel_thr)
    ddk_rej = [0] * len(ddk_thr)
    jel_exc = ddk_exc = hull = iters_max = 0
    for rep in range(cfg.reps):
        s = sample(params, n, rng=rng_from_seed(cfg.params.seed, (a_idx, n_idx, rep)))
        stat, hull_ok, degenerate, el = jel_statistic(jackknife(s).pseudo_values)
        if degenerate:
            jel_exc += 1
        else:
            hull += math.isinf(stat)
            iters_max = max(iters_max, el.iterations if hull_ok else 0)
            for k, thr in enumerate(jel_thr):
                jel_rej[k] += stat > thr
        try:
            z = abs(ddk_z(s)[0])
        except DegenerateSample:
            ddk_exc += 1
        else:
            for k, thr in enumerate(ddk_thr):
                ddk_rej[k] += z > thr
    return (a_idx, n_idx, jel_rej, ddk_rej, jel_exc, ddk_exc, hull, iters_max)


# p1 = 0.1 at n = 20 has hull violations; p1 = 0.05 at n = 3 has replications
# with one observed cause, which are degenerate for both methods
REPLAY_CONFIGS = {
    "hull": small_config(params=FamilyParams(lam=1.0, p1=0.1, a=1.0, seed=8), n_grid=(20,),
                         a_grid=(1.0, 1.5), alpha_grid=(0.01, 0.05), reps=600),
    "degenerate": small_config(params=FamilyParams(lam=1.0, p1=0.05, a=1.0, seed=2), n_grid=(3,),
                               alpha_grid=(0.01, 0.05), reps=400),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CONFIGS))
def test_run_block_counts_equal_public_replay(case):
    cfg = REPLAY_CONFIGS[case]
    for a_idx in range(len(cfg.a_grid)):
        expected = replay(cfg, a_idx, 0)
        assert _run_block(cfg, a_idx, 0, 0, cfg.reps) == expected
        # split blocks of a pool run add up to the same counts
        lo, hi = _run_block(cfg, a_idx, 0, 0, 150), _run_block(cfg, a_idx, 0, 150, cfg.reps)
        assert [x + y for x, y in zip(lo[2], hi[2])] == expected[2]
        assert [x + y for x, y in zip(lo[3], hi[3])] == expected[3]
        assert (lo[4] + hi[4], lo[5] + hi[5], lo[6] + hi[6]) == expected[4:7]
    if case == "hull":
        assert expected[6] > 0
    else:
        assert expected[4] > 0 and expected[5] > 0


def test_hull_violations_equal_replayed_infinite_statistics():
    cfg = REPLAY_CONFIGS["hull"]
    table = run(cfg, workers=1)
    for a_idx, a in enumerate(cfg.a_grid):
        hull, iters_max = replay(cfg, a_idx, 0)[6:]
        assert hull > 0
        for alpha in cfg.alpha_grid:
            assert table.get("jel", a, 20, alpha).hull_violations == hull
            assert table.get("jel", a, 20, alpha).newton_iters_max == iters_max
            assert table.get("ddk", a, 20, alpha).hull_violations == 0
    assert table.metadata["newton_iters_max"] > 0


def test_no_convergence_surfaces_from_harness(monkeypatch):
    monkeypatch.setattr(crtest.jel, "_MAX_ITER", 1)
    with pytest.raises(NoConvergence):
        crtest.jel.solve_lambda([-1.0, 0.5, 2.0], 0.0)
    # the run fails as a whole: no table, so no unconverged statistic is
    # counted as a rejection
    with pytest.raises(NoConvergence):
        run(small_config(n_grid=(20,)), workers=1)


def test_run_block_memory_is_bounded_by_sub_block():
    # one block holds every replication, as at workers=1; the stacked arrays
    # are cut into sub-blocks, so the peak follows _BLOCK_ELEMS, not reps * n
    reps, n = 2000, 400
    cfg = small_config(n_grid=(n,), reps=reps)
    _run_block(cfg, 0, 0, 0, 1)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        _run_block(cfg, 0, 0, 0, reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 128 * _BLOCK_ELEMS
    assert peak < bound
    # two float64 copies of the whole stack would already exceed the bound
    assert bound < 16 * reps * n
