import hashlib
import json
import math
import multiprocessing
import os
import signal
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import crtest.datagen
import crtest.jel
import crtest.mc
from crtest import (
    DegenerateSample,
    FamilyParams,
    NoConvergence,
    SimConfig,
    chisq1_quantile,
    ddk_test,
    jackknife,
    normal_quantile,
    rng_from_seed,
    run,
    sample,
    to_csv,
    to_json,
)
from crtest.mc import _BLOCK_ELEMS, _resolve_workers, _run_block, _shares, _tasks

from oracles import scalar_solve_lambda


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
        small_config(n_grid=(10, 20.7))
    with pytest.raises(ValueError):
        small_config(reps=150.0)
    # a replication index must fit one 32-bit spawn-key word
    with pytest.raises(ValueError):
        small_config(reps=2**32 + 1)
    with pytest.raises(ValueError):
        small_config(alpha_grid=(0.0,))
    with pytest.raises(ValueError):
        small_config(alpha_grid=(1.0,))
    # a level is a real number: a string is refused, not parsed
    for bad in (("0.05",), (0.05, True), (np.array([0.05]),)):
        with pytest.raises(ValueError, match="every alpha_grid value must be a real number"):
            small_config(alpha_grid=bad)
    assert small_config(alpha_grid=(np.float32(0.25), np.array(0.5))).alpha_grid == (0.25, 0.5)
    with pytest.raises(ValueError):
        small_config(a_grid=(2.5,))
    with pytest.raises(ValueError):
        small_config(methods=())
    with pytest.raises(ValueError):
        small_config(methods=("jel", "nope"))
    # a repeated grid value would give two cells under one key
    with pytest.raises(ValueError, match="repeat"):
        small_config(a_grid=(1.5, 1.5), n_grid=(20, 20))
    with pytest.raises(ValueError, match="a_grid"):
        small_config(a_grid=(1.0, 1.5, 1.0))
    with pytest.raises(ValueError, match="n_grid"):
        small_config(n_grid=(20, 10, 20))
    with pytest.raises(ValueError, match="alpha_grid"):
        small_config(alpha_grid=(0.05, 0.1, 0.05))
    with pytest.raises(ValueError, match="methods must not repeat"):
        small_config(methods=("jel", "jel"))


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


def test_harness_hashes_no_seed_sequence_per_replication(monkeypatch):
    cfg = small_config(reps=500)
    expected = run(cfg, workers=1)
    built = []
    seed_sequence = np.random.SeedSequence

    def counted(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the harness built a per-replication generator")

    monkeypatch.setattr(crtest.datagen, "rng_from_seed", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", counted)
    assert run(cfg, workers=1).cells == expected.cells
    # one SeedSequence per task, not per replication
    assert len(built) == len(_tasks(cfg, 1)) < cfg.reps


def test_harness_table_is_pinned():
    # rejection, exclusion and hull counts unchanged since every replication
    # built its own SeedSequence and generator, so a seeding change that moved
    # rng_from_seed and the harness together would still change the digest;
    # re-pinned when newton_iters_max became the steps to each row's decision
    # (9, 13 -> 4, 6)
    cfg = SimConfig(params=FamilyParams(lam=1.0, p1=0.3, a=1.0, seed=7), n_grid=(10, 25),
                    alpha_grid=(0.01, 0.05), a_grid=(1.5,), reps=300)
    digest = hashlib.sha256(to_csv(run(cfg, workers=1)).encode()).hexdigest()
    assert digest == "e859e014e9e5061bfb125274cb71c5a238ddc759e048d6817158ecab57312b0c"


@pytest.mark.parametrize("p1, n_grid, a_grid, expected", [
    (0.5, (20, 50, 100), (1.0, 1.5), "21dee29be6fcbb50"),  # the power_grid workload
    (0.1, (20, 50, 200), (1.0, 2.0), "31c7b88682fb4b0a"),  # the power_pool workload
], ids=["power_grid", "power_pool"])
def test_benchmark_grids_give_their_pinned_decisions(p1, n_grid, a_grid, expected):
    # the benchmark's result checksum: every cell's rejections and exclusions,
    # digested as bench/check.py:power_checksum digests them
    cfg = SimConfig(params=FamilyParams(lam=1.0, p1=p1, a=a_grid[0], seed=1), n_grid=n_grid,
                    alpha_grid=(0.01, 0.05), a_grid=a_grid, reps=250, methods=("jel", "ddk"))
    cells = run(cfg, workers=1).cells
    rows = sorted([*key, c.rejections, c.excluded] for key, c in cells.items())
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]
    assert digest == expected


def test_workers_do_not_change_results(monkeypatch):
    # two CPUs available, so the pool runs with two workers on any runner
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = small_config(reps=200, n_grid=(8,))
    serial = run(cfg, workers=1)
    parallel = run(cfg, workers=2)
    assert serial.cells == parallel.cells
    assert parallel.metadata["workers"] == 2


@pytest.mark.parametrize("lam", [0.37, 3.0, 1000.0])
def test_lambda_changes_the_metadata_and_no_cell(lam):
    # the sampler divides every time by lam, which keeps their order, and
    # both statistics read only the order of the times
    def table(lam):
        params = FamilyParams(lam=lam, p1=0.1, a=1.0, seed=5)
        return run(small_config(params=params, n_grid=(20, 50, 200), a_grid=(1.0, 2.0),
                                alpha_grid=(0.01, 0.05), reps=500), workers=1)
    scaled = table(lam)
    assert scaled.cells == table(1.0).cells
    assert scaled.metadata["lambda"] == lam


def test_hull_violations_count_zeros_on_the_hull_edge():
    # 21 of the 22 hull violations have exactly zero pseudo-values with 0
    # on the hull's edge; every hull violation is also a rejection
    cfg = small_config(params=FamilyParams(lam=1.0, p1=0.1, a=1.0, seed=5), n_grid=(49,),
                       reps=20_000)
    cell = run(cfg, workers=1).get("jel", 1.0, 49, 0.05)
    assert (cell.hull_violations, cell.rejections, cell.excluded) == (22, 2483, 105)


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
    assert md["schema_version"] == 3
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
    assert payload["schema_version"] == 3
    assert payload["metadata"]["seed"] == 55
    assert payload["metadata"]["newton_iters_max"] == table.metadata["newton_iters_max"]
    assert len(payload["cells"]) == len(table.cells)
    cell = payload["cells"][0]
    assert set(cell) == {
        "method", "a", "n", "alpha", "rate", "stderr", "rejections", "used", "excluded",
        "hull_violations", "newton_iters_max",
    }


@pytest.mark.parametrize("case", ["seed", "lam", "p1", "a", "reps", "workers"])
def test_numpy_scalars_give_valid_json_and_the_same_cells(case):
    params = dict(lam=1.0, p1=0.25, a=1.5, seed=5)
    numpy_value = {"seed": np.int64(5), "lam": np.float32(1.0), "p1": np.float32(0.25),
                   "a": np.float32(1.5), "reps": np.int64(150), "workers": np.int64(1)}[case]
    plain = run(small_config(params=FamilyParams(**params), a_grid=(1.5,)), workers=1)
    config = dict(a_grid=(1.5,))
    if case in params:
        params[case] = numpy_value
    elif case == "reps":
        config["reps"] = numpy_value
    table = run(small_config(params=FamilyParams(**params), **config),
                workers=numpy_value if case == "workers" else 1)
    payload = json.loads(to_json(table))
    assert table.cells == plain.cells
    assert payload["metadata"] == json.loads(to_json(plain))["metadata"] | {
        "wall_time_s": payload["metadata"]["wall_time_s"]}


def test_ddk_two_sided_takes_a_bool_only():
    # only a bool picks the side: "no" is truthy, and 0 and 1 are not bools
    for bad in ("no", "False", 0, 1, None):
        with pytest.raises(ValueError, match="ddk_two_sided must be a bool"):
            small_config(ddk_two_sided=bad)
    plain = run(small_config(ddk_two_sided=False), workers=1)
    table = run(small_config(ddk_two_sided=np.bool_(False)), workers=1)
    assert type(table.metadata["ddk_two_sided"]) is bool
    assert table.cells == plain.cells
    payload = json.loads(to_json(table))
    assert payload["metadata"]["ddk_two_sided"] is False
    assert payload["metadata"] == json.loads(to_json(plain))["metadata"] | {
        "wall_time_s": payload["metadata"]["wall_time_s"]}


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


def test_csv_writes_undefined_rates_as_nan():
    table = run(small_config(params=FamilyParams(lam=1.0, p1=0.0, a=1.0, seed=4)), workers=1)
    header, *rows = to_csv(table).splitlines()
    columns = header.split(",")
    assert len(rows) == len(table.cells)
    for row in rows:
        fields = dict(zip(columns, row.split(",")))
        assert fields["rate"] == "nan" and fields["stderr"] == "nan"


def test_workers_bounded_by_available_cpus():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # resolving starts no process, so a huge request is safe to test
    assert _resolve_workers(10**6) == cpus
    assert _resolve_workers(0) == cpus
    assert _resolve_workers(1) == 1
    with pytest.raises(ValueError):
        _resolve_workers(-1)
    # False would otherwise mean every CPU, and True would be recorded as true
    for value in (1.5, 2.0, "2", True, False, None):
        with pytest.raises(ValueError, match="workers must be an integer"):
            _resolve_workers(value)
    for value in (1.5, True, None):
        with pytest.raises(ValueError, match="workers must be an integer"):
            run(small_config(), workers=value)


def test_workers_bounded_by_task_count():
    # 100 replications of one cell make two blocks of 50
    table = run(small_config(reps=100), workers=8)
    assert table.metadata["workers"] == min(2, _resolve_workers(8))


def replay(cfg, a_idx, n_idx):
    """One cell's tallies recomputed replication by replication.

    One row per method (jel, ddk): rejections per alpha, then excluded, hull
    violations and the most Newton steps.  The jel rows are classified here
    and solved by the scalar oracle, not by the package's shared classifier
    and solver, which the harness under test also runs.
    """
    a, n = cfg.a_grid[a_idx], cfg.n_grid[n_idx]
    params = FamilyParams(lam=cfg.params.lam, p1=cfg.params.p1, a=a, seed=cfg.params.seed)
    jel_thr = [chisq1_quantile(1.0 - al) for al in cfg.alpha_grid]
    two_sided = cfg.ddk_two_sided
    ddk_thr = [normal_quantile(1.0 - (al / 2.0 if two_sided else al)) for al in cfg.alpha_grid]
    jel_rej = [0] * len(jel_thr)
    ddk_rej = [0] * len(ddk_thr)
    jel_exc = ddk_exc = hull = iters_max = 0
    for rep in range(cfg.reps):
        s = sample(params, n, rng=rng_from_seed(cfg.params.seed, (a_idx, n_idx, rep)))
        v = jackknife(s).pseudo_values
        if not v.any():
            jel_exc += 1
        else:
            if v.min() < 0.0 < v.max():
                _, iters, _, stat = scalar_solve_lambda(v, thresholds=jel_thr)
                iters_max = max(iters_max, iters)
            else:
                stat = math.inf
                hull += 1
            for k, thr in enumerate(jel_thr):
                jel_rej[k] += stat > thr
        try:
            z = ddk_test(s).z
            z = abs(z) if two_sided else z
        except DegenerateSample:
            ddk_exc += 1
        else:
            for k, thr in enumerate(ddk_thr):
                ddk_rej[k] += z > thr
    return np.array([[*jel_rej, jel_exc, hull, iters_max], [*ddk_rej, ddk_exc, 0, 0]])


# p1 = 0.1 at n = 20 has hull violations; p1 = 0.05 at n = 3 has replications
# with one observed cause, which are degenerate for both methods
REPLAY_CONFIGS = {
    "hull": small_config(params=FamilyParams(lam=1.0, p1=0.1, a=1.0, seed=8), n_grid=(20,),
                         a_grid=(1.0, 1.5), alpha_grid=(0.01, 0.05), reps=600),
    "degenerate": small_config(params=FamilyParams(lam=1.0, p1=0.05, a=1.0, seed=2), n_grid=(3,),
                               alpha_grid=(0.01, 0.05), reps=400),
    "one_sided": small_config(params=FamilyParams(lam=1.0, p1=0.4, a=1.0, seed=3), n_grid=(20,),
                              a_grid=(1.0, 1.5), alpha_grid=(0.05, 0.1), reps=300,
                              ddk_two_sided=False),
}


@pytest.mark.parametrize("case", sorted(REPLAY_CONFIGS))
def test_run_block_counts_equal_public_replay(case):
    cfg = REPLAY_CONFIGS[case]
    for a_idx in range(len(cfg.a_grid)):
        expected = replay(cfg, a_idx, 0)
        assert np.array_equal(_run_block(cfg, a_idx, 0, 0, cfg.reps), expected)
        # split blocks add up to the same counts, and the larger Newton maximum
        lo, hi = _run_block(cfg, a_idx, 0, 0, 150), _run_block(cfg, a_idx, 0, 150, cfg.reps)
        assert np.array_equal((lo + hi)[:, :-1], expected[:, :-1])
        assert np.array_equal(np.maximum(lo, hi)[:, -1], expected[:, -1])
    if case == "hull":
        assert expected[0, -2] > 0
    elif case == "degenerate":
        assert expected[0, -3] > 0 and expected[1, -3] > 0
    else:
        assert expected[1, 0] > 0


def test_hull_violations_equal_replayed_infinite_statistics():
    cfg = REPLAY_CONFIGS["hull"]
    table = run(cfg, workers=1)
    for a_idx, a in enumerate(cfg.a_grid):
        hull, iters_max = replay(cfg, a_idx, 0)[0, -2:]
        assert hull > 0
        for alpha in cfg.alpha_grid:
            assert table.get("jel", a, 20, alpha).hull_violations == hull
            assert table.get("jel", a, 20, alpha).newton_iters_max == iters_max
            assert table.get("ddk", a, 20, alpha).hull_violations == 0
    assert table.metadata["newton_iters_max"] > 0


def test_no_convergence_surfaces_from_harness(monkeypatch):
    monkeypatch.setattr(crtest.jel, "_MAX_ITER", 1)
    with pytest.raises(NoConvergence):
        crtest.jel.jel_statistic([-1.0, 0.5, 2.0])
    # the run fails as a whole: no table, so no unconverged statistic is
    # counted as a rejection
    with pytest.raises(NoConvergence):
        run(small_config(n_grid=(20,)), workers=1)


def test_run_memory_is_bounded_by_block_elems():
    # at workers=1 a cell of reps * n values is cut into tasks of at most
    # _BLOCK_ELEMS values, so the peak follows _BLOCK_ELEMS, not reps * n
    reps, n = 2000, 400
    cfg = small_config(n_grid=(n,), reps=reps)
    run(small_config(n_grid=(n,)), workers=1)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        run(cfg, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 128 * _BLOCK_ELEMS
    assert peak < bound
    # two float64 copies of the whole stack would already exceed the bound
    assert bound < 16 * reps * n


def test_cells_do_not_depend_on_task_size(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = small_config(params=FamilyParams(lam=1.0, p1=0.1, a=1.0, seed=8), n_grid=(5, 20),
                       a_grid=(1.0, 1.5), alpha_grid=(0.01, 0.05), reps=300)
    default = run(cfg, workers=1)
    assert default.metadata["newton_iters_max"] > 0
    monkeypatch.setattr(crtest.mc, "_BLOCK_ELEMS", 64)
    stacks = []

    def counting_block(config, a_idx, n_idx, rep_lo, rep_hi):
        stacks.append((rep_hi - rep_lo) * config.n_grid[n_idx])
        return _run_block(config, a_idx, n_idx, rep_lo, rep_hi)

    monkeypatch.setattr(crtest.mc, "_run_block", counting_block)
    small = run(cfg, workers=1)
    # every cell spans many tasks, none holding more than _BLOCK_ELEMS values
    assert len(stacks) == 2 * (300 // 12 + 300 // 3) and max(stacks) <= 64
    # the workers' _run_share looks _run_block up in crtest.mc, so put the
    # real one back before a pool can fork with the counting one
    monkeypatch.setattr(crtest.mc, "_run_block", _run_block)
    pooled = run(cfg, workers=2)
    assert small.cells == default.cells == pooled.cells
    assert small.metadata["newton_iters_max"] == pooled.metadata["newton_iters_max"] \
        == default.metadata["newton_iters_max"]


def serial_partition(cfg):
    """One-worker tasks as ``(a_idx, n_idx, lo, hi)``: each cell in stacks of at
    most ``_BLOCK_ELEMS`` values, otherwise whole."""
    out = []
    for a_idx in range(len(cfg.a_grid)):
        for n_idx, n in enumerate(cfg.n_grid):
            step = min(cfg.reps, max(1, _BLOCK_ELEMS // n))
            out += [(a_idx, n_idx, lo, min(lo + step, cfg.reps)) for lo in range(0, cfg.reps, step)]
    return out


def check_cover(cfg, tasks):
    covered = {}
    for config, a_idx, n_idx, lo, hi in tasks:
        assert config is cfg and lo < hi
        assert (hi - lo) * cfg.n_grid[n_idx] <= _BLOCK_ELEMS
        covered.setdefault((a_idx, n_idx), []).extend(range(lo, hi))
    assert len(covered) == len(cfg.a_grid) * len(cfg.n_grid)
    assert all(reps == list(range(cfg.reps)) for reps in covered.values())


POOL_GRID = small_config(params=FamilyParams(lam=1.0, p1=0.1, a=1.0, seed=1), n_grid=(20, 50, 200),
                         a_grid=(1.0, 2.0), alpha_grid=(0.01, 0.05), reps=250)


@pytest.mark.parametrize("cfg", [
    small_config(),
    small_config(reps=5000, n_grid=(3, 40, 1000), a_grid=(1.0, 1.5)),
    POOL_GRID,
], ids=["one-cell", "capped", "pool-grid"])
def test_one_worker_tasks_are_whole_cells_under_the_value_cap(cfg):
    tasks = _tasks(cfg, 1)
    assert [t[1:] for t in tasks] == serial_partition(cfg)
    check_cover(cfg, tasks)


def test_pool_splits_cells_only_when_workers_outnumber_them():
    # six cells: every worker count up to six gives the serial tasks
    serial = _tasks(POOL_GRID, 1)
    assert len(serial) == 12
    for workers in (2, 4):
        assert _tasks(POOL_GRID, workers) == serial
    one_cell = small_config(reps=200)
    halves = _tasks(one_cell, 2)
    assert [t[3:] for t in halves] == [(0, 100), (100, 200)]
    check_cover(one_cell, halves)
    for cfg, workers in ((one_cell, 8), (POOL_GRID, 64), (small_config(reps=4096, n_grid=(500,)), 3)):
        check_cover(cfg, _tasks(cfg, workers))


LOPSIDED = small_config(params=FamilyParams(lam=1.0, p1=0.5, a=1.0, seed=4), n_grid=(20, 1000),
                        a_grid=(1.5,), reps=400)


def load(share):
    return sum((hi - lo) * config.n_grid[n_idx] for config, _, n_idx, lo, hi in share)


@pytest.mark.parametrize("cfg", [small_config(reps=200), POOL_GRID, LOPSIDED,
                                 small_config(reps=5000, n_grid=(3, 40, 1000), a_grid=(1.0, 1.5))],
                         ids=["one-cell", "pool-grid", "lopsided", "capped"])
def test_shares_deal_every_task_once_into_balanced_loads(cfg):
    for workers in (1, 2, 3, 4):
        tasks = _tasks(cfg, workers)
        workers = min(workers, len(tasks))
        shares = _shares(tasks, workers)
        assert len(shares) == workers and all(shares)
        assert sorted(t for share in shares for t in share) == sorted(tasks)
        assert shares == _shares(list(tasks), workers)
        # each share keeps task order, so one worker gets the tasks as they are
        assert all(share == sorted(share, key=tasks.index) for share in shares)
        loads = [load(share) for share in shares]
        assert max(loads) - min(loads) <= max(load([t]) for t in tasks)
    assert _shares(_tasks(cfg, 1), 1) == [_tasks(cfg, 1)]


def test_pooled_run_sends_one_message_per_worker(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    messages = []

    class InlinePool:
        def map(self, fn, *iterables):
            args = list(zip(*iterables))
            messages.append((fn, args))
            return [fn(*a) for a in args]

    monkeypatch.setattr(crtest.mc, "_pool", lambda workers: InlinePool())
    pooled = run(LOPSIDED, workers=3)
    assert len(messages) == 1
    fn, args = messages[0]
    assert fn is crtest.mc._run_share and len(args) == 3
    assert [share for (share,) in args] == _shares(_tasks(LOPSIDED, 3), 3)
    assert pooled.cells == run(LOPSIDED, workers=1).cells


def test_lopsided_grid_gives_the_serial_cells_at_every_worker_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    serial = run(LOPSIDED, workers=1)
    for workers in (2, 3, 4):
        pooled = run(LOPSIDED, workers=workers)
        assert pooled.metadata["workers"] == workers
        assert pooled.cells == serial.cells
        assert pooled.metadata["newton_iters_max"] == serial.metadata["newton_iters_max"]
    crtest.mc._drop_pool()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers inherit the parent's imports only when forked")
def test_pool_workers_start_with_numpy_random_loaded(fresh):
    code = "\n".join([
        "import os, sys",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "import crtest.mc",
        "from crtest import FamilyParams, SimConfig, run",
        "assert 'numpy.random' in sys.modules",
        "run_block = crtest.mc._run_block",
        "def cold_guard(*args):",
        "    if 'numpy.random' not in sys.modules:",
        "        raise RuntimeError('worker task started without numpy.random loaded')",
        "    return run_block(*args)",
        # the pool pickles _run_share by name, and the workers' _run_share
        # finds the guard as crtest.mc._run_block when it calls it
        "crtest.mc._run_block = cold_guard",
        "cfg = SimConfig(params=FamilyParams(lam=1.0, p1=0.4, a=1.0, seed=3), n_grid=(10, 20),",
        "                alpha_grid=(0.05,), a_grid=(1.0,), reps=100)",
        "assert run(cfg, workers=2).metadata['workers'] == 2",
    ])
    proc = fresh("-c", code)
    assert proc.returncode == 0, proc.stderr


needs_fork = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                reason="the pool tests read the workers of a forked pool")


def live_pool():
    """The live pool's executor and its worker processes by pid."""
    pool = crtest.mc._POOL[1]
    return pool, dict(pool._processes)


@needs_fork
def test_pooled_runs_reuse_one_pool(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    first = run(POOL_GRID, workers=2)
    pool, workers = live_pool()
    assert len(workers) == 2
    assert run(POOL_GRID, workers=2).cells == first.cells
    assert live_pool() == (pool, workers)


@needs_fork
def test_new_worker_count_replaces_the_pool(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    serial = run(POOL_GRID, workers=1)
    assert run(POOL_GRID, workers=3).cells == serial.cells
    old, old_workers = live_pool()
    assert len(old_workers) == 3
    assert run(POOL_GRID, workers=2).cells == serial.cells
    pool, workers = live_pool()
    assert pool is not old and len(workers) == 2
    for proc in old_workers.values():
        proc.join(timeout=30)
        assert not proc.is_alive()


@needs_fork
def test_no_convergence_on_the_pool_fails_one_run_and_drops_the_pool(monkeypatch):
    cfg = small_config(n_grid=(20,), reps=200)
    # the pool is started after the patch, so its workers see the patched limit
    monkeypatch.setattr(crtest.jel, "_MAX_ITER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    crtest.mc._drop_pool()
    with pytest.raises(NoConvergence):
        run(cfg, workers=2)
    assert crtest.mc._POOL is None
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert run(cfg, workers=2).cells == run(cfg, workers=1).cells


# Runs asking for 2 and 3 workers replace each other's pool; one that shut a
# pool down under another thread's run would fail that run.
THREADS_SCRIPT = """
import os, sys, threading
os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
from crtest import FamilyParams, SimConfig, run

cfg = SimConfig(params=FamilyParams(lam=1.0, p1=0.1, a=1.0, seed=1), n_grid=(20, 50),
                alpha_grid=(0.05,), a_grid=(1.0, 2.0), reps=150)
serial = run(cfg, workers=1).cells
results = []

def runs(workers):
    for _ in range(3):
        results.append(run(cfg, workers=workers).cells == serial)

threads = [threading.Thread(target=runs, args=(2 + i % 2,)) for i in range(4)]
sys.setswitchinterval(1e-6)
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
print(sum(thread.is_alive() for thread in threads), results.count(True), len(results))
"""


@needs_fork
def test_threads_take_turns_on_the_pool(fresh):
    proc = fresh("-c", THREADS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "12", "12"], proc.stderr


FORK_SCRIPT = """
import os, select, signal, traceback
os.sched_getaffinity = lambda pid: {0, 1}
import crtest.mc as mc
from crtest import FamilyParams, SimConfig, run

cfg = SimConfig(params=FamilyParams(lam=1.0, p1=0.1, a=1.0, seed=1), n_grid=(20, 50),
                alpha_grid=(0.05,), a_grid=(1.0, 2.0), reps=150)
cells = run(cfg, workers=2).cells
pool = mc._POOL
# as if a run in another thread held the lock across the fork
mc._POOL_LOCK.acquire()
read_fd, write_fd = os.pipe()
child = os.fork()
if child == 0:  # never return into the script
    status = 1
    try:
        same = run(cfg, workers=2).cells == cells
        own = mc._POOL[1] is not pool[1]
        mc._drop_pool()  # os._exit skips the exit hook that stops the workers
        os.write(write_fd, b"same=%d own=%d" % (same, own))
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)
mc._POOL_LOCK.release()
os.close(write_fd)
if not select.select([read_fd], [], [], 120)[0]:
    os.kill(child, signal.SIGKILL)
print(os.read(read_fd, 64).decode(), "status=%d" % os.waitpid(child, 0)[1])
# the child left the parent's pool alone
assert mc._POOL is pool and run(cfg, workers=2).cells == cells
"""


@needs_fork
def test_forked_child_starts_its_own_pool(fresh):
    proc = fresh("-c", FORK_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["same=1", "own=1", "status=0"], proc.stderr


# Each worker's share sleeps for a minute; SIGINT reaches the parent alone,
# as from `kill -INT` or a notebook's interrupt, not a terminal's Ctrl-C.
# The script installs Python's own SIGINT handler first: a background job of
# a non-interactive shell inherits SIGINT ignored, and there raise_signal
# would do nothing while the run waits out its sleeping workers.
INTERRUPT_SCRIPT = """
import os, signal, time
signal.signal(signal.SIGINT, signal.default_int_handler)
os.sched_getaffinity = lambda pid: {0, 1}
import crtest.mc as mc
from crtest import FamilyParams, SimConfig, run

cfg = SimConfig(params=FamilyParams(lam=1.0, p1=0.3, a=1.0, seed=1), n_grid=(20,),
                alpha_grid=(0.05,), a_grid=(1.0, 1.5), reps=100)
serial = run(cfg, workers=1).cells
run_block = mc._run_block

def slow_block(*args):
    time.sleep(60)
    return run_block(*args)

workers, fired = {}, []

def interrupt(signum, frame):
    workers.update(mc._POOL[1]._processes)
    fired.append(time.monotonic())
    signal.raise_signal(signal.SIGINT)

mc._run_block = slow_block
signal.signal(signal.SIGALRM, interrupt)
signal.alarm(2)
try:
    run(cfg, workers=2)
except KeyboardInterrupt:
    print("interrupted=%d" % (time.monotonic() - fired[0] < 10))
gone = 0
for pid in workers:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        gone += 1
print("workers=%d gone=%d" % (len(workers), gone))
mc._run_block = run_block
print("same=%d" % (run(cfg, workers=2).cells == serial))
"""


@needs_fork
def test_interrupted_run_stops_its_workers(fresh):
    proc = fresh("-c", INTERRUPT_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["interrupted=1", "workers=2", "gone=2", "same=1"], proc.stderr


@needs_fork
def test_killed_worker_fails_one_run_and_the_next_forks_a_new_pool(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = run(POOL_GRID, workers=1)
    run(POOL_GRID, workers=2)
    pool, _ = live_pool()
    os.kill(pool.submit(os.getpid).result(timeout=60), signal.SIGKILL)
    # wait until the pool has seen the death, so the next run cannot finish
    # every task on the surviving worker first
    deadline = time.monotonic() + 60
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    with pytest.raises(BrokenProcessPool):
        run(POOL_GRID, workers=2)
    assert crtest.mc._POOL is None
    assert run(POOL_GRID, workers=2).cells == serial.cells
    assert live_pool()[0] is not pool


def test_interpreter_with_a_live_pool_exits_cleanly(fresh):
    # the second script keeps crtest.mc alive into interpreter teardown, as
    # a test runner's references can: a pool collected only then ran a
    # concurrent.futures callback into an already cleared module
    for keep in ("", "import crtest.mc; crtest.mc.itself = crtest.mc"):
        code = "\n".join([
            "import os",
            "os.sched_getaffinity = lambda pid: {0, 1}",
            keep,
            "from crtest import FamilyParams, SimConfig, run",
            "cfg = SimConfig(params=FamilyParams(lam=1.0, p1=0.4, a=1.0, seed=3), n_grid=(10, 20),",
            "                alpha_grid=(0.05,), a_grid=(1.0,), reps=100)",
            "assert run(cfg, workers=2).metadata['workers'] == 2",
        ])
        proc = fresh("-c", code)
        assert (proc.returncode, proc.stderr) == (0, ""), keep


START_METHOD_SCRIPT = """
import multiprocessing, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
multiprocessing.set_start_method(sys.argv[1])
from crtest import FamilyParams, SimConfig, run
cfg = SimConfig(params=FamilyParams(lam=1.0, p1=0.3, a=1.0, seed=2), n_grid=(20, 300),
                alpha_grid=(0.05,), a_grid=(1.0, 1.5), reps=200)
serial, pooled = run(cfg, workers=1), run(cfg, workers=2)
assert pooled.metadata["workers"] == 2
assert pooled.cells == serial.cells
assert pooled.metadata["newton_iters_max"] == serial.metadata["newton_iters_max"]
"""


@pytest.mark.parametrize("method", [m for m in ("spawn", "forkserver")
                                    if m in multiprocessing.get_all_start_methods()])
def test_pools_started_without_fork_match_one_worker(method, fresh):
    # such workers import crtest and numpy.random themselves instead of
    # inheriting the caller's; forkserver is Linux's default from Python 3.14
    proc = fresh("-c", START_METHOD_SCRIPT, method)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
