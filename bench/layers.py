"""The traced run: per-layer numbers, measured from outside the package.

Spans are taken in the benchmark's own code around calls into each module's
public functions (the package itself is not instrumented):

* L0 ``import``: ``python -X importtime -c "import crtest.cli"``;
* ``analyze_csv``: in-process ``ingest``, ``jackknife`` and
  ``jel_statistic`` on the workload's CSV, next to timed CLI calls;
* ``power_*``: ``mc.run`` at one worker (whole grid and one n at a time), at
  the pool size, and the replay of :mod:`check`, whose clock stamps between
  ``rng_from_seed``, ``sample``, ``jackknife``, ``jel_statistic`` and
  ``zstat`` are kept in memory and summarised at the end.

A layer that does no work on a workload reports 0.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np

from check import (
    REPLAY_LAYERS, cell_counts, ingest_spec, power_checksum, replay, report_matches,
)
from proc import Ctx, checked, median_wall, run_child

PER_N = (20, 50, 100, 200)
IMPORT_REPEATS = 3
CLI_REPEATS = 5
INPROC_REPEATS = 3
# kernel_matrix materialises five boolean and three float64 n-by-n arrays
KERNEL_BYTES_PER_PAIR_CELL = 5 + 3 * 8

UNITS = {
    "import.total_s": "s", "import.scipy_s": "s",
    "cli.interp_s": "s", "cli.residual_s": "s",
    "ingest.s": "s", "ingest.rows": "count", "ingest.bytes": "bytes", "ingest.dropped": "count",
    "ustat.jackknife_s": "s",
    **{f"ustat.jackknife_us.n{n}": "us" for n in PER_N},
    "ustat.pairs": "count", "ustat.bytes_computed": "bytes", "ustat.peak_bytes": "bytes",
    "datagen.rng_us": "us", "datagen.sample_us": "us", "datagen.calls": "count",
    "jel.solve_s": "s",
    **{f"jel.solve_us.n{n}": "us" for n in PER_N},
    "jel.newton_iters.mean": "count", "jel.newton_iters.max": "count",
    "jel.hull_violations": "count", "jel.degenerate": "count", "jel.solved_ratio": "ratio",
    "ddk.zstat_us": "us", "ddk.excluded": "count",
    **{f"mc.us_per_rep.n{n}": "us" for n in PER_N},
    "mc.overhead_s": "s", "mc.pool_s": "s", "mc.tasks": "count",
    "trace.overhead_s": "s",
}

IMPORT_CLI = "import crtest.cli"


def _import_tree(stderr: str) -> list:
    """Parse ``-X importtime`` output into ``(name, cumulative_us, children)`` roots.

    Lines come children first, each indented two spaces deeper than its parent.
    """
    stack: list[tuple[int, tuple]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.insert(0, stack.pop()[1])
        stack.append((depth, (name.strip(), int(cumulative), children)))
    return [node for _, node in stack]


def _subtree_us(nodes: list, package: str) -> int:
    """Cumulative time of the outermost imports of ``package`` and its submodules."""
    total = 0
    for name, cumulative, children in nodes:
        if name.split(".")[0] == package:
            total += cumulative
        else:
            total += _subtree_us(children, package)
    return total


def import_layer(ctx: Ctx) -> tuple[dict, float]:
    """L0 import metrics plus the median wall of the ``-X importtime`` runs."""
    totals, scipys, walls = [], [], []
    for _ in range(IMPORT_REPEATS):
        res = checked(run_child(ctx, [ctx.python, "-X", "importtime", "-c", IMPORT_CLI]), "importtime")
        roots = _import_tree(res.stderr)
        totals.append(_subtree_us(roots, "crtest") / 1e6)
        scipys.append(_subtree_us(roots, "scipy") / 1e6)
        walls.append(res.wall_s)
    metrics = {
        "import.total_s": statistics.median(totals),
        "import.scipy_s": statistics.median(scipys),
        "cli.interp_s": median_wall(ctx, [ctx.python, "-c", "pass"], CLI_REPEATS),
    }
    return metrics, statistics.median(walls)


def _median_call(fn, *args):
    """Median wall of ``INPROC_REPEATS`` calls, and the last call's result."""
    walls = []
    for _ in range(INPROC_REPEATS):
        t0 = time.perf_counter()
        out = fn(*args)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls), out


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def analyze_layers(ctx: Ctx, cli_argv: list[str], csv_path, manifest: dict, ref: dict) -> dict:
    """Per-layer metrics of ``analyze_csv``; returns metrics, attempted and failed."""
    from crtest import ingest, jackknife, jel_statistic

    metrics = dict.fromkeys(UNITS, 0)
    imports, importtime_wall = import_layer(ctx)
    metrics.update(imports)

    calls = [run_child(ctx, cli_argv) for _ in range(CLI_REPEATS)]
    failed = sum(c.code != 0 or not report_matches(c.stdout, ref) for c in calls)
    cli_s = statistics.median(c.wall_s for c in calls)

    ingest_s, ing = _median_call(ingest, ingest_spec(csv_path))
    jk_s, jk = _median_call(jackknife, ing.sample)
    solve_s, (stat, hull_ok, degenerate, el) = _median_call(jel_statistic, jk.pseudo_values)
    n = ing.n_used
    solved = hull_ok and not degenerate
    metrics.update({
        "cli.residual_s": cli_s - metrics["cli.interp_s"] - metrics["import.total_s"]
        - ingest_s - jk_s - solve_s,
        "ingest.s": ingest_s,
        "ingest.rows": manifest["rows"],
        "ingest.bytes": manifest["bytes"],
        "ingest.dropped": ing.n_dropped,
        "ustat.jackknife_s": jk_s,
        "ustat.pairs": n * (n - 1) // 2,
        "ustat.bytes_computed": KERNEL_BYTES_PER_PAIR_CELL * n * n,
        "ustat.peak_bytes": _peak_bytes(jackknife, ing.sample),
        "jel.solve_s": solve_s,
        "jel.newton_iters.mean": el.iterations if solved else 0,
        "jel.newton_iters.max": el.iterations if solved else 0,
        "jel.hull_violations": int(not hull_ok),
        "jel.degenerate": int(degenerate),
        "jel.solved_ratio": float(solved),
        "trace.overhead_s": importtime_wall - median_wall(ctx, [ctx.python, "-c", IMPORT_CLI],
                                                           IMPORT_REPEATS),
    })
    return {"metrics": metrics, "attempted": len(calls), "failed": failed}


def _timed_run(config, workers: int):
    from crtest import run

    t0 = time.perf_counter()
    table = run(config, workers=workers)
    return time.perf_counter() - t0, table


def power_layers(ctx: Ctx, spec: dict, workers: int) -> dict:
    """Per-layer metrics of a ``power_*`` workload; returns metrics, attempted and failed."""
    from crtest import FamilyParams, jackknife, rng_from_seed, sample

    from gen import sim_config

    metrics = dict.fromkeys(UNITS, 0)
    imports, _ = import_layer(ctx)
    metrics.update(imports)

    config = sim_config(spec)
    serial_s, serial_table = _timed_run(config, 1)
    tables = [serial_table]
    if workers > 1:
        submit = ProcessPoolExecutor.submit
        submitted = []

        def counting_submit(self, *args, **kwargs):
            submitted.append(1)
            return submit(self, *args, **kwargs)

        with mock.patch.object(ProcessPoolExecutor, "submit", counting_submit):
            pool_wall, pool_table = _timed_run(config, workers)
        tables.append(pool_table)
        metrics["mc.tasks"] = len(submitted)
    reps_per_n = spec["reps"] * len(spec["a_grid"])
    for n in spec["n_grid"]:
        wall, _ = _timed_run(sim_config(spec, n_grid=(n,)), 1)
        metrics[f"mc.us_per_rep.n{n}"] = wall / reps_per_n * 1e6

    rp = replay(spec)
    failed = sum(cell_counts(t) != rp.counts for t in tables)
    spans_us = np.diff(rp.stamps, axis=1) / 1e3
    layer = dict(zip(REPLAY_LAYERS, spans_us.T))
    layer_sum_s = float(spans_us.sum()) / 1e6
    if workers > 1:
        metrics["mc.pool_s"] = pool_wall - layer_sum_s / workers
    pairs = rp.n_of_rep * (rp.n_of_rep - 1) // 2
    for n in spec["n_grid"]:
        at_n = rp.n_of_rep == n
        metrics[f"ustat.jackknife_us.n{n}"] = float(layer["jackknife"][at_n].mean())
        metrics[f"jel.solve_us.n{n}"] = float(layer["jel"][at_n].mean())
    largest = sample(FamilyParams(lam=spec["lam"], p1=spec["p1"], a=spec["a_grid"][-1]),
                     max(spec["n_grid"]), rng=rng_from_seed(spec["seed"]))
    iters = rp.newton_iters or [0]
    metrics.update({
        "ustat.pairs": int(pairs.sum()),
        "ustat.bytes_computed": int(KERNEL_BYTES_PER_PAIR_CELL * (rp.n_of_rep**2).sum()),
        "ustat.peak_bytes": _peak_bytes(jackknife, largest),
        "datagen.rng_us": float(layer["rng"].mean()),
        "datagen.sample_us": float(layer["sample"].mean()),
        "datagen.calls": len(rp.n_of_rep),
        "jel.newton_iters.mean": statistics.fmean(iters),
        "jel.newton_iters.max": max(iters),
        "jel.hull_violations": rp.hull_violations,
        "jel.degenerate": rp.jel_degenerate,
        "jel.solved_ratio": len(rp.newton_iters) / rp.jel_attempts,
        # zstat is skipped on replications with one observed cause, whose
        # span then only holds the cause count
        "ddk.zstat_us": float(layer["zstat"].sum()) / max(rp.zstat_calls, 1),
        "ddk.excluded": rp.ddk_excluded,
        "mc.overhead_s": serial_s - layer_sum_s,
        "trace.overhead_s": rp.wall_s - serial_s,
    })
    return {"metrics": metrics, "attempted": len(tables), "failed": failed,
            "checksum": power_checksum(rp.counts)}
