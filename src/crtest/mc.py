"""Monte Carlo rejection-rate harness over (a, n, alpha) grids.

One simulated sample per (a, n, replication) triple feeds every requested
method and every alpha, so method comparisons are paired and adding an alpha
never changes the draws.  Replication streams are keyed by
``SeedSequence(entropy=seed, spawn_key=(a_index, n_index, replication))``,
which makes results identical regardless of execution schedule or worker
count; reduction is over integer rejection counts only.

Each task works on one stack: ``datagen.uniform_rows`` seeds all of the
task's replications at once and fills one row of an R-by-2n array per
replication, with the uniforms that replication's own spawn-keyed
generator would draw; the task's samples are then scored, jackknifed and
tested together (``ustat.jackknife_rows``, ``jel.jel_statistics``,
``ddk.zstat``).  A task holds at most ``_BLOCK_ELEMS`` values, so memory
does not grow with the replication count.  Every row gives the same
decisions as the single-sample API.

Replications where a method's statistic is undefined (every pseudo-value
zero for the empirical-likelihood test, a single observed cause for the
normal-calibrated test) are excluded from that method's denominator and
tallied in ``SimCell.excluded`` instead of failing the run.  Replications
where 0 lies outside the pseudo-value hull get an infinite ``jel`` statistic,
count as rejections, and are tallied in ``SimCell.hull_violations``.
``jel_statistics`` gets the alphas' chi-square quantiles as thresholds and
stops a row once its concave-dual bounds L <= T <= U (see :mod:`crtest.jel`)
leave every quantile more than the margin 1e-9 * max(1, largest quantile)
outside [L, U], which decides every rejection as the full solve would
(the bounds hold inside Owen's 2001 bracket of the root).  So
``newton_iters_max`` (schema 3) is the most Newton steps any of the cell's
rows took to its decision, not to convergence.

A run on more than one worker deals its tasks into one share per worker,
balanced by value count, and sends each worker its share as one message,
so the pool's fixed cost per message is paid once per worker, not once per
task.  Such runs share one process pool per process, started by the first
such run and reused until the interpreter exits, a run asks for a
different worker count, or a run fails; a failed or interrupted run stops
its workers, whatever share they are running, takes its pool down with it,
and the next run starts a fresh one.  This pays off in a process that
makes several runs, as a study over several ``FamilyParams`` does: one
``run`` per setting.  Between runs the workers sit idle, and
pooled runs from several threads take turns on the one pool.  Workers keep
the module state they started with, so patching ``crtest`` after the first
pooled run does not reach them.  A child forked from a process with a live
pool starts its own pool; the fork is one of a multi-threaded process, as
the pool keeps two threads in the parent.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import threading
import time

import numpy as np

from . import __version__
from ._checks import BLOCK_ELEMS as _BLOCK_ELEMS
from ._checks import flag, integer, items, level, real
from .data import Record
from .datagen import GENERATOR, SEED_SCHEME, FamilyParams, draw, uniform_rows
from .ddk import _rejects, zstat
from .jel import jel_statistics
from .specialfn import chisq1_quantile
from .ustat import jackknife_rows

SCHEMA_VERSION = 3

_METHOD_ORDER = ("jel", "ddk")

# (worker count, executor) of the pool that pooled runs reuse, or None; read
# and replaced only under _POOL_LOCK
_POOL = None
_POOL_LOCK = threading.Lock()
# pools a forked child inherited: never used or shut down there, and kept
# referenced, because collecting one takes a lock that a thread of the
# parent may have held at the fork
_INHERITED = []


def _forget_pool() -> None:
    """Give a forked child no pool and a free lock: both belong to the parent,
    whose other threads may have held the lock at the fork."""
    global _POOL, _POOL_LOCK
    if _POOL is not None:
        _INHERITED.append(_POOL)
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)


class SimConfig(Record):
    """Grids and budget for one harness run.

    ``params`` supplies p1, the master seed and the rate ``lam``, which is recorded
    in the metadata and moves no cell; each ``a_grid`` value replaces its ``a``.
    """

    params: FamilyParams
    n_grid: tuple[int, ...]
    alpha_grid: tuple[float, ...]
    a_grid: tuple[float, ...]
    reps: int
    methods: tuple[str, ...] = _METHOD_ORDER
    ddk_two_sided: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.params, FamilyParams):
            raise ValueError(f"params must be a FamilyParams, got {self.params!r}")
        # a task holds at least one replication, so n is bounded by the block cap
        object.__setattr__(self, "n_grid", tuple(
            integer(n, "every n_grid value", 3, _BLOCK_ELEMS) for n in items(self.n_grid, "n_grid")))
        object.__setattr__(self, "alpha_grid", tuple(
            level(al, "every alpha_grid value") for al in items(self.alpha_grid, "alpha_grid")))
        object.__setattr__(self, "a_grid", tuple(
            real(a, "every a_grid value", 1.0, 2.0) for a in items(self.a_grid, "a_grid")))
        object.__setattr__(self, "methods", items(self.methods, "methods"))
        # a replication index is one 32-bit spawn-key word (see uniform_rows)
        object.__setattr__(self, "reps", integer(self.reps, "reps", 100, 1 << 32))
        object.__setattr__(self, "ddk_two_sided", flag(self.ddk_two_sided, "ddk_two_sided"))
        # checked first, so that every method is a str before the set below
        if any(m not in _METHOD_ORDER for m in self.methods):
            raise ValueError(f"methods must be a non-empty subset of {_METHOD_ORDER}")
        for name in ("n_grid", "alpha_grid", "a_grid", "methods"):
            grid = getattr(self, name)
            if not grid:
                raise ValueError(f"{name} must be non-empty")
            if len(set(grid)) != len(grid):
                raise ValueError(f"{name} must not repeat a value, got {grid!r}")


class SimCell(Record):
    """Rejection rate for one (method, a, n, alpha) combination."""

    method: str
    a: float
    n: int
    alpha: float
    rate: float
    stderr: float
    rejections: int
    used: int
    excluded: int
    hull_violations: int = 0
    newton_iters_max: int = 0


class SimTable(Record):
    """All cells of a run plus reproduction metadata."""

    cells: dict[tuple[str, float, int, float], SimCell]
    metadata: dict

    def rows(self) -> list[SimCell]:
        return [self.cells[k] for k in sorted(self.cells)]

    def get(self, method: str, a: float, n: int, alpha: float) -> SimCell:
        return self.cells[(method, float(a), int(n), float(alpha))]


def _resolve_workers(workers: int) -> int:
    workers = integer(workers, "workers", what="an integer >= 0 (0 = every CPU)")
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    return min(workers or cpus, cpus)


def _run_block(config: SimConfig, a_idx: int, n_idx: int, rep_lo: int, rep_hi: int) -> np.ndarray:
    """Tallies of replications ``rep_lo..rep_hi`` of one (a, n) cell.

    Row i holds the ``random(2n)`` draw of replication ``rep_lo + i``'s
    spawn-keyed generator, computed for the whole task at once by
    :func:`~crtest.datagen.uniform_rows`, so a row is the sample
    ``sample()`` would give; the rows are jackknifed and tested as one
    stack.  Returns one integer row per requested method, in
    ``_METHOD_ORDER``: rejections per alpha, then excluded, hull violations
    and the most Newton steps to a decision.
    """
    a, n = config.a_grid[a_idx], config.n_grid[n_idx]
    params = FamilyParams(lam=config.params.lam, p1=config.params.p1, a=a, seed=config.params.seed)
    times, causes = draw(params, uniform_rows(params.seed, (a_idx, n_idx), rep_lo, rep_hi, 2 * n))
    d_hat, pseudo = jackknife_rows(times, causes)
    tallies = []
    if "jel" in config.methods:
        thresholds = [chisq1_quantile(1.0 - al) for al in config.alpha_grid]
        stat, degenerate, iterations, _, _ = jel_statistics(pseudo, thresholds)
        rejections = (stat[~degenerate, None] > thresholds).sum(axis=0)
        tallies.append([*rejections, degenerate.sum(), np.isinf(stat).sum(), iterations.max()])
    if "ddk" in config.methods:
        p1_hat = (causes == 1).sum(axis=1) / n
        observed = (p1_hat > 0.0) & (p1_hat < 1.0)
        z = zstat(d_hat[observed], p1_hat[observed], n)
        rejections = _rejects(z, config.alpha_grid, config.ddk_two_sided).sum(axis=0)
        tallies.append([*rejections, (~observed).sum(), 0, 0])
    return np.array(tallies, dtype=np.int64)


def _tasks(config: SimConfig, workers: int) -> list[tuple[SimConfig, int, int, int, int]]:
    """``_run_block`` arguments covering every cell's replications once.

    A task is one stack of at most ``_BLOCK_ELEMS`` values.  Each task pays a
    fixed seeding, solver and numpy overhead, so a cell is split further only
    when the grid has fewer cells than workers; at one worker a cell is one
    task unless the value cap splits it.  A pooled run sends the tasks as one
    share per worker (:func:`_shares`), so the pool's cost per message is
    paid once per worker, not once per task.
    """
    cells = len(config.a_grid) * len(config.n_grid)
    chunk = max(50, math.ceil(config.reps / math.ceil(workers / cells)))
    steps = [min(chunk, max(1, _BLOCK_ELEMS // n)) for n in config.n_grid]
    return [
        (config, a_idx, n_idx, lo, min(lo + step, config.reps))
        for a_idx in range(len(config.a_grid))
        for n_idx, step in enumerate(steps)
        for lo in range(0, config.reps, step)
    ]


def _shares(tasks: list[tuple], workers: int) -> list[list[tuple]]:
    """Deal ``tasks`` into ``workers`` shares of about equal work.

    Longest processing time first: tasks go out largest first, each to the
    share with the least work so far, the first such share on a tie.  A
    task's work is its value count, (rep_hi - rep_lo) * n; equal tasks go
    out in task order, so the shares are deterministic.  Each share keeps
    its tasks in task order, so one worker gets ``[tasks]``.  The largest
    and smallest shares differ by at most the largest task.
    """
    sizes = [(hi - lo) * config.n_grid[n_idx] for config, _, n_idx, lo, hi in tasks]
    loads, picks = [0] * workers, [[] for _ in range(workers)]
    for i in sorted(range(len(tasks)), key=lambda i: -sizes[i]):
        w = loads.index(min(loads))
        loads[w] += sizes[i]
        picks[w].append(i)
    return [[tasks[i] for i in sorted(share)] for share in picks]


def _run_share(share: list[tuple]) -> list[np.ndarray]:
    """``_run_block`` tallies of each task of one share, in order.

    ``_run_block`` is looked up in this module when called, so a worker
    runs the function the module held when the worker started.
    """
    return [_run_block(*task) for task in share]


def _drop_pool() -> None:
    """Shut the pool down and forget it."""
    global _POOL
    if _POOL is not None:
        _POOL[1].shutdown(cancel_futures=True)
    _POOL = None


# at exit, while the modules the pool uses still stand: collected later, in
# interpreter teardown, a pool runs a callback into a module already cleared
atexit.register(_drop_pool)


def _pool(workers: int):
    """This process's pool of ``workers`` workers, started on first use.

    Call with ``_POOL_LOCK`` held.
    """
    global _POOL
    if _POOL is not None and _POOL[0] == workers:
        return _POOL[1]
    _drop_pool()
    # deferred: the pool machinery costs start-up time and memory that
    # one-worker runs and the other commands never use
    from concurrent.futures import ProcessPoolExecutor

    _POOL = (workers, ProcessPoolExecutor(max_workers=workers))
    return _POOL[1]


def run(config: SimConfig, workers: int = 0) -> SimTable:
    """Execute the harness on ``workers`` processes (0 = one per CPU),
    capped at the available CPUs and the task count.

    More than one worker runs the tasks on this process's shared pool (see
    the module docstring): it outlives the call, until interpreter exit, a
    run with another worker count, or an error.  Any exception from the pool,
    a killed worker's ``BrokenProcessPool`` included, fails this call only
    and drops the pool; the next call starts a fresh one.
    """
    t_start = time.perf_counter()
    workers = _resolve_workers(workers)
    lam, p1, seed = config.params.lam, config.params.p1, config.params.seed

    tasks = _tasks(config, workers)
    workers = min(workers, len(tasks))
    shares = _shares(tasks, workers)
    if workers == 1:
        share_results = [_run_share(shares[0])]
    else:
        with _POOL_LOCK:
            try:
                share_results = list(_pool(workers).map(_run_share, shares))
            except BaseException:
                # shutdown() cancels only shares not yet started, and waits
                # for the running ones, each a worker's whole share: stop the
                # workers first.  Before Python 3.14's terminate_workers() the
                # executor has no public way to, so this reaches _processes
                if _POOL is not None:
                    for proc in list(_POOL[1]._processes.values()):
                        proc.terminate()
                _drop_pool()
                raise

    # cells in task order, whatever share ran them
    per_cell: dict[tuple[int, int], list[np.ndarray]] = {(t[1], t[2]): [] for t in tasks}
    for share, results in zip(shares, share_results):
        for (_, a_idx, n_idx, _, _), tallies in zip(share, results):
            per_cell[a_idx, n_idx].append(tallies)

    methods = [m for m in _METHOD_ORDER if m in config.methods]
    cells: dict[tuple[str, float, int, float], SimCell] = {}
    for (a_idx, n_idx), blocks in per_cell.items():
        a, n = config.a_grid[a_idx], config.n_grid[n_idx]
        total = np.sum(blocks, axis=0)
        total[:, -1] = np.max(blocks, axis=0)[:, -1]
        for method, (*rejections, excluded, hull, iters) in zip(methods, total.tolist()):
            used = config.reps - excluded
            for alpha, rej in zip(config.alpha_grid, rejections):
                rate = rej / used if used else math.nan
                cells[(method, a, n, alpha)] = SimCell(
                    method=method, a=a, n=n, alpha=alpha,
                    rate=rate, stderr=math.sqrt(rate * (1.0 - rate) / used) if used else math.nan,
                    rejections=rej, used=used, excluded=excluded,
                    hull_violations=hull, newton_iters_max=iters,
                )

    metadata = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "seed": seed,
        "lambda": lam,
        "p1": p1,
        "a_grid": list(config.a_grid),
        "n_grid": list(config.n_grid),
        "alpha_grid": list(config.alpha_grid),
        "reps": config.reps,
        "methods": list(config.methods),
        "ddk_two_sided": config.ddk_two_sided,
        "generator": f"{GENERATOR}; {SEED_SCHEME}",
        "workers": workers,
        "newton_iters_max": max(c.newton_iters_max for c in cells.values()),
        "wall_time_s": round(time.perf_counter() - t_start, 3),
    }
    return SimTable(cells=cells, metadata=metadata)


_CSV_COLUMNS = ("method", "a", "n", "alpha", "rate", "stderr", "excluded", "rejections", "used",
                "hull_violations", "newton_iters_max")


def to_csv(table: SimTable) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for c in table.rows():
        values = (getattr(c, k) for k in _CSV_COLUMNS)
        lines.append(",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in values))
    return "\n".join(lines) + "\n"


def to_json(table: SimTable) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "metadata": table.metadata,
        # a cell whose replications were all excluded has NaN rate and stderr
        "cells": [{k: None if isinstance(v, float) and math.isnan(v) else v
                   for k, v in vars(c).items()} for c in table.rows()],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"
