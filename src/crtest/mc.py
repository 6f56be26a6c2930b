"""Monte Carlo rejection-rate harness over (a, n, alpha) grids.

One simulated sample per (a, n, replication) triple feeds every requested
method and every alpha, so method comparisons are paired and adding an alpha
never changes the draws.  Replication streams are keyed by
``SeedSequence(entropy=seed, spawn_key=(a_index, n_index, replication))``,
which makes results identical regardless of execution schedule or worker
count; reduction is over integer rejection counts only.

A task block works on stacked arrays: each replication's generator draws its
uniforms into one row of an R-by-2n array, and the block's samples are
scored, jackknifed and tested together (``ustat.jackknife_rows``,
``jel.jel_statistics``, ``ddk.zstat``), in sub-blocks of at most
``_BLOCK_ELEMS`` values so that memory does not grow with the replication
count.  Every row gives the same numbers as the single-sample API.

Replications where a method's statistic is undefined (every pseudo-value
zero for the empirical-likelihood test, a single observed cause for the
normal-calibrated test) are excluded from that method's denominator and
tallied in ``SimCell.excluded`` instead of failing the run.  Replications
where 0 lies outside the pseudo-value hull get an infinite ``jel`` statistic,
count as rejections, and are tallied in ``SimCell.hull_violations``;
``newton_iters_max`` is the most Newton steps any of the cell's ``jel``
solves took.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .datagen import GENERATOR, SEED_SCHEME, FamilyParams, draw, rng_from_seed
from .ddk import zstat
from .jel import jel_statistics
from .specialfn import chisq1_quantile, normal_quantile
from .ustat import jackknife_rows

SCHEMA_VERSION = 2

# Largest R*n stack one sub-block holds: bounds a block's memory whatever
# its replication count, while keeping numpy's per-call overhead amortised.
_BLOCK_ELEMS = 1 << 14

_METHOD_ORDER = ("jel", "ddk")


@dataclass(frozen=True)
class SimConfig:
    """Grids and budget for one harness run.

    ``params`` supplies the baseline rate, cause-1 mass and master seed; its
    ``a`` is replaced by each ``a_grid`` value cell by cell.
    """

    params: FamilyParams
    n_grid: tuple[int, ...]
    alpha_grid: tuple[float, ...]
    a_grid: tuple[float, ...]
    reps: int
    methods: tuple[str, ...] = _METHOD_ORDER
    ddk_two_sided: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "alpha_grid", tuple(float(a) for a in self.alpha_grid))
        object.__setattr__(self, "a_grid", tuple(float(a) for a in self.a_grid))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.n_grid or any(n < 3 for n in self.n_grid):
            raise ValueError("n_grid must be non-empty with every n >= 3")
        if not self.alpha_grid or any(not 0.0 < a < 1.0 for a in self.alpha_grid):
            raise ValueError("alpha_grid must be non-empty with every alpha in (0, 1)")
        if not self.a_grid:
            raise ValueError("a_grid must be non-empty")
        for a in self.a_grid:
            # reuse the family's own range check
            FamilyParams(lam=self.params.lam, p1=self.params.p1, a=a, seed=self.params.seed)
        if self.reps < 100:
            raise ValueError(f"reps must be >= 100, got {self.reps!r}")
        if not self.methods or any(m not in _METHOD_ORDER for m in self.methods):
            raise ValueError(f"methods must be a non-empty subset of {_METHOD_ORDER}")


@dataclass(frozen=True)
class SimCell:
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


@dataclass
class SimTable:
    """All cells of a run plus reproduction metadata."""

    cells: dict[tuple[str, float, int, float], SimCell]
    metadata: dict

    def rows(self) -> list[SimCell]:
        return [self.cells[k] for k in sorted(self.cells)]

    def get(self, method: str, a: float, n: int, alpha: float) -> SimCell:
        return self.cells[(method, float(a), int(n), float(alpha))]


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get("CRTEST_THREADS", "").strip()
        try:
            workers = int(env) if env else 0
        except ValueError:
            raise ValueError(f"CRTEST_THREADS must be an integer, got {env!r}") from None
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers!r}")
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    return min(workers or cpus, cpus)


@lru_cache(maxsize=8)
def _thresholds(alpha_grid: tuple[float, ...], two_sided: bool) -> tuple[tuple[float, ...], ...]:
    """Per-alpha critical values of the jel statistic and of the ddk z.

    Cached because every block of a run needs the same ones and each
    quantile is a root search.
    """
    jel_thr = tuple(chisq1_quantile(1.0 - al) for al in alpha_grid)
    half = 0.5 if two_sided else 1.0
    ddk_thr = tuple(normal_quantile(1.0 - al * half) for al in alpha_grid)
    return jel_thr, ddk_thr


def _run_block(config: SimConfig, a_idx: int, n_idx: int, rep_lo: int, rep_hi: int) -> tuple:
    """Replications ``rep_lo..rep_hi`` of one (a, n) cell, as stacked arrays.

    Each replication keeps its own spawn-keyed generator and one
    ``random(2n)`` draw, so a row is the sample ``sample()`` would give.
    The rows are cut into sub-blocks of at most ``_BLOCK_ELEMS`` values; each
    sub-block gets one ``jackknife_rows``, one ``jel_statistics`` and one
    ``zstat`` call.
    """
    a, n = config.a_grid[a_idx], config.n_grid[n_idx]
    params = FamilyParams(lam=config.params.lam, p1=config.params.p1, a=a, seed=config.params.seed)
    seed = params.seed
    jel_thr, ddk_thr = _thresholds(config.alpha_grid, config.ddk_two_sided)
    want_jel = "jel" in config.methods
    want_ddk = "ddk" in config.methods
    jel_rej = [0] * len(jel_thr)
    ddk_rej = [0] * len(ddk_thr)
    jel_exc = ddk_exc = hull = iters_max = 0
    step = max(1, _BLOCK_ELEMS // n)
    for lo in range(rep_lo, rep_hi, step):
        reps = range(lo, min(lo + step, rep_hi))
        u = np.empty((len(reps), 2 * n))
        for row, rep in zip(u, reps):
            rng_from_seed(seed, (a_idx, n_idx, rep)).random(out=row)
        times, causes = draw(params, u)
        d_hat, pseudo = jackknife_rows(times, causes)
        if want_jel:
            stat, degenerate, iterations = jel_statistics(pseudo)
            jel_exc += int(degenerate.sum())
            hull += int(np.isinf(stat).sum())
            iters_max = max(iters_max, int(iterations.max()))
            stat = stat[~degenerate]
            for k, thr in enumerate(jel_thr):
                jel_rej[k] += int((stat > thr).sum())
        if want_ddk:
            p1_hat = (causes == 1).sum(axis=1) / n
            observed = (p1_hat > 0.0) & (p1_hat < 1.0)
            ddk_exc += int((~observed).sum())
            z = zstat(d_hat[observed], p1_hat[observed], n)
            if config.ddk_two_sided:
                z = np.abs(z)
            for k, thr in enumerate(ddk_thr):
                ddk_rej[k] += int((z > thr).sum())
    return (a_idx, n_idx, jel_rej, ddk_rej, jel_exc, ddk_exc, hull, iters_max)


def run(config: SimConfig, workers: int | None = None) -> SimTable:
    """Execute the harness; ``workers`` falls back to CRTEST_THREADS (0 = auto)
    and is capped at the available CPUs and the task count."""
    t_start = time.perf_counter()
    workers = _resolve_workers(workers)
    lam, p1, seed = config.params.lam, config.params.p1, config.params.seed

    chunk = config.reps if workers == 1 else max(50, math.ceil(config.reps / (4 * workers)))
    tasks = [
        (config, a_idx, n_idx, lo, min(lo + chunk, config.reps))
        for a_idx in range(len(config.a_grid))
        for n_idx in range(len(config.n_grid))
        for lo in range(0, config.reps, chunk)
    ]

    workers = min(workers, len(tasks))
    if workers == 1:
        block_results = [_run_block(*t) for t in tasks]
    else:
        # deferred: the pool machinery costs start-up time and memory that
        # one-worker runs and the other commands never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            block_results = list(pool.map(_run_block, *zip(*tasks)))

    n_alpha = len(config.alpha_grid)
    acc: dict[tuple[int, int], list] = {}
    for a_idx, n_idx, jr, dr, je, de, hv, it in block_results:
        slot = acc.setdefault((a_idx, n_idx), [[0] * n_alpha, [0] * n_alpha, 0, 0, 0, 0])
        slot[0] = [x + y for x, y in zip(slot[0], jr)]
        slot[1] = [x + y for x, y in zip(slot[1], dr)]
        slot[2] += je
        slot[3] += de
        slot[4] += hv
        slot[5] = max(slot[5], it)

    cells: dict[tuple[str, float, int, float], SimCell] = {}
    for method in (m for m in _METHOD_ORDER if m in config.methods):
        for a_idx, a in enumerate(config.a_grid):
            for n_idx, n in enumerate(config.n_grid):
                jr, dr, je, de, hv, it = acc[(a_idx, n_idx)]
                if method == "jel":
                    rej_counts, exc = jr, je
                else:
                    rej_counts, exc, hv, it = dr, de, 0, 0
                used = config.reps - exc
                for k, alpha in enumerate(config.alpha_grid):
                    if used > 0:
                        rate = rej_counts[k] / used
                        stderr = math.sqrt(rate * (1.0 - rate) / used)
                    else:
                        rate = math.nan
                        stderr = math.nan
                    cells[(method, a, n, alpha)] = SimCell(
                        method=method, a=a, n=n, alpha=alpha,
                        rate=rate, stderr=stderr,
                        rejections=rej_counts[k], used=used, excluded=exc,
                        hull_violations=hv, newton_iters_max=it,
                    )

    from . import __version__  # deferred: this module is re-exported by the package root

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
        "newton_iters_max": max(slot[5] for slot in acc.values()),
        "wall_time_s": round(time.perf_counter() - t_start, 3),
    }
    return SimTable(cells=cells, metadata=metadata)


def _fmt(x: float) -> str:
    return "nan" if math.isnan(x) else f"{x:.10g}"


def to_csv(table: SimTable) -> str:
    lines = ["method,a,n,alpha,rate,stderr,excluded,rejections,used,hull_violations,newton_iters_max"]
    for c in table.rows():
        lines.append(
            f"{c.method},{_fmt(c.a)},{c.n},{_fmt(c.alpha)},"
            f"{_fmt(c.rate)},{_fmt(c.stderr)},{c.excluded},{c.rejections},{c.used},"
            f"{c.hull_violations},{c.newton_iters_max}"
        )
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
