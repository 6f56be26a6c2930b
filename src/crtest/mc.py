"""Monte Carlo rejection-rate harness over (a, n, alpha) grids.

One simulated sample per (a, n, replication) triple feeds every requested
method and every alpha, so method comparisons are paired and adding an alpha
never changes the draws.  Replication streams are keyed by
``SeedSequence(entropy=seed, spawn_key=(a_index, n_index, replication))``,
which makes results identical regardless of execution schedule or worker
count; reduction is over integer rejection counts only.

Replications where a method's statistic is undefined (every pseudo-value
zero for the empirical-likelihood test, a single observed cause for the
normal-calibrated test) are excluded from that method's denominator and
tallied in ``SimCell.excluded`` instead of failing the run.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .datagen import GENERATOR, SEED_SCHEME, FamilyParams, rng_from_seed, sample
from .jel import jel_statistic
from .specialfn import chisq1_quantile, normal_quantile
from .ustat import delta_hat, jackknife
from .ddk import zstat

SCHEMA_VERSION = 1

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


def _run_block(task: tuple) -> tuple:
    (lam, p1, seed, a, n, a_idx, n_idx, rep_lo, rep_hi,
     want_jel, want_ddk, ddk_abs, jel_thr, ddk_thr) = task
    params = FamilyParams(lam=lam, p1=p1, a=a, seed=seed)
    jel_rej = [0] * len(jel_thr)
    ddk_rej = [0] * len(ddk_thr)
    jel_exc = 0
    ddk_exc = 0
    for rep in range(rep_lo, rep_hi):
        rng = rng_from_seed(seed, (a_idx, n_idx, rep))
        s = sample(params, n, rng=rng)
        jk = None
        if want_jel:
            jk = jackknife(s)
            stat, _, degenerate, _ = jel_statistic(jk.pseudo_values)
            if degenerate:
                jel_exc += 1
            else:
                for k, thr in enumerate(jel_thr):
                    jel_rej[k] += stat > thr
        if want_ddk:
            p1_hat = s.count_cause(1) / n
            if p1_hat == 0.0 or p1_hat == 1.0:
                ddk_exc += 1
            else:
                dh = jk.delta_hat if jk is not None else delta_hat(s)
                z = zstat(dh, p1_hat, n)
                if ddk_abs:
                    z = abs(z)
                for k, thr in enumerate(ddk_thr):
                    ddk_rej[k] += z > thr
    return (a_idx, n_idx, jel_rej, ddk_rej, jel_exc, ddk_exc)


def run(config: SimConfig, workers: int | None = None) -> SimTable:
    """Execute the harness; ``workers`` falls back to CRTEST_THREADS (0 = auto)
    and is capped at the available CPUs and the task count."""
    t_start = time.perf_counter()
    workers = _resolve_workers(workers)
    lam, p1, seed = config.params.lam, config.params.p1, config.params.seed
    want_jel = "jel" in config.methods
    want_ddk = "ddk" in config.methods
    jel_thr = tuple(chisq1_quantile(1.0 - al) for al in config.alpha_grid) if want_jel else ()
    if want_ddk:
        half = 0.5 if config.ddk_two_sided else 1.0
        ddk_thr = tuple(normal_quantile(1.0 - al * half) for al in config.alpha_grid)
    else:
        ddk_thr = ()

    chunk = config.reps if workers == 1 else max(50, math.ceil(config.reps / (4 * workers)))
    tasks = []
    for a_idx, a in enumerate(config.a_grid):
        for n_idx, n in enumerate(config.n_grid):
            for lo in range(0, config.reps, chunk):
                tasks.append((lam, p1, seed, a, n, a_idx, n_idx,
                              lo, min(lo + chunk, config.reps),
                              want_jel, want_ddk, config.ddk_two_sided,
                              jel_thr, ddk_thr))

    workers = min(workers, len(tasks))
    if workers == 1:
        block_results = [_run_block(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            block_results = list(pool.map(_run_block, tasks))

    acc: dict[tuple[int, int], list] = {}
    for a_idx, n_idx, jr, dr, je, de in block_results:
        slot = acc.setdefault(
            (a_idx, n_idx), [[0] * len(jel_thr), [0] * len(ddk_thr), 0, 0]
        )
        slot[0] = [x + y for x, y in zip(slot[0], jr)]
        slot[1] = [x + y for x, y in zip(slot[1], dr)]
        slot[2] += je
        slot[3] += de

    cells: dict[tuple[str, float, int, float], SimCell] = {}
    for method in (m for m in _METHOD_ORDER if m in config.methods):
        for a_idx, a in enumerate(config.a_grid):
            for n_idx, n in enumerate(config.n_grid):
                jr, dr, je, de = acc[(a_idx, n_idx)]
                rej_counts, exc = (jr, je) if method == "jel" else (dr, de)
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
        "wall_time_s": round(time.perf_counter() - t_start, 3),
    }
    return SimTable(cells=cells, metadata=metadata)


def _fmt(x: float) -> str:
    return "nan" if math.isnan(x) else f"{x:.10g}"


def to_csv(table: SimTable) -> str:
    lines = ["method,a,n,alpha,rate,stderr,excluded,rejections,used"]
    for c in table.rows():
        lines.append(
            f"{c.method},{_fmt(c.a)},{c.n},{_fmt(c.alpha)},"
            f"{_fmt(c.rate)},{_fmt(c.stderr)},{c.excluded},{c.rejections},{c.used}"
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
