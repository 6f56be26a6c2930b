"""Seeded inputs for the benchmark workloads.

Every input the program under test receives is made here from the workload
seed: the CSV that ``crtest test`` reads and the JSON spec from which the
harness builds its ``SimConfig``.  Each writer returns a manifest with the
rows, dropped rows, bytes and SHA-256 of the file it wrote, so a result can
be tied to its exact input.

The CSV is drawn with numpy directly, not with ``crtest.datagen``, so that a
change to the package's sampler cannot change the benchmark's input.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

CAUSE1_LABEL = "relapse"
CAUSE2_LABEL = "death"
DROP_LABEL = "censored"
DROP_SHARE = 0.2

# Full-size and smoke-test sizes.  5000 rows is about the largest input the
# dense n-by-n pair kernel handles well; the harness reps are chosen so one
# mc.run call takes about a second and a run holds enough calls for a p90.
SCALES = {
    "full": {"csv_rows": 5000, "reps": 250},
    "tiny": {"csv_rows": 300, "reps": 100},
}

ALPHAS = (0.01, 0.05)
POWER_GRIDS = {
    # ROADMAP grid, balanced causes: the single-threaded harness baseline.
    "power_grid": {"p1": 0.5, "n_grid": (20, 50, 100), "a_grid": (1.0, 1.5)},
    # Unbalanced causes and a larger n: hull violations, degenerate
    # replications and the process pool.
    "power_pool": {"p1": 0.1, "n_grid": (20, 50, 200), "a_grid": (1.0, 2.0)},
}


def _manifest(path: Path, data: bytes, rows: int, dropped: int) -> dict:
    return {
        "file": path.name,
        "rows": rows,
        "dropped": dropped,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def write_csv(path: Path, seed: int, rows: int) -> dict:
    """Write a competing-risks CSV with text cause labels.

    Times are exponential, rounded to one decimal so that ties occur; cause 1
    grows mildly more likely at later times; about ``DROP_SHARE`` of the rows
    carry the censored label that the analysis drops.
    """
    rng = np.random.default_rng([seed, 1])
    u = rng.random(rows)
    times = np.round(-10.0 * np.log1p(-u), 1)
    cause1 = rng.random(rows) < 0.54 * u**0.2
    dropped = rng.random(rows) < DROP_SHARE
    labels = np.where(dropped, DROP_LABEL, np.where(cause1, CAUSE1_LABEL, CAUSE2_LABEL))
    lines = ["id,time,status"]
    lines += [f"{i},{t:.1f},{lab}" for i, (t, lab) in enumerate(zip(times, labels))]
    data = ("\n".join(lines) + "\n").encode()
    path.write_bytes(data)
    return _manifest(path, data, rows, int(dropped.sum()))


def csv_cli_args(path: Path) -> list[str]:
    """Arguments of ``crtest test`` for a CSV made by :func:`write_csv`."""
    return [
        "test", "--input", str(path), "--time-col", "time", "--cause-col", "status",
        "--cause1", CAUSE1_LABEL, "--cause2", CAUSE2_LABEL, "--drop", DROP_LABEL,
        "--method", "jel", "--format", "json",
    ]


def write_sim_spec(path: Path, workload: str, seed: int, reps: int) -> dict:
    """Write the JSON spec of a harness run; the master seed is the workload seed."""
    grid = POWER_GRIDS[workload]
    spec = {
        "lam": 1.0,
        "p1": grid["p1"],
        "seed": seed,
        "n_grid": list(grid["n_grid"]),
        "a_grid": list(grid["a_grid"]),
        "alpha_grid": list(ALPHAS),
        "reps": reps,
        "methods": ["jel", "ddk"],
    }
    data = (json.dumps(spec, indent=1) + "\n").encode()
    path.write_bytes(data)
    return _manifest(path, data, rows=1, dropped=0)


def sim_config(spec: dict, n_grid: tuple[int, ...] | None = None):
    """Build the harness ``SimConfig`` from a spec written by :func:`write_sim_spec`."""
    from crtest import FamilyParams, SimConfig

    return SimConfig(
        params=FamilyParams(lam=spec["lam"], p1=spec["p1"], a=spec["a_grid"][0], seed=spec["seed"]),
        n_grid=tuple(n_grid or spec["n_grid"]),
        alpha_grid=tuple(spec["alpha_grid"]),
        a_grid=tuple(spec["a_grid"]),
        reps=spec["reps"],
        methods=tuple(spec["methods"]),
    )
