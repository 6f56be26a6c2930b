"""Child processes with a pinned environment, timed from outside.

Every process the benchmark starts goes through :func:`run_child`, which
waits for it with ``wait4`` so that its CPU time and peak RSS come from the
kernel's accounting of that child (and the children it reaped, such as pool
workers), never from the machine as a whole.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# native thread pools pinned to one thread in the benchmark and every child
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Ctx:
    """Where and how children run: interpreter, environment, checkout root, scratch dir."""

    python: str
    env: dict
    root: Path
    work: Path


@dataclass(frozen=True)
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(ctx: Ctx, argv: list[str], timeout: float = 150.0) -> ChildResult:
    """Run one child to completion; it is killed if it outlives ``timeout``."""
    with tempfile.TemporaryFile(dir=ctx.work) as out, tempfile.TemporaryFile(dir=ctx.work) as err:
        t0 = time.perf_counter()
        # its own process group, so that killing it also ends any pool workers
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ctx.env, cwd=ctx.root,
                                start_new_session=True)

        def kill() -> None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        killer = threading.Timer(timeout, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildResult(
            code=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read().decode(),
            stderr=err.read().decode(),
        )


def checked(result: ChildResult, what: str) -> ChildResult:
    if result.code != 0:
        raise RuntimeError(f"{what} exited with {result.code}: {result.stderr.strip()[-500:]}")
    return result


def median_wall(ctx: Ctx, argv: list[str], repeats: int) -> float:
    """Median wall time of ``repeats`` fresh runs of ``argv``, each required to succeed."""
    return statistics.median(
        checked(run_child(ctx, argv), " ".join(argv[1:])).wall_s for _ in range(repeats)
    )


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]
