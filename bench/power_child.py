"""Time repeated ``mc.run`` calls on one harness spec, in a process of its own.

    python3 bench/power_child.py SPEC_JSON CPUS SECONDS MIN_OPS

Runs the harness with one worker per CPU in the comma-separated CPUS list
until SECONDS have passed and at least MIN_OPS calls are done, with the
calibration kernel of :mod:`calib` run on those CPUs before, between and
after the calls.  Prints one JSON line with each call's wall time, CPU time
(pool workers included once reaped) and cell counts, and the kernel times.
The parent reads this process's peak RSS from ``wait4``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from calib import bracketed
from check import cell_counts
from gen import sim_config


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv: list[str]) -> int:
    from crtest import run

    spec = json.loads(Path(argv[0]).read_text())
    cpus = [int(c) for c in argv[1].split(",")]
    seconds, min_ops = float(argv[2]), int(argv[3])
    config = sim_config(spec)

    def one_call() -> dict:
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            table = run(config, workers=len(cpus))
        except Exception as exc:  # a failed call is counted by the parent, not fatal
            return {"wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - c0,
                    "error": repr(exc)}
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
        return {"wall_s": wall, "cpu_s": cpu,
                "counts": [[*key, *val] for key, val in cell_counts(table).items()]}

    start = time.perf_counter()
    ops, kernels = bracketed(
        one_call, cpus, lambda done: len(done) < min_ops or time.perf_counter() - start < seconds
    )
    print(json.dumps({"ops": ops, "kernels": kernels}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
