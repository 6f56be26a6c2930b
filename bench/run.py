"""Benchmark of crtest's two end-to-end paths: one CSV analysis and the Monte Carlo harness.

    python3 bench/run.py --workload analyze_csv --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Inputs are generated from ``--seed``.  With
``--trace 0`` the run measures the end-to-end metrics for ``--seconds``;
with ``--trace 1`` it makes the traced run of :mod:`layers` instead.  Every
operation's output is checked against an independent recomputation
(:mod:`check`).  The last line of standard output is the JSON result; the
lines before it give the provenance, the result checksum and each metric
with its unit.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from proc import PINNED, Ctx, checked, p90, run_child

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("analyze_csv", "power_grid", "power_pool")
SETUP_REPEATS = {"full": 5, "tiny": 1}
MIN_OPS = 3
# upper limit on pool workers, below the CPU count on large machines, to
# bound the benchmark's memory
MAX_WORKERS = 4
E2E_UNITS = {"setup_s": "s", "latency_s.p50": "s", "latency_s.p90": "s", "cpu_s": "s",
             "peak_rss_mb": "MB"}
CLI_ENTRY = "import sys; from crtest.cli import main; sys.argv[0] = 'crtest'; main()"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is for the benchmark's smoke test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def workload_cpus(workload: str) -> list[int]:
    """The CPUs a workload runs on: one, or the pool's, never more than are available."""
    available = sorted(os.sched_getaffinity(0))
    return available[:MAX_WORKERS] if workload == "power_pool" else available[:1]


def provenance() -> dict:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                   text=True, check=True).stdout.strip()
        commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "cpu_count": os.cpu_count(),
        "affinity_count": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def _setup(ctx, cpus: list[int], repeats: int) -> tuple[list, list]:
    """Start-up cost every CLI call pays: fresh interpreters importing the CLI."""
    from calib import bracketed

    argv = [ctx.python, "-c", "import crtest.cli"]
    calls, kernels = bracketed(lambda: checked(run_child(ctx, argv), "import crtest.cli"), cpus,
                               lambda done: len(done) < repeats)
    return [c.wall_s for c in calls], kernels


def _e2e(setup: tuple[list, list], walls: list[float], cpus: list[float], kernels: list[float],
         peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics, scaled to the reference machine speed, and their raw values."""
    from calib import scale

    def metrics(setup_walls, walls, cpus):
        return {
            "setup_s": statistics.median(setup_walls),
            "latency_s.p50": statistics.median(walls),
            "latency_s.p90": p90(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
        }

    return (metrics(scale(*setup), scale(walls, kernels), scale(cpus, kernels)),
            metrics(setup[0], walls, cpus))


def _until(seconds: float):
    start = time.perf_counter()
    return lambda done: len(done) < MIN_OPS or time.perf_counter() - start < seconds


def analyze_csv(ctx, args, scale: dict, cpus: list[int]) -> dict:
    """One ``crtest test --method jel --format json`` per operation, in a fresh interpreter."""
    from calib import bracketed
    from check import analyze_checksum, reference_report, report_matches
    from gen import csv_cli_args, write_csv

    csv_path = ctx.work / "input.csv"
    manifest = write_csv(csv_path, args.seed, scale["csv_rows"])
    cli_argv = [ctx.python, "-c", CLI_ENTRY, *csv_cli_args(csv_path)]
    ref = reference_report(csv_path, manifest)
    out = {"inputs": [manifest], "checksum": analyze_checksum(ref)}
    if args.trace:
        from layers import analyze_layers

        return out | analyze_layers(ctx, cli_argv, csv_path, manifest, ref)

    setup = _setup(ctx, cpus, SETUP_REPEATS[args.scale])
    calls, kernels = bracketed(lambda: run_child(ctx, cli_argv), cpus, _until(args.seconds))
    failed = sum(c.code != 0 or not report_matches(c.stdout, ref) for c in calls)
    metrics, raw = _e2e(setup, [c.wall_s for c in calls], [c.cpu_s for c in calls], kernels,
                        max(c.maxrss_mb for c in calls))
    return out | {"metrics": metrics, "raw": raw, "attempted": len(calls), "failed": failed,
                  "samples": {"op_s": [c.wall_s for c in calls], "kernel_s": kernels}}


def power(ctx, args, scale: dict, cpus: list[int]) -> dict:
    """One in-process ``mc.run`` per operation, in a child process of its own."""
    from check import power_checksum, power_op_failed, replay
    from gen import write_sim_spec

    spec_path = ctx.work / "sim.json"
    manifest = write_sim_spec(spec_path, args.workload, args.seed, scale["reps"])
    spec = json.loads(spec_path.read_text())
    out = {"inputs": [manifest], "workers": len(cpus)}
    if args.trace:
        from layers import power_layers

        return out | power_layers(ctx, spec, len(cpus))

    setup = _setup(ctx, cpus, SETUP_REPEATS[args.scale])
    child = run_child(ctx, [ctx.python, str(BENCH / "power_child.py"), str(spec_path),
                            ",".join(map(str, cpus)), str(args.seconds), str(MIN_OPS)],
                      timeout=args.seconds + 150.0)
    if child.code != 0:
        raise RuntimeError(f"harness child exited with {child.code}: {child.stderr[-2000:]}")
    res = json.loads(child.stdout.splitlines()[-1])
    ops = res["ops"]
    reference = replay(spec).counts
    failed = sum(power_op_failed(op, reference) for op in ops)
    metrics, raw = _e2e(setup, [op["wall_s"] for op in ops], [op["cpu_s"] for op in ops],
                        res["kernels"], child.maxrss_mb)
    return out | {"metrics": metrics, "raw": raw, "attempted": len(ops), "failed": failed,
                  "checksum": power_checksum(reference),
                  "samples": {"op_s": [op["wall_s"] for op in ops], "kernel_s": res["kernels"]}}


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "crtest" / "__init__.py").is_file():
        print(f"error: no crtest package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # pin before numpy is imported here or in any child
    os.environ.pop("CRTEST_THREADS", None)
    os.environ.update(PINNED)
    sys.path.insert(0, str(ROOT / "src"))
    from gen import SCALES

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    prov = provenance()  # before pinning, so that it records the CPUs available
    (BENCH / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "_work") as work:
        ctx = Ctx(python=sys.executable, env=env, root=ROOT, work=Path(work))
        cpus = workload_cpus(args.workload)
        # the benchmark and its children stay on the workload's CPUs, where
        # the calibration kernel runs too
        os.sched_setaffinity(0, cpus)
        body = analyze_csv if args.workload == "analyze_csv" else power
        res = body(ctx, args, SCALES[args.scale], cpus)
    if args.trace:
        from layers import UNITS
    else:
        UNITS = E2E_UNITS
    metrics = {k: (v, UNITS[k]) for k, v in res["metrics"].items()}

    print("provenance " + json.dumps(prov))
    print("inputs " + json.dumps(res["inputs"]))
    print(f"checksum {args.workload} {res['checksum']}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, value in res.get("raw", {}).items():
        print(f"unscaled {name} = {value:.6g} {UNITS[name]}")
    if "samples" in res:
        print("samples " + json.dumps(res["samples"]))
    print(f"error_rate = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} failed of {res['attempted']} operations)")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
