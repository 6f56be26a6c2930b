"""Smoke test of the benchmark at tiny sizes, and of its correctness checks.

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

from check import (  # noqa: E402
    cell_counts, power_op_failed, reference_report, replay, report_matches,
)
from gen import SCALES, csv_cli_args, sim_config, write_csv, write_sim_spec  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_names_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_flipped_rejection_count_is_a_failure(tmp_path):
    spec_path = tmp_path / "sim.json"
    write_sim_spec(spec_path, "power_pool", 3, SCALES["tiny"]["reps"])
    spec = json.loads(spec_path.read_text())
    reference = replay(spec).counts

    from crtest import run

    counts = cell_counts(run(sim_config(spec), workers=1))
    op = {"counts": [[*key, *val] for key, val in counts.items()]}
    assert not power_op_failed(op, reference)

    rejections, excluded = op["counts"][0][4:]
    op["counts"][0][4:] = [rejections + 1, excluded]
    assert power_op_failed(op, reference)
    assert power_op_failed({"error": "RuntimeError()"}, reference)


def test_altered_cli_report_is_a_failure(tmp_path):
    csv_path = tmp_path / "input.csv"
    manifest = write_csv(csv_path, 3, SCALES["tiny"]["csv_rows"])
    ref = reference_report(csv_path, manifest)

    from crtest.cli import cli_main

    out = tmp_path / "report.json"
    assert cli_main(csv_cli_args(csv_path) + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report_matches(json.dumps(report), ref)

    report["result"]["statistic"] = float(report["result"]["statistic"]) + 1e-12
    assert not report_matches(json.dumps(report), ref)
    assert not report_matches("not json", ref)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(tmp_path, "power_grid", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
