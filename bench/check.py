"""Independent recomputation of each workload's output, and the checksums.

``analyze_csv``: the CLI's JSON report must equal an in-process
``jel_test(ingest(spec).sample)`` field by field, and its row bookkeeping and
input hash must equal the generator's manifest.

``power_*``: every cell's rejection and exclusion counts from ``mc.run`` must
equal those of :func:`replay`, which walks every replication through the
package's public functions in the harness's order and keeps its own tallies.
The replay stamps a clock between the calls, so the same pass yields the
per-layer spans of the traced run.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np

# Stamps per replication: before rng_from_seed, then after rng_from_seed,
# sample, jackknife, jel_statistic and zstat.
REPLAY_LAYERS = ("rng", "sample", "jackknife", "jel", "zstat")


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def cell_counts(table) -> dict:
    """``{(method, a, n, alpha): (rejections, excluded)}`` of a ``SimTable``."""
    return {key: (c.rejections, c.excluded) for key, c in table.cells.items()}


def power_checksum(counts: dict) -> str:
    return _digest(sorted([*key, *val] for key, val in counts.items()))


def power_op_failed(op: dict, reference: dict) -> bool:
    """Whether one ``mc.run`` call, as reported by ``power_child.py``, failed its check."""
    if "error" in op:
        return True
    return {(m, a, n, al): (rej, exc) for m, a, n, al, rej, exc in op["counts"]} != reference


class Replay:
    """Result of :func:`replay`: counts, diagnostics and the span stamps."""

    def __init__(self, total: int):
        self.counts: dict = {}
        self.stamps = np.zeros((total, len(REPLAY_LAYERS) + 1), dtype=np.int64)
        self.n_of_rep = np.zeros(total, dtype=np.int64)
        self.newton_iters: list[int] = []
        self.hull_violations = 0
        self.jel_degenerate = 0
        self.jel_attempts = 0
        self.ddk_excluded = 0
        self.zstat_calls = 0
        self.wall_s = 0.0


def replay(spec: dict) -> Replay:
    """Recompute every cell of the harness run described by ``spec``."""
    from crtest import (
        FamilyParams, chisq1_quantile, jackknife, jel_statistic, normal_quantile,
        rng_from_seed, sample,
    )
    from crtest.ddk import zstat

    alphas = spec["alpha_grid"]
    jel_thr = [chisq1_quantile(1.0 - al) for al in alphas]
    ddk_thr = [normal_quantile(1.0 - al / 2.0) for al in alphas]
    reps, seed = spec["reps"], spec["seed"]
    out = Replay(len(spec["a_grid"]) * len(spec["n_grid"]) * reps)
    clock = time.perf_counter_ns
    row = 0
    t_start = time.perf_counter()
    for a_idx, a in enumerate(spec["a_grid"]):
        params = FamilyParams(lam=spec["lam"], p1=spec["p1"], a=a, seed=seed)
        for n_idx, n in enumerate(spec["n_grid"]):
            jel_rej = [0] * len(alphas)
            ddk_rej = [0] * len(alphas)
            jel_exc = ddk_exc = 0
            for rep in range(reps):
                t0 = clock()
                rng = rng_from_seed(seed, (a_idx, n_idx, rep))
                t1 = clock()
                s = sample(params, n, rng=rng)
                t2 = clock()
                jk = jackknife(s)
                t3 = clock()
                stat, hull_ok, degenerate, el = jel_statistic(jk.pseudo_values)
                t4 = clock()
                p1_hat = s.count_cause(1) / n
                z = None if p1_hat in (0.0, 1.0) else abs(zstat(jk.delta_hat, p1_hat, n))
                t5 = clock()
                out.stamps[row] = (t0, t1, t2, t3, t4, t5)
                out.n_of_rep[row] = n
                row += 1

                out.jel_attempts += 1
                if degenerate:
                    jel_exc += 1
                else:
                    if not hull_ok:
                        out.hull_violations += 1
                    else:
                        out.newton_iters.append(el.iterations)
                    for k, thr in enumerate(jel_thr):
                        jel_rej[k] += stat > thr
                if z is None:
                    ddk_exc += 1
                else:
                    out.zstat_calls += 1
                    for k, thr in enumerate(ddk_thr):
                        ddk_rej[k] += z > thr
            for k, alpha in enumerate(alphas):
                out.counts[("jel", a, n, alpha)] = (jel_rej[k], jel_exc)
                out.counts[("ddk", a, n, alpha)] = (ddk_rej[k], ddk_exc)
            out.jel_degenerate += jel_exc
            out.ddk_excluded += ddk_exc
    out.wall_s = time.perf_counter() - t_start
    return out


def _statistic(value) -> float:
    # the report writes an infinite statistic (hull violation) as "inf"
    return math.inf if value == "inf" else float(value)


def ingest_spec(csv_path):
    """The ``IngestSpec`` matching :func:`gen.csv_cli_args`."""
    from crtest import IngestSpec

    from gen import CAUSE1_LABEL, CAUSE2_LABEL, DROP_LABEL

    return IngestSpec(
        path=csv_path, time_column="time", cause_column="status",
        cause1_labels={CAUSE1_LABEL}, cause2_labels={CAUSE2_LABEL}, drop_labels={DROP_LABEL},
    )


def reference_report(csv_path, manifest: dict) -> dict:
    """The fields the CLI report must reproduce, computed in-process."""
    from crtest import ingest, jel_test

    ing = ingest(ingest_spec(csv_path))
    res = jel_test(ing.sample)
    ref = {
        "statistic": res.statistic,
        "delta_hat": res.delta_hat,
        "n_used": ing.n_used,
        "n_dropped": ing.n_dropped,
        "input_sha256": ing.fingerprint,
    }
    expected_by_generator = {
        "n_used": manifest["rows"] - manifest["dropped"],
        "n_dropped": manifest["dropped"],
        "input_sha256": manifest["sha256"],
    }
    for key, val in expected_by_generator.items():
        if ref[key] != val:
            raise ValueError(f"ingest disagrees with the generator on {key}: {ref[key]!r} != {val!r}")
    return ref


def report_matches(stdout: str, ref: dict) -> bool:
    """Whether one CLI JSON report equals the in-process reference."""
    try:
        rep = json.loads(stdout)
        got = {
            "statistic": _statistic(rep["result"]["statistic"]),
            "delta_hat": rep["result"]["delta_hat"],
            "n_used": rep["n_used"],
            "n_dropped": rep["n_dropped"],
            "input_sha256": rep["input_sha256"],
        }
    except (ValueError, KeyError, TypeError):
        return False
    return got == ref


def analyze_checksum(ref: dict) -> str:
    return _digest({k: repr(v) for k, v in ref.items()})
