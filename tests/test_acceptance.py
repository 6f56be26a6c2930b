"""Acceptance gate: every release-blocking check, one line of output each.

Each test records a PASS/FAIL/SKIP line into ``RESULTS``; the conftest hook
prints the block at the end of the pytest run so the whole gate is readable
at a glance.  Dataset-regression checks skip (not fail) when the prepared
files are absent — see DATASETS.md for how to produce them.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from crtest import (
    FamilyParams,
    IngestSpec,
    Sample,
    SimConfig,
    chisq1_cdf,
    chisq1_quantile,
    ingest,
    jackknife,
    jel_statistic,
    jel_test,
    rng_from_seed,
    run,
    sample,
)
from oracles import (
    CLOSED_FORM_LAMBDA,
    asymptotic_power,
    closed_form_delta,
    ddk_exact_law,
    ddk_exact_size,
    exact_null_counts,
    exact_null_law,
    family_f1,
    naive_jackknife,
    projection_variance,
)

RESULTS: list[str] = []

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _record(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name} — {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _skip(name: str, detail: str) -> None:
    line = f"SKIP  {name} — {detail}"
    RESULTS.append(line)
    print(line)
    pytest.skip(detail)


def _mixed_sample(rng) -> tuple[np.ndarray, np.ndarray]:
    """Random (times, causes) with varying size, cause balance and ties."""
    n = int(rng.integers(3, 51))
    if rng.random() < 0.25:
        times = rng.integers(0, max(2, n // 2), size=n).astype(float)
    else:
        times = rng.exponential(scale=float(rng.uniform(0.5, 2.0)), size=n)
    p1 = float(rng.uniform(0.15, 0.85))
    causes = np.where(rng.random(n) < p1, 1, 2)
    return times, causes


def test_incremental_jackknife_equals_naive_recomputation():
    rng = np.random.default_rng(20260816)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        times, causes = _mixed_sample(rng)
        jk = jackknife(Sample.from_arrays(times, causes))
        full, pseudo = naive_jackknife(list(times), list(causes))
        # each value is its exact quotient rounded once, signed zeros included
        got = np.array([jk.delta_hat, *jk.pseudo_values]).tobytes()
        mismatches += got != np.array([float(x) for x in (full, *pseudo)]).tobytes()
    elapsed = time.perf_counter() - started
    _record(
        "incremental jackknife equals naive leave-one-out (200 samples, n 3..50)",
        mismatches == 0 and elapsed < 10.0,
        f"{mismatches} samples differ in a bit from the exact values, {elapsed:.1f}s (limit 10s)",
    )


def test_mean_of_pseudo_values_equals_point_estimate():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(200):
        times, causes = _mixed_sample(rng)
        jk = jackknife(Sample.from_arrays(times, causes))
        worst = max(worst, abs(float(jk.pseudo_values.mean()) - jk.delta_hat))
    _record(
        "mean of pseudo-values equals the point estimate (200 samples)",
        worst <= 1e-12,
        f"max abs diff {worst:.2e} (tol 1e-12)",
    )


def test_closed_form_profile_solve():
    stat, _, _, el = jel_statistic(np.array([-1.0, 1.0, 1.0]))
    lam_err = abs(el.lam - CLOSED_FORM_LAMBDA)
    stat_err = abs(stat - 0.339798)
    _record(
        "closed-form profile solve at pseudo-values (-1, 1, 1)",
        lam_err <= 1e-10 and stat_err <= 1e-6,
        f"lam={el.lam:.12f} (err {lam_err:.1e}, tol 1e-10); "
        f"-2l={stat:.9f} (err {stat_err:.1e} vs 0.339798, tol 1e-6)",
    )


def test_chisq1_calibration_under_independence():
    seed = 31415
    params = FamilyParams(lam=1.0, p1=0.5, a=1.0, seed=seed)
    reps, n = 5000, 200
    stats = np.empty(reps)
    for rep in range(reps):
        rng = rng_from_seed(seed, (0, 0, rep))
        s = sample(params, n, rng=rng)
        stat, _, _, _ = jel_statistic(jackknife(s).pseudo_values)
        stats[rep] = stat
    stats.sort()
    cdf = np.array([chisq1_cdf(x) if math.isfinite(x) else 1.0 for x in stats])
    grid = np.arange(reps, dtype=float)
    ks = max(
        float(np.max((grid + 1.0) / reps - cdf)),
        float(np.max(cdf - grid / reps)),
    )
    rate = float(np.mean(stats > chisq1_quantile(0.95)))
    _record(
        "chi-square(1) calibration under independence (n=200, 5000 reps)",
        ks < 0.03 and 0.040 <= rate <= 0.062,
        f"KS distance {ks:.4f} (< 0.03); rejection rate {rate:.4f} (in [0.040, 0.062])",
    )


def test_null_rejection_rates_at_desk_scale():
    cfg = SimConfig(
        params=FamilyParams(lam=0.5, p1=0.3, a=1.0, seed=97531),
        n_grid=(100,),
        alpha_grid=(0.05,),
        a_grid=(1.0,),
        reps=10000,
    )
    table = run(cfg)
    jel_rate = table.get("jel", 1.0, 100, 0.05).rate
    ddk_rate = table.get("ddk", 1.0, 100, 0.05).rate
    _record(
        "null rejection rates at n=100, 10000 reps",
        abs(jel_rate - 0.0502) <= 0.008 and abs(ddk_rate - 0.0508) <= 0.008,
        f"jel {jel_rate:.4f} (target 0.0502 ± 0.008); ddk {ddk_rate:.4f} (target 0.0508 ± 0.008)",
    )


_EXACT_N10 = {
    0.1: {"jel": 0.1675, "hull": 0.1339, "excluded": 0.3487, "ddk": 0.0389},
    0.5: {"jel": 0.0861, "hull": 0.0196, "excluded": 0.0020, "ddk": 0.1057},
}


def _harness_null_shares(n: int, p1: float, reps: int) -> dict[str, tuple[float, int]]:
    """The harness's (share, denominator) of each exact-law figure at a = 1,
    seed 11."""
    cfg = SimConfig(
        params=FamilyParams(lam=1.0, p1=p1, a=1.0, seed=11),
        n_grid=(n,),
        alpha_grid=(0.05,),
        a_grid=(1.0,),
        reps=reps,
    )
    table = run(cfg, workers=1)
    j, d = table.get("jel", 1.0, n, 0.05), table.get("ddk", 1.0, n, 0.05)
    assert d.excluded == j.excluded
    return {
        "jel": (j.rate, j.used),
        "hull": (j.hull_violations / j.used, j.used),
        "excluded": (j.excluded / reps, reps),
        "ddk": (d.rate, d.used),
    }


@pytest.mark.parametrize("p1", sorted(_EXACT_N10))
def test_harness_matches_exact_null_law_at_n10(p1):
    exact = exact_null_law(exact_null_counts(10, 0.05), p1)
    assert {k: round(v, 4) for k, v in exact.items()} == _EXACT_N10[p1]
    reps = 4000
    observed = _harness_null_shares(10, p1, reps)
    z = {k: (share - exact[k]) / math.sqrt(exact[k] * (1.0 - exact[k]) / m)
         for k, (share, m) in observed.items()}
    _record(
        f"harness matches the exact null law at n=10, p1={p1}",
        all(abs(v) <= 4.0 for v in z.values()),
        "; ".join(f"{k} {observed[k][0]:.4f} vs exact {exact[k]:.4f} ({z[k]:+.1f} SE)" for k in z)
        + f" (within 4 SE, {reps} reps)",
    )


_EXACT_N20 = {
    0.1: {"jel": 0.1035, "hull": 0.0346, "excluded": 0.1216, "ddk": 0.0458},
    0.5: {"jel": 0.0490, "hull": 0.0001, "excluded": 0.0000, "ddk": 0.0666},
}


@pytest.fixture(scope="module")
def counts_n20():
    return exact_null_counts(20, 0.05)


@pytest.mark.parametrize("p1", sorted(_EXACT_N20))
def test_harness_matches_exact_null_law_at_n20(p1, counts_n20):
    from scipy.stats import binomtest

    exact = exact_null_law(counts_n20, p1)
    assert {k: round(v, 4) for k, v in exact.items()} == _EXACT_N20[p1]
    reps = 4000
    observed = _harness_null_shares(20, p1, reps)
    # within 4 SE, or, where fewer than 10 hits are expected, a two-sided
    # binomial tail above 1e-4
    verdicts = {}
    for k, (share, m) in observed.items():
        if exact[k] * m >= 10:
            z = (share - exact[k]) / math.sqrt(exact[k] * (1.0 - exact[k]) / m)
            verdicts[k] = (abs(z) <= 4.0, f"{z:+.2f} SE")
        else:
            tail = binomtest(round(share * m), m, exact[k]).pvalue
            verdicts[k] = (tail > 1e-4, f"binomial tail {tail:.3g}")
    _record(
        f"harness matches the exact null law at n=20, p1={p1}",
        all(ok for ok, _ in verdicts.values()),
        "; ".join(f"{k} {observed[k][0]:.4f} vs exact {exact[k]:.4f} ({verdicts[k][1]})"
                  for k in verdicts) + f" ({reps} reps)",
    )


def test_ddk_exact_law_matches_enumeration():
    # every arrangement of i cause-1 subjects among n time ranks, with B the
    # (cause-2 earlier, cause-1 later) pairs; at n = 10 the sizes are those
    # of the sequence enumeration above
    n = 8
    law = ddk_exact_law(n)
    for i in range(n + 1):
        counts = np.zeros(i * (n - i) + 1)
        for ranks in itertools.combinations(range(n), i):
            counts[sum(r - k for k, r in enumerate(ranks))] += 1
        np.testing.assert_allclose(law[i], counts / math.comb(n, i), rtol=0, atol=1e-15)
    law10, counts10 = ddk_exact_law(10), exact_null_counts(10, 0.05)
    for p1 in sorted(_EXACT_N10):
        assert math.isclose(ddk_exact_size(law10, p1, 0.05), exact_null_law(counts10, p1)["ddk"],
                            rel_tol=1e-12)


def test_harness_ddk_matches_exact_null_law():
    reps, n_grid, alphas = 4000, (50, 200), (0.01, 0.05)
    laws = {n: ddk_exact_law(n) for n in n_grid}
    z = {}
    for p1 in (0.1, 0.5):
        table = run(SimConfig(params=FamilyParams(lam=1.0, p1=p1, a=1.0, seed=2024),
                              n_grid=n_grid, alpha_grid=alphas, a_grid=(1.0,), reps=reps,
                              methods=("ddk",)), workers=1)
        for n, alpha in itertools.product(n_grid, alphas):
            exact = ddk_exact_size(laws[n], p1, alpha)
            cell = table.get("ddk", 1.0, n, alpha)
            z[p1, n, alpha] = (cell.rate - exact) / math.sqrt(exact * (1.0 - exact) / cell.used)
    worst = max(z, key=lambda k: abs(z[k]))
    _record(
        "harness ddk matches its exact null law at n=50 and 200",
        all(abs(v) <= 4.0 for v in z.values()),
        f"{len(z)} cells (p1 0.1/0.5, alpha 0.01/0.05), worst {z[worst]:+.2f} SE at "
        f"p1={worst[0]}, n={worst[1]}, alpha={worst[2]} (within 4 SE, {reps} reps)",
    )


def test_power_trend_and_method_band():
    n_grid = (20, 40, 60, 80, 100)
    cfg = SimConfig(
        params=FamilyParams(lam=1.0, p1=0.5, a=1.7, seed=2024),
        n_grid=n_grid,
        alpha_grid=(0.05,),
        a_grid=(1.7, 1.9),
        reps=2000,
    )
    table = run(cfg)
    jel19 = [table.get("jel", 1.9, n, 0.05) for n in n_grid]
    trend_ok = all(
        later.rate - earlier.rate > -2.0 * math.hypot(earlier.stderr, later.stderr)
        for earlier, later in zip(jel19, jel19[1:])
    )
    band_ok = True
    for a in (1.7, 1.9):
        for n in (60, 80, 100):
            j = table.get("jel", a, n, 0.05)
            d = table.get("ddk", a, n, 0.05)
            band_ok &= j.rate >= d.rate - 2.0 * math.hypot(j.stderr, d.stderr)
    rates = " ".join(f"{c.rate:.3f}" for c in jel19)
    _record(
        "power increases with n and stays within 2 se of the concordance test",
        trend_ok and band_ok,
        f"jel power at a=1.9, n=20..100: {rates}; trend ok={trend_ok}, band ok={band_ok}",
    )


def test_projection_variance_matches_quadrature():
    from scipy.integrate import quad

    def moment(p1, a, power):
        """E g^p over x uniform and the cause given x, by quadrature."""
        def integrand(x):
            f1 = p1 * a * x ** (a - 1.0)
            g1, g2 = x - p1 * x**a - (1.0 - p1) / 2.0, p1 / 2.0 - p1 * x**a
            return f1 * g1**power + (1.0 - f1) * g2**power
        return quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)[0]

    for p1 in (0.0, 0.1, 0.3, 0.5):
        for a in (1.0, 1.05, 1.5, 1.9, 2.0):
            assert moment(p1, a, 1) == pytest.approx(closed_form_delta(p1, a), abs=1e-12)
            quadrature = 4.0 * (moment(p1, a, 2) - closed_form_delta(p1, a) ** 2)
            assert projection_variance(p1, a) == pytest.approx(quadrature, rel=1e-9, abs=1e-14)
        assert projection_variance(p1, 1.0) == pytest.approx(p1 * (1.0 - p1) / 3.0, abs=1e-15)
    # sigma_a / sigma_0 at a = 1.5, 1.9, 2, and (jel, ddk) power pairs
    ratios = {0.1: (0.963, 0.967, 0.970), 0.5: (0.898, 0.732, 0.683)}
    for p1, expected in ratios.items():
        got = [math.sqrt(projection_variance(p1, a) / (p1 * (1.0 - p1) / 3.0)) for a in (1.5, 1.9, 2.0)]
        assert [round(r, 3) for r in got] == list(expected)
    for (p1, a, n), pair in {(0.5, 1.9, 20): (0.907, 0.728), (0.5, 1.5, 50): (0.779, 0.707),
                             (0.1, 2.0, 50): (0.289, 0.269)}.items():
        assert tuple(round(asymptotic_power(p1, a, n, 0.05, m), 3) for m in ("jel", "ddk")) == pair


def test_power_matches_u_statistic_theory_at_n1600():
    # local alternatives a = 1 + h / sqrt(n), where the normal limit of
    # sqrt(n) delta_hat gives each method's power
    n, reps, alpha = 1600, 4000, 0.05
    a_grid = tuple(1.0 + h / math.sqrt(n) for h in (2, 4))
    z = {}
    for p1 in (0.1, 0.3, 0.5):
        table = run(SimConfig(params=FamilyParams(lam=1.0, p1=p1, a=1.0, seed=3), n_grid=(n,),
                              alpha_grid=(alpha,), a_grid=a_grid, reps=reps))
        for a, method in itertools.product(a_grid, ("jel", "ddk")):
            theory = asymptotic_power(p1, a, n, alpha, method)
            cell = table.get(method, a, n, alpha)
            z[method, p1, a] = (cell.rate - theory) / math.sqrt(theory * (1.0 - theory) / cell.used)
    worst = max(z, key=lambda k: abs(z[k]))
    _record(
        "power matches U-statistic theory at n=1600, a=1+h/40",
        all(abs(v) <= 4.0 for v in z.values()),
        f"{len(z)} cells (jel/ddk, p1 0.1/0.3/0.5, h 2/4), worst {z[worst]:+.2f} SE for "
        f"{worst[0]} at p1={worst[1]}, a={worst[2]:g} (within 4 SE, {reps} reps)",
    )


def test_chisq1_quantile_reference_values():
    q95 = chisq1_quantile(0.95)
    q99 = chisq1_quantile(0.99)
    _record(
        "chi-square(1) quantiles at 0.95 and 0.99",
        abs(q95 - 3.841459) <= 1e-5 and abs(q99 - 6.634897) <= 1e-5,
        f"q95={q95:.6f} (3.841459 ± 1e-5); q99={q99:.6f} (6.634897 ± 1e-5)",
    )


_DATASETS = (
    ("aidssi", "aidssi.csv", 0.4827),
    ("fourd", "fourd.csv", 0.1491),
    ("hoel", "hoel.csv", 6.0764),
    ("tires", "tires.csv", 20.2296),
)


@pytest.mark.parametrize("name,filename,expected", _DATASETS, ids=[d[0] for d in _DATASETS])
def test_archived_dataset_regression(name, filename, expected):
    crit = f"archived-dataset regression ({name})"
    path = DATA_DIR / filename
    if not path.exists():
        _skip(crit, f"{path} absent; see DATASETS.md to prepare it")
    result = ingest(
        IngestSpec(
            path=path,
            time_column="time",
            cause_column="cause",
            cause1_labels={"1"},
            cause2_labels={"2"},
            drop_labels={"0"},
        )
    )
    res = jel_test(result.sample)
    _record(
        crit,
        abs(res.statistic - expected) <= 0.01,
        f"statistic {res.statistic:.4f} (target {expected} ± 0.01; "
        f"n_used={result.n_used}, n_dropped={result.n_dropped})",
    )


def test_sampler_matches_target_sub_distribution():
    worst = 0.0
    for lam, p1, a in ((0.5, 0.3, 1.5), (1.0, 0.5, 2.0)):
        params = FamilyParams(lam=lam, p1=p1, a=a, seed=606)
        s = sample(params, 100000)
        is1 = s.causes == 1
        qs = np.arange(1, 21) / 21.0
        ts = -np.log1p(-qs) / lam
        for t in ts:
            empirical = float(np.mean((s.times <= t) & is1))
            target = family_f1(lam, p1, a, float(t))
            worst = max(worst, abs(empirical - target))
    _record(
        "sampler cause-1 sub-distribution matches its target curve",
        worst <= 0.01,
        f"max abs deviation {worst:.4f} over 20-point grids, 1e5 draws, two parameter sets (tol 0.01)",
    )
