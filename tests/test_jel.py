import json
import math

import numpy as np
import pytest

from crtest import (
    NoConvergence,
    Sample,
    SampleTooSmall,
    chisq1_quantile,
    chisq1_sf,
    jackknife,
    jel_statistic,
    jel_test,
)

import crtest.jel
from crtest.jel import jel_statistics
from crtest.ustat import jackknife_rows

from oracles import (
    CLOSED_FORM_LAMBDA,
    CLOSED_FORM_STAT,
    CLOSED_FORM_WEIGHTS,
    random_tc,
    sample_of,
    scalar_solve_lambda,
)


def random_pseudo(rng, n):
    """Pseudo-value-like vector whose hull contains zero."""
    while True:
        v = rng.normal(loc=rng.uniform(-0.2, 0.2), scale=1.0, size=n)
        if v.min() < 0.0 < v.max():
            return v


def test_closed_form_solution():
    el = jel_statistic(np.array([-1.0, 1.0, 1.0]))[3]
    assert el.lam == pytest.approx(CLOSED_FORM_LAMBDA, abs=1e-10)
    assert -2.0 * el.log_ratio == pytest.approx(CLOSED_FORM_STAT, abs=1e-12)
    np.testing.assert_allclose(el.weights, CLOSED_FORM_WEIGHTS, atol=1e-10)
    assert el.residual <= 1e-10


def test_symmetric_pseudo_values_solve_at_zero():
    el = jel_statistic(np.array([-1.0, 0.0, 1.0]))[3]
    assert el.lam == 0.0
    assert el.log_ratio == 0.0
    assert el.iterations == 0


def test_closed_form_tail_probability():
    el = jel_statistic(np.array([-1.0, 1.0, 1.0]))[3]
    p = chisq1_sf(-2.0 * el.log_ratio)
    assert p == pytest.approx(0.5601, abs=5e-4)


def test_lambda_scales_inversely_with_deviation_scale():
    rng = np.random.default_rng(53)
    v = random_pseudo(rng, 20)
    base = jel_statistic(v)[3]
    for c in (0.5, 2.0, 10.0):
        scaled = jel_statistic(c * v)[3]
        assert scaled.lam == pytest.approx(base.lam / c, rel=1e-7, abs=1e-12)
        assert scaled.log_ratio == pytest.approx(base.log_ratio, rel=1e-7, abs=1e-12)


def test_trivial_all_equal_case():
    el = jel_statistic(np.array([0.7, 0.7, 0.7, 0.7]), 0.7)[3]
    assert el.lam == 0.0
    assert el.log_ratio == 0.0
    assert el.iterations == 0
    np.testing.assert_array_equal(el.weights, np.full(4, 0.25))


def test_solver_needs_two_values():
    with pytest.raises(SampleTooSmall):
        jel_statistic(np.array([0.5]))


def test_hull_violation_outside_and_on_boundary_gives_inf():
    v = np.array([-1.0, 0.5, 2.0])
    for delta0 in (-1.0, 2.0, -1.5, 3.0):
        assert jel_statistic(v, delta0) == (math.inf, False, False, None)
    # all values on one side of the hypothesis
    assert jel_statistic(np.array([0.1, 0.2, 0.3])) == (math.inf, False, False, None)


def test_weights_are_a_probability_vector():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(3, 60))
        v = random_pseudo(rng, n)
        el = jel_statistic(v)[3]
        assert el.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(el.weights > 0.0) and np.all(el.weights < 1.0)
        # the solved weights satisfy the mean constraint
        assert float(el.weights @ v) == pytest.approx(0.0, abs=1e-9)
        assert el.residual <= 1e-10
        assert el.iterations <= 100
        assert el.log_ratio <= 0.0


def test_solution_at_sample_mean_is_uniform():
    rng = np.random.default_rng(31)
    v = random_pseudo(rng, 25)
    el = jel_statistic(v, float(v.mean()))[3]
    assert el.lam == pytest.approx(0.0, abs=1e-9)
    assert -2.0 * el.log_ratio == pytest.approx(0.0, abs=1e-10)


def test_statistic_grows_away_from_the_mean():
    rng = np.random.default_rng(37)
    v = random_pseudo(rng, 30)
    mean = float(v.mean())
    lo_span = mean - float(v.min())
    hi_span = float(v.max()) - mean
    deltas = [mean + f * hi_span for f in (0.2, 0.5, 0.8)]
    stats_up = [jel_statistic(v, d)[0] for d in deltas]
    assert stats_up[0] < stats_up[1] < stats_up[2]
    deltas = [mean - f * lo_span for f in (0.2, 0.5, 0.8)]
    stats_down = [jel_statistic(v, d)[0] for d in deltas]
    assert stats_down[0] < stats_down[1] < stats_down[2]


def test_jel_statistic_hull_violation_gives_inf():
    # all pair scores nonnegative, one positive: zero sits on the hull edge
    s = sample_of((1, 2), (2, 2), (3, 1))
    v = jackknife(s).pseudo_values
    assert v.tolist() == [0.0, 0.0, 1.0]
    stat, hull_ok, degenerate, el = jel_statistic(v)
    assert math.isinf(stat) and not hull_ok and not degenerate and el is None


def test_jel_statistic_degenerate_all_zero():
    stat, hull_ok, degenerate, el = jel_statistic(np.zeros(5))
    assert stat == 0.0 and hull_ok and degenerate
    np.testing.assert_array_equal(el.weights, np.full(5, 0.2))


def test_jel_test_end_to_end_consistency():
    rng = np.random.default_rng(41)
    times = rng.exponential(size=40)
    causes = rng.integers(1, 3, size=40)
    s = Sample.from_arrays(times, causes)
    res = jel_test(s, alpha=0.05)
    assert res.n == 40
    assert res.p_value == pytest.approx(chisq1_sf(res.statistic), abs=1e-15)
    assert res.hull_ok and not res.degenerate
    assert res.delta_hat == jackknife(s).delta_hat
    # rejecting at the quantile is the same call as comparing p to alpha
    assert res.reject == (res.p_value < 0.05)


def test_jel_test_rejects_obvious_dependence():
    # cause 2 always early, cause 1 always late
    s = sample_of(*[(t, 2) for t in range(1, 11)], *[(t, 1) for t in range(11, 21)])
    res = jel_test(s)
    assert res.reject
    assert res.p_value < 0.01


def test_jel_test_hull_violation_result_fields():
    res = jel_test(sample_of((1, 2), (2, 2), (3, 1)))
    assert math.isinf(res.statistic)
    assert res.p_value == 0.0
    assert res.reject and not res.hull_ok
    assert res.el is None
    assert res.to_dict()["statistic"] == "inf"


def test_jel_test_degenerate_accepts():
    s = sample_of(*[(t, 1) for t in (1.0, 2.0, 3.0, 4.0)])
    res = jel_test(s)
    assert res.statistic == 0.0
    assert not res.reject
    assert res.degenerate
    assert res.p_value == 1.0


def test_jel_test_validates_alpha_and_size():
    s = sample_of((1, 1), (2, 2), (3, 1))
    for bad in (0.0, 1.0, -0.1, 2.0, math.nan, "0.05", True, np.bool_(True), np.array([0.05]),
                0.05j, None):
        with pytest.raises(ValueError, match="alpha must be a real number"):
            jel_test(s, alpha=bad)
    with pytest.raises(SampleTooSmall):
        jel_test(sample_of((1, 1), (2, 2)))


def test_jel_test_alpha_is_stored_as_a_plain_float():
    s = sample_of((1, 1), (2, 2), (3, 1), (4, 2))
    for alpha in (np.float32(0.05), np.float64(0.05), np.array(0.05), np.array(0.05, np.float32)):
        res = jel_test(s, alpha=alpha)
        assert type(res.alpha) is float
        assert res.to_dict() == jel_test(s, alpha=float(alpha)).to_dict()
        assert json.loads(json.dumps(res.to_dict()))["alpha"] == float(alpha)


def test_non_finite_pseudo_values_raise():
    # a NaN fails both hull comparisons, so unchecked it would read as a hull
    # violation, that is, as "reject independence"
    for v in ([-1.0, math.nan, 2.0], [-1.0, math.inf, 2.0], [-math.inf, 1.0, 2.0]):
        with pytest.raises(ValueError, match="pseudo-values must be finite"):
            jel_statistic(v)
        with pytest.raises(ValueError, match="pseudo-values must be finite"):
            jel_statistic(v, 0.5)
    for delta0 in (math.nan, math.inf, -math.inf, np.float64(math.nan), np.array(math.inf)):
        with pytest.raises(ValueError, match="delta0 must be finite"):
            jel_statistic([-1.0, 0.5, 2.0], delta0)


def test_statistic_invariant_under_cause_relabeling():
    rng = np.random.default_rng(43)
    for _ in range(10):
        times = rng.exponential(size=25)
        causes = rng.integers(1, 3, size=25)
        s1 = Sample.from_arrays(times, causes)
        s2 = Sample.from_arrays(times, np.where(causes == 1, 2, 1))
        r1, r2 = jel_test(s1), jel_test(s2)
        if r1.hull_ok and r2.hull_ok:
            assert r1.statistic == pytest.approx(r2.statistic, rel=1e-9, abs=1e-12)


def test_solver_handles_extreme_but_interior_hypothesis():
    rng = np.random.default_rng(47)
    v = random_pseudo(rng, 40)
    # push the hypothesis to 99.9% of the way to the hull edge
    edge = float(v.max())
    mean = float(v.mean())
    delta0 = mean + 0.999 * (edge - mean)
    el = jel_statistic(v, delta0)[3]
    assert el.residual <= 1e-10
    assert -2.0 * el.log_ratio > 10.0


@pytest.mark.parametrize("with_ties", [True, False])
def test_batched_solver_rows_match_scalar_oracle_bitwise(with_ties):
    rng = np.random.default_rng(61 + with_ties)
    solved = unsolved = 0
    for n in (3, 5, 8, 20, 50, 120, 200):
        pairs = [random_tc(rng, n, with_ties=with_ties) for _ in range(40)]
        times = np.array([t for t, _ in pairs])
        causes = np.array([c for _, c in pairs])
        # unbalanced causes give hull violations and degenerate rows too
        causes[::4] = np.where(rng.random((10, n)) < 0.1, 1, 2)
        pseudo = jackknife_rows(times, causes)[1]
        stat, degenerate, iterations, lams, residuals = jel_statistics(pseudo)
        for i in range(40):
            one_stat, hull_ok, one_degenerate, el = jel_statistic(pseudo[i])
            assert np.array([one_stat]).tobytes() == stat[i].tobytes()
            assert one_degenerate == degenerate[i]
            if hull_ok:
                # the log ratio is -stat/2, bit for bit the clipped -sum(log1p(lam*v))
                lr = -np.add.reduce(np.log1p(el.lam * pseudo[i]))
                assert np.array([el.log_ratio]).tobytes() == np.array([lr if lr < 0.0 else 0.0]).tobytes()
            if not hull_ok or one_degenerate:
                assert iterations[i] == lams[i] == residuals[i] == 0
                unsolved += 1
                continue
            lam, iters, residual, ref_stat = scalar_solve_lambda(pseudo[i])
            assert np.array([el.lam, el.residual]).tobytes() == np.array([lam, residual]).tobytes()
            assert np.array([lams[i], residuals[i]]).tobytes() == np.array([lam, residual]).tobytes()
            assert el.iterations == iters == iterations[i]
            assert np.array([ref_stat]).tobytes() == stat[i].tobytes()
            solved += 1
    assert solved > 200 and unsolved > 10


def test_batched_solver_on_generic_pseudo_values():
    rng = np.random.default_rng(67)
    v = np.array([random_pseudo(rng, 30) for _ in range(200)])
    stat, degenerate, iterations, _, _ = jel_statistics(v)
    assert not degenerate.any() and np.isfinite(stat).all()
    for i in range(200):
        lam, iters, _, ref_stat = scalar_solve_lambda(v[i])
        assert iters == iterations[i] and ref_stat == stat[i]
        assert jel_statistic(v[i])[3].lam == lam


def test_iteration_cap_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(crtest.jel, "_MAX_ITER", 1)
    v = np.array([-1.0, 0.5, 2.0])
    assert scalar_solve_lambda(v, max_iter=1) is None
    with pytest.raises(NoConvergence):
        jel_statistic(v)
    with pytest.raises(NoConvergence):
        jel_statistics(np.array([[-1.0, 1.0, 1.0], [-1.0, 0.5, 2.0]]))


def test_no_convergence_counts_the_solvable_rows_of_a_mixed_stack(monkeypatch):
    # a degenerate row, a hull violation and two solvable rows, one of which
    # converges in one step: the message counts only the rows solved
    monkeypatch.setattr(crtest.jel, "_MAX_ITER", 1)
    v = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [-1.0, 1.0, 1.0], [-1.0, 0.5, 2.0]])
    with pytest.raises(NoConvergence) as info:
        jel_statistics(v)
    assert str(info.value) == "score residual 1.034e-01 after 1 iterations (tol 1e-10) in 1 of 2 rows"


Q95, Q99 = chisq1_quantile(0.95), chisq1_quantile(0.99)


def shifted_to(v, target):
    """``v - delta0`` whose solved statistic is ``target``, up to rounding.

    The statistic is 0 at delta0 = mean(v) and rises to +inf at max(v), so
    delta0 is bisected between the two.
    """
    lo, hi = float(v.mean()), float(v.max())
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return min((v - lo, v - hi), key=lambda row: abs(jel_statistic(row)[0] - target))
        if jel_statistic(v - mid)[0] < target:
            lo = mid
        else:
            hi = mid


def decision_stack():
    """Seeded pseudo-value rows: tied times, unbalanced causes (hull and
    degenerate rows), and rows whose statistic lies within 1e-12 and 1e-8
    above and below 3.84 and 6.63."""
    rng = np.random.default_rng(71)
    parts = []
    for n, with_ties in ((5, True), (20, True), (20, False), (50, True), (120, False)):
        pairs = [random_tc(rng, n, with_ties=with_ties) for _ in range(60)]
        times = np.array([t for t, _ in pairs])
        causes = np.array([c for _, c in pairs])
        causes[::3] = np.where(rng.random((20, n)) < 0.08, 1, 2)
        parts.append(jackknife_rows(times, causes)[1])
    v = parts[2][np.flatnonzero((parts[2].min(axis=1) < 0) & (parts[2].max(axis=1) > 0))[0]]
    near = np.array([shifted_to(v, q + eps) for q in (Q95, Q99)
                     for eps in (1e-12, -1e-12, 1e-8, -1e-8)])
    # the rows tie the statistic to the threshold within twice eps, on eps's side
    gaps = jel_statistics(near)[0] - np.repeat([Q95, Q99], 4)
    assert np.all(gaps * np.tile([1, -1], 4) > 0)
    assert np.all(np.abs(gaps) < 2 * np.tile([1e-12, 1e-12, 1e-8, 1e-8], 2))
    return parts, near


@pytest.mark.parametrize("thresholds", [(Q99, Q95), (Q95,), (Q95, chisq1_quantile(0.9), Q99)])
def test_threshold_decisions_match_the_full_solve(thresholds):
    parts, near = decision_stack()
    decided_rows = 0
    for pseudo in (*parts, near):
        full = jel_statistics(pseudo, ())
        stat, degenerate, iterations, lam, residual = jel_statistics(pseudo, thresholds)
        assert np.array_equal(stat[:, None] > thresholds, full[0][:, None] > thresholds)
        assert np.array_equal(degenerate, full[1])
        assert np.array_equal(np.isinf(stat), np.isinf(full[0]))
        assert np.all(stat <= full[0]) and np.all(iterations <= full[2])
        for i in np.flatnonzero(np.isfinite(stat) & ~degenerate):
            # no thresholds is the solver kept step for step, bit for bit
            ref = scalar_solve_lambda(pseudo[i])
            assert np.array([full[0][i], full[3][i], full[4][i]]).tobytes() == np.array(
                [ref[3], ref[0], ref[2]]).tobytes()
            assert full[2][i] == ref[1]
            ref = scalar_solve_lambda(pseudo[i], thresholds=thresholds)
            assert np.array([stat[i], lam[i], residual[i]]).tobytes() == np.array(
                [ref[3], ref[0], ref[2]]).tobytes()
            assert iterations[i] == ref[1]
            if residual[i] > 1e-10:
                decided_rows += 1
                # a decided row is off every threshold by more than the margin,
                # and one decided before any step reports the bound 2*f(0) = 0
                assert np.all(np.abs(full[0][i] - np.array(thresholds)) > 1e-9)
                assert iterations[i] or stat[i] == 0.0
    assert decided_rows > 100
    # statistics within 1e-12 of a threshold are never decided early
    stat, _, iterations, _, _ = jel_statistics(near, thresholds)
    full = jel_statistics(near)
    on_q = np.isin(np.repeat([Q95, Q99], 4), thresholds) & np.tile([1, 1, 0, 0], 2).astype(bool)
    assert on_q.any() and stat[on_q].tobytes() == full[0][on_q].tobytes()
    assert np.array_equal(iterations[on_q], full[2][on_q])
