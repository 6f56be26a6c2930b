import math

import numpy as np
import pytest

from crtest import (
    HullViolation,
    NoConvergence,
    Observation,
    Sample,
    SampleTooSmall,
    chisq1_sf,
    jackknife,
    jel_statistic,
    jel_test,
    solve_lambda,
)

import crtest.jel
from crtest.jel import jel_statistics
from crtest.ustat import jackknife_rows

from oracles import (
    CLOSED_FORM_LAMBDA,
    CLOSED_FORM_STAT,
    CLOSED_FORM_WEIGHTS,
    random_tc,
    scalar_solve_lambda,
)


def obs(t, c):
    return Observation(float(t), c)


def random_pseudo(rng, n):
    """Pseudo-value-like vector whose hull contains zero."""
    while True:
        v = rng.normal(loc=rng.uniform(-0.2, 0.2), scale=1.0, size=n)
        if v.min() < 0.0 < v.max():
            return v


def test_closed_form_solution():
    el = solve_lambda(np.array([-1.0, 1.0, 1.0]), 0.0)
    assert el.lam == pytest.approx(CLOSED_FORM_LAMBDA, abs=1e-10)
    assert -2.0 * el.log_ratio == pytest.approx(CLOSED_FORM_STAT, abs=1e-12)
    np.testing.assert_allclose(el.weights, CLOSED_FORM_WEIGHTS, atol=1e-10)
    assert el.residual <= 1e-10


def test_symmetric_pseudo_values_solve_at_zero():
    el = solve_lambda(np.array([-1.0, 0.0, 1.0]), 0.0)
    assert el.lam == 0.0
    assert el.log_ratio == 0.0
    assert el.iterations == 0


def test_closed_form_tail_probability():
    el = solve_lambda(np.array([-1.0, 1.0, 1.0]), 0.0)
    p = chisq1_sf(-2.0 * el.log_ratio)
    assert p == pytest.approx(0.5601, abs=5e-4)


def test_lambda_scales_inversely_with_deviation_scale():
    rng = np.random.default_rng(53)
    v = random_pseudo(rng, 20)
    base = solve_lambda(v, 0.0)
    for c in (0.5, 2.0, 10.0):
        scaled = solve_lambda(c * v, 0.0)
        assert scaled.lam == pytest.approx(base.lam / c, rel=1e-7, abs=1e-12)
        assert scaled.log_ratio == pytest.approx(base.log_ratio, rel=1e-7, abs=1e-12)


def test_trivial_all_equal_case():
    el = solve_lambda(np.array([0.7, 0.7, 0.7, 0.7]), 0.7)
    assert el.lam == 0.0
    assert el.log_ratio == 0.0
    assert el.iterations == 0
    np.testing.assert_array_equal(el.weights, np.full(4, 0.25))


def test_solver_needs_two_values():
    with pytest.raises(SampleTooSmall):
        solve_lambda(np.array([0.5]), 0.0)


def test_hull_violation_raised_outside_and_on_boundary():
    v = np.array([-1.0, 0.5, 2.0])
    for delta0 in (-1.0, 2.0, -1.5, 3.0):
        with pytest.raises(HullViolation):
            solve_lambda(v, delta0)
    # all values on one side of the hypothesis
    with pytest.raises(HullViolation):
        solve_lambda(np.array([0.1, 0.2, 0.3]), 0.0)


def test_weights_are_a_probability_vector():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(3, 60))
        v = random_pseudo(rng, n)
        el = solve_lambda(v, 0.0)
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
    el = solve_lambda(v, float(v.mean()))
    assert el.lam == pytest.approx(0.0, abs=1e-9)
    assert -2.0 * el.log_ratio == pytest.approx(0.0, abs=1e-10)


def test_statistic_grows_away_from_the_mean():
    rng = np.random.default_rng(37)
    v = random_pseudo(rng, 30)
    mean = float(v.mean())
    lo_span = mean - float(v.min())
    hi_span = float(v.max()) - mean
    deltas = [mean + f * hi_span for f in (0.2, 0.5, 0.8)]
    stats_up = [-2.0 * solve_lambda(v, d).log_ratio for d in deltas]
    assert stats_up[0] < stats_up[1] < stats_up[2]
    deltas = [mean - f * lo_span for f in (0.2, 0.5, 0.8)]
    stats_down = [-2.0 * solve_lambda(v, d).log_ratio for d in deltas]
    assert stats_down[0] < stats_down[1] < stats_down[2]


def test_jel_statistic_hull_violation_gives_inf():
    # all pair scores nonnegative, one positive: zero sits on the hull edge
    s = Sample([obs(1, 2), obs(2, 2), obs(3, 1)])
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
    s = Sample([obs(t, 2) for t in range(1, 11)] + [obs(t, 1) for t in range(11, 21)])
    res = jel_test(s)
    assert res.reject
    assert res.p_value < 0.01


def test_jel_test_hull_violation_result_fields():
    res = jel_test(Sample([obs(1, 2), obs(2, 2), obs(3, 1)]))
    assert math.isinf(res.statistic)
    assert res.p_value == 0.0
    assert res.reject and not res.hull_ok
    assert res.el is None
    assert res.to_dict()["statistic"] == "inf"


def test_jel_test_degenerate_accepts():
    s = Sample([obs(t, 1) for t in (1.0, 2.0, 3.0, 4.0)])
    res = jel_test(s)
    assert res.statistic == 0.0
    assert not res.reject
    assert res.degenerate
    assert res.p_value == 1.0


def test_jel_test_validates_alpha_and_size():
    s = Sample([obs(1, 1), obs(2, 2), obs(3, 1)])
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            jel_test(s, alpha=bad)
    with pytest.raises(SampleTooSmall):
        jel_test(Sample([obs(1, 1), obs(2, 2)]))


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
    el = solve_lambda(v, delta0)
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
        assert solve_lambda(v[i], 0.0).lam == lam


def test_iteration_cap_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(crtest.jel, "_MAX_ITER", 1)
    v = np.array([-1.0, 0.5, 2.0])
    assert scalar_solve_lambda(v, max_iter=1) is None
    with pytest.raises(NoConvergence):
        solve_lambda(v, 0.0)
    with pytest.raises(NoConvergence):
        jel_statistics(np.array([[-1.0, 1.0, 1.0], [-1.0, 0.5, 2.0]]))
