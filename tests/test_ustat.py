import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from crtest import (
    FamilyParams,
    Sample,
    SampleTooSmall,
    delta_hat,
    jackknife,
    sample,
    true_delta,
)
from crtest.datagen import draw, uniform_rows
from crtest.mc import _BLOCK_ELEMS
from crtest.ustat import jackknife_rows, row_scores

from oracles import (
    dense_row_sums,
    exact_jackknife,
    kernel_raw,
    kernel_sym,
    naive_delta_hat,
    naive_jackknife,
    random_tc,
    sample_of,
)


def test_kernel_raw_branches():
    assert kernel_raw((2, 1), (1, 2)) == 1
    assert kernel_raw((2, 2), (1, 1)) == -1
    # earlier first argument or equal causes score zero
    assert kernel_raw((1, 1), (2, 2)) == 0
    assert kernel_raw((2, 1), (1, 1)) == 0
    assert kernel_raw((2, 2), (1, 2)) == 0


def test_kernel_ties_score_zero():
    for c1 in (1, 2):
        for c2 in (1, 2):
            assert kernel_raw((1, c1), (1, c2)) == 0
            assert kernel_sym((1, c1), (1, c2)) == 0.0


def test_kernel_sym_is_symmetric_and_half_valued():
    assert kernel_sym((2, 1), (1, 2)) == 0.5
    assert kernel_sym((1, 2), (2, 1)) == 0.5
    assert kernel_sym((2, 2), (1, 1)) == -0.5
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = (rng.integers(0, 4), int(rng.integers(1, 3)))
        b = (rng.integers(0, 4), int(rng.integers(1, 3)))
        assert kernel_sym(a, b) == kernel_sym(b, a)
        assert kernel_sym(a, b) in (-0.5, 0.0, 0.5)


def test_delta_hat_two_point_example():
    assert delta_hat(sample_of((1, 2), (2, 1))) == 0.5
    assert delta_hat(sample_of((1, 1), (2, 2))) == -0.5


def test_delta_hat_requires_two_points():
    with pytest.raises(SampleTooSmall):
        delta_hat(sample_of((1, 1)))


def test_delta_hat_matches_naive_on_random_samples():
    rng = np.random.default_rng(11)
    for trial in range(80):
        n = int(rng.integers(2, 30))
        times, causes = random_tc(rng, n, with_ties=bool(trial % 3 == 0))
        s = Sample.from_arrays(times, causes)
        assert delta_hat(s) == float(naive_delta_hat(times, causes))


def test_row_scores_agree_with_scalar_kernel():
    rng = np.random.default_rng(5)
    times, causes = random_tc(rng, 12, with_ties=True)
    scores = row_scores(times, causes)
    for i in range(12):
        expected = 0.0
        for l in range(12):
            expected += kernel_sym((times[i], int(causes[i])), (times[l], int(causes[l])))
        assert scores[i] == expected


@pytest.mark.parametrize("with_ties", [True, False])
def test_row_scores_equal_dense_row_sums_bitwise(with_ties):
    rng = np.random.default_rng(41 + with_ties)
    for n in (1, 2, 3, 7, 50, 333, 2000):
        times, causes = random_tc(rng, n, with_ties=with_ties)
        scores = row_scores(times, causes)
        assert scores.dtype == np.float64
        assert scores.tobytes() == dense_row_sums(times, causes).tobytes()
    # one cause only: every score is +0.0
    ones = np.ones(10, dtype=np.int64)
    assert row_scores(np.arange(10.0), ones).tobytes() == np.zeros(10).tobytes()


def random_stack(rng, rows, n, with_ties):
    pairs = [random_tc(rng, n, with_ties=with_ties) for _ in range(rows)]
    return np.array([t for t, _ in pairs]), np.array([c for _, c in pairs])


@pytest.mark.parametrize("with_ties", [True, False])
def test_row_scores_stack_equals_row_by_row_bitwise(with_ties):
    rng = np.random.default_rng(43 + with_ties)
    for n in (1, 2, 3, 4, 9, 20, 57, 200):
        times, causes = random_stack(rng, 25, n, with_ties)
        causes[0] = 1  # a single-cause row scores +0.0 throughout
        stacked = row_scores(times, causes)
        assert stacked.shape == (25, n)
        for i in range(25):
            one = row_scores(times[i], causes[i])
            assert one.tobytes() == stacked[i].tobytes()
            assert np.array_equal(np.signbit(one), np.signbit(stacked[i]))


def test_row_scores_empty_inputs():
    for shape in [(0,), (4, 0), (0, 6)]:
        scores = row_scores(np.zeros(shape), np.ones(shape, dtype=np.int64))
        assert scores.shape == shape
        assert scores.dtype == np.float64


def test_row_scores_ties_across_row_boundaries_bitwise():
    # row i takes times in {i, i + 1} with both present, so once the rows are
    # sorted and laid end to end, a tie run would cross every row start
    rng = np.random.default_rng(53)
    for n in (1, 2, 3, 8, 31):
        times = np.arange(12.0)[:, None] + rng.integers(0, 2, size=(12, n))
        times[:, 0] = np.arange(12.0)
        times[:, -1] = np.arange(1.0, 13.0)
        times[4] = times[5] = 5.0  # all-constant rows, tied across their boundary
        rng.permuted(times, axis=1, out=times)
        causes = rng.integers(1, 3, size=(12, n))
        stacked = row_scores(times, causes)
        for i in range(12):
            expected = dense_row_sums(times[i], causes[i])
            assert row_scores(times[i], causes[i]).tobytes() == stacked[i].tobytes()
            assert expected.tobytes() == stacked[i].tobytes()
            assert np.array_equal(np.signbit(expected), np.signbit(stacked[i]))
    # a whole stack of one constant time scores +0.0 everywhere
    flat = row_scores(np.full((5, 7), 1.5), rng.integers(1, 3, size=(5, 7)))
    assert flat.tobytes() == np.zeros((5, 7)).tobytes()


def one_tied_row(rng, n, row, tie):
    """A (6, n) stack of distinct positive times but for the two subjects of
    ``row`` given the equal times ``tie``, with causes 1 and 2 so the tie
    moves their scores; with n = 1 there is no pair to tie, and ``row``
    repeats the time of the row before it instead."""
    times = rng.exponential(size=(6, n))
    causes = rng.integers(1, 3, size=(6, n))
    if n == 1:
        times[row] = times[row - 1]
    else:
        times[row, :2] = tie
        causes[row, :2] = (1, 2)
    return times, causes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 40])
@pytest.mark.parametrize("row, tie", [(5, (1.25, 1.25)), (0, (-0.0, 0.0))],
                         ids=["last row", "signed zeros in the first row"])
def test_one_tied_row_among_tie_free_rows_bitwise(n, row, tie):
    # a stack with no tied time takes the tie-free pass of row_scores, and one
    # tied time anywhere sends it down the tie-group pass; a selection that
    # looked at part of the stack, or at the bits of the times rather than
    # their values (-0.0 == +0.0), would score the tied row as untied
    rng = np.random.default_rng(67 + n)
    for trial in range(5):
        times, causes = one_tied_row(rng, n, row, tie)
        stacked = row_scores(times, causes)
        for i in range(6):
            expected = dense_row_sums(times[i], causes[i])
            assert row_scores(times[i], causes[i]).tobytes() == stacked[i].tobytes()
            assert expected.tobytes() == stacked[i].tobytes()
        if n < 3:
            continue
        d_hat, pseudo = jackknife_rows(times, causes)
        for i in range(6):
            d_exact, pseudo_exact = exact_jackknife(times[i], causes[i])
            assert d_hat[i] == float(d_exact)
            assert pseudo[i].tobytes() == np.array([float(v) for v in pseudo_exact]).tobytes()


def test_row_scores_are_permutation_equivariant_bitwise():
    # scores depend only on each subject's tie group and cause, which is
    # what lets the kernel use an unstable sort
    rng = np.random.default_rng(59)
    for trial in range(40):
        n = int(rng.integers(2, 60))
        times, causes = random_tc(rng, n, with_ties=bool(trial % 4))
        perm = rng.permutation(n)
        scores = row_scores(times, causes)
        permuted = row_scores(times[perm], causes[perm])
        assert permuted.tobytes() == scores[perm].tobytes()
        assert np.array_equal(np.signbit(permuted), np.signbit(scores[perm]))


@pytest.mark.parametrize("with_ties", [True, False])
def test_jackknife_rows_equal_jackknife_bitwise(with_ties):
    rng = np.random.default_rng(47 + with_ties)
    for n in (3, 4, 11, 60, 200):
        times, causes = random_stack(rng, 20, n, with_ties)
        causes[0] = 2
        d_hat, pseudo = jackknife_rows(times, causes)
        for i in range(20):
            jk = jackknife(Sample.from_arrays(times[i], causes[i]))
            assert jk.delta_hat == d_hat[i]
            assert jk.pseudo_values.tobytes() == pseudo[i].tobytes()
            assert np.array_equal(np.signbit(jk.pseudo_values), np.signbit(pseudo[i]))


def test_jackknife_memory_is_linear_in_n():
    n = 5000
    s = sample(FamilyParams(lam=1.0, p1=0.4, a=1.5), n, rng=np.random.default_rng(12))
    tracemalloc.start()
    try:
        jackknife(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * n


def test_jackknife_rows_memory_is_linear_in_stack_size():
    # the harness's largest task: one stack of _BLOCK_ELEMS values
    params = FamilyParams(lam=1.0, p1=0.4, a=1.5, seed=12)
    for n in (16, 128, 1024):
        rows = _BLOCK_ELEMS // n
        assert rows * n == _BLOCK_ELEMS
        # as the harness does: the time uniforms score in place of the times
        u = uniform_rows(params.seed, (0, 0), 0, rows, 2 * n)
        causes = draw(params.p1, params.a, u)
        tracemalloc.start()
        try:
            jackknife_rows(u[:, :n], causes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * rows * n


def test_pseudo_values_are_pinned():
    # SHA-256 of the pseudo-value bytes, each the exact quotient
    # (2(n - 1)*row_i - sum(row)) / ((n - 1)(n - 2)) rounded once; any
    # change of a bit shows.  The time uniforms order each row as the times
    # -log1p(-u) / lam do, so scoring either gives this hash
    params = FamilyParams(lam=1.0, p1=0.3, a=1.5, seed=7)
    u = uniform_rows(params.seed, (1, 2), 0, 163, 200)
    pseudo = jackknife_rows(u[:, :100], draw(params.p1, params.a, u))[1]
    assert pseudo.shape == (163, 100)
    assert hashlib.sha256(pseudo.tobytes()).hexdigest() == (
        "406bed98ea4421fdfa6c873b8434645b95d86c1871aaa501e6baf6871fc1d573"
    )
    rng = np.random.default_rng(59)
    times = rng.integers(0, 8, size=(40, 30)).astype(float)
    causes = rng.integers(1, 3, size=(40, 30))
    pseudo = jackknife_rows(times, causes)[1]
    assert hashlib.sha256(pseudo.tobytes()).hexdigest() == (
        "3d4a979bc9da1127cfbd37e063bb3edd559872402d233433faa6fe52a0f4f8e0"
    )


def test_jackknife_worked_example():
    """Three observations with the middle one from cause 2."""
    s = sample_of((1, 1), (2, 2), (3, 1))
    jk = jackknife(s)
    assert jk.delta_hat == 0.0
    assert jk.pseudo_values.tolist() == [-1.0, 0.0, 1.0]
    assert jk.n == 3


def test_jackknife_requires_three_points():
    with pytest.raises(SampleTooSmall):
        jackknife(sample_of((1, 1), (2, 2)))


def test_jackknife_mean_identity_random():
    rng = np.random.default_rng(23)
    for trial in range(60):
        n = int(rng.integers(3, 40))
        times, causes = random_tc(rng, n, with_ties=bool(trial % 4 == 0))
        jk = jackknife(Sample.from_arrays(times, causes))
        assert jk.pseudo_values.mean() == pytest.approx(jk.delta_hat, abs=1e-12)


def test_jackknife_matches_naive_recomputation():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(3, 25))
        times, causes = random_tc(rng, n, with_ties=bool(trial % 2))
        jk = jackknife(Sample.from_arrays(times, causes))
        full, pseudo = naive_jackknife(list(times), list(causes))
        got = np.array([jk.delta_hat, *jk.pseudo_values]).tobytes()
        assert got == np.array([float(x) for x in (full, *pseudo)]).tobytes()


def test_pseudo_values_are_readonly():
    jk = jackknife(sample_of((1, 1), (2, 2), (3, 1)))
    with pytest.raises(ValueError):
        jk.pseudo_values[0] = 5.0


def test_delta_hat_invariant_to_time_rescaling():
    # only the ordering of times enters the statistic
    rng = np.random.default_rng(91)
    times, causes = random_tc(rng, 20)
    s1 = Sample.from_arrays(times, causes)
    s2 = Sample.from_arrays(np.exp(times), causes)
    assert delta_hat(s1) == delta_hat(s2)
    np.testing.assert_array_equal(
        jackknife(s1).pseudo_values, jackknife(s2).pseudo_values
    )


def test_delta_hat_sign_flips_under_cause_swap():
    rng = np.random.default_rng(17)
    times, causes = random_tc(rng, 15)
    swapped = np.where(causes == 1, 2, 1)
    assert delta_hat(Sample.from_arrays(times, causes)) == -delta_hat(
        Sample.from_arrays(times, swapped)
    )
    np.testing.assert_array_equal(
        jackknife(Sample.from_arrays(times, causes)).pseudo_values,
        -jackknife(Sample.from_arrays(times, swapped)).pseudo_values,
    )


def test_permutation_invariance_and_bound():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        times, causes = random_tc(rng, n)
        perm = rng.permutation(n)
        s = Sample.from_arrays(times, causes)
        sp = Sample.from_arrays(times[perm], causes[perm])
        dh = delta_hat(s)
        assert abs(dh) <= 1.0
        assert delta_hat(sp) == pytest.approx(dh, abs=1e-13)
        assert sorted(jackknife(sp).pseudo_values) == pytest.approx(
            sorted(jackknife(s).pseudo_values), abs=1e-12
        )


def test_single_cause_sample_scores_zero():
    s = sample_of(*[(t, 1) for t in (1.0, 2.0, 3.0, 4.0)])
    assert delta_hat(s) == 0.0


def test_identical_observations_give_zero_pseudo_values():
    s = sample_of(*[(2.0, 1)] * 5)
    jk = jackknife(s)
    assert jk.delta_hat == 0.0
    assert np.all(jk.pseudo_values == 0.0)


def test_delta_hat_unbiased_under_independence():
    # a = 1 makes cause independent of time, where the population value is 0;
    # at a = 1.6 the sampler and the estimator must meet true_delta's closed form
    rng = np.random.default_rng(808)
    reps, n = 10_000, 50
    for a in (1.0, 1.6):
        params = FamilyParams(lam=1.0, p1=0.4, a=a)
        values = np.empty(reps)
        for r in range(reps):
            values[r] = delta_hat(sample(params, n, rng=rng))
        se = values.std(ddof=1) / math.sqrt(reps)
        assert abs(values.mean() - true_delta(params)) <= 3.0 * se, a
