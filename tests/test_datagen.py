import hashlib
import math

import numpy as np
import pytest

from crtest import FamilyParams, rng_from_seed, sample, true_delta
from crtest.datagen import (
    _Words,
    baseline_cdf,
    cause1_probability,
    draw,
    sub_distribution_cause1,
    uniform_rows,
)

from oracles import closed_form_delta


def test_params_validation():
    FamilyParams(lam=1.0, p1=0.0, a=1.0)
    FamilyParams(lam=0.5, p1=0.5, a=2.0)
    with pytest.raises(ValueError):
        FamilyParams(lam=0.0, p1=0.3, a=1.5)
    with pytest.raises(ValueError):
        FamilyParams(lam=-1.0, p1=0.3, a=1.5)
    with pytest.raises(ValueError):
        FamilyParams(lam=1.0, p1=0.51, a=1.5)
    with pytest.raises(ValueError):
        FamilyParams(lam=1.0, p1=-0.01, a=1.5)
    with pytest.raises(ValueError):
        FamilyParams(lam=1.0, p1=0.3, a=0.99)
    with pytest.raises(ValueError):
        FamilyParams(lam=1.0, p1=0.3, a=2.01)
    with pytest.raises(ValueError):
        FamilyParams(lam=1.0, p1=0.3, a=1.5, seed=-1)
    # a bool is an int to isinstance, and would be written as true/false
    for flag in (True, False):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            FamilyParams(lam=1.0, p1=0.3, a=1.5, seed=flag)


def test_params_store_numpy_scalars_as_plain_numbers():
    p = FamilyParams(lam=np.float32(2.0), p1=np.float32(0.25), a=np.float64(1.5), seed=np.int64(7))
    assert p == FamilyParams(lam=2.0, p1=0.25, a=1.5, seed=7)
    assert [type(x) for x in (p.lam, p.p1, p.a, p.seed)] == [float, float, float, int]


def test_sample_reproducible_from_seed():
    p = FamilyParams(lam=2.0, p1=0.4, a=1.3, seed=77)
    assert sample(p, 500) == sample(p, 500)
    other = FamilyParams(lam=2.0, p1=0.4, a=1.3, seed=78)
    assert sample(other, 500) != sample(p, 500)


def test_sample_rng_override_is_deterministic():
    p = FamilyParams(lam=1.0, p1=0.5, a=2.0, seed=0)
    s1 = sample(p, 100, rng=rng_from_seed(9, (1, 2, 3)))
    s2 = sample(p, 100, rng=rng_from_seed(9, (1, 2, 3)))
    s3 = sample(p, 100, rng=rng_from_seed(9, (1, 2, 4)))
    assert s1 == s2
    assert s1 != s3


def test_sample_stream_is_pinned():
    # digest taken when sample() drew times and causes with two random(n)
    # calls; the single random(2n) draw must keep the stream
    s = sample(FamilyParams(lam=1, p1=0.4, a=1.5, seed=9), 50, rng=rng_from_seed(9, (1, 2, 3)))
    digest = hashlib.sha256(s.times.tobytes() + s.causes.tobytes()).hexdigest()
    assert digest == "32ff8c8fafa8e7c6591364570256ae16c851491c7acd595f1e4618cf66b37474"


@pytest.mark.parametrize("n", [1, 3, 20, 101])
def test_stacked_draw_rows_equal_sample(n):
    p = FamilyParams(lam=0.7, p1=0.3, a=1.8, seed=4)
    u = np.array([rng_from_seed(4, (0, 1, rep)).random(2 * n) for rep in range(30)])
    times, causes = draw(p, u)
    assert times.shape == causes.shape == (30, n)
    for rep in range(30):
        s = sample(p, n, rng=rng_from_seed(4, (0, 1, rep)))
        assert s.times.tobytes() == times[rep].tobytes()
        assert np.array_equal(s.causes, causes[rep])


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1, 2**200 + 9])
def test_uniform_rows_equal_rng_from_seed(seed):
    # seeds of one to seven 32-bit words, keys with a word at its top value
    # and with a two-word element, replication indices up to the last
    # one-word index, 2**32 - 1, an empty range, and odd widths as well as
    # the harness's even 2n
    for key in [(0, 0), (1, 2), (2**32 - 1, 1), (2**32 + 5, 3)]:
        for rep_lo, rep_hi in [(0, 7), (2**32 - 5, 2**32), (5, 5)]:
            for width in (1, 7, 6, 40, 202):
                u = uniform_rows(seed, key, rep_lo, rep_hi, width)
                assert u.shape == (rep_hi - rep_lo, width)
                for row, rep in zip(u, range(rep_lo, rep_hi)):
                    expected = rng_from_seed(seed, (*key, rep)).random(width)
                    assert row.tobytes() == expected.tobytes()
    # an index of 2**32 takes two entropy words, so it is refused, not re-streamed
    with pytest.raises(ValueError):
        uniform_rows(seed, (0, 0), 2**32 - 1, 2**32 + 1, 6)


def test_seed_words_refuse_other_requests():
    # PCG64 seeds itself with generate_state(4, uint64); any other request
    # means numpy changed how it seeds, and must not quietly re-stream
    words = np.arange(4, dtype=np.uint64)
    seq = _Words(words)
    assert seq.generate_state(4, np.uint64) is words
    for n_words, dtype in [(2, np.uint64), (8, np.uint64), (4, np.uint32), (4, np.int64),
                           (4, np.dtype(np.uint64)), (4, "uint64")]:
        with pytest.raises(ValueError, match="seed words are 4 uint64"):
            seq.generate_state(n_words, dtype)
    with pytest.raises(ValueError, match="seed words are 4 uint64"):
        seq.generate_state(4)


def test_sample_values_are_valid():
    p = FamilyParams(lam=0.5, p1=0.3, a=1.7, seed=5)
    s = sample(p, 2000)
    assert s.n == 2000
    assert np.all(s.times >= 0) and np.all(np.isfinite(s.times))
    assert set(np.unique(s.causes)) <= {1, 2}


def test_sample_rejects_nonpositive_n():
    p = FamilyParams(lam=1.0, p1=0.3, a=1.5)
    with pytest.raises(ValueError):
        sample(p, 0)


def test_cause_fraction_matches_p1():
    # marginally P(J=1) = p1 regardless of a
    for a in (1.0, 1.5, 2.0):
        p = FamilyParams(lam=1.0, p1=0.35, a=a, seed=101)
        s = sample(p, 40000)
        assert s.count_cause(1) / s.n == pytest.approx(0.35, abs=0.01)


def test_mean_time_matches_rate():
    p = FamilyParams(lam=4.0, p1=0.2, a=1.2, seed=3)
    s = sample(p, 50000)
    assert float(s.times.mean()) == pytest.approx(0.25, rel=0.03)


def test_cause1_probability_constant_iff_independent():
    t = np.linspace(0.01, 5.0, 50)
    indep = FamilyParams(lam=1.0, p1=0.3, a=1.0)
    np.testing.assert_allclose(cause1_probability(indep, t), 0.3, atol=1e-15)
    dep = FamilyParams(lam=1.0, p1=0.3, a=1.8)
    vals = cause1_probability(dep, t)
    assert np.all(np.diff(vals) > 0)  # increasing toward p1*a
    assert np.all(vals >= 0) and np.all(vals <= dep.p1 * dep.a + 1e-15)


def test_sub_distribution_limits():
    p = FamilyParams(lam=1.0, p1=0.4, a=1.5)
    assert sub_distribution_cause1(p, 0.0) == 0.0
    assert float(sub_distribution_cause1(p, 1e6)) == pytest.approx(0.4, abs=1e-12)
    assert float(baseline_cdf(p, 1e6)) == pytest.approx(1.0, abs=1e-12)


def test_true_delta_matches_closed_form_grid():
    for lam in (0.1, 1.0, 10.0):
        for p1 in (0.0, 0.1, 0.3, 0.5):
            for a in np.linspace(1.0, 2.0, 101):
                p = FamilyParams(lam=lam, p1=p1, a=float(a))
                assert true_delta(p) == pytest.approx(closed_form_delta(p1, float(a)), abs=1e-12)
            assert true_delta(FamilyParams(lam=lam, p1=p1, a=1.0)) == 0.0


def test_true_delta_nonnegative_and_increasing_in_a():
    vals = [true_delta(FamilyParams(lam=0.5, p1=0.3, a=a)) for a in (1.0, 1.3, 1.5, 1.7, 1.9)]
    assert all(v >= 0.0 for v in vals)
    assert all(b > c for b, c in zip(vals[1:], vals))


def test_true_delta_independent_of_rate():
    vals = [true_delta(FamilyParams(lam=lam, p1=0.4, a=1.6)) for lam in (0.1, 1.0, 10.0)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], abs=1e-8)


def test_true_delta_zero_under_independence():
    assert true_delta(FamilyParams(lam=2.0, p1=0.5, a=1.0)) == pytest.approx(0.0, abs=1e-10)
    assert true_delta(FamilyParams(lam=2.0, p1=0.0, a=2.0)) == 0.0


def test_inverse_transform_hits_baseline_cdf():
    # empirical CDF of generated times tracks 1 - exp(-lam t)
    p = FamilyParams(lam=1.5, p1=0.25, a=1.4, seed=8)
    s = sample(p, 100000)
    for q in (0.1, 0.5, 0.9):
        t_q = -math.log1p(-q) / p.lam
        assert float(np.mean(s.times <= t_q)) == pytest.approx(q, abs=0.005)
