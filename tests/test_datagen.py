import hashlib
import math
import sys

import numpy as np
import pytest

from crtest import FamilyParams, rng_from_seed, sample, true_delta
from crtest.datagen import _Words, draw, uniform_rows

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


def test_uniform_rows_keep_their_streams_when_key_sizes_alternate():
    # the hash constants are cached by step range, which the word counts of
    # the seed and the key set; calls that alternate one-word and two-word
    # keys, and short and long seeds, in one process must each keep their
    # own stream
    calls = [(7, (0, 0)), (7, (2**32 + 5, 3)), (2**200 + 9, (1, 2)), (7, (1, 2**40)),
             (2**200 + 9, (2**33, 2**33)), (7, (0, 0))]
    for seed, key in calls * 2:
        u = uniform_rows(seed, key, 3, 9, 8)
        for row, rep in zip(u, range(3, 9)):
            assert row.tobytes() == rng_from_seed(seed, (*key, rep)).random(8).tobytes()


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


def cause_rule(params, ut):
    """The family's cause-1 probability given F(T) = ut, p1*a*ut**(a - 1),
    and ``draw``'s causes with the cause uniform one ulp below it and one
    ulp above it.

    At those uniforms and at the probability itself, the causes must equal
    ``np.where(uc < p, 1, 2)`` in value and in dtype, whichever casting
    rules the installed numpy applies.
    """
    p = params.p1 * params.a * ut ** (params.a - 1.0)
    causes = []
    for uc in (np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)):
        got = draw(params, np.concatenate((ut, uc))[None, :])[1][0]
        expected = np.where(uc < p, 1, 2)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        causes.append(got)
    below, _, above = causes
    return p, below, above


def test_cause1_probability_constant_iff_independent():
    ut = np.linspace(0.01, 0.99, 50)
    p, below, above = cause_rule(FamilyParams(lam=1.0, p1=0.3, a=1.0), ut)
    assert np.all(p == 0.3)
    assert np.all(below == 1) and np.all(above == 2)
    dep = FamilyParams(lam=1.0, p1=0.3, a=1.8)
    p, below, above = cause_rule(dep, ut)
    assert np.all(np.diff(p) > 0)  # increasing toward p1*a
    assert np.all(p >= 0) and np.all(p <= dep.p1 * dep.a)
    assert np.all(below == 1) and np.all(above == 2)


def test_sub_distribution_limits():
    # F1(t) = p1*F(t)**a rises from 0 at t = 0 to p1 as F(t) tends to 1
    p = FamilyParams(lam=1.0, p1=0.4, a=1.5)
    times, causes = draw(p, np.zeros((1, 2)))
    assert times[0, 0] == 0.0 and causes[0, 0] == 2  # cause 1 has probability 0 at t = 0
    # over F's uniform law the cause-1 probability averages to F1's limit p1
    ut = (np.arange(100_000) + 0.5) / 100_000
    prob, below, above = cause_rule(p, ut)
    assert np.all(below == 1) and np.all(above == 2)
    assert float(prob.mean()) == pytest.approx(0.4, abs=1e-6)
    # the largest uniform numpy draws gives the longest time, where F is 1 - 2**-53
    times, _ = draw(p, np.array([[1.0 - 2.0**-53, 0.5]]))
    assert times[0, 0] == pytest.approx(53.0 * math.log(2.0) / p.lam, rel=1e-15)
    assert -math.expm1(-p.lam * times[0, 0]) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("lam", [1e-310, 2.03e-307, 5e291, 1e300, sys.float_info.max])
def test_params_refuse_a_rate_that_takes_times_out_of_normal_floats(lam):
    # below about 2.04e-307 the longest time overflows to inf; above about
    # 4.99e291 the shortest nonzero time is subnormal
    with pytest.raises(ValueError, match="lam must lie in"):
        FamilyParams(lam=lam, p1=0.3, a=1.5)


@pytest.mark.parametrize("lam", [2.05e-307, 4.98e291])
def test_extreme_accepted_rates_give_finite_normal_times(lam):
    u = np.array([[0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53] * 2])
    times, _ = draw(FamilyParams(lam=lam, p1=0.3, a=1.5), u)
    assert times[0, 0] == 0.0
    assert np.all(np.isfinite(times)) and np.all(times[0, 1:] >= sys.float_info.min)
    assert np.all(np.diff(times[0]) > 0)


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
