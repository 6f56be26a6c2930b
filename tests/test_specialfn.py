import math

import numpy as np
import pytest
from scipy import stats

from crtest import DomainError, chisq1_cdf, chisq1_quantile, chisq1_sf, normal_cdf, normal_quantile
from crtest.specialfn import _bisect_normal_cdf, normal_sf

from oracles import CHISQ1_Q95, CHISQ1_Q99

# the exact critical values the tests use, per alpha: chisq1_quantile(1 - alpha)
# for jel, normal_quantile(1 - alpha/2) and normal_quantile(1 - alpha) for ddk
CRITICAL_HEX = {
    0.01: ("0x1.a8a2255a6e90ep+2", "0x1.49b4c64d69158p+1", "0x1.29c5c4630ff0ap+1"),
    0.05: ("0x1.ebb4ec31e7ef0p+1", "0x1.f5c0331eeff80p+0", "0x1.a515209676ab8p+0"),
    0.1: ("0x1.5a4f3f769f92cp+1", "0x1.a515209676ab8p+0", "0x1.4813c36e26d32p+0"),
}


def test_normal_cdf_points():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    assert normal_cdf(-1.959963984540054) == pytest.approx(0.025, abs=1e-12)


def test_normal_cdf_reflection_identity():
    rng = np.random.default_rng(17)
    for x in rng.normal(scale=3.0, size=50):
        assert normal_cdf(-float(x)) == pytest.approx(1.0 - normal_cdf(float(x)), abs=1e-14)


def test_chisq1_sf_points():
    assert chisq1_sf(0.0) == 1.0
    assert chisq1_sf(3.841459) == pytest.approx(0.05, abs=1e-5)
    assert chisq1_sf(1.0) == pytest.approx(0.317311, abs=1e-6)


def test_normal_cdf_against_scipy_grid():
    xs = np.linspace(-8.0, 8.0, 321)
    for x in xs:
        assert normal_cdf(float(x)) == pytest.approx(float(stats.norm.cdf(x)), abs=1e-14)
        assert normal_sf(float(x)) == pytest.approx(float(stats.norm.sf(x)), rel=1e-12)


def test_normal_quantile_roundtrip():
    for p in (1e-6, 0.01, 0.025, 0.3, 0.5, 0.95, 0.975, 0.999999):
        x = normal_quantile(p)
        assert normal_cdf(x) == pytest.approx(p, abs=1e-12)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            normal_quantile(bad)


def test_critical_values_are_pinned():
    # a float, a numpy scalar and a 0-d array give the same bits
    for alpha, pinned in CRITICAL_HEX.items():
        for as_p in (float, np.float64, np.array):
            got = (chisq1_quantile(as_p(1.0 - alpha)), normal_quantile(as_p(1.0 - alpha / 2.0)),
                   normal_quantile(as_p(1.0 - alpha)))
            assert all(type(x) is float for x in got), (alpha, as_p)
            assert tuple(x.hex() for x in got) == pinned, (alpha, as_p)


def test_quantiles_refuse_bad_p_before_the_cache():
    misses = _bisect_normal_cdf.cache_info().misses
    for quantile in (normal_quantile, chisq1_quantile):
        for bad in (0.0, 1.0, math.nan, np.float64(math.nan), np.array(1.0)):
            with pytest.raises(DomainError):
                quantile(bad)
        for bad in ("0.5", "nan"):
            with pytest.raises(TypeError):
                quantile(bad)
    assert _bisect_normal_cdf.cache_info().misses == misses


def test_chisq1_cdf_sf_complementary():
    for x in (0.0, 1e-8, 0.3, 1.0, 3.84, 10.0, 40.0):
        assert chisq1_cdf(x) + chisq1_sf(x) == pytest.approx(1.0, abs=1e-14)


def test_chisq1_against_scipy():
    xs = np.concatenate([np.linspace(0.0, 20.0, 101), [50.0, 100.0]])
    for x in xs:
        assert chisq1_cdf(float(x)) == pytest.approx(float(stats.chi2.cdf(x, df=1)), abs=1e-13)
        assert chisq1_sf(float(x)) == pytest.approx(float(stats.chi2.sf(x, df=1)), rel=1e-10)


def test_chisq1_sf_deep_tail_stays_accurate():
    # erfc keeps relative accuracy where 1 - cdf would round to zero
    assert chisq1_sf(100.0) == pytest.approx(float(stats.chi2.sf(100.0, df=1)), rel=1e-10)
    assert chisq1_sf(float("inf")) == 0.0


def test_chisq1_domain():
    with pytest.raises(DomainError):
        chisq1_cdf(-1e-12)
    with pytest.raises(DomainError):
        chisq1_sf(-2.0)
    with pytest.raises(DomainError):
        chisq1_quantile(1.0)
    with pytest.raises(DomainError):
        chisq1_quantile(0.0)


def test_chisq1_quantile_reference_points():
    assert chisq1_quantile(0.95) == pytest.approx(CHISQ1_Q95, abs=1e-5)
    assert chisq1_quantile(0.99) == pytest.approx(CHISQ1_Q99, abs=1e-5)


def test_chisq1_quantile_roundtrip_and_scipy():
    for p in (0.001, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 0.9999):
        x = chisq1_quantile(p)
        assert chisq1_cdf(x) == pytest.approx(p, abs=1e-12)
        assert chisq1_sf(x) == pytest.approx(1.0 - p, abs=1e-8)
        assert x == pytest.approx(float(stats.chi2.ppf(p, df=1)), abs=1e-9)


def test_chisq1_quantile_monotone():
    grid = np.linspace(0.01, 0.99, 50)
    values = [chisq1_quantile(float(p)) for p in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_normal_relation_to_chisq1():
    # P(chi2_1 <= x) = P(|Z| <= sqrt(x))
    for x in (0.5, 1.0, 3.841459, 9.0):
        z = math.sqrt(x)
        assert chisq1_cdf(x) == pytest.approx(normal_cdf(z) - normal_cdf(-z), abs=1e-14)
