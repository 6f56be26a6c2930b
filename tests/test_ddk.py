import json
import math

import numpy as np
import pytest

from crtest import (
    DegenerateSample,
    FamilyParams,
    Sample,
    SampleTooSmall,
    SimConfig,
    ddk_test,
    ddk_z,
    run,
)
from crtest.ddk import zstat
from crtest.specialfn import normal_sf

from oracles import PAIR_EXAMPLE_Z, sample_of


def test_pair_example_z_value():
    s = sample_of((1, 2), (2, 1))
    z, p1_hat, dh = ddk_z(s)
    assert dh == 0.5 and p1_hat == 0.5
    assert z == pytest.approx(PAIR_EXAMPLE_Z, abs=1e-12)


def test_zstat_rejects_degenerate_fraction():
    with pytest.raises(DegenerateSample):
        zstat(0.1, 0.0, 10)
    with pytest.raises(DegenerateSample):
        zstat(0.1, 1.0, 10)


def test_zstat_accepts_arrays():
    d_hat = np.array([0.1, -0.05, 0.0, 0.2])
    p1_hat = np.array([0.5, 0.25, 0.9, 0.1])
    z = zstat(d_hat, p1_hat, 40)
    assert z.shape == (4,)
    for i in range(4):
        one = zstat(float(d_hat[i]), float(p1_hat[i]), 40)
        assert isinstance(one, float)
        assert np.array([one]).tobytes() == z[i:i + 1].tobytes()
    assert zstat(d_hat[:0], p1_hat[:0], 40).shape == (0,)
    with pytest.raises(DegenerateSample):
        zstat(d_hat, np.array([0.5, 0.25, 1.0, 0.1]), 40)


def test_ddk_z_single_cause_sample():
    s = sample_of((1, 1), (2, 1), (3, 1))
    with pytest.raises(DegenerateSample):
        ddk_z(s)


def test_ddk_z_needs_two_observations():
    with pytest.raises(SampleTooSmall):
        ddk_z(sample_of((1, 1)))


def test_two_sided_default_p_value():
    s = sample_of((1, 2), (2, 1), (3, 2), (4, 1), (5, 1))
    res = ddk_test(s)
    assert res.two_sided
    assert res.p_value == pytest.approx(2.0 * normal_sf(abs(res.z)), abs=1e-15)
    assert res.reject == (res.p_value < res.alpha)


def test_one_sided_p_value_and_decision():
    s = sample_of((1, 2), (2, 1), (3, 2), (4, 1), (5, 1))
    res = ddk_test(s, two_sided=False)
    assert res.p_value == pytest.approx(normal_sf(res.z), abs=1e-15)
    assert res.reject == (res.p_value < res.alpha)


def test_zero_delta_sample_sits_at_the_null_center():
    # the (1,2)/(2,1) pair contributions cancel pairwise
    s = sample_of((1, 1), (2, 2), (3, 2), (4, 1))
    z, p1_hat, dh = ddk_z(s)
    assert dh == 0.0 and z == 0.0 and p1_hat == 0.5
    two = ddk_test(s)
    one = ddk_test(s, two_sided=False)
    assert two.p_value == 1.0 and not two.reject
    assert one.p_value == 0.5 and not one.reject


def test_cause_swap_flips_z_sign_keeps_two_sided_decision():
    rng = np.random.default_rng(59)
    times = rng.exponential(size=30)
    causes = rng.integers(1, 3, size=30)
    s1 = Sample.from_arrays(times, causes)
    s2 = Sample.from_arrays(times, np.where(causes == 1, 2, 1))
    r1, r2 = ddk_test(s1), ddk_test(s2)
    assert r1.z == pytest.approx(-r2.z, rel=1e-9)
    assert r1.reject == r2.reject
    assert r1.p_value == pytest.approx(r2.p_value, rel=1e-9)


def test_alpha_validation():
    s = sample_of((1, 2), (2, 1))
    for bad in (0.0, 1.0, math.nan, "0.05", True, np.array([0.05]), 0.05j, None):
        with pytest.raises(ValueError, match="alpha must be a real number"):
            ddk_test(s, alpha=bad)


def test_alpha_and_side_are_stored_as_plain_values():
    s = sample_of((1, 2), (2, 1), (3, 2), (4, 1))
    for alpha in (np.float32(0.05), np.float64(0.05), np.array(0.05), np.array(0.05, np.float32)):
        for two_sided in (True, False):
            res = ddk_test(s, alpha=alpha, two_sided=np.bool_(two_sided))
            assert type(res.alpha) is float and type(res.two_sided) is bool
            assert res == ddk_test(s, alpha=float(alpha), two_sided=two_sided)
            assert json.loads(json.dumps(res.to_dict()))["alpha"] == float(alpha)
    # only a bool picks the side: "no" is truthy, and 0 and 1 are not bools
    for bad in ("no", 0, 1, None):
        with pytest.raises(ValueError, match="two_sided must be a bool"):
            ddk_test(s, two_sided=bad)


def test_to_dict_fields():
    d = ddk_test(sample_of((1, 2), (2, 1), (3, 2))).to_dict()
    assert set(d) == {"z", "p_value", "reject", "alpha", "two_sided", "p1_hat", "delta_hat", "n"}
    assert d["n"] == 3


def test_null_size_is_calibrated():
    """Rejection rate under independence sits near the nominal 5% level."""
    cfg = SimConfig(
        params=FamilyParams(lam=1.0, p1=0.5, a=1.0, seed=13),
        n_grid=(100,),
        alpha_grid=(0.05,),
        a_grid=(1.0,),
        reps=10000,
        methods=("ddk",),
    )
    cell = run(cfg, workers=1).get("ddk", 1.0, 100, 0.05)
    assert 0.040 <= cell.rate <= 0.060, f"two-sided size {cell.rate}"


def test_z_grows_with_sample_size_under_dependence():
    # doubling a strongly dependent sample roughly scales z by sqrt(2)
    base = [(t, 2) for t in range(1, 11)] + [(t + 10, 1) for t in range(1, 11)]
    z1, _, _ = ddk_z(sample_of(*base))
    doubled = base + [(t + 0.5, c) for t, c in base]
    z2, _, _ = ddk_z(sample_of(*doubled))
    assert z2 > z1
