"""Normal-calibrated concordance test of Dewan, Deshpande & Kulathinal (2004).

The statistic is the tau-scaled concordance between failure cause and failure
time: twice the pair-average estimate delta_hat of

    delta = P(T1 > T2, J1 = 1, J2 = 2) - P(T1 > T2, J1 = 2, J2 = 1).

Normalization note (this pins down the scaling used here): under
independence, sqrt(n) * (2 * delta_hat) is asymptotically normal with mean 0
and variance (4/3) * p1 * (1 - p1), where p1 = P(J = 1).  That variance
belongs to the *doubled* estimate — a Kendall-tau-type quantity; the variance
of sqrt(n) * delta_hat itself is p1 * (1 - p1) / 3, four times smaller.
Standardizing delta_hat without the factor 2 against the (4/3) p1 (1 - p1)
law would deflate the statistic and collapse the rejection rate to near zero,
so the z-score implemented here is

    z = 2 * sqrt(n) * delta_hat / sqrt((4/3) * p1_hat * (1 - p1_hat)).

The default decision is two-sided, which detects departures in either
direction and is the calibration comparable with the symmetric chi-square
test in :mod:`crtest.jel`; a one-sided upper-tail variant is exposed for the
ordered alternative where only delta > 0 is of interest.

``ddk_test`` is the one entry for a sample: its result carries z, p1_hat
and delta_hat next to the decision.  ``zstat`` and ``_rejects`` serve the
Monte Carlo harness, which computes the pieces for a whole block at once.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import flag, level
from .data import Record, Sample
from .errors import DegenerateSample, SampleTooSmall
from .specialfn import normal_quantile, normal_sf
from .ustat import delta_hat


def zstat(d_hat, p1_hat, n: int):
    """Standardized statistic from precomputed pieces (see module note).

    ``d_hat`` and ``p1_hat`` are scalars or equal-length arrays (one entry per
    sample of size ``n``); an array call returns an array of z values.
    """
    p = np.asarray(p1_hat, dtype=np.float64)
    observed = (0.0 < p) & (p < 1.0)
    if not observed.all():
        raise DegenerateSample(
            f"both causes must be observed; cause-1 fraction is {float(p[~observed].flat[0])!r}"
        )
    d = np.asarray(d_hat, dtype=np.float64)
    z = 2.0 * math.sqrt(n) * d / np.sqrt((4.0 / 3.0) * p * (1.0 - p))
    return float(z) if z.ndim == 0 else z


def _rejects(z, alphas: tuple[float, ...], two_sided: bool) -> np.ndarray:
    """The decision rule at each level of ``alphas``, along a new last axis.

    Two-sided rejects when |z| > q(1 - alpha/2), one-sided when
    z > q(1 - alpha), q the standard normal quantile.  ``z`` is a scalar or
    an array of z values.
    """
    side = np.abs(z) if two_sided else np.asarray(z)
    return side[..., None] > [normal_quantile(1.0 - (al / 2.0 if two_sided else al)) for al in alphas]


class DdkTestResult(Record):
    """Outcome of the normal-calibrated concordance test."""

    z: float
    p_value: float
    reject: bool
    alpha: float
    two_sided: bool
    p1_hat: float
    delta_hat: float
    n: int

    def to_dict(self) -> dict:
        return dict(vars(self))


def ddk_test(sample: Sample, alpha: float = 0.05, two_sided: bool = True) -> DdkTestResult:
    """Run the concordance test at level ``alpha`` (two-sided by default).

    Raises :class:`DegenerateSample` when only one cause appears (the
    plug-in null variance is zero) and :class:`SampleTooSmall` for n < 2.
    """
    alpha, two_sided = level(alpha), flag(two_sided, "two_sided")
    n = sample.n
    if n < 2:
        raise SampleTooSmall(f"the z statistic needs n >= 2 observations, got {n}")
    p1_hat = sample.count_cause(1) / n
    d_hat = delta_hat(sample)
    z = zstat(d_hat, p1_hat, n)
    return DdkTestResult(
        z=z,
        p_value=2.0 * normal_sf(abs(z)) if two_sided else normal_sf(z),
        reject=bool(_rejects(z, (alpha,), two_sided)[0]),
        alpha=alpha,
        two_sided=two_sided,
        p1_hat=p1_hat,
        delta_hat=d_hat,
        n=n,
    )
