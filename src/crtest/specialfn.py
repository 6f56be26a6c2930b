"""Normal and one-degree-of-freedom chi-square distribution functions.

Built directly on libm's erf/erfc, which are accurate to a few ulps — far
inside the 1e-12 absolute error this package needs.  The chi-square pieces
use the df=1 identity P(X <= x) = erf(sqrt(x/2)); no incomplete-gamma code.
The normal quantile inverts the CDF by plain bisection (monotone and
bounded), cached per probability because every harness task asks again for
the same few levels; the chi-square(1) quantile is the square of a normal
quantile.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_sf(x: float) -> float:
    """Standard normal upper tail probability, accurate far into the tail."""
    return 0.5 * math.erfc(x / _SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse of ``normal_cdf`` on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_quantile needs 0 < p < 1, got {p!r}")
    return _bisect_normal_cdf(float(p))


@lru_cache(maxsize=64)
def _bisect_normal_cdf(p: float) -> float:
    lo, hi = -40.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chisq1_cdf(x: float) -> float:
    """CDF of the chi-square law with one degree of freedom."""
    if x < 0.0:
        raise DomainError(f"chisq1_cdf needs x >= 0, got {x!r}")
    return math.erf(math.sqrt(0.5 * x))


def chisq1_sf(x: float) -> float:
    """Survival function of chi-square(1); erfc keeps tiny tails exact."""
    if x < 0.0:
        raise DomainError(f"chisq1_sf needs x >= 0, got {x!r}")
    return math.erfc(math.sqrt(0.5 * x))


def chisq1_quantile(p: float) -> float:
    """Inverse of ``chisq1_cdf`` on (0, 1), from chi-square(1) = Z**2."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"chisq1_quantile needs 0 < p < 1, got {p!r}")
    return normal_quantile(0.5 + 0.5 * p) ** 2
