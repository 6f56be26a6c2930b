"""Sampler for a two-cause family with tunable cause/time dependence.

The family of Dewan & Kulathinal (2007) specifies the cause-wise
sub-distribution functions

    F1(t) = p1 * F(t)**a,        F2(t) = F(t) - F1(t),

over an exponential baseline F(t) = 1 - exp(-lam * t).  The constraints
0 <= p1 <= 0.5 and 1 <= a <= 2 keep both cause-specific densities
nonnegative.  ``a = 1`` makes cause and time exactly independent (the null
of the tests in this package); ``a > 1`` pushes cause 1 toward later
failure times, with the gap Delta = integral(S1*f2 - S2*f1) growing in
both ``a`` and ``p1``.

Sampling uses the exact two-stage factorization: draw T by inverse
transform (so F(T) equals the underlying uniform exactly), then draw
J = 1 with conditional probability f1(T)/f(T) = p1 * a * F(T)**(a - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Sample
from .errors import IntegrationFailure

GENERATOR = "numpy-pcg64"
SEED_SCHEME = "SeedSequence(entropy=seed, spawn_key=(a_index, n_index, replication))"


@dataclass(frozen=True)
class FamilyParams:
    """Family parameters; ``lam`` is the exponential baseline rate."""

    lam: float
    p1: float
    a: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam!r}")
        if not 0.0 <= self.p1 <= 0.5:
            raise ValueError(f"p1 must be in [0, 0.5], got {self.p1!r}")
        if not 1.0 <= self.a <= 2.0:
            raise ValueError(f"a must be in [1, 2], got {self.a!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


def rng_from_seed(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    """PCG64 generator keyed by ``seed`` and an optional spawn path.

    Distinct spawn keys give independent streams for the same seed, which is
    what keeps simulation replications schedule-independent.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))


def baseline_cdf(params: FamilyParams, t):
    return -np.expm1(-params.lam * np.asarray(t, dtype=np.float64))


def sub_distribution_cause1(params: FamilyParams, t):
    """F1(t) = p1 * F(t)**a."""
    return params.p1 * baseline_cdf(params, t) ** params.a


def cause1_probability(params: FamilyParams, t):
    """P(J = 1 | T = t) = p1 * a * F(t)**(a - 1); in [0, 1] because p1*a <= 1."""
    return params.p1 * params.a * baseline_cdf(params, t) ** (params.a - 1.0)


def draw(params: FamilyParams, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Times and causes from uniforms ``u`` of shape (R, 2n), one row per sample.

    The first n uniforms of a row give its times by inverse transform, the
    last n its causes; returns two (R, n) arrays.
    """
    n = u.shape[-1] // 2
    ut, uc = u[..., :n], u[..., n:]
    times = -np.log1p(-ut) / params.lam
    # F(times) == ut exactly, so the cause draw can condition on ut directly
    p_cause1 = params.p1 * params.a * ut ** (params.a - 1.0)
    causes = np.where(uc < p_cause1, 1, 2)
    return times, causes


def sample(params: FamilyParams, n: int, rng: np.random.Generator | None = None) -> Sample:
    """Draw ``n`` observations; byte-for-byte reproducible from the seed.

    An explicit ``rng`` overrides the one derived from ``params.seed``.  One
    ``rng.random(2 * n)`` call feeds :func:`draw`, which is how the
    simulation harness draws each replication of a block.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if rng is None:
        rng = rng_from_seed(params.seed)
    times, causes = draw(params, rng.random(2 * n)[None, :])
    return Sample.from_arrays(times[0], causes[0])


def true_delta(params: FamilyParams, tol: float = 1e-8) -> float:
    """Population value of delta for these parameters, by quadrature.

    Integrates S1*f2 - S2*f1 over [0, t_max] with t_max chosen so the
    truncated tail is below 1e-12 of survival mass.  Raises
    :class:`IntegrationFailure` if the estimated absolute error exceeds
    ``tol``.
    """
    from scipy import integrate  # deferred: importing the package skips scipy
    lam, p1, a = params.lam, params.p1, params.a
    if p1 == 0.0:
        return 0.0

    def integrand(t: float) -> float:
        big_f = -math.expm1(-lam * t)
        f = lam * math.exp(-lam * t)
        # 0.0 ** 0.0 == 1.0, so the a == 1 endpoint needs no special case
        f1 = p1 * a * big_f ** (a - 1.0) * f
        f2 = f - f1
        s1 = p1 * (1.0 - big_f**a)
        s2 = (1.0 - big_f) - s1
        return s1 * f2 - s2 * f1

    t_max = -math.log(1e-12) / lam
    value, abserr = integrate.quad(integrand, 0.0, t_max, epsabs=tol * 1e-2, epsrel=1e-10, limit=200)
    if abserr > tol:
        raise IntegrationFailure(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance {tol:g}"
        )
    # the integrand is nonnegative everywhere for a >= 1, so a negative
    # result this small can only be quadrature round-off
    return max(0.0, float(value))
