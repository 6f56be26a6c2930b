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
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        # numpy scalars pass the checks above; plain types keep records JSON-ready
        for name, kind in (("lam", float), ("p1", float), ("a", float), ("seed", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))


def rng_from_seed(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    """PCG64 generator keyed by ``seed`` and an optional spawn path.

    Distinct spawn keys give independent streams for the same seed, which is
    what keeps simulation replications schedule-independent.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier, frozen
# by numpy's stream-compatibility policy (NEP 19)
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(x: int) -> list[int]:
    """32-bit words of a nonnegative integer, least significant first, as
    ``SeedSequence`` splits its entropy."""
    x = int(x)
    if x < 0:
        raise ValueError(f"seed words must be nonnegative, got {x!r}")
    return [x >> s & _MASK32 for s in range(0, max(x.bit_length(), 1), 32)]


def _hashmix(value, const: int, mult: int):
    """One step of ``SeedSequence``'s hash; ``value`` is an int or a uint64 array."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def uniform_rows(seed: int, key: tuple[int, ...], rep_lo: int, rep_hi: int, width: int) -> np.ndarray:
    """Uniforms of replications ``rep_lo..rep_hi``, one row of ``width`` each.

    Row i equals ``rng_from_seed(seed, (*key, rep_lo + i)).random(width)``
    bit for bit.  The seed and ``key`` are hashed once; only the last
    entropy word, the replication index, is mixed in per row, as one uint64
    column.  Each row's PCG64 state then follows O'Neill's ``set_seed`` and
    is loaded into one reused generator.  A replication index of 2**32 or
    more would take two entropy words and is rejected.
    """
    if not 0 <= rep_lo <= rep_hi <= 1 << 32:
        raise ValueError(f"replications must lie in [0, 2**32), got {rep_lo}..{rep_hi}")
    run = _words(seed)
    # with a spawn key, SeedSequence pads the run entropy to its 4-word pool
    entropy = [*run, *[0] * (4 - len(run)), *(w for k in key for w in _words(k)),
               np.arange(rep_lo, rep_hi, dtype=np.uint64)]
    pool, const = [], _INIT_A
    for word in entropy[:4]:
        word, const = _hashmix(word, const, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for word in entropy[4:]:
        for dst in range(4):
            h, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    # generate_state(4, uint64): 8 words, paired little-endian into 64 bits
    state, const = [], _INIT_B
    for i in range(8):
        word, const = _hashmix(pool[i % 4], const, _MULT_B)
        state.append(word)
    seed64 = [(state[2 * k] | state[2 * k + 1] << 32).tolist() for k in range(4)]

    out = np.empty((rep_hi - rep_lo, width))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for row, s_hi, s_lo, q_hi, q_lo in zip(out, *seed64):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        pcg = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": pcg, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        gen.random(out=row)
    return out


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


def true_delta(params: FamilyParams) -> float:
    """Population value of delta for these parameters, by quadrature.

    In the variable x = F(t) the gap is the integral over [0, 1] of
    p1*(1 - x**a) - p1*a*x**(a-1)*(1 - x), which does not involve ``lam``.
    Substituting x = y**4 smooths the x**(a-1) cusp at 0, so a fixed
    32-point Gauss-Legendre rule in y is accurate to about 1e-13 over the
    whole family; the integrand, and so the result, is exactly 0 at a = 1
    and at p1 = 0.
    """
    nodes, weights = np.polynomial.legendre.leggauss(32)
    y = 0.5 * (nodes + 1.0)
    x = y**4
    p1, a = params.p1, params.a
    integrand = p1 * (1.0 - x**a) - p1 * a * x ** (a - 1.0) * (1.0 - x)
    value = 2.0 * np.dot(weights, integrand * y**3)  # dx = 4 y**3 dy, dy = dz / 2
    # the integrand is nonnegative everywhere for a >= 1, so a negative
    # result this small can only be quadrature round-off
    return max(0.0, float(value))
