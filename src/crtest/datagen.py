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

import functools
import math
import sys

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ._checks import integer, real
from .data import Record, Sample

GENERATOR = "numpy-pcg64"
SEED_SCHEME = "SeedSequence(entropy=seed, spawn_key=(a_index, n_index, replication))"
# the longest time at lam = 1: -log1p(-u) at the largest uniform, 1 - 2**-53
_LONGEST = 53.0 * math.log(2.0)


class FamilyParams(Record):
    """Family parameters; ``lam`` is the exponential baseline rate."""

    lam: float
    p1: float
    a: float
    seed: int = 0

    def __post_init__(self) -> None:
        lam = real(self.lam, "lam", 0.0, math.inf, "()")
        # a time is -log1p(-u) / lam for a uniform u in {0} or [2**-53, 1 - 2**-53],
        # so from 2**-53 / lam to 53 ln 2 / lam: both must be normal floats,
        # or times overflow to inf or lose their order as subnormals
        if not (math.isfinite(_LONGEST / lam) and 2.0**-53 / lam >= sys.float_info.min):
            raise ValueError(f"lam must lie in about [2.04e-307, 4.99e291], where every time "
                             f"is a finite normal float, got {self.lam!r}")
        # plain Python numbers keep records JSON-ready
        for name, value in (("lam", lam),
                            ("p1", real(self.p1, "p1", 0.0, 0.5)),
                            ("a", real(self.a, "a", 1.0, 2.0)),
                            ("seed", integer(self.seed, "seed"))):
            object.__setattr__(self, name, value)


def rng_from_seed(seed: int, spawn_key: tuple[int, ...] = ()) -> np.random.Generator:
    """PCG64 generator keyed by ``seed`` and an optional spawn path.

    Distinct spawn keys give independent streams for the same seed, which is
    what keeps simulation replications schedule-independent.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))


# numpy's SeedSequence hash constants, frozen by numpy's stream-compatibility
# policy (NEP 19)
_MASK32 = (1 << 32) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


class _Words(ISeedSequence):
    """A seed sequence whose one state is a row of ``uniform_rows``' words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly this; anything else would re-stream silently
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(f"seed words are 4 uint64, not {n_words} {dtype!r}")
        return self.words


def _word_count(x: int) -> int:
    """How many 32-bit entropy words ``SeedSequence`` splits a nonnegative
    integer into."""
    return max(1, -(-int(x).bit_length() // 32))


@functools.lru_cache(maxsize=64)
def _hash_constants(init: int, mult: int, steps: range) -> np.ndarray:
    """The constants ``init * mult**k`` for k in ``steps`` and one past it,
    as a read-only (len(steps) + 1, 1) uint64 column."""
    const = np.array([init * pow(mult, k, 1 << 32) & _MASK32
                      for k in range(steps.start, steps.stop + 1)], dtype=np.uint64)[:, None]
    const.flags.writeable = False
    return const


def _hash_rows(words: np.ndarray, init: int, mult: int, steps: range) -> np.ndarray:
    """``SeedSequence``'s hash of the uint64 array ``words``, its row i (or
    its one row, broadcast) taken as hash step ``steps[i]`` of the constant
    sequence ``init * mult**k``."""
    const = _hash_constants(init, mult, steps)
    value = (words ^ const[:-1]) * const[1:] & _MASK32
    return value ^ value >> 16


def uniform_rows(seed: int, key: tuple[int, ...], rep_lo: int, rep_hi: int, width: int) -> np.ndarray:
    """Uniforms of replications ``rep_lo..rep_hi``, one row of ``width`` each.

    Row i equals ``rng_from_seed(seed, (*key, rep_lo + i)).random(width)``
    bit for bit.  numpy hashes the seed and ``key`` once, in
    ``SeedSequence(seed, spawn_key=key).pool``; only the last entropy word,
    the replication index, is mixed into that pool here, as a (4, R) array,
    and the 8 words of every row's ``generate_state(4, uint64)`` are hashed
    as an (8, R) array.  Each row is then drawn by a fresh
    ``Generator(PCG64(...))`` seeded with its words, so PCG64's own
    constructor applies ``set_seed`` in C.  A replication index of 2**32 or
    more would take two entropy words and is rejected.
    """
    if not 0 <= rep_lo <= rep_hi <= 1 << 32:
        raise ValueError(f"replications must lie in [0, 2**32), got {rep_lo}..{rep_hi}")
    pool = np.random.SeedSequence(seed, spawn_key=key).pool.astype(np.uint64)[:, None]
    # numpy took 4 hash steps to fill the pool from the seed, padded to 4
    # words, and 12 to cross-mix it, then 4 per entropy word past the pool
    steps = 16 + 4 * (sum(map(_word_count, key)) + max(0, _word_count(seed) - 4))
    h = _hash_rows(np.arange(rep_lo, rep_hi, dtype=np.uint64)[None, :], _INIT_A, _MULT_A,
                   range(steps, steps + 4))
    pool = (_MIX_L * pool - _MIX_R * h) & _MASK32
    pool ^= pool >> 16
    # generate_state(4, uint64): 8 words, paired little-endian into 64 bits
    state = _hash_rows(np.concatenate((pool, pool)), _INIT_B, _MULT_B, range(8))
    words = (state[0::2] | state[1::2] << 32).T.copy()

    out = np.empty((rep_hi - rep_lo, width))
    PCG64, Generator = np.random.PCG64, np.random.Generator
    # PCG64 reads its seed words once, when it is built
    seq = _Words(None)
    for row, w in zip(out, words):
        seq.words = w
        Generator(PCG64(seq)).random(out=row)
    return out


def draw(params: FamilyParams, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Times and causes from uniforms ``u`` of shape (R, 2n), one row per sample.

    The first n uniforms of a row give its times by inverse transform, the
    last n its causes; returns two (R, n) arrays.
    """
    n = u.shape[-1] // 2
    ut, uc = u[..., :n], u[..., n:]
    # -log1p(-ut) / lam, exactly: negating either operand of a division
    # negates its rounded quotient
    times = np.negative(ut)
    np.log1p(times, out=times)
    times /= -params.lam
    # F(times) == ut exactly, so the cause draw can condition on ut directly
    p_cause1 = ut ** (params.a - 1.0)
    p_cause1 *= params.p1 * params.a
    causes = 2 - (uc < p_cause1)
    return times, causes


def sample(params: FamilyParams, n: int, rng: np.random.Generator | None = None) -> Sample:
    """Draw ``n`` observations; byte-for-byte reproducible from the seed.

    An explicit ``rng`` overrides the one derived from ``params.seed``.  One
    ``rng.random(2 * n)`` call feeds :func:`draw`, which is how the
    simulation harness draws each replication of a block.
    """
    n = integer(n, "n", 1)
    if rng is None:
        rng = rng_from_seed(params.seed)
    times, causes = draw(params, rng.random(2 * n)[None, :])
    return Sample.from_arrays(times[0], causes[0])


def true_delta(params: FamilyParams) -> float:
    """Population value of delta for these parameters, in closed form.

    In the variable x = F(t) the gap is the integral over [0, 1] of
    p1*(1 - x**a) - p1*a*x**(a-1)*(1 - x) = p1*(a - 1)/(a + 1), which does
    not involve ``lam`` and is exactly 0 at a = 1 and at p1 = 0.
    """
    return params.p1 * (params.a - 1.0) / (params.a + 1.0)
