"""Pairwise concordance between failure cause and failure time.

With two competing causes, independence of the failure time T and the failure
cause J can be probed through

    delta = P(T1 > T2, J1 = 1, J2 = 2) - P(T1 > T2, J1 = 2, J2 = 1)

for two independent copies (T1, J1), (T2, J2).  Under independence the two
orderings are equally likely and delta = 0; delta > 0 means cause 1 becomes
relatively more common at later failure times.  ``delta_hat`` is the
unbiased pair-average estimate of delta, and ``jackknife`` turns it into
leave-one-out pseudo-values for the empirical-likelihood test in
:mod:`crtest.jel`; both take O(n log n) time and O(n) memory, from the rank
counts of ``row_scores``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Observation, Sample
from .errors import SampleTooSmall


def kernel_raw(a: Observation, b: Observation) -> int:
    """Orientation score of the ordered pair (a, b).

    +1 when ``a`` outlives ``b`` with causes (1, 2); -1 when ``a`` outlives
    ``b`` with causes (2, 1); 0 otherwise.  Tied times score 0 in every
    branch: the failure-time law is treated as continuous, so ties carry no
    ordering information.
    """
    if a.time > b.time:
        if a.cause == 1 and b.cause == 2:
            return 1
        if a.cause == 2 and b.cause == 1:
            return -1
    return 0


def kernel_sym(a: Observation, b: Observation) -> float:
    """Symmetrized kernel: the two argument orders averaged.

    Takes values in {-0.5, 0.0, +0.5} and has expectation delta, which makes
    it a valid U-statistic kernel.
    """
    return 0.5 * (kernel_raw(a, b) + kernel_raw(b, a))


def row_scores(times: np.ndarray, causes: np.ndarray) -> np.ndarray:
    """Each subject's ``kernel_sym`` summed over all partners, from rank counts.

    A cause-1 subject scores 1/2 per cause-2 subject failing strictly earlier
    and -1/2 per one failing strictly later; cause 2 is the mirror image, and
    ties score 0 (the sort-based counting of Knight, 1966).
    """
    is1 = causes == 1
    out = np.empty(times.size, dtype=np.float64)
    for mine, sign in ((is1, 1), (~is1, -1)):
        other = np.sort(times[~mine])
        t = times[mine]
        # (strictly earlier) - (strictly later) partners of the other cause
        net = np.searchsorted(other, t, "left") + np.searchsorted(other, t, "right") - other.size
        out[mine] = 0.5 * (sign * net)  # signed as integers, so zero scores stay +0.0
    return out


def delta_hat(sample: Sample) -> float:
    """Pair-average estimate of delta; needs at least two observations.

    Every addend is a multiple of 1/2, so the accumulation below is exact for
    any realistic n; the row-then-total order is fixed for reproducibility.
    """
    n = sample.n
    if n < 2:
        raise SampleTooSmall(f"delta_hat needs n >= 2 observations, got {n}")
    total = float(row_scores(sample.times, sample.causes).sum()) / 2.0
    return 2.0 * total / (n * (n - 1))


@dataclass(frozen=True)
class JackknifeSet:
    """The pair-average estimate plus its n leave-one-out pseudo-values.

    The pseudo-values satisfy mean(pseudo_values) == delta_hat up to float
    accumulation, and their empirical distribution drives the
    empirical-likelihood calibration.
    """

    delta_hat: float
    pseudo_values: np.ndarray
    n: int


def jackknife(sample: Sample) -> JackknifeSet:
    """Leave-one-out pseudo-values of ``delta_hat`` in O(n log n) time, O(n) memory.

    Dropping observation i removes exactly its row score from the pair
    total, so the n leave-one-out estimates come from one pass of rank
    counts (``row_scores``) instead of n re-evaluations.  Needs n >= 3 so
    the leave-one-out samples still contain a pair.
    """
    n = sample.n
    if n < 3:
        raise SampleTooSmall(f"jackknife needs n >= 3 observations, got {n}")
    row = row_scores(sample.times, sample.causes)
    total = float(row.sum()) / 2.0
    d_full = 2.0 * total / (n * (n - 1))
    loo = 2.0 * (total - row) / ((n - 1) * (n - 2))
    pseudo = n * d_full - (n - 1) * loo
    pseudo.flags.writeable = False
    return JackknifeSet(delta_hat=d_full, pseudo_values=pseudo, n=n)
