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

``row_scores`` and ``jackknife_rows`` also take (R, n) stacks of R samples
and score them row by row in one flat pass over the whole stack; the Monte
Carlo harness (:mod:`crtest.mc`) uses them on whole blocks of replications,
and the single-sample functions are their R = 1 case, so every caller shares
one pair-score routine with bit-identical results.  A subject's score
depends only on its tie group (the subjects of its row with an equal time)
and its own cause, so the order a sort leaves within a tie group cannot
change any result, and an unstable sort is as exact as a stable one.
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
    ties score 0 (the sort-based counting of Knight, 1966).  ``times`` and
    ``causes`` are (n,) arrays or (R, n) stacks of R samples scored row by
    row; a 1-D call is the R = 1 case.  Each row is sorted once and the stack
    is then handled as one flat array of tie groups, which never cross a row
    start.  Twice a score is an integer count of the partners before and
    after the subject's tie group, so it is the same for every order within
    that group: the sort need not be stable, and zero scores are +0.0.
    """
    t = np.atleast_2d(np.asarray(times, dtype=np.float64))
    r, n = t.shape
    m = r * n
    if m == 0:
        return np.empty(np.shape(times))
    order = np.argsort(t, axis=1)
    order += np.arange(0, m, n)[:, None]
    order = order.ravel()  # sorted position -> flat index, row by row
    ts = t.ravel()[order]
    # starts[k]: sorted position k opens a tie group; every row start does,
    # and k = m closes the last group
    starts = np.empty(m + 1, dtype=bool)
    np.not_equal(ts[1:], ts[:-1], out=starts[1:m])
    del ts
    starts[::n] = True
    bounds = np.flatnonzero(starts)  # each group is [bounds[j], bounds[j + 1])
    del starts
    is1 = np.reshape(causes, m)[order] == 1
    cum1 = np.zeros(m + 1, dtype=np.int64)  # cause-1 among the first k
    np.cumsum(is1, out=cum1[1:])
    sizes = np.diff(bounds)
    # per group: cum1 at its first + end position, and first + end itself
    edges1 = cum1[bounds]
    edges1[:-1] += edges1[1:]
    edges1 = np.repeat(edges1[:-1], sizes)
    bounds[:-1] += bounds[1:]
    edges = np.repeat(bounds[:-1], sizes)
    del bounds, sizes
    # 2 * score, with counts taken within the row [row0, row0 + n):
    #   cause 2: (cause-1 later) - (cause-1 earlier)
    #            = cum1[row0] + cum1[row0 + n] - cum1[first] - cum1[end]
    #   cause 1: (cause-2 earlier) - (cause-2 later)
    #            = the cause-2 expression + first + end - (2 row0 + n)
    rows1 = cum1[::n]
    score = np.repeat(rows1[:-1] + rows1[1:], n)
    del cum1, rows1
    score -= edges1
    del edges1
    edges -= np.repeat(np.arange(n, 2 * m, 2 * n), n)
    edges *= is1
    score += edges
    del edges, is1
    out = np.empty(m)
    out[order] = 0.5 * score
    return out.reshape(np.shape(times))


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


def jackknife_rows(times: np.ndarray, causes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``delta_hat`` (R,) and pseudo-values (R, n) of an (R, n) stack of samples.

    Dropping observation i removes exactly its row score from the pair
    total, so the n leave-one-out estimates come from one pass of rank
    counts (``row_scores``) instead of n re-evaluations.  Needs n >= 3.
    """
    n = times.shape[-1]
    row = row_scores(times, causes)
    # every row score is a multiple of 1/2, so these sums are exact
    total = row.sum(axis=-1, keepdims=True) / 2.0
    d_full = 2.0 * total / (n * (n - 1))
    loo = 2.0 * (total - row) / ((n - 1) * (n - 2))
    return d_full[..., 0], n * d_full - (n - 1) * loo


def jackknife(sample: Sample) -> JackknifeSet:
    """Leave-one-out pseudo-values of ``delta_hat`` in O(n log n) time, O(n) memory.

    The R = 1 case of :func:`jackknife_rows`.  Needs n >= 3 so the
    leave-one-out samples still contain a pair.
    """
    n = sample.n
    if n < 3:
        raise SampleTooSmall(f"jackknife needs n >= 3 observations, got {n}")
    d_full, pseudo = jackknife_rows(sample.times, sample.causes)
    pseudo.flags.writeable = False
    return JackknifeSet(delta_hat=float(d_full), pseudo_values=pseudo, n=n)
