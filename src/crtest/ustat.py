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
change any result, and an unstable sort is as exact as a stable one.  A
stack without a tied time skips the tie-group pass: every group is then one
subject, scored straight from the cause-1 counts around its sorted
position, with the same integers and so the same bits.
"""

from __future__ import annotations

import numpy as np

from .data import Record, Sample
from .errors import SampleTooSmall


def row_scores(times: np.ndarray, causes: np.ndarray) -> np.ndarray:
    """Each subject's symmetric pair-kernel score summed over all partners.

    The paper's U-statistic kernel scores an ordered pair +1 when the first
    subject outlives the second with causes (1, 2), -1 with causes (2, 1)
    and 0 otherwise, and averages the two orders of each pair.  Summed over
    partners, a cause-1 subject so scores 1/2 per cause-2 subject failing
    strictly earlier and -1/2 per one failing strictly later; cause 2 is the
    mirror image, and ties score 0.  The sums come from rank counts (the
    sort-based counting of Knight, 1966), not from the n**2 pairs.

    ``times`` and ``causes`` are (n,) arrays or (R, n) stacks of R samples
    scored row by row; a 1-D call is the R = 1 case.  Each row is sorted
    once and the stack is then handled as one flat array of tie groups,
    which never cross a row start.  Twice a score is an integer count of the
    partners before and after the subject's tie group, so it is the same for
    every order within that group: the sort need not be stable, and zero
    scores are +0.0.
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
    is1 = np.reshape(causes, m)[order] == 1
    cum1 = np.zeros(m + 1, dtype=np.int64)  # cause-1 among the first k
    np.cumsum(is1, out=cum1[1:])
    # 2 * score of a subject in the tie group [first, end) of the row
    # [row0, row0 + n), with counts taken within the row:
    #   cause 2: (cause-1 later) - (cause-1 earlier)
    #            = cum1[row0] + cum1[row0 + n] - cum1[first] - cum1[end]
    #   cause 1: (cause-2 earlier) - (cause-2 later)
    #            = the cause-2 expression + first + end - (2 row0 + n)
    rows1 = cum1[::n]
    score = np.repeat(rows1[:-1] + rows1[1:], n)
    del rows1
    if starts.all():
        # no tied time: every group is one subject k, so first = k, end = k + 1
        # and first + end - (2 row0 + n) = 2j + 1 - n at row position j
        del starts
        score -= cum1[:-1]
        score -= cum1[1:]
        del cum1
        edges = is1.reshape(r, n) * np.arange(1 - n, n, 2)
    else:
        bounds = np.flatnonzero(starts)  # each group is [bounds[j], bounds[j + 1])
        del starts
        sizes = np.diff(bounds)
        # per group: cum1 at its first + end position, and first + end itself
        edges1 = cum1[bounds]
        del cum1
        edges1[:-1] += edges1[1:]
        score -= np.repeat(edges1[:-1], sizes)
        del edges1
        bounds[:-1] += bounds[1:]
        edges = np.repeat(bounds[:-1], sizes)
        del bounds, sizes
        edges -= np.repeat(np.arange(n, 2 * m, 2 * n), n)
        edges *= is1
    del is1
    score += edges.reshape(m)
    del edges
    out = np.empty(m)
    out[order] = 0.5 * score
    return out.reshape(np.shape(times))


def delta_hat(sample: Sample) -> float:
    """Pair-average estimate of delta; needs at least two observations.

    It is sum(row) / (n(n - 1)) in one rounding: every row score is a
    multiple of 1/2, so the sum is exact for n below about 9e7.
    """
    n = sample.n
    if n < 2:
        raise SampleTooSmall(f"delta_hat needs n >= 2 observations, got {n}")
    return float(row_scores(sample.times, sample.causes).sum()) / (n * (n - 1))


class JackknifeSet(Record):
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

    Pseudo-value i is (2(n - 1)*row_i - sum(row)) / ((n - 1)(n - 2)), and
    ``delta_hat`` is sum(row) / (n(n - 1)).  Row scores are multiples of
    1/2, so for n below about 5e7 each numerator and denominator is exact
    and each result is the exact quotient rounded once: its sign is exact,
    and a zero is +0.0.
    """
    n = times.shape[-1]
    row = row_scores(times, causes)
    sums = row.sum(axis=-1, keepdims=True)
    pseudo = (2 * (n - 1) * row - sums) / ((n - 1) * (n - 2))
    return sums[..., 0] / (n * (n - 1)), pseudo


def jackknife(sample: Sample) -> JackknifeSet:
    """Leave-one-out pseudo-values of ``delta_hat`` in O(n log n) time, O(n) memory.

    The R = 1 case of :func:`jackknife_rows`.  Needs n >= 3 so the
    leave-one-out samples still contain a pair.
    """
    n = sample.n
    if n < 3:
        raise SampleTooSmall(f"jackknife needs n >= 3 observations, got {n}")
    d_full, pseudo = jackknife_rows(sample.times, sample.causes)
    return JackknifeSet(delta_hat=float(d_full), pseudo_values=pseudo, n=n)
