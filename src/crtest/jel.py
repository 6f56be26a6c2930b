"""Jackknife empirical likelihood ratio test for cause/time independence.

The leave-one-out pseudo-values V_1..V_n of the pair-average estimate (see
:mod:`crtest.ustat`) behave enough like an i.i.d. sample with mean delta that
an empirical likelihood can be profiled over them: maximize prod(n * p_i)
subject to p_i > 0, sum(p_i) = 1, sum(p_i * (V_i - delta0)) = 0.  The score
equation for the Lagrange multiplier is

    mean( (V_i - delta0) / (1 + lam * (V_i - delta0)) ) = 0,

strictly decreasing in lam on the interval where every weight stays
positive.  At delta0 = 0, minus twice the profiled log-ratio converges to a
chi-square law with one degree of freedom (the jackknife empirical
likelihood route of Jing, Yuan & Zhou, 2009), which is what calibrates the
independence test: reject when the statistic exceeds the upper chi-square
quantile.

One function, ``jel_statistics``, classifies and solves an (R, n) stack of
pseudo-values.  It decides whether a row is degenerate (all zero), a hull
violation (0 not strictly inside its range) or solvable, and solves the
solvable rows by one safeguarded Newton iteration (Owen, Empirical
Likelihood, 2001, ch. 3) vectorised over them: each row keeps its own
bracket and stops on its own, so a row solved in a stack gets exactly the
result of solving it alone.  It serves the Monte Carlo harness a whole
block at a time; ``jel_statistic`` is its one-row case at any hypothesised
mean delta0, so the single-sample API and the harness run the same code.

Each row stops on bounds for its statistic.  With f(lam) =
sum(log(1 + lam*d_i)), concave with slope n*score and its maximum at the
root, the statistic T = 2*f(root) satisfies, at an iterate lam inside the
bracket [lo, hi] that holds the root, which starts as Owen's bound (2001,
sec. 3.14),

    L = 2*f(lam) <= T <= L + 2*n*score(lam)*(hi - lam if score > 0 else lo - lam) = U.

A row stops once the duality gap U - L is at most eps * max(1, L), with
eps = 1e-13, a rule that, like T, does not change when the pseudo-values
are scaled.  The harness only asks which side of each chi-square quantile
a statistic falls on, so it passes those quantiles as thresholds, and a row
also stops once no threshold q lies in [L - m, U + m], where the margin
m = 1e-9 * max(1, max q) absorbs the rounding of both bounds: L is then on
the same side of every q as T.  Either way the row reports L, computed as
2*sum(log1p(lam*d_i)) so that a small statistic keeps its digits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ._checks import level, real, reals
from .data import Record, Sample
from .errors import NoConvergence, SampleTooSmall
from .specialfn import chisq1_quantile, chisq1_sf
from .ustat import jackknife

# a row is solved once its duality gap U - L is at most this * max(1, L)
_EPS = 1e-13
_MAX_ITER = 100
# a row is decided only with every threshold this far (relative to the
# largest, at least 1) outside its bounds, which absorbs their rounding
_MARGIN = 1e-9


class ElSolution(Record):
    """Solved weight profile for one hypothesized pseudo-value mean.

    ``lam`` is the Lagrange multiplier, ``weights`` the maximizing
    probabilities (each in (0, 1), summing to 1), ``log_ratio`` the profiled
    log empirical likelihood ratio (always <= 0), ``iterations`` the steps
    the solve took and ``residual`` the absolute mean score at ``lam``.
    """

    lam: float
    weights: np.ndarray
    log_ratio: float
    iterations: int
    residual: float


def jel_statistics(
    pseudo_values: np.ndarray, thresholds: Sequence[float] = ()
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`jel_statistic` over each row of an (R, n) pseudo-value stack.

    Returns ``(statistic, degenerate, iterations, lam, residual)``, each of
    length R.  An all-zero row is degenerate, with statistic 0; a row
    without 0 strictly inside its (min, max) is a hull violation, with
    statistic +inf; both get lam 0, residual 0 and 0 iterations.  The
    remaining rows are solved together, and each stops once its duality gap
    is at most 1e-13 * max(1, L) and reports its lower bound L (module
    docstring).  Raises :class:`NoConvergence` if a row is still open after
    the iteration cap or its statistic overflows.

    ``thresholds`` is for the Monte Carlo harness, which only asks which side
    of each one a statistic lies on.  A row whose bounds settle that before
    its gap closes stops there, with L on the same side of every threshold
    as the solved statistic.
    """
    v = pseudo_values
    r, n = v.shape
    v_min, v_max = v.min(axis=1), v.max(axis=1)
    degenerate = (v_min == 0.0) & (v_max == 0.0)
    stat = np.where(degenerate, 0.0, math.inf)
    iterations = np.zeros(r, dtype=np.int64)
    lam, residual = np.zeros(r), np.zeros(r)
    rows = np.flatnonzero((v_min < 0.0) & (v_max > 0.0))
    if not rows.size:
        return stat, degenerate, iterations, lam, residual
    d = v
    if rows.size < r:
        d, v_min, v_max = v[rows], v_min[rows], v_max[rows]
    # a threshold q keeps a row open while L <= q + m and q - m <= U
    qs = np.sort(np.asarray(thresholds, dtype=np.float64))
    margin = _MARGIN * max([1.0, *thresholds])
    q_up, q_down = qs + margin, qs - margin
    # the open rows: their index, pseudo-values, q = d/(1 + lam*d), score
    # mean(q), multiplier and L = 2*f(lam), which is 0 at lam = 0
    act, da, q, ga = rows, d, d, np.add.reduce(d, axis=1) / n
    la, fa = np.zeros(rows.size), np.zeros(rows.size)
    step = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # The score falls from +inf to -inf across (-1/max, -1/min), so the
        # root is unique.  Its weights 1/(n(1 + lam*d_i)) sum to 1, so none
        # exceeds 1, which brackets it by Owen's bound (Empirical Likelihood,
        # 2001, sec. 3.14); subnormal values overflow it to a non-finite T.
        lo, hi = (1.0 / n - 1.0) / v_max, (1.0 / n - 1.0) / v_min
        while True:
            # the root lies on the side of la that the score's sign points to
            pos = ga > 0.0
            lo = np.where(pos, la, lo)
            hi = np.where(pos, hi, la)
            # one end of the updated bracket is la, so U - L in the module
            # docstring is 2n*|ga|*(hi - lo); a NaN gap stops the row too
            ag = np.abs(ga)
            gap = 2.0 * n * ag * (hi - lo)
            left = gap > _EPS * np.maximum(1.0, fa)
            if q_up.size:
                left &= q_up.searchsorted(fa) < q_down.searchsorted(fa + gap, side="right")
            active = np.count_nonzero(left)
            if active < act.size:
                done = ~left
                idx = act[done]
                lam[idx], residual[idx], iterations[idx], stat[idx] = la[done], ag[done], step, fa[done]
                if not active:
                    break
                act, da, q, ga, fa = act[left], da[left], q[left], ga[left], fa[left]
                la, lo, hi, gap = la[left], lo[left], hi[left], gap[left]
            if step == _MAX_ITER:
                raise NoConvergence(
                    f"relative duality gap {float((gap / np.maximum(1.0, fa)).max()):.3e} "
                    f"after {step} iterations (eps {_EPS:g}) in {act.size} of {rows.size} rows"
                )
            step += 1
            # the score's slope is -mean(q*q); a NaN or infinite Newton step
            # fails the bracket test and falls back to bisection
            nxt = la + ga / (np.add.reduce(q * q, axis=1) / n)
            la = np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi))
            w = la[:, None] * da
            fa = 2.0 * np.add.reduce(np.log1p(w), axis=1)
            w += 1.0
            q = da / w
            ga = np.add.reduce(q, axis=1) / n
    # T >= 0; where rounding leaves L at or below 0 the statistic is +0.0
    t = stat[rows]
    stat[rows] = np.where(t <= 0.0, 0.0, t)
    # an overflowing lam*d must not leave an inf or NaN to pass as a result
    if not np.isfinite(t).all():
        raise NoConvergence("the solve overflowed to a non-finite statistic")
    return stat, degenerate, iterations, lam, residual


def jel_statistic(pseudo_values, delta0: float = 0.0) -> tuple[float, bool, bool, ElSolution | None]:
    """-2 log ratio at the hypothesised mean ``delta0``, by default the
    independence value 0.

    Returns ``(statistic, hull_ok, degenerate, el)``: the one-row case of
    :func:`jel_statistics` on ``pseudo_values - delta0``, plus the solved
    weight profile.  Degenerate means every pseudo-value equals ``delta0``
    (e.g. a single observed cause at delta0 = 0): the constraint is
    trivially met, statistic 0, lam 0 and uniform weights.  When ``delta0``
    is not strictly inside the pseudo-value hull the weight problem is
    infeasible: the statistic is +inf — unbounded evidence against the
    hypothesis — and ``el`` is None.  Raises :class:`NoConvergence` if the
    solve hits its iteration cap or overflows, as at pseudo-values
    (-1e-300, 1e300, 1).  Pseudo-values other than a 1-d array of finite
    real numbers, or a ``delta0`` that is not a finite real number, raise
    ``ValueError``.
    """
    v = reals(pseudo_values, "pseudo-values")
    delta0 = real(delta0, "delta0", -math.inf, math.inf, "()", what="finite and real")
    n = v.size
    if n < 2:
        raise SampleTooSmall(f"empirical likelihood needs n >= 2 pseudo-values, got {n}")
    d = v - delta0
    # a NaN fails both hull comparisons and would read as a hull violation;
    # this also refuses finite values whose difference overflows
    if not np.isfinite(d).all():
        raise ValueError("pseudo-values must be finite")
    stat, degenerate, iterations, lam, residual = jel_statistics(d[None, :])
    if math.isinf(stat[0]):
        return math.inf, False, False, None
    weights = 1.0 / (n * (1.0 + lam[0] * d))
    el = ElSolution(
        lam=float(lam[0]),
        weights=weights,
        # 0.0 - x rather than -x, so a statistic of 0 gives +0.0, not -0.0
        log_ratio=0.0 - 0.5 * float(stat[0]),
        iterations=int(iterations[0]),
        residual=float(residual[0]),
    )
    return float(stat[0]), True, bool(degenerate[0]), el


class JelTestResult(Record):
    """Outcome of the empirical-likelihood independence test."""

    statistic: float
    p_value: float
    reject: bool
    alpha: float
    delta_hat: float
    n: int
    hull_ok: bool
    degenerate: bool
    el: ElSolution | None

    def to_dict(self) -> dict:
        stat, el = self.statistic, self.el
        return {
            **vars(self),
            "statistic": "inf" if math.isinf(stat) else stat,
            "el": None if el is None else {k: v for k, v in vars(el).items() if k != "weights"},
        }


def jel_test(sample: Sample, alpha: float = 0.05) -> JelTestResult:
    """Run the independence test at level ``alpha`` (default 0.05).

    Needs n >= 3.  The p-value is the chi-square(1) upper tail of the
    statistic; a hull violation yields statistic +inf, p-value 0, reject.
    """
    alpha = level(alpha)
    jk = jackknife(sample)
    stat, hull_ok, degenerate, el = jel_statistic(jk.pseudo_values)
    reject = stat > chisq1_quantile(1.0 - alpha)
    return JelTestResult(
        statistic=stat,
        p_value=chisq1_sf(stat),
        reject=reject,
        alpha=alpha,
        delta_hat=jk.delta_hat,
        n=sample.n,
        hull_ok=hull_ok,
        degenerate=degenerate,
        el=el,
    )
