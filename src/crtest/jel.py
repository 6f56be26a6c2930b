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

The harness only asks which side of each chi-square quantile a statistic
falls on, so it passes those quantiles as thresholds and a row stops as
soon as that is settled.  With f(lam) = sum(log(1 + lam*d_i)), concave
with slope n*score and its maximum at the root, the statistic
T = 2*f(root) satisfies, at an iterate lam inside the bracket [lo, hi]
that holds the root, which starts as Owen's bound (2001, sec. 3.14),

    L = 2*f(lam) <= T <= L + 2*n*score(lam)*(hi - lam if score > 0 else lo - lam) = U.

A row is decided once no threshold q lies in [L - m, U + m], where the
margin m = 1e-9 * max(1, max q) absorbs the rounding of both bounds; it
then reports L, which is on the same side of every q as T.  Rows that are
not decided are solved to the tolerance as without thresholds, and with no
thresholds nothing changes.
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

_TOL = 1e-10
_MAX_ITER = 100
# a row is decided only with every threshold this far (relative to the
# largest, at least 1) outside its bounds, which absorbs their rounding
_MARGIN = 1e-9


class ElSolution(Record):
    """Solved weight profile for one hypothesized pseudo-value mean.

    ``lam`` is the Lagrange multiplier, ``weights`` the maximizing
    probabilities (each in (0, 1), summing to 1), ``log_ratio`` the profiled
    log empirical likelihood ratio (always <= 0).
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
    remaining rows are solved together, and each stops once its absolute
    score drops to the tolerance.  Raises :class:`NoConvergence` if a row is
    still open after the iteration cap.

    ``thresholds`` is for the Monte Carlo harness, which only asks which side
    of each one a statistic lies on.  A row whose bounds settle that before
    it converges stops there: its statistic is a lower bound on the solved
    one, on the same side of every threshold, and its iterations, lam and
    residual are those of the step that decided it.  Other rows are solved
    as without thresholds.
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
    # The score falls from +inf to -inf across (-1/max, -1/min), so the
    # root is unique.  Its weights 1/(n(1 + lam*d_i)) sum to 1, so none
    # exceeds 1, which brackets it by Owen's bound (Empirical
    # Likelihood, 2001, sec. 3.14).
    lo, hi = (1.0 / n - 1.0) / v_max, (1.0 / n - 1.0) / v_min
    # a threshold q keeps a row open while L <= q + m and q - m <= U
    qs = np.sort(np.asarray(thresholds, dtype=np.float64))
    margin = _MARGIN * max([1.0, *thresholds])
    q_up, q_down = qs + margin, qs - margin
    # the open rows: their index, pseudo-values, q = d/(1 + lam*d), score
    # mean(q), multiplier and L = 2*f(lam), which is 0 at lam = 0
    act, da, q, ga = rows, d, d, np.add.reduce(d, axis=1) / n
    la, fa = np.zeros(rows.size), np.zeros(rows.size)
    step = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            # the root lies on the side of la that the score's sign points to
            pos = ga > 0.0
            lo = np.where(pos, la, lo)
            hi = np.where(pos, hi, la)
            ag = np.abs(ga)
            left = ag > _TOL
            if q_up.size:
                # one end of the updated bracket is la, so U in the module
                # docstring is L + 2n*|ga|*(hi - lo)
                upper = fa + 2.0 * n * ag * (hi - lo)
                left &= q_up.searchsorted(fa) < q_down.searchsorted(upper, side="right")
            active = np.count_nonzero(left)
            if active < act.size:
                done = ~left
                idx = act[done]
                lam[idx], residual[idx], iterations[idx], stat[idx] = la[done], ag[done], step, fa[done]
                if not active:
                    break
                act, da, q, ga, fa = act[left], da[left], q[left], ga[left], fa[left]
                la, lo, hi = la[left], lo[left], hi[left]
            if step == _MAX_ITER:
                raise NoConvergence(
                    f"score residual {float(np.abs(ga).max()):.3e} after {step} iterations "
                    f"(tol {_TOL:g}) in {act.size} of {rows.size} rows"
                )
            step += 1
            # the score's slope is -mean(q*q); a NaN or infinite Newton step
            # fails the bracket test and falls back to bisection
            nxt = la + ga / (np.add.reduce(q * q, axis=1) / n)
            la = np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi))
            w = la[:, None] * da
            w += 1.0
            q = da / w
            ga = np.add.reduce(q, axis=1) / n
            if q_up.size:
                fa = 2.0 * np.add.reduce(np.log(w, out=w), axis=1)
    # a converged row's statistic is 2*sum(log(1 + lam*d)), which is >= 0;
    # where rounding leaves it at or below 0 the statistic is +0.0
    solved = residual[rows] <= _TOL
    s = rows[solved]
    t = 2.0 * np.add.reduce(np.log1p(lam[s, None] * d[solved]), axis=1)
    stat[s] = np.where(t > 0.0, t, 0.0)
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
    solve hits its iteration cap.  Pseudo-values other than a 1-d array of
    finite real numbers, or a ``delta0`` that is not a finite real number,
    raise ``ValueError``.
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
    weights.flags.writeable = False
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
