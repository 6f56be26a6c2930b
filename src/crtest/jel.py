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

There is one solver, a safeguarded Newton iteration (Owen, Empirical
Likelihood, 2001, ch. 3) vectorised over the rows of an (R, n) stack of
pseudo-values: each row keeps its own bracket and stops on its own, so a row
solved in a stack gets exactly the result of solving it alone.  There is
also one classifier: ``jel_statistics`` alone decides whether a row is
degenerate (all zero), a hull violation (0 not strictly inside its range) or
solved.  It serves the Monte Carlo harness a whole block at a time;
``jel_statistic`` is its one-row case and ``solve_lambda`` that case at a
shifted mean, so the single-sample API and the harness run the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Sample
from .errors import HullViolation, NoConvergence, SampleTooSmall
from .specialfn import chisq1_quantile, chisq1_sf
from .ustat import jackknife

_TOL = 1e-10
_MAX_ITER = 100


@dataclass(frozen=True)
class ElSolution:
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


def _newton_rows(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the score equation for every row of ``d`` (R, n) at once.

    Each row must have min < 0 < max.  Returns per-row ``(lam, iterations,
    residual)``.  A row leaves the active set once its absolute score drops
    to the tolerance; every row follows exactly the steps a one-row call
    would take, so stacking never changes a result.  Raises
    :class:`NoConvergence` if any row is still active after the iteration
    cap.
    """
    r, n = d.shape
    # The score falls from +inf to -inf across (-1/dmax, -1/dmin), so the root
    # is unique.  Its weights 1/(n(1 + lam*d_i)) sum to 1, so none exceeds 1,
    # which brackets it by Owen's bound (Empirical Likelihood, 2001, sec. 3.14).
    lo = (1.0 / n - 1.0) / d.max(axis=1)
    hi = (1.0 / n - 1.0) / d.min(axis=1)
    lam = np.zeros(r)
    iterations = np.zeros(r, dtype=np.int64)
    residual = np.empty(r)
    # the active rows: their index, pseudo-values, q = d/(1 + lam*d), score
    # mean(q), multiplier and bracket
    rows, da, q, la = np.arange(r), d, d, np.zeros(r)
    ga = np.add.reduce(d, axis=1) / n
    step = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            left = np.abs(ga) > _TOL
            active = np.count_nonzero(left)
            if active < rows.size:
                done = ~left
                lam[rows[done]] = la[done]
                residual[rows[done]] = np.abs(ga[done])
                iterations[rows[done]] = step
                if not active:
                    return lam, iterations, residual
                rows, da, q, ga = rows[left], da[left], q[left], ga[left]
                la, lo, hi = la[left], lo[left], hi[left]
            if step == _MAX_ITER:
                raise NoConvergence(
                    f"score residual {float(np.abs(ga).max()):.3e} after {step} iterations "
                    f"(tol {_TOL:g}) in {rows.size} of {r} rows"
                )
            step += 1
            pos = ga > 0.0
            lo = np.where(pos, la, lo)
            hi = np.where(pos, hi, la)
            # the score's slope is -mean(q*q); a NaN or infinite Newton step
            # fails the bracket test and falls back to bisection
            nxt = la + ga / (np.add.reduce(q * q, axis=1) / n)
            la = np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi))
            q = da / (1.0 + la[:, None] * da)
            ga = np.add.reduce(q, axis=1) / n


def _log_ratio(ld: np.ndarray) -> np.ndarray:
    """Profiled log ratio (<= 0) from lam*d, over the last axis."""
    s = -np.add.reduce(np.log1p(ld), axis=-1)
    return np.where(s < 0.0, s, 0.0)


def jel_statistics(
    pseudo_values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`jel_statistic` over each row of an (R, n) pseudo-value stack.

    Returns ``(statistic, degenerate, iterations, lam, residual)``, each of
    length R.  This is the one place a row is classified: an all-zero row is
    degenerate, with statistic 0; a row without 0 strictly inside its
    (min, max) is a hull violation, with statistic +inf; both get lam 0,
    residual 0 and 0 iterations.  The remaining rows are solved together.
    """
    v = pseudo_values
    r = v.shape[0]
    degenerate = ~v.any(axis=1)
    stat = np.where(degenerate, 0.0, math.inf)
    iterations = np.zeros(r, dtype=np.int64)
    lam, residual = np.zeros(r), np.zeros(r)
    rows = np.flatnonzero((v.min(axis=1) < 0.0) & (v.max(axis=1) > 0.0))
    if rows.size:
        d = v[rows]
        lam[rows], iterations[rows], residual[rows] = _newton_rows(d)
        # 0.0 - x rather than -x, so a log ratio of 0 gives +0.0, not -0.0
        stat[rows] = 0.0 - 2.0 * _log_ratio(lam[rows, None] * d)
    return stat, degenerate, iterations, lam, residual


def jel_statistic(pseudo_values) -> tuple[float, bool, bool, ElSolution | None]:
    """-2 log ratio at the independence value delta0 = 0.

    Returns ``(statistic, hull_ok, degenerate, el)``: the one-row case of
    :func:`jel_statistics`, plus the solved weight profile.  Degenerate means
    every pseudo-value is exactly zero (e.g. a single observed cause): the
    constraint is trivially met, statistic 0, lam 0 and uniform weights.
    When 0 falls outside the pseudo-value hull the statistic is +inf —
    unbounded evidence against independence — and ``el`` is None.
    """
    v = np.asarray(pseudo_values, dtype=np.float64)
    n = v.size
    if n < 2:
        raise SampleTooSmall(f"empirical likelihood needs n >= 2 pseudo-values, got {n}")
    stat, degenerate, iterations, lam, residual = jel_statistics(v[None, :])
    if math.isinf(stat[0]):
        return math.inf, False, False, None
    ld = lam[0] * v
    weights = 1.0 / (n * (1.0 + ld))
    weights.flags.writeable = False
    el = ElSolution(
        lam=float(lam[0]),
        weights=weights,
        log_ratio=float(_log_ratio(ld)),
        iterations=int(iterations[0]),
        residual=float(residual[0]),
    )
    return float(stat[0]), True, bool(degenerate[0]), el


def solve_lambda(pseudo_values, delta0: float) -> ElSolution:
    """Solve the score equation at the hypothesized mean ``delta0``.

    Newton steps safeguarded by bisection on a maintained sign bracket;
    converged when the absolute score drops to 1e-10, capped at 100
    iterations.  This is :func:`jel_statistic` on ``pseudo_values - delta0``.

    Raises :class:`HullViolation` when ``delta0`` is not strictly inside
    (min V, max V) — the weight problem is infeasible there — and
    :class:`NoConvergence` if the cap is hit.  An all-equal pseudo-value
    vector with ``delta0`` equal to that value is the trivial feasible case:
    uniform weights, lam = 0, log-ratio 0.
    """
    v = np.asarray(pseudo_values, dtype=np.float64)
    el = jel_statistic(v - float(delta0))[3]
    if el is None:
        raise HullViolation(
            f"delta0={delta0!r} is outside the open hull "
            f"({float(v.min())!r}, {float(v.max())!r}) of the pseudo-values"
        )
    return el


@dataclass(frozen=True)
class JelTestResult:
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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    jk = jackknife(sample)
    stat, hull_ok, degenerate, el = jel_statistic(jk.pseudo_values)
    p_value = chisq1_sf(stat) if hull_ok else 0.0
    reject = stat > chisq1_quantile(1.0 - alpha)
    return JelTestResult(
        statistic=stat,
        p_value=p_value,
        reject=reject,
        alpha=alpha,
        delta_hat=jk.delta_hat,
        n=sample.n,
        hull_ok=hull_ok,
        degenerate=degenerate,
        el=el,
    )
