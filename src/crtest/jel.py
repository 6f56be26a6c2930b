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


def solve_lambda(pseudo_values, delta0: float) -> ElSolution:
    """Solve the score equation at the hypothesized mean ``delta0``.

    Newton steps safeguarded by bisection on a maintained sign bracket;
    converged when the absolute score drops to 1e-10, capped at 100
    iterations.

    Raises :class:`HullViolation` when ``delta0`` is not strictly inside
    (min V, max V) — the weight problem is infeasible there — and
    :class:`NoConvergence` if the cap is hit.  An all-equal pseudo-value
    vector with ``delta0`` equal to that value is the trivial feasible case:
    uniform weights, lam = 0, log-ratio 0.
    """
    v = np.asarray(pseudo_values, dtype=np.float64)
    n = v.size
    if n < 2:
        raise SampleTooSmall(f"empirical likelihood needs n >= 2 pseudo-values, got {n}")
    d = v - float(delta0)
    if np.all(d == 0.0):
        w = np.full(n, 1.0 / n)
        w.flags.writeable = False
        return ElSolution(lam=0.0, weights=w, log_ratio=0.0, iterations=0, residual=0.0)
    dmin = float(d.min())
    dmax = float(d.max())
    if not (dmin < 0.0 < dmax):
        raise HullViolation(
            f"delta0={delta0!r} is outside the open hull "
            f"({float(v.min())!r}, {float(v.max())!r}) of the pseudo-values"
        )
    # The score falls from +inf to -inf across (-1/dmax, -1/dmin), so the root
    # is unique.  Its weights 1/(n(1 + lam*d_i)) sum to 1, so none exceeds 1,
    # which brackets it by Owen's bound (Empirical Likelihood, 2001, sec. 3.14).
    lo = (1.0 / n - 1.0) / dmax
    hi = (1.0 / n - 1.0) / dmin
    lam = 0.0
    q = d
    g = float(np.mean(q))
    iterations = 0
    while abs(g) > _TOL and iterations < _MAX_ITER:
        iterations += 1
        if g > 0.0:
            lo = lam
        else:
            hi = lam
        # the score's slope is -mean(q*q)
        nxt = lam + g / float(np.mean(q * q))
        if not (lo < nxt < hi) or not math.isfinite(nxt):
            nxt = 0.5 * (lo + hi)
        lam = nxt
        q = d / (1.0 + lam * d)
        g = float(np.mean(q))
    if abs(g) > _TOL:
        raise NoConvergence(
            f"score residual {abs(g):.3e} after {iterations} iterations (tol {_TOL:g})"
        )
    ld = lam * d
    weights = 1.0 / (n * (1.0 + ld))
    weights.flags.writeable = False
    log_ratio = min(0.0, -float(np.sum(np.log1p(ld))))
    return ElSolution(
        lam=lam,
        weights=weights,
        log_ratio=log_ratio,
        iterations=iterations,
        residual=abs(g),
    )


def jel_statistic(pseudo_values) -> tuple[float, bool, bool, ElSolution | None]:
    """-2 log ratio at the independence value delta0 = 0.

    Returns ``(statistic, hull_ok, degenerate, el)``.  Degenerate means every
    pseudo-value is exactly zero (e.g. a single observed cause): the
    constraint is trivially met, statistic 0.  When 0 falls outside the
    pseudo-value hull the statistic is +inf — unbounded evidence against
    independence — and ``el`` is None.
    """
    v = np.asarray(pseudo_values, dtype=np.float64)
    if v.size and np.all(v == 0.0):
        return 0.0, True, True, solve_lambda(v, 0.0)
    try:
        el = solve_lambda(v, 0.0)
    except HullViolation:
        return math.inf, False, False, None
    return -2.0 * el.log_ratio, True, False, el


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
        stat = self.statistic
        return {
            "statistic": "inf" if math.isinf(stat) else stat,
            "p_value": self.p_value,
            "reject": self.reject,
            "alpha": self.alpha,
            "delta_hat": self.delta_hat,
            "n": self.n,
            "hull_ok": self.hull_ok,
            "degenerate": self.degenerate,
            "el": None
            if self.el is None
            else {
                "lam": self.el.lam,
                "log_ratio": self.el.log_ratio,
                "iterations": self.el.iterations,
                "residual": self.el.residual,
            },
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
