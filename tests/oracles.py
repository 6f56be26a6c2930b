"""Independent reference implementations and frozen expected values.

Everything here was derived or written before the package internals and is
deliberately naive: per-subsample recomputation instead of incremental
updates, scalar loops instead of array broadcasting.  Tests compare the
package against these, never the other way around.
"""

import math

import numpy as np

# --- frozen closed forms -------------------------------------------------
#
# Profile equation at pseudo-values (-1, 1, 1), hypothesized mean 0:
#   (1/3) * [ -1/(1 - L) + 2/(1 + L) ] = 0  =>  2(1 - L) = (1 + L)  =>  L = 1/3
# log-ratio at the solution: -[log(2/3) + 2 log(4/3)], so the statistic is
#   -2l = 2 * (5 log 2 - 3 log 3)
CLOSED_FORM_LAMBDA = 1.0 / 3.0
CLOSED_FORM_STAT = 2.0 * (5.0 * math.log(2.0) - 3.0 * math.log(3.0))
CLOSED_FORM_WEIGHTS = (0.5, 0.25, 0.25)

# Two observations, later time with cause 1: the single pair is concordant,
# so the pair average is +1/2; the doubled, studentized statistic is
#   z = 2 * sqrt(2) * 0.5 / sqrt((4/3) * 0.5 * 0.5) = sqrt(6)
PAIR_EXAMPLE_Z = math.sqrt(6.0)

# chi-square(1) upper quantiles, independently tabulated
CHISQ1_Q95 = 3.841459
CHISQ1_Q99 = 6.634897


def closed_form_delta(p1: float, a: float) -> float:
    """Population concordance gap for the sampler family.

    Substituting x = F(t) turns integral(S1*f2 - S2*f1 dt) into
    integral_0^1 [ p1*(1 - x^a) - p1*a*x^(a-1)*(1 - x) ] dx
      = p1 * [ a/(a+1) - 1/(a+1) ] = p1 * (a - 1) / (a + 1),
    independent of the baseline rate.
    """
    return p1 * (a - 1.0) / (a + 1.0)


# --- naive pairwise statistics -------------------------------------------

def naive_delta_hat(times, causes) -> float:
    """Average the symmetrized pair score with plain loops.

    The two argument orders are written out branch by branch; ties in time
    contribute nothing.
    """
    n = len(times)
    if n < 2:
        raise ValueError("need at least two observations")
    total = 0.0
    for i in range(n):
        ti, ci = times[i], causes[i]
        for l in range(i + 1, n):
            tl, cl = times[l], causes[l]
            if ti > tl:
                if ci == 1 and cl == 2:
                    total += 0.5
                elif ci == 2 and cl == 1:
                    total -= 0.5
            elif tl > ti:
                if cl == 1 and ci == 2:
                    total += 0.5
                elif cl == 2 and ci == 1:
                    total -= 0.5
    return 2.0 * total / (n * (n - 1))


def dense_row_sums(times, causes) -> np.ndarray:
    """Row sums of the full n-by-n matrix of symmetrized pair scores.

    Builds the matrix by broadcasting (O(n^2) memory), so keep n small.
    """
    times = np.asarray(times, dtype=np.float64)
    later = times[:, None] > times[None, :]
    is1 = np.asarray(causes) == 1
    raw = np.zeros((times.size, times.size), dtype=np.float64)
    raw[later & (is1[:, None] & ~is1[None, :])] = 1.0
    raw[later & (~is1[:, None] & is1[None, :])] = -1.0
    return (0.5 * (raw + raw.T)).sum(axis=1)


def naive_jackknife(times, causes):
    """Leave-one-out pseudo-values by full recomputation, O(n^3)."""
    n = len(times)
    full = naive_delta_hat(times, causes)
    pseudo = []
    for i in range(n):
        t_wo = [times[k] for k in range(n) if k != i]
        c_wo = [causes[k] for k in range(n) if k != i]
        pseudo.append(n * full - (n - 1) * naive_delta_hat(t_wo, c_wo))
    return full, np.array(pseudo)


def random_tc(rng, n: int, with_ties: bool = False):
    """Random (times, causes) arrays; integer times force ties."""
    if with_ties:
        times = rng.integers(0, max(2, n // 2), size=n).astype(float)
    else:
        times = rng.exponential(scale=1.0, size=n)
    causes = rng.integers(1, 3, size=n)
    return times, causes


# --- scalar empirical-likelihood solve ---------------------------------------

def scalar_solve_lambda(d, tol: float = 1e-10, max_iter: int = 100):
    """One-sample safeguarded Newton solve of the EL score equation at 0.

    The package's solver before it was vectorised over rows, kept step for
    step: Owen's closed-form bracket, one Newton step per iteration with a
    bisection fallback, Python-float scalars throughout.  ``d`` must have
    min < 0 < max.  Returns ``(lam, iterations, residual, statistic)``, or
    None when the cap is hit unconverged.
    """
    d = np.asarray(d, dtype=np.float64)
    n = d.size
    lo = (1.0 / n - 1.0) / float(d.max())
    hi = (1.0 / n - 1.0) / float(d.min())
    lam = 0.0
    q = d
    g = float(np.mean(q))
    iterations = 0
    while abs(g) > tol and iterations < max_iter:
        iterations += 1
        if g > 0.0:
            lo = lam
        else:
            hi = lam
        nxt = lam + g / float(np.mean(q * q))
        if not (lo < nxt < hi) or not math.isfinite(nxt):
            nxt = 0.5 * (lo + hi)
        lam = nxt
        q = d / (1.0 + lam * d)
        g = float(np.mean(q))
    if abs(g) > tol:
        return None
    log_ratio = min(0.0, -float(np.sum(np.log1p(lam * d))))
    # subtracting from 0.0 reports a zero statistic as +0.0, not -0.0
    return lam, iterations, abs(g), 0.0 - 2.0 * log_ratio
