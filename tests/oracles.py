"""Independent reference implementations and frozen expected values.

Everything here was derived or written before the package internals and is
deliberately naive: per-subsample recomputation instead of incremental
updates, scalar loops instead of array broadcasting.  Tests compare the
package against these, never the other way around.
"""

import csv
import decimal
import hashlib
import io
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np

from crtest import IngestResult, NegativeTime, ParseError, Sample, UnmappedLabel, chisq1_quantile
from crtest.ddk import _rejects, zstat
from crtest.jel import _EPS, jel_statistics
from crtest.ustat import jackknife_rows

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


def family_f1(lam: float, p1: float, a: float, t: float) -> float:
    """Cause-1 sub-distribution of the sampler family at time t.

    The family (Dewan & Kulathinal 2007) puts F1(t) = p1 * F(t)**a over the
    exponential baseline F(t) = 1 - exp(-lam * t).
    """
    return p1 * (1.0 - math.exp(-lam * t)) ** a


# --- the paper's pair kernel and a sample builder ---------------------------
#
# An observation is a (time, cause) pair.  ``kernel_sym`` is the paper's
# U-statistic kernel, which ``ustat.row_scores`` sums through rank counts.

def sample_of(*pairs):
    """A ``Sample`` of the given (time, cause) pairs, in order."""
    times, causes = zip(*pairs)
    return Sample.from_arrays(times, causes)


def kernel_raw(a, b) -> int:
    """Orientation score of the ordered pair (a, b) of (time, cause) pairs.

    +1 when ``a`` outlives ``b`` with causes (1, 2); -1 when ``a`` outlives
    ``b`` with causes (2, 1); 0 otherwise.  Tied times score 0 in every
    branch: the failure-time law is treated as continuous, so ties carry no
    ordering information.
    """
    (ta, ca), (tb, cb) = a, b
    if ta > tb:
        if ca == 1 and cb == 2:
            return 1
        if ca == 2 and cb == 1:
            return -1
    return 0


def kernel_sym(a, b) -> float:
    """Symmetrized kernel: the two argument orders averaged.

    Takes values in {-0.5, 0.0, +0.5} and has expectation delta, which makes
    it a valid U-statistic kernel.
    """
    return 0.5 * (kernel_raw(a, b) + kernel_raw(b, a))


# --- naive pairwise statistics -------------------------------------------

def naive_delta_hat(times, causes) -> Fraction:
    """Average the symmetrized pair score with plain loops, exactly.

    The two argument orders are written out branch by branch; ties in time
    contribute nothing.  The float pair total is a multiple of 1/2, so it is
    exact, and so is the returned ``Fraction``.
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
    return Fraction(2.0 * total) / (n * (n - 1))


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
    """Leave-one-out pseudo-values by full recomputation, O(n^3).

    Returns the exact ``delta_hat`` and list of pseudo-values as ``Fraction``s.
    """
    n = len(times)
    full = naive_delta_hat(times, causes)
    pseudo = []
    for i in range(n):
        t_wo = [times[k] for k in range(n) if k != i]
        c_wo = [causes[k] for k in range(n) if k != i]
        pseudo.append(n * full - (n - 1) * naive_delta_hat(t_wo, c_wo))
    return full, pseudo


def exact_jackknife(times, causes):
    """The exact ``delta_hat`` and pseudo-values of one sample, as ``Fraction``s.

    With k_i the integer sum of both orders' unsymmetrised pair scores of
    subject i over its partners (twice its row score) and K = sum(k),
    ``delta_hat`` is K / (2n(n - 1)) and pseudo-value i is
    (2(n - 1) * k_i - K) / (2(n - 1)(n - 2)).
    """
    t = np.asarray(times, dtype=np.float64)
    c = np.asarray(causes)
    later = t[:, None] > t[None, :]
    raw = (later & (c[:, None] == 1) & (c[None, :] == 2)).astype(np.int64)
    raw -= later & (c[:, None] == 2) & (c[None, :] == 1)
    k = [int(x) for x in raw.sum(axis=1) + raw.sum(axis=0)]
    n, total = len(k), sum(k)
    pseudo = [Fraction(2 * (n - 1) * ki - total, 2 * (n - 1) * (n - 2)) for ki in k]
    return Fraction(total, 2 * n * (n - 1)), pseudo


def exact_row_class(times, causes) -> str:
    """The ``jel`` class of one sample, from the exact signs of its pseudo-values.

    All zero is 'degenerate'; 0 strictly between the smallest and the
    largest is 'solvable'; anything else is a 'hull' violation.
    """
    signs = {(v > 0) - (v < 0) for v in exact_jackknife(times, causes)[1]}
    if signs == {0}:
        return "degenerate"
    return "solvable" if {-1, 1} <= signs else "hull"


def random_tc(rng, n: int, with_ties: bool = False):
    """Random (times, causes) arrays; integer times force ties."""
    if with_ties:
        times = rng.integers(0, max(2, n // 2), size=n).astype(float)
    else:
        times = rng.exponential(scale=1.0, size=n)
    causes = rng.integers(1, 3, size=n)
    return times, causes


# --- scalar empirical-likelihood solve ---------------------------------------

def scalar_solve_lambda(d, max_iter: int = 100, thresholds=()):
    """One-sample safeguarded Newton solve of the EL score equation at 0.

    The solve of one row written with Python-float scalars, step for step
    as the package takes it: Owen's closed-form bracket, one Newton step per
    iteration with a bisection fallback.  ``d`` must have min < 0 < max.
    Returns ``(lam, iterations, residual, statistic)``, or None when the cap
    is hit with the solve still open.

    f(lam) = sum(log(1 + lam*d)) is concave and the statistic is 2 f at the
    root, so at each iterate it lies in [low, high], with low = 2 f(lam)
    and high = low + 2 f'(lam) * (end - lam), where end is the bracket end
    on the side the score points to.  The solve stops once high - low <=
    _EPS * max(1, low), with the package's own ``_EPS``, and returns low as
    the statistic (+0.0 if not positive).  With ``thresholds``, it also
    stops at the first iterate whose bounds leave every threshold t with
    t + m < low or t - m > high, m = 1e-9 * max(1, max threshold).
    """
    d = np.asarray(d, dtype=np.float64)
    n = d.size
    lo = (1.0 / n - 1.0) / float(d.max())
    hi = (1.0 / n - 1.0) / float(d.min())
    margin = 1e-9 * max([1.0, *thresholds])
    lam = 0.0
    q = d
    g = float(np.mean(q))
    low = 0.0
    iterations = 0
    while True:
        if g > 0.0:
            lo = lam
        else:
            hi = lam
        gap = 2.0 * n * abs(g) * (hi - lo)
        if not gap > _EPS * max(1.0, low):
            break
        high = low + gap
        if thresholds and not any(low <= t + margin and t - margin <= high for t in thresholds):
            break
        if iterations == max_iter:
            return None
        iterations += 1
        nxt = lam + g / float(np.mean(q * q))
        if not (lo < nxt < hi) or not math.isfinite(nxt):
            nxt = 0.5 * (lo + hi)
        lam = nxt
        w = lam * d
        low = 2.0 * float(np.sum(np.log1p(w)))
        q = d / (w + 1.0)
        g = float(np.mean(q))
    return lam, iterations, abs(g), low if low > 0.0 else 0.0


def decimal_el_statistic(d) -> float:
    """The EL statistic 2 * sum(log(1 + lam*d_i)) at the root of the score,
    solved in 60-digit decimal arithmetic.

    Each float in ``d`` converts to ``Decimal`` exactly, and ``d`` must have
    min < 0 < max.  The score sum(d_i / (1 + lam*d_i)) falls across Owen's
    bracket, where every 1 + lam*d_i is at least 1/n, so bisection narrows
    that bracket to 1e-30 of its width and three Newton steps then take the
    root to the working precision.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = [Decimal(float(v)) for v in d]
        one, n = Decimal(1), len(x)
        lo = (one / n - one) / max(x)
        hi = (one / n - one) / min(x)
        width = (hi - lo) / Decimal(10) ** 30
        while hi - lo > width:
            mid = (lo + hi) / 2
            if sum(v / (one + mid * v) for v in x) > 0:
                lo = mid
            else:
                hi = mid
        lam = (lo + hi) / 2
        for _ in range(3):
            q = [v / (one + lam * v) for v in x]
            lam += sum(q) / sum(t * t for t in q)
        return float(2 * sum((one + lam * v).ln() for v in x))


# --- exact null law of ddk --------------------------------------------------
#
# Under independence with continuous times the causes, given n1, fall on the
# time order as a uniformly random arrangement.  The row scores then sum to
# 2B - n1*n2, where B counts the (cause-2 earlier, cause-1 later) pairs, so
# ddk's z given n1 is a function of B, and B has the Mann-Whitney null law.

def ddk_exact_law(n: int) -> list[np.ndarray]:
    """The null law of B for n1 = i, n2 = n - i, as ``law[i][b]``.

    The latest of i + j subjects is cause 1 with probability i/(i + j) and
    then precedes no cause-2 subject but follows all j of them, so
    P(i, j, b) = i/(i+j) P(i-1, j, b-j) + j/(i+j) P(i, j-1, b).  Each pass
    builds the laws with i + j = k from those with i + j = k - 1.
    """
    diag = [np.ones(1)]
    for k in range(1, n + 1):
        nxt = []
        for i in range(k + 1):
            j = k - i
            law = np.zeros(i * j + 1)
            if i:
                law[j:] += i / k * diag[i - 1]
            if j:
                law[:i * (j - 1) + 1] += j / k * diag[i]
            nxt.append(law)
        diag = nxt
    return diag


def ddk_exact_size(law: list[np.ndarray], p1: float, alpha: float) -> float:
    """Exact two-sided rejection rate of ddk under H0, given both causes.

    ``law`` is ``ddk_exact_law(n)``.  n1 is Binomial(n, p1), conditioned on
    0 < n1 < n as the harness excludes one-cause samples; each B is decided
    by the package's own ``zstat`` and ``_rejects``, with delta_hat =
    (2B - n1*n2) / (n(n - 1)) rounded once, as ``delta_hat`` rounds it.
    """
    n = len(law) - 1
    size = used = 0.0
    for i in range(1, n):
        weight = math.comb(n, i) * p1**i * (1.0 - p1) ** (n - i)
        b = np.arange(i * (n - i) + 1)
        z = zstat((2 * b - i * (n - i)) / (n * (n - 1)), np.full(b.size, i / n), n)
        size += weight * law[i][_rejects(z, (alpha,), True)[:, 0]].sum()
        used += weight
    return float(size / used)


# --- exact null law of jel and ddk, by enumeration ---------------------------
#
# At a = 1 the time-ordered cause sequence is i.i.d. Bernoulli(p1), and both
# statistics read only the order of the times, so each figure of their null
# law is a weighted sum over the 2^n cause sequences on the ranks 0..n-1: the
# order that the harness's time uniforms, like any continuous times, give.

_CODES_PER_CHUNK = 1 << 16


def exact_null_counts(n: int, alpha: float) -> dict[str, np.ndarray]:
    """Per n1 = 0..n, how many of the C(n, n1) cause sequences ``jel``
    rejects at ``alpha`` (key ``jel``), puts outside its pseudo-value hull
    (``hull``), and two-sided ``ddk`` rejects (``ddk``).

    Sequence k is the n bits of the code k, cause 1 for a 0 bit; the codes
    are scored 2^16 at a time, so memory does not grow with 2^n.
    """
    q = chisq1_quantile(1.0 - alpha)
    ranks = np.arange(n)
    counts = {key: np.zeros(n + 1, dtype=np.int64) for key in ("jel", "hull", "ddk")}
    for lo in range(0, 1 << n, _CODES_PER_CHUNK):
        codes = np.arange(lo, min(lo + _CODES_PER_CHUNK, 1 << n))
        causes = 1 + (codes[:, None] >> ranks & 1)
        n1 = (causes == 1).sum(axis=1)
        d_hat, pseudo = jackknife_rows(np.broadcast_to(ranks.astype(float), causes.shape), causes)
        stat, degenerate, _, _, _ = jel_statistics(pseudo, [q])
        observed = (n1 > 0) & (n1 < n)
        # both tests exclude exactly the one-cause sequences
        assert np.array_equal(degenerate, ~observed)
        ddk = np.zeros(codes.size, dtype=bool)
        ddk[observed] = _rejects(zstat(d_hat[observed], n1[observed] / n, n), (alpha,), True)[:, 0]
        for key, hit in (("jel", observed & (stat > q)), ("hull", np.isinf(stat)), ("ddk", ddk)):
            counts[key] += np.bincount(n1[hit], minlength=n + 1)
    return counts


def exact_null_law(counts: dict[str, np.ndarray], p1: float) -> dict[str, float]:
    """Exact size of both tests, hull share and exclusion share at a = 1.

    ``counts`` is ``exact_null_counts(n, alpha)``.  A sequence with n1
    cause-1 subjects has probability p1^n1 (1 - p1)^(n - n1); the shares are
    of the samples with both causes, as the harness excludes the others.
    """
    n = counts["jel"].size - 1
    n1 = np.arange(n + 1)
    weight = p1**n1 * (1.0 - p1) ** (n - n1)
    used = float(sum(math.comb(n, i) * weight[i] for i in range(1, n)))
    law = {key: float(weight @ c) / used for key, c in counts.items()}
    return {**law, "excluded": 1.0 - used}


# --- asymptotic power ---------------------------------------------------------
#
# sqrt(n)(delta_hat - delta) -> N(0, sigma_a^2) with sigma_a^2 = 4 Var g, where
# g is the projection of the pair kernel (Hoeffding 1948).  In x = F(t),
# uniform on [0, 1], a cause-1 subject at x has g = x - p1 x^a - (1 - p1)/2, a
# cause-2 subject g = p1/2 - p1 x^a, and cause 1 has conditional probability
# f1 = p1 a x^(a-1), so E g^2 is a sum of monomial integrals.

def _integral(*factors) -> float:
    """The integral over [0, 1] of a product of sums of monomials, each
    factor a list of (power, coefficient) terms."""
    terms = [(0.0, 1.0)]
    for factor in factors:
        terms = [(e + e2, c * c2) for e, c in terms for e2, c2 in factor]
    return sum(c / (e + 1.0) for e, c in terms)


def projection_variance(p1: float, a: float) -> float:
    """sigma_a^2 = 4 (E g^2 - delta^2) in closed form; p1 (1 - p1) / 3 at a = 1."""
    f1 = [(a - 1.0, p1 * a)]
    g1 = [(1.0, 1.0), (a, -p1), (0.0, -(1.0 - p1) / 2.0)]
    g2 = [(0.0, p1 / 2.0), (a, -p1)]
    second = _integral(f1, g1, g1) + _integral(g2, g2) - _integral(f1, g2, g2)
    return 4.0 * (second - closed_form_delta(p1, a) ** 2)


def asymptotic_power(p1: float, a: float, n: int, alpha: float, method: str) -> float:
    """Large-n rejection rate of two-sided ``jel`` or ``ddk`` at level ``alpha``.

    sqrt(n) delta_hat is about N(sqrt(n) delta, sigma_a^2).  ``jel``
    standardises by the jackknife variance, which tends to sigma_a^2, and
    ``ddk`` by the null variance sigma_0^2 = p1 (1 - p1) / 3.
    """
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    cdf = NormalDist().cdf
    shift = math.sqrt(n) * closed_form_delta(p1, a)
    sigma = math.sqrt(projection_variance(p1, a))
    if method == "jel":
        return cdf(shift / sigma - z) + cdf(-shift / sigma - z)
    if method == "ddk":
        sigma0 = math.sqrt(p1 * (1.0 - p1) / 3.0)
        return cdf((shift - z * sigma0) / sigma) + cdf((-shift - z * sigma0) / sigma)
    raise ValueError(f"method must be jel or ddk, got {method!r}")


# --- row-loop CSV reader -----------------------------------------------------
#
# ``ingest`` as a plain row loop: a generator numbers the records by the file
# line they start on, the header is pulled off first, and each label is
# routed through the three label sets in turn.  A faster reader must give the
# same sample and counts, or raise the same error with the same row, column
# and message.

def _column_index(col, header, row_num):
    if isinstance(col, int):
        return col
    assert header is not None
    stripped = [h.strip() for h in header]
    count = stripped.count(col)
    if count != 1:
        problem = "appears more than once in" if count else "not found in"
        raise ParseError(row_num, col, f"column {problem} header {stripped}")
    return stripped.index(col)


def _cell(row, idx, row_num):
    if idx >= len(row):
        raise ParseError(row_num, idx, f"row has only {len(row)} fields")
    return row[idx].strip()


def _records(reader, path):
    """Rows of ``reader``, each with the 1-based file line it starts on; a
    malformed record raises :class:`ParseError`."""
    start = 1
    try:
        for row in reader:
            yield start, row
            # a quoted field can span lines, so the next record starts after
            # the last line this one consumed
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(path), f"malformed CSV: {exc}") from None


def row_loop_ingest(spec) -> IngestResult:
    """Read one CSV file as ``crtest.ingest`` does, one row at a time.

    Takes an ``IngestSpec`` whose time and cause columns differ.
    """
    raw = Path(spec.path).read_bytes()
    fingerprint = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(0, str(spec.path), f"not valid UTF-8: {exc}") from None

    rows = _records(csv.reader(io.StringIO(text)), spec.path)

    header = None
    if spec.has_header:
        for _, first in rows:
            header = first
            break
        if header is None:
            raise ParseError(0, str(spec.path), "file is empty but a header was expected")
    t_idx = _column_index(spec.time_column, header, 1)
    c_idx = _column_index(spec.cause_column, header, 1)

    times = []
    causes = []
    n_dropped = 0
    for row_num, row in rows:
        if not row or all(not cell.strip() for cell in row):
            continue
        raw_time = _cell(row, t_idx, row_num)
        try:
            t = float(raw_time)
        except ValueError:
            raise ParseError(row_num, spec.time_column, f"not a number: {raw_time!r}") from None
        if not math.isfinite(t):
            raise ParseError(row_num, spec.time_column, f"non-finite time: {raw_time!r}")
        if t < 0:
            raise NegativeTime(row_num, spec.time_column, f"negative time: {raw_time!r}")
        label = _cell(row, c_idx, row_num)
        if label in spec.drop_labels:
            n_dropped += 1
        elif label in spec.cause1_labels:
            times.append(t)
            causes.append(1)
        elif label in spec.cause2_labels:
            times.append(t)
            causes.append(2)
        else:
            raise UnmappedLabel(label, row=row_num)

    sample = Sample.from_arrays(times, causes)
    return IngestResult(
        sample=sample,
        n_used=len(times),
        n_dropped=n_dropped,
        rows_parsed=len(times) + n_dropped,
        fingerprint=fingerprint,
    )
