"""Univariate mean estimators for contaminated missing data.

All estimators return a :class:`UniEstimate` carrying the point estimate and
a diagnostics map.  The simple statistics (midrange, block medians, trimmed
mean, observed mean) are a few lines each; the minimum-distance estimator
searches the band-width objective over a location family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EstimationError, SizeError, check_param
from .extended import ExtendedArray
from .kolmogorov import (
    EmpiricalSummary,
    RealisableSetSpec,
    _chain,
    _plain_distance,
    _row_block,
    dist_to_realisable,
    dist_to_realisable_batch,
)
from .models import Gaussian
from .rng import Stream, child_seed

__all__ = [
    "UniEstimate",
    "average_of_extremes",
    "median_of_means",
    "trimmed_mean",
    "observed_mean",
    "mk_estimate",
    "order_median",
]

# chain nodes the coarse-scan screen keeps, about this many per grid row.  Any
# sound lower bound gives the same argmin, so this trades screen cost against
# rows left for the exact kernel: at 16 nodes the benchmark's searches leave
# 1-9 exact rows per row (4 in the median on the projected stacks), against
# 1-5 (2) at 128 nodes, and the scan costs a quarter to a third as much.
# At 8 nodes the scan cost 0.77-1.16 times as much as at 16, at 32 nodes
# 1.3-1.4 times, over m = 750 to 7400 and stacks of 18 rows
_SCREEN_NODES = 16

# every base of the location search is a Gaussian centred at 0, so its CDF is this one's at x / scale
_STANDARD = Gaussian.univariate(0.0, 1.0)


@dataclass(frozen=True)
class UniEstimate:
    value: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise EstimationError(f"estimate is not finite: {self.value}")


def order_median(values) -> float:
    """Deterministic median: the order statistic at 0-indexed rank n // 2."""
    v = np.sort(np.asarray(values, dtype=float))
    if len(v) == 0:
        raise SizeError("median of empty sequence")
    return float(v[len(v) // 2])


def _real_data(data) -> np.ndarray:
    x = np.asarray(data, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise DomainError("data must be finite reals")
    return x


def average_of_extremes(sample: ExtendedArray) -> UniEstimate:
    """Midrange of the observed values; 0 by convention when none observed."""
    vals, obs = sample.univariate()
    if not obs.any():
        return UniEstimate(0.0, {"m_observed": 0})
    z = vals[obs]
    return UniEstimate(0.5 * (float(z.max()) + float(z.min())), {"m_observed": int(obs.sum())})


def median_of_means(data, M: int, seed: int) -> UniEstimate:
    """Median of M block means over a seeded equal-as-possible partition."""
    x = _real_data(data)
    n = len(x)
    if n == 0:
        raise DomainError("empty data")
    if not 1 <= M <= n:
        raise DomainError(f"need 1 <= M <= n, got M={M}, n={n}")
    perm = Stream(child_seed(seed, 1)).permutation(n)
    size, big = divmod(n, M)  # the first ``big`` blocks take one more row
    cuts = np.cumsum([size + 1] * big + [size] * (M - big))[:-1]
    means = [float(np.mean(x[block])) for block in np.split(perm, cuts)]
    return UniEstimate(order_median(means), {"M": M, "block_sizes": (size + 1, size) if big else (size,)})


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def trimmed_mean(data, epsilon: float, delta: float, seed: int) -> UniEstimate:
    """Mean of one half after clamping to quantiles estimated on the other.

    The trim level is 8 epsilon + 24 log(4/delta)/n, clamped to
    [2/n, 1/2 - 1/n]; the clamp thresholds are order statistics of the
    second half at ranks n*eta/2 and n*(1-eta)/2 (half-up rounding).
    """
    x = _real_data(data)
    n = len(x)
    if n < 4:
        raise SizeError(f"need at least 4 points, got {n}")
    check_param("epsilon", epsilon)
    check_param("delta", delta)
    perm = Stream(child_seed(seed, 1)).permutation(n)
    first = x[perm[: (n + 1) // 2]]
    second = np.sort(x[perm[(n + 1) // 2 :]])
    eta = 8.0 * epsilon + 24.0 * math.log(4.0 / delta) / n
    eta = min(max(eta, 2.0 / n), 0.5 - 1.0 / n)
    r_lo = min(max(_round_half_up(n * eta / 2.0), 1), len(second))
    r_hi = min(max(_round_half_up(n * (1.0 - eta) / 2.0), 1), len(second))
    alpha, beta = float(second[r_lo - 1]), float(second[r_hi - 1])
    value = float(np.mean(np.clip(first, alpha, beta)))
    return UniEstimate(value, {"alpha": alpha, "beta": beta, "eta": eta})


def observed_mean(sample: ExtendedArray) -> UniEstimate:
    vals, obs = sample.univariate()
    if not obs.any():
        raise EstimationError("empty observed set")
    return UniEstimate(float(np.mean(vals[obs])), {"m_observed": int(obs.sum())})


def mk_estimate(sample, epsilon: float, q: float, sigma: float) -> UniEstimate:
    """Centre whose realisable contamination set is nearest the data.

    Minimizes theta -> distance from the empirical law to the set built on a
    Gaussian with that centre.  One set, on the Gaussian at centre 0, serves
    every theta: the distance at theta is the distance of the data shifted by
    -theta.  Coarse 512-point scan over the data range widened by 6 sigma
    (fallback [-6 sigma, 6 sigma] with no observations), golden-section
    refinement to 1e-6 sigma (or a few ulps of theta, if wider), then a
    left-plateau search so ties resolve to the smallest minimizer: a check at
    the scan's left end, then bisection on the predicate J(mid) <= v* + 1e-9,
    with v* the golden-section minimum, until the bracket is 1e-9 sigma wide
    (or a few ulps of theta, if wider).  J is L-Lipschitz with
    L = hi_mass / (sigma sqrt(2 pi)), so a point within 1e-9 sigma of the
    edge differs in J by at most L * 1e-9 sigma <= 0.4e-9, which is inside
    the 1e-9 tie slack.

    The scan is screened: the set-distance kernel on about 16 evenly spaced
    chain nodes (every node when m < 32) gives a lower bound for every grid
    row, the exact kernel runs on the row with the smallest bound, and then
    on every row whose bound does not exceed that exact value.  The chain on
    the node subset is the full chain at those nodes bit for bit, so the
    bound is a lower bound in floating point too.  Any such bound gives the
    same result: a row whose exact value equals the scan minimum has a bound
    no larger than that minimum, which is no larger than the exact value at
    the row of smallest bound, so it is always evaluated, and the first
    argmin and the bracket are the full scan's.  The node count moves only
    ``scan_rows_exact``: on the benchmark's adversary-law and projected
    searches (seeds 100-102) 16 nodes leave 1 to 9 rows for the exact
    kernel, where 128 nodes left 1 to 5, and the scan costs a quarter to a
    third as much.

    Data whose scan range [z[0] - 6 sigma, z[-1] + 6 sigma] is wider than
    the largest float is refused with a ``DomainError``.

    This is the one-row case of the search ``multivariate_mk`` runs over
    all its projections at once; each search point is one scalar
    ``dist_to_realisable`` call.

    ``meta`` reports the rows evaluated exactly (``scan_rows_exact``) and
    the scalar objective evaluations made (``objective_evals``).
    """
    summary = sample if isinstance(sample, EmpiricalSummary) else EmpiricalSummary.from_sample(sample)
    (estimate,) = _mk_search(summary.sorted_observed[None, :], summary.n_total, epsilon, q, [sigma])
    return estimate


def _mk_search(Z: np.ndarray, n: int, epsilon: float, q: float, sigmas) -> list[UniEstimate]:
    """``mk_estimate`` on each row of a (K, m) stack of sorted data, the rows in lockstep.

    Row k holds the sorted observed values of one estimate whose base has
    scale ``sigmas[k]``; all rows share m and the row count n.  Every row
    runs its own scan, golden section and plateau bisection, as
    ``mk_estimate`` describes, and leaves the loop when its own bisection
    bracket is 1e-9 sigma wide; the rows share the kernel calls.  One
    blocked pass screens the grids of all rows (``_screen_bounds``).  The
    exact scan rows of all rows go through ``dist_to_realisable_batch`` in
    128-row blocks, the row with the smallest screen bound of each first.
    Then each round evaluates the next search point of every live row in one
    batch call, or through ``dist_to_realisable`` once a single row is left.
    A batch takes its base CDF rows from ``_shifted_cdf``, not row by row.  The
    kernel is row-wise, so every value and count is the one row's own, bit
    for bit.  Every search point lies in its row's scan range, so a finite
    range width bounds every shift z - theta and no shift overflows.
    """
    specs = [RealisableSetSpec(Gaussian.univariate(0.0, sigma), epsilon, q) for sigma in sigmas]
    K, m = Z.shape
    if n < 1:
        raise SizeError(f"need at least one row, got {n}")
    if m > n:
        raise SizeError("more observed values than rows")
    if m and not np.all(np.isfinite(Z[:, [0, -1]])):
        raise DomainError("observed values must be finite")
    if m == 0:
        # constant objective: every centre is lo_mass away
        return [
            UniEstimate(
                -6.0 * sigma,
                {
                    "m_observed": 0,
                    "kolmogorov_value": spec.lo_mass,
                    "bracket": (-6.0 * sigma, 6.0 * sigma),
                    "scan_rows_exact": 0,
                    "objective_evals": 0,
                },
            )
            for sigma, spec in zip(sigmas, specs)
        ]
    lo_mass, hi_mass = specs[0].lo_mass, specs[0].hi_mass
    # Python floats, so that an overflowing end or width is inf and no warning
    ends = [(float(z[0]) - 6.0 * float(s), float(z[-1]) + 6.0 * float(s)) for z, s in zip(Z, sigmas)]
    for lo, hi in ends:
        if not math.isfinite(hi - lo):
            raise DomainError(f"observed values must be finite and span a finite scan range; [{lo:.6g}, {hi:.6g}] overflows")
    grids = np.stack([np.linspace(lo, hi, 512) for lo, hi in ends])
    scales = np.array([spec.base.scale for spec in specs])
    nodes = np.append(np.arange(1, m + 1, max(1, m // _SCREEN_NODES)), m + 1)
    bounds = _screen_bounds(Z, grids, scales, n, lo_mass, hi_mass, nodes)
    exact = np.full((K, 512), np.inf)

    def scan_exact(ks, rows) -> None:
        # 128-row blocks cap the memory at the unscreened scan's
        for start in range(0, len(rows), 128):
            kb, rb = ks[start : start + 128], rows[start : start + 128]
            exact[kb, rb] = dist_to_realisable_batch(_shifted_cdf(Z, kb, grids[kb, rb], scales), n, lo_mass, hi_mass)

    firsts = np.argmin(bounds, axis=1)
    scan_exact(np.arange(K), firsts)
    ks, rows = np.nonzero(bounds <= exact[np.arange(K), firsts][:, None])
    others = rows != firsts[ks]
    scan_exact(ks[others], rows[others])

    searches = [_refine(Z[k], sigmas[k], grids[k], exact[k]) for k in range(K)]
    thetas = np.array([next(search) for search in searches])  # every search evaluates at least twice
    results: list = [None] * K
    live = np.arange(K)
    while len(live) > 1:
        values = dist_to_realisable_batch(_shifted_cdf(Z, live, thetas[live], scales), n, lo_mass, hi_mass)
        still = []
        for k, value in zip(live.tolist(), values.tolist()):
            try:
                thetas[k] = searches[k].send(value)
                still.append(k)
            except StopIteration as stop:
                results[k] = stop.value
        live = np.array(still, dtype=int)
    for k in live.tolist():  # the last row runs to its end on the scalar kernel
        try:
            while True:
                summary = EmpiricalSummary._of_sorted(Z[k] - thetas[k], n)
                thetas[k] = searches[k].send(dist_to_realisable(summary, specs[k]))
        except StopIteration as stop:
            results[k] = stop.value
    return results


def _shifted_cdf(Z, ks, thetas, scales) -> np.ndarray:
    """Row i: the base CDF of data row ``ks[i]`` shifted by ``-thetas[i]``, a row block per call.

    Every base is a Gaussian centred at 0 with scale ``scales[k]``, so its CDF
    at z - theta is the standard normal CDF at (z - theta) / scale, the
    float ``Gaussian.cdf`` computes (subtracting a centre of 0.0 leaves a
    float as it is).  One call per ``_row_block`` of rows keeps every
    temporary but the result at 64 KB: a single call over a scan's exact rows
    raised the peak RSS of ``multivariate_d2`` by 2%, at no measurable gain.
    """
    F = np.empty((len(ks), Z.shape[1]))
    step = _row_block(Z.shape[1])
    for start in range(0, len(ks), step):
        kb = ks[start : start + step]
        F[start : start + step] = _STANDARD.cdf((Z[kb] - thetas[start : start + step, None]) / scales[kb][:, None])
    return F


def _screen_bounds(Z, grids, scales, n, lo_mass, hi_mass, nodes) -> np.ndarray:
    """Node-subset lower bound on the objective at every row of every grid, a block of rows at a time.

    Row k of the result bounds the objective of data row k at ``grids[k]``.
    Every temporary, the CDF block included, holds at most one
    ``_row_block`` of grid rows.
    """
    Z_nodes = Z[:, nodes[:-1] - 1]
    K, rows = grids.shape
    ks = np.repeat(np.arange(K), rows)
    thetas = grids.reshape(-1)
    bound = np.empty(K * rows)
    step = _row_block(len(nodes))
    for start in range(0, K * rows, step):
        F = _shifted_cdf(Z_nodes, ks[start : start + step], thetas[start : start + step], scales)
        bound[start : start + step] = _plain_distance(*_chain(F, lo_mass, hi_mass), n, nodes)
    return bound.reshape(K, rows)


def _refine(z, sigma, grid, exact):
    """One row's golden section and left-plateau search, as ``mk_estimate`` describes.

    A generator: it yields each point theta to evaluate, is sent J(theta),
    and returns the row's ``UniEstimate``.  ``exact`` holds the scan's exact
    values (inf on rows the screen left out).
    """
    best = int(np.argmin(exact))
    a = grid[max(best - 2, 0)]
    b = grid[min(best + 2, 511)]
    bracket = (float(a), float(b))
    evals = 0

    def J(theta: float):
        nonlocal evals
        evals += 1
        return (yield theta)

    # golden-section to |theta error| <= 1e-6 sigma, or to a bracket a few
    # ulps wide when 1e-6 sigma is below the float spacing at theta (each
    # pass then still moves an end, so the loop ends)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc = yield from J(c)
    fd = yield from J(d)
    while b - a > max(1e-6 * sigma, 4.0 * math.ulp(max(abs(a), abs(b)))):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = yield from J(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = yield from J(d)
    theta_hat = c if fc <= fd else d
    v_star = min(fc, fd)

    # smallest minimizer: bisect the tie plateau to its left edge, to 1e-9
    # sigma or a few ulps of theta, whichever is wider
    tie = v_star + 1e-9
    lo_p, hi_p = float(z[0]) - 6.0 * sigma, float(theta_hat)
    if (yield from J(lo_p)) <= tie:
        hi_p = lo_p
    while hi_p - lo_p > max(1e-9 * sigma, 4.0 * math.ulp(max(abs(lo_p), abs(hi_p)))):
        mid = 0.5 * (lo_p + hi_p)
        if (yield from J(mid)) > tie:
            lo_p = mid
        else:
            hi_p = mid
    return UniEstimate(
        float(hi_p),
        {
            "m_observed": len(z),
            "kolmogorov_value": float(v_star),
            "bracket": bracket,
            "scan_rows_exact": int(np.isfinite(exact).sum()),
            "objective_evals": evals,
        },
    )
