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

# chain nodes the coarse-scan screen keeps, about this many per grid row
_SCREEN_NODES = 128


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
    the scan's left end and 50 bisection steps on the predicate
    J(mid) <= v* + 1e-9, with v* the golden-section minimum.

    The scan is screened: the set-distance kernel on about 128 evenly spaced
    chain nodes gives a lower bound for every grid row, the exact kernel runs
    on the row with the smallest bound, and then on every row whose bound
    does not exceed that exact value.  The chain on the node subset is the
    full chain at those nodes bit for bit, so the bound is a lower bound in
    floating point too.  A row that could tie or beat the minimum is always
    evaluated exactly, so the argmin is the full scan's.

    The plateau search skips an evaluation whose outcome is proved, and
    never changes its path.  J is L-Lipschitz with
    L = hi_mass / (s sqrt(2 pi)), s the base's scale: each term of the
    kernel is a chain value plus a constant, or half the difference of two
    values of one chain, so it moves by at most hi_mass times the largest
    move of the base CDF values, and Phi((z - theta) / s) moves at a rate of
    at most 1 / (s sqrt(2 pi)); a maximum of L-Lipschitz terms is
    L-Lipschitz.  Every scan row carries a lower bound lb (its exact value,
    or its screen bound), and every golden-section and bisection point its
    value, so J(mid) >= max_x (lb_x - L |mid - x|).  When that envelope
    exceeds v* + 1e-9 + margin, the computed J(mid) lies above v* + 1e-9 and
    the step moves right without an evaluation.  The margin is
    1e-12 + 8 L ulp(max|z| + max(|lo|, |hi|)) over the scan range [lo, hi]:
    rounding z - theta moves a base CDF value by at most L / hi_mass times
    half that ulp, at mid and at x alike, and ndtr, the division by s, the
    kernel's arithmetic and the envelope's own take a few multiples of the
    double epsilon, far below 1e-12.  When s is below the float spacing the
    margin dwarfs every envelope, and no evaluation is skipped.

    This is the one-row case of the search ``multivariate_mk`` runs over
    all its projections at once; each search point is one scalar
    ``dist_to_realisable`` call.

    ``meta`` reports the rows evaluated exactly (``scan_rows_exact``), the
    scalar objective evaluations made (``objective_evals``) and the plateau
    predicates settled without one (``plateau_skips``); their sum is the
    search's evaluation count without the skips.
    """
    summary = sample if isinstance(sample, EmpiricalSummary) else EmpiricalSummary.from_sample(sample)
    (estimate,) = _mk_search(summary.sorted_observed[None, :], summary.n_total, epsilon, q, [sigma])
    return estimate


def _mk_search(Z: np.ndarray, n: int, epsilon: float, q: float, sigmas) -> list[UniEstimate]:
    """``mk_estimate`` on each row of a (K, m) stack of sorted data, the rows in lockstep.

    Row k holds the sorted observed values of one estimate whose base has
    scale ``sigmas[k]``; all rows share m and the row count n.  Every row
    runs its own scan, golden section and plateau search, as ``mk_estimate``
    describes, and leaves the loop when its own search ends; the rows share
    the kernel calls.  The exact scan rows of all rows go through
    ``dist_to_realisable_batch`` in 128-row blocks, the row with the smallest
    screen bound of each first.  Then each round evaluates the next search
    point of every live row in one batch call, or through
    ``dist_to_realisable`` once a single row is left.  The kernel is
    row-wise, so every value and count is the one row's own, bit for bit.
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
                    "plateau_skips": 0,
                },
            )
            for sigma, spec in zip(sigmas, specs)
        ]
    lo_mass, hi_mass = specs[0].lo_mass, specs[0].hi_mass
    grids = np.stack([np.linspace(float(z[0]) - 6.0 * s, float(z[-1]) + 6.0 * s, 512) for z, s in zip(Z, sigmas)])
    nodes = np.append(np.arange(1, m + 1, max(1, m // _SCREEN_NODES)), m + 1)
    bounds = np.stack([_screen_bound(z, grid, spec, n, nodes) for z, grid, spec in zip(Z, grids, specs)])
    exact = np.full((K, 512), np.inf)

    def base_cdf(ks, thetas, check: bool = False) -> np.ndarray:
        # row i: the base CDF of data row ks[i] shifted by -thetas[i]
        F = np.empty((len(ks), m))
        for i, (k, theta) in enumerate(zip(ks, thetas)):
            shifted = Z[k] - theta
            # the scalar objective's summary refuses a shift that overflows at an end, and so does a round
            if check and not (math.isfinite(shifted[0]) and math.isfinite(shifted[-1])):
                raise DomainError("observed values must be finite")
            F[i] = specs[k].base.cdf(shifted)
        return F

    def scan_exact(ks, rows) -> None:
        # 128-row blocks cap the memory at the unscreened scan's
        for start in range(0, len(rows), 128):
            kb, rb = ks[start : start + 128], rows[start : start + 128]
            exact[kb, rb] = dist_to_realisable_batch(base_cdf(kb, grids[kb, rb]), n, lo_mass, hi_mass)

    firsts = np.argmin(bounds, axis=1)
    scan_exact(np.arange(K), firsts)
    ks, rows = np.nonzero(bounds <= exact[np.arange(K), firsts][:, None])
    others = rows != firsts[ks]
    scan_exact(ks[others], rows[others])

    searches = [_refine(Z[k], sigmas[k], specs[k], grids[k], exact[k], bounds[k]) for k in range(K)]
    thetas = np.array([next(search) for search in searches])  # every search evaluates at least twice
    results: list = [None] * K
    live = np.arange(K)
    while len(live) > 1:
        values = dist_to_realisable_batch(base_cdf(live, thetas[live], check=True), n, lo_mass, hi_mass)
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


def _screen_bound(z, grid, spec, n, nodes) -> np.ndarray:
    """Node-subset lower bound on the objective at every grid row, a block of rows at a time."""
    z_nodes = z[nodes[:-1] - 1]
    bound = np.empty(len(grid))
    step = _row_block(len(nodes))
    for start in range(0, len(grid), step):
        F_nodes = spec.base.cdf(z_nodes[None, :] - grid[start : start + step, None])
        bound[start : start + step] = _plain_distance(*_chain(F_nodes, spec.lo_mass, spec.hi_mass), n, nodes)
    return bound


class _Envelope:
    """Lower bounds lb_x on one row's objective J at points x, with J(theta) >= max_x (lb_x - L |theta - x|).

    Holds the scan rows' bounds, then each evaluated (theta, J), in arrays
    that double when full.
    """

    def __init__(self, grid: np.ndarray, scan_lb: np.ndarray, lipschitz: float):
        self.x = np.empty(2 * len(grid))
        self.lb = np.empty(2 * len(grid))
        self.x[: len(grid)] = grid
        self.lb[: len(grid)] = scan_lb
        self.end = len(grid)
        self.lipschitz = lipschitz

    def add(self, theta: float, value: float) -> float:
        if self.end == len(self.x):
            self.x = np.concatenate([self.x, np.empty(len(self.x))])
            self.lb = np.concatenate([self.lb, np.empty(len(self.lb))])
        self.x[self.end] = theta
        self.lb[self.end] = value
        self.end += 1
        return value

    def at(self, theta: float) -> float:
        return (self.lb[: self.end] - self.lipschitz * np.abs(theta - self.x[: self.end])).max()


def _refine(z, sigma, spec, grid, exact, bound):
    """One row's golden section and left-plateau search, as ``mk_estimate`` describes.

    A generator: it yields each point theta to evaluate, is sent J(theta),
    and returns the row's ``UniEstimate``.  ``exact`` holds the scan's exact
    values (inf on rows the screen left out) and ``bound`` the screen bounds.
    """
    best = int(np.argmin(exact))
    a = grid[max(best - 2, 0)]
    b = grid[min(best + 2, 511)]
    bracket = (float(a), float(b))
    lipschitz = spec.hi_mass / (spec.base.scale * math.sqrt(2.0 * math.pi))
    scan_lb = np.where(np.isfinite(exact), exact, bound)
    seen = _Envelope(grid, scan_lb, lipschitz)

    # golden-section to |theta error| <= 1e-6 sigma, or to a bracket a few
    # ulps wide when 1e-6 sigma is below the float spacing at theta (each
    # pass then still moves an end, so the loop ends)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc = seen.add(c, (yield c))
    fd = seen.add(d, (yield d))
    while b - a > max(1e-6 * sigma, 4.0 * math.ulp(max(abs(a), abs(b)))):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = seen.add(c, (yield c))
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = seen.add(d, (yield d))
    theta_hat = c if fc <= fd else d
    v_star = min(fc, fd)

    # smallest minimizer: walk the tie plateau to its left edge, skipping
    # the evaluations the Lipschitz envelope settles (see mk_estimate)
    tie = v_star + 1e-9
    lo_g, hi_g = float(z[0]) - 6.0 * sigma, float(z[-1]) + 6.0 * sigma
    margin = 1e-12 + 8.0 * lipschitz * math.ulp(max(abs(float(z[0])), abs(float(z[-1]))) + max(abs(lo_g), abs(hi_g)))
    skips = 0

    def above(theta: float):
        nonlocal skips
        if seen.at(theta) - margin > tie:
            skips += 1
            return True
        return seen.add(theta, (yield theta)) > tie

    lo_p, hi_p = lo_g, float(theta_hat)
    if not (yield from above(lo_p)):
        hi_p = lo_p
    else:
        for _ in range(50):
            mid = 0.5 * (lo_p + hi_p)
            if (yield from above(mid)):
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
            "objective_evals": seen.end - len(grid),
            "plateau_skips": skips,
        },
    )
