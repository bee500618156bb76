"""Kolmogorov geometry on the extended real line.

The distance from an empirical law (real values plus a missingness atom) to
the set of realisable contaminations of a fixed continuous base.  The set
distance reduces to a small feasibility system over the target CDF values at
the observed points: increments between consecutive points are sandwiched by
lo_mass/hi_mass times the base increment, while the Kolmogorov band couples
each CDF value to the empirical staircase.  The minimal band width follows in
closed form from pairwise node constraints as a maximum of prefix-max
expressions; the same kernel run on a subset of the chain nodes gives a lower
bound, which grid scans use to skip candidates before the exact pass.  The
symmetrized variant is minimized exactly as a max of affine functions of the
target's total real mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, SizeError
from .extended import as_univariate

__all__ = [
    "EmpiricalSummary",
    "RealisableSetSpec",
    "ChainBounds",
    "dist_to_realisable",
    "dist_to_realisable_batch",
    "dist_to_realisable_bruteforce",
    "dist_to_realisable_sym",
    "separation_profile",
]


@dataclass(frozen=True)
class EmpiricalSummary:
    """Sorted observed values plus the total row count (missing included)."""

    sorted_observed: np.ndarray
    n_total: int

    def __post_init__(self):
        z = np.asarray(self.sorted_observed, dtype=float).reshape(-1)
        if np.any(np.diff(z) < 0):
            z = np.sort(z)
        if not np.all(np.isfinite(z)):
            raise DomainError("observed values must be finite")
        if self.n_total < 1:
            raise SizeError(f"need at least one row, got {self.n_total}")
        if len(z) > self.n_total:
            raise SizeError("more observed values than rows")
        z.setflags(write=False)
        object.__setattr__(self, "sorted_observed", z)

    @staticmethod
    def from_sample(sample) -> "EmpiricalSummary":
        vals, obs = as_univariate(sample)
        return EmpiricalSummary(np.sort(vals[obs]), len(vals))

    @property
    def m(self) -> int:
        return len(self.sorted_observed)

    @property
    def star_share(self) -> float:
        return 1.0 - self.m / self.n_total


@dataclass(frozen=True)
class RealisableSetSpec:
    """All realisable contaminations of ``base`` at level (epsilon, q).

    Observed-value densities in the set are sandwiched between lo_mass and
    hi_mass times the base density.  The base must be continuous.
    """

    base: object
    epsilon: float
    q: float

    def __post_init__(self):
        if not getattr(self.base, "is_continuous", False):
            raise DomainError("realisable set geometry requires a continuous base")
        if getattr(self.base, "dim", 1) != 1:
            raise DomainError("realisable set geometry is univariate")
        if not 0.0 <= self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if not 0.0 < self.q <= 1.0:
            raise DomainError(f"q must lie in (0, 1], got {self.q}")

    @property
    def lo_mass(self) -> float:
        return self.q * (1.0 - self.epsilon)

    @property
    def hi_mass(self) -> float:
        return self.q * (1.0 - self.epsilon) + self.epsilon


@dataclass(frozen=True)
class ChainBounds:
    """Increment bounds for the target CDF across the observed points.

    Entry j bounds V_{j+1} - V_j, the target mass on the interval between
    consecutive observed values (with -inf / +inf sentinels at the ends).
    """

    lower: np.ndarray
    upper: np.ndarray

    @staticmethod
    def from_data(summary: EmpiricalSummary, spec: RealisableSetSpec) -> "ChainBounds":
        F = np.asarray(spec.base.cdf(summary.sorted_observed), dtype=float)
        gaps = np.maximum(np.diff(np.concatenate([[0.0], F, [1.0]])), 0.0)
        lo = spec.lo_mass * gaps
        hi = spec.hi_mass * gaps
        lo.setflags(write=False)
        hi.setflags(write=False)
        return ChainBounds(lo, hi)

    @property
    def prefix_lower(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.lower)])

    @property
    def prefix_upper(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.upper)])


def _plain_distance(L: np.ndarray, U: np.ndarray, n: int, nodes=None):
    """Smallest feasible band width, row-wise along the last axis.

    L, U are the prefix sums SL_j, SU_j of the increment bounds at chain
    nodes 1..m+1 (node 0 is pinned at 0).  Node j must lie in the window
    [a_j, b_j] = [max(e_j - t, 0), min(f_j + t, 1)] with e_j = min(j, m)/n
    and f_j = (j-1)/n.  Because SU - SL is nondecreasing, feasibility is the
    set of pairwise constraints a_i - b_k <= SL_i - SL_k (i <= k) and
    a_i - b_k <= SU_i - SU_k (i >= k); each splits into affine lower bounds
    on t, whose maximum is taken through prefix maxima.  The cap b_k <= 1
    adds nothing: a_i <= SU_i (the pinned-start pair) already gives
    a_i - 1 <= SL_i - SL_k, as SU_i - SL_i + SL_{m+1} <= hi_mass <= 1.

    ``nodes`` gives the global index j of each column, an increasing subset
    of 1..m+1 that ends at m+1 (default: every node, the exact width).  Each
    term is a max over single nodes or node pairs i <= k, so on a proper
    subset the result is a lower bound on the exact width.
    """
    if nodes is None:
        nodes = np.arange(1, L.shape[-1] + 1)
    m = int(nodes[-1]) - 1
    e = np.minimum(nodes, m) / n
    f = (nodes - 1) / n
    lead_lo = np.maximum.accumulate(e - L, axis=-1)  # max_{i<=k} (e_i - SL_i)
    lead_hi = np.maximum.accumulate(U - f, axis=-1)  # max_{k<=i} (SU_k - f_k)
    t = np.maximum.reduce([
        0.5 * np.max(lead_lo + L - f, axis=-1),  # window pairs along the lower chain
        0.5 * np.max(e - U + lead_hi, axis=-1),  # window pairs along the upper chain
        np.max(L - f, axis=-1),  # upper windows against the pinned start
        np.max(e - U, axis=-1),  # lower windows against the pinned start
    ])
    return np.maximum(t, 0.0)


def dist_to_realisable(summary, spec: RealisableSetSpec) -> float:
    """Kolmogorov distance from an empirical law to the realisable set.

    Exact, in O(m) after one pass of base CDF evaluations: the minimal band
    width is a maximum of prefix-max expressions over the chain nodes.
    """
    if not isinstance(summary, EmpiricalSummary):
        summary = EmpiricalSummary.from_sample(summary)
    bounds = ChainBounds.from_data(summary, spec)
    if summary.m == 0:
        return spec.lo_mass
    return float(_plain_distance(bounds.prefix_lower[1:], bounds.prefix_upper[1:], summary.n_total))


def dist_to_realisable_batch(
    F_matrix: np.ndarray, n_total: int, lo_mass: float, hi_mass: float
) -> np.ndarray:
    """Plain set distance for many candidate bases sharing one data set.

    Row k of ``F_matrix`` holds the k-th candidate base CDF evaluated at the
    sorted observed values; the same exact kernel as ``dist_to_realisable``
    runs on all rows at once.  Used by grid scans where per-candidate calls
    would dominate the runtime.
    """
    F = np.atleast_2d(np.asarray(F_matrix, dtype=float))
    K, m = F.shape
    if m == 0:
        return np.full(K, lo_mass)
    gaps = np.maximum(np.diff(np.concatenate([np.zeros((K, 1)), F, np.ones((K, 1))], axis=1)), 0.0)
    L = np.cumsum(lo_mass * gaps, axis=1)
    U = np.cumsum(hi_mass * gaps, axis=1)
    return _plain_distance(L, U, int(n_total))


def dist_to_realisable_bruteforce(summary, spec: RealisableSetSpec, sym: bool = False) -> float:
    """Small-instance reference solver via an explicit linear program."""
    from scipy.optimize import linprog

    if not isinstance(summary, EmpiricalSummary):
        summary = EmpiricalSummary.from_sample(summary)
    m, n = summary.m, summary.n_total
    if m > 8:
        raise SizeError(f"brute force capped at 8 observed values, got {m}")
    bounds = ChainBounds.from_data(summary, spec)

    nv = m + 1
    rows, rhs = [], []

    def add(coeffs, const: float):
        # node indices may repeat within one constraint, so accumulate pairs
        row = np.zeros(nv + 1)
        for jj, cj in coeffs:
            if jj >= 1:
                row[jj - 1] += cj
        row[nv] = -1.0
        rows.append(row)
        rhs.append(-const)

    for i in range(m + 1):
        add([(i, -1.0)], i / n)
        add([(i, +1.0)], -i / n)
        add([(i + 1, -1.0)], i / n)
        add([(i + 1, +1.0)], -i / n)
        if sym:
            add([(m + 1, -1.0), (i, +1.0)], (m - i) / n)
            add([(m + 1, +1.0), (i, -1.0)], -(m - i) / n)
            add([(m + 1, -1.0), (i + 1, +1.0)], (m - i) / n)
            add([(m + 1, +1.0), (i + 1, -1.0)], -(m - i) / n)
    for j in range(m + 1):
        row = np.zeros(nv + 1)
        row[j] = 1.0
        if j >= 1:
            row[j - 1] = -1.0
        rows.append(row)
        rhs.append(bounds.upper[j])
        rows.append(-row)
        rhs.append(-bounds.lower[j])

    c = np.zeros(nv + 1)
    c[nv] = 1.0
    res = linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(0.0, 1.0)] * nv + [(0.0, None)],
        method="highs",
        # at HiGHS' default 1e-7 feasibility tolerance the optimum is off by
        # up to a few 1e-8; tighten it so the LP agrees with the exact kernel
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise DomainError(f"reference LP failed: {res.message}")
    return float(res.fun)


def dist_to_realisable_sym(summary, spec: RealisableSetSpec) -> float:
    """Symmetrized set distance, solved exactly.

    Adds the upper-half-line comparisons to the band constraints.  For a
    fixed total real mass c of the target, the minimal feasible band width
    t*(c) is a maximum of affine functions of c (slopes -1, -1/2, 0, 1/2, 1):
    window/chain crossings contribute the halved terms, crossings with the
    pinned start node the full-slope ones, and the landing constraints at c
    close the list.  Minimizing over c at piece intersections is exact up to
    float rounding.
    """
    if not isinstance(summary, EmpiricalSummary):
        summary = EmpiricalSummary.from_sample(summary)
    m, n = summary.m, summary.n_total
    bounds = ChainBounds.from_data(summary, spec)
    SL, SU = bounds.prefix_lower, bounds.prefix_upper
    c_lo, c_hi = SL[m + 1], min(1.0, SU[m + 1])

    # pieces as (intercept, slope): t >= intercept + slope * c
    pieces = [(m / n, -1.0), (-m / n, 1.0)]

    if m >= 1:
        k = np.arange(1, m + 1)
        p1 = k / n - SL[1 : m + 1]
        p2 = -(m - k) / n - SL[1 : m + 1]
        q1 = (k - 1) / n - SU[1 : m + 1]
        q2 = -(m - k + 1) / n - SU[1 : m + 1]
        D = SL[1 : m + 1] - SU[1 : m + 1]
        G1 = np.maximum.accumulate(p1)
        G2 = np.maximum.accumulate(p2)
        H1 = np.minimum.accumulate(q1)
        H2 = np.minimum.accumulate(q2)

        # window-vs-window crossings, both band widths in play
        pieces += [
            (0.5 * float(np.max(G1 - H1 + D)), 0.0),
            (0.5 * float(np.max(G1 - H2 + D)), -0.5),
            (0.5 * float(np.max(G2 - H1 + D)), 0.5),
            (0.5 * float(np.max(G2 - H2 + D)), 0.0),
        ]
        # window-vs-start crossings, single band width
        pieces += [
            (float(np.max(p1 + D)), 0.0),
            (float(np.max(p2 + D)), 1.0),
            (float(np.max(-q1 + D)), 0.0),
            (float(np.max(-q2 + D)), -1.0),
        ]
        # landing: the forward envelope must straddle c at the last node
        pieces += [
            (float(G1[-1]) + SL[m + 1], -1.0),
            (float(G2[-1]) + SL[m + 1], 0.0),
            (-SU[m + 1] - float(H1[-1]), 1.0),
            (-SU[m + 1] - float(H2[-1]), 0.0),
        ]

    intercepts = np.array([p[0] for p in pieces])
    slopes = np.array([p[1] for p in pieces])

    cands = [c_lo, c_hi]
    for i in range(len(pieces)):
        ds = slopes[i] - slopes
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (intercepts - intercepts[i]) / ds
        cands.extend(x[np.isfinite(x)])
    cands = np.clip(np.asarray(cands), c_lo, c_hi)
    vals = np.max(intercepts[None, :] + np.outer(cands, slopes), axis=1)
    return float(np.min(np.maximum(vals, 0.0)))


def separation_profile(a: float, b: float | None, sigma: float, epsilon: float, q: float) -> float:
    """Distance lower-bound profile between contamination sets at mean gap 2a.

    Evaluates the explicit half-line witness at offset b (in units of a);
    b = None uses the optimized value log(1 + 4 kappa) / 2 with
    kappa = epsilon / (q (1 - epsilon)).  Strictly increasing in a.
    """
    if a <= 0 or sigma <= 0:
        raise DomainError("need a > 0 and sigma > 0")
    if not 0.0 <= epsilon < 1.0 or not 0.0 < q <= 1.0:
        raise DomainError("need epsilon in [0, 1) and q in (0, 1]")
    lo = q * (1.0 - epsilon)
    hi = lo + epsilon
    if b is None:
        b = 0.5 * math.log1p(4.0 * epsilon / lo)
    shift = (sigma * b / a) if b <= 0.5 else (2.0 * sigma * b / a)
    val = lo * ndtr(a / sigma - shift) - hi * ndtr(-a / sigma - shift)
    return float(max(val, 0.0))
