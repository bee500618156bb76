"""Kolmogorov geometry on the extended real line.

The distance from an empirical law (real values plus a missingness atom) to
the set of realisable contaminations of a fixed continuous base.  The set
distance reduces to a small feasibility system over the target CDF values at
the observed points: increments between consecutive points are sandwiched by
lo_mass/hi_mass times the base increment, while the Kolmogorov band couples
each CDF value to the empirical staircase.  One row-wise function turns base
CDF values into the chain of cumulated increment bounds, for a single base,
a batch of candidate bases or a subset of the chain nodes alike.  The
minimal band width follows in closed form from pairwise node constraints as
a maximum of prefix-max expressions; the same kernel run on a subset of the
chain nodes gives a lower bound, which grid scans use to skip candidates
before the exact pass.  The symmetrized variant is minimized exactly as a
max of affine functions of the target's total real mass.  The independent
LP cross-check lives with the tests (``tests/oracles.py``).
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


def _chain(F: np.ndarray, lo_mass: float, hi_mass: float):
    """Prefix sums (SL, SU) of the increment bounds, row-wise along the last axis.

    ``F`` holds base CDF values at the sorted observed points; the chain adds
    node m+1 with F = 1.  Increment j bounds V_{j+1} - V_j, the target mass
    between consecutive observed values, by lo_mass/hi_mass times the base
    mass there; SL_j, SU_j at nodes 1..m+1 are their cumulated sums.
    """
    F = np.asarray(F, dtype=float)
    edge = np.zeros(F.shape[:-1] + (1,))
    gaps = np.maximum(np.diff(np.concatenate([edge, F, edge + 1.0], axis=-1), axis=-1), 0.0)
    SL, SU = np.cumsum(np.multiply.outer((lo_mass, hi_mass), gaps), axis=-1)
    return SL, SU


@dataclass(frozen=True)
class ChainBounds:
    """Prefix sums of the target CDF increment bounds at chain nodes 1..m+1.

    ``prefix_lower[j-1]`` and ``prefix_upper[j-1]`` bound V_j from the chain
    alone; node 0 is pinned at V_0 = 0 and node m+1 carries the total mass.
    """

    prefix_lower: np.ndarray
    prefix_upper: np.ndarray

    @staticmethod
    def from_data(summary: EmpiricalSummary, spec: RealisableSetSpec) -> "ChainBounds":
        SL, SU = _chain(spec.base.cdf(summary.sorted_observed), spec.lo_mass, spec.hi_mass)
        SL.setflags(write=False)
        SU.setflags(write=False)
        return ChainBounds(SL, SU)


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
    return float(_plain_distance(bounds.prefix_lower, bounds.prefix_upper, summary.n_total))


def dist_to_realisable_batch(
    F_matrix: np.ndarray, n_total: int, lo_mass: float, hi_mass: float
) -> np.ndarray:
    """Plain set distance for many candidate bases sharing one data set.

    Row k of ``F_matrix`` holds the k-th candidate base CDF evaluated at the
    sorted observed values; the same exact kernel as ``dist_to_realisable``
    runs on all rows at once.  Used by grid scans where per-candidate calls
    would dominate the runtime.
    """
    L, U = _chain(np.atleast_2d(F_matrix), lo_mass, hi_mass)
    return _plain_distance(L, U, int(n_total))


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
    SL, SU = bounds.prefix_lower, bounds.prefix_upper  # nodes 1..m+1
    c_lo, c_hi = SL[m], min(1.0, SU[m])

    # pieces as (intercept, slope): t >= intercept + slope * c
    pieces = [(m / n, -1.0), (-m / n, 1.0)]

    if m >= 1:
        k = np.arange(1, m + 1)
        p1 = k / n - SL[:m]
        p2 = -(m - k) / n - SL[:m]
        q1 = (k - 1) / n - SU[:m]
        q2 = -(m - k + 1) / n - SU[:m]
        D = SL[:m] - SU[:m]
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
            (float(G1[-1]) + SL[m], -1.0),
            (float(G2[-1]) + SL[m], 0.0),
            (-SU[m] - float(H1[-1]), 1.0),
            (-SU[m] - float(H2[-1]), 0.0),
        ]

    intercepts, slopes = np.array(pieces).T
    # every pairwise crossing c = (b_j - b_i) / (s_i - s_j) at once
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (intercepts[None, :] - intercepts[:, None]) / (slopes[:, None] - slopes[None, :])
    cands = np.clip(np.concatenate([[c_lo, c_hi], x[np.isfinite(x)]]), c_lo, c_hi)
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
