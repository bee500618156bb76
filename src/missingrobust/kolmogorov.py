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
before the exact pass.  The symmetrized variant is minimized exactly over
the target's total real mass as the upper envelope of five lines, one per
slope.  The independent LP cross-check lives with the tests
(``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError
from .extended import ExtendedArray

__all__ = [
    "EmpiricalSummary",
    "RealisableSetSpec",
    "ChainBounds",
    "dist_to_realisable",
    "dist_to_realisable_batch",
    "dist_to_realisable_sym",
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
    def from_sample(sample: ExtendedArray) -> "EmpiricalSummary":
        vals, obs = sample.univariate()
        return EmpiricalSummary(np.sort(vals[obs]), len(vals))

    @property
    def m(self) -> int:
        return len(self.sorted_observed)


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


def dist_to_realisable(summary: EmpiricalSummary, spec: RealisableSetSpec) -> float:
    """Kolmogorov distance from an empirical law to the realisable set.

    Exact, in O(m) after one pass of base CDF evaluations: the minimal band
    width is a maximum of prefix-max expressions over the chain nodes.
    """
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


_SLOPES = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])  # of the five lines of t*(c)


def dist_to_realisable_sym(summary: EmpiricalSummary, spec: RealisableSetSpec) -> float:
    """Symmetrized set distance, solved exactly as the upper envelope of five lines.

    Adds the upper-half-line comparisons to the band constraints.  At total
    real mass c of the target, the minimal feasible band width t*(c) is the
    largest of 14 affine lower bounds b + s c.  Rows a = 1, 2 of the window
    offsets P (lower chain) and Q (upper chain) have slopes s_a = 0, 1; with
    G the prefix max of P, H the prefix min of Q and D = SL - SU, the bounds
    are the window pairs (G_a - H_b + D) / 2 (slope (s_a - s_b) / 2), the
    windows against the pinned start P_a + D and D - Q_b (slopes s_a and
    -s_b), the landings on c at the last node G_a + SL_{m+1} and
    -SU_{m+1} - H_b (slopes s_a - 1 and 1 - s_b), and m/n - c, c - m/n.

    Every slope is -1, -1/2, 0, 1/2 or 1, and within a slope class
    max_i (b_i + s c) = (max_i b_i) + s c, so t*(c) is the maximum of five
    lines, each with the top intercept of its class.  That maximum is convex
    and piecewise affine with kinks only where two of the lines cross, so
    its minimum over [c_lo, c_hi], and that of max(t*, 0), lies at an end
    or at one of the 10 crossings (each found twice, 22 candidates).
    Rounding is monotone, so each line's value at a candidate is the
    largest of its class's pieces bit for bit.
    """
    m, n = summary.m, summary.n_total
    bounds = ChainBounds.from_data(summary, spec)
    SL, SU = bounds.prefix_lower, bounds.prefix_upper  # nodes 1..m+1
    c_lo, c_hi = SL[m], min(1.0, SU[m])

    j = np.arange(m) + np.array([[0], [-m]])  # row 2 carries + c
    P, Q, D = (j + 1) / n - SL[:m], j / n - SU[:m], SL[:m] - SU[:m]
    G, H = np.maximum.accumulate(P, axis=-1), np.minimum.accumulate(Q, axis=-1)

    def top(x):  # max over the nodes; -inf when there are none (m = 0)
        return np.max(x, axis=-1, initial=-np.inf)

    window = 0.5 * top(G[:, None] - H[None, :] + D)  # [a, b]: row a of G, row b of H
    start_p, start_q = top(P + D), top(D - Q)
    land_p, land_q = top(G[:, -1:]) + SL[m], top(-H[:, -1:]) - SU[m]
    b = np.array([  # the top intercept of each slope, in _SLOPES order
        max(m / n, start_q[1], land_p[0]),
        window[0, 1],
        max(window[0, 0], window[1, 1], start_p[0], start_q[0], land_p[1], land_q[1]),
        window[1, 0],
        max(-m / n, start_p[1], land_q[0]),
    ])
    s = _SLOPES
    with np.errstate(divide="ignore", invalid="ignore"):  # the diagonal; -inf - -inf when m = 0
        x = (b[None, :] - b[:, None]) / (s[:, None] - s[None, :])
    cands = np.clip(np.concatenate([[c_lo, c_hi], x[np.isfinite(x)]]), c_lo, c_hi)
    vals = np.max(b + np.outer(cands, s), axis=1)
    return float(np.min(np.maximum(vals, 0.0)))
