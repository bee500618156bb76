"""Kolmogorov geometry on the extended real line.

The distance from an empirical law (real values plus a missingness atom) to
the set of realisable contaminations of a fixed continuous base.  The set
distance reduces to a small feasibility system over the target CDF values at
the observed points: increments between consecutive points are sandwiched by
lo_mass/hi_mass times the base increment, while the Kolmogorov band couples
each CDF value to the empirical staircase.  The chain is the base CDF scaled
by lo_mass and hi_mass, for a single base, a batch of candidate bases or a
subset of the chain nodes alike.  The minimal band width follows in closed
form from pairwise node constraints as a maximum of prefix-max expressions;
the same kernel run on a subset of the chain nodes gives a lower bound,
which grid scans use to skip candidates before the exact pass.  The
symmetrized variant's minimum over the target's total real mass is in
closed form too: the pieces that do not decrease in that mass, taken at its
smallest value, with no search over the mass.  The independent LP
cross-check lives with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SizeError, check_param
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

    @classmethod
    def _of_sorted(cls, z: np.ndarray, n_total: int) -> "EmpiricalSummary":
        """Summary of a 1-D float array that is sorted by construction, kept without a copy.

        Checks only the end values and the sizes.  For ``np.sort`` output
        (NaN sorts last) and for a sorted finite array shifted by a finite
        theta (rounding is monotone, so an overflow can only reach the ends)
        a finite first and last value means every value is finite and in
        order, so this refuses exactly what the public constructor refuses.
        """
        if len(z) and not (np.isfinite(z[0]) and np.isfinite(z[-1])):
            raise DomainError("observed values must be finite")
        if n_total < 1:
            raise SizeError(f"need at least one row, got {n_total}")
        if len(z) > n_total:
            raise SizeError("more observed values than rows")
        z.setflags(write=False)
        summary = object.__new__(cls)
        object.__setattr__(summary, "sorted_observed", z)
        object.__setattr__(summary, "n_total", n_total)
        return summary

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
        check_param("epsilon", self.epsilon)
        check_param("q", self.q)

    @property
    def lo_mass(self) -> float:
        return self.q * (1.0 - self.epsilon)

    @property
    def hi_mass(self) -> float:
        return self.q * (1.0 - self.epsilon) + self.epsilon


def _chain(F: np.ndarray, lo_mass: float, hi_mass: float):
    """Chain bounds (SL, SU) = (lo_mass, hi_mass) * [F, 1], row-wise along the last axis.

    ``F`` holds base CDF values at the sorted observed points; node m+1 has
    F = 1.  The target mass V_k - V_i between nodes i <= k lies in
    [SL_k - SL_i, SU_k - SU_i].  The running max guards the kernel's need for
    a nondecreasing chain, as ``dist_to_realisable_batch`` takes F from its
    caller; it runs only when some row steps down, as on a nondecreasing F it
    returns F itself.
    """
    F = np.asarray(F, dtype=float)
    if np.any(F[..., 1:] < F[..., :-1]):
        F = np.maximum.accumulate(F, axis=-1)
    G = np.concatenate([F, np.ones(F.shape[:-1] + (1,))], axis=-1)
    return lo_mass * G, hi_mass * G


@dataclass(frozen=True)
class ChainBounds:
    """The chain bounds lo_mass * [F, 1] and hi_mass * [F, 1] at nodes 1..m+1.

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


# bytes in one row block of the kernels: about 64 KB per temporary keeps a
# block's work arrays in cache and in heap memory the allocator reuses, where
# a temporary above the allocator's 128 KB mapping threshold is mapped afresh
# and faults in page by page.  On a 2-CPU machine, unblocked (512, 132)
# screens and (19, 1562) lockstep batches made about 40000 minor page faults
# per multivariate_mk call, and 64 KB blocks about 200; 32 KB blocks paid
# more in per-call overhead, and 128 KB blocks faulted again.
_BLOCK_BYTES = 1 << 16


def _row_block(n_cols: int) -> int:
    """Rows per block of a kernel pass over rows of ``n_cols`` floats."""
    return max(1, _BLOCK_BYTES // (8 * n_cols))


def _windows(nodes: np.ndarray, n: int):
    """Window offsets e_j = min(j, m)/n and f_j = (j-1)/n at the global nodes j."""
    m = int(nodes[-1]) - 1
    return np.minimum(nodes, m) / n, (nodes - 1) / n


@lru_cache(maxsize=8)
def _all_windows(m: int, n: int):
    """``_windows`` at every node 1..m+1, read-only and shared between calls."""
    e, f = _windows(np.arange(1, m + 2), n)
    e.setflags(write=False)
    f.setflags(write=False)
    return e, f


def _plain_distance(L: np.ndarray, U: np.ndarray, n: int, nodes=None):
    """Smallest feasible band width, row-wise along the last axis.

    L, U are the chain bounds SL_j, SU_j at nodes 1..m+1 (node 0 is pinned
    at 0).  Node j must lie in the window [a_j, b_j] =
    [max(e_j - t, 0), min(f_j + t, 1)] with e_j = min(j, m)/n and
    f_j = (j-1)/n.  As SU - SL = epsilon * [F, 1] is nondecreasing, feasibility
    is the set of pairwise constraints a_i - b_k <= SL_i - SL_k (i <= k) and
    a_i - b_k <= SU_i - SU_k (i >= k); each splits into affine lower bounds
    on t, whose maximum is taken through prefix maxima.  The cap b_k <= 1
    adds nothing: a_i <= SU_i (the pinned-start pair) already gives
    a_i - 1 <= SL_i - SL_k, as SU_i - SL_i + SL_{m+1} <= hi_mass <= 1.

    ``nodes`` gives the global index j of each column, an increasing subset
    of 1..m+1 that ends at m+1 (default: every node, the exact width).  Each
    term is a max over single nodes or node pairs i <= k, so on a proper
    subset the result is a lower bound on the exact width.  Rounding is
    monotone, so it is one in floating point too, given the full chain's
    floats at those nodes (``_chain`` on the subset of a nondecreasing F).
    """
    e, f = _all_windows(L.shape[-1] - 1, int(n)) if nodes is None else _windows(nodes, n)
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
    runs on all rows, a block of rows at a time (see ``_row_block``); the
    kernel is row-wise, so each value is its row's alone.  Used by grid scans
    and lockstep searches where per-candidate calls would dominate the
    runtime.
    """
    F = np.atleast_2d(F_matrix)
    out = np.empty(F.shape[:-1])
    step = _row_block(F.shape[-1] + 1)
    for start in range(0, len(F), step):
        out[start : start + step] = _plain_distance(*_chain(F[start : start + step], lo_mass, hi_mass), int(n_total))
    return out


def dist_to_realisable_sym(summary: EmpiricalSummary, spec: RealisableSetSpec) -> float:
    """Symmetrized set distance in closed form: the nondecreasing pieces at c = lo_mass.

    Adds the upper-half-line comparisons to the band constraints.  At total
    real mass c in [c_lo, c_hi] = [lo, min(1, hi)] of the target, with
    (lo, hi) = (lo_mass, hi_mass), the minimal feasible band width t*(c) is
    the largest of 14 affine pieces.  With k = 1..m, P = k/n - SL,
    Q = (k-1)/n - SU, D = SL - SU, G the prefix max of P, H the prefix min
    of Q and X = max(G - H + D), each slope-0 piece has twins equal to it
    at c = m/n (rows: total mass, window pairs, windows against the pinned
    start, landings on c at the last node):

        0                m/n - c,  c - m/n
        X / 2            (X + m/n - c) / 2,  (X + c - m/n) / 2
        max(P + D)       max(P + D) + c - m/n
        max(D - Q)       max(D - Q) + m/n - c
        G_m + lo - m/n   G_m + lo - c
        m/n - hi - H_m   c - hi - H_m

    A twin of negative slope lies at or below its piece for c >= m/n, one
    of positive slope for c <= m/n.  So t* >= N, the maximum of 0 and the
    pieces of slope >= 0, which is nondecreasing; min max(t*, 0) = N(c_lo):
    - lo >= m/n: at c_lo the negative twins lie under their pieces.
    - c_lo < m/n <= c_hi: N(c_lo) = S0, the maximum of 0 and the slope-0
      pieces, and t*(m/n) = S0 as all twins agree there.
    - m/n > c_hi: then c_hi = hi < 1 and N(c_lo) = S0.  At c = hi each
      negative twin is at most S0, as SL = lo F and SU = hi F with F
      nondecreasing in [0, 1]: m/n - hi <= P_m + D_m; G_m + lo - hi <=
      max(P + D), by (hi - lo)(1 - F_k) >= 0 at each k; max(D - Q) + m/n - hi
      <= m/n - hi - H_m term by term, as D <= 0 and H_m <= Q_k; and for
      i, j <= k, P_i - Q_j + D_k + m/n - hi = (P_i + D_i) + (m/n - hi - Q_j)
      + (hi - lo)(F_i - F_k) <= 2 S0.
    Folding the twins in through max(lo - m/n, 0) leaves seven terms.
    """
    m, n = summary.m, summary.n_total
    bounds = ChainBounds.from_data(summary, spec)
    SL, SU = bounds.prefix_lower[:m], bounds.prefix_upper[:m]  # nodes 1..m
    lo, hi = bounds.prefix_lower[m], bounds.prefix_upper[m]
    gap = lo - m / n
    shift = max(gap, 0.0)
    e, f = _all_windows(m, n)  # the cached k/n and (k-1)/n at nodes 1..m+1
    P, Q, D = e[:m] - SL, f[:m] - SU, SL - SU
    G, H = np.maximum.accumulate(P), np.minimum.accumulate(Q)

    def top(x):  # max over the nodes; -inf when there are none (m = 0)
        return np.max(x, initial=-np.inf)

    return float(max(
        0.0,
        gap,
        0.5 * (top(G - H + D) + shift),  # window pairs
        top(P + D) + shift,  # lower windows against the pinned start
        top(D - Q),  # upper windows against the pinned start
        top(G[-1:]) + gap,  # landing of the lower chain
        max(lo, m / n) - hi + top(-H[-1:]),  # landing of the upper chain
    ))
