"""Independent reference implementations used only by the test suite.

Everything here is deliberately written against scipy primitives rather than
package code, so each check compares two unrelated routes to the same number.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog


def lp_realisable_distance(
    z_obs,
    n_total: int,
    base_cdf_at_z,
    lo_mass: float,
    hi_mass: float,
    sym: bool = False,
) -> float:
    """Distance from an empirical law to a realisable contamination set, by LP.

    Decision variables are t and the target CDF values V_1..V_{m+1} at the
    sorted observed points (V_{m+1} is the target's total real mass).  The
    Kolmogorov sup over half-lines is enforced at empirical jump points and
    their left limits; the chain constraints sandwich each CDF increment
    between lo_mass and hi_mass times the base increment.  With sym=True the
    upper-half-line comparisons are added.
    """
    z = np.sort(np.asarray(z_obs, dtype=float))
    m = len(z)
    n = int(n_total)
    if n < 1 or m > n:
        raise ValueError("need n_total >= 1 and at least as many rows as observed values")
    F = np.asarray(base_cdf_at_z, dtype=float).reshape(m)
    gaps = np.diff(np.concatenate([[0.0], F, [1.0]]))
    if np.any(gaps < -1e-12):
        raise ValueError("base CDF values must be nondecreasing in z")
    gaps = np.maximum(gaps, 0.0)

    nv = m + 1  # V_1..V_{m+1}; column m+1 is t
    rows_a, rows_b = [], []

    def vrow():
        return np.zeros(nv + 1)

    def add(coeffs_v, const: float):
        # sum of coef * V_node + const <= t, with V_0 = 0 dropped; pairs may
        # repeat a node (they cancel), so accumulate rather than use a dict
        row = vrow()
        for j, cj in coeffs_v:
            if j >= 1:
                row[j - 1] += cj
        row[nv] = -1.0
        rows_a.append(row)
        rows_b.append(-const)

    for i in range(0, m + 1):
        # lower half-lines: empirical value i/n against V_i and V_{i+1}
        add([(i, -1.0)], i / n)
        add([(i, +1.0)], -i / n)
        add([(i + 1, -1.0)], i / n)
        add([(i + 1, +1.0)], -i / n)
        if sym:
            # upper half-lines: empirical mass (m - i)/n against the target
            # masses V_{m+1} - V_i and V_{m+1} - V_{i+1}
            add([(m + 1, -1.0), (i, +1.0)], (m - i) / n)
            add([(m + 1, +1.0), (i, -1.0)], -(m - i) / n)
            add([(m + 1, -1.0), (i + 1, +1.0)], (m - i) / n)
            add([(m + 1, +1.0), (i + 1, -1.0)], -(m - i) / n)

    for j in range(0, m + 1):
        # chain: lo_mass * gap_j <= V_{j+1} - V_j <= hi_mass * gap_j
        row = vrow()
        row[j] = 1.0
        if j >= 1:
            row[j - 1] = -1.0
        rows_a.append(row)
        rows_b.append(hi_mass * gaps[j])
        rows_a.append(-row)
        rows_b.append(-lo_mass * gaps[j])

    c = np.zeros(nv + 1)
    c[nv] = 1.0
    bounds = [(0.0, 1.0)] * nv + [(0.0, None)]
    # HiGHS' default 1e-7 feasibility tolerance lets the optimum undershoot by
    # about that much at a few hundred nodes; tighten it so the LP can certify
    # exact kernels to 1e-9
    res = linprog(
        c,
        A_ub=np.array(rows_a),
        b_ub=np.array(rows_b),
        bounds=bounds,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def chebyshev_fit_by_vertices(V, targets) -> float:
    """Optimal value of min over theta of max_i |v_i . theta - t_i|.

    The optimum sits at a vertex where d+1 rows hold with equality,
    v_i . theta - t_i = s_i h for signs s_i and a common level h.  Every
    (d+1)-subset of rows and every sign pattern is solved for (theta, h);
    the smallest h whose theta keeps all residuals within h is the optimum.
    """
    from itertools import combinations, product

    V = np.asarray(V, dtype=float)
    t = np.asarray(targets, dtype=float)
    K, d = V.shape
    best = math.inf
    for rows in combinations(range(K), d + 1):
        idx = list(rows)
        for signs in product((-1.0, 1.0), repeat=d + 1):
            A = np.column_stack([V[idx], -np.asarray(signs)])
            if abs(np.linalg.det(A)) < 1e-12:
                continue
            sol = np.linalg.solve(A, t[idx])
            theta, h = sol[:d], sol[d]
            if -1e-9 <= h < best and np.max(np.abs(V @ theta - t)) <= h + 1e-9:
                best = float(h)
    if math.isinf(best):
        raise ValueError("no feasible vertex; V must have full column rank")
    return best


def greedy_net_one_by_one(candidate_stream, d: int) -> np.ndarray:
    """Greedy 1/4-separated net, one candidate at a time.

    Draws 256 unit candidates per batch from ``candidate_stream`` and keeps
    each one farther than 1/4 from every kept point, until 200000
    candidates in a row are rejected.  The reference loop for
    ``quarter_net``'s batched screening.
    """
    kept: list[np.ndarray] = []
    rejections = 0
    limit = 200_000
    while rejections < limit:
        batch = candidate_stream.normals(256 * d).reshape(256, d)
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        for x in batch:
            if not kept or float(np.min(np.linalg.norm(np.asarray(kept) - x, axis=1))) > 0.25:
                kept.append(x)
                rejections = 0
            else:
                rejections += 1
                if rejections >= limit:
                    break
    return np.asarray(kept)


def quad_observed_mean(pdf, epsilon: float, q: float, reveal, breaks=(), span=60.0):
    """(observed mean, observed mass) of a realisable contamination.

    ``pdf`` is the base density, ``reveal`` the scalar MNAR reveal probability
    function; ``breaks`` lists its discontinuities.  Integrates
    {q(1-eps) + eps * reveal(x)} pdf(x) and its first moment by quadrature.
    """
    lo_mass = q * (1.0 - epsilon)
    pts = [-span] + sorted(float(t) for t in breaks if -span < t < span) + [span]

    def piece(f):
        return sum(quad(f, a, b, limit=200)[0] for a, b in zip(pts, pts[1:]))

    mass = piece(lambda x: (lo_mass + epsilon * reveal(x)) * pdf(x))
    num = piece(lambda x: x * (lo_mass + epsilon * reveal(x)) * pdf(x))
    return num / mass, mass


def quad_density_moment(density, k: int, lo: float, hi: float, breaks=()) -> float:
    """Integral of x^k * density(x) over (lo, hi), split at the breakpoints."""
    pts = [lo] + sorted(float(t) for t in breaks if lo < t < hi) + [hi]
    return sum(
        quad(lambda x: (x**k) * density(x), a, b, limit=200)[0] for a, b in zip(pts, pts[1:])
    )


def sorted_block_means(data, sizes) -> np.ndarray:
    """Partition ``data`` in order into blocks of the given sizes, mean each."""
    out, ix = [], 0
    for s in sizes:
        out.append(float(np.mean(data[ix : ix + s])))
        ix += s
    if ix != len(data):
        raise ValueError("block sizes do not tile the data")
    return np.asarray(out)


def upper_median(values) -> float:
    """Order statistic at 1-indexed rank floor(len/2) + 1, matching the package."""
    v = np.sort(np.asarray(values, dtype=float))
    return float(v[len(v) // 2])


def gaussian_partial_moment(centre: float, sigma: float, lo: float, hi: float) -> float:
    """Integral of x * gaussian(centre, sigma) density over (lo, hi)."""
    from scipy.stats import norm

    zl, zh = (lo - centre) / sigma, (hi - centre) / sigma
    return centre * (norm.cdf(zh) - norm.cdf(zl)) + sigma * (norm.pdf(zl) - norm.pdf(zh))
