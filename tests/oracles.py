"""Independent reference implementations used only by the test suite.

Everything here is deliberately written against scipy primitives rather than
package code, so each check compares two unrelated routes to the same number.
Three exceptions reuse package functions: ``mk_full_scan_bracket`` is the
unscreened coarse scan that ``mk_estimate``'s screened scan must reproduce
bit for bit, so it runs the package's exact batch kernel on every grid row;
``mk_search_without_skips`` is the search that follows it, with every
plateau predicate evaluated, which ``mk_estimate`` must reproduce bit for
bit with fewer evaluations, so it runs the package's scalar kernel; and
``iterative_robust_descent`` (see below) runs the package's
``trimmed_mean`` and ``robust_block_descent``.

Three paper quantities serve only as references for the tests:
``separation_profile``, the distance lower bound between the contamination
sets of two means; ``realisable_sandwich_check``, the empirical test of the
realisable model's density sandwich; and ``two_point_shared_law``, the
three-atom law that both specs of ``adversary_two_point`` observe.  The
missing token ``STAR``, the empirical law ``EmpiricalDist``, the Gaussian
density and quantile (``gaussian_pdf``, ``gaussian_ppf``), the adversary
law's density, STAR mass and observed mean, and the row-literal builder
``extended_from_rows`` are test references and fixtures too; they use only
the public attributes of the package's objects.
``adversary_sample_by_bisection`` is the bisection that
``AdversaryLaw.sample``'s closed-form inversion replaced: it bisects
``law.cdf`` on the same role-1 uniforms, so the two routes share only the
stream and the CDF.  ``sym_distance_by_all_crossings`` is the fourteen-piece
symmetrised distance minimised over every pairwise crossing of its pieces,
the search that the package kernel's closed form proves unnecessary: it
shares only ``ChainBounds`` with the kernel.

``iterative_robust_descent`` is the paper's descent for means with missing
coordinates.  It lives here rather than in the package because its
analysis constants (a2 = 300, a3 = 180000) need n >= 1,723,500 at
epsilon = 0, d = 2 and refuse every epsilon >= 1/600, so no scenario could
run it.  The tests call it with small a2 and a3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog
from scipy.special import ndtr, ndtri

from missingrobust import (
    ChainBounds,
    DomainError,
    EmpiricalSummary,
    ExtendedArray,
    Gaussian,
    RealisableSetSpec,
    SizeError,
    Stream,
    child_seed,
    dist_to_realisable,
    dist_to_realisable_batch,
    robust_block_descent,
    trimmed_mean,
)


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


def iterative_robust_descent(sample, epsilon: float, delta: float, a2: float, a3: float, seed: int) -> np.ndarray:
    """The paper's round-based descent with any-observed imputation of block means.

    Round 1 runs a per-coordinate trimmed mean on that coordinate's observed
    entries of the first fold.  Each later round cuts its fold into M blocks
    of floor(fold / M) consecutive rows (the remainder is discarded), imputes
    every block mean coordinate with the previous round's estimate when the
    block has no observation there, and descends on the imputed means.

    The round count is T = 1 + ceil(max(log(1e-9 (d + log(24 d / delta))), 1)),
    which is 2 for every d below 2.7e9 at any delta in (0, 1].  The block
    count is M = ceil(max(a2 n eps_eff / T, a3 log(6 T / delta))) with
    eps_eff = 2 epsilon + 2 T log(3 T / delta) / n, and the descent needs
    n >= T (M + 1).

    Draw accounting: one permutation of [T * floor(n/T)] on child_seed(seed,
    1), reshaped to T folds of floor(n/T) rows, so the folds are disjoint.
    The round-1 trimmed mean for coordinate j is seeded child_seed(seed, 2, j).
    """
    if not 0.0 <= epsilon < 0.5:
        raise DomainError(f"epsilon must lie in [0, 1/2), got {epsilon}")
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta}")
    n, d = sample.n, sample.d

    T = 2
    eps_eff = 2.0 * epsilon + 2.0 * T * math.log(3.0 * T / delta) / max(n, 1)
    M = math.ceil(max(a2 * n * eps_eff / T, a3 * math.log(6.0 * T / delta)))
    if n < T * (M + 1):
        raise SizeError(f"need n >= {T * (M + 1)} for T={T}, M={M}; got {n}")

    fold_size = n // T
    folds = Stream(child_seed(seed, 1)).permutation(T * fold_size).reshape(T, fold_size)

    theta = np.empty(d)
    fold1 = folds[0]
    for j in range(d):
        col_obs = sample.observed[fold1, j]
        entries = sample.values[fold1[col_obs], j]
        theta[j] = trimmed_mean(entries, epsilon, delta, child_seed(seed, 2, j)).value

    block = fold_size // M
    for rows in folds[1:, : M * block]:
        obs = sample.observed[rows].reshape(M, block, d)
        sums = (sample.values[rows].reshape(M, block, d) * obs).sum(axis=1)
        cnt = obs.sum(axis=1)
        theta = robust_block_descent(np.where(cnt > 0, sums / np.maximum(cnt, 1), theta))
    return theta


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


def gaussian_pdf(base, x):
    """Density of a univariate ``Gaussian`` base."""
    z = (np.asarray(x, dtype=float) - base.theta[0]) / base.scale
    return np.exp(-0.5 * z * z) / (base.scale * math.sqrt(2.0 * math.pi))


def gaussian_ppf(base, u):
    """Quantile function of a univariate ``Gaussian`` base."""
    return base.theta[0] + base.scale * ndtri(np.asarray(u, dtype=float))


def adversary_density(law, x):
    """Observed-value density of an ``AdversaryLaw``: the lower sandwich
    envelope left of 0, the reflected bump on (0, tau], the upper envelope
    beyond tau (mirrored for f2)."""
    x = np.asarray(x, dtype=float)
    if law.name == "f2":
        x = -x
    lo, hi, tau, a, s = law.lo_mass, law.hi_mass, law.tau, law.a, law.sigma

    def phi(centre):
        z = (x - centre) / s
        return np.exp(-0.5 * z * z) / (s * math.sqrt(2.0 * math.pi))

    return np.where(x <= 0.0, lo * phi(-a), np.where(x <= tau, lo * phi(a), hi * phi(-a)))


def adversary_star_mass(law) -> float:
    """Probability that an ``AdversaryLaw`` draw is STAR."""
    return 1.0 - law.real_mass()


def adversary_observed_mean(law) -> float:
    """E(Z | Z observed) of an ``AdversaryLaw``, by closed-form Gaussian partial moments."""
    lo, hi, tau, a, s = law.lo_mass, law.hi_mass, law.tau, law.a, law.sigma

    def partial(lo_t, hi_t, centre):
        # integral of x phi((x - centre)/s)/s over (lo_t, hi_t)
        zl, zh = (lo_t - centre) / s, (hi_t - centre) / s
        phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return centre * (ndtr(zh) - ndtr(zl)) + s * (phi(zl) - phi(zh))

    big = 60.0 * s
    total = (
        lo * partial(-a - big, 0.0, -a)
        + lo * partial(0.0, tau, a)
        + hi * partial(tau, a + big, -a)
    )
    m = total / law.real_mass()
    return float(m if law.name == "f1" else -m)


def adversary_sample_by_bisection(law, n: int, seed: int) -> ExtendedArray:
    """``law.sample(n, seed)`` by bisection on ``law.cdf`` to a 1e-12 bracket.

    Draws the same role-1 uniforms and the same mask u < real_mass(), then
    halves [-a - 60 sigma, a + 60 sigma] on every observed row at once.
    """
    u = Stream(child_seed(seed, 1)).uniforms(n)
    observed = u < law.real_mass()
    values = np.zeros(n)
    if observed.any():
        target = u[observed]
        lo = np.full(target.shape, -law.a - 60.0 * law.sigma)
        hi = np.full(target.shape, law.a + 60.0 * law.sigma)
        # bisection on the piecewise CDF, branch-safe near tau
        while np.max(hi - lo) > 1e-12:
            mid = 0.5 * (lo + hi)
            below = law.cdf(mid) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        values[observed] = 0.5 * (lo + hi)
    return ExtendedArray(values[:, None], observed[:, None])


class _Star:
    """The missing point of the extended line, in row literals and laws written atom by atom."""

    def __repr__(self) -> str:
        return "STAR"


STAR = _Star()


def two_point_shared_law(r: float, sigma: float, epsilon: float, q: float) -> tuple:
    """(a, b, r0) of ``adversary_two_point(r, sigma, epsilon, q)``: both specs of
    the pair observe the three-atom law r0 on {-b, b, STAR}."""
    lo_mass = q * (1.0 - epsilon)
    a = lo_mass / (lo_mass + epsilon)
    b = 0.5 * sigma * a ** (-1.0 / r)
    atom = lo_mass / (a + 1.0)
    return a, b, {-b: atom, b: atom, STAR: 1.0 - 2.0 * atom}


def extended_from_rows(rows) -> ExtendedArray:
    """ExtendedArray from equal-length row tuples of floats and STARs."""
    values = [[0.0 if x is STAR else float(x) for x in row] for row in rows]
    observed = [[x is not STAR for x in row] for row in rows]
    return ExtendedArray(values, observed)


@dataclass(frozen=True)
class DiscreteDist:
    """Finitely supported law on R plus a missingness atom."""

    points: np.ndarray
    masses: np.ndarray
    star_mass: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1)
        ms = np.asarray(self.masses, dtype=float).reshape(-1)
        if len(pts) != len(ms) or np.any(ms < -1e-15):
            raise ValueError("need one nonnegative mass per point")
        order = np.argsort(pts)
        pts, ms = pts[order], np.maximum(ms[order], 0.0)
        if abs(ms.sum() + self.star_mass - 1.0) > 1e-9:
            raise ValueError("masses must sum to 1")
        pts.setflags(write=False)
        ms.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", ms)
        object.__setattr__(self, "_cum", np.cumsum(ms))

    @property
    def real_mass(self) -> float:
        return 1.0 - self.star_mass

    @property
    def jumps(self) -> np.ndarray:
        return self.points

    def cdf(self, t):
        if len(self.points) == 0:
            return np.zeros_like(np.asarray(t, dtype=float))
        ix = np.searchsorted(self.points, np.asarray(t, dtype=float), side="right")
        return np.where(ix > 0, self._cum[np.maximum(ix - 1, 0)], 0.0)

    def cdf_left(self, t):
        if len(self.points) == 0:
            return np.zeros_like(np.asarray(t, dtype=float))
        ix = np.searchsorted(self.points, np.asarray(t, dtype=float), side="left")
        return np.where(ix > 0, self._cum[np.maximum(ix - 1, 0)], 0.0)


def EmpiricalDist(sample) -> DiscreteDist:
    """The empirical law of a univariate extended-line sample."""
    vals, obs = sample.univariate()
    n = len(vals)
    if n == 0:
        raise ValueError("empty sample")
    pts, counts = np.unique(vals[obs], return_counts=True)
    return DiscreteDist(pts, counts / n, star_mass=1.0 - counts.sum() / n)


@dataclass(frozen=True)
class AnalyticDist:
    """Law given by a callable sub-CDF over R plus a missingness atom.

    ``cdf_fn`` must already integrate to 1 - star_mass at +inf; jumps lists
    its discontinuity points (empty for continuous laws).
    """

    cdf_fn: object
    star_mass: float = 0.0
    jump_points: tuple = ()

    @property
    def real_mass(self) -> float:
        return 1.0 - self.star_mass

    @property
    def jumps(self) -> np.ndarray:
        return np.asarray(self.jump_points, dtype=float)

    def cdf(self, t):
        return np.asarray(self.cdf_fn(np.asarray(t, dtype=float)), dtype=float)

    def cdf_left(self, t):
        t = np.asarray(t, dtype=float)
        if len(self.jump_points) == 0:
            return self.cdf(t)
        return self.cdf(np.nextafter(t, -np.inf))


def _candidates(d1, d2) -> np.ndarray:
    return np.unique(np.concatenate([np.asarray(d1.jumps), np.asarray(d2.jumps)]))


def kolmogorov_distance(d1, d2) -> float:
    """sup over lower half-lines of the mass difference, star atom included.

    Exact whenever at least one argument is piecewise constant between its
    jumps (empirical or discrete), which pins the sup to the jump set.
    """
    best = abs(d1.star_mass - d2.star_mass)
    ts = _candidates(d1, d2)
    if len(ts):
        best = max(best, float(np.max(np.abs(d1.cdf(ts) - d2.cdf(ts)))))
        best = max(best, float(np.max(np.abs(d1.cdf_left(ts) - d2.cdf_left(ts)))))
    return best


def sym_kolmogorov_distance(d1, d2) -> float:
    """Half-line sup in both directions plus the star atom."""
    best = kolmogorov_distance(d1, d2)
    ts = _candidates(d1, d2)
    if len(ts):
        u1, u2 = d1.real_mass - d1.cdf_left(ts), d2.real_mass - d2.cdf_left(ts)
        best = max(best, float(np.max(np.abs(u1 - u2))))
        v1, v2 = d1.real_mass - d1.cdf(ts), d2.real_mass - d2.cdf(ts)
        best = max(best, float(np.max(np.abs(v1 - v2))))
    return best


def mk_full_scan_bracket(summary, epsilon: float, q: float, sigma: float) -> tuple:
    """Golden-section bracket of ``mk_estimate`` from the unscreened scan.

    ``summary`` is an ``EmpiricalSummary`` with at least one observed value.
    Runs the exact set distance on all 512 grid rows (in 4 blocks of 128)
    and brackets the first argmin by its neighbours two grid steps away.
    """
    z, n = summary.sorted_observed, summary.n_total
    lo_mass = q * (1.0 - epsilon)
    grid = np.linspace(float(z[0]) - 6.0 * sigma, float(z[-1]) + 6.0 * sigma, 512)
    coarse = np.empty(512)
    for start in range(0, 512, 128):
        block = grid[start : start + 128]
        F = ndtr((z[None, :] - block[:, None]) / sigma)
        coarse[start : start + 128] = dist_to_realisable_batch(F, n, lo_mass, lo_mass + epsilon)
    best = int(np.argmin(coarse))
    return float(grid[max(best - 2, 0)]), float(grid[min(best + 2, 511)])


def mk_search_without_skips(summary, epsilon: float, q: float, sigma: float) -> tuple:
    """``mk_estimate``'s golden section and left-plateau search, evaluating every predicate.

    Starts from ``mk_full_scan_bracket`` and runs the search as it was
    before the plateau search learned to skip evaluations its Lipschitz
    envelope settles, through the public ``EmpiricalSummary`` constructor.
    Returns (value, kolmogorov_value, evaluations); with at least one
    observed value.
    """
    z, n = summary.sorted_observed, summary.n_total
    spec = RealisableSetSpec(Gaussian.univariate(0.0, sigma), epsilon, q)
    lo_g = float(z[0]) - 6.0 * sigma
    a, b = mk_full_scan_bracket(summary, epsilon, q, sigma)
    evals = 0

    def objective(theta: float) -> float:
        nonlocal evals
        evals += 1
        return dist_to_realisable(EmpiricalSummary(z - theta, n), spec)

    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > max(1e-6 * sigma, 4.0 * math.ulp(max(abs(a), abs(b)))):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = objective(d)
    theta_hat = c if fc <= fd else d
    v_star = min(fc, fd)

    # smallest minimizer: walk the tie plateau to its left edge
    lo_p, hi_p = lo_g, float(theta_hat)
    if objective(lo_p) <= v_star + 1e-9:
        hi_p = lo_p
    else:
        for _ in range(50):
            mid = 0.5 * (lo_p + hi_p)
            if objective(mid) <= v_star + 1e-9:
                hi_p = mid
            else:
                lo_p = mid
    return float(hi_p), float(v_star), evals


def sym_distance_by_all_crossings(summary, spec) -> float:
    """Symmetrised set distance from the fourteen affine pieces of t*(c).

    For a fixed total real mass c of the target, the minimal feasible band
    width t*(c) is a maximum of affine functions of c (slopes -1, -1/2, 0,
    1/2, 1): window/chain crossings contribute the halved terms, crossings
    with the pinned start node the full-slope ones, and the landing
    constraints at c close the list.  The minimum over c is taken over both
    ends of the range and all 182 pairwise crossings of the pieces.
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


def realisable_sandwich_check(
    sample, base, epsilon: float, q: float, grid_size: int = 100
) -> tuple[bool, float]:
    """Empirical check that observed-value mass sits in the sandwich.

    For H(t) = #\\{observed values <= t\\} / n the realisable model forces
    q(1-eps) F(t) <= H(t) <= {q(1-eps)+eps} F(t) up to sampling noise; the
    slack is 3 sqrt(log(n)/n).  Returns (ok, worst violation).
    """
    vals, obs = sample.univariate()
    n = len(vals)
    if n == 0:
        raise SizeError("empty sample")
    lo_mass = q * (1.0 - epsilon)
    hi_mass = lo_mass + epsilon
    slack = 3.0 * math.sqrt(math.log(n) / n)
    grid = gaussian_ppf(base, np.linspace(0.005, 0.995, grid_size))
    z = np.sort(vals[obs])
    h = np.searchsorted(z, grid, side="right") / n
    f = base.cdf(grid)
    viol = np.maximum(lo_mass * f - slack - h, h - hi_mass * f - slack)
    worst = float(viol.max())
    return worst <= 0.0, worst
