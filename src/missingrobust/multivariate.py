"""Multivariate robust mean estimation under contamination and missingness.

Block-median descent with an approximate spectral weighting subroutine, a
quarter-net on the sphere, and the direction-projected minimum-distance
estimator for all-or-nothing missingness.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, EstimationError, ModelError, SizeError, check_param
from .extended import ExtendedArray
from .rng import Stream, child_seed
from .univariate import _mk_search, mk_estimate, order_median

__all__ = [
    "as_block_means",
    "solve_sdp_approx",
    "robust_block_descent",
    "robust_descent",
    "quarter_net",
    "multivariate_mk",
]


# block-count constants of robust_descent, from the analysis
_A2 = 300.0
_A3 = 180000.0
# weight/direction alternations per worst-direction solve
_SDP_ITERS = 20


def as_block_means(means) -> np.ndarray:
    B = np.asarray(means, dtype=float)
    if B.ndim != 2:
        raise DimensionError("block means must form an (M, d) array")
    if not np.all(np.isfinite(B)):
        raise DomainError("block means must be finite")
    return B


def solve_sdp_approx(block_means, theta):
    """Approximate worst-direction program over trimmed block weights.

    Alternates a weight step (mass 10/(9M) on the floor(9M/10) smallest
    squared projections, remainder on the next) with a direction step (power
    iteration on the weighted second-moment matrix).  The alternation is a
    max-min, so the value can drop after a weight step; the loop keeps the
    best (direction, value) pair and stops at the first non-improvement.
    """
    B = as_block_means(block_means)
    M, d = B.shape
    if M < 2:
        raise SizeError(f"need at least 2 block means, got {M}")
    theta = np.asarray(theta, dtype=float).reshape(d)
    U = B - theta
    e1 = np.zeros(d)
    e1[0] = 1.0
    scale = float(np.max(np.abs(U))) if U.size else 0.0
    if scale == 0.0 or not np.any(np.linalg.norm(U, axis=1) > 1e-15 * max(scale, 1.0)):
        return e1, 0.0

    cap = 10.0 / (9.0 * M)
    k = (9 * M) // 10
    w = np.full(M, 1.0 / M)
    v = U[int(np.argmax(np.linalg.norm(U, axis=1)))].copy()
    v /= np.linalg.norm(v)

    def power_iter(weights, v0):
        S = (U * weights[:, None]).T @ U
        vec = v0
        val = float(vec @ S @ vec)
        for _ in range(100):
            nxt = S @ vec
            nrm = np.linalg.norm(nxt)
            if nrm == 0.0:
                return vec, 0.0
            nxt /= nrm
            new_val = float(nxt @ S @ nxt)
            if abs(new_val - val) <= 1e-10 * max(abs(val), 1.0):
                vec, val = nxt, new_val
                break
            vec, val = nxt, new_val
        return vec, val

    values = []
    best_v, best_val = e1, 0.0
    for _ in range(_SDP_ITERS):
        v, val = power_iter(w, v)
        if values and val <= values[-1] + 1e-12 * max(abs(values[-1]), 1.0):
            break
        values.append(val)
        if val > best_val:
            best_v, best_val = v.copy(), val
        scores = (U @ v) ** 2
        order = np.argsort(scores, kind="stable")
        w = np.zeros(M)
        w[order[:k]] = cap
        w[order[k]] = 1.0 - k * cap
    return best_v, best_val


def robust_block_descent(block_means) -> np.ndarray:
    """Median-initialized descent along approximate worst directions."""
    B = as_block_means(block_means)
    M, d = B.shape
    if M == 0:
        raise SizeError("no block means")
    if M == 1:
        return B[0].copy()
    theta = np.array([order_median(B[:, j]) for j in range(d)])
    T = math.ceil(math.log(8.0 * math.sqrt(d)) / math.log(10.0 / 9.0))
    for _ in range(T):
        v, _ = solve_sdp_approx(B, theta)
        s = -order_median((B - theta) @ v)
        theta = theta - s * v
    return theta


def robust_descent(data, epsilon: float, delta: float, seed: int) -> np.ndarray:
    """Block-median descent on a seeded partition of complete data.

    It uses M = min(n, ceil(max(a2 (2 epsilon n + log(2/delta)), a3 log(2/delta))))
    blocks of floor(n/M) rows, dropping the remainder, with the analysis
    constants a2 = 300 and a3 = 180000.  Since log(2/delta) >= log 2, a3 alone
    makes M = n, one row per block, for every n up to 124,767 at any delta.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2:
        raise DimensionError("data must form an (n, d) array")
    n = X.shape[0]
    if n < 1:
        raise SizeError("empty data")
    if not np.all(np.isfinite(X)):
        raise DomainError("data must be finite")
    check_param("epsilon", epsilon)
    check_param("delta", delta)
    loginv = math.log(2.0 / delta)
    M = min(n, math.ceil(max(_A2 * (2.0 * epsilon * n + loginv), _A3 * loginv)))
    perm = Stream(child_seed(seed, 1)).permutation(n)
    size = n // M
    means = X[perm[: M * size]].reshape(M, size, -1).mean(axis=1)
    return robust_block_descent(means)


# largest d quarter_net builds a net for; scenario configs refuse a larger d
# for min_kolmogorov_multi at load.  On a 2-CPU machine with one BLAS thread
# the d = 4 net (871 points) takes about 62 s, and a d = 5 net did not
# finish in 10 minutes.
_NET_MAX_D = 4
# consecutive rejections that end the net's candidate loop
_NET_REJECTIONS = 200_000


def _covering_radius(net: np.ndarray) -> float:
    """Largest distance from a point of the sphere to the unit directions ``net``.

    With the origin strictly inside the convex hull, the farthest points are
    the outward facet normals, and a facet at offset h leaves a hole of
    chord sqrt(2 - 2h) at its normal (Brown 1979, "Voronoi diagrams from
    convex hulls").  Returns inf for a set that Qhull refuses (at most d
    points among them) or a hull that does not hold the origin strictly
    inside.
    """
    # imported on first call, so that importing the package leaves scipy.spatial unloaded
    from scipy.spatial import ConvexHull, QhullError

    try:
        # facet rows are (unit outward normal, -h)
        h = float(np.min(-ConvexHull(net).equations[:, -1]))
    except QhullError:
        return math.inf
    return math.sqrt(2.0 - 2.0 * h) if h > 0.0 else math.inf


def quarter_net(d: int, seed: int) -> np.ndarray:
    """Greedy 1/4-separated net on the unit sphere, certified by its hull.

    Returns the net's K unit directions as a read-only (K, d) array.

    Candidates, drawn in batches of 256 from ``child_seed(seed, 1)``, are
    accepted in stream order while farther than 1/4 from every kept point;
    the loop ends after a run of 200000 consecutive rejections.  Each batch
    is screened against the net kept before it in one broadcast norm; only
    the candidates that pass are walked in order against the points the
    same batch accepted, so the net is the one the one-candidate-at-a-time
    loop keeps, bit for bit.

    After each batch that adds points, the loop stops once the net's exact
    covering radius (``_covering_radius``) is below 1/4 - 1e-9: every later
    candidate would be rejected, so the net is the full loop's.  The margin
    dwarfs the rounding it absorbs: norms a few ulps from 1, Qhull's facet
    offsets (within 1.3e-15 of the angular-gap radius at d = 2) and the ulps
    ``np.linalg.norm`` adds to the distance compared with 1/4.  A loop that
    ends on the rejection count raises ``EstimationError`` if the radius
    exceeds 1/4 + 0.02, so a net that ends there need not be a 1/4-net: on
    d = 2 seeds 0-2999, seeds 947, 1866, 2129 and 2783 end on the count at
    radius 0.2500014-0.2500198, and most d = 3 nets end above 1/4 too.
    """
    if d < 2:
        raise DomainError(f"d must be at least 2, got {d}")
    if d > _NET_MAX_D:
        raise SizeError(f"net construction capped at d = {_NET_MAX_D}, got {d}")

    cand_stream = Stream(child_seed(seed, 1))
    net = np.empty((0, d))
    radius = math.inf
    drawn, kept = 0, -1  # candidates drawn, and the stream index of the last one kept
    while drawn - kept - 1 < _NET_REJECTIONS:
        batch = cand_stream.normals(256 * d).reshape(256, d)
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        # same arithmetic as a per-candidate norm against the kept rows
        gaps = np.linalg.norm(net[None] - batch[:, None], axis=2)
        far = np.min(gaps, axis=1, initial=np.inf) > 0.25
        added: list[np.ndarray] = []
        for i in np.flatnonzero(far).tolist():
            # every candidate since the last one kept is a rejection
            if drawn + i - kept - 1 >= _NET_REJECTIONS:
                break
            x = batch[i]
            if not added or float(np.min(np.linalg.norm(np.asarray(added) - x, axis=1))) > 0.25:
                added.append(x)
                kept = drawn + i
        drawn += len(batch)
        if added:
            net = np.vstack([net, added])
            radius = _covering_radius(net)
            if radius < 0.25 - 1e-9:
                break
    if radius > 0.25 + 0.02:
        raise EstimationError(f"quarter net covers the sphere only to {radius:.4f}, beyond 1/4 + 0.02")
    net.setflags(write=False)
    return net


def _chebyshev_fit(V: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, float]:
    """min over theta of max_i |v_i . theta - t_i|, as one exact LP.

    Variables (theta, t) minimise t subject to V theta - t <= targets and
    -V theta - t <= -targets.  Returns theta and the attained gap t.
    """
    # imported on first call, so that importing the package leaves scipy.optimize unloaded
    from scipy.optimize import linprog

    K, d = V.shape
    ones = np.ones((K, 1))
    res = linprog(
        np.r_[np.zeros(d), 1.0],
        A_ub=np.block([[V, -ones], [-V, -ones]]),
        b_ub=np.r_[targets, -targets],
        bounds=[(None, None)] * d + [(0.0, None)],
        method="highs",
    )
    if res.status != 0:
        raise EstimationError(f"Chebyshev reconciliation LP failed: {res.message}")
    return res.x[:d], float(res.fun)


def multivariate_mk(sample: ExtendedArray, epsilon: float, q: float, Sigma, seed: int) -> np.ndarray:
    """Direction-projected minimum-distance mean for all-or-nothing rows.

    Projects the complete rows onto each net direction, estimates the
    projected centre, then reconciles the centres with the theta that
    minimises the largest gap max_i |v_i . theta - centre_i|, an exact
    Chebyshev fit solved as a linear program.

    At d = 1 the centre is one ``mk_estimate``.  At d >= 2 every
    projection shares the complete rows' count and the row count, so the
    centres come from one lockstep search over the stack of sorted
    projections (``univariate._mk_search``): each direction's centre is the
    one ``mk_estimate`` gives on its projection, bit for bit, while each
    round of the searches evaluates every live direction in one batch call.
    """
    full = sample.fully_observed()
    none = ~sample.observed.any(axis=1)
    if not np.all(full | none):
        raise ModelError("rows must be fully observed or fully missing")
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    d = sample.d
    if Sigma.shape != (d, d):
        raise DimensionError(f"Sigma must be {d}x{d}")
    try:
        np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError as e:
        raise DomainError("Sigma must be positive definite") from e

    if d == 1:
        est = mk_estimate(sample, epsilon, q, math.sqrt(float(Sigma[0, 0])))
        return np.array([est.value])

    V = quarter_net(d, seed)
    X = sample.values[full]
    # one sort per direction: np.sort(X @ V.T, axis=0) rounds some projections differently
    Z = np.stack([np.sort(X @ v) for v in V])
    sigmas = [math.sqrt(float(v @ Sigma @ v)) for v in V]
    targets = np.array([est.value for est in _mk_search(Z, sample.n, epsilon, q, sigmas)])
    return _chebyshev_fit(V, targets)[0]
