"""Linear regression with a contaminated missing-response channel.

A minimum symmetrised-distance fit: the residual law is matched, at the
right band level, against the set of contaminated standard-noise
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import DimensionError, DomainError, EstimationError, check_param
from .extended import ExtendedArray
from .kolmogorov import EmpiricalSummary, RealisableSetSpec, dist_to_realisable_sym
from .models import Gaussian
from .rng import Stream, child_seed

__all__ = [
    "RegressionFit",
    "residual_set",
    "ks_regression_estimate",
]


@dataclass(frozen=True)
class RegressionFit:
    theta: np.ndarray
    objective: float
    diagnostics: dict


def _as_design(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError("design must form an (n, d) array")
    if not np.all(np.isfinite(X)):
        raise DomainError("design entries must be finite")
    return X


def residual_set(sigma: float, epsilon: float, q: float) -> RealisableSetSpec:
    """Contamination set the true-parameter residual law must belong to.

    Response missingness at level (epsilon, q) leaves the observed-residual
    density sandwiched between q(1-eps) and 1 times the noise density, which
    is the realisable set at level (1 - q(1-eps), 1).
    """
    # checked here, as the level 1 - q(1-eps) can hide a bad epsilon or q
    check_param("epsilon", epsilon)
    check_param("q", q)
    level = 1.0 - q * (1.0 - epsilon)
    if level >= 1.0:
        raise DomainError(
            f"q * (1 - epsilon) = {q * (1.0 - epsilon)!r} is below float resolution, so the residual set's "
            f"level 1 - q(1 - epsilon) rounds to 1 (q={q!r}, epsilon={epsilon!r})"
        )
    return RealisableSetSpec(Gaussian.univariate(0.0, sigma), level, 1.0)


def ks_regression_estimate(
    X, Z: ExtendedArray, sigma: float, epsilon: float, q: float, seed: int = 0
) -> RegressionFit:
    """Minimum symmetrised-distance fit of the regression parameter.

    The objective maps theta to the symmetrised band distance between the
    residual law {z_i - x_i' theta} (missing responses kept as stars) and
    ``residual_set(sigma, epsilon, q)``.  Nelder-Mead runs from 5 starts:
    OLS on the observed rows plus 4 perturbations of scale sigma divided by
    the design's smallest positive singular value, drawn from one stream on
    child_seed(seed, 1).  Restarts are independent; the winner is the lowest
    final objective with ties broken by restart index.  Nelder-Mead returns
    its best vertex, so the winner never ends above the best start value.
    """
    X = _as_design(X)
    n, d = X.shape
    vals, obs = Z.univariate()
    if len(vals) != n:
        raise DimensionError(f"need {n} responses, got {len(vals)}")
    m = int(obs.sum())
    if m == 0:
        raise EstimationError("no observed responses")
    spec = residual_set(sigma, epsilon, q)

    Xo, yo = X[obs], vals[obs]
    diagnostics: dict = {"n_observed": m, "ols_fallback": False}
    ols, _, rank, _ = np.linalg.lstsq(Xo, yo, rcond=None)
    if rank < d:
        ols = np.zeros(d)
        diagnostics["ols_fallback"] = True
        diagnostics["warning"] = "rank-deficient observed design; zero init"

    svals = np.linalg.svd(X, compute_uv=False)
    positive = svals[svals > 1e-12 * max(svals[0], 1.0)]
    scale = sigma / float(positive[-1]) if len(positive) else sigma
    shifts = Stream(child_seed(seed, 1)).normals(4 * d).reshape(4, d)
    starts = [ols] + [ols + scale * s for s in shifts]

    def objective(theta: np.ndarray) -> float:
        return dist_to_realisable_sym(EmpiricalSummary._of_sorted(np.sort(yo - Xo @ theta), n), spec)

    best = None
    start_values = []
    for idx, x0 in enumerate(starts):
        start_values.append(objective(x0))
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxfev": 2000, "fatol": 1e-10, "xatol": 1e-8},
        )
        if best is None or res.fun < best[0]:
            best = (float(res.fun), np.asarray(res.x, dtype=float), idx)

    fun, theta, idx = best
    diagnostics.update(
        {
            "objective": fun,
            "restarts": len(starts),
            "winning_restart": idx,
            "start_values": start_values,
        }
    )
    return RegressionFit(theta, fun, diagnostics)
