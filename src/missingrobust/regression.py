"""Linear regression with a contaminated missing-response channel.

Design-regularity diagnostics and the symmetrised-distance estimator whose
residual law is matched, at the right band level, against the set of
contaminated standard-noise distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import DimensionError, DomainError, EstimationError
from .extended import as_univariate
from .kolmogorov import EmpiricalSummary, RealisableSetSpec, dist_to_realisable_sym
from .models import Gaussian
from .rng import Stream, child_seed

__all__ = [
    "RegularityReport",
    "RegressionFit",
    "check_regular_design",
    "residual_set",
    "ks_regression_estimate",
]


@dataclass(frozen=True)
class RegularityReport:
    """Monte Carlo estimate of the design-regularity margin (not a certificate)."""

    beta_hat: float
    gamma: float
    worst_direction: np.ndarray
    n_directions_tested: int

    def __post_init__(self):
        if not 0.0 <= self.beta_hat <= 0.5 + 1e-12:
            raise DomainError(f"beta_hat must lie in [0, 1/2], got {self.beta_hat}")


@dataclass(frozen=True)
class RegressionFit:
    theta: np.ndarray
    objective: float
    diagnostics: dict

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.theta, dtype=dtype)


def _as_design(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise DimensionError("design must form an (n, d) array")
    if not np.all(np.isfinite(X)):
        raise DomainError("design entries must be finite")
    return X


def check_regular_design(X, gamma: float, n_dirs: int = 64, seed: int = 0) -> RegularityReport:
    """Halved worst-direction fraction of rows clearing the margin gamma.

    For d = 1 the two unit directions give the same fraction, so the value
    is exact.  For d >= 2 the infimum over the sphere is lower-bounded by a
    Monte Carlo minimum over n_dirs uniform directions; treat the report as
    an estimate.
    """
    X = _as_design(X)
    if gamma <= 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    n, d = X.shape
    if d == 1:
        frac = float(np.mean(np.abs(X[:, 0]) > gamma))
        return RegularityReport(frac / 2.0, gamma, np.array([1.0]), 2)
    dirs = Stream(child_seed(seed, 1)).normals(n_dirs * d).reshape(n_dirs, d)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    fracs = np.mean(np.abs(X @ dirs.T) > gamma, axis=0)
    i = int(np.argmin(fracs))
    return RegularityReport(float(fracs[i]) / 2.0, gamma, dirs[i].copy(), n_dirs)


def residual_set(sigma: float, epsilon: float, q: float) -> RealisableSetSpec:
    """Contamination set the true-parameter residual law must belong to.

    Response missingness at level (epsilon, q) leaves the observed-residual
    density sandwiched between q(1-eps) and 1 times the noise density, which
    is the realisable set at level (1 - q(1-eps), 1).
    """
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(f"epsilon must lie in [0, 1), got {epsilon}")
    if not 0.0 < q <= 1.0:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    return RealisableSetSpec(Gaussian.univariate(0.0, sigma), 1.0 - q * (1.0 - epsilon), 1.0)


def ks_regression_estimate(
    X, Z, sigma: float, epsilon: float, q: float, seed: int = 0
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
    vals, obs = as_univariate(Z)
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
        resid = np.sort(yo - Xo @ theta)
        return dist_to_realisable_sym(EmpiricalSummary(resid, n), spec)

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
