"""Regression estimator: residual sets, distance fitting."""

import math

import numpy as np
import pytest

from missingrobust import (
    DimensionError,
    DomainError,
    EmpiricalSummary,
    EstimationError,
    ExtendedArray,
    RegressionFit,
    Stream,
    child_seed,
    dist_to_realisable_sym,
    ks_regression_estimate,
    residual_set,
    sample_regression,
)


def make_design(n, d, data_seed):
    g = Stream(child_seed(data_seed, 5)).normals(n * d).reshape(n, d)
    return g


class TestResidualSet:
    def test_band_levels(self):
        spec = residual_set(2.0, 0.3, 0.8)
        assert spec.lo_mass == pytest.approx(0.8 * 0.7)
        assert spec.hi_mass == pytest.approx(1.0)
        assert spec.base.scale == 2.0 and spec.base.mean() == 0.0

    def test_no_missingness_still_allows_full_band(self):
        spec = residual_set(1.0, 0.0, 1.0)
        assert spec.lo_mass == pytest.approx(1.0)
        assert spec.hi_mass == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            residual_set(0.0, 0.1, 0.8)
        with pytest.raises(DomainError):
            residual_set(1.0, 0.1, 0.0)

    def test_q_below_float_resolution_names_q_and_epsilon(self):
        # q (1 - epsilon) = 9e-18 leaves the level 1 - q (1 - epsilon) at 1.0
        with pytest.raises(DomainError, match=r"q \* \(1 - epsilon\).*below float resolution.*q=1e-17, epsilon=0\.1"):
            residual_set(1.0, 0.1, 1e-17)
        assert residual_set(1.0, 0.1, 1e-15).lo_mass > 0.0


class TestKsRegression:
    def fit_once(self, n=2000, theta0=(1.0, -2.0), eps=0.0, qx=1.0, mech=1.0, master=0):
        ds = child_seed(master, 0)
        X = make_design(n, len(theta0), ds)
        Z = sample_regression(X, np.array(theta0), 1.0, eps, qx, mech, seed=ds)
        fit = ks_regression_estimate(X, Z, 1.0, eps, qx, seed=child_seed(ds, 7))
        return X, Z, fit

    def test_clean_recovery(self):
        _, _, fit = self.fit_once()
        err = float(np.sum((fit.theta - np.array([1.0, -2.0])) ** 2))
        assert err <= 0.2

    def test_result_shape_and_diagnostics(self):
        _, _, fit = self.fit_once(n=500)
        assert isinstance(fit, RegressionFit)
        assert fit.theta.shape == (2,)
        diag = fit.diagnostics
        assert diag["restarts"] == 5
        assert 0 <= diag["winning_restart"] < 5
        assert len(diag["start_values"]) == 5
        assert diag["objective"] == pytest.approx(fit.objective)
        assert diag["n_observed"] > 0
        assert fit.objective <= min(diag["start_values"]) + 1e-12

    def test_shift_covariance_in_responses(self):
        # the objective landscape shifts exactly with Z + Xc; the optimizer
        # itself is not translation-covariant (its initial simplex depends on
        # the start coordinates), so the minimizers agree only up to the
        # width of the valley floor
        n, d = 800, 2
        ds = child_seed(3, 0)
        X = make_design(n, d, ds)
        Z = sample_regression(X, np.array([0.5, 1.0]), 1.0, 0.1, 0.9, 1.0, seed=ds)
        c = np.array([2.0, -1.0])
        Zc = ExtendedArray((Z.values[:, 0] + X @ c)[:, None], Z.observed.copy())
        a = ks_regression_estimate(X, Z, 1.0, 0.1, 0.9, seed=11)
        b = ks_regression_estimate(X, Zc, 1.0, 0.1, 0.9, seed=11)

        vals, obs = Zc.values[:, 0], Zc.observed[:, 0]
        resid = np.sort((vals - X @ (a.theta + c))[obs])
        moved = dist_to_realisable_sym(
            EmpiricalSummary(resid, n), residual_set(1.0, 0.1, 0.9)
        )
        assert moved == pytest.approx(a.objective, abs=1e-12)
        assert b.objective <= a.objective + 1e-3
        assert np.allclose(b.theta, a.theta + c, atol=0.1)

    def test_no_observed_responses_rejected(self):
        X = make_design(50, 2, 1)
        Z = ExtendedArray(np.zeros((50, 1)), np.zeros((50, 1), dtype=bool))
        with pytest.raises(EstimationError):
            ks_regression_estimate(X, Z, 1.0, 0.1, 0.5)

    def test_flat_design_rejected(self):
        X = make_design(50, 1, 1)
        Z = sample_regression(X, np.array([1.0]), 1.0, 0.0, 1.0, 1.0, seed=3)
        with pytest.raises(DimensionError):
            ks_regression_estimate(X[:, 0], Z, 1.0, 0.0, 1.0)

    def test_rank_deficient_design_falls_back(self):
        n = 200
        col = Stream(9).normals(n)
        X = np.column_stack([col, 2.0 * col])
        Z = sample_regression(X, np.array([1.0, 0.0]), 1.0, 0.0, 1.0, 1.0, seed=5)
        fit = ks_regression_estimate(X, Z, 1.0, 0.0, 1.0, seed=7)
        assert fit.diagnostics["ols_fallback"] is True
        assert "warning" in fit.diagnostics
        assert np.all(np.isfinite(fit.theta))

    def test_objective_is_residual_set_distance(self):
        X, Z, fit = self.fit_once(n=400, eps=0.2, qx=0.8)
        vals, obs = Z.values[:, 0], Z.observed[:, 0]
        resid = np.sort((vals - X @ fit.theta)[obs])
        summary = EmpiricalSummary(resid, len(vals))
        want = dist_to_realisable_sym(summary, residual_set(1.0, 0.2, 0.8))
        assert fit.objective == pytest.approx(want, abs=1e-12)

    def test_true_theta_residuals_stay_in_band(self):
        # membership rate: at theta0 the residual law lies in the residual
        # set, so the distance concentrates at the sampling scale
        n, d, eps, qx = 2000, 2, 0.3, 0.8
        theta0 = np.array([1.0, -2.0])
        C, delta = 1.0, 0.1
        bound = C * math.sqrt((d + math.log(1.0 / delta)) / n)
        ds = child_seed(17, 0)
        X = make_design(n, d, ds)
        mech = lambda X, y: (y >= X @ theta0).astype(float)
        Z = sample_regression(X, theta0, 1.0, eps, qx, mech, seed=ds)
        vals, obs = Z.values[:, 0], Z.observed[:, 0]
        resid = np.sort((vals - X @ theta0)[obs])
        d0 = dist_to_realisable_sym(EmpiricalSummary(resid, n), residual_set(1.0, eps, qx))
        assert d0 <= bound
