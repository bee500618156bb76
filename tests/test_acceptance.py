"""Release gate: ten numbered end-to-end checks, one test (line) per criterion.

Each criterion exercises the library through its public surface only and
compares against an independent route (LP or quadrature oracle, analytic
value, or a matched benchmark run).  Criteria with a stated runtime budget
assert it.  Criterion 9b is a known red: see the assertion message.
"""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import norm

from missingrobust import (
    AdversaryLaw,
    Constant,
    Custom,
    DescentConfig,
    EmpiricalSummary,
    ExtendedArray,
    Gaussian,
    PatternDistribution,
    RealisableSetSpec,
    ScenarioConfig,
    Stream,
    TailsOnly,
    ThresholdAbove,
    ThresholdBelow,
    average_of_extremes,
    child_seed,
    dist_to_realisable,
    dist_to_realisable_sym,
    empirical_quantile,
    iterative_robust_descent,
    ks_regression_estimate,
    mk_estimate,
    multivariate_mk,
    observed_mean,
    rate_table,
    realisable_sandwich_check,
    residual_set,
    robust_descent,
    run_scenario,
    sample_mcar,
    sample_realisable,
    sample_regression,
    write_records_csv,
)
from oracles import lp_realisable_distance, quad_density_moment, quad_observed_mean

CONFIG_PATH = os.path.join(os.path.dirname(__file__), "acceptance_config.json")


@contextmanager
def budget(seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeds the {seconds:.0f}s budget"


@pytest.fixture(scope="module")
def mcar_rate_records():
    # shared by criteria 4 and 10
    config = ScenarioConfig.from_json(CONFIG_PATH)
    with budget(120.0):
        records = run_scenario(config)
    return config, records


def test_criterion_01_set_distance_matches_bruteforce_oracle():
    rng = np.random.default_rng(20260817)
    with budget(10.0):
        for _ in range(200):
            m = int(rng.integers(0, 7))
            n = max(1, m + int(rng.integers(0, 5)))
            z = np.sort(rng.normal(scale=2.0, size=m))
            spec = RealisableSetSpec(
                Gaussian.univariate(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2.0))),
                float(rng.choice([0.0, 0.1, 0.3, 0.5, 0.8])),
                float(rng.choice([0.2, 0.5, 0.8, 1.0])),
            )
            summary = EmpiricalSummary(z, n)
            fast = dist_to_realisable(summary, spec)
            slow = lp_realisable_distance(z, n, spec.base.cdf(z), spec.lo_mass, spec.hi_mass)
            assert abs(fast - slow) <= 1e-6, f"m={m} n={n}: {fast} vs {slow}"

        for eps, q in ((0.0, 1.0), (0.3, 0.8), (0.7, 0.4)):
            summary = EmpiricalSummary(np.array([]), 10)
            spec = RealisableSetSpec(Gaussian.univariate(0.0, 1.0), eps, q)
            assert dist_to_realisable(summary, spec) == pytest.approx(q * (1 - eps), abs=1e-9)

        single = EmpiricalSummary(np.array([0.0]), 1)
        spec = RealisableSetSpec(Gaussian.univariate(0.0, 1.0), 0.0, 1.0)
        assert dist_to_realisable(single, spec) == pytest.approx(0.5, abs=1e-9)


def test_criterion_02_observed_mean_bias_inside_analytic_bound():
    with budget(5.0):
        for epsilon in (0.1, 0.3, 0.5):
            for q in (0.5, 1.0):
                kappa = epsilon / (q * (1.0 - epsilon))
                bound = min(kappa, math.sqrt(kappa)) + 1e-6
                for t in np.linspace(-3.0, 3.0, 13):
                    mean, _ = quad_observed_mean(
                        norm.pdf, epsilon, q, lambda x, t=t: float(x >= t), breaks=(t,)
                    )
                    assert abs(mean) <= bound, f"eps={epsilon} q={q} t={t}: |{mean}| > {bound}"


def test_criterion_03_every_mechanism_passes_the_sandwich_check():
    base = Gaussian.univariate(0.0, 1.0)
    mechanisms = [
        Constant(0.7),
        ThresholdAbove(0.5),
        ThresholdBelow(-0.3),
        TailsOnly(1.0),
        Custom(np.array([-1.0, 1.0]), np.array([0.1, 0.6, 0.95])),
    ]
    with budget(30.0):
        for k, mech in enumerate(mechanisms):
            sample = sample_realisable(base, 0.3, 0.8, mech, 100_000, seed=child_seed(3, k))
            ok, worst = realisable_sandwich_check(sample, base, 0.3, 0.8)
            assert ok, f"{type(mech).__name__}: worst sandwich violation {worst:.4f}"


def test_criterion_04_mcar_error_quantiles_decay_at_the_parametric_rate(mcar_rate_records):
    _, records = mcar_rate_records
    rows = rate_table(records, delta=0.1)
    slopes = {row["estimator"]: row["slope"] for row in rows}
    assert set(slopes) == {"observed_mean", "median_of_means"}
    for name, slope in slopes.items():
        assert slope is not None and -1.25 <= slope <= -0.8, f"{name}: slope {slope}"


def test_criterion_05_min_kolmogorov_beats_observed_mean_under_adversary():
    law = AdversaryLaw("f1", 1.0, 1.0, 0.3, 1.0)
    theta0 = law.base.mean()
    span = 1.0 + 60.0
    mass = quad_density_moment(law.density, 0, -span, span, breaks=(-law.tau, 0.0, law.tau))
    first = quad_density_moment(law.density, 1, -span, span, breaks=(-law.tau, 0.0, law.tau))
    bias = first / mass - theta0

    mk_sq, om_sq = [], []
    with budget(180.0):
        for rep in range(100):
            sample = law.sample(10_000, seed=child_seed(55, rep))
            mk_sq.append((mk_estimate(sample, 0.3, 1.0, 1.0).value - theta0) ** 2)
            om_sq.append((observed_mean(sample).value - theta0) ** 2)
    med_mk, med_om = float(np.median(mk_sq)), float(np.median(om_sq))
    assert med_mk < med_om, f"mk {med_mk:.4f} vs observed_mean {med_om:.4f}"
    assert 0.7 * abs(bias) <= math.sqrt(med_om) <= 1.3 * abs(bias)


def test_criterion_06_average_of_extremes_is_consistent_at_high_contamination():
    # reveal-only-upper-tail is the most biased mechanism in the library here
    epsilon, q, delta, sigma = 0.8, 0.5, 0.1, 1.0
    base = Gaussian.univariate(0.0, sigma)
    kappa = epsilon / (q * (1.0 - epsilon))
    q90 = {}
    for n in (1_000, 100_000):
        sq = []
        for rep in range(100):
            sample = sample_realisable(
                base, epsilon, q, ThresholdAbove(sigma), n, seed=child_seed(66, n, rep)
            )
            sq.append(average_of_extremes(sample).value ** 2)
        q90[n] = empirical_quantile(sq, delta)
        bound = (
            10.0
            * sigma**2
            * (math.log(8.0 / delta) + math.log(1.0 + 6.0 * kappa)) ** 2
            / math.log(n * q * (1.0 - epsilon))
        )
        assert q90[n] <= bound, f"n={n}: q90 {q90[n]:.3f} > bound {bound:.3f}"
    assert q90[100_000] < q90[1_000]


def _outlier_sample(n: int = 10_000, d: int = 3, seed: int = 202) -> ExtendedArray:
    base = Gaussian(np.zeros(d), np.eye(d))
    pi = PatternDistribution.independent(d, np.array([0.5, 0.8, 1.0]))
    clean = sample_mcar(base, pi, n, seed)
    values, observed = clean.values.copy(), clean.observed.copy()
    values[: n // 20] = 1000.0
    observed[: n // 20] = True
    return ExtendedArray(values, observed)


def test_criterion_07_descent_estimators_survive_gross_fully_observed_outliers():
    sample = _outlier_sample()
    complete = sample.values[sample.fully_observed()]

    cc_err = float(np.sum(complete.mean(axis=0) ** 2))
    assert cc_err >= 100.0, f"complete-case mean error {cc_err:.1f}"

    rd = robust_descent(complete, 0.15, 0.1, seed=7)
    assert float(np.sum(rd**2)) <= 1.0, f"robust_descent error {float(np.sum(rd ** 2)):.3f}"

    cfg = DescentConfig(a2=6.0, a3=1.0)
    ird = iterative_robust_descent(sample, 0.05, 0.1, cfg, seed=7)
    assert float(np.sum(ird**2)) <= 1.0, f"iterative descent error {float(np.sum(ird ** 2)):.3f}"

    small = DescentConfig(a2=1.0, a3=1.0)
    pi = PatternDistribution.independent(2, np.array([0.7, 0.9]))
    for s in range(50):
        X = Stream(child_seed(77, s)).normals(180).reshape(60, 3)
        shift = np.array([10.0, -3.0, 4.0])
        a = robust_descent(X, 0.1, 0.2, seed=s)
        b = robust_descent(X + shift, 0.1, 0.2, seed=s)
        # equivariant up to float noise flipping a stop-rule comparison
        np.testing.assert_allclose(b, a + shift, atol=1e-5)

        m = sample_mcar(Gaussian(np.zeros(2), np.eye(2)), pi, 2_000, seed=child_seed(78, s))
        c = np.array([2.0, -1.0])
        shifted = ExtendedArray(m.values + c * m.observed, m.observed)
        a = iterative_robust_descent(m, 0.0, 0.5, small, seed=s)
        b = iterative_robust_descent(shifted, 0.0, 0.5, small, seed=s)
        np.testing.assert_allclose(b, a + c, atol=1e-9)


def test_criterion_08_multivariate_mk_reduces_and_tracks_univariate_error():
    with budget(120.0):
        base1 = Gaussian.univariate(0.5, 1.0)
        for s in range(20):
            sample = sample_realisable(base1, 0.2, 0.8, ThresholdAbove(0.0), 2_000, seed=child_seed(88, s))
            uni = mk_estimate(sample, 0.2, 0.8, 1.0).value
            multi = multivariate_mk(sample, 0.2, 0.8, np.array([[1.0]]), seed=s)
            assert abs(multi[0] - uni) <= 1e-4

        theta0 = np.array([1.0, -1.0])
        base2 = Gaussian(theta0, np.eye(2))
        epsilon, q, n = 0.3, 0.8, 10_000

        per_coord_q90 = []
        projections = [
            [
                sample_realisable(base2, epsilon, q, ThresholdAbove(0.0), n, child_seed(89, rep))
                for rep in range(20)
            ]
        ]
        for j in (0, 1):
            sq = []
            for sample in projections[0]:
                col = ExtendedArray(sample.values[:, j : j + 1], sample.observed[:, j : j + 1])
                sq.append((mk_estimate(col, epsilon, q, 1.0).value - theta0[j]) ** 2)
            per_coord_q90.append(empirical_quantile(sq, 0.1))

        multi_sq = []
        for rep in range(3):
            sample = sample_realisable(base2, epsilon, q, ThresholdAbove(0.0), n, child_seed(90, rep))
            est = multivariate_mk(sample, epsilon, q, np.eye(2), seed=rep)
            multi_sq.append(float(np.sum((est - theta0) ** 2)))
    bound = 5.0 * sum(per_coord_q90)
    assert float(np.median(multi_sq)) <= bound, f"{np.median(multi_sq):.4f} > {bound:.4f}"


def _regression_draw(n, theta0, epsilon, qx, mechanism2, master, intercept=False):
    d = len(theta0)
    data_seed = child_seed(master, 0)
    X = Stream(child_seed(data_seed, 5)).normals(n * d).reshape(n, d)
    if intercept:
        X = np.column_stack([np.ones(n), X[:, 1:]])
    Z = sample_regression(X, theta0, 1.0, epsilon, qx, mechanism2, data_seed)
    return X, Z, child_seed(data_seed, 7)


def test_criterion_09a_regression_clean_data_recovery():
    theta0 = np.array([1.0, -2.0])
    with budget(60.0):
        X, Z, fit_seed = _regression_draw(2_000, theta0, 0.0, 1.0, 1.0, master=0)
        fit = ks_regression_estimate(X, Z, 1.0, 0.0, 1.0, seed=fit_seed)
    err = float(np.linalg.norm(fit.theta - theta0))
    assert err <= 0.2, f"clean recovery error {err:.3f}"


def test_criterion_09b_regression_mnar_comparison_with_least_squares():
    # intercept design: hiding low responses biases least squares along the
    # intercept by +0.2347 sigma, so the comparison is nontrivial
    theta0 = np.array([1.0, -2.0])
    epsilon, qx, n = 0.4, 0.8, 5_000
    ks_err, ols_err = [], []
    with budget(280.0):
        for rep in range(20):
            X, Z, fit_seed = _regression_draw(
                n, theta0, epsilon, qx, lambda X, y: (y >= X @ theta0).astype(float),
                master=rep, intercept=True,
            )
            vals, obs = Z.values[:, 0], Z.observed[:, 0]
            ols = np.linalg.lstsq(X[obs], vals[obs], rcond=None)[0]
            fit = ks_regression_estimate(X, Z, 1.0, epsilon, qx, seed=fit_seed)
            ks_err.append(float(np.sum((fit.theta - theta0) ** 2)))
            ols_err.append(float(np.sum((ols - theta0) ** 2)))
    med_ks, med_ols = float(np.median(ks_err)), float(np.median(ols_err))
    assert med_ks < med_ols, (
        f"median sq error: minimum-distance {med_ks:.4f} vs least-squares {med_ols:.4f}. "
        "Known red: laws shifted along the least-squares bias stay inside the wide "
        "feasible band, so the objective valley is flat around the biased point and "
        "the fit cannot separate from least squares at this sample size (the shift "
        "only clears the set-distance noise floor around n ~ 1e7)."
    )


def test_criterion_09c_regression_residuals_at_truth_are_near_members():
    theta0 = np.array([1.0, -2.0])
    n, d, delta = 2_000, 2, 0.1
    with budget(60.0):
        X, Z, _ = _regression_draw(
            n, theta0, 0.3, 0.8, lambda X, y: (y >= X @ theta0).astype(float), master=17
        )
        vals, obs = Z.values[:, 0], Z.observed[:, 0]
        resid = np.sort(vals[obs] - X[obs] @ theta0)
        d0 = dist_to_realisable_sym(EmpiricalSummary(resid, n), residual_set(1.0, 0.3, 0.8))
    bound = 1.0 * math.sqrt((d + math.log(1.0 / delta)) / n)
    assert d0 <= bound, f"membership distance {d0:.4f} > {bound:.4f}"


def test_criterion_10_results_are_byte_identical_across_worker_counts(
    mcar_rate_records, tmp_path
):
    config, serial_records = mcar_rate_records
    parallel_records = run_scenario(config, workers=8)
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_records_csv(serial_records, serial)
    write_records_csv(parallel_records, parallel)
    assert serial.read_bytes() == parallel.read_bytes()
