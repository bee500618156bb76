"""Univariate estimators: midrange, block medians, trimming, minimum distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missingrobust import (
    STAR,
    AdversaryLaw,
    DomainError,
    EmpiricalSummary,
    EstimationError,
    ExtendedArray,
    Gaussian,
    RealisableSetSpec,
    SizeError,
    Stream,
    average_of_extremes,
    child_seed,
    dist_to_realisable,
    median_of_means,
    mk_estimate,
    observed_mean,
    order_median,
    sample_mcar,
    trimmed_mean,
)
from oracles import (
    adversary_observed_mean,
    adversary_sample_by_bisection,
    extended_from_rows,
    mk_full_scan_bracket,
    sorted_block_means,
    upper_median,
)


def uni(rows):
    return extended_from_rows([(r,) for r in rows])


def screen_cases():
    """(summary, epsilon, q, sigma) on data shapes that stress the scan screen.

    Gaussian, bimodal, t(2), rounded (heavily tied) and m < 128 samples,
    each with an epsilon = 0, q = 1 variant among its levels.
    """
    levels = [(0.0, 1.0), (0.3, 1.0), (0.2, 0.8), (0.1, 0.5), (0.4, 0.9)]
    for seed, (eps, q) in enumerate(levels):
        s = Stream(child_seed(900, seed))
        m = 400 + 600 * seed
        shapes = [
            s.normals(m) + 0.5 * seed,
            np.concatenate([s.normals(m // 2) - 3.0, s.normals(m // 2) + 3.0]),
            s.normals(m) / np.sqrt(0.5 * (s.normals(m) ** 2 + s.normals(m) ** 2)),
            np.round(2.0 * s.normals(m)) / 2.0,
            1.5 * s.normals(20 + 20 * seed),
            np.round(s.normals(30 + 20 * seed)),
        ]
        for z in shapes:
            yield EmpiricalSummary(z, len(z) + 7 * seed), eps, q, 1.0 + 0.25 * seed


# (value, kolmogorov_value) as float.hex, taken from the unscreened scan
PINNED = {
    "adversary_n1e4": ("-0x1.010cb71e0d0f6p+0", "0x1.2141f5c464f60p-8"),
    "clean_gaussian": ("0x1.01925c258b318p+1", "0x1.2ad9b771491e8p-6"),
    "bimodal": ("-0x1.420187d1bf6d0p+0", "0x1.a872bb0b7c626p-3"),
    "t2": ("-0x1.8015daa228bd8p-3", "0x1.b94268ac0f94ap-5"),
    "rounded": ("-0x1.1d54ad4032c52p-3", "0x1.3a92a30553262p-4"),
    "small_m": ("0x1.0d42ca604982ap-1", "0x1.4d4950697063ap-4"),
}


def pinned_cases():
    law = AdversaryLaw("f1", 1.0, 1.0, 0.3, 1.0)
    yield "adversary_n1e4", adversary_sample_by_bisection(law, 10_000, seed=37), 0.3, 1.0, 1.0
    yield "clean_gaussian", sample_mcar(Gaussian.univariate(2.0, 1.0), 1.0, 1000, seed=13), 0.0, 1.0, 1.0
    s = Stream(41)
    bimodal = np.concatenate([s.normals(300) - 3.0, s.normals(300) + 3.0])
    yield "bimodal", EmpiricalSummary(bimodal, 700), 0.2, 0.8, 1.0
    s = Stream(43)
    n1, n2, n3 = s.normals(800), s.normals(800), s.normals(800)
    yield "t2", EmpiricalSummary(n1 / np.sqrt(0.5 * (n2**2 + n3**2)), 900), 0.1, 0.9, 1.0
    yield "rounded", EmpiricalSummary(np.round(2.0 * Stream(47).normals(2000)) / 2.0, 2500), 0.3, 0.7, 1.0
    yield "small_m", EmpiricalSummary(Stream(53).normals(50) * 1.5 + 1.0, 60), 0.2, 0.8, 1.5


class TestOrderMedian:
    def test_upper_median_convention(self):
        assert order_median([1.0, 2.0, 3.0, 4.0]) == 3.0
        assert order_median([1.0, 2.0, 3.0]) == 2.0
        assert order_median([5.0]) == 5.0

    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(1, 12)))
            assert order_median(x) == upper_median(x)

    def test_empty_rejected(self):
        with pytest.raises(SizeError):
            order_median([])


class TestAverageOfExtremes:
    def test_no_observations_returns_zero(self):
        est = average_of_extremes(uni([STAR, STAR]))
        assert est.value == 0.0 and est.meta["m_observed"] == 0

    def test_examples(self):
        assert average_of_extremes(uni([1.0, 3.0, STAR])).value == 2.0
        assert average_of_extremes(uni([-5.0, 0.0, 7.0])).value == 1.0


class TestObservedMean:
    def test_examples(self):
        assert observed_mean(uni([1.0, STAR, 3.0])).value == 2.0
        assert observed_mean(uni([5.0])).value == 5.0

    def test_all_missing_rejected(self):
        with pytest.raises(EstimationError):
            observed_mean(uni([STAR]))


class TestMedianOfMeans:
    def test_single_block_is_mean(self):
        assert median_of_means([1.0, 2.0, 3.0, 4.0], 1, seed=0).value == 2.5

    def test_singleton_blocks_are_median(self):
        for seed in range(5):
            assert median_of_means([1.0, 2.0, 100.0], 3, seed=seed).value == 2.0

    def test_golden_partition_values(self):
        # partition-dependent output on {0,0,10,10}; frozen on first run
        assert median_of_means([0.0, 0.0, 10.0, 10.0], 2, seed=0).value == 10.0
        assert median_of_means([0.0, 0.0, 10.0, 10.0], 2, seed=1).value == 5.0

    def test_block_means_route_agrees_with_reference(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=11)
        M, seed = 3, 9
        est = median_of_means(x, M, seed=seed)
        perm = Stream(child_seed(seed, 1)).permutation(len(x))
        sizes = [4, 4, 3]
        means = sorted_block_means(x[perm], sizes)
        assert est.value == upper_median(means)

    def test_validation(self):
        with pytest.raises(DomainError):
            median_of_means([], 1, seed=0)
        with pytest.raises(DomainError):
            median_of_means([1.0, 2.0], 3, seed=0)
        with pytest.raises(DomainError):
            median_of_means([1.0, 2.0], 0, seed=0)

    @given(st.floats(-100, 100), st.integers(1, 10), st.integers(0, 5))
    @settings(max_examples=30)
    def test_constant_data_fixed_point(self, c, M, seed):
        n = 10
        if M > n:
            M = n
        assert median_of_means([c] * n, M, seed=seed).value == pytest.approx(c)

    def test_translation_equivariance_seed_matched(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=20)
        a = median_of_means(x, 4, seed=2).value
        b = median_of_means(x + 3.5, 4, seed=2).value
        assert b == pytest.approx(a + 3.5, abs=1e-12)


class TestTrimmedMean:
    def test_minimum_size(self):
        with pytest.raises(SizeError):
            trimmed_mean([1.0, 2.0, 3.0], 0.1, 0.5, seed=0)

    def test_symmetric_data_estimates_symmetrically(self):
        # the half/half split leaves a hypergeometric imbalance in the mean
        # half, so a single seed need not give exactly 0; the estimate is
        # bounded by the data range and centred over seeds
        data = [-2.0, 2.0] * 500
        vals = [trimmed_mean(data, 0.0, 1.0, seed=s).value for s in range(100)]
        assert all(-2.0 <= v <= 2.0 for v in vals)
        assert abs(np.mean(vals)) < 3.0 * np.std(vals) / 10.0 + 1e-12

    def test_eta_clamped(self):
        est = trimmed_mean([1.0, 2.0, 3.0, 4.0, 5.0], 0.9, 0.01, seed=0)
        n = 5
        assert est.meta["eta"] <= 0.5 - 1.0 / n + 1e-12
        est2 = trimmed_mean(np.arange(1000.0), 0.0, 1.0, seed=0)
        assert est2.meta["eta"] >= 2.0 / 1000 - 1e-12

    def test_light_trim_tracks_first_half_mean(self):
        n = 100_000
        x = Stream(123).normals(n)
        est = trimmed_mean(x, 0.0, 1.0, seed=7)
        perm = Stream(child_seed(7, 1)).permutation(n)
        first = x[perm[: (n + 1) // 2]]
        budget = (x.max() - x.min()) * 4.0 / n
        assert abs(est.value - first.mean()) <= budget

    def test_clamp_thresholds_come_from_second_half(self):
        data = [0.0, 0.0, 0.0, 0.0, 100.0, -100.0, 1.0, 2.0]
        est = trimmed_mean(data, 0.3, 0.5, seed=4)
        assert est.meta["alpha"] <= est.meta["beta"]
        assert est.meta["alpha"] in data and est.meta["beta"] in data

    def test_contaminated_sample_resists_outliers(self):
        x = np.concatenate([Stream(5).normals(980), np.full(20, 1e6)])
        est = trimmed_mean(x, 0.02, 0.1, seed=3)
        assert abs(est.value) < 0.2

    def test_translation_and_scale_equivariance_seed_matched(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=50)
        base = trimmed_mean(x, 0.1, 0.3, seed=6).value
        assert trimmed_mean(x + 2.0, 0.1, 0.3, seed=6).value == pytest.approx(base + 2.0)
        assert trimmed_mean(3.0 * x, 0.1, 0.3, seed=6).value == pytest.approx(3.0 * base)


class TestMkEstimate:
    def test_clean_gaussian_recovery(self):
        g = Gaussian.univariate(2.0, 1.0)
        s = sample_mcar(g, 1.0, 10_000, seed=13)
        est = mk_estimate(s, 0.0, 1.0, 1.0)
        assert abs(est.value - 2.0) <= 0.1

    def test_translation_equivariance(self):
        g = Gaussian.univariate(0.0, 1.0)
        s = sample_mcar(g, 0.8, 500, seed=17)
        base = mk_estimate(s, 0.2, 0.8, 1.0).value
        shifted = ExtendedArray(s.values + 4.0, s.observed.copy())
        assert mk_estimate(shifted, 0.2, 0.8, 1.0).value == pytest.approx(
            base + 4.0, abs=1e-6
        )

    def test_scale_equivariance(self):
        g = Gaussian.univariate(1.0, 1.0)
        s = sample_mcar(g, 0.9, 400, seed=19)
        base = mk_estimate(s, 0.1, 0.9, 1.0).value
        scaled = ExtendedArray(2.5 * s.values, s.observed.copy())
        assert mk_estimate(scaled, 0.1, 0.9, 2.5).value == pytest.approx(
            2.5 * base, abs=1e-5
        )

    def test_probe_audit_local_optimality(self):
        g = Gaussian.univariate(0.0, 1.0)
        s = sample_mcar(g, 0.7, 300, seed=23)
        eps, q, sigma = 0.25, 0.7, 1.0
        est = mk_estimate(s, eps, q, sigma)
        vals, obs = s.values[:, 0], s.observed[:, 0]
        summary = EmpiricalSummary(np.sort(vals[obs]), len(vals))

        def objective(theta):
            return dist_to_realisable(
                summary, RealisableSetSpec(Gaussian.univariate(theta, sigma), eps, q)
            )

        at_est = objective(est.value)
        probes = est.value + Stream(29).normals(64) * 2.0
        for p in probes:
            assert at_est <= objective(float(p)) + 1e-9

    def test_all_missing_uses_fallback_bracket(self):
        s = uni([STAR, STAR, STAR])
        est = mk_estimate(s, 0.5, 0.5, 1.0)
        assert np.isfinite(est.value) and abs(est.value) <= 6.0

    def test_adversary_data_beats_observed_mean(self):
        # hardest realisable law around theta0 = -a: the observable mean is
        # pulled up by a computable amount while the set distance stays small
        # near the truth
        a, sigma, eps, q = 1.0, 1.0, 0.3, 1.0
        law = AdversaryLaw("f1", a, sigma, eps, q)
        theta0 = law.base.mean()
        s = law.sample(10_000, seed=37)
        mk_err = abs(mk_estimate(s, eps, q, sigma).value - theta0)
        om = observed_mean(s)
        om_err = abs(om.value - theta0)
        analytic_bias = abs(adversary_observed_mean(law) - theta0)
        assert om_err == pytest.approx(analytic_bias, abs=0.05)
        kappa = eps / (q * (1.0 - eps))
        assert mk_err <= sigma * min(kappa, kappa**0.5) + 0.1
        assert mk_err < om_err

    def test_sigma_validation(self):
        with pytest.raises(DomainError):
            mk_estimate(uni([1.0]), 0.1, 1.0, 0.0)

    def test_tie_plateau_reaching_the_left_scan_edge_returns_the_edge(self):
        # one observed value in ten rows at q(1 - eps) = 0.01: the distance is
        # flat from the scan's left end, so the estimate is z[0] - 6 sigma
        summary = EmpiricalSummary(np.array([0.0]), 10)
        est = mk_estimate(summary, 0.9, 0.1, 1.0)
        assert est.value == -6.0
        assert est.meta["kolmogorov_value"] == 0.05
        spec = RealisableSetSpec(Gaussian.univariate(est.value, 1.0), 0.9, 0.1)
        assert abs(dist_to_realisable(summary, spec) - est.meta["kolmogorov_value"]) <= 1e-9

    def test_screened_scan_matches_full_scan_bracket(self):
        cases = list(screen_cases())
        assert len(cases) >= 30
        for summary, eps, q, sigma in cases:
            est = mk_estimate(summary, eps, q, sigma)
            assert est.meta["bracket"] == mk_full_scan_bracket(summary, eps, q, sigma)

    def test_pinned_estimates(self):
        for name, data, eps, q, sigma in pinned_cases():
            est = mk_estimate(data, eps, q, sigma)
            value, kolmogorov_value = PINNED[name]
            assert est.value == float.fromhex(value), name
            assert est.meta["kolmogorov_value"] == float.fromhex(kolmogorov_value), name

    def test_search_counts_in_meta(self):
        for summary, eps, q, sigma in list(screen_cases())[::5]:
            meta = mk_estimate(summary, eps, q, sigma).meta
            assert 1 <= meta["scan_rows_exact"] <= 512
            assert meta["objective_evals"] >= 2
