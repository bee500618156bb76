"""Univariate estimators: midrange, block medians, trimming, minimum distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missingrobust import (
    AdversaryLaw,
    Constant,
    DomainError,
    EmpiricalSummary,
    EstimationError,
    ExtendedArray,
    Gaussian,
    PatternDistribution,
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
    sample_realisable,
    trimmed_mean,
)
from oracles import (
    STAR,
    adversary_observed_mean,
    adversary_sample_by_bisection,
    extended_from_rows,
    mk_full_scan_bracket,
    mk_search_fixed_bisection,
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
    "adversary_n1e4": ("-0x1.010cb71bf4cc6p+0", "0x1.2141f5c464f60p-8"),
    "clean_gaussian": ("0x1.01925c25e85eep+1", "0x1.2ad9b771491e8p-6"),
    "bimodal": ("-0x1.420187d168ae0p+0", "0x1.a872bb0b7c626p-3"),
    "t2": ("-0x1.8015da98def82p-3", "0x1.b94268ac0f94ap-5"),
    "rounded": ("-0x1.1d54ad346063ap-3", "0x1.3a92a30553262p-4"),
    "small_m": ("0x1.0d42ca6979df3p-1", "0x1.4d4950697063ap-4"),
}


def pinned_cases():
    law = AdversaryLaw("f1", 1.0, 1.0, 0.3, 1.0)
    yield "adversary_n1e4", adversary_sample_by_bisection(law, 10_000, seed=37), 0.3, 1.0, 1.0
    clean = sample_mcar(Gaussian.univariate(2.0, 1.0), PatternDistribution.all_or_nothing(1, 1.0), 1000, seed=13)
    yield "clean_gaussian", clean, 0.0, 1.0, 1.0
    s = Stream(41)
    bimodal = np.concatenate([s.normals(300) - 3.0, s.normals(300) + 3.0])
    yield "bimodal", EmpiricalSummary(bimodal, 700), 0.2, 0.8, 1.0
    s = Stream(43)
    n1, n2, n3 = s.normals(800), s.normals(800), s.normals(800)
    yield "t2", EmpiricalSummary(n1 / np.sqrt(0.5 * (n2**2 + n3**2)), 900), 0.1, 0.9, 1.0
    yield "rounded", EmpiricalSummary(np.round(2.0 * Stream(47).normals(2000)) / 2.0, 2500), 0.3, 0.7, 1.0
    yield "small_m", EmpiricalSummary(Stream(53).normals(50) * 1.5 + 1.0, 60), 0.2, 0.8, 1.5


def search_cases():
    """(label, summary, epsilon, q, sigma) for the plateau search's check against the fixed bisection.

    The adversary law at n = 1e3, tie plateaus (the one reaching the scan's
    left edge among them), a sigma near the float spacing at theta, data
    offset by 1e6 with sigma 1e-3, where the bisection stops on the few-ulp
    width rather than on 1e-9 sigma, and m = 1 to 3.
    """
    law = AdversaryLaw("f1", 1.0, 1.0, 0.3, 1.0)
    for seed in range(4):
        yield f"adversary_s{seed}", EmpiricalSummary.from_sample(law.sample(1000, seed=seed)), 0.3, 1.0, 1.0
    yield "plateau_left_edge", EmpiricalSummary(np.array([0.0]), 10), 0.9, 0.1, 1.0
    yield "plateau_two_points", EmpiricalSummary(np.array([0.0, 0.0]), 40), 0.5, 0.3, 1.0
    yield "plateau_rounded", EmpiricalSummary(np.round(2.0 * Stream(47).normals(2000)) / 2.0, 2500), 0.3, 0.7, 1.0
    yield "plateau_rounded_small", EmpiricalSummary(np.round(Stream(59).normals(40)), 60), 0.1, 0.5, 1.0
    tiny = sample_realisable(Gaussian.univariate(1.0, 1e-11), 0.1, 0.8, Constant(1.0), 500, seed=3)
    yield "sigma_1e-11", EmpiricalSummary.from_sample(tiny), 0.1, 0.8, 1e-11
    yield "offset_1e6", EmpiricalSummary(1e6 + 1e-3 * Stream(61).normals(400), 450), 0.2, 0.8, 1e-3
    for m in (1, 2, 3):
        yield f"m{m}", EmpiricalSummary(Stream(67 + m).normals(m), m + 5), 0.2, 0.8, 1.0


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
        s = sample_mcar(g, PatternDistribution.all_or_nothing(1, 1.0), 10_000, seed=13)
        est = mk_estimate(s, 0.0, 1.0, 1.0)
        assert abs(est.value - 2.0) <= 0.1

    def test_translation_equivariance(self):
        g = Gaussian.univariate(0.0, 1.0)
        s = sample_mcar(g, PatternDistribution.all_or_nothing(1, 0.8), 500, seed=17)
        base = mk_estimate(s, 0.2, 0.8, 1.0).value
        shifted = ExtendedArray(s.values + 4.0, s.observed.copy())
        assert mk_estimate(shifted, 0.2, 0.8, 1.0).value == pytest.approx(
            base + 4.0, abs=1e-6
        )

    def test_scale_equivariance(self):
        g = Gaussian.univariate(1.0, 1.0)
        s = sample_mcar(g, PatternDistribution.all_or_nothing(1, 0.9), 400, seed=19)
        base = mk_estimate(s, 0.1, 0.9, 1.0).value
        scaled = ExtendedArray(2.5 * s.values, s.observed.copy())
        assert mk_estimate(scaled, 0.1, 0.9, 2.5).value == pytest.approx(
            2.5 * base, abs=1e-5
        )

    def test_probe_audit_local_optimality(self):
        g = Gaussian.univariate(0.0, 1.0)
        s = sample_mcar(g, PatternDistribution.all_or_nothing(1, 0.7), 300, seed=23)
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

    def test_sigma_below_the_float_spacing_at_theta_ends(self):
        # 1e-6 sigma = 1e-17 is below the spacing of floats near 1.0, so the
        # golden section stops on a bracket a few ulps wide instead
        sigma = 1e-11
        s = sample_realisable(Gaussian.univariate(1.0, sigma), 0.1, 0.8, Constant(1.0), 500, seed=3)
        est = mk_estimate(s, 0.1, 0.8, sigma)
        assert abs(est.value - 1.0) <= sigma
        assert est.meta["objective_evals"] < 200

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

    @pytest.mark.parametrize("summary, eps, q, sigma", [pytest.param(*case, id=label) for label, *case in search_cases()])
    def test_plateau_bisection_stops_within_its_tolerance(self, summary, eps, q, sigma):
        ref, kolmogorov_value, _ = mk_search_fixed_bisection(summary, eps, q, sigma)
        est = mk_estimate(summary, eps, q, sigma)
        assert float(est.meta["kolmogorov_value"]).hex() == kolmogorov_value.hex()
        assert est.meta["bracket"] == mk_full_scan_bracket(summary, eps, q, sigma)
        # the width-stopped bisection takes the fixed one's midpoints, so it
        # stops on a bracket that holds the fixed search's final one
        assert 0.0 <= est.value - ref <= max(1e-9 * sigma, 4.0 * math.ulp(max(abs(est.value), abs(ref))))
        spec = RealisableSetSpec(Gaussian.univariate(0.0, sigma), eps, q)
        z, n = summary.sorted_observed, summary.n_total
        assert dist_to_realisable(EmpiricalSummary(z - est.value, n), spec) <= kolmogorov_value + 1e-9

    def test_plateau_bisection_saves_evaluations_on_the_adversary_law(self):
        law = AdversaryLaw("f1", 1.0, 1.0, 0.3, 1.0)
        for seed in range(4):
            summary = EmpiricalSummary.from_sample(law.sample(1000, seed=seed))
            _, _, evals = mk_search_fixed_bisection(summary, 0.3, 1.0, 1.0)
            assert mk_estimate(summary, 0.3, 1.0, 1.0).meta["objective_evals"] <= 0.8 * evals, seed

    @pytest.mark.parametrize(
        "summary, eps, q, sigma",
        [pytest.param(*case, id=label) for label, *case in search_cases() if label in ("adversary_s0", "plateau_rounded_small", "m3")],
    )
    def test_objective_is_lipschitz(self, summary, eps, q, sigma):
        # the plateau bisection's stopping premise, |J(a) - J(b)| <= L |a - b| with
        # L = hi_mass / (scale sqrt(2 pi)), on neighbouring points of a dense grid
        # (the triangle inequality gives every other pair)
        spec = RealisableSetSpec(Gaussian.univariate(0.0, sigma), eps, q)
        z, n = summary.sorted_observed, summary.n_total
        thetas = np.linspace(z[0] - 6.0 * sigma, z[-1] + 6.0 * sigma, 2001)
        J = np.array([dist_to_realisable(EmpiricalSummary(z - t, n), spec) for t in thetas])
        L = spec.hi_mass / (spec.base.scale * math.sqrt(2.0 * math.pi))
        steps = np.abs(np.diff(J))
        assert np.all(steps <= L * np.diff(thetas) + 1e-12)
        assert steps.max() >= 0.5 * L * np.diff(thetas).max()  # and the bound is nearly attained
