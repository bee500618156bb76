"""Contamination models: mechanisms, samplers, adversary laws, dataset IO."""

import math

import numpy as np
import pytest
from scipy.stats import kstest, norm

from missingrobust import (
    STAR,
    AdversaryLaw,
    BoundedUniform,
    Constant,
    ContaminationParams,
    ContaminationSpec,
    Custom,
    DimensionError,
    DomainError,
    Gaussian,
    PatternDistribution,
    TailsOnly,
    ThresholdAbove,
    ThresholdBelow,
    TwoPoint,
    adversary_f1_f2,
    adversary_two_point,
    all_star_contaminant,
    as_univariate,
    point_contaminant,
    read_dataset,
    realisable_sandwich_check,
    sample_arbitrary,
    sample_mcar,
    sample_realisable,
    sample_regression,
    write_dataset,
)
from oracles import quad_density_moment, quad_observed_mean


class TestMechanisms:
    def test_constant_values_and_validation(self):
        m = Constant(0.4)
        assert np.allclose(m.reveal_prob([-3.0, 0.0, 5.0]), 0.4)
        with pytest.raises(DomainError):
            Constant(1.2)

    def test_threshold_above_includes_boundary(self):
        m = ThresholdAbove(1.0)
        assert list(m.reveal_prob([0.9, 1.0, 1.1])) == [0.0, 1.0, 1.0]

    def test_threshold_below_includes_boundary(self):
        m = ThresholdBelow(1.0)
        assert list(m.reveal_prob([0.9, 1.0, 1.1])) == [1.0, 1.0, 0.0]

    def test_tails_only(self):
        m = TailsOnly(2.0)
        assert list(m.reveal_prob([-3.0, -1.0, 0.0, 2.0, 3.0])) == [1.0, 0.0, 0.0, 1.0, 1.0]

    def test_custom_lookup(self):
        m = Custom(knots=(0.0, 1.0), levels=(0.1, 0.5, 0.9))
        assert list(m.reveal_prob([-1.0, 0.0, 0.5, 1.0, 2.0])) == [0.1, 0.1, 0.5, 0.5, 0.9]

    def test_custom_validation(self):
        with pytest.raises(DimensionError):
            Custom(knots=(0.0,), levels=(0.1,))
        with pytest.raises(DomainError):
            Custom(knots=(1.0, 0.0), levels=(0.1, 0.2, 0.3))
        # out-of-range levels clamp rather than fail
        assert Custom(knots=(0.0,), levels=(-1.0, 2.0)).levels == (0.0, 1.0)


class TestBaseLaws:
    def test_gaussian_univariate(self):
        g = Gaussian.univariate(2.0, 3.0)
        assert g.dim == 1 and g.mean() == 2.0 and g.scale == 3.0
        assert g.cdf(2.0) == pytest.approx(0.5)
        assert g.ppf(g.cdf(4.7)) == pytest.approx(4.7)

    def test_gaussian_vector_sampling_moments(self):
        g = Gaussian(np.array([1.0, -1.0]), 4.0 * np.eye(2))
        s = sample_mcar(g, PatternDistribution.always(2), 100_000, seed=3)
        assert np.allclose(s.values.mean(axis=0), [1.0, -1.0], atol=0.05)
        assert np.allclose(s.values.std(axis=0), 2.0, atol=0.05)

    def test_two_point_mean_and_cdf(self):
        p = TwoPoint(lo=-1.0, hi=3.0, p_hi=0.25)
        assert p.mean() == pytest.approx(0.0)
        assert p.cdf(-1.0) == pytest.approx(0.75)
        assert p.cdf(2.9) == pytest.approx(0.75)
        assert p.cdf(3.0) == pytest.approx(1.0)

    def test_bounded_uniform_moments(self):
        b = BoundedUniform(-2.0, 6.0)
        assert b.mean() == pytest.approx(2.0)
        assert quad_density_moment(b.pdf, 0, -3.0, 7.0) == pytest.approx(1.0, abs=1e-9)

    def test_sub_weibull_density_integrates(self):
        from missingrobust import SubWeibullFolded

        w = SubWeibullFolded(r=1.5, sigma=1.0)
        assert quad_density_moment(w.pdf, 0, 0.0, 60.0) == pytest.approx(1.0, abs=1e-6)
        assert quad_density_moment(w.pdf, 1, 0.0, 60.0) == pytest.approx(w.mean(), abs=1e-6)


class TestMcarSampler:
    def test_deterministic(self):
        g = Gaussian.univariate(0.0, 1.0)
        assert sample_mcar(g, 0.7, 100, seed=5) == sample_mcar(g, 0.7, 100, seed=5)
        assert sample_mcar(g, 0.7, 100, seed=5) != sample_mcar(g, 0.7, 100, seed=6)

    def test_reveal_frequency_and_base_moments(self):
        g = Gaussian.univariate(1.0, 2.0)
        s = sample_mcar(g, 0.6, 200_000, seed=1)
        vals, obs = as_univariate(s)
        assert obs.mean() == pytest.approx(0.6, abs=0.01)
        # masking is independent of the values, so the observed slice keeps
        # the base moments
        assert vals[obs].mean() == pytest.approx(1.0, abs=0.05)
        assert vals[obs].std() == pytest.approx(2.0, abs=0.05)

    def test_independent_pattern_marginals(self):
        g = Gaussian(np.zeros(3), np.eye(3))
        pi = PatternDistribution.independent(3, [0.5, 0.8, 1.0])
        s = sample_mcar(g, pi, 100_000, seed=2)
        assert np.allclose(s.observed.mean(axis=0), [0.5, 0.8, 1.0], atol=0.01)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            sample_mcar(Gaussian.univariate(0.0, 1.0), 0.5, -1, seed=0)


class TestRealisableSampler:
    def test_zero_epsilon_replays_mcar_exactly(self):
        g = Gaussian.univariate(0.0, 1.0)
        a = sample_realisable(g, 0.0, 0.7, ThresholdAbove(0.0), 5000, seed=9)
        b = sample_mcar(g, 0.7, 5000, seed=9)
        assert a == b

    def test_sandwich_holds_for_every_mechanism(self):
        g = Gaussian.univariate(0.0, 1.0)
        mechanisms = [
            Constant(0.3),
            ThresholdAbove(0.5),
            ThresholdBelow(-0.5),
            TailsOnly(1.0),
            Custom(knots=(-1.0, 1.0), levels=(0.2, 0.9, 0.4)),
        ]
        for mech in mechanisms:
            s = sample_realisable(g, 0.3, 0.8, mech, 100_000, seed=11)
            ok, worst = realisable_sandwich_check(s, g, 0.3, 0.8)
            assert ok, f"{mech.name}: worst violation {worst}"

    def test_observed_mean_matches_quadrature(self):
        g = Gaussian.univariate(0.0, 1.0)
        mech = ThresholdAbove(0.5)
        s = sample_realisable(g, 0.3, 0.8, mech, 400_000, seed=13)
        vals, obs = as_univariate(s)
        want, mass = quad_observed_mean(
            g.pdf, 0.3, 0.8, lambda x: mech.reveal_prob(x), breaks=(0.5,)
        )
        assert obs.mean() == pytest.approx(mass, abs=0.005)
        assert vals[obs].mean() == pytest.approx(want, abs=0.01)

    def test_vector_rows_all_or_nothing(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        s = sample_realisable(g, 0.2, 0.9, ThresholdAbove(0.0), 5000, seed=7)
        rowmask = s.observed
        assert np.all(rowmask.all(axis=1) | (~rowmask).all(axis=1))

    def test_parameter_validation(self):
        g = Gaussian.univariate(0.0, 1.0)
        with pytest.raises(DomainError):
            sample_realisable(g, 1.0, 0.5, Constant(1.0), 10, seed=0)
        with pytest.raises(DomainError):
            sample_realisable(g, 0.1, 0.0, Constant(1.0), 10, seed=0)


class TestArbitrarySampler:
    def test_zero_epsilon_replays_mcar_exactly(self):
        g = Gaussian.univariate(0.0, 1.0)
        a = sample_arbitrary(g, 0.0, 0.7, all_star_contaminant(1), 5000, seed=21)
        b = sample_mcar(g, 0.7, 5000, seed=21)
        assert a == b

    def test_all_star_contaminant_thins_observations(self):
        g = Gaussian.univariate(0.0, 1.0)
        s = sample_arbitrary(g, 0.25, 0.8, all_star_contaminant(1), 200_000, seed=22)
        _, obs = as_univariate(s)
        assert obs.mean() == pytest.approx(0.75 * 0.8, abs=0.01)

    def test_point_contaminant_injects_atom(self):
        g = Gaussian.univariate(0.0, 1.0)
        s = sample_arbitrary(g, 0.25, 1.0, point_contaminant(50.0), 200_000, seed=23)
        vals, obs = as_univariate(s)
        assert np.mean(vals[obs] == 50.0) == pytest.approx(0.25, abs=0.01)

    def test_dimension_mismatch_rejected(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        with pytest.raises(DimensionError):
            sample_arbitrary(g, 0.1, 0.5, point_contaminant(1.0), 10, seed=0)


class TestAdversaryLaw:
    def law(self, name="f1", a=1.0, sigma=1.0, epsilon=0.3, q=0.8):
        return adversary_f1_f2(name, a, sigma, epsilon, q)

    def test_density_stays_in_sandwich(self):
        law = self.law()
        grid = np.linspace(-8.0, 8.0, 2001)
        base = law.base.pdf(grid)
        f = law.density(grid)
        assert np.all(f >= law.lo_mass * base - 1e-12)
        assert np.all(f <= law.hi_mass * base + 1e-12)

    def test_density_integrates_to_real_mass(self):
        for name in ("f1", "f2"):
            law = self.law(name)
            lo, hi = -1.0 - 60.0, 1.0 + 60.0
            breaks = (-law.tau, 0.0, law.tau)
            mass = quad_density_moment(law.density, 0, lo, hi, breaks=breaks)
            assert mass == pytest.approx(law.real_mass(), abs=1e-9)
            assert law.star_mass == pytest.approx(1.0 - mass, abs=1e-9)

    def test_cdf_matches_density_integral(self):
        law = self.law()
        for x in (-2.0, -0.5, 0.0, 0.1, law.tau, 1.0, 3.0):
            want = quad_density_moment(law.density, 0, -61.0, x, breaks=(0.0, law.tau))
            assert law.cdf(x) == pytest.approx(want, abs=1e-9)

    def test_observed_mean_matches_quadrature(self):
        for name in ("f1", "f2"):
            for eps, q in ((0.1, 1.0), (0.3, 0.8), (0.5, 0.5)):
                law = self.law(name, epsilon=eps, q=q)
                breaks = (-law.tau, 0.0, law.tau)
                num = quad_density_moment(law.density, 1, -61.0, 61.0, breaks=breaks)
                den = quad_density_moment(law.density, 0, -61.0, 61.0, breaks=breaks)
                assert law.observed_mean() == pytest.approx(num / den, abs=1e-9)

    def test_f2_mirrors_f1(self):
        f1, f2 = self.law("f1"), self.law("f2")
        grid = np.linspace(-5.0, 5.0, 101)
        assert np.allclose(f2.density(grid), f1.density(-grid))
        assert f2.observed_mean() == pytest.approx(-f1.observed_mean())
        assert f2.base.mean() == pytest.approx(-f1.base.mean())

    def test_observed_mean_pulls_away_from_target(self):
        # the whole point of the construction: the observable mean sits on
        # the wrong side of the target by a near-maximal margin
        law = self.law("f1")
        assert law.observed_mean() > law.base.mean()

    def test_sampling_matches_law(self):
        law = self.law()
        s = law.sample(200_000, seed=31)
        vals, obs = as_univariate(s)
        assert obs.mean() == pytest.approx(law.real_mass(), abs=0.01)
        assert vals[obs].mean() == pytest.approx(law.observed_mean(), abs=0.01)
        stat = kstest(vals[obs], lambda x: law.cdf(x) / law.real_mass()).statistic
        assert stat < 0.005

    def test_name_validation(self):
        with pytest.raises(DomainError):
            adversary_f1_f2("f3", 1.0, 1.0, 0.3, 0.8)


class TestTwoPointPair:
    def test_construction_identities(self):
        pair = adversary_two_point(2.0, 1.0, 0.3, 0.8)
        lo_mass = 0.8 * 0.7
        assert pair.a == pytest.approx(lo_mass / (lo_mass + 0.3))
        assert pair.b == pytest.approx(0.5 * pair.a ** (-0.5))
        assert pair.gap == pytest.approx(pair.theta2 - pair.theta1)
        assert pair.gap > 0
        assert sum(pair.r0.values()) == pytest.approx(1.0)

    def test_bases_have_bounded_central_moment(self):
        for r in (2.0, 4.0):
            pair = adversary_two_point(r, 1.5, 0.3, 0.8)
            for spec, theta in ((pair.spec1, pair.theta1), (pair.spec2, pair.theta2)):
                p = spec.base
                m = (1 - p.p_hi) * abs(p.lo - theta) ** r + p.p_hi * abs(p.hi - theta) ** r
                assert m <= 1.5**r + 1e-12

    def test_both_specs_induce_the_shared_law(self):
        pair = adversary_two_point(2.0, 1.0, 0.3, 0.8)
        n = 200_000
        for which in (1, 2):
            s = pair.sample(n, seed=41, which=which)
            vals, obs = as_univariate(s)
            freq_star = 1.0 - obs.mean()
            freq_lo = np.mean(vals[obs] == -pair.b)
            freq_hi = np.mean(vals[obs] == pair.b)
            assert freq_star == pytest.approx(pair.r0[STAR], abs=0.01)
            assert freq_lo * obs.mean() == pytest.approx(pair.r0[-pair.b], abs=0.01)
            assert freq_hi * obs.mean() == pytest.approx(pair.r0[pair.b], abs=0.01)

    def test_moment_order_validated(self):
        with pytest.raises(DomainError):
            adversary_two_point(1.5, 1.0, 0.3, 0.8)


class TestRegressionSampler:
    def design(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return np.column_stack([np.ones(n), rng.normal(size=n)])

    def test_deterministic(self):
        X = self.design(200)
        a = sample_regression(X, [1.0, 2.0], 1.0, 0.1, 0.8, 1.0, seed=3)
        b = sample_regression(X, [1.0, 2.0], 1.0, 0.1, 0.8, 1.0, seed=3)
        c = sample_regression(X, [1.0, 2.0], 1.0, 0.1, 0.8, 1.0, seed=4)
        assert a == b and a != c

    def test_clean_channel_statistics(self):
        n = 200_000
        X = self.design(n)
        theta0 = np.array([1.0, -2.0])
        s = sample_regression(X, theta0, 0.5, 0.0, 0.75, 1.0, seed=4)
        vals, obs = as_univariate(s)
        assert obs.mean() == pytest.approx(0.75, abs=0.01)
        # the ignorable channel is independent of the noise, so observed
        # residuals keep the noise moments
        resid = (vals - X @ theta0)[obs]
        assert resid.mean() == pytest.approx(0.0, abs=0.01)
        assert resid.std() == pytest.approx(0.5, abs=0.01)

    def test_callable_reveal_probabilities(self):
        n = 100_000
        X = self.design(n)
        q_x = lambda X: np.where(X[:, 1] > 0, 1.0, 0.5)
        s = sample_regression(X, [0.0, 0.0], 1.0, 0.0, q_x, 1.0, seed=5)
        _, obs = as_univariate(s)
        assert obs[X[:, 1] > 0].mean() == pytest.approx(1.0)
        assert obs[X[:, 1] <= 0].mean() == pytest.approx(0.5, abs=0.01)

    def test_response_dependent_channel_biases_observations(self):
        n = 200_000
        X = self.design(n)
        mech2 = lambda X, y: (y >= X @ np.array([0.0, 0.0])).astype(float)
        s = sample_regression(X, [0.0, 0.0], 1.0, 0.4, 1.0, mech2, seed=6)
        vals, obs = as_univariate(s)
        # revealing only nonnegative responses on the contaminated share
        # drags the observed mean up
        assert vals[obs].mean() > 0.05

    def test_q_floor_enforced(self):
        X = self.design(100)
        with pytest.raises(DomainError):
            sample_regression(X, [0.0, 0.0], 1.0, 0.0, 0.3, 1.0, seed=0, q_min=0.5)

    def test_parameter_validation(self):
        X = self.design(10)
        with pytest.raises(DomainError):
            sample_regression(X, [0.0, 0.0], 0.0, 0.1, 0.8, 1.0, seed=0)
        with pytest.raises(DomainError):
            sample_regression(X, [0.0, 0.0], 1.0, 0.1, 1.5, 1.0, seed=0)
        with pytest.raises(DomainError):
            sample_regression(X, [0.0, 0.0], 1.0, 0.1, 0.8, 2.0, seed=0)


class TestSandwichCheck:
    def test_clean_mcar_passes(self):
        g = Gaussian.univariate(0.0, 1.0)
        s = sample_mcar(g, 0.8, 100_000, seed=51)
        ok, worst = realisable_sandwich_check(s, g, 0.0, 0.8)
        assert ok and worst <= 0.0

    def test_shifted_sample_fails(self):
        g = Gaussian.univariate(0.0, 1.0)
        s = sample_mcar(Gaussian.univariate(2.0, 1.0), 0.8, 100_000, seed=52)
        ok, worst = realisable_sandwich_check(s, g, 0.1, 0.8)
        assert not ok and worst > 0.0


class TestContaminationSpec:
    def test_labels(self):
        g = Gaussian.univariate(0.0, 1.0)
        params = ContaminationParams(0.3, 0.8)
        spec = ContaminationSpec("realisable", g, params, mechanism=ThresholdAbove(0.0))
        assert spec.label() == "realisable:gaussian:threshold_above"
        spec2 = ContaminationSpec("mcar", g, ContaminationParams(0.0, 0.8))
        assert spec2.label() == "mcar:gaussian"

    def test_theta0_is_base_mean(self):
        g = Gaussian.univariate(3.0, 1.0)
        spec = ContaminationSpec("mcar", g, ContaminationParams(0.0, 1.0))
        assert spec.theta0 == 3.0

    def test_sample_dispatch(self):
        g = Gaussian.univariate(0.0, 1.0)
        spec = ContaminationSpec(
            "arbitrary", g, ContaminationParams(0.2, 0.9), contaminant=point_contaminant(9.0)
        )
        s = spec.sample(50_000, seed=61)
        want = sample_arbitrary(g, 0.2, 0.9, point_contaminant(9.0), 50_000, seed=61)
        assert s == want


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        g = Gaussian(np.zeros(2), np.eye(2))
        pi = PatternDistribution.independent(2, [0.5, 0.9])
        s = sample_mcar(g, pi, 200, seed=71)
        path = tmp_path / "dump.tsv"
        write_dataset(path, s, model="mcar:gaussian", seed=71)
        back, meta = read_dataset(path)
        assert back == s
        assert meta["d"] == 2 and meta["model"] == "mcar:gaussian" and meta["seed"] == 71

    def test_missing_cells_round_trip_as_star(self, tmp_path):
        from missingrobust import ExtendedArray

        s = ExtendedArray.from_rows([(1.5, STAR), (STAR, -2.5)])
        path = tmp_path / "stars.tsv"
        write_dataset(path, s, model="manual", seed=0)
        back, _ = read_dataset(path)
        assert back.row(0) == (1.5, STAR)
        assert back.row(1) == (STAR, -2.5)
