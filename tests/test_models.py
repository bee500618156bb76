"""Contamination models: mechanisms, samplers, adversary laws, dataset IO."""

import hashlib
import math
from functools import partial

import numpy as np
import pytest
from scipy.stats import kstest, norm

from missingrobust import (
    AdversaryLaw,
    Constant,
    ContaminationSpec,
    Custom,
    DimensionError,
    DomainError,
    Gaussian,
    PatternDistribution,
    Stream,
    TailsOnly,
    ThresholdAbove,
    ThresholdBelow,
    TwoPoint,
    adversary_two_point,
    all_star_contaminant,
    point_contaminant,
    read_dataset,
    sample_arbitrary,
    sample_mcar,
    sample_realisable,
    sample_regression,
    write_dataset,
)
from oracles import (
    STAR,
    adversary_density,
    adversary_observed_mean,
    adversary_sample_by_bisection,
    adversary_star_mass,
    extended_from_rows,
    gaussian_pdf,
    gaussian_ppf,
    quad_density_moment,
    quad_observed_mean,
    realisable_sandwich_check,
    two_point_shared_law,
)


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
        assert gaussian_ppf(g, g.cdf(4.7)) == pytest.approx(4.7)

    def test_gaussian_vector_sampling_moments(self):
        g = Gaussian(np.array([1.0, -1.0]), 4.0 * np.eye(2))
        s = sample_mcar(g, PatternDistribution.all_or_nothing(2, 1.0), 100_000, seed=3)
        assert np.allclose(s.values.mean(axis=0), [1.0, -1.0], atol=0.05)
        assert np.allclose(s.values.std(axis=0), 2.0, atol=0.05)

    def test_two_point_mean_and_cdf(self):
        p = TwoPoint(lo=-1.0, hi=3.0, p_hi=0.25)
        assert p.mean() == pytest.approx(0.0)
        x = p.sample_values(Stream(7), 100_000)[:, 0]
        assert set(np.unique(x)) == {-1.0, 3.0}
        assert np.mean(x <= 2.9) == pytest.approx(0.75, abs=0.01)


class TestMcarSampler:
    def test_deterministic(self):
        g, pi = Gaussian.univariate(0.0, 1.0), PatternDistribution.all_or_nothing(1, 0.7)
        assert sample_mcar(g, pi, 100, seed=5) == sample_mcar(g, pi, 100, seed=5)
        assert sample_mcar(g, pi, 100, seed=5) != sample_mcar(g, pi, 100, seed=6)

    def test_reveal_frequency_and_base_moments(self):
        g = Gaussian.univariate(1.0, 2.0)
        s = sample_mcar(g, PatternDistribution.all_or_nothing(1, 0.6), 200_000, seed=1)
        vals, obs = s.univariate()
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
            sample_mcar(Gaussian.univariate(0.0, 1.0), PatternDistribution.all_or_nothing(1, 0.5), -1, seed=0)


class TestRealisableSampler:
    def test_zero_epsilon_replays_mcar_exactly(self):
        g = Gaussian.univariate(0.0, 1.0)
        a = sample_realisable(g, 0.0, 0.7, ThresholdAbove(0.0), 5000, seed=9)
        b = sample_mcar(g, PatternDistribution.all_or_nothing(1, 0.7), 5000, seed=9)
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
        vals, obs = s.univariate()
        want, mass = quad_observed_mean(
            partial(gaussian_pdf, g), 0.3, 0.8, lambda x: mech.reveal_prob(x), breaks=(0.5,)
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
        pi = PatternDistribution.all_or_nothing(1, 0.7)
        a = sample_arbitrary(g, 0.0, pi, all_star_contaminant(1), 5000, seed=21)
        b = sample_mcar(g, pi, 5000, seed=21)
        assert a == b

    def test_all_star_contaminant_thins_observations(self):
        g = Gaussian.univariate(0.0, 1.0)
        pi = PatternDistribution.all_or_nothing(1, 0.8)
        s = sample_arbitrary(g, 0.25, pi, all_star_contaminant(1), 200_000, seed=22)
        _, obs = s.univariate()
        assert obs.mean() == pytest.approx(0.75 * 0.8, abs=0.01)

    def test_point_contaminant_injects_atom(self):
        g = Gaussian.univariate(0.0, 1.0)
        pi = PatternDistribution.all_or_nothing(1, 1.0)
        s = sample_arbitrary(g, 0.25, pi, point_contaminant(50.0), 200_000, seed=23)
        vals, obs = s.univariate()
        assert np.mean(vals[obs] == 50.0) == pytest.approx(0.25, abs=0.01)

    def test_dimension_mismatch_rejected(self):
        g1, g2 = Gaussian.univariate(0.0, 1.0), Gaussian(np.zeros(2), np.eye(2))
        with pytest.raises(DimensionError):
            sample_arbitrary(g2, 0.1, PatternDistribution.all_or_nothing(2, 0.5), point_contaminant(1.0), 10, seed=0)
        with pytest.raises(DimensionError):
            sample_mcar(g2, PatternDistribution.all_or_nothing(1, 0.5), 10, seed=0)
        # a float reveal: only the realisable sampler takes a scalar q
        with pytest.raises(DimensionError):
            sample_mcar(g1, 0.5, 10, seed=0)
        with pytest.raises(DimensionError):
            sample_arbitrary(g1, 0.1, 0.5, all_star_contaminant(1), 10, seed=0)
        with pytest.raises(DimensionError):
            ContaminationSpec("mcar", g1, 0.0, 0.5)
        with pytest.raises(DimensionError):
            ContaminationSpec("arbitrary", g1, 0.1, 0.5, contaminant=all_star_contaminant(1))


class TestAdversaryLaw:
    def law(self, name="f1", a=1.0, sigma=1.0, epsilon=0.3, q=0.8):
        return AdversaryLaw(name, a, sigma, epsilon, q)

    def test_density_stays_in_sandwich(self):
        law = self.law()
        grid = np.linspace(-8.0, 8.0, 2001)
        base = gaussian_pdf(law.base, grid)
        f = adversary_density(law, grid)
        assert np.all(f >= law.lo_mass * base - 1e-12)
        assert np.all(f <= law.hi_mass * base + 1e-12)

    def test_density_integrates_to_real_mass(self):
        for name in ("f1", "f2"):
            law = self.law(name)
            lo, hi = -1.0 - 60.0, 1.0 + 60.0
            breaks = (-law.tau, 0.0, law.tau)
            mass = quad_density_moment(partial(adversary_density, law), 0, lo, hi, breaks=breaks)
            assert mass == pytest.approx(law.real_mass(), abs=1e-9)
            assert adversary_star_mass(law) == pytest.approx(1.0 - mass, abs=1e-9)

    def test_cdf_matches_density_integral(self):
        law = self.law()
        density = partial(adversary_density, law)
        for x in (-2.0, -0.5, 0.0, 0.1, law.tau, 1.0, 3.0):
            want = quad_density_moment(density, 0, -61.0, x, breaks=(0.0, law.tau))
            assert law.cdf(x) == pytest.approx(want, abs=1e-9)

    def test_observed_mean_matches_quadrature(self):
        for name in ("f1", "f2"):
            for eps, q in ((0.1, 1.0), (0.3, 0.8), (0.5, 0.5)):
                law = self.law(name, epsilon=eps, q=q)
                breaks = (-law.tau, 0.0, law.tau)
                density = partial(adversary_density, law)
                num = quad_density_moment(density, 1, -61.0, 61.0, breaks=breaks)
                den = quad_density_moment(density, 0, -61.0, 61.0, breaks=breaks)
                assert adversary_observed_mean(law) == pytest.approx(num / den, abs=1e-9)

    def test_f2_mirrors_f1(self):
        f1, f2 = self.law("f1"), self.law("f2")
        grid = np.linspace(-5.0, 5.0, 101)
        assert np.allclose(adversary_density(f2, grid), adversary_density(f1, -grid))
        assert adversary_observed_mean(f2) == pytest.approx(-adversary_observed_mean(f1))
        assert f2.base.mean() == pytest.approx(-f1.base.mean())

    def test_observed_mean_pulls_away_from_target(self):
        # the whole point of the construction: the observable mean sits on
        # the wrong side of the target by a near-maximal margin
        law = self.law("f1")
        assert adversary_observed_mean(law) > law.base.mean()

    def test_sampling_matches_law(self):
        law = self.law()
        s = law.sample(200_000, seed=31)
        vals, obs = s.univariate()
        assert obs.mean() == pytest.approx(law.real_mass(), abs=0.01)
        assert vals[obs].mean() == pytest.approx(adversary_observed_mean(law), abs=0.01)
        stat = kstest(vals[obs], lambda x: law.cdf(x) / law.real_mass()).statistic
        assert stat < 0.005

    def test_name_validation(self):
        with pytest.raises(DomainError):
            AdversaryLaw("f3", 1.0, 1.0, 0.3, 0.8)

    # (a, sigma, epsilon, q): the default, q < 1, a wide sigma with half the
    # rows contaminated, and a far-apart pair with little contamination
    LEVELS = [
        (1.0, 1.0, 0.3, 1.0),
        (1.0, 1.0, 0.3, 0.8),
        (0.5, 2.0, 0.5, 0.5),
        (3.0, 0.5, 0.05, 0.3),
    ]

    def test_closed_form_matches_bisection(self):
        for a, sigma, eps, q in self.LEVELS:
            for name in ("f1", "f2"):
                law = AdversaryLaw(name, a, sigma, eps, q)
                for seed in (1, 2, 3):
                    got = law.sample(10_000, seed)
                    want = adversary_sample_by_bisection(law, 10_000, seed)
                    assert got.observed.tobytes() == want.observed.tobytes()
                    assert np.max(np.abs(got.values - want.values)) <= 1e-10, (name, a, seed)

    def draw_at(self, monkeypatch, law, u):
        """law.sample with its role-1 uniforms replaced by ``u``."""
        u = np.asarray(u, dtype=float)
        monkeypatch.setattr(Stream, "uniforms", lambda self, k: u[:k])
        return law.sample(len(u), seed=0)

    def test_tail_uniforms_give_finite_values_inside_the_bracket(self, monkeypatch):
        for a, sigma, eps, q in self.LEVELS:
            for name in ("f1", "f2"):
                law = AdversaryLaw(name, a, sigma, eps, q)
                u = [0.0, 1e-300, np.nextafter(law.real_mass(), 0.0)]
                s = self.draw_at(monkeypatch, law, u)
                assert s.observed.all()
                x = s.values[:, 0]
                assert np.all(np.isfinite(x)), (name, a, x)
                assert np.all(np.abs(x) <= a + 60.0 * sigma), (name, a, x)

    def test_inverse_is_exact_on_the_body(self, monkeypatch):
        for a, sigma, eps, q in self.LEVELS:
            for name in ("f1", "f2"):
                law = AdversaryLaw(name, a, sigma, eps, q)
                u = np.linspace(0.001, law.real_mass() - 0.001, 2001)
                x = self.draw_at(monkeypatch, law, u).values[:, 0]
                assert np.max(np.abs(law.cdf(x) - u)) <= 1e-15, (name, a)


class TestTwoPointPair:
    def test_construction_identities(self):
        (spec1, theta1), (spec2, theta2) = adversary_two_point(2.0, 1.0, 0.3, 0.8)
        a, b, r0 = two_point_shared_law(2.0, 1.0, 0.3, 0.8)
        lo_mass = 0.8 * 0.7
        assert a == pytest.approx(lo_mass / (lo_mass + 0.3))
        assert b == pytest.approx(0.5 * a ** (-0.5))
        for spec in (spec1, spec2):
            assert (spec.base.lo, spec.base.hi) == (-b, b)
        assert theta2 - theta1 > 0
        assert sum(r0.values()) == pytest.approx(1.0)

    def test_bases_have_bounded_central_moment(self):
        for r in (2.0, 4.0):
            for spec, theta in adversary_two_point(r, 1.5, 0.3, 0.8):
                p = spec.base
                m = (1 - p.p_hi) * abs(p.lo - theta) ** r + p.p_hi * abs(p.hi - theta) ** r
                assert m <= 1.5**r + 1e-12

    def test_both_specs_induce_the_shared_law(self):
        _, b, r0 = two_point_shared_law(2.0, 1.0, 0.3, 0.8)
        n = 200_000
        for spec, _ in adversary_two_point(2.0, 1.0, 0.3, 0.8):
            s = spec.sample(n, seed=41)
            vals, obs = s.univariate()
            freq_star = 1.0 - obs.mean()
            freq_lo = np.mean(vals[obs] == -b)
            freq_hi = np.mean(vals[obs] == b)
            assert freq_star == pytest.approx(r0[STAR], abs=0.01)
            assert freq_lo * obs.mean() == pytest.approx(r0[-b], abs=0.01)
            assert freq_hi * obs.mean() == pytest.approx(r0[b], abs=0.01)

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
        vals, obs = s.univariate()
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
        _, obs = s.univariate()
        assert obs[X[:, 1] > 0].mean() == pytest.approx(1.0)
        assert obs[X[:, 1] <= 0].mean() == pytest.approx(0.5, abs=0.01)

    def test_response_dependent_channel_biases_observations(self):
        n = 200_000
        X = self.design(n)
        mech2 = lambda X, y: (y >= X @ np.array([0.0, 0.0])).astype(float)
        s = sample_regression(X, [0.0, 0.0], 1.0, 0.4, 1.0, mech2, seed=6)
        vals, obs = s.univariate()
        # revealing only nonnegative responses on the contaminated share
        # drags the observed mean up
        assert vals[obs].mean() > 0.05

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
        s = sample_mcar(g, PatternDistribution.all_or_nothing(1, 0.8), 100_000, seed=51)
        ok, worst = realisable_sandwich_check(s, g, 0.0, 0.8)
        assert ok and worst <= 0.0

    def test_shifted_sample_fails(self):
        g = Gaussian.univariate(0.0, 1.0)
        s = sample_mcar(Gaussian.univariate(2.0, 1.0), PatternDistribution.all_or_nothing(1, 0.8), 100_000, 52)
        ok, worst = realisable_sandwich_check(s, g, 0.1, 0.8)
        assert not ok and worst > 0.0


_G1 = Gaussian.univariate(0.5, 2.0)
_G2 = Gaussian(np.array([0.5, -1.0]), np.array([[1.0, 0.3], [0.3, 2.0]]))
_G3 = Gaussian(np.array([0.0, 1.0, -1.0]), np.eye(3))


class TestContaminationSpec:
    def test_sample_dispatch(self):
        g, pi = Gaussian.univariate(0.0, 1.0), PatternDistribution.all_or_nothing(1, 0.9)
        spec = ContaminationSpec("arbitrary", g, 0.2, pi, contaminant=point_contaminant(9.0))
        s = spec.sample(50_000, seed=61)
        want = sample_arbitrary(g, 0.2, pi, point_contaminant(9.0), 50_000, seed=61)
        assert s == want

    # sha256 of values.tobytes() and observed.tobytes().  No benchmark workload
    # reaches the first six samplers, and the benchmark gate only bounds the
    # estimates drawn from the adversary laws, so these pin the draws bit for
    # bit; the adversary digests are those of the closed-form inverse CDF
    @pytest.mark.parametrize(
        "draw, values_sha, observed_sha",
        [
            pytest.param(
                lambda: ContaminationSpec(
                    "mcar", _G3, 0.0, PatternDistribution.independent(3, [0.5, 0.8, 1.0])
                ).sample(200, 11),
                "5007c14664ee5ed8d98e56ae51d4f0063005d21dc85d0e1f98ac783e2ad3d3ef",
                "e9ca18023100948ba0266399ffc07dbb6cc33611d1c049333aa37446f765fe95",
                id="mcar_d3_independent",
            ),
            pytest.param(
                lambda: ContaminationSpec(
                    "mcar", _G2, 0.0, PatternDistribution.all_or_nothing(2, 0.7)
                ).sample(200, 12),
                "b5131d917f257f71b55e41273a86edd233f4833988098d1c7a2c5f1aaaa8e737",
                "954e29a3b5ac3bf22606853bd5683909fd4c124d34afdf627559082b3f92001a",
                id="mcar_d2_all_or_nothing",
            ),
            pytest.param(
                lambda: ContaminationSpec(
                    "realisable", _G2, 0.3, 0.6, mechanism=Custom((-0.5, 0.5), (0.2, 0.9, 0.4))
                ).sample(200, 13),
                "e3e83b6b52461730b2ddf5e4b89ea1e2b562b62810c6a1e468f853474b6c5029",
                "4b4d6a925c029bd400b5d2b1edf097233492876e932f637e10b943ebbc7c10b7",
                id="realisable_d2_custom",
            ),
            pytest.param(
                lambda: ContaminationSpec(
                    "arbitrary",
                    _G1,
                    0.2,
                    PatternDistribution.all_or_nothing(1, 0.7),
                    contaminant=point_contaminant(9.0),
                ).sample(200, 14),
                "a05d6a682283edbf33bac22da8a17ff5906c925e3eda8c9e856fa13ad9d64e6c",
                "2702254d41562037083e77d11ad7eb246a692807f4e579cf4d2f17a71d99cd01",
                id="arbitrary_d1_point",
            ),
            pytest.param(
                lambda: ContaminationSpec(
                    "arbitrary",
                    _G2,
                    0.25,
                    PatternDistribution.independent(2, [0.6, 0.9]),
                    contaminant=all_star_contaminant(2),
                ).sample(200, 15),
                "ddc136c0452d1336dd16bacd7d11a1b9343cd2dcfbed4c5558ce0dd41980bde0",
                "6c683dc56c9ed5ff6aaa31238ee935012a6b90f4f25f1df6f4509cdf048aa04e",
                id="arbitrary_d2_all_star",
            ),
            pytest.param(
                lambda: adversary_two_point(3.0, 1.0, 0.2, 0.8)[1][0].sample(200, 16),
                "c959a8d606195a33c2cfcf4a573a11fc2884e8572dc71f233040a382555c94b6",
                "7ec807b855fa16e24567090e01af74e3bca6c2691cf6c245a0ea38eb71fb0d74",
                id="two_point_which_2",
            ),
            pytest.param(
                lambda: AdversaryLaw("f1", 1.0, 1.0, 0.3, 0.8).sample(1000, 17),
                "dbedae1fd70ef9872cae9716fbccaacf6eb434b35c5dbce63269e0221b0ee4b9",
                "f991a0cfa7a4da4b8e16a07df71384f58e6195d11e99ac6f67539bc04618e37e",
                id="adversary_f1",
            ),
            pytest.param(
                lambda: AdversaryLaw("f2", 0.5, 2.0, 0.5, 0.5).sample(1000, 18),
                "a3d7a37fdc87b143250076aed92aa7711de372ac1ef81f6aa156564d0ebfb52d",
                "71453b3e35a7b4c918a6cdb4de5a8a87608c14f5e2ae2dd081b1d1e2143eab95",
                id="adversary_f2",
            ),
        ],
    )
    def test_sample_bytes_are_pinned(self, draw, values_sha, observed_sha):
        s = draw()
        assert hashlib.sha256(s.values.tobytes()).hexdigest() == values_sha
        assert hashlib.sha256(s.observed.tobytes()).hexdigest() == observed_sha


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
        s = extended_from_rows([(1.5, STAR), (STAR, -2.5)])
        path = tmp_path / "stars.tsv"
        write_dataset(path, s, model="manual", seed=0)
        back, _ = read_dataset(path)
        assert back.values[0, 0] == 1.5 and back.values[1, 1] == -2.5
        assert back.observed.tolist() == [[True, False], [False, True]]
