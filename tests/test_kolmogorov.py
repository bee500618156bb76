"""Set distances: feasibility geometry, LP-oracle agreement, the sup protocol."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from missingrobust import (
    AdversaryLaw,
    ChainBounds,
    DomainError,
    EmpiricalSummary,
    Gaussian,
    RealisableSetSpec,
    SizeError,
    Stream,
    TwoPoint,
    dist_to_realisable,
    dist_to_realisable_batch,
    dist_to_realisable_sym,
    residual_set,
)
from missingrobust.kolmogorov import _chain, _plain_distance
from oracles import (
    AnalyticDist,
    DiscreteDist,
    EmpiricalDist,
    adversary_cdf,
    adversary_star_mass,
    kolmogorov_distance,
    lp_realisable_distance,
    separation_profile,
    sym_distance_by_all_crossings,
    sym_kolmogorov_distance,
)

STD = Gaussian.univariate(0.0, 1.0)


def random_instance(rng):
    m = int(rng.integers(0, 7))
    n = m + int(rng.integers(0, 5))
    n = max(n, 1, m)
    z = np.sort(rng.normal(scale=2.0, size=m))
    eps = float(rng.uniform(0.0, 0.8))
    q = float(rng.uniform(0.2, 1.0))
    base = Gaussian.univariate(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2.0)))
    return EmpiricalSummary(z, n), RealisableSetSpec(base, eps, q)


def lp_distance(summary, spec):
    """The LP oracle on the instance of ``dist_to_realisable(summary, spec)``."""
    z = summary.sorted_observed
    return lp_realisable_distance(z, summary.n_total, spec.base.cdf(z), spec.lo_mass, spec.hi_mass)


def large_instance(rng):
    """(z, n, epsilon, q, sigma) with m = 50-300 observed values and up to m missing rows."""
    m = int(rng.integers(50, 301))
    n = m + int(rng.integers(0, m))
    z = np.sort(rng.normal(scale=2.0, size=m))
    eps = float(rng.uniform(0.0, 0.8))
    q = float(rng.uniform(0.2, 1.0))
    sigma = float(rng.uniform(0.5, 2.0))
    return z, n, eps, q, sigma


def sym_cases():
    """(name, summary, spec) for the pinned symmetrised distances.

    Each case of the kernel's proof occurs: lo_mass >= m/n (all_missing,
    single, single_clean, upper_start, lower_landing), c_lo < m/n <= c_hi
    (q_one, interior, m300, residual_set) and m/n > c_hi (eps_zero, rounded).
    """
    yield "all_missing", EmpiricalSummary(np.array([]), 10), RealisableSetSpec(STD, 0.3, 0.8)
    yield "single", EmpiricalSummary(np.array([0.3]), 3), RealisableSetSpec(Gaussian.univariate(0.2, 1.5), 0.2, 0.9)
    yield "single_clean", EmpiricalSummary(np.array([0.0]), 1), RealisableSetSpec(STD, 0.0, 1.0)
    yield "eps_zero", EmpiricalSummary(Stream(61).normals(40), 50), RealisableSetSpec(Gaussian.univariate(-0.3, 1.0), 0.0, 0.7)
    yield "q_one", EmpiricalSummary(1.2 * Stream(73).normals(30) - 0.6, 30), RealisableSetSpec(STD, 0.4, 1.0)
    yield "interior", EmpiricalSummary(1.2 * Stream(116).normals(200), 240), RealisableSetSpec(STD, 0.2, 0.9)
    rounded = np.round(2.0 * Stream(63).normals(150)) / 2.0
    yield "rounded", EmpiricalSummary(rounded, 170), RealisableSetSpec(Gaussian.univariate(0.1, 1.0), 0.1, 0.6)
    m300 = 1.3 * Stream(64).normals(300) + 0.4
    yield "m300", EmpiricalSummary(m300, 340), RealisableSetSpec(Gaussian.univariate(0.1, 1.2), 0.25, 0.85)
    # the residual set of the regression fit: epsilon = 1 - q(1 - eps), q = 1
    yield "residual_set", EmpiricalSummary(Stream(65).normals(500), 600), RealisableSetSpec(STD, 1.0 - 0.8 * 0.6, 1.0)
    # decided by the upper windows against the pinned start (D - Q) and by
    # the landing of the lower chain (G_m + lo_mass - m/n): without either
    # term the result drops by 0.146 and 0.125
    quarters = np.round(4.0 * (0.4 * Stream(5928).normals(26) + 1.1)) / 4.0
    yield "upper_start", EmpiricalSummary(quarters, 50), RealisableSetSpec(Gaussian.univariate(0.4, 1.3), 0.37, 1.0)
    yield "lower_landing", EmpiricalSummary(0.6 * Stream(9139).normals(14) - 1.1, 24), RealisableSetSpec(Gaussian.univariate(0.1, 1.4), 0.3, 1.0)


# dist_to_realisable_sym as float.hex, from the closed form at c = lo_mass
SYM_PINNED = {
    "all_missing": "0x1.1eb851eb851ebp-1",
    "single": "0x1.8bf258bf258c1p-2",
    "single_clean": "0x1.0000000000000p-1",
    "eps_zero": "0x1.ccd6acc24549ep-3",
    "q_one": "0x1.f35ea2b4ce05ep-3",
    "interior": "0x1.e217876aa6d74p-5",
    "rounded": "0x1.348f4c85d2212p-2",
    "m300": "0x1.290c81541f976p-3",
    "residual_set": "0x1.de54074a8da80p-7",
    "upper_start": "0x1.56567d5f2c9e6p-2",
    "lower_landing": "0x1.8848dbe7f46bep-2",
}


def reference_instances():
    """Seeded (summary, spec) pairs for the check against all 182 crossings.

    A fifth each has m = 0-3, ties (data on a half grid), epsilon = 0, q = 1
    or a ``residual_set`` level; the last 100 have regression sizes, m =
    3000-4000 residuals of n = 5000 rows at ``residual_set(1, epsilon, q)``.
    """
    rng = np.random.default_rng(909)
    for i in range(2000):
        kind = i % 5
        m = int(rng.integers(0, 4)) if kind == 0 else int(rng.integers(1, 301))
        n = m + int(rng.integers(0, m + 2)) or 1
        z = rng.normal(scale=2.0, size=m)
        if kind == 1:
            z = np.round(2.0 * z) / 2.0
        eps = 0.0 if kind == 2 else float(rng.uniform(0.0, 0.8))
        q = 1.0 if kind == 3 else float(rng.uniform(0.2, 1.0))
        sigma = float(rng.uniform(0.5, 2.0))
        if kind == 4:
            spec = residual_set(sigma, eps, q)
        else:
            spec = RealisableSetSpec(Gaussian.univariate(float(rng.uniform(-1, 1)), sigma), eps, q)
        yield EmpiricalSummary(z, n), spec
    for _ in range(100):
        z = rng.normal(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.8, 1.2)), size=int(rng.integers(3000, 4001)))
        yield EmpiricalSummary(z, 5000), residual_set(1.0, float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.5, 1.0)))


class TestSummaryAndSpec:
    def test_summary_sorts_and_counts(self):
        s = EmpiricalSummary(np.array([3.0, 1.0, 2.0]), 5)
        assert list(s.sorted_observed) == [1.0, 2.0, 3.0]
        assert s.m == 3 and s.n_total == 5

    def test_summary_validation(self):
        with pytest.raises(SizeError):
            EmpiricalSummary(np.array([1.0, 2.0]), 1)
        with pytest.raises(SizeError):
            EmpiricalSummary(np.array([]), 0)
        with pytest.raises(DomainError):
            EmpiricalSummary(np.array([np.nan]), 2)

    @pytest.mark.parametrize("z", [[-np.inf, 0.0], [0.0, np.inf], [0.0, np.nan], [np.nan]])
    def test_sorted_constructor_refuses_non_finite_ends(self, z):
        z = np.sort(np.array(z))
        with pytest.raises(DomainError, match="observed values must be finite"):
            EmpiricalSummary(z, 5)
        with pytest.raises(DomainError, match="observed values must be finite"):
            EmpiricalSummary._of_sorted(z, 5)

    def test_sorted_constructor_matches_the_public_one(self):
        z = np.sort(Stream(71).normals(30))
        for theta in (0.0, 1.5, -1e6):
            public, private = EmpiricalSummary(z - theta, 40), EmpiricalSummary._of_sorted(z - theta, 40)
            assert np.array_equal(public.sorted_observed, private.sorted_observed)
            assert private.n_total == 40 and not private.sorted_observed.flags.writeable
        with pytest.raises(SizeError):
            EmpiricalSummary._of_sorted(np.array([1.0, 2.0]), 1)
        with pytest.raises(SizeError):
            EmpiricalSummary._of_sorted(np.array([]), 0)

    def test_spec_masses(self):
        spec = RealisableSetSpec(STD, 0.3, 0.8)
        assert spec.lo_mass == pytest.approx(0.56)
        assert spec.hi_mass == pytest.approx(0.86)

    def test_spec_rejects_discrete_base(self):
        with pytest.raises(DomainError):
            RealisableSetSpec(TwoPoint(lo=-1.0, hi=1.0, p_hi=0.5), 0.1, 1.0)

    def test_chain_bounds_prefix_totals(self):
        summary = EmpiricalSummary(np.array([-1.0, 0.5]), 4)
        spec = RealisableSetSpec(STD, 0.3, 0.8)
        b = ChainBounds.from_data(summary, spec)
        assert b.prefix_lower.shape == b.prefix_upper.shape == (3,)
        assert b.prefix_lower[-1] == spec.lo_mass
        assert b.prefix_upper[-1] == spec.hi_mass
        assert np.all(b.prefix_lower <= b.prefix_upper)


class TestAnalyticCases:
    def test_all_missing_gives_lower_mass(self):
        for eps, q in ((0.0, 1.0), (0.3, 0.8), (0.7, 0.4)):
            summary = EmpiricalSummary(np.array([]), 10)
            spec = RealisableSetSpec(STD, eps, q)
            assert dist_to_realisable(summary, spec) == pytest.approx(q * (1 - eps), abs=1e-9)
            assert lp_distance(summary, spec) == pytest.approx(q * (1 - eps), abs=1e-9)
            assert dist_to_realisable_sym(summary, spec) == pytest.approx(
                q * (1 - eps), abs=1e-9
            )

    def test_single_point_at_base_median(self):
        summary = EmpiricalSummary(np.array([0.0]), 1)
        spec = RealisableSetSpec(STD, 0.0, 1.0)
        assert dist_to_realisable(summary, spec) == pytest.approx(0.5, abs=1e-9)
        assert lp_distance(summary, spec) == pytest.approx(0.5, abs=1e-9)

    def test_quantile_grid_data_attains_half_over_n(self):
        # data on the base quantile grid with a wide band: the only obstruction
        # left is the jump geometry itself, worth exactly 1/(2n)
        n = 10
        z = norm.ppf((np.arange(1, n + 1) - 0.5) / n)
        summary = EmpiricalSummary(z, n)
        spec = RealisableSetSpec(STD, 0.5, 1.0)
        assert dist_to_realisable(summary, spec) == pytest.approx(0.05, abs=1e-8)
        assert dist_to_realisable_sym(summary, spec) == pytest.approx(0.05, abs=1e-8)

    def test_pinned_symmetrised_distances(self):
        for name, summary, spec in sym_cases():
            assert dist_to_realisable_sym(summary, spec) == float.fromhex(SYM_PINNED[name]), name

    def test_floor_half_over_n(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            summary, spec = random_instance(rng)
            if summary.m == 0:
                continue
            d = dist_to_realisable(summary, spec)
            assert d >= 1.0 / (2 * summary.n_total) - 1e-12


class TestOracleAgreement:
    def check_instance(self, summary, spec):
        F = spec.base.cdf(summary.sorted_observed)
        want = lp_realisable_distance(
            summary.sorted_observed, summary.n_total, F, spec.lo_mass, spec.hi_mass
        )
        got = dist_to_realisable(summary, spec)
        assert got == pytest.approx(want, abs=1e-6)
        want_sym = lp_realisable_distance(
            summary.sorted_observed, summary.n_total, F, spec.lo_mass, spec.hi_mass, sym=True
        )
        got_sym = dist_to_realisable_sym(summary, spec)
        assert got_sym == pytest.approx(want_sym, abs=1e-6)
        assert got_sym >= got - 1e-9

    def test_sym_matches_all_crossings_to_rounding(self):
        """The closed form against the 182-crossing oracle, to 8u = 2**-50 (8.9e-16), u = 2**-53.

        Take the floats both routes share as exact: j/n, m/n, SL, SU and the
        row-1 offsets P, Q, D, G, H with P + D, D - Q and G - H + D, which the
        oracle forms in the same order.  Let V be the exact minimum over c
        when the row-2 offsets are these minus m/n.  Every intermediate stays
        below 4 in magnitude and mostly below 2, so one rounding costs at
        most u (2u above 2); max, min, negation and halving are exact.
        - Each closed-form term is a shared float plus at most two roundings
          (the u/2 of lo - m/n and one sum), so the closed form is within 2u
          of V in the first two cases, where the kernel's proof is pure twin
          algebra.
        - In the third case the proof also uses (hi - lo) F <= hi - lo and
          (hi - lo) F nondecreasing.  Rounding SL and SU (u/2 each) breaks
          the first by at most u and the second by at most 2u, which enters
          halved, so this adds u.
        - The oracle's row-2 offsets fl((k-m)/n) - SL lie within 3u of
          P - m/n, and forming a piece and evaluating it at a candidate adds
          at most 2u more.  Its candidates include c_lo, m/n and c_hi
          exactly, where V is attained, and it clips every candidate into
          [c_lo, c_hi], so it is within 5u of V.
        """
        bound = 2.0**-50
        for k, (summary, spec) in enumerate(reference_instances()):
            want = sym_distance_by_all_crossings(summary, spec)
            got = dist_to_realisable_sym(summary, spec)
            assert abs(got - want) <= bound, (k, summary.m, summary.n_total, got - want)

    def test_reference_instances_cover_the_three_cases(self):
        # the kernel's proof splits on where m/n lies against [c_lo, c_hi]
        seen = set()
        for summary, spec in reference_instances():
            ratio = summary.m / summary.n_total
            if spec.lo_mass >= ratio:
                seen.add("lo_mass >= m/n")
            elif ratio <= min(1.0, spec.hi_mass):
                seen.add("c_lo < m/n <= c_hi")
            else:
                seen.add("m/n > c_hi")
        assert seen == {"lo_mass >= m/n", "c_lo < m/n <= c_hi", "m/n > c_hi"}

    def test_seeded_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            summary, spec = random_instance(rng)
            self.check_instance(summary, spec)

    @given(
        st.lists(st.floats(-4.0, 4.0), min_size=0, max_size=6),
        st.integers(0, 4),
        st.floats(0.0, 0.8),
        st.floats(0.2, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_instances(self, zs, extra_missing, eps, q):
        summary = EmpiricalSummary(np.array(zs), max(1, len(zs) + extra_missing))
        spec = RealisableSetSpec(STD, eps, q)
        self.check_instance(summary, spec)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        z = np.sort(rng.normal(size=8))
        summary = EmpiricalSummary(z, 10)
        centers = np.linspace(-1.0, 1.0, 16)
        F = np.array([norm.cdf(z - c) for c in centers])
        batch = dist_to_realisable_batch(F, 10, 0.56, 0.86)
        for k, c in enumerate(centers):
            spec = RealisableSetSpec(Gaussian.univariate(c, 1.0), 0.3, 0.8)
            assert batch[k] == pytest.approx(dist_to_realisable(summary, spec), abs=1e-12)

    def test_large_instances_match_lp_oracle(self):
        # the small-m checks stop at m = 8; the exact kernel has no such cap
        rng = np.random.default_rng(2024)
        for _ in range(30):
            z, n, eps, q, sigma = large_instance(rng)
            centers = rng.uniform(-1.0, 1.0, size=4)
            F = np.array([norm.cdf((z - c) / sigma) for c in centers])
            lo_mass = q * (1 - eps)
            batch = dist_to_realisable_batch(F, n, lo_mass, lo_mass + eps)
            summary = EmpiricalSummary(z, n)
            for k, c in enumerate(centers):
                spec = RealisableSetSpec(Gaussian.univariate(float(c), sigma), eps, q)
                got = dist_to_realisable(summary, spec)
                want = lp_realisable_distance(z, n, F[k], spec.lo_mass, spec.hi_mass)
                assert got == pytest.approx(want, abs=1e-9)
                assert batch[k] == pytest.approx(got, abs=1e-12)

    def test_node_subsets_bound_the_exact_kernel(self):
        # any increasing node subset ending at m+1 gives a lower bound, and
        # the full node set gives the exact distance bit for bit; the bound
        # needs no slack, also when the chain is built on the subset alone as
        # mk_estimate's screen builds it
        rng = np.random.default_rng(77)
        for _ in range(30):
            z, n, eps, q, sigma = large_instance(rng)
            m = len(z)
            summary = EmpiricalSummary(z, n)
            spec = RealisableSetSpec(Gaussian.univariate(float(rng.uniform(-1.0, 1.0)), sigma), eps, q)
            bounds = ChainBounds.from_data(summary, spec)
            L, U = bounds.prefix_lower, bounds.prefix_upper
            exact = dist_to_realisable(summary, spec)
            assert float(_plain_distance(L, U, n, np.arange(1, m + 2))) == exact
            for size in (1, 5, m // 4, m):
                picks = np.sort(rng.choice(np.arange(1, m + 1), size=size, replace=False))
                nodes = np.append(picks, m + 1)
                sub = float(_plain_distance(L[nodes - 1], U[nodes - 1], n, nodes))
                assert sub <= exact
            F = spec.base.cdf(z)
            for stride in (1, m // 128, m // 16):
                nodes = np.append(np.arange(1, m + 1, max(1, stride)), m + 1)
                SL, SU = _chain(F[nodes[:-1] - 1], spec.lo_mass, spec.hi_mass)
                assert np.array_equal(SL, L[nodes - 1]) and np.array_equal(SU, U[nodes - 1])
                assert float(_plain_distance(SL, SU, n, nodes)) <= exact

    def test_batch_takes_a_decreasing_cdf_row_through_its_running_max(self):
        # a caller's row may dip; on this instance clipping the row's gaps
        # (0.28561) and taking its running max (0.28565) give different widths
        rng = np.random.default_rng(33)
        z, n, eps, q, sigma = large_instance(rng)
        lo_mass = q * (1 - eps)
        F = norm.cdf(z / sigma)
        k = len(z) // 2
        F[k] = F[k - 1] - 1e-4
        assert np.any(np.diff(F) < 0)
        G = np.maximum.accumulate(F)
        got, want = dist_to_realisable_batch(np.array([F, G]), n, lo_mass, lo_mass + eps)
        assert got == want
        assert want == pytest.approx(lp_realisable_distance(z, n, G, lo_mass, lo_mass + eps), abs=1e-9)

    def test_bruteforce_matches_exact_kernel(self):
        # many missing rows and wide (epsilon, q) ranges: the instances where
        # a loose LP feasibility tolerance shows as gaps of a few 1e-8; the
        # LP oracle is the brute-force solver
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            n = m + int(rng.integers(0, 60))
            z = np.sort(rng.normal(scale=2.0, size=m))
            base = Gaussian.univariate(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2.0)))
            spec = RealisableSetSpec(base, float(rng.uniform(0.0, 0.99)), float(rng.uniform(0.05, 1.0)))
            summary = EmpiricalSummary(z, n)
            assert lp_distance(summary, spec) == pytest.approx(dist_to_realisable(summary, spec), abs=1e-9)


class TestSetDistanceProperties:
    def test_nonincreasing_in_epsilon(self):
        rng = np.random.default_rng(17)
        z = np.sort(rng.normal(size=5))
        summary = EmpiricalSummary(z, 6)
        prev = None
        for eps in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95):
            d = dist_to_realisable(summary, RealisableSetSpec(STD, eps, 1.0))
            if prev is not None:
                assert d <= prev + 1e-9
            prev = d

    def test_infimum_below_any_explicit_member(self):
        # the f1 adversary law is a member of the realisable set of its base,
        # so the set distance is at most the distance to that one law
        law = AdversaryLaw("f1", 1.0, 1.0, 0.3, 0.8)
        s = law.sample(2000, seed=3)
        member = AnalyticDist(lambda t: adversary_cdf(law, t), star_mass=adversary_star_mass(law))
        d_member = kolmogorov_distance(EmpiricalDist(s), member)
        spec = RealisableSetSpec(law.base, 0.3, 0.8)
        d_set = dist_to_realisable(EmpiricalSummary.from_sample(s), spec)
        assert d_set <= d_member + 1e-9

    def test_lipschitz_under_single_point_move(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            summary, spec = random_instance(rng)
            if summary.m == 0:
                continue
            z = summary.sorted_observed.copy()
            j = int(rng.integers(0, len(z)))
            z[j] += float(rng.normal())
            moved = EmpiricalSummary(np.sort(z), summary.n_total)
            d0 = dist_to_realisable(summary, spec)
            d1 = dist_to_realisable(moved, spec)
            assert abs(d0 - d1) <= 1.0 / summary.n_total + 1e-9


class TestKolmogorovProtocol:
    def test_identical_inputs(self):
        d = DiscreteDist(np.array([0.0, 1.0]), np.array([0.4, 0.4]), star_mass=0.2)
        assert kolmogorov_distance(d, d) == 0.0
        assert sym_kolmogorov_distance(d, d) == 0.0

    def test_point_masses_unit_apart(self):
        d0 = DiscreteDist(np.array([0.0]), np.array([1.0]), star_mass=0.0)
        d1 = DiscreteDist(np.array([1.0]), np.array([1.0]), star_mass=0.0)
        assert kolmogorov_distance(d0, d1) == pytest.approx(1.0)

    def test_two_point_empirical_against_gaussian(self):
        emp = DiscreteDist(np.array([0.0, 1.0]), np.array([0.5, 0.5]), star_mass=0.0)
        gauss = AnalyticDist(lambda t: norm.cdf(t), star_mass=0.0)
        assert kolmogorov_distance(emp, gauss) == pytest.approx(0.5, abs=1e-12)

    def test_all_star_against_point_mass(self):
        stars = DiscreteDist(np.array([]), np.array([]), star_mass=1.0)
        point = DiscreteDist(np.array([0.0]), np.array([1.0]), star_mass=0.0)
        assert sym_kolmogorov_distance(stars, point) == pytest.approx(1.0)

    def test_star_count_gap_lower_bound(self):
        d1 = DiscreteDist(np.array([1.0, 2.0, 3.0]), np.array([1 / 3, 1 / 3, 1 / 3]), 0.0)
        d2 = DiscreteDist(np.array([1.0, 2.0]), np.array([1 / 3, 1 / 3]), star_mass=1 / 3)
        assert sym_kolmogorov_distance(d1, d2) >= 1 / 3 - 1e-12

    def test_sym_dominates_plain(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = DiscreteDist(
                np.sort(rng.normal(size=3)), np.full(3, 0.25), star_mass=0.25
            )
            b = DiscreteDist(
                np.sort(rng.normal(size=2)), np.full(2, 0.4), star_mass=0.2
            )
            assert sym_kolmogorov_distance(a, b) >= kolmogorov_distance(a, b) - 1e-12


class TestSeparationProfile:
    def test_zero_epsilon_reduction(self):
        for a, sigma, q in ((0.5, 1.0, 1.0), (1.0, 2.0, 0.6)):
            want = q * (norm.cdf(a / sigma) - norm.cdf(-a / sigma))
            assert separation_profile(a, None, sigma, 0.0, q) == pytest.approx(want, abs=1e-12)

    def test_strictly_increasing_in_a(self):
        grid = np.linspace(0.05, 4.0, 40)
        vals = [separation_profile(a, None, 1.0, 0.3, 0.8) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bounded_by_one(self):
        for a in (0.1, 1.0, 10.0, 100.0):
            assert separation_profile(a, None, 1.0, 0.3, 0.8) <= 1.0

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(DomainError):
            separation_profile(0.0, None, 1.0, 0.1, 1.0)
        with pytest.raises(DomainError):
            separation_profile(-1.0, None, 1.0, 0.1, 1.0)

    def test_adversary_pair_attains_the_bound(self):
        # the mirrored laws around +-a can never be closer than the profile,
        # and at wide gaps they pin it to within a few percent
        sigma, eps, q = 1.0, 0.3, 0.8
        probes = tuple(np.linspace(-12.0, 12.0, 12001))

        def pair_distance(a):
            f1 = AdversaryLaw("f1", a, sigma, eps, q)
            f2 = AdversaryLaw("f2", a, sigma, eps, q)
            d1 = AnalyticDist(lambda t: adversary_cdf(f1, t), star_mass=adversary_star_mass(f1), jump_points=probes)
            d2 = AnalyticDist(lambda t: adversary_cdf(f2, t), star_mass=adversary_star_mass(f2), jump_points=probes)
            return kolmogorov_distance(d1, d2)

        for a in (0.25, 0.5, 1.0, 2.0):
            d = pair_distance(a)
            assert d >= separation_profile(a, None, sigma, eps, q) - 1e-9
        assert pair_distance(2.0) <= separation_profile(2.0, None, sigma, eps, q) * 1.05
