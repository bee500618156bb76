"""Multivariate estimators: SDP weights, block descent, nets, projections."""

import hashlib
import math
import re

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import OptimizeResult

from missingrobust import (
    DimensionError,
    DomainError,
    EstimationError,
    ExtendedArray,
    Gaussian,
    ModelError,
    PatternDistribution,
    SizeError,
    Stream,
    all_star_contaminant,
    as_block_means,
    child_seed,
    mk_estimate,
    multivariate_mk,
    point_contaminant,
    quarter_net,
    robust_block_descent,
    robust_descent,
    sample_arbitrary,
    sample_mcar,
    solve_sdp_approx,
)
from missingrobust import multivariate
from missingrobust import univariate
from oracles import (
    chebyshev_fit_by_vertices,
    circle_covering_radius,
    facet_vertex_radius,
    greedy_net_one_by_one,
    iterative_robust_descent,
    mk_per_direction,
)


class TestBlockMeansAndNet:
    def test_two_dimensional_passthrough(self):
        B = as_block_means(np.arange(6.0).reshape(3, 2))
        assert B.shape == (3, 2)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            as_block_means([[1.0], [np.inf]])
        # a flat vector is not read as one column
        with pytest.raises(DimensionError):
            as_block_means([1.0, 2.0, 3.0])


class TestSolveSdp:
    def test_two_opposed_means(self):
        v, val = solve_sdp_approx(np.array([[1.0], [-1.0]]), np.array([0.0]))
        assert val == pytest.approx(1.0, abs=1e-9)
        assert abs(v[0]) == pytest.approx(1.0)

    def test_all_means_at_theta(self):
        v, val = solve_sdp_approx(np.full((4, 3), 2.0), np.full(3, 2.0))
        assert val == 0.0
        assert list(v) == [1.0, 0.0, 0.0]

    def test_needs_two_blocks(self):
        with pytest.raises(SizeError):
            solve_sdp_approx(np.array([[1.0, 2.0]]), np.zeros(2))

    def test_value_bounded_by_capped_eigenvalue(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            M = int(rng.integers(2, 40))
            d = int(rng.integers(1, 5))
            B = rng.normal(size=(M, d)) * rng.uniform(0.5, 3.0)
            theta = rng.normal(size=d)
            _, val = solve_sdp_approx(B, theta)
            U = B - theta
            lam = float(np.linalg.eigvalsh(U.T @ U / M).max())
            assert 0.0 <= val <= (10.0 / 9.0) * lam + 1e-9


class TestRobustBlockDescent:
    def test_empty_rejected(self):
        with pytest.raises(SizeError):
            robust_block_descent(np.empty((0, 2)))

    def test_single_block_fixed_point(self):
        out = robust_block_descent(np.array([[3.0, -1.0, 2.0]]))
        assert np.allclose(out, [3.0, -1.0, 2.0])

    def test_translation_covariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            B = rng.normal(size=(30, 3))
            c = rng.normal(size=3)
            assert np.allclose(
                robust_block_descent(B + c), robust_block_descent(B) + c, atol=1e-9
            )

    def test_resists_outlier_blocks(self):
        rng = np.random.default_rng(6)
        B = np.vstack([rng.normal(size=(100, 2)), np.full((10, 2), 100.0)])
        est = robust_block_descent(B)
        assert np.linalg.norm(est) < 0.6


class TestRobustDescent:
    def test_constant_data_fixed_point(self):
        X = np.tile([2.0, -3.0], (7, 1))
        assert np.allclose(robust_descent(X, 0.1, 0.5, seed=0), [2.0, -3.0])

    def test_clean_small_n_uses_singleton_blocks(self):
        # with epsilon = 0 and delta = 2/e the block count formula caps at n,
        # so the descent runs on the raw points regardless of the partition
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 2))
        want = robust_block_descent(X)
        for seed in (0, 1, 2):
            assert np.allclose(robust_descent(X, 0.0, 2.0 / math.e, seed=seed), want, atol=1e-12)

    def test_outlier_monte_carlo(self):
        n, d = 10_000, 3
        clean = Stream(99).normals(n * d).reshape(n, d)
        X = clean.copy()
        X[:500] = 1000.0
        est = robust_descent(X, 0.05, 0.1, seed=7)
        assert np.linalg.norm(est) <= 0.5
        plain = np.linalg.norm(X.mean(axis=0))
        assert plain == pytest.approx(50.0 * math.sqrt(3.0), rel=0.2)

    def test_validation(self):
        with pytest.raises(SizeError):
            robust_descent(np.empty((0, 2)), 0.1, 0.5, seed=0)
        with pytest.raises(DomainError):
            robust_descent(np.array([[np.nan]]), 0.1, 0.5, seed=0)
        with pytest.raises(DomainError):
            robust_descent(np.ones((4, 1)), 1.0, 0.5, seed=0)
        with pytest.raises(DimensionError):
            robust_descent(np.ones(4), 0.1, 0.5, seed=0)


class TestIterativeRobustDescent:
    def test_round_and_block_arithmetic_in_size_error(self):
        # d = 4 with the rank bound d and delta = 0.5 forces exactly two
        # rounds; the block count is pinned by the a3 branch
        sample = ExtendedArray(np.zeros((100, 4)), np.ones((100, 4), dtype=bool))
        with pytest.raises(SizeError) as exc:
            iterative_robust_descent(sample, 0.0, 0.5, 300.0, 180000.0, seed=0)
        msg = str(exc.value)
        M = math.ceil(180000.0 * math.log(24.0))
        assert f"T=2, M={M}" in msg
        assert f"need n >= {2 * (M + 1)}" in msg

    def test_constant_data_fixed_point(self):
        n = 1000
        sample = ExtendedArray(np.tile([3.0, -2.0], (n, 1)), np.ones((n, 2), dtype=bool))
        out = iterative_robust_descent(sample, 0.0, 0.5, 1.0, 1.0, seed=5)
        assert np.allclose(out, [3.0, -2.0], atol=1e-12)

    def test_translation_equivariance_matched_seed(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        pi = PatternDistribution.independent(2, [0.7, 0.9])
        s = sample_mcar(g, pi, 2000, seed=11)
        c = np.array([4.0, -1.5])
        shifted = ExtendedArray(
            np.where(s.observed, s.values + c, 0.0), s.observed.copy()
        )
        a = iterative_robust_descent(s, 0.1, 0.5, 1.0, 1.0, seed=13)
        b = iterative_robust_descent(shifted, 0.1, 0.5, 1.0, 1.0, seed=13)
        assert np.allclose(b, a + c, atol=1e-9)

    def test_recovers_mean_with_heterogeneous_missingness(self):
        g = Gaussian(np.array([1.0, -1.0, 0.5]), np.eye(3))
        pi = PatternDistribution.independent(3, [0.5, 0.8, 1.0])
        s = sample_mcar(g, pi, 20_000, seed=17)
        out = iterative_robust_descent(s, 0.0, 0.1, 1.0, 1.0, seed=19)
        assert np.linalg.norm(out - np.array([1.0, -1.0, 0.5])) < 0.15

    def test_validation(self):
        sample = ExtendedArray(np.zeros((10, 1)), np.ones((10, 1), dtype=bool))
        with pytest.raises(DomainError):
            iterative_robust_descent(sample, 0.5, 0.5, 1.0, 1.0, seed=0)

    # float.hex of the estimate, taken from the per-block loop before the
    # block means were built by reshape.  A case is (d, contaminant, n,
    # sample seed, epsilon, delta, a2, a3, seed); sample_arbitrary at
    # epsilon = 0 is the plain MCAR sample.  The block sizes are 200, 4, 1,
    # 1 and 1 rows.
    PINNED = [
        ((2, "all_star", 2000, 31, 0.0, 0.5, 1.0, 1.0, 3), ["0x1.ee4cdb13f6b14p-1", "-0x1.060e776ea88fap+1"]),
        (
            (3, "all_star", 4000, 32, 0.1, 0.5, 1.0, 1.0, 4),
            ["0x1.d7e4e3ff7f38fp-2", "-0x1.6c34eead824afp-7", "-0x1.f02ac45a4ac42p-1"],
        ),
        ((2, "point", 3000, 33, 0.1, 0.1, 4.0, 1.0, 5), ["0x1.1d97a97a97f5cp+0", "-0x1.0965112ffdec8p+1"]),
        (
            (3, "all_star", 3000, 34, 0.0, 0.5, 1.0, 300.0, 6),
            ["0x1.0c4b6deede250p-1", "-0x1.e8b7edeb81e79p-7", "-0x1.dd6dd24dcc3d2p-1"],
        ),
        ((2, "all_star", 3000, 35, 0.1, 0.2, 4.0, 1.0, 7), ["0x1.0ecacc496f43dp+0", "-0x1.eb1868775598bp+0"]),
    ]

    @pytest.mark.parametrize("case, want", PINNED)
    def test_pinned_estimates(self, case, want):
        d, contaminant, n, sample_seed, epsilon, delta, a2, a3, seed = case
        mean, reveal = {2: ([1.0, -2.0], [0.7, 0.9]), 3: ([0.5, 0.0, -1.0], [0.5, 0.8, 1.0])}[d]
        cont = all_star_contaminant(d) if contaminant == "all_star" else point_contaminant(np.array([50.0, -50.0]))
        pi = PatternDistribution.independent(d, reveal)
        sample = sample_arbitrary(Gaussian(np.array(mean), np.eye(d)), epsilon, pi, cont, n, sample_seed)
        out = iterative_robust_descent(sample, epsilon, delta, a2, a3, seed=seed)
        assert [float(v).hex() for v in out] == want


@pytest.fixture(scope="module")
def net2():
    return quarter_net(2, seed=1)


@pytest.fixture(scope="module")
def net3():
    return quarter_net(3, seed=1)


class TestQuarterNet:
    def test_nets_below_two_dimensions_are_refused(self):
        for d in (0, 1):
            with pytest.raises(DomainError, match="at least 2"):
                quarter_net(d, seed=0)

    def test_deterministic_in_seed(self, net2):
        assert np.array_equal(quarter_net(2, seed=1), net2)
        assert not np.array_equal(quarter_net(2, seed=4), net2)

    def test_separation_and_size(self, net2, net3):
        for V in (net2, net3):
            d = V.shape[1]
            assert len(V) <= 9**d
            assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-12)
            G = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=2)
            np.fill_diagonal(G, 1.0)
            assert G.min() > 0.25

    # sha256 of directions.tobytes(), taken from the one-candidate-at-a-time
    # loop at commit dbbfb04, and for (3, 4) and (3, 7), whose loops the hull
    # certificate stops early, at commit 854b3b4 with the sampled audit;
    # any drift in the net's bytes fails here
    PINNED = {
        (2, 0): "9d6a8c61fc9ab187f3989e165fb09af14f4f751a9ea663a861d9adffecd74016",
        (2, 1): "abd56da06baea51f1931298348d770bc7818f7235956601c49606e330d32736d",
        (2, 2): "a044425d7d308b46d06f0cb870bddd73f88debcf365845c5e85fc2a45d3fca6e",
        (2, 3): "53e05bb2c6f7eb14f38e0c2d2c9df47862aa58a021984e4d8e1807d05fd46c61",
        (3, 1): "6698528921397e67fbb7a8f8240aa0fc2b09efcfa958dcb669c85ee7eef47fe8",
        (3, 4): "acd5c789e393536713697918f47cbfec9b3f69a3fd554292fa0f5de9451521dd",
        (3, 7): "aa5723755cb3d0f0d31632fa4bd1a662dfb5f3ea91158a13f3b9472d1b736d53",
    }

    def test_pinned_bytes(self, net2, net3):
        built = {(2, 1): net2, (3, 1): net3}
        for key, digest in self.PINNED.items():
            net = built[key] if key in built else quarter_net(*key)
            assert hashlib.sha256(net.tobytes()).hexdigest() == digest, key

    def test_matches_one_by_one_loop(self):
        want = greedy_net_one_by_one(Stream(child_seed(7, 1)), 2)
        assert quarter_net(2, seed=7).tobytes() == want.tobytes()

    def test_circle_nets_cover_exactly(self):
        # the hull's largest hole is the angular-gap chord and each facet's own chord
        for seed in range(40):
            net = quarter_net(2, seed=seed)
            radius = multivariate._covering_radius(net)
            assert radius <= 0.25, seed
            assert radius == pytest.approx(circle_covering_radius(net), abs=1e-12), seed
            assert radius == pytest.approx(facet_vertex_radius(net), abs=1e-12), seed

    def test_covering_radius_is_inf_without_a_hull_around_the_origin(self):
        def circle(*angles):
            return np.array([[math.cos(a), math.sin(a)] for a in angles])

        around = circle(0.0, 2.0, 4.0)
        assert multivariate._covering_radius(around) == pytest.approx(circle_covering_radius(around), abs=1e-12)
        flat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        # at most d points; a flat set Qhull refuses; the origin on an edge; the origin outside
        for net in (np.eye(3), flat, np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), circle(0.0, 0.5, 1.0)):
            assert multivariate._covering_radius(net) == math.inf

    def test_certificate_ends_the_loop_and_skips_the_audit(self, monkeypatch):
        built: list[int] = []
        drawn: dict[int, int] = {}

        class CountingStream(Stream):
            def __init__(self, seed):
                super().__init__(seed)
                built.append(seed)

            def normals(self, k):
                drawn[self.seed] = drawn.get(self.seed, 0) + k
                return super().normals(k)

        monkeypatch.setattr(multivariate, "Stream", CountingStream)
        quarter_net(2, seed=1)
        assert built == [child_seed(1, 1)]
        assert drawn[child_seed(1, 1)] < 10_000 * 2

        # a loop cut short by the count leaves a d = 3 net with a hole
        # beyond 1/4 + 0.02, refused without a second stream
        monkeypatch.setattr(multivariate, "_NET_REJECTIONS", 2000)
        built.clear()
        with pytest.raises(EstimationError, match="covers the sphere only to"):
            quarter_net(3, seed=0)
        assert built == [child_seed(0, 1)]

    def test_coverage(self, net3):
        radius = multivariate._covering_radius(net3)
        assert radius <= 0.27
        assert radius == pytest.approx(facet_vertex_radius(net3), abs=1e-12)
        dirs = Stream(5).normals(20_000 * 3).reshape(20_000, 3)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # chord to the nearest net point, from the largest inner product
        dmin = np.sqrt(2.0 - 2.0 * np.max(dirs @ net3.T, axis=1))
        assert dmin.max() <= radius


class TestMultivariateMk:
    def all_or_nothing_sample(self, mean, n, q, seed):
        d = len(mean)
        g = Gaussian(np.asarray(mean, dtype=float), np.eye(d))
        return sample_mcar(g, PatternDistribution.all_or_nothing(d, q), n, seed=seed)

    def test_mixed_rows_rejected(self):
        vals = np.zeros((3, 2))
        obs = np.array([[True, True], [True, False], [False, False]])
        with pytest.raises(ModelError):
            multivariate_mk(ExtendedArray(vals, obs), 0.1, 0.8, np.eye(2), seed=0)

    def test_sigma_validation(self):
        s = self.all_or_nothing_sample([0.0, 0.0], 100, 1.0, seed=0)
        with pytest.raises(DimensionError):
            multivariate_mk(s, 0.1, 0.8, np.eye(3), seed=0)
        with pytest.raises(DomainError):
            multivariate_mk(s, 0.1, 0.8, -np.eye(2), seed=0)

    def test_univariate_delegation(self):
        for seed in (0, 1, 2):
            s = self.all_or_nothing_sample([1.5], 500, 0.8, seed=seed)
            got = multivariate_mk(s, 0.2, 0.8, np.eye(1), seed=seed)
            want = mk_estimate(s, 0.2, 0.8, 1.0).value
            assert got[0].hex() == want.hex()

    def lockstep_case(self, label, net3):
        """(sample, epsilon, q, Sigma, seed, net) for ``label``; a net of None is quarter_net's own."""
        if label.startswith("d2_seed"):
            seed = int(label[7:])
            return self.all_or_nothing_sample([0.5, -1.0], 600, 0.8, seed=seed), 0.2, 0.8, np.eye(2), seed, None
        if label == "d2_sigma":
            wide = np.array([[2.0, 0.6], [0.6, 0.5]])
            return self.all_or_nothing_sample([0.0, 0.0], 400, 0.7, seed=3), 0.1, 0.7, wide, 4, None
        if label == "d3":
            return self.all_or_nothing_sample([0.0, 1.0, -1.0], 300, 0.8, seed=7), 0.2, 0.8, np.eye(3), 1, net3
        if label == "m0":
            return ExtendedArray(np.zeros((5, 2)), np.zeros((5, 2), dtype=bool)), 0.2, 0.8, np.eye(2), 0, None
        if label == "m1":
            obs = np.zeros((6, 2), dtype=bool)
            obs[2] = True
            return ExtendedArray(np.full((6, 2), 0.75), obs), 0.2, 0.8, np.eye(2), 1, None
        # every direction's projection is one value 500 times over
        point = ExtendedArray(np.tile([1.0, -1.0], (500, 1)), np.ones((500, 2), dtype=bool))
        return point, 0.0, 1.0, 0.01**2 * np.eye(2), 3, None

    @pytest.mark.parametrize("label", ["d2_seed0", "d2_seed5", "d2_seed11", "d2_sigma", "d3", "m0", "m1", "tied"])
    def test_lockstep_search_matches_per_direction_searches(self, monkeypatch, net3, label):
        sample, eps, q, Sigma, seed, net = self.lockstep_case(label, net3)
        if net is not None:
            monkeypatch.setattr(multivariate, "quarter_net", lambda d, seed: net)
        lockstep = []
        search = univariate._mk_search
        monkeypatch.setattr(multivariate, "_mk_search", lambda *args: lockstep.append(search(*args)) or lockstep[-1])
        got = multivariate_mk(sample, eps, q, Sigma, seed)
        V = net if net is not None else quarter_net(sample.d, seed)
        want = mk_per_direction(sample, eps, q, Sigma, V)
        (row_estimates,) = lockstep
        assert [e.value.hex() for e in row_estimates] == [e.value.hex() for e in want]
        assert [e.meta for e in row_estimates] == [e.meta for e in want]
        targets = np.array([e.value for e in want])
        assert got.tobytes() == multivariate._chebyshev_fit(V, targets)[0].tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_search_point_whose_shift_overflows_is_a_domain_error(self):
        # each per-direction search refuses the overflowing shift z - theta,
        # so the lockstep rounds must, not reconcile the rounded centres
        X = np.tile([[8e307, -8e307], [-8e307, 8e307], [8e307, 8e307]], (20, 1))
        sample = ExtendedArray(X, np.ones(X.shape, dtype=bool))
        with pytest.raises(DomainError, match="observed values must be finite"):
            mk_per_direction(sample, 0.2, 0.8, np.eye(2), quarter_net(2, seed=0))
        with pytest.raises(DomainError, match="observed values must be finite"):
            multivariate_mk(sample, 0.2, 0.8, np.eye(2), seed=0)

    def test_one_kernel_call_per_search_round(self, monkeypatch):
        # a lockstep round makes one kernel call for all its live directions;
        # a loop of per-direction searches makes one per direction and point
        sample = self.all_or_nothing_sample([0.5, -1.0], 600, 0.8, seed=0)
        calls = {"dist_to_realisable_batch": 0, "dist_to_realisable": 0}
        with monkeypatch.context() as patch:
            for name in calls:

                def counted(*args, _kernel=getattr(univariate, name), _name=name):
                    calls[_name] += 1
                    return _kernel(*args)

                patch.setattr(univariate, name, counted)
            multivariate_mk(sample, 0.2, 0.8, np.eye(2), seed=0)
        metas = [e.meta for e in mk_per_direction(sample, 0.2, 0.8, np.eye(2), quarter_net(2, seed=0))]
        assert len(metas) >= 16
        # the scan: the first exact row of every direction in one call, then
        # the other exact rows of all directions in 128-row blocks
        scan_calls = 1 + math.ceil(sum(meta["scan_rows_exact"] - 1 for meta in metas) / 128)
        assert sum(calls.values()) <= max(meta["objective_evals"] for meta in metas) + scan_calls
        assert calls["dist_to_realisable_batch"] > scan_calls

    def test_degenerate_point_recovery(self):
        n, p = 500, np.array([1.0, -1.0])
        sample = ExtendedArray(np.tile(p, (n, 1)), np.ones((n, 2), dtype=bool))
        est = multivariate_mk(sample, 0.0, 1.0, 0.01**2 * np.eye(2), seed=3)
        assert np.linalg.norm(est - p) <= 0.05

    def test_translation_equivariance_matched_seed(self):
        s = self.all_or_nothing_sample([0.0, 0.0], 800, 0.8, seed=23)
        c = np.array([2.0, -1.0])
        shifted = ExtendedArray(np.where(s.observed, s.values + c, 0.0), s.observed.copy())
        a = multivariate_mk(s, 0.2, 0.8, np.eye(2), seed=29)
        b = multivariate_mk(shifted, 0.2, 0.8, np.eye(2), seed=29)
        assert np.allclose(b, a + c, atol=1e-3)

    def test_failed_reconciliation_lp_is_an_estimation_error(self, monkeypatch):
        def failed(*args, **kwargs):
            return OptimizeResult(status=4, success=False, message="numerical difficulties", x=None)

        # _chebyshev_fit imports linprog at call time, so patch it at its source
        monkeypatch.setattr(scipy.optimize, "linprog", failed)
        s = self.all_or_nothing_sample([0.0, 0.0], 200, 1.0, seed=0)
        with pytest.raises(EstimationError, match="numerical difficulties"):
            multivariate_mk(s, 0.1, 1.0, np.eye(2), seed=0)

    def test_recovers_contaminated_mean(self):
        s = self.all_or_nothing_sample([1.0, 2.0], 1500, 0.8, seed=31)
        est = multivariate_mk(s, 0.3, 0.8, np.eye(2), seed=37)
        assert np.linalg.norm(est - np.array([1.0, 2.0])) < 0.5


class TestChebyshevFit:
    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(41)
        for d in (2, 3):
            for _ in range(20):
                K = int(rng.integers(d + 2, 13))
                V = rng.normal(size=(K, d))
                V /= np.linalg.norm(V, axis=1, keepdims=True)
                targets = V @ rng.normal(size=d) + rng.normal(scale=0.1, size=K)
                theta, gap = multivariate._chebyshev_fit(V, targets)
                want = chebyshev_fit_by_vertices(V, targets)
                assert gap == pytest.approx(want, abs=1e-9)
                assert np.max(np.abs(V @ theta - targets)) == pytest.approx(want, abs=1e-9)
