"""Streams, child seeds, the missing token, and pattern distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from missingrobust import (
    DimensionError,
    DomainError,
    ExtendedArray,
    PatternDistribution,
    SizeError,
    Stream,
    child_seed,
    splitmix64,
)
from oracles import STAR, extended_from_rows


class TestStream:
    def test_same_seed_same_draws(self):
        a = Stream(123).uniforms(64)
        b = Stream(123).uniforms(64)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(Stream(1).uniforms(16), Stream(2).uniforms(16))

    def test_uniforms_in_unit_interval(self):
        u = Stream(5).uniforms(10_000)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_normals_are_finite_and_standard(self):
        z = Stream(9).normals(200_000)
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_permutation_is_a_permutation(self):
        p = Stream(4).permutation(1000)
        assert sorted(p) == list(range(1000))

    @pytest.mark.parametrize("n", [0, 1, 2, 50, 5000])
    def test_permutation_is_the_stable_argsort_of_its_uniforms(self, n):
        u = Stream(31).uniforms(n)
        assert np.array_equal(Stream(31).permutation(n), np.argsort(u, kind="stable"))

    @pytest.mark.parametrize(
        "u",
        [
            np.array([0.5, 0.25, 0.5, 0.25, 0.75]),
            # long enough that the default sort orders its tied values
            # differently from the stable sort
            (np.arange(100) * 3 % 7) / 8.0,
        ],
        ids=["five", "hundred"],
    )
    def test_permutation_breaks_ties_like_the_stable_sort(self, monkeypatch, u):
        monkeypatch.setattr(Stream, "uniforms", lambda self, k: u.copy())
        assert np.array_equal(Stream(0).permutation(len(u)), np.argsort(u, kind="stable"))

    def test_draw_accounting_normals_match_uniforms(self):
        # normals(k) consumes exactly the k uniforms of a fresh stream
        from scipy.special import ndtri

        u = Stream(77).uniforms(50)
        z = Stream(77).normals(50)
        assert np.array_equal(z, ndtri(np.clip(u, 2.0**-55, 1 - 2.0**-55)))

    def test_categorical_respects_cumprobs(self):
        cum = np.array([0.25, 0.75, 1.0])
        idx = Stream(11).categorical(cum, 100_000)
        freqs = np.bincount(idx, minlength=3) / 100_000
        assert np.allclose(freqs, [0.25, 0.5, 0.25], atol=0.01)


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(42, 1, 2) == child_seed(42, 1, 2)

    def test_documented_chain(self):
        s = splitmix64(42)
        s = splitmix64(s ^ 7)
        s = splitmix64(s ^ 9)
        assert child_seed(42, 7, 9) == s

    def test_premix_separates_small_masters(self):
        # without the pre-mix, masters 0..3 with reps 0..19 would produce
        # permutations of one another's child sets
        sets = [frozenset(child_seed(m, r) for r in range(20)) for m in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (sets[i] & sets[j])

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.integers(0, 2**32))
    def test_in_range_and_index_sensitive(self, master, i, j):
        s = child_seed(master, i, j)
        assert 0 <= s < 2**64
        if i != j:
            assert child_seed(master, i) != child_seed(master, j)


class TestExtendedArray:
    def test_round_trip_rows(self):
        arr = extended_from_rows([(1.0, STAR), (STAR, 2.0), (3.0, 4.0)])
        assert arr.n == 3 and arr.d == 2
        assert arr.values[0, 0] == 1.0 and arr.values[1, 1] == 2.0
        assert arr.observed[:2].tolist() == [[True, False], [False, True]]
        assert list(arr.fully_observed()) == [False, False, True]

    def test_rejects_nonfinite_observed_values(self):
        with pytest.raises(DomainError):
            ExtendedArray(np.array([[np.inf]]), np.array([[True]]))

    def test_univariate_requires_one_column(self):
        vals, obs = extended_from_rows([(1.0,), (STAR,)]).univariate()
        assert vals.shape == (2,) and list(obs) == [True, False]
        with pytest.raises(Exception):
            extended_from_rows([(1.0, 2.0)]).univariate()


class TestPatternDistribution:
    def test_all_or_nothing_marginals(self):
        pi = PatternDistribution.all_or_nothing(3, 0.7)
        masks = pi.masks()
        assert np.allclose(pi.probs @ masks, 0.7)
        assert pi.probs @ (masks[:, 0] & masks[:, 2]) == pytest.approx(0.7)

    def test_independent_marginals_and_pairs(self):
        pi = PatternDistribution.independent(3, [0.5, 0.8, 1.0])
        masks = pi.masks()
        assert np.allclose(pi.probs @ masks, [0.5, 0.8, 1.0])
        assert pi.probs @ (masks[:, 0] & masks[:, 1]) == pytest.approx(0.4)

    def test_independent_caps_dimension(self):
        with pytest.raises(SizeError):
            PatternDistribution.independent(17, 0.5)

    @pytest.mark.parametrize(
        "probs, error",
        [
            ([0.5], DimensionError),
            ([-1.0, 2.0], DomainError),
            ([0.0, 0.0], DomainError),
            ([float("nan"), 1.0], DomainError),
            ([float("inf"), 1.0], DomainError),
        ],
    )
    def test_bad_probs_are_refused(self, probs, error):
        with pytest.raises(error):
            PatternDistribution([[True], [False]], probs)

    def test_sample_masks_frequency(self):
        pi = PatternDistribution.independent(2, [0.3, 0.9])
        masks = pi.sample_masks(Stream(3), 200_000)
        assert np.allclose(masks.mean(axis=0), [0.3, 0.9], atol=0.01)

    @given(st.integers(1, 5), st.floats(0.01, 1.0))
    @settings(max_examples=25)
    def test_probs_sum_to_one(self, d, q):
        pi = PatternDistribution.independent(d, q)
        assert np.isclose(np.sum(pi.probs), 1.0)
