"""Extended observation space: real coordinates plus a missing token.

Every sample is an :class:`ExtendedArray`, a dense ``n x d`` value matrix
paired with a boolean observation mask.  Missingness is a tag (the mask),
never a sentinel value in the data channel: NaN is rejected everywhere, so
equality and ordering are total on observed values.  Masked payload entries
are canonicalised to 0.0 and never read.  :class:`PatternDistribution`
draws the revelation masks of the MCAR and arbitrary samplers; the
arbitrary sampler's contaminant is a one-row :class:`ExtendedArray`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DimensionError, DomainError, SizeError


class ExtendedArray:
    """``n x d`` sample over the extended space.

    ``values`` holds the payload (0.0 at masked entries), ``observed`` the
    mask.  Both arrays are read-only after construction.
    """

    __slots__ = ("values", "observed")

    def __init__(self, values, observed):
        values = np.array(values, dtype=float)
        observed = np.array(observed, dtype=bool)
        if values.ndim != 2 or observed.shape != values.shape:
            raise DimensionError(
                f"values {values.shape} and observed {observed.shape} must be "
                "matching n x d arrays"
            )
        if values.shape[1] < 1:
            raise DimensionError("dimension d must be at least 1")
        if not np.all(np.isfinite(values[observed])):
            raise DomainError("observed values must be finite (no NaN/inf)")
        values = np.where(observed, values, 0.0)
        values.setflags(write=False)
        observed.setflags(write=False)
        self.values = values
        self.observed = observed

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def fully_observed(self) -> np.ndarray:
        """Boolean mask of rows with every coordinate observed."""
        return self.observed.all(axis=1)

    def univariate(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, observed) as flat vectors; requires d = 1."""
        if self.d != 1:
            raise DimensionError(f"expected univariate data, got d={self.d}")
        return self.values[:, 0], self.observed[:, 0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtendedArray):
            return NotImplemented
        return (
            self.values.shape == other.values.shape
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.observed, other.observed)
        )

    def __repr__(self) -> str:
        return f"ExtendedArray(n={self.n}, d={self.d}, observed={int(self.observed.sum())})"


class PatternDistribution:
    """Distribution over revelation patterns.

    Built by :meth:`all_or_nothing` or :meth:`independent`, it stores the
    support as a (K, d) boolean mask matrix, one pattern per row in
    enumeration order, with ``probs`` renormalised to sum to 1 and their
    running sums, which :meth:`sample_masks` inverts.
    """

    __slots__ = ("d", "probs", "_masks", "_cumprobs")

    def __init__(self, masks, probs):
        masks = np.array(masks, dtype=bool)
        if masks.ndim != 2 or masks.shape[1] < 1:
            raise DimensionError("d must be at least 1")
        probs = np.asarray(probs, dtype=float)
        probs = probs / probs.sum()
        cumprobs = np.cumsum(probs)
        for a in (masks, probs, cumprobs):
            a.setflags(write=False)
        self.d = masks.shape[1]
        self.probs = probs
        self._masks = masks
        self._cumprobs = cumprobs

    def masks(self) -> np.ndarray:
        """Support patterns as a read-only (K, d) boolean array."""
        return self._masks

    def sample_masks(self, stream, n: int) -> np.ndarray:
        """n pattern draws as an (n, d) boolean array; consumes n uniforms."""
        return self.masks()[stream.categorical(self._cumprobs, n)]

    @staticmethod
    def all_or_nothing(d: int, q: float) -> "PatternDistribution":
        if not 0.0 <= q <= 1.0:
            raise DomainError(f"q must lie in [0, 1], got {q}")
        if q == 1.0:
            return PatternDistribution([[True] * d], [1.0])
        if q == 0.0:
            return PatternDistribution([[False] * d], [1.0])
        return PatternDistribution([[True] * d, [False] * d], [q, 1.0 - q])

    @staticmethod
    def independent(d: int, qs) -> "PatternDistribution":
        """Independent per-coordinate observation; enumerates all 2^d patterns."""
        if d > 16:
            raise SizeError("independent pattern enumeration capped at d <= 16")
        qs = np.broadcast_to(np.asarray(qs, dtype=float), (d,))
        if np.any((qs < 0) | (qs > 1)):
            raise DomainError("per-coordinate probabilities must lie in [0, 1]")
        masks, probs = [], []
        for bits in itertools.product((False, True), repeat=d):
            p = 1.0
            for j, b in enumerate(bits):
                p *= qs[j] if b else (1.0 - qs[j])
            if p > 0.0:
                masks.append(bits)
                probs.append(p)
        return PatternDistribution(masks, probs)
