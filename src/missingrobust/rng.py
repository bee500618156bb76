"""Counter-based random streams with documented draw accounting.

All randomness in the package flows through ``Stream``, a thin wrapper around
numpy's Philox bit generator.  Philox is counter based, so a stream is fully
determined by its 64-bit seed, and every helper below consumes a fixed,
documented number of raw float64 uniforms per logical draw.  Streams are
therefore stable across refactors as long as the draw accounting is kept.

Child seeds are derived with a splitmix64 chain,

    child_seed(s, i0, i1, ...) = g(... g(g(g(s) ^ i0) ^ i1) ...),

where ``g`` is the splitmix64 finalizer.  The master is mixed once before
any index is folded in; otherwise nearby masters with small index ranges
produce permutations of one another's child sets (i ^ 1 permutes {0..19}).
The chain is spelled out here so that any other implementation can
reproduce the streams exactly.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1

# smallest uniform fed to the inverse normal CDF; keeps normals finite
_U_EPS = 2.0 ** -55


def splitmix64(x: int) -> int:
    """One splitmix64 step: a deterministic 64-bit mix of ``x``."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def child_seed(master: int, *indices: int) -> int:
    """Derive a child seed by folding ``indices`` into ``master``.

    Every parallel unit of work (replication, grid cell, sampler role) gets
    its own child so that streams never overlap and results do not depend on
    scheduling order.
    """
    s = splitmix64(int(master) & _MASK64)
    for ix in indices:
        s = splitmix64(s ^ (int(ix) & _MASK64))
    return s


class Stream:
    """Seeded uniform stream; the single source of randomness here.

    Draw accounting: ``uniforms(k)`` consumes exactly ``k`` raw variates and
    every other helper is defined in terms of it:

    - ``normals(k)``: k uniforms, transformed by the inverse normal CDF,
    - ``bernoulli(p, k)``: k uniforms,
    - ``permutation(n)``: n uniforms (their stable-sort ranks, whichever
      sort computes them),
    - ``categorical(cumprobs, k)``: k uniforms.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def uniforms(self, k: int) -> np.ndarray:
        return self._gen.random(int(k))

    def normals(self, k: int) -> np.ndarray:
        u = self.uniforms(k)
        return ndtri(np.clip(u, _U_EPS, 1.0 - _U_EPS))

    def bernoulli(self, p, k: int) -> np.ndarray:
        return self.uniforms(k) < p

    def permutation(self, n: int) -> np.ndarray:
        """The stable-sort ranks of ``n`` uniforms: ``argsort(u, kind="stable")``.

        The default (SIMD) sort runs first.  Without an exactly equal pair
        of uniforms the sorting permutation is unique, so it is the stable
        one; a tie (probability ~ n^2 / 2^54) falls back to the stable sort.
        """
        u = self.uniforms(n)
        order = np.argsort(u)
        s = u[order]
        if np.any(s[1:] == s[:-1]):
            order = np.argsort(u, kind="stable")
        return order

    def categorical(self, cumprobs: np.ndarray, k: int) -> np.ndarray:
        """``k`` indices with P(i) = cumprobs[i] - cumprobs[i-1]."""
        idx = np.searchsorted(cumprobs, self.uniforms(k), side="right")
        return np.minimum(idx, len(cumprobs) - 1)
