"""Seeded samplers for every missingness/contamination model in the suite.

Sampler determinism contract
----------------------------
Each sampler derives one child stream per *role* from its seed, via
``child_seed(seed, role)``:

- role 1: base draws (one batch of ``base.draws_per_row`` uniforms per row),
- role 2: revelation draws (one uniform per row),
- role 3: contamination flags (one uniform per row),
- role 4: contaminant draws (one batch per row).

Roles are consumed independently, so e.g. the clean-data path of the
contaminated samplers replays the plain MCAR stream bit for bit when
epsilon = 0.  Within a role, draws are consumed row-major in a single batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma_fn, ndtr, ndtri

from .errors import DimensionError, DomainError, SizeError
from .extended import (
    STAR,
    ContaminationParams,
    ExtendedArray,
    PatternDistribution,
    as_univariate,
)
from .rng import Stream, child_seed

_ROLE_BASE = 1
_ROLE_MASK = 2
_ROLE_FLAG = 3
_ROLE_CONT = 4


# ---------------------------------------------------------------------------
# base distributions


@dataclass(frozen=True)
class Gaussian:
    """Gaussian base with mean vector ``theta`` and covariance ``cov``.

    For d = 1 use ``Gaussian.univariate(theta, sigma)``; the scalar interface
    (cdf/pdf/ppf) is only available in that case.
    """

    theta: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if theta.ndim != 1 or cov.shape != (len(theta), len(theta)):
            raise DimensionError("theta must be (d,), cov must be (d, d)")
        if not np.all(np.isfinite(theta)) or not np.all(np.isfinite(cov)):
            raise DomainError("Gaussian parameters must be finite")
        if not np.allclose(cov, cov.T, atol=1e-12, rtol=0.0):
            raise DomainError("cov must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as e:
            raise DomainError("cov must be positive definite") from e
        theta.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)

    @staticmethod
    def univariate(theta: float, sigma: float) -> "Gaussian":
        if sigma <= 0:
            raise DomainError(f"sigma must be positive, got {sigma}")
        return Gaussian(np.array([float(theta)]), np.array([[float(sigma) ** 2]]))

    name = "gaussian"
    is_continuous = True

    @property
    def dim(self) -> int:
        return len(self.theta)

    @property
    def draws_per_row(self) -> int:
        return self.dim

    def mean(self):
        return float(self.theta[0]) if self.dim == 1 else self.theta.copy()

    @property
    def scale(self) -> float:
        if self.dim != 1:
            raise DimensionError("scalar scale defined only for d = 1")
        return float(math.sqrt(self.cov[0, 0]))

    def sample_values(self, stream: Stream, n: int) -> np.ndarray:
        z = stream.normals(n * self.dim).reshape(n, self.dim)
        x = self.theta + z @ self._chol.T
        return x[:, 0] if self.dim == 1 else x

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.theta[0]) / self.scale)

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.theta[0]) / self.scale
        return np.exp(-0.5 * z * z) / (self.scale * math.sqrt(2.0 * math.pi))

    def ppf(self, u):
        return self.theta[0] + self.scale * ndtri(np.asarray(u, dtype=float))


@dataclass(frozen=True)
class TwoPoint:
    """Two-atom distribution on {lo, hi} with P(hi) = p_hi."""

    lo: float
    hi: float
    p_hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.lo >= self.hi:
            raise DomainError("need finite lo < hi")
        if not 0.0 <= self.p_hi <= 1.0:
            raise DomainError(f"p_hi must lie in [0, 1], got {self.p_hi}")

    name = "two_point"
    is_continuous = False
    dim = 1
    draws_per_row = 1

    def mean(self) -> float:
        return self.lo * (1.0 - self.p_hi) + self.hi * self.p_hi

    def sample_values(self, stream: Stream, n: int) -> np.ndarray:
        return np.where(stream.uniforms(n) < self.p_hi, self.hi, self.lo)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < self.lo, 0.0, np.where(x < self.hi, 1.0 - self.p_hi, 1.0))


@dataclass(frozen=True)
class BoundedUniform:
    """Uniform distribution on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.lo >= self.hi:
            raise DomainError("need finite lo < hi")

    name = "bounded_uniform"
    is_continuous = True
    dim = 1
    draws_per_row = 1

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def sample_values(self, stream: Stream, n: int) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * stream.uniforms(n)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, 1.0 / (self.hi - self.lo), 0.0)

    def ppf(self, u):
        return self.lo + (self.hi - self.lo) * np.asarray(u, dtype=float)


@dataclass(frozen=True)
class SubWeibullFolded:
    """Weibull law on [0, inf) with shape ``r`` and scale ``sigma``.

    Tail exp(-(x/sigma)^r); heavy for r close to 1, sub-Gaussian-like for
    r = 2.  Mean is sigma * Gamma(1 + 1/r).
    """

    r: float
    sigma: float

    def __post_init__(self):
        if self.r < 1.0:
            raise DomainError(f"r must be at least 1, got {self.r}")
        if self.sigma <= 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")

    name = "sub_weibull_folded"
    is_continuous = True
    dim = 1
    draws_per_row = 1

    def mean(self) -> float:
        return self.sigma * float(_gamma_fn(1.0 + 1.0 / self.r))

    def sample_values(self, stream: Stream, n: int) -> np.ndarray:
        return self.ppf(stream.uniforms(n))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= 0.0, 0.0, -np.expm1(-((np.maximum(x, 0.0) / self.sigma) ** self.r)))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        xs = np.maximum(x, 0.0) / self.sigma
        val = (self.r / self.sigma) * xs ** (self.r - 1.0) * np.exp(-(xs ** self.r))
        return np.where(x < 0.0, 0.0, val)

    def ppf(self, u):
        u = np.asarray(u, dtype=float)
        return self.sigma * (-np.log1p(-np.clip(u, 0.0, 1.0 - 1e-16))) ** (1.0 / self.r)


# ---------------------------------------------------------------------------
# MNAR reveal mechanisms


@dataclass(frozen=True)
class Constant:
    """Reveal with fixed probability c regardless of the value."""

    c: float

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise DomainError(f"reveal probability must lie in [0, 1], got {self.c}")

    name = "constant"

    def reveal_prob(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)


@dataclass(frozen=True)
class ThresholdAbove:
    """Reveal exactly the values at or above t."""

    t: float

    name = "threshold_above"

    def reveal_prob(self, x):
        return (np.asarray(x, dtype=float) >= self.t).astype(float)


@dataclass(frozen=True)
class ThresholdBelow:
    """Reveal exactly the values at or below t."""

    t: float

    name = "threshold_below"

    def reveal_prob(self, x):
        return (np.asarray(x, dtype=float) <= self.t).astype(float)


@dataclass(frozen=True)
class TailsOnly:
    """Reveal exactly the values with |x| >= t."""

    t: float

    name = "tails_only"

    def reveal_prob(self, x):
        return (np.abs(np.asarray(x, dtype=float)) >= self.t).astype(float)


@dataclass(frozen=True)
class Custom:
    """Piecewise-constant reveal probability tabulated on a knot grid.

    ``levels`` has one more entry than ``knots``; level k applies on
    (knots[k-1], knots[k]].  Levels are clamped to [0, 1] on construction.
    """

    knots: tuple
    levels: tuple

    def __post_init__(self):
        knots = tuple(float(t) for t in self.knots)
        levels = tuple(min(1.0, max(0.0, float(v))) for v in self.levels)
        if len(levels) != len(knots) + 1:
            raise DimensionError("need len(levels) == len(knots) + 1")
        if any(a >= b for a, b in zip(knots, knots[1:])):
            raise DomainError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "levels", levels)

    name = "custom"

    def reveal_prob(self, x):
        idx = np.searchsorted(np.asarray(self.knots), np.asarray(x, dtype=float), side="left")
        return np.asarray(self.levels, dtype=float)[idx]


# ---------------------------------------------------------------------------
# contaminants for the arbitrary model


@dataclass(frozen=True)
class AtomContaminant:
    """Finitely supported contaminant on the extended space.

    ``atoms`` is a list of rows over floats and STAR; ``probs`` sum to 1.
    """

    atoms: tuple
    probs: np.ndarray

    def __post_init__(self):
        rows = ExtendedArray.from_rows(self.atoms)
        probs = np.asarray(self.probs, dtype=float)
        if len(probs) != rows.n or np.any(probs < 0):
            raise DomainError("need one nonnegative probability per atom")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise DomainError(f"atom probabilities sum to {probs.sum()}, not 1")
        probs = probs / probs.sum()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_rows", rows)

    name = "atoms"

    @property
    def dim(self) -> int:
        return self._rows.d

    draws_per_row = 1

    def sample(self, stream: Stream, n: int) -> tuple[np.ndarray, np.ndarray]:
        idx = stream.categorical(np.cumsum(self.probs), n)
        return self._rows.values[idx], self._rows.observed[idx]


def all_star_contaminant(d: int) -> AtomContaminant:
    return AtomContaminant(((STAR,) * d,), np.array([1.0]))


def point_contaminant(value) -> AtomContaminant:
    row = tuple(np.atleast_1d(np.asarray(value, dtype=float)))
    return AtomContaminant((row,), np.array([1.0]))


# ---------------------------------------------------------------------------
# samplers


def _as_pattern(pi, d: int) -> PatternDistribution:
    if isinstance(pi, PatternDistribution):
        if pi.d != d:
            raise DimensionError(f"pattern dimension {pi.d} != data dimension {d}")
        return pi
    q = float(pi)
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q}")
    # scalar shorthand: Bernoulli reveal for d = 1, all-or-nothing for d > 1
    return PatternDistribution.all_or_nothing(d, q)


def sample_mcar(base, pi, n: int, seed: int) -> ExtendedArray:
    """n independent draws of X masked by an independent pattern.

    Consumes n * base.draws_per_row uniforms on role 1 and n on role 2.
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    pi = _as_pattern(pi, base.dim)
    x = base.sample_values(Stream(child_seed(seed, _ROLE_BASE)), n)
    x = x[:, None] if base.dim == 1 else x
    masks = pi.sample_masks(Stream(child_seed(seed, _ROLE_MASK)), n)
    return ExtendedArray(x, masks)


def sample_realisable(base, epsilon: float, q: float, mechanism, n: int, seed: int) -> ExtendedArray:
    """Realisable contamination, all-or-nothing in d >= 1 dimensions.

    With probability 1 - epsilon a row is the base draw revealed with
    probability q; with probability epsilon it is the same base draw
    revealed with probability mechanism(x_1), x_1 its first coordinate.
    Rows are revealed entirely or not at all; for d = 1 the observed-value
    density is therefore {q (1 - epsilon) + epsilon m(z)} p(z).

    Consumes n * d uniforms on role 1 and n on each of roles 2 (reveal) and
    3 (flags).
    """
    _validate_eps_q(epsilon, q)
    x = base.sample_values(Stream(child_seed(seed, _ROLE_BASE)), n).reshape(n, base.dim)
    u_reveal = Stream(child_seed(seed, _ROLE_MASK)).uniforms(n)
    w = Stream(child_seed(seed, _ROLE_FLAG)).bernoulli(epsilon, n)
    p = np.where(w, _mech_probs(mechanism, x[:, 0]), q)
    return ExtendedArray(x, np.repeat((u_reveal < p)[:, None], base.dim, axis=1))


def sample_arbitrary(base, epsilon: float, pi, contaminant, n: int, seed: int) -> ExtendedArray:
    """Arbitrary contamination: MCAR draws mixed with a free contaminant.

    With probability 1 - epsilon a row is X masked by an independent pattern;
    with probability epsilon it is a draw from ``contaminant``.

    Consumes n * base.draws_per_row uniforms on role 1, n on role 2, n on
    role 3, and n * contaminant.draws_per_row on role 4; with epsilon = 0 the
    output replays sample_mcar(base, pi, n, seed) exactly.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"epsilon must lie in [0, 1], got {epsilon}")
    pi = _as_pattern(pi, base.dim)
    if contaminant.dim != base.dim:
        raise DimensionError("contaminant dimension differs from base dimension")
    x = base.sample_values(Stream(child_seed(seed, _ROLE_BASE)), n)
    x = x[:, None] if base.dim == 1 else x
    masks = pi.sample_masks(Stream(child_seed(seed, _ROLE_MASK)), n)
    w = Stream(child_seed(seed, _ROLE_FLAG)).bernoulli(epsilon, n)
    cx, cmask = contaminant.sample(Stream(child_seed(seed, _ROLE_CONT)), n)
    values = np.where(w[:, None], cx, x)
    observed = np.where(w[:, None], cmask, masks)
    return ExtendedArray(values, observed)


def _validate_eps_q(epsilon: float, q: float) -> None:
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(f"epsilon must lie in [0, 1), got {epsilon}")
    if not 0.0 < q <= 1.0:
        raise DomainError(f"q must lie in (0, 1], got {q}")


def _mech_probs(mechanism, x: np.ndarray) -> np.ndarray:
    p = np.asarray(mechanism.reveal_prob(x), dtype=float)
    if np.any((p < 0.0) | (p > 1.0)):
        raise DomainError("mechanism reveal probabilities must lie in [0, 1]")
    return p


# ---------------------------------------------------------------------------
# contamination spec (sampler descriptor)


@dataclass(frozen=True)
class ContaminationSpec:
    """Base distribution + contamination parameters + the contaminating law.

    ``kind`` is one of "mcar", "realisable", "arbitrary".  The realisable
    variant carries a reveal mechanism and no free contaminant; the arbitrary
    variant carries an explicit contaminant.
    """

    kind: str
    base: object
    params: ContaminationParams
    mechanism: object = None
    contaminant: object = None

    def __post_init__(self):
        if self.kind not in ("mcar", "realisable", "arbitrary"):
            raise DomainError(f"unknown contamination kind {self.kind!r}")
        if self.kind == "realisable":
            if self.mechanism is None:
                raise DomainError("realisable contamination needs a mechanism")
            if self.contaminant is not None:
                raise DomainError("realisable contamination admits no free contaminant")
        if self.kind == "arbitrary" and self.contaminant is None:
            raise DomainError("arbitrary contamination needs a contaminant")

    @property
    def theta0(self):
        return self.base.mean()

    def label(self) -> str:
        bits = [self.kind, self.base.name]
        if self.kind == "realisable":
            bits.append(self.mechanism.name)
        if self.kind == "arbitrary":
            bits.append(self.contaminant.name)
        return ":".join(bits)

    def sample(self, n: int, seed: int) -> ExtendedArray:
        eps = self.params.epsilon
        qp = self.params.q_or_pi
        if self.kind == "mcar":
            return sample_mcar(self.base, qp, n, seed)
        if self.kind == "realisable":
            return sample_realisable(self.base, eps, float(qp), self.mechanism, n, seed)
        return sample_arbitrary(self.base, eps, qp, self.contaminant, n, seed)


# ---------------------------------------------------------------------------
# adversarial generators


@dataclass(frozen=True)
class AdversaryLaw:
    """Piecewise-Gaussian observed-value density with mass left at STAR.

    The density equals the lower sandwich envelope q(1-eps) phi(.; theta, sigma)
    left of zero, swaps to the reflected bump between 0 and tau, and runs the
    upper envelope {q(1-eps)+eps} phi beyond tau, with
    tau = sigma^2/(2a) * log(1 + eps/(q(1-eps))).  ``f1`` targets a Gaussian
    centred at -a; ``f2`` is its mirror image and targets +a.
    """

    name: str
    a: float
    sigma: float
    epsilon: float
    q: float

    def __post_init__(self):
        if self.name not in ("f1", "f2"):
            raise DomainError(f"name must be 'f1' or 'f2', got {self.name!r}")
        if self.a <= 0 or self.sigma <= 0:
            raise DomainError("need a > 0 and sigma > 0")
        _validate_eps_q(self.epsilon, self.q)

    @property
    def lo_mass(self) -> float:
        return self.q * (1.0 - self.epsilon)

    @property
    def hi_mass(self) -> float:
        return self.lo_mass + self.epsilon

    @property
    def tau(self) -> float:
        kappa = self.epsilon / self.lo_mass
        return self.sigma**2 / (2.0 * self.a) * math.log1p(kappa)

    @property
    def base(self) -> Gaussian:
        """The Gaussian this law is a realisable contamination of."""
        centre = -self.a if self.name == "f1" else self.a
        return Gaussian.univariate(centre, self.sigma)

    def _phi(self, x, centre):
        z = (np.asarray(x, dtype=float) - centre) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def _Phi(self, x, centre):
        return ndtr((np.asarray(x, dtype=float) - centre) / self.sigma)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        if self.name == "f2":
            x = -x
        lo, hi, tau, a = self.lo_mass, self.hi_mass, self.tau, self.a
        return np.where(
            x <= 0.0,
            lo * self._phi(x, -a),
            np.where(x <= tau, lo * self._phi(x, a), hi * self._phi(x, -a)),
        )

    def _cdf_f1(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi, tau, a = self.lo_mass, self.hi_mass, self.tau, self.a
        f0 = lo * self._Phi(0.0, -a)
        ftau = f0 + lo * (self._Phi(tau, a) - self._Phi(0.0, a))
        return np.where(
            x <= 0.0,
            lo * self._Phi(x, -a),
            np.where(
                x <= tau,
                f0 + lo * (self._Phi(x, a) - self._Phi(0.0, a)),
                ftau + hi * (self._Phi(x, -a) - self._Phi(tau, -a)),
            ),
        )

    def real_mass(self) -> float:
        return float(self._cdf_f1(self.a + 60.0 * self.sigma))

    @property
    def star_mass(self) -> float:
        return 1.0 - self.real_mass()

    def cdf(self, x):
        if self.name == "f1":
            return self._cdf_f1(x)
        return self.real_mass() - self._cdf_f1(-np.asarray(x, dtype=float))

    def observed_mean(self) -> float:
        """E(Z | Z observed), by closed-form Gaussian partial moments."""
        lo, hi, tau, a, s = self.lo_mass, self.hi_mass, self.tau, self.a, self.sigma

        def partial(lo_t, hi_t, centre):
            # integral of x phi((x - centre)/s)/s over (lo_t, hi_t)
            zl, zh = (lo_t - centre) / s, (hi_t - centre) / s
            phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            return centre * (ndtr(zh) - ndtr(zl)) + s * (phi(zl) - phi(zh))

        big = 60.0 * s
        total = (
            lo * partial(-a - big, 0.0, -a)
            + lo * partial(0.0, tau, a)
            + hi * partial(tau, a + big, -a)
        )
        m = total / self.real_mass()
        return float(m if self.name == "f1" else -m)

    def sample(self, n: int, seed: int) -> ExtendedArray:
        """n draws; one uniform per row (role 1), inverted by bisection."""
        u = Stream(child_seed(seed, _ROLE_BASE)).uniforms(n)
        mass = self.real_mass()
        observed = u < mass
        values = np.zeros(n)
        if observed.any():
            target = u[observed]
            lo = np.full(target.shape, -self.a - 60.0 * self.sigma)
            hi = np.full(target.shape, self.a + 60.0 * self.sigma)
            # bisection on the piecewise CDF, branch-safe near tau
            while np.max(hi - lo) > 1e-12:
                mid = 0.5 * (lo + hi)
                below = self.cdf(mid) < target
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            values[observed] = 0.5 * (lo + hi)
        return ExtendedArray(values[:, None], observed[:, None])


def adversary_f1_f2(name: str, a: float, sigma: float, epsilon: float, q: float) -> AdversaryLaw:
    """The mirrored pair of hardest realisable laws for mean estimation."""
    return AdversaryLaw(name, a, sigma, epsilon, q)


@dataclass(frozen=True)
class TwoPointPair:
    """Two two-atom bases whose realisable contaminations share one law.

    ``spec1`` and ``spec2`` are realisable contamination specs with distinct
    means ``theta1 < theta2`` but a common observable three-atom law ``r0``
    on {-b, b, STAR}; no estimator can tell them apart.
    """

    r: float
    sigma: float
    epsilon: float
    q: float
    a: float
    b: float
    spec1: ContaminationSpec
    spec2: ContaminationSpec
    theta1: float
    theta2: float
    gap: float
    r0: dict

    def sample(self, n: int, seed: int, which: int = 1) -> ExtendedArray:
        spec = self.spec1 if which == 1 else self.spec2
        return spec.sample(n, seed)


def adversary_two_point(r: float, sigma: float, epsilon: float, q: float) -> TwoPointPair:
    """Construct the indistinguishable two-atom pair at moment order r."""
    if r < 2.0:
        raise DomainError(f"moment order r must be at least 2, got {r}")
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    _validate_eps_q(epsilon, q)
    lo_mass = q * (1.0 - epsilon)
    a = lo_mass / (lo_mass + epsilon)
    b = 0.5 * sigma * a ** (-1.0 / r)
    p1 = TwoPoint(lo=-b, hi=b, p_hi=a / (a + 1.0))
    p2 = TwoPoint(lo=-b, hi=b, p_hi=1.0 / (a + 1.0))
    params = ContaminationParams(epsilon, q)
    spec1 = ContaminationSpec("realisable", p1, params, mechanism=ThresholdAbove(0.0))
    spec2 = ContaminationSpec("realisable", p2, params, mechanism=ThresholdBelow(0.0))
    atom = lo_mass / (a + 1.0)
    r0 = {-b: atom, b: atom, STAR: 1.0 - 2.0 * atom}
    return TwoPointPair(
        r=r,
        sigma=sigma,
        epsilon=epsilon,
        q=q,
        a=a,
        b=b,
        spec1=spec1,
        spec2=spec2,
        theta1=p1.mean(),
        theta2=p2.mean(),
        gap=p2.mean() - p1.mean(),
        r0=r0,
    )


# ---------------------------------------------------------------------------
# regression with missing response


def sample_regression(
    X: np.ndarray,
    theta0: np.ndarray,
    sigma: float,
    epsilon: float,
    q_x,
    mechanism2,
    seed: int,
    q_min: float | None = None,
) -> ExtendedArray:
    """Linear-model responses with a contaminated missing-response channel.

    Y_i = x_i' theta0 + N(0, sigma^2).  With probability 1 - epsilon the
    response is revealed with probability q_x(x_i) (ignorable, noise
    independent); with probability epsilon the reveal probability is
    mechanism2(x_i, y_i), which may depend on the response.

    ``q_x`` is a scalar or a callable over the design matrix; ``mechanism2``
    a scalar or a callable (X, y) -> probabilities.  If ``q_min`` is given,
    any row with q_x below it is rejected.

    Consumes n uniforms on each of roles 1 (noise), 2 (ignorable reveal),
    3 (flags), 4 (response-dependent reveal).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    theta0 = np.asarray(theta0, dtype=float).reshape(d)
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(f"epsilon must lie in [0, 1), got {epsilon}")

    qx = np.broadcast_to(np.asarray(q_x(X) if callable(q_x) else q_x, dtype=float), (n,))
    if np.any((qx <= 0.0) | (qx > 1.0)):
        raise DomainError("q_x must lie in (0, 1] for every row")
    if q_min is not None and np.any(qx < q_min - 1e-12):
        raise DomainError(f"q_x drops below the declared floor {q_min}")

    noise = sigma * Stream(child_seed(seed, _ROLE_BASE)).normals(n)
    y = X @ theta0 + noise
    u_mar = Stream(child_seed(seed, _ROLE_MASK)).uniforms(n)
    b = Stream(child_seed(seed, _ROLE_FLAG)).bernoulli(epsilon, n)
    u_mnar = Stream(child_seed(seed, _ROLE_CONT)).uniforms(n)

    m2 = np.broadcast_to(
        np.asarray(mechanism2(X, y) if callable(mechanism2) else mechanism2, dtype=float), (n,)
    )
    if np.any((m2 < 0.0) | (m2 > 1.0)):
        raise DomainError("mechanism2 probabilities must lie in [0, 1]")

    reveal = np.where(b, u_mnar < m2, u_mar < qx)
    return ExtendedArray(y[:, None], reveal[:, None])


# ---------------------------------------------------------------------------
# diagnostics and dataset dumps


def realisable_sandwich_check(
    sample, base, epsilon: float, q: float, grid_size: int = 100
) -> tuple[bool, float]:
    """Empirical check that observed-value mass sits in the sandwich.

    For H(t) = #\\{observed values <= t\\} / n the realisable model forces
    q(1-eps) F(t) <= H(t) <= {q(1-eps)+eps} F(t) up to sampling noise; the
    slack is 3 sqrt(log(n)/n).  Returns (ok, worst violation).
    """
    vals, obs = as_univariate(sample)
    n = len(vals)
    if n == 0:
        raise SizeError("empty sample")
    lo_mass = q * (1.0 - epsilon)
    hi_mass = lo_mass + epsilon
    slack = 3.0 * math.sqrt(math.log(n) / n)
    grid = base.ppf(np.linspace(0.005, 0.995, grid_size))
    z = np.sort(vals[obs])
    h = np.searchsorted(z, grid, side="right") / n
    f = base.cdf(grid)
    viol = np.maximum(lo_mass * f - slack - h, h - hi_mass * f - slack)
    worst = float(viol.max())
    return worst <= 0.0, worst


def write_dataset(path, sample: ExtendedArray, model: str, seed: int) -> None:
    """TAB-separated dump, one row per observation, STAR encoded as NA."""
    with open(path, "w") as fh:
        fh.write(f"# d={sample.d} model={model} seed={int(seed)}\n")
        for i in range(sample.n):
            cells = [
                "%.17g" % sample.values[i, j] if sample.observed[i, j] else "NA"
                for j in range(sample.d)
            ]
            fh.write("\t".join(cells) + "\n")


def read_dataset(path) -> tuple[ExtendedArray, dict]:
    """Read a dump produced by :func:`write_dataset`."""
    meta: dict = {}
    vals, obs = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise DomainError(f"{path}: missing header line")
        for part in header.lstrip("#").split():
            if "=" in part:
                k, v = part.split("=", 1)
                meta[k] = int(v) if k in ("d", "seed") else v
        d = int(meta.get("d", 0))
        for line in fh:
            line = line.strip()
            if not line:
                continue
            cells = line.split("\t")
            if d and len(cells) != d:
                raise DimensionError(f"{path}: row has {len(cells)} cells, expected {d}")
            vals.append([0.0 if c == "NA" else float(c) for c in cells])
            obs.append([c != "NA" for c in cells])
    if not vals:
        raise SizeError(f"{path}: no data rows")
    return ExtendedArray(np.array(vals), np.array(obs, dtype=bool)), meta
