"""Seeded samplers for every missingness/contamination model in the suite.

Sampler determinism contract
----------------------------
Each sampler derives one child stream per *role* from its seed, via
``child_seed(seed, role)``:

- role 1: base draws (``base.dim`` uniforms per row),
- role 2: revelation draws (one uniform per row),
- role 3: contamination flags (one uniform per row),
- role 4: response-dependent reveal draws of ``sample_regression`` (one
  uniform per row).

Roles are consumed independently, so e.g. the clean-data path of the
contaminated samplers replays the plain MCAR stream bit for bit when
epsilon = 0.  Within a role, draws are consumed row-major in a single batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SizeError, check_param
from .extended import ExtendedArray, PatternDistribution
from .rng import Stream, child_seed

# ndtr and ndtri are imported in the functions that call them, so that
# importing the package leaves scipy.special unloaded

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
    (``scale``, ``cdf``) is only available in that case.
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
        check_param("sigma", sigma)
        return Gaussian(np.array([float(theta)]), np.array([[float(sigma) ** 2]]))

    is_continuous = True

    @property
    def dim(self) -> int:
        return len(self.theta)

    def mean(self):
        return float(self.theta[0]) if self.dim == 1 else self.theta.copy()

    @property
    def scale(self) -> float:
        if self.dim != 1:
            raise DimensionError("scalar scale defined only for d = 1")
        return float(math.sqrt(self.cov[0, 0]))

    def sample_values(self, stream: Stream, n: int) -> np.ndarray:
        z = stream.normals(n * self.dim).reshape(n, self.dim)
        return self.theta + z @ self._chol.T

    def cdf(self, x):
        from scipy.special import ndtr

        return ndtr((np.asarray(x, dtype=float) - self.theta[0]) / self.scale)


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

    is_continuous = False
    dim = 1

    def mean(self) -> float:
        return self.lo * (1.0 - self.p_hi) + self.hi * self.p_hi

    def sample_values(self, stream: Stream, n: int) -> np.ndarray:
        return np.where(stream.uniforms(n) < self.p_hi, self.hi, self.lo)[:, None]


# ---------------------------------------------------------------------------
# MNAR reveal mechanisms


@dataclass(frozen=True)
class Constant:
    """Reveal with fixed probability c regardless of the value."""

    c: float

    def __post_init__(self):
        if not 0.0 <= self.c <= 1.0:
            raise DomainError(f"reveal probability must lie in [0, 1], got {self.c}")

    def reveal_prob(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)


@dataclass(frozen=True)
class ThresholdAbove:
    """Reveal exactly the values at or above t."""

    t: float

    def reveal_prob(self, x):
        return (np.asarray(x, dtype=float) >= self.t).astype(float)


@dataclass(frozen=True)
class ThresholdBelow:
    """Reveal exactly the values at or below t."""

    t: float

    def reveal_prob(self, x):
        return (np.asarray(x, dtype=float) <= self.t).astype(float)


@dataclass(frozen=True)
class TailsOnly:
    """Reveal exactly the values with |x| >= t."""

    t: float

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

    def reveal_prob(self, x):
        idx = np.searchsorted(np.asarray(self.knots), np.asarray(x, dtype=float), side="left")
        return np.asarray(self.levels, dtype=float)[idx]


# ---------------------------------------------------------------------------
# contaminants for the arbitrary model


def all_star_contaminant(d: int) -> ExtendedArray:
    """The contaminant that hides the whole row."""
    return ExtendedArray(np.zeros((1, d)), np.zeros((1, d), dtype=bool))


def point_contaminant(value) -> ExtendedArray:
    """The contaminant that reveals one fixed point."""
    row = np.atleast_1d(np.asarray(value, dtype=float))[None, :]
    return ExtendedArray(row, np.ones(row.shape, dtype=bool))


# ---------------------------------------------------------------------------
# samplers


def _check_pattern(pi, d: int) -> None:
    if not isinstance(pi, PatternDistribution):
        raise DimensionError(f"reveal must be a PatternDistribution, got {pi!r}")
    if pi.d != d:
        raise DimensionError(f"pattern dimension {pi.d} != data dimension {d}")


def sample_mcar(base, pi, n: int, seed: int) -> ExtendedArray:
    """n independent draws of X masked by an independent pattern.

    Consumes n * base.dim uniforms on role 1 and n on role 2.
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    _check_pattern(pi, base.dim)
    x = base.sample_values(Stream(child_seed(seed, _ROLE_BASE)), n)
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
    check_param("epsilon", epsilon)
    check_param("q", q)
    x = base.sample_values(Stream(child_seed(seed, _ROLE_BASE)), n)
    u_reveal = Stream(child_seed(seed, _ROLE_MASK)).uniforms(n)
    w = Stream(child_seed(seed, _ROLE_FLAG)).bernoulli(epsilon, n)
    p = np.where(w, _mech_probs(mechanism, x[:, 0]), q)
    return ExtendedArray(x, np.repeat((u_reveal < p)[:, None], base.dim, axis=1))


def sample_arbitrary(base, epsilon: float, pi, contaminant, n: int, seed: int) -> ExtendedArray:
    """Arbitrary contamination: MCAR draws mixed with a fixed contaminant row.

    With probability 1 - epsilon a row is X masked by an independent pattern;
    with probability epsilon it is ``contaminant``, a one-row ExtendedArray.

    Consumes the draws of sample_mcar(base, pi, n, seed) and n uniforms on
    role 3; with epsilon = 0 the output replays that MCAR sample exactly.
    """
    check_param("epsilon", epsilon)
    if contaminant.d != base.dim:
        raise DimensionError("contaminant dimension differs from base dimension")
    clean = sample_mcar(base, pi, n, seed)
    w = Stream(child_seed(seed, _ROLE_FLAG)).bernoulli(epsilon, n)[:, None]
    return ExtendedArray(
        np.where(w, contaminant.values, clean.values),
        np.where(w, contaminant.observed, clean.observed),
    )


def _mech_probs(mechanism, x: np.ndarray) -> np.ndarray:
    p = np.asarray(mechanism.reveal_prob(x), dtype=float)
    if np.any((p < 0.0) | (p > 1.0)):
        raise DomainError("mechanism reveal probabilities must lie in [0, 1]")
    return p


# ---------------------------------------------------------------------------
# contamination spec (sampler descriptor)


@dataclass(frozen=True)
class ContaminationSpec:
    """Base distribution + contamination level + the contaminating law.

    ``kind`` is one of "mcar", "realisable", "arbitrary".  ``reveal`` is the
    realisable variant's scalar observation probability q in (0, 1] and the
    other variants' PatternDistribution over ``base.dim`` coordinates; the
    MCAR sampler ignores ``epsilon``.  The realisable variant carries a
    reveal mechanism and no free contaminant; the arbitrary variant carries
    a one-row contaminant.
    """

    kind: str
    base: object
    epsilon: float
    reveal: object
    mechanism: object = None
    contaminant: object = None

    def __post_init__(self):
        if self.kind not in ("mcar", "realisable", "arbitrary"):
            raise DomainError(f"unknown contamination kind {self.kind!r}")
        check_param("epsilon", self.epsilon)
        if self.kind == "realisable":
            check_param("q", self.reveal)
            if self.mechanism is None:
                raise DomainError("realisable contamination needs a mechanism")
            if self.contaminant is not None:
                raise DomainError("realisable contamination admits no free contaminant")
        else:
            _check_pattern(self.reveal, self.base.dim)
        if self.kind == "arbitrary" and self.contaminant is None:
            raise DomainError("arbitrary contamination needs a contaminant")

    def sample(self, n: int, seed: int) -> ExtendedArray:
        if self.kind == "mcar":
            return sample_mcar(self.base, self.reveal, n, seed)
        if self.kind == "realisable":
            return sample_realisable(self.base, self.epsilon, self.reveal, self.mechanism, n, seed)
        return sample_arbitrary(self.base, self.epsilon, self.reveal, self.contaminant, n, seed)


# ---------------------------------------------------------------------------
# adversarial generators


@dataclass(frozen=True)
class AdversaryLaw:
    """Piecewise-Gaussian observed-value density with the remaining mass missing.

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
        if not self.a > 0:
            raise DomainError(f"a must be positive, got {self.a!r}")
        check_param("sigma", self.sigma)
        check_param("epsilon", self.epsilon)
        check_param("q", self.q)

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

    def _Phi(self, x, centre):
        from scipy.special import ndtr

        return ndtr((np.asarray(x, dtype=float) - centre) / self.sigma)

    def _knots(self) -> tuple[float, float]:
        """F1 at the piece boundaries 0 and tau."""
        lo, tau, a = self.lo_mass, self.tau, self.a
        f0 = lo * self._Phi(0.0, -a)
        ftau = f0 + lo * (self._Phi(tau, a) - self._Phi(0.0, a))
        return f0, ftau

    def _cdf_f1(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi, tau, a = self.lo_mass, self.hi_mass, self.tau, self.a
        f0, ftau = self._knots()
        return np.where(
            x <= 0.0,
            lo * self._Phi(x, -a),
            np.where(
                x <= tau,
                f0 + lo * (self._Phi(x, a) - self._Phi(0.0, a)),
                ftau + hi * (self._Phi(x, -a) - self._Phi(tau, -a)),
            ),
        )

    def _inverse_cdf_f1(self, u: np.ndarray) -> np.ndarray:
        """F1^{-1}(u) piece by piece through ndtri, clipped to +-(a + 60 sigma).

        The top piece inverts the upper tail, so the far right keeps its
        absolute accuracy; every ndtri argument is clamped into [0, 1]
        against rounding at the ends of [0, real_mass()).
        """
        from scipy.special import ndtr, ndtri

        lo, hi, tau, a, s = self.lo_mass, self.hi_mass, self.tau, self.a, self.sigma
        f0, ftau = self._knots()
        x = np.select(
            [u < f0, u < ftau],
            [
                -a + s * ndtri(np.clip(u / lo, 0.0, 1.0)),
                a + s * ndtri(np.clip(self._Phi(0.0, a) + (u - f0) / lo, 0.0, 1.0)),
            ],
            -a - s * ndtri(np.clip(ndtr(-(tau + a) / s) - (u - ftau) / hi, 0.0, 1.0)),
        )
        return np.clip(x, -a - 60.0 * s, a + 60.0 * s)

    def real_mass(self) -> float:
        return float(self._cdf_f1(self.a + 60.0 * self.sigma))

    def sample(self, n: int, seed: int) -> ExtendedArray:
        """n draws by inversion; one uniform per row (role 1).

        Row i is observed iff u_i < real_mass(), and its value is the
        closed-form inverse of the piecewise CDF at u_i; f2 reflects f1,
        x = -F1^{-1}(real_mass() - u).
        """
        u = Stream(child_seed(seed, _ROLE_BASE)).uniforms(n)
        mass = self.real_mass()
        observed = u < mass
        values = np.zeros(n)
        if self.name == "f1":
            values[observed] = self._inverse_cdf_f1(u[observed])
        else:
            values[observed] = -self._inverse_cdf_f1(mass - u[observed])
        return ExtendedArray(values[:, None], observed[:, None])


def adversary_two_point(r: float, sigma: float, epsilon: float, q: float) -> tuple:
    """The indistinguishable two-atom pair at moment order r.

    Returns ``((spec1, theta1), (spec2, theta2))``: realisable contamination
    specs of two-atom bases on {-b, b} with means ``theta1 < theta2`` whose
    observable laws coincide, so no estimator can tell them apart.
    """
    if r < 2.0:
        raise DomainError(f"moment order r must be at least 2, got {r}")
    check_param("sigma", sigma)
    check_param("epsilon", epsilon)
    check_param("q", q)
    lo_mass = q * (1.0 - epsilon)
    a = lo_mass / (lo_mass + epsilon)
    b = 0.5 * sigma * a ** (-1.0 / r)
    p1 = TwoPoint(lo=-b, hi=b, p_hi=a / (a + 1.0))
    p2 = TwoPoint(lo=-b, hi=b, p_hi=1.0 / (a + 1.0))
    spec1 = ContaminationSpec("realisable", p1, epsilon, q, mechanism=ThresholdAbove(0.0))
    spec2 = ContaminationSpec("realisable", p2, epsilon, q, mechanism=ThresholdBelow(0.0))
    return (spec1, p1.mean()), (spec2, p2.mean())


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
) -> ExtendedArray:
    """Linear-model responses with a contaminated missing-response channel.

    Y_i = x_i' theta0 + N(0, sigma^2).  With probability 1 - epsilon the
    response is revealed with probability q_x(x_i) (ignorable, noise
    independent); with probability epsilon the reveal probability is
    mechanism2(x_i, y_i), which may depend on the response.

    ``q_x`` is a scalar or a callable over the design matrix; ``mechanism2``
    a scalar or a callable (X, y) -> probabilities.

    Consumes n uniforms on each of roles 1 (noise), 2 (ignorable reveal),
    3 (flags), 4 (response-dependent reveal).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, d = X.shape
    theta0 = np.asarray(theta0, dtype=float).reshape(d)
    check_param("sigma", sigma)
    check_param("epsilon", epsilon)

    qx = np.broadcast_to(np.asarray(q_x(X) if callable(q_x) else q_x, dtype=float), (n,))
    if np.any((qx <= 0.0) | (qx > 1.0)):
        raise DomainError("q_x must lie in (0, 1] for every row")

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
# dataset dumps


def write_dataset(path, sample: ExtendedArray, model: str, seed: int) -> None:
    """TAB-separated dump, one row per observation, a missing cell written as NA."""
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
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("#"):
                raise DomainError(f"{path}: missing header line")
            for part in header.lstrip("#").split():
                if "=" in part:
                    k, v = part.split("=", 1)
                    try:
                        meta[k] = int(v) if k in ("d", "seed") else v
                    except ValueError:
                        raise DomainError(f"{path}: header {k}={v!r} is not an integer") from None
            d = int(meta.get("d", 0))
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                cells = line.split("\t")
                # without a header d, the first data row fixes the width
                d = d or len(cells)
                if len(cells) != d:
                    raise DimensionError(f"{path}: line {lineno} has {len(cells)} cells, expected {d}")
                try:
                    row = [0.0 if c == "NA" else float(c) for c in cells]
                except ValueError:
                    raise DomainError(f"{path}: line {lineno} has a non-numeric cell: {line!r}") from None
                if not all(map(math.isfinite, row)):
                    raise DomainError(f"{path}: line {lineno} has a non-finite cell: {line!r}")
                vals.append(row)
                obs.append([c != "NA" for c in cells])
    except UnicodeDecodeError as e:
        raise DomainError(f"{path}: not text: {e}") from None
    if not vals:
        raise SizeError(f"{path}: no data rows")
    return ExtendedArray(np.array(vals), np.array(obs, dtype=bool)), meta
