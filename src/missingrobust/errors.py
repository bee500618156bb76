"""Error taxonomy shared across the package.

``ConfigError`` maps to CLI exit code 1; the numeric failures in
``_NUMERIC_ERRORS`` map to exit code 2 and, inside a simulation, to an NA
record for the one estimator that raised them.
"""

import math
import sys

from numpy.linalg import LinAlgError


class DomainError(ValueError):
    """A parameter is outside its mathematical domain."""


class DimensionError(ValueError):
    """Mismatched shapes or lengths."""


class SizeError(ValueError):
    """Too little data for the requested computation, or a problem size
    beyond the supported range."""


class ModelError(ValueError):
    """Data violates the structural assumptions of an estimator (for
    example mixed observation patterns where all-or-nothing is required)."""


class EstimationError(RuntimeError):
    """A numeric estimation step failed (empty observed set, solver
    breakdown)."""


class ConfigError(ValueError):
    """Invalid harness or CLI configuration."""


# numeric or data failures of one computation, as opposed to a bad config
_NUMERIC_ERRORS = (
    DomainError,
    DimensionError,
    SizeError,
    ModelError,
    EstimationError,
    FloatingPointError,
    LinAlgError,
)


def _is_int(x) -> bool:
    # JSON true/false load as bool, which subclasses int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    # JSON reads a long digit string as an int past the float range, which no float check can take
    return isinstance(x, float) or (_is_int(x) and abs(x) <= sys.float_info.max)


# the domain of each model parameter, as a test on a number and its description
_DOMAINS = {
    "epsilon": (lambda v: 0.0 <= v < 1.0, "a number in [0, 1)"),
    "q": (lambda v: 0.0 < v <= 1.0, "a number in (0, 1]"),
    # the models and estimators use sigma**2, which must neither overflow nor underflow to 0
    "sigma": (
        lambda v: v > 0.0 and 0.0 < float(v) * float(v) < math.inf,
        "a positive number whose square is finite and nonzero",
    ),
    # the trimmed mean reads log(4/delta), robust descent and median of means log(2/delta)
    "delta": (lambda v: 0.0 < v <= 1.0 and 4.0 / float(v) < math.inf, "a number in (0, 1] with 4/delta finite"),
}


def check_param(name: str, value) -> None:
    """``DomainError`` unless ``value`` lies in the domain of the model parameter ``name``;
    the harness turns it into a ``ConfigError`` naming the config key or CLI flag."""
    ok, want = _DOMAINS[name]
    if not (_is_number(value) and ok(value)):
        raise DomainError(f"{name} must be {want}, got {value!r}")
