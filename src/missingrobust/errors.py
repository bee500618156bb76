"""Error taxonomy shared across the package.

``ConfigError`` maps to CLI exit code 1; the numeric failures in
``_NUMERIC_ERRORS`` map to exit code 2 and, inside a simulation, to an NA
record for the one estimator that raised them.
"""

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
