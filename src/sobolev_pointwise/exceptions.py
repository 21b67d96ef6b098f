"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "UnsupportedOrderError",
    "DegeneratePairError",
    "ConfigError",
    "EmptyScanError",
]


class DomainError(ValueError):
    """A point (or a whole grid box) lies outside a field's domain."""


class UnsupportedOrderError(ValueError):
    """A derivative or difference order exceeds what the field supports."""


class DegeneratePairError(ValueError):
    """A point pair x, y whose remainder step (y - x) / order is zero, x == y included."""


class ConfigError(ValueError):
    """A configuration object is internally inconsistent or infeasible."""


class EmptyScanError(RuntimeError):
    """A scan produced no admissible pairs, so no report can be formed."""
