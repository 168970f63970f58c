"""Exception types shared across the package.

The CLI prints ``type(err).__name__`` as its machine-parsable error class,
so every error raised on a documented failure path derives from AvdsError
and carries a human-readable message.
"""


class AvdsError(Exception):
    """Base class for all package errors."""


class InvalidSpec(AvdsError):
    """Operator specification is malformed (sizes, levels, combination)."""


class DimensionMismatch(AvdsError):
    """Input vector/matrix shape does not match the operator or image."""


class InvalidPartition(AvdsError):
    """Block partition does not disjointly cover the index set."""


class InvalidWeights(AvdsError):
    """Weight vector violates its constraints (range, sum, feasibility)."""


class InfeasibleBudget(AvdsError):
    """Requested number of distinct draws exceeds the density support."""


class UnnormalizedDensity(AvdsError):
    """Density vector does not sum to one within tolerance."""


class UnsupportedSolver(AvdsError):
    """Solver invoked on an operator outside its contract."""


class FormatError(AvdsError):
    """File (tensor / PGM / config) is malformed."""


class ConfigError(AvdsError):
    """Run configuration is invalid or contains unknown keys."""
