"""Exception types shared across the package.

The CLI prints ``type(err).__name__`` as its machine-parsable error class,
so every error raised on a documented failure path derives from AvdsError
and carries a human-readable message.  `_check_count` is the one check of
a count argument, `_check_real` of a real-number argument,
`_check_reals` of an array of real numbers and `_check_indices` of an
array of indices, each raising the caller's error class.
"""

from numbers import Integral, Real

import numpy as np


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


def _check_count(n, what: str = "a support count", least: int = 0, error=ConfigError) -> int:
    """`n` as an int, checked: a count that is not an integer >= `least` (a
    bool, a float, a string) is an `error`; numpy integers pass."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < least:
        raise error(f"{what} must be an integer >= {least}, got {n!r}")
    return int(n)


def _check_real(x, what: str, error) -> float:
    """`x` as a float: a value that is not a real number (a bool, a string,
    None, a complex number) is an `error`; numpy scalars pass."""
    if isinstance(x, bool) or not isinstance(x, Real):
        raise error(f"{what} must be a real number, got {x!r}")
    return float(x)


def _check_reals(x, what: str, error) -> np.ndarray:
    """`x` as a float array: entries that are not real numbers (strings,
    complex numbers, objects) are an `error`; bools and integers pass."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise error(f"{what} must be real numbers, got {x.dtype}")
    return x.astype(float, copy=False)


def _check_indices(x, what: str, error) -> np.ndarray:
    """`x` as an array of indices: one that is not 1-D, or not empty and of
    no integer type, is an `error`, so a float or bool index is never cast
    to an index."""
    x = np.asarray(x)
    if x.ndim != 1 or (x.size and x.dtype.kind not in "iu"):
        raise error(f"{what} must be a 1-D integer array, got {x.dtype} of shape {x.shape}")
    return x
