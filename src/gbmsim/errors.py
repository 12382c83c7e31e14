"""Exception types shared across the package, and the value checks."""

import math
import operator


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SimulationError, ValueError):
    """A rate, scale, or configuration value is out of its admissible range."""


class MeshError(SimulationError, ValueError):
    """Mesh construction or mesh/field compatibility failure."""


def check_finite(name, value, error=InvalidParameterError, real_only=False):
    """Raise ``error("<name> must be finite, got <value>")`` unless it is;
    with ``real_only``, unless it is a real number (NaN and inf pass)."""
    try:
        if math.isfinite(value) or real_only:
            return
    except TypeError:  # not a real number
        pass
    raise error(f"{name} must be finite, got {value!r}")


def check_integer(name, value, error=InvalidParameterError):
    """Raise ``error("<name> must be an integer, got <value>")`` unless it is."""
    try:
        operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


class SolverFailure(SimulationError, RuntimeError):
    """A run could not go on: the tumor CG solve spent its iteration budget
    or stalled (a non-SPD matrix or non-finite input), or the homogeneous
    trajectory of ``run_homogeneous`` overflowed.

    Attributes
    ----------
    residual : float
        Relative residual at abort time (NaN for an overflow).
    iterations : int
        Iterations spent.
    step_index : int or None
        Time-step index, attached by the driver when available.
    """

    def __init__(self, message, residual=float("nan"), iterations=0, step_index=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.step_index = step_index


class EmptyRegionError(SimulationError, ValueError):
    """An enclosing circle was requested for an empty point set."""


class ConfigError(SimulationError, ValueError):
    """Config file rejected; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
