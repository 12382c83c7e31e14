"""Exception types shared across the package, and the value checks."""

import math
import operator


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SimulationError, ValueError):
    """A rate, scale, or configuration value is out of its admissible range."""


class MeshError(SimulationError, ValueError):
    """Mesh construction or mesh/field compatibility failure."""


def check_finite(name, value, error=InvalidParameterError):
    """Raise ``error("<name> must be finite, got <value>")`` unless it is."""
    check_range(name, value, lambda v: True, "be finite", error)


def check_range(name, value, fits, requirement, error=InvalidParameterError):
    """The one range rule of a number: raise ``error`` with "<name> must be
    finite, got <value>" unless it is a real number, then with "<name> must
    <requirement>, got <value>" unless ``fits(value)`` (NaN fits no range),
    then with the first message unless it is finite (inf, or an int beyond
    the float range)."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    except TypeError:  # not a real number
        finite = None
    if finite is not None and not fits(value):
        raise error(f"{name} must {requirement}, got {value!r}")
    if not finite:
        raise error(f"{name} must be finite, got {value!r}")


def check_type(name, value, kind):
    """Raise ``InvalidParameterError("<name> must be a <Kind>, got <value>")`` unless it is."""
    if not isinstance(value, kind):
        raise InvalidParameterError(f"{name} must be a {kind.__name__}, got {value!r}")


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
