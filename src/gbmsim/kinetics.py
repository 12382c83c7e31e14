"""Pointwise kinetics of the dimensionless tumor / necrosis / vasculature system.

All reaction functions operate on the normalized system (carrying capacity 1,
unit proliferation rate, unit baseline diffusivity).  Dimensional inputs enter
only through :func:`nondimensionalize` and :func:`rescale_spacetime`.  Every
function accepts scalars or numpy arrays and is free of shared mutable state,
so concurrent evaluation is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameterError, check_finite

__all__ = [
    "DimensionalParameters",
    "DimensionlessParameters",
    "FieldTriple",
    "vascular_fraction",
    "hypoxia_factor",
    "reaction_tumor",
    "reaction_necrosis",
    "reaction_vasculature",
    "nondimensionalize",
    "rescale_spacetime",
]


@dataclass(frozen=True)
class DimensionalParameters:
    """Model rates in physical units (cm, day, cell).

    kappa1/kappa0 are the vasculature-modulated and baseline diffusion speeds
    (cm^2/day), rho the tumor proliferation rate (1/day), alpha the hypoxic
    death rate (cell/day), beta1 and beta2 the tumor->necrosis and
    vasculature->necrosis rates (1/day), gamma and delta the vasculature
    proliferation/destruction rates (1/day), and K the carrying capacity
    (cell/cm^3).  All values must be finite and strictly positive.
    """

    kappa1: float
    kappa0: float
    rho: float
    alpha: float
    beta1: float
    beta2: float
    gamma: float
    delta: float
    K: float

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if not value > 0.0:
                raise InvalidParameterError(
                    f"{name} must be strictly positive, got {value!r}"
                )
            check_finite(name, value)


@dataclass(frozen=True)
class DimensionlessParameters:
    """The six dimensionless rates driving the normalized system.

    ``kappa1`` is the diffusion contrast (total diffusivity is
    ``kappa1 * P + 1``, hence at least 1); the remaining five are unitless
    reaction rates.  All must be finite and nonnegative.
    """

    kappa1: float
    alpha: float
    beta1: float
    beta2: float
    gamma: float
    delta: float

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if not value >= 0.0:
                raise InvalidParameterError(
                    f"{name} must be nonnegative, got {value!r}"
                )
            check_finite(name, value)


@dataclass(frozen=True)
class FieldTriple:
    """Pointwise state (tumor, necrosis, vasculature densities).

    No bounds are enforced at construction; the solver's monitor owns bound
    checking.  Components may be scalars or equally shaped numpy arrays.
    """

    t_density: object
    n_density: object
    phi_density: object


def vascular_fraction(phi, t):
    """Vasculature volume fraction, a ratio in [0, 1].

    Negative inputs contribute through their positive part only, so the
    fraction is 0 whenever the vasculature density is nonpositive.  The
    denominator is bounded below by 1/2, making this a total function, and
    the numerator is nonnegative, so only the clip at 1 can bind.
    """
    phi_pos = np.maximum(phi, 0.0)
    t_pos = np.maximum(t, 0.0)
    fraction = phi_pos / ((phi_pos + 1.0) / 2.0 + t_pos)
    return np.minimum(fraction, 1.0)


def hypoxia_factor(phi, t):
    """Complementary fraction sqrt(1 - P^2) measuring the lack of vasculature.

    P lies in [0, 1] by :func:`vascular_fraction`, so the radicand is never
    negative.
    """
    p = vascular_fraction(phi, t)
    return np.sqrt(1.0 - p * p)


def reaction_tumor(state: FieldTriple, p: DimensionlessParameters):
    """Net tumor rate: vasculature-driven logistic growth minus hypoxic death
    and destruction by necrosis."""
    t, n, phi = state.t_density, state.n_density, state.phi_density
    frac = vascular_fraction(phi, t)
    lack = np.sqrt(1.0 - frac * frac)
    crowding = 1.0 - (t + n + phi)
    return t * frac * crowding - p.alpha * t * lack - p.beta1 * n * t


def reaction_necrosis(state: FieldTriple, p: DimensionlessParameters):
    """Necrosis rate: the sum of every death term of the other two fields.

    Nonnegative whenever all state components are nonnegative, so necrosis
    never resorbs.
    """
    t, n, phi = state.t_density, state.n_density, state.phi_density
    frac = vascular_fraction(phi, t)
    lack = np.sqrt(1.0 - frac * frac)
    return (
        p.alpha * t * lack
        + p.beta1 * n * t
        + p.delta * t * phi
        + p.beta2 * n * phi
    )


def reaction_vasculature(state: FieldTriple, p: DimensionlessParameters):
    """Vasculature rate: tumor-fueled logistic growth minus destruction by
    tumor and necrosis."""
    t, n, phi = state.t_density, state.n_density, state.phi_density
    frac = vascular_fraction(phi, t)
    lack = np.sqrt(1.0 - frac * frac)
    crowding = 1.0 - (t + n + phi)
    return (
        p.gamma * t * lack * phi * crowding
        - p.delta * t * phi
        - p.beta2 * n * phi
    )


def nondimensionalize(p: DimensionalParameters) -> DimensionlessParameters:
    """Map physical rates to the six dimensionless ones.

    Returns (kappa1/kappa0, alpha/rho, K*beta1/rho, K*beta2/rho, gamma/rho,
    K*delta/rho).  The dataclass validation already guarantees positive
    kappa0, rho, and K.
    """
    return DimensionlessParameters(
        kappa1=p.kappa1 / p.kappa0,
        alpha=p.alpha / p.rho,
        beta1=p.K * p.beta1 / p.rho,
        beta2=p.K * p.beta2 / p.rho,
        gamma=p.gamma / p.rho,
        delta=p.K * p.delta / p.rho,
    )


def rescale_spacetime(x, t, kappa0, rho):
    """Rescale a physical length/time pair into dimensionless coordinates.

    Returns ``(y, s)`` with ``y = sqrt(rho/kappa0) * x`` and ``s = rho * t``.
    """
    if not kappa0 > 0.0:
        raise InvalidParameterError(f"kappa0 must be strictly positive, got {kappa0!r}")
    if not rho > 0.0:
        raise InvalidParameterError(f"rho must be strictly positive, got {rho!r}")
    return math.sqrt(rho / kappa0) * x, rho * t
