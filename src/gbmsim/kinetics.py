"""Pointwise kinetics of the dimensionless tumor / necrosis / vasculature system.

Every function here operates on the normalized system (carrying capacity 1,
unit proliferation rate, unit baseline diffusivity).  Every function accepts
scalars or numpy arrays and is free of shared mutable state, so concurrent
evaluation is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_range

__all__ = ["DimensionlessParameters", "FieldTriple", "vascular_fraction", "reactions"]


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
        for name, value in vars(self).items():
            check_range(name, value, lambda v: v >= 0.0, "be nonnegative")


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


def reactions(state: FieldTriple, p: DimensionlessParameters):
    """The tumor, necrosis and vasculature rates, in that order.  Necrosis
    gains every death term the other two lose (hypoxia and destruction by
    necrosis; destruction by tumor and by necrosis), so it is nonnegative
    whenever the state is, and never resorbs.  The two destruction-by-necrosis
    terms read N+ = max(N, 0), as ``vascular_fraction`` reads Phi+ and T+, so
    a negative N is not a negative death rate that would feed itself."""
    t, n, phi = state.t_density, state.n_density, state.phi_density
    frac = vascular_fraction(phi, t)
    lack = np.sqrt(1.0 - frac * frac)
    crowding = 1.0 - (t + n + phi)
    n_pos = np.maximum(n, 0.0)
    hypoxia, t_by_n = p.alpha * t * lack, p.beta1 * n_pos * t
    phi_by_t, phi_by_n = p.delta * t * phi, p.beta2 * n_pos * phi
    return (
        t * frac * crowding - hypoxia - t_by_n,
        hypoxia + t_by_n + phi_by_t + phi_by_n,
        p.gamma * t * lack * phi * crowding - phi_by_t - phi_by_n,
    )
