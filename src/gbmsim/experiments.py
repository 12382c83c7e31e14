"""Initial-condition generators, preset scenarios, and the sweep harness.

Two presets are shipped: the ring-width study (uniform initial vasculature)
and the surface-regularity study (vasculature concentrated in disc zones).
The seed shapes carry no canonical amplitudes, so the bump and zone defaults
below are this artifact's documented choices; every qualitative conclusion
the presets support is tested against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

import numpy as np

from .errors import InvalidParameterError
from .kinetics import DimensionlessParameters
from .mesh import StructuredTriMesh, build_mesh
from .metrics import DEFAULT_THRESHOLD
from .solver import MetricsSample, RunResult, SimulationState, SolverConfig, run

__all__ = [
    "DEFAULT_PARAMETERS",
    "PARAMETER_RANGES",
    "PARAMETER_NAMES",
    "DEFAULT_BOUNDS",
    "DEFAULT_N_SUB",
    "BumpSpec",
    "ZoneSpec",
    "UniformVasculature",
    "ZonedVasculature",
    "Scenario",
    "ic_tumor_bump",
    "ic_vasculature_uniform",
    "ic_vasculature_zones",
    "scenario_ring_width",
    "scenario_surface_regularity",
    "sweep",
    "sweep_runs",
    "default_sweep_values",
]

PARAMETER_NAMES = ("kappa1", "alpha", "beta1", "beta2", "gamma", "delta")

# Fixed working point and the admissible sweep range of each rate.
DEFAULT_PARAMETERS = DimensionlessParameters(
    kappa1=55.0, alpha=45.0, beta1=27.5, beta2=2.55, gamma=0.255, delta=2.55
)
PARAMETER_RANGES: dict[str, tuple[float, float]] = {
    "kappa1": (10.0, 100.0),
    "alpha": (10.0, 100.0),
    "beta1": (5.0, 50.0),
    "beta2": (0.1, 5.0),
    "gamma": (0.01, 0.5),
    "delta": (0.1, 5.0),
}

DEFAULT_BOUNDS = (-9.0, 9.0, -9.0, 9.0)
DEFAULT_N_SUB = 45

DEFAULT_BUMP = dict(center=(0.0, 0.0), radius=3.0, peak=0.5)
DEFAULT_UNIFORM_LEVEL = 0.5


@dataclass(frozen=True)
class BumpSpec:
    """Truncated Gaussian tumor seed: value peak at the center, standard
    deviation radius/3, hard cutoff at the radius."""

    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 3.0
    peak: float = 0.5

    def __post_init__(self):
        if not self.radius > 0.0:
            raise InvalidParameterError(f"bump radius must be positive, got {self.radius!r}")
        if not 0.0 < self.peak <= 1.0:
            raise InvalidParameterError(f"bump peak must lie in (0, 1], got {self.peak!r}")


@dataclass(frozen=True)
class ZoneSpec:
    """One vasculature disc: center, radius, density level."""

    center: tuple[float, float]
    radius: float
    level: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise InvalidParameterError(f"zone radius must be positive, got {self.radius!r}")
        if not 0.0 <= self.level <= 1.0:
            raise InvalidParameterError(f"zone level must lie in [0, 1], got {self.level!r}")


def _corridor(direction, level, distances=(2.2, 3.2, 4.2), radius=1.0):
    dx, dy = direction
    norm = math.hypot(dx, dy)
    return tuple(
        ZoneSpec(center=(d * dx / norm, d * dy / norm), radius=radius, level=level)
        for d in distances
    )


# Three narrow vascular corridors radiating from the seed, one concentration
# each, on an avascular background.  Corridor length matches the diffusion
# reach of the fixed-rate setup, so the thresholded-region shape is set by the
# diffusion contrast rather than by how fast necrosis converts vasculature.
DEFAULT_ZONE_BASE = 0.0
DEFAULT_ZONES = (
    _corridor((-1.0, 0.0), 0.30)
    + _corridor((1.0, 1.0), 0.25)
    + _corridor((0.34, -0.94), 0.20)
)


@dataclass(frozen=True)
class UniformVasculature:
    level: float

    def __post_init__(self):
        if not 0.0 <= self.level <= 1.0:
            raise InvalidParameterError(
                f"vasculature level must lie in [0, 1], got {self.level!r}"
            )


@dataclass(frozen=True)
class ZonedVasculature:
    base_level: float
    zones: tuple[ZoneSpec, ...]

    def __post_init__(self):
        if not 0.0 <= self.base_level <= 1.0:
            raise InvalidParameterError(
                f"base level must lie in [0, 1], got {self.base_level!r}"
            )


@dataclass(frozen=True)
class Scenario:
    """Everything one experiment needs: domain, rates, seeds, solver settings.

    Construction is pure, so identical inputs give identical scenarios and
    sweeps are reproducible.
    """

    bounds: tuple[float, float, float, float]
    n_sub: int
    params: DimensionlessParameters
    tumor_ic: BumpSpec
    vasculature_ic: UniformVasculature | ZonedVasculature
    necrosis_level: float = 0.0
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        if not 0.0 <= self.necrosis_level <= 1.0:
            raise InvalidParameterError(
                f"necrosis level must lie in [0, 1], got {self.necrosis_level!r}"
            )
        xmin, xmax, ymin, ymax = self.bounds
        cx, cy = self.tumor_ic.center
        if not (xmin <= cx <= xmax and ymin <= cy <= ymax):
            raise InvalidParameterError(
                f"tumor center {self.tumor_ic.center} outside domain {self.bounds}"
            )
        if isinstance(self.vasculature_ic, ZonedVasculature):
            for zone in self.vasculature_ic.zones:
                zx, zy = zone.center
                r = zone.radius
                if not (
                    xmin <= zx - r and zx + r <= xmax
                    and ymin <= zy - r and zy + r <= ymax
                ):
                    raise InvalidParameterError(
                        f"zone {zone} does not lie within domain {self.bounds}"
                    )

    def build_mesh(self) -> StructuredTriMesh:
        return build_mesh(self.bounds, self.n_sub)

    def initial_state(self, mesh: StructuredTriMesh) -> SimulationState:
        tumor = ic_tumor_bump(
            mesh, self.tumor_ic.center, self.tumor_ic.radius, self.tumor_ic.peak
        )
        if isinstance(self.vasculature_ic, UniformVasculature):
            vasculature = ic_vasculature_uniform(mesh, self.vasculature_ic.level)
        else:
            vasculature = ic_vasculature_zones(
                mesh, self.vasculature_ic.base_level, self.vasculature_ic.zones
            )
        necrosis = np.full(mesh.num_vertices, float(self.necrosis_level))
        return SimulationState(
            time=0.0, t_field=tumor, n_field=necrosis, phi_field=vasculature
        )


def ic_tumor_bump(mesh: StructuredTriMesh, center, radius: float, peak: float):
    """Compactly supported Gaussian bump evaluated at the mesh vertices."""
    if not 0.0 < peak <= 1.0:
        raise InvalidParameterError(f"peak must lie in (0, 1], got {peak!r}")
    if not radius > 0.0:
        raise InvalidParameterError(f"radius must be positive, got {radius!r}")
    cx, cy = center
    if not (mesh.xmin <= cx <= mesh.xmax and mesh.ymin <= cy <= mesh.ymax):
        raise InvalidParameterError(f"center {center!r} lies outside the domain")
    dx = mesh.vertices[:, 0] - cx
    dy = mesh.vertices[:, 1] - cy
    dist_sq = dx * dx + dy * dy
    sigma = radius / 3.0
    values = peak * np.exp(-dist_sq / (2.0 * sigma * sigma))
    return np.where(dist_sq <= radius * radius, values, 0.0)


def ic_vasculature_uniform(mesh: StructuredTriMesh, level: float):
    if not 0.0 <= level <= 1.0:
        raise InvalidParameterError(f"level must lie in [0, 1], got {level!r}")
    return np.full(mesh.num_vertices, float(level))


def ic_vasculature_zones(mesh: StructuredTriMesh, base_level: float, zones):
    """Constant base field overridden inside each disc; later zones win on
    overlap."""
    if not 0.0 <= base_level <= 1.0:
        raise InvalidParameterError(
            f"base level must lie in [0, 1], got {base_level!r}"
        )
    field = np.full(mesh.num_vertices, float(base_level))
    for zone in zones:
        if not isinstance(zone, ZoneSpec):
            zone = ZoneSpec(center=tuple(zone[0]), radius=zone[1], level=zone[2])
        dx = mesh.vertices[:, 0] - zone.center[0]
        dy = mesh.vertices[:, 1] - zone.center[1]
        inside = dx * dx + dy * dy <= zone.radius * zone.radius
        field[inside] = zone.level
    return field


def scenario_ring_width(
    param_overrides: Mapping[str, float] | None = None,
) -> Scenario:
    """Ring-width preset: uniform initial vasculature, zero necrosis."""
    return Scenario(
        bounds=DEFAULT_BOUNDS,
        n_sub=DEFAULT_N_SUB,
        params=_override(DEFAULT_PARAMETERS, param_overrides),
        tumor_ic=BumpSpec(**DEFAULT_BUMP),
        vasculature_ic=UniformVasculature(DEFAULT_UNIFORM_LEVEL),
        necrosis_level=0.0,
        solver=SolverConfig(),
    )


def scenario_surface_regularity(
    param_overrides: Mapping[str, float] | None = None,
) -> Scenario:
    """Surface-regularity preset: three vascular corridors on an avascular
    background."""
    return Scenario(
        bounds=DEFAULT_BOUNDS,
        n_sub=DEFAULT_N_SUB,
        params=_override(DEFAULT_PARAMETERS, param_overrides),
        tumor_ic=BumpSpec(**DEFAULT_BUMP),
        vasculature_ic=ZonedVasculature(
            base_level=DEFAULT_ZONE_BASE, zones=DEFAULT_ZONES
        ),
        necrosis_level=0.0,
        solver=SolverConfig(),
    )


def _override(
    params: DimensionlessParameters, overrides: Mapping[str, float] | None
) -> DimensionlessParameters:
    if not overrides:
        return params
    unknown = set(overrides) - set(PARAMETER_NAMES)
    if unknown:
        raise InvalidParameterError(f"unknown parameter(s): {sorted(unknown)}")
    return replace(params, **dict(overrides))


def default_sweep_values(param_name: str) -> tuple[float, float, float]:
    """Three-point grid for one parameter: range low, fixed value, range high."""
    if param_name not in PARAMETER_RANGES:
        raise InvalidParameterError(f"unknown parameter {param_name!r}")
    lo, hi = PARAMETER_RANGES[param_name]
    return (lo, getattr(DEFAULT_PARAMETERS, param_name), hi)


def sweep_runs(
    scenario: Scenario, param_name: str, values, theta: float = DEFAULT_THRESHOLD
) -> Iterator[tuple[float, RunResult]]:
    """Yield ``(value, run result)`` for each value of one parameter, in the
    given order.  Every other setting is held fixed and the runs are
    independent, so no result depends on the order.

    The arguments are checked at the call, and values that are equal as
    floats are rejected; each run happens when the iterator reaches it.
    """
    if param_name not in PARAMETER_NAMES:
        raise InvalidParameterError(f"unknown parameter {param_name!r}")
    values = [float(value) for value in values]
    if not values:
        raise InvalidParameterError("sweep needs at least one value")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise InvalidParameterError(f"sweep values repeat: {repeated}")
    params = [replace(scenario.params, **{param_name: value}) for value in values]
    return (
        (value, run(replace(scenario, params=p), theta=theta))
        for value, p in zip(values, params)
    )


def sweep(
    scenario: Scenario, param_name: str, values, theta: float = DEFAULT_THRESHOLD
) -> dict[float, list[MetricsSample]]:
    """The metrics series of :func:`sweep_runs`, keyed by parameter value."""
    runs = sweep_runs(scenario, param_name, values, theta)
    return {value: result.metrics for value, result in runs}
