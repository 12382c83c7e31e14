"""Initial-condition generators, preset scenarios, and the sweep harness.

Two presets are shipped: the ring-width study (uniform initial vasculature)
and the surface-regularity study (vasculature concentrated in disc zones).
The seed shapes carry no canonical amplitudes, so the bump and zone defaults
below are this artifact's documented choices; every qualitative conclusion
the presets support is tested against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterator, Mapping

import numpy as np

from .errors import InvalidParameterError, check_finite
from .kinetics import DimensionlessParameters
from .mesh import StructuredTriMesh, build_mesh, check_bounds
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
    "ZonedVasculature",
    "Scenario",
    "scenario_ring_width",
    "scenario_surface_regularity",
    "sweep",
    "sweep_runs",
    "default_sweep_values",
]

PARAMETER_NAMES = tuple(f.name for f in fields(DimensionlessParameters))

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
DEFAULT_UNIFORM_LEVEL = 0.5


@dataclass(frozen=True)
class BumpSpec:
    """Truncated Gaussian tumor seed: value peak at the center, standard
    deviation radius/3, hard cutoff at the radius.  The defaults are the
    presets' seed."""

    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 3.0
    peak: float = 0.5

    def __post_init__(self):
        if not self.radius > 0.0:
            raise InvalidParameterError(f"bump radius must be positive, got {self.radius!r}")
        check_finite("bump radius", self.radius)
        if not 0.0 < self.peak <= 1.0:
            raise InvalidParameterError(f"bump peak must lie in (0, 1], got {self.peak!r}")

    def field(self, mesh: StructuredTriMesh) -> np.ndarray:
        """The bump at the mesh's vertices; the center must lie in the domain."""
        cx, cy = self.center
        if not (mesh.xmin <= cx <= mesh.xmax and mesh.ymin <= cy <= mesh.ymax):
            raise InvalidParameterError(f"center {self.center!r} lies outside the domain")
        field = np.zeros((mesh.n_sub + 1,) * 2)
        box, dist_sq = _disc_box(mesh, self.center, self.radius)
        inside = dist_sq <= self.radius * self.radius
        sigma = self.radius / 3.0
        field[box][inside] = self.peak * np.exp(-dist_sq[inside] / (2.0 * sigma * sigma))
        return field.ravel()


@dataclass(frozen=True)
class ZoneSpec:
    """One vasculature disc: center, radius, density level."""

    center: tuple[float, float]
    radius: float
    level: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise InvalidParameterError(f"zone radius must be positive, got {self.radius!r}")
        check_finite("zone radius", self.radius)
        for value in self.center:
            check_finite("zone center", value)
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
class ZonedVasculature:
    """Initial vasculature: base_level everywhere, overridden inside each zone;
    later zones win on overlap.  With no zones the field is uniform."""

    base_level: float
    zones: tuple[ZoneSpec, ...]

    def __post_init__(self):
        if not 0.0 <= self.base_level <= 1.0:
            raise InvalidParameterError(
                f"vasculature level must lie in [0, 1], got {self.base_level!r}"
            )

    def field(self, mesh: StructuredTriMesh) -> np.ndarray:
        """The vasculature at the mesh's vertices."""
        field = np.full((mesh.n_sub + 1,) * 2, float(self.base_level))
        for zone in self.zones:
            box, dist_sq = _disc_box(mesh, zone.center, zone.radius)
            field[box][dist_sq <= zone.radius * zone.radius] = zone.level
        return field.ravel()


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
    vasculature_ic: ZonedVasculature
    necrosis_level: float = 0.0
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        check_bounds(*self.bounds)
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
        for zone in self.vasculature_ic.zones:
            (zx, zy), r = zone.center, zone.radius
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
        necrosis = np.full(mesh.num_vertices, float(self.necrosis_level))
        return SimulationState(
            time=0.0,
            t_field=self.tumor_ic.field(mesh),
            n_field=necrosis,
            phi_field=self.vasculature_ic.field(mesh),
        )


def _disc_box(mesh: StructuredTriMesh, center, radius: float):
    """The (rows, cols) slices of the vertex grid within radius of center,
    widened by one grid line against rounding, and the squared distances of
    their vertices to center.  No vertex outside the box lies in the disc."""
    m = mesh.n_sub + 1
    box = []
    axes = ((center[1], mesh.ymin, mesh.ymax), (center[0], mesh.xmin, mesh.xmax))
    for c, lo, hi in axes:
        h = (hi - lo) / (m - 1)
        ends = (int((c - radius - lo) / h) - 1, int((c + radius - lo) / h) + 2)
        box.append(slice(*(min(max(end, 0), m) for end in ends)))
    rows, cols = box
    dx = mesh.vertices[:m, 0][cols] - center[0]
    dy = mesh.vertices[::m, 1][rows, None] - center[1]
    return (rows, cols), dx * dx + dy * dy


def scenario_ring_width(
    param_overrides: Mapping[str, float] | None = None,
) -> Scenario:
    """Ring-width preset: uniform initial vasculature, zero necrosis."""
    return _preset(ZonedVasculature(DEFAULT_UNIFORM_LEVEL, ()), param_overrides)


def scenario_surface_regularity(
    param_overrides: Mapping[str, float] | None = None,
) -> Scenario:
    """Surface-regularity preset: three vascular corridors on an avascular
    background."""
    return _preset(ZonedVasculature(DEFAULT_ZONE_BASE, DEFAULT_ZONES), param_overrides)


def _preset(vasculature: ZonedVasculature, overrides) -> Scenario:
    """The default domain, rates and seed with the given vasculature."""
    return Scenario(
        bounds=DEFAULT_BOUNDS,
        n_sub=DEFAULT_N_SUB,
        params=_override(DEFAULT_PARAMETERS, overrides),
        tumor_ic=BumpSpec(),
        vasculature_ic=vasculature,
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
