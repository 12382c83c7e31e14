"""Initial-condition generators, preset scenarios, and the sweep harness.

A :class:`Scenario` holds every setting that a run reads, ``theta`` included.
Two presets are shipped: the ring-width study (uniform initial vasculature)
and the surface-regularity study (vasculature concentrated in disc zones).
The seed shapes carry no canonical amplitudes, so the bump and zone defaults
below are this artifact's documented choices; every qualitative conclusion
the presets support is tested against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterator

import numpy as np

from .errors import InvalidParameterError, check_finite, check_range, check_type
from .kinetics import DimensionlessParameters
from .mesh import StructuredTriMesh, build_mesh, check_bounds, check_n_sub
from .metrics import DEFAULT_THRESHOLD, check_threshold
from .solver import RunResult, SimulationState, SolverConfig, run

__all__ = [
    "DEFAULT_PARAMETERS", "PARAMETER_RANGES", "PARAMETER_NAMES", "BumpSpec",
    "ZoneSpec", "ZonedVasculature", "Scenario", "scenario_ring_width",
    "scenario_surface_regularity", "sweep_runs", "default_sweep_values",
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


def _check_disc(radius_name, radius, center_name, center) -> None:
    """Reject a nonpositive or non-finite radius, or a center not two finite numbers."""
    check_range(radius_name, radius, lambda v: v > 0.0, "be positive")
    if not hasattr(center, "__len__") or len(center) != 2:
        raise InvalidParameterError(f"{center_name} must be a pair (x, y), got {center!r}")
    for value in center:
        check_finite(center_name, value)


def _check_level(name, level) -> None:
    """Reject a density level that is not a real number in [0, 1]."""
    check_range(f"{name} level", level, lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")


@dataclass(frozen=True)
class BumpSpec:
    """Truncated Gaussian tumor seed: value peak at the center, standard
    deviation radius/3, hard cutoff at the radius.  The defaults are the
    presets' seed."""

    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 3.0
    peak: float = 0.5

    def __post_init__(self):
        _check_disc("bump radius", self.radius, "tumor center", self.center)
        check_range("bump peak", self.peak, lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")

    def check_within(self, bounds) -> None:
        """Reject bounds that ``mesh.check_bounds`` rejects, then a center
        outside the rectangle (xmin, xmax, ymin, ymax)."""
        check_bounds(bounds)
        xmin, xmax, ymin, ymax = bounds
        cx, cy = self.center
        if not (xmin <= cx <= xmax and ymin <= cy <= ymax):
            raise InvalidParameterError(f"tumor center {self.center} outside domain {bounds}")

    def field(self, mesh: StructuredTriMesh) -> np.ndarray:
        """The bump at the mesh's vertices; the center must lie in the domain."""
        self.check_within((mesh.xmin, mesh.xmax, mesh.ymin, mesh.ymax))
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
        _check_disc("zone radius", self.radius, "zone center", self.center)
        _check_level("zone", self.level)


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
        _check_level("vasculature", self.base_level)
        for zone in self.zones:
            check_type("zone", zone, ZoneSpec)

    def field(self, mesh: StructuredTriMesh) -> np.ndarray:
        """The vasculature at the mesh's vertices."""
        field = np.full((mesh.n_sub + 1,) * 2, float(self.base_level))
        for zone in self.zones:
            box, dist_sq = _disc_box(mesh, zone.center, zone.radius)
            field[box][dist_sq <= zone.radius * zone.radius] = zone.level
        return field.ravel()


@dataclass(frozen=True)
class Scenario:
    """Everything one experiment needs: domain, rates, seeds, solver settings
    and the region threshold ``theta`` of its observables.

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
    theta: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        check_type("params", self.params, DimensionlessParameters)
        check_type("tumor_ic", self.tumor_ic, BumpSpec)
        check_type("vasculature_ic", self.vasculature_ic, ZonedVasculature)
        check_type("solver", self.solver, SolverConfig)
        self.tumor_ic.check_within(self.bounds)  # checks the bounds first
        check_n_sub(self.n_sub)
        _check_level("necrosis", self.necrosis_level)
        xmin, xmax, ymin, ymax = self.bounds
        for zone in self.vasculature_ic.zones:
            (zx, zy), r = zone.center, zone.radius
            if not (
                xmin <= zx - r and zx + r <= xmax
                and ymin <= zy - r and zy + r <= ymax
            ):
                raise InvalidParameterError(
                    f"zone {zone} does not lie within domain {self.bounds}"
                )
        check_threshold(self.theta)

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
        # Clip in floating point before int(): a huge radius gives infinite ends.
        ends = ((c - radius - lo) / h - 1.0, (c + radius - lo) / h + 2.0)
        box.append(slice(*(int(min(max(end, 0.0), m)) for end in ends)))
    rows, cols = box
    dx = mesh.vertices[:m, 0][cols] - center[0]
    dy = mesh.vertices[::m, 1][rows, None] - center[1]
    return (rows, cols), dx * dx + dy * dy


def scenario_ring_width() -> Scenario:
    """Ring-width preset: uniform initial vasculature, zero necrosis."""
    return _preset(ZonedVasculature(DEFAULT_UNIFORM_LEVEL, ()))


def scenario_surface_regularity() -> Scenario:
    """Surface-regularity preset: three vascular corridors on an avascular
    background."""
    return _preset(ZonedVasculature(DEFAULT_ZONE_BASE, DEFAULT_ZONES))


def _preset(vasculature: ZonedVasculature) -> Scenario:
    """The default domain, rates and seed with the given vasculature."""
    return Scenario(
        bounds=DEFAULT_BOUNDS,
        n_sub=DEFAULT_N_SUB,
        params=DEFAULT_PARAMETERS,
        tumor_ic=BumpSpec(),
        vasculature_ic=vasculature,
    )


def _check_parameter(name) -> None:
    """Reject a name that is not one of the model's rates."""
    if name not in PARAMETER_NAMES:
        raise InvalidParameterError(f"unknown parameter {name!r}")


def default_sweep_values(param_name: str) -> tuple[float, float, float]:
    """Three-point grid for one parameter: range low, fixed value, range high."""
    _check_parameter(param_name)
    lo, hi = PARAMETER_RANGES[param_name]
    return (lo, getattr(DEFAULT_PARAMETERS, param_name), hi)


def sweep_runs(
    scenario: Scenario, param_name: str, values
) -> Iterator[tuple[float, RunResult]]:
    """Yield ``(value, run result)`` for each value of one parameter, in the
    given order.  Every other setting, ``theta`` too, is held fixed and the
    runs are independent, so no result depends on the order.

    The arguments are checked at the call: each value by the rates' own
    rule (text is not a number), then values that are equal as numbers are
    rejected; each run happens when the iterator reaches it.
    """
    _check_parameter(param_name)
    values = list(values)
    params = [replace(scenario.params, **{param_name: value}) for value in values]
    if not values:
        raise InvalidParameterError("sweep needs at least one value")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise InvalidParameterError(f"sweep values repeat: {repeated}")
    return (
        (value, run(replace(scenario, params=p))) for value, p in zip(values, params)
    )
