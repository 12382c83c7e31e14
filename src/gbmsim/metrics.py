"""Morphometric observables of a simulation state.

Ring quotient (proliferative fraction of the total tumor mass), thresholded
tumor region, its lumped area, the radius of its smallest enclosing circle,
and the surface quotient (area over enclosing-disc area).  All functions are
pure and operate on immutable snapshots, so they are safe to call
concurrently.

On coarse meshes the surface quotient can exceed 1 because the thresholded
region is measured through vertex lumped weights while the enclosing radius
is measured through vertex coordinates; this is a known discretization
artifact that vanishes under refinement and is covered by tests rather than
hidden.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyRegionError, InvalidParameterError, SimulationError, check_finite
)
from .mesh import StructuredTriMesh, lumped_integral

__all__ = [
    "DEFAULT_THRESHOLD",
    "check_threshold",
    "MetricsSample",
    "ThresholdedRegion",
    "ring_quotient",
    "threshold_indicator",
    "tumor_area",
    "max_radius",
    "surface_quotient",
    "compute_sample",
]

DEFAULT_THRESHOLD = 0.001


def check_threshold(theta: float) -> None:
    """Reject a region threshold that is not positive and finite."""
    if not theta > 0.0:
        raise InvalidParameterError("theta must be positive")
    check_finite("theta", theta)


# Seed for the shuffle inside the enclosing-circle search; fixed so repeated
# runs perform identical arithmetic.
_SHUFFLE_SEED = 20260809


@dataclass(frozen=True)
class MetricsSample:
    """One time point of the observable set.

    ``sq`` and ``r_max`` are NaN when the thresholded region is empty (a
    vanished tumor has no meaningful shape); ``rq`` falls back to 1 in that
    case, matching its value for a purely proliferative seed.
    """

    time: float
    rq: float
    sq: float
    area: float
    r_max: float
    tumor_density: float
    total_tn_density: float
    phi_density: float


@dataclass(frozen=True)
class ThresholdedRegion:
    """Vertices where the total tumor density reaches the threshold."""

    indices: np.ndarray
    coordinates: np.ndarray

    def __len__(self) -> int:
        return int(self.indices.size)


def ring_quotient(state, mesh: StructuredTriMesh) -> float:
    """Proliferative share of the total tumor mass, in [0, 1] for
    nonnegative fields.

    A zero denominator (no tumor at all) returns 1: the state is treated as
    all proliferative, which keeps the value continuous with a necrosis free
    seed.  Any other denominator, however small, gives the quotient, so the
    value does not depend on the scale of the domain.
    """
    return _quotient(
        lumped_integral(mesh, state.t_field),
        lumped_integral(mesh, state.t_field + state.n_field),
    )


def _quotient(tumor: float, total: float) -> float:
    """RQ from the integrals of T and of T + N."""
    if total == 0.0:
        return 1.0
    return tumor / total


def threshold_indicator(
    state, mesh: StructuredTriMesh, theta: float = DEFAULT_THRESHOLD
) -> ThresholdedRegion:
    """Vertices with T + N >= theta (inclusive)."""
    return _region(state.t_field + state.n_field, mesh, theta)


def _region(total, mesh: StructuredTriMesh, theta: float) -> ThresholdedRegion:
    """Vertices where the field ``total`` (T + N) reaches theta."""
    indices = np.flatnonzero(total >= theta)
    return ThresholdedRegion(indices=indices, coordinates=mesh.vertices[indices])


def tumor_area(region: ThresholdedRegion, mesh: StructuredTriMesh) -> float:
    """Lumped area of the thresholded region (0 for an empty region)."""
    return float(mesh.lumped_weights[region.indices].sum())


def max_radius(region: ThresholdedRegion) -> float:
    """Radius of the smallest circle enclosing the region's vertices."""
    if len(region) == 0:
        raise EmptyRegionError("cannot enclose an empty region")
    circle = _smallest_enclosing_circle(region.coordinates)
    return circle[2]


def surface_quotient(
    state, mesh: StructuredTriMesh, theta: float = DEFAULT_THRESHOLD
) -> float:
    """Region area divided by the area of its smallest enclosing circle.

    Near 1 for round regions, near 0 for irregular ones.  A region smaller
    than half a cell edge cannot resolve any shape and is defined to be
    perfectly regular (returns 1).  An empty region is an error; report a
    vanished tumor upstream instead of assigning it a regularity.
    """
    region = threshold_indicator(state, mesh, theta)
    if len(region) == 0:
        raise EmptyRegionError("thresholded region is empty")
    return _regularity(tumor_area(region, mesh), max_radius(region), mesh)


def _regularity(area: float, radius: float, mesh: StructuredTriMesh) -> float:
    """SQ of a nonempty region with the given area and enclosing radius."""
    if radius < mesh.cell_edge / 2.0:
        return 1.0
    return area / (math.pi * radius * radius)


def compute_sample(
    state, mesh: StructuredTriMesh, theta: float = DEFAULT_THRESHOLD
) -> MetricsSample:
    """Evaluate the full observable set for one state."""
    total = state.t_field + state.n_field
    region = _region(total, mesh, theta)
    area = tumor_area(region, mesh)
    if len(region) == 0:
        sq = float("nan")
        r_max = float("nan")
    else:
        r_max = max_radius(region)
        sq = _regularity(area, r_max, mesh)
    tumor_density = lumped_integral(mesh, state.t_field)
    total_tn_density = lumped_integral(mesh, total)
    return MetricsSample(
        time=state.time,
        rq=_quotient(tumor_density, total_tn_density),
        sq=sq,
        area=area,
        r_max=r_max,
        tumor_density=tumor_density,
        total_tn_density=total_tn_density,
        phi_density=lumped_integral(mesh, state.phi_field),
    )


# ---------------------------------------------------------------------------
# Smallest enclosing circle.  The smallest circle enclosing a set is the one
# enclosing its convex hull, so the construction runs in three stages: the
# leftmost and rightmost point of each distinct y (at most two points per grid
# row, sorted by y), Andrew's monotone chain over them (IPL 9, 1979), which
# keeps no collinear vertex, and the three nested loops of Welzl's randomized
# incremental construction (1991) over the hull vertices in shuffled order.
# The shuffle seed is fixed, so repeated runs perform identical arithmetic.


# Containment uses a 1 + 1e-14 multiplicative slack so candidate circles that
# touch a point within rounding error are accepted.
_EPS = 1.0 + 1e-14


def _contains(circle, p) -> bool:
    return math.hypot(p[0] - circle[0], p[1] - circle[1]) <= circle[2] * _EPS


def _diameter_circle(a, b):
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    r = max(math.hypot(cx - a[0], cy - a[1]), math.hypot(cx - b[0], cy - b[1]))
    return (cx, cy, r)


def _circumcircle(a, b, c):
    """Circle through three points that are not collinear."""
    # Solve in the triangle's own units, centered on its bounding box and
    # scaled by a power of two (exact), so no product under- or overflows.
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2.0
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2.0
    offsets = (a[0] - ox, a[1] - oy, b[0] - ox, b[1] - oy, c[0] - ox, c[1] - oy)
    e = math.frexp(max(map(abs, offsets)))[1]
    ax, ay, bx, by, cx, cy = (math.ldexp(v, -e) for v in offsets)
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        # No three hull vertices are collinear, so in exact arithmetic this
        # branch is unreachable; a circle made up here would be wrong.
        raise SimulationError(f"circumcircle of collinear points {a}, {b}, {c}")
    ux = (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    uy = (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    r = max(
        math.hypot(ux - ax, uy - ay),
        math.hypot(ux - bx, uy - by),
        math.hypot(ux - cx, uy - cy),
    )
    return (math.ldexp(ux, e) + ox, math.ldexp(uy, e) + oy, math.ldexp(r, e))


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _row_end_points(coordinates) -> np.ndarray:
    """Leftmost and rightmost point of every distinct y, in (y, x) order."""
    pts = np.asarray(coordinates, dtype=float)
    pts = pts[np.lexsort((pts[:, 0], pts[:, 1]))]
    same_row = pts[1:, 1] == pts[:-1, 1]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:-1] = ~(same_row[:-1] & same_row[1:])
    return pts[keep]


def _hull(points):
    """Counterclockwise convex hull of points sorted by (y, x), without
    collinear vertices; a single point is its own hull.  A point may carry
    further values after its x and y."""
    chains = []
    for ordered in (points, points[::-1]):
        chain = []
        for p in ordered:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0.0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1] or points


def _smallest_enclosing_circle(coordinates) -> tuple[float, float, float]:
    points = _row_end_points(coordinates)
    # Find the hull with each axis scaled by a power of two to a largest |value|
    # in [0.5, 1): exact and hull-preserving, and no cross product of a tiny,
    # huge or flat region under- or overflows and drops a hull vertex.
    scaled = np.ldexp(points, -np.frexp(np.abs(points).max(axis=0))[1])
    hull = _hull(np.column_stack((scaled, np.arange(len(points)))).tolist())
    on_hull = {int(v[2]) for v in hull}
    # The hull in the order of a fixed shuffle of all row ends: still a
    # uniformly random order, as the expected linear time needs.
    order = list(range(len(points)))
    random.Random(_SHUFFLE_SEED).shuffle(order)
    points = points[[k for k in order if k in on_hull]].tolist()
    circle = None
    for i, p in enumerate(points):
        if circle is None or not _contains(circle, p):
            circle = (p[0], p[1], 0.0)
            for j, q in enumerate(points[:i]):
                if not _contains(circle, q):
                    circle = _diameter_circle(p, q)
                    for s in points[:j]:
                        if not _contains(circle, s):
                            circle = _circumcircle(p, q, s)
    return circle
