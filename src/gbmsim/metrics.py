"""Morphometric observables of a simulation state.

:func:`compute_sample` is the one place that computes them: the ring quotient
(proliferative fraction of the total tumor mass), the thresholded tumor region
and its lumped area, the radius of the smallest circle enclosing the region
(:func:`max_radius`, for any finite point set), and the surface quotient (area
over enclosing-disc area).  No function writes to the state it reads, so
they are safe to call concurrently on a state that nothing else changes.

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

from .errors import EmptyRegionError, InvalidParameterError, SimulationError
from .errors import check_array, check_range
from .mesh import StructuredTriMesh, lumped_integral, vertex_field

__all__ = ["DEFAULT_THRESHOLD", "MetricsSample", "max_radius", "compute_sample"]

DEFAULT_THRESHOLD = 0.001


def check_threshold(theta: float) -> None:
    """Reject a region threshold that is not positive and finite."""
    check_range("theta", theta, lambda v: v > 0.0, "be positive")


# Seed for the shuffle inside the enclosing-circle search; fixed so repeated
# runs perform identical arithmetic.
_SHUFFLE_SEED = 20260809


@dataclass(frozen=True)
class MetricsSample:
    """One time point of the observable set.

    The region is the vertices with T + N >= theta (inclusive), for a theta
    that is positive and finite; ``area`` is its lumped area (0 for none).
    ``rq`` is the integral of T over that of T + N, and falls back to 1 (all
    proliferative) only when the integral of T + N is exactly 0, so it does
    not depend on the scale of the domain.  ``sq`` is the area over that of
    the region's smallest enclosing disc, of radius ``r_max``; a region whose
    radius is below half a cell edge cannot resolve any shape and has sq 1.
    ``sq`` and ``r_max`` are NaN when the region is empty (a vanished tumor
    has no meaningful shape).
    """

    time: float
    rq: float
    sq: float
    area: float
    r_max: float
    tumor_density: float
    total_tn_density: float
    phi_density: float


def max_radius(points) -> float:
    """Radius of the smallest circle enclosing ``points``, a finite (n, 2)
    array (:func:`errors.check_array`); an empty one raises
    :class:`EmptyRegionError`."""
    points = check_array("points", points, lambda s: s[1:] == (2,), "(n, 2)")
    if len(points) == 0:
        raise EmptyRegionError("cannot enclose an empty region")
    if not np.isfinite(points).all():
        raise InvalidParameterError("points must be finite")
    return _smallest_enclosing_circle(points)[2]


def _regularity(area: float, radius: float, mesh: StructuredTriMesh) -> float:
    """SQ of a nonempty region with the given area and enclosing radius."""
    if radius < mesh.cell_edge / 2.0:
        return 1.0
    return area / (math.pi * radius * radius)


def compute_sample(
    state, mesh: StructuredTriMesh, theta: float = DEFAULT_THRESHOLD
) -> MetricsSample:
    """Evaluate the observable set of one state (see :class:`MetricsSample`)."""
    check_threshold(theta)
    t_field = vertex_field(mesh, "T", state.t_field)
    total = t_field + vertex_field(mesh, "N", state.n_field)
    region = np.flatnonzero(total >= theta)
    area = float(mesh.lumped_weights[region].sum())
    sq = r_max = math.nan
    if len(region):
        r_max = max_radius(mesh.vertices[region])
        sq = _regularity(area, r_max, mesh)
    tumor_density = lumped_integral(mesh, t_field)
    total_tn_density = lumped_integral(mesh, total)
    return MetricsSample(
        time=state.time,
        rq=tumor_density / total_tn_density if total_tn_density != 0.0 else 1.0,
        sq=sq,
        area=area,
        r_max=r_max,
        tumor_density=tumor_density,
        total_tn_density=total_tn_density,
        phi_density=lumped_integral(mesh, vertex_field(mesh, "Phi", state.phi_field)),
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
