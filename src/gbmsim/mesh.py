"""Structured triangulation of a rectangle and mass-lumped P1 operators.

The mesh splits every grid cell along the same diagonal, which keeps all
triangles right (nonobtuse) and makes the stiffness matrix an M-matrix for
constant diffusivity.  The diagonal coupling of a right triangle vanishes,
so the stiffness matrix is a variable-coefficient 5-point stencil: its edge
conductances are sliced from the diffusivity on the vertex grid and written
into a fixed CSR layout computed once per grid size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import MeshError

__all__ = [
    "StructuredTriMesh",
    "build_mesh",
    "lumped_mass",
    "assemble_stiffness",
    "lumped_integral",
]


@dataclass
class StructuredTriMesh:
    """Uniform triangulation of [xmin, xmax] x [ymin, ymax].

    (n_sub + 1)^2 vertices, 2 * n_sub^2 triangles, all with positive signed
    area.  ``lumped_weights`` are the per-vertex lumped mass entries; they
    partition the domain area.  ``diagonal`` records which cell diagonal the
    split uses ("main" is the default orientation, "anti" its mirror image,
    used by the chirality-aware symmetry tests).
    """

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    n_sub: int
    vertices: np.ndarray
    triangles: np.ndarray
    lumped_weights: np.ndarray
    diagonal: str = "main"

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def area(self) -> float:
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)

    @property
    def cell_edge(self) -> float:
        """Longest axis-aligned edge of a grid cell."""
        return max(
            (self.xmax - self.xmin) / self.n_sub,
            (self.ymax - self.ymin) / self.n_sub,
        )

    def vertex_index(self, ix: int, iy: int) -> int:
        """Flat index of the grid vertex in column ix, row iy."""
        return iy * (self.n_sub + 1) + ix


def _grid_coordinates(lo: float, hi: float, n: int) -> np.ndarray:
    # Convex combination keeps a symmetric grid exactly symmetric in floats.
    k = np.arange(n + 1, dtype=float)
    return (lo * (n - k) + hi * k) / n


def build_mesh(bounds, n_sub: int, diagonal: str = "main") -> StructuredTriMesh:
    """Build the structured triangulation of a rectangle.

    Parameters
    ----------
    bounds : (xmin, xmax, ymin, ymax)
        Nondegenerate rectangle with finite bounds and spans.
    n_sub : int
        Subintervals per edge (>= 1).
    diagonal : "main" or "anti"
        Cell-splitting diagonal; every cell uses the same one.
    """
    xmin, xmax, ymin, ymax = (float(b) for b in bounds)
    if n_sub < 1:
        raise MeshError(f"n_sub must be >= 1, got {n_sub}")
    checked = {"xmin": xmin, "xmax": xmax, "ymin": ymin, "ymax": ymax,
               "xmax - xmin": xmax - xmin, "ymax - ymin": ymax - ymin}
    for name, value in checked.items():
        if not np.isfinite(value):
            raise MeshError(f"{name} must be finite, got {value!r}")
    if not (xmax > xmin and ymax > ymin):
        raise MeshError(f"degenerate bounds {bounds!r}")
    if diagonal not in ("main", "anti"):
        raise MeshError(f"diagonal must be 'main' or 'anti', got {diagonal!r}")

    xs = _grid_coordinates(xmin, xmax, n_sub)
    ys = _grid_coordinates(ymin, ymax, n_sub)
    gx, gy = np.meshgrid(xs, ys)
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    n = n_sub
    ix, iy = np.meshgrid(np.arange(n), np.arange(n))
    ix = ix.ravel()
    iy = iy.ravel()
    v00 = iy * (n + 1) + ix
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    if diagonal == "main":
        lower = np.column_stack([v00, v10, v11])
        upper = np.column_stack([v00, v11, v01])
    else:
        lower = np.column_stack([v00, v10, v01])
        upper = np.column_stack([v10, v11, v01])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    mesh = StructuredTriMesh(
        xmin=xmin,
        xmax=xmax,
        ymin=ymin,
        ymax=ymax,
        n_sub=n_sub,
        vertices=vertices,
        triangles=triangles,
        lumped_weights=np.empty(0),
        diagonal=diagonal,
    )
    mesh.lumped_weights = lumped_mass(mesh)
    return mesh


def lumped_mass(mesh: StructuredTriMesh) -> np.ndarray:
    """Per-vertex lumped mass weights: one third of the adjacent triangle areas.

    Strictly positive; sums to the domain area.
    """
    p = mesh.vertices[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    if np.any(areas <= 0.0):
        raise MeshError("mesh contains a nonpositively oriented triangle")
    contrib = np.repeat(areas / 3.0, 3)
    return np.bincount(
        mesh.triangles.ravel(), weights=contrib, minlength=mesh.num_vertices
    )


@functools.lru_cache(maxsize=None)
def _stencil_layout(n_sub: int):
    """CSR layout of the 5-point stencil on the (n_sub + 1)^2 vertex grid.

    Returns read-only ``(gather, indices, indptr, diag_slots)``.  Row r of the
    matrix stores its south, west, centre, east and north entries, in that
    (column-sorted) order, skipping neighbours outside the grid; ``gather``
    picks those entries out of a flattened (5, n_sub + 1, n_sub + 1) stencil.
    """
    m = n_sub + 1
    present = np.ones((m, m, 5), dtype=bool)
    present[0, :, 0] = False
    present[:, 0, 1] = False
    present[:, -1, 3] = False
    present[-1, :, 4] = False
    row, position = np.nonzero(present.reshape(m * m, 5))
    gather = position * (m * m) + row
    indices = (row + np.array([-m, -1, 0, 1, m])[position]).astype(np.int32)
    indptr = np.zeros(m * m + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=2).ravel(), out=indptr[1:])
    diag_slots = np.flatnonzero(position == 2)
    layout = (gather, indices, indptr, diag_slots)
    for array in layout:
        array.flags.writeable = False
    return layout


def assemble_stiffness(mesh: StructuredTriMesh, diffusivity) -> sparse.csr_matrix:
    """Assemble the variable-coefficient stiffness matrix.

    The per-triangle diffusivity is the arithmetic mean of the three vertex
    values, which preserves symmetry and is exact for constant fields.  Every
    triangle is right with its right angle opposite the cell diagonal, so
    the diagonal coupling (cot 90 deg) vanishes and the matrix is a 5-point
    stencil: a horizontal edge conducts hy / (2 hx) times the sum of the
    means of its one or two triangles, a vertical edge hx / (2 hy) times
    theirs.  The zero-flux boundary condition is natural: no rows are
    modified and each diagonal entry is minus its row's off-diagonal sum, so
    the matrix annihilates constants.
    """
    diffusivity = np.asarray(diffusivity, dtype=float)
    if diffusivity.shape != (mesh.num_vertices,):
        raise MeshError(
            f"diffusivity has length {diffusivity.size}, "
            f"mesh has {mesh.num_vertices} vertices"
        )
    n = mesh.n_sub
    m = n + 1
    d = diffusivity.reshape(m, m)
    d00, d10, d01, d11 = d[:-1, :-1], d[:-1, 1:], d[1:, :-1], d[1:, 1:]
    # Three times the triangle means.  The lower triangle of a cell holds its
    # bottom edge, the upper one its top edge; the diagonal decides which of
    # them holds the left and the right edge.
    if mesh.diagonal == "main":
        lower = d00 + d10 + d11
        upper = d00 + d11 + d01
        left, right = upper, lower
    else:
        lower = d00 + d10 + d01
        upper = d10 + d11 + d01
        left, right = lower, upper

    hx = (mesh.xmax - mesh.xmin) / n
    hy = (mesh.ymax - mesh.ymin) / n
    # Planes: south, west, centre, east, north.  A west (south) entry is
    # minus the conductance of the horizontal (vertical) edge to that
    # neighbour; the east (north) plane holds the same edges seen from
    # their other end.
    stencil = np.zeros((5, m, m))
    south, west = stencil[0, 1:], stencil[1, :, 1:]
    west[:-1] -= hy / (6.0 * hx) * lower
    west[1:] -= hy / (6.0 * hx) * upper
    south[:, :-1] -= hx / (6.0 * hy) * left
    south[:, 1:] -= hx / (6.0 * hy) * right
    stencil[3, :, :-1] = west
    stencil[4, :-1] = south
    stencil[2] = -stencil.sum(axis=0)

    gather, indices, indptr, _ = _stencil_layout(n)
    return sparse.csr_matrix(
        (stencil.ravel().take(gather), indices, indptr),
        shape=(mesh.num_vertices, mesh.num_vertices),
    )


def stiffness_diag_slots(mesh: StructuredTriMesh) -> np.ndarray:
    """Positions of the diagonal entries inside the assembled CSR data array.

    The solver adds its lumped mass and reaction coefficients there without
    re-deriving the layout.
    """
    return _stencil_layout(mesh.n_sub)[3]


def lumped_integral(mesh: StructuredTriMesh, field_values) -> float:
    """Lumped quadrature of a vertex field: sum of weight(v) * field(v)."""
    field_values = np.asarray(field_values, dtype=float)
    if field_values.shape != (mesh.num_vertices,):
        raise MeshError(
            f"field has length {field_values.size}, "
            f"mesh has {mesh.num_vertices} vertices"
        )
    return float(np.dot(mesh.lumped_weights, field_values))
