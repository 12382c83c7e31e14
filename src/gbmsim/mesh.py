"""Structured triangulation of a rectangle and mass-lumped P1 operators.

The mesh splits every grid cell along the same diagonal, which keeps all
triangles right (nonobtuse) and makes the stiffness matrix an M-matrix for
constant diffusivity.  Both operators are slices of the (n_sub + 1)^2 vertex
grid: the lumped weights add a third of each cell's area to its corners, and
the 5-point stiffness stencil (the diagonal coupling of a right triangle
vanishes) is three grid planes, which :class:`StencilMatrix` multiplies as
shifted slices.  No operator reads the triangle list; only VTK output does.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import MeshError, check_finite

__all__ = [
    "StructuredTriMesh",
    "StencilMatrix",
    "build_mesh",
    "check_bounds",
    "check_n_sub",
    "assemble_stiffness",
    "lumped_integral",
]


@dataclass(frozen=True)
class StructuredTriMesh:
    """Uniform triangulation of [xmin, xmax] x [ymin, ymax].

    The mesh is the value of its six defining numbers: construction checks
    them, and each array is derived from them on first use.
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
    diagonal: str = "main"

    def __post_init__(self):
        check_n_sub(self.n_sub)
        check_bounds(self.xmin, self.xmax, self.ymin, self.ymax)
        if self.diagonal not in ("main", "anti"):
            raise MeshError(f"diagonal must be 'main' or 'anti', got {self.diagonal!r}")
        self.lumped_weights  # checks the cell area

    @property
    def num_vertices(self) -> int:
        return (self.n_sub + 1) ** 2

    @property
    def num_triangles(self) -> int:
        return 2 * self.n_sub**2

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

    @functools.cached_property
    def vertices(self) -> np.ndarray:
        """(num_vertices, 2) coordinates, rows of the grid from the bottom."""
        n, m = self.n_sub, self.n_sub + 1
        vertices = np.empty((m, m, 2))
        vertices[..., 0] = _grid_coordinates(self.xmin, self.xmax, n)
        vertices[..., 1] = _grid_coordinates(self.ymin, self.ymax, n)[:, None]
        return vertices.reshape(m * m, 2)

    @functools.cached_property
    def lumped_weights(self) -> np.ndarray:
        """One third of the adjacent triangle areas per vertex.  Both
        triangles of a cell have the cell's area, since one cross term of
        their edges is exactly 0."""
        m = self.n_sub + 1
        xs, ys = self.vertices[:m, 0], self.vertices[::m, 1]
        with np.errstate(over="ignore"):
            third = 0.5 * np.multiply.outer(np.diff(ys), np.diff(xs)) / 3.0
        if not (third.min() > 0.0 and np.isfinite(third.max())):
            raise MeshError(
                f"cell area of spans {self.xmax - self.xmin!r} x {self.ymax - self.ymin!r}"
                f" at n_sub={self.n_sub} is not positive and finite"
            )
        # Thirds in the order a per-triangle sum adds them (cells row-major,
        # lower triangle first): corners v11, v01, v10, v00, once per triangle.
        lo, hi = slice(None, -1), slice(1, None)
        corners = [(hi, hi), (hi, lo), (lo, hi), (lo, lo)]
        counts = (2, 1, 1, 2) if self.diagonal == "main" else (1, 2, 2, 1)
        weights = np.zeros((m, m))
        for corner, count in zip(corners, counts):
            for _ in range(count):
                weights[corner] += third
        return weights.ravel()

    @functools.cached_property
    def triangles(self) -> np.ndarray:
        """(num_triangles, 3) vertex indices, counterclockwise: two triangles
        per cell, cells in row-major order, lower triangle first."""
        n, m = self.n_sub, self.n_sub + 1
        grid = np.arange(m * m, dtype=np.int64).reshape(m, m)
        v00, v10, v01, v11 = grid[:-1, :-1], grid[:-1, 1:], grid[1:, :-1], grid[1:, 1:]
        if self.diagonal == "main":
            corners = (v00, v10, v11, v00, v11, v01)
        else:
            corners = (v00, v10, v01, v10, v11, v01)
        return np.stack(corners, axis=-1).reshape(2 * n * n, 3)


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
    return StructuredTriMesh(xmin, xmax, ymin, ymax, n_sub, diagonal)


def check_n_sub(n_sub) -> None:
    """Reject a grid size that is not an integer >= 1."""
    try:
        operator.index(n_sub)
    except TypeError:
        raise MeshError(f"n_sub must be an integer, got {n_sub!r}") from None
    if n_sub < 1:
        raise MeshError(f"n_sub must be >= 1, got {n_sub}")


def check_bounds(xmin, xmax, ymin, ymax) -> None:
    """Reject a rectangle whose bounds or spans are not finite, or that is
    empty."""
    checked = {"xmin": xmin, "xmax": xmax, "ymin": ymin, "ymax": ymax,
               "xmax - xmin": xmax - xmin, "ymax - ymin": ymax - ymin}
    for name, value in checked.items():
        check_finite(name, value, MeshError)
    if not (xmax > xmin and ymax > ymin):
        raise MeshError(f"degenerate bounds {(xmin, xmax, ymin, ymax)!r}")


@functools.lru_cache(maxsize=None)
def _stencil_layout(n_sub: int):
    """CSR layout of the 5-point stencil on the (n_sub + 1)^2 vertex grid.

    Returns read-only ``(gather, indices, indptr)``.  Row r of the matrix
    stores its south, west, centre, east and north entries, in that
    (column-sorted) order, skipping neighbours outside the grid; ``gather``
    picks them out of the flattened (3, n_sub + 1, n_sub + 1) south, west and
    centre planes, reading east (north) as the next (upper) vertex's west (south).
    """
    m = n_sub + 1
    present = np.ones((m, m, 5), dtype=bool)
    present[0, :, 0] = False
    present[:, 0, 1] = False
    present[:, -1, 3] = False
    present[-1, :, 4] = False
    row, position = np.nonzero(present.reshape(m * m, 5))
    gather = row + np.array([0, m * m, 2 * m * m, m * m + 1, m])[position]
    indices = (row + np.array([-m, -1, 0, 1, m])[position]).astype(np.int32)
    indptr = np.zeros(m * m + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=2).ravel(), out=indptr[1:])
    layout = (gather, indices, indptr)
    for array in layout:
        array.flags.writeable = False
    return layout


class StencilMatrix:
    """The 5-point stiffness matrix of one assembly, held as its flattened
    south, west and centre planes (see :func:`assemble_stiffness`).

    ``A @ x`` adds each row's five shifted slice products to 0.0 in the order
    of its sorted CSR columns (south, west, centre, east, north), as a CSR
    product sums, so it has the CSR product's bits.  Unlike CSR, a boundary
    row's missing west or east neighbour enters with a zero coefficient, so
    a non-finite entry of x spreads to that row too (:func:`solve_spd`'s
    stall check rejects non-finite input).  The products share one scratch
    buffer, so one operator serves one thread at a time.
    """

    def __init__(self, planes: np.ndarray, layout):
        m = planes.shape[1]
        south, west, self._centre = planes.reshape(3, m * m)
        self._planes, self._layout, self._m = planes, layout, m
        self.shape = (m * m, m * m)
        # A south (west) coefficient is also the north (east) one of the
        # vertex below (before) it.
        self._south, self._west = south[m:], west[1:]
        self._scratch = np.empty(m * m)

    def diagonal(self) -> np.ndarray:
        return self._centre.copy()

    def __matmul__(self, x):
        m, t = self._m, self._scratch
        t_s, t_w = t[:-m], t[:-1]
        y = np.zeros(t.size)
        np.multiply(self._south, x[:-m], out=t_s)
        y[m:] += t_s
        np.multiply(self._west, x[:-1], out=t_w)
        y[1:] += t_w
        np.multiply(self._centre, x, out=t)
        y += t
        np.multiply(self._west, x[1:], out=t_w)
        y[:-1] += t_w
        np.multiply(self._south, x[m:], out=t_s)
        y[:-m] += t_s
        return y

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        dense[rows, self.indices] += self.data
        return dense

    # A CSR view (``data`` is gathered anew on each read), kept only for the
    # benchmark's tracer and the tests: delete it once the tracer reads any
    # operator with ``@`` and ``diagonal``.
    data = property(lambda self: self._planes.ravel().take(self._layout[0]))
    indices = property(lambda self: self._layout[1])
    indptr = property(lambda self: self._layout[2])


def assemble_stiffness(
    mesh: StructuredTriMesh, diffusivity, shift=None
) -> StencilMatrix:
    """Assemble the variable-coefficient stiffness matrix plus ``diag(shift)``
    as a :class:`StencilMatrix`.

    The per-triangle diffusivity is the arithmetic mean of the three vertex
    values, which preserves symmetry and is exact for constant fields.  Every
    triangle is right with its right angle opposite the cell diagonal, so
    the diagonal coupling (cot 90 deg) vanishes and the matrix is a 5-point
    stencil: a horizontal edge conducts hy / (2 hx) times the sum of the
    means of its one or two triangles, a vertical edge hx / (2 hy) times
    theirs.  The zero-flux boundary condition is natural: no rows are
    modified and each diagonal entry is minus its row's off-diagonal sum, so
    the matrix annihilates constants.  The optional per-vertex ``shift``
    (the solver's lumped mass and reaction terms) is added after that sum.
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
    # Planes: south, west, centre.  A west (south) entry is minus the
    # conductance of the horizontal (vertical) edge to that neighbour; the
    # first column (row) has no such neighbour and stays 0.
    planes = np.zeros((3, m, m))
    south, west, centre = planes
    west[:-1, 1:] -= hy / (6.0 * hx) * lower
    west[1:, 1:] -= hy / (6.0 * hx) * upper
    south[1:, :-1] -= hx / (6.0 * hy) * left
    south[1:, 1:] -= hx / (6.0 * hy) * right
    # centre = -(south + west + east + north), in that order.
    np.add(south, west, out=centre)
    centre[:, :-1] += west[:, 1:]
    centre[:-1] += south[1:]
    np.negative(centre, out=centre)
    if shift is not None:
        centre += np.reshape(shift, (m, m))

    return StencilMatrix(planes, _stencil_layout(n))


def lumped_integral(mesh: StructuredTriMesh, field_values) -> float:
    """Lumped quadrature of a vertex field: sum of weight(v) * field(v)."""
    field_values = np.asarray(field_values, dtype=float)
    if field_values.shape != (mesh.num_vertices,):
        raise MeshError(
            f"field has length {field_values.size}, "
            f"mesh has {mesh.num_vertices} vertices"
        )
    return float(np.dot(mesh.lumped_weights, field_values))
