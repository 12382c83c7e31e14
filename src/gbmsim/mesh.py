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
from dataclasses import dataclass

import numpy as np

from .errors import MeshError, check_array, check_finite, check_integer, check_range

__all__ = ["StructuredTriMesh", "build_mesh", "assemble_stiffness", "lumped_integral"]


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
        check_bounds((self.xmin, self.xmax, self.ymin, self.ymax))
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
    check_bounds(bounds)
    xmin, xmax, ymin, ymax = (float(b) for b in bounds)
    return StructuredTriMesh(xmin, xmax, ymin, ymax, n_sub, diagonal)


def check_n_sub(n_sub) -> None:
    """Reject a grid size that is not an integer >= 1."""
    check_integer("n_sub", n_sub, MeshError)
    check_range("n_sub", n_sub, lambda v: v >= 1, "be >= 1", MeshError)


def check_bounds(bounds) -> None:
    """Reject ``bounds`` unless they are four finite numbers (xmin, xmax,
    ymin, ymax) of a nonempty rectangle with finite spans."""
    if not hasattr(bounds, "__len__") or len(bounds) != 4:
        raise MeshError(f"bounds must be (xmin, xmax, ymin, ymax), got {bounds!r}")
    xmin, xmax, ymin, ymax = bounds
    for name, value in zip(("xmin", "xmax", "ymin", "ymax"), bounds):
        check_finite(name, value, MeshError)
    for name, value in (("xmax - xmin", xmax - xmin), ("ymax - ymin", ymax - ymin)):
        check_finite(name, value, MeshError)
    if not (xmax > xmin and ymax > ymin):
        raise MeshError(f"degenerate bounds {(xmin, xmax, ymin, ymax)!r}")


def vertex_field(mesh: StructuredTriMesh, name: str, values) -> np.ndarray:
    """``values`` as a float array (:func:`errors.check_array`); raise
    :class:`MeshError` naming the field unless it holds one real number per
    vertex of ``mesh``."""
    shape = (mesh.num_vertices,)
    return check_array(name, values, shape.__eq__, shape, MeshError)


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
    stall check rejects non-finite input).
    """

    def __init__(self, planes: np.ndarray, layout):
        m = planes.shape[1]
        south, west, self._centre = planes.reshape(3, m * m)
        self._planes, self._layout, self._m = planes, layout, m
        self.shape = (m * m, m * m)
        # A south (west) coefficient is also the north (east) one of the
        # vertex below (before) it.
        self._south, self._west = south[m:], west[1:]

    def diagonal(self) -> np.ndarray:
        return self._centre.copy()

    def __matmul__(self, x):
        m = self._m
        y = np.zeros(x.size)
        y[m:] += self._south * x[:-m]
        y[1:] += self._west * x[:-1]
        y += self._centre * x
        y[:-1] += self._west * x[1:]
        y[:-m] += self._south * x[m:]
        return y

    def toarray(self) -> np.ndarray:
        dense = np.diag(self._centre)
        for plane, offset in ((self._south, self._m), (self._west, 1)):
            dense += np.diag(plane, -offset) + np.diag(plane, offset)
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
    Sums run on flat slices: cell (iy, ix) is c = iy m + ix, m = n_sub + 1, with
    corners c, c + 1, c + m, c + m + 1; each row's last slot c = iy m + n_sub
    wraps to the next row and is set to 0.0, which changes no entry it meets.
    """
    n = mesh.n_sub
    m, k = n + 1, n * (n + 1) - 1
    d = vertex_field(mesh, "diffusivity", diffusivity)
    d00, d10, d01, d11 = d[:k], d[1 : k + 1], d[m : m + k], d[m + 1 :]
    # Three times the triangle means.  The lower (upper) triangle holds the
    # bottom (top) edge; the diagonal decides which holds the left and right.
    if mesh.diagonal == "main":
        lower = d00 + d10 + d11
        upper = d00 + d11 + d01
        left, right = upper, lower
    else:
        lower = d00 + d10 + d01
        upper = d10 + d11 + d01
        left, right = lower, upper
    lower[n::m] = upper[n::m] = 0.0  # the wrap-around slots
    hx, hy = (mesh.xmax - mesh.xmin) / n, (mesh.ymax - mesh.ymin) / n
    # Planes: south, west, centre.  A west (south) entry is minus the edge
    # conductance to that neighbour, 0 in the first column (row), which has none.
    planes = np.zeros((3, m * m))
    south, west, centre = planes
    west[1 : k + 1] -= hy / (6.0 * hx) * lower
    west[m + 1 :] -= hy / (6.0 * hx) * upper
    south[m : m + k] -= hx / (6.0 * hy) * left
    south[m + 1 :] -= hx / (6.0 * hy) * right
    # centre = -(south + west + east + north), in that order.
    np.add(south, west, out=centre)
    centre[:-1] += west[1:]
    centre[:-m] += south[m:]
    np.negative(centre, out=centre)
    if shift is not None:
        centre += vertex_field(mesh, "shift", shift)

    return StencilMatrix(planes.reshape(3, m, m), _stencil_layout(n))


def lumped_integral(mesh: StructuredTriMesh, field_values) -> float:
    """Lumped quadrature of a vertex field: sum of weight(v) * field(v)."""
    return float(np.dot(mesh.lumped_weights, vertex_field(mesh, "field", field_values)))
