"""Mesh construction and mass-lumped P1 operator tests.

The stiffness oracle recomputes every local matrix from scratch: basis
gradients come from solving the three plane equations per triangle instead of
the analytic edge formulas used by the package.
"""

import re

import numpy as np
import pytest

from gbmsim import (
    MeshError,
    assemble_stiffness,
    build_mesh,
    lumped_integral,
    lumped_mass,
)


def oracle_stiffness(mesh, diffusivity):
    nv = mesh.num_vertices
    dense = np.zeros((nv, nv))
    for tri in mesh.triangles:
        coords = mesh.vertices[tri]
        # plane through the triangle with value e_i at vertex i
        system = np.column_stack([coords, np.ones(3)])
        grads = np.zeros((3, 2))
        for i in range(3):
            coeff = np.linalg.solve(system, np.eye(3)[i])
            grads[i] = coeff[:2]
        area = 0.5 * abs(np.linalg.det(system))
        d_mean = diffusivity[tri].mean()
        for i in range(3):
            for j in range(3):
                dense[tri[i], tri[j]] += d_mean * area * grads[i] @ grads[j]
    return dense


def test_paper_scale_mesh_counts():
    mesh = build_mesh((-9, 9, -9, 9), 45)
    assert mesh.num_vertices == 2116
    assert mesh.num_triangles == 4050
    assert mesh.cell_edge == pytest.approx(0.4, abs=1e-14)


def test_smallest_mesh():
    mesh = build_mesh((0, 1, 0, 1), 1)
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2


def test_weights_sum_to_domain_area():
    for n_sub in (1, 3, 45):
        mesh = build_mesh((-9, 9, -9, 9), n_sub)
        assert mesh.lumped_weights.sum() == pytest.approx(324.0, abs=1e-12)


def test_invalid_mesh_arguments():
    with pytest.raises(MeshError):
        build_mesh((0, 1, 0, 1), 0)
    with pytest.raises(MeshError):
        build_mesh((1, 0, 0, 1), 4)
    with pytest.raises(MeshError):
        build_mesh((0, 1, 2, 2), 4)


@pytest.mark.parametrize(
    "bounds, name",
    [
        ((0, float("inf"), 0, 1), "xmax"),
        ((-float("inf"), 1, 0, 1), "xmin"),
        ((0, 1, float("nan"), 1), "ymin"),
        ((0, 1, 0, float("nan")), "ymax"),
        ((-1e308, 1e308, 0, 1), "xmax - xmin"),
        ((0, 1, -1e308, 1e308), "ymax - ymin"),
    ],
)
def test_non_finite_bounds_and_spans_rejected(bounds, name):
    with pytest.raises(MeshError, match=f"^{re.escape(name)} must be finite"):
        build_mesh(bounds, 4)


def test_triangle_orientation_positive():
    for diagonal in ("main", "anti"):
        mesh = build_mesh((-2, 3, -1, 4), 7, diagonal=diagonal)
        p = mesh.vertices[mesh.triangles]
        cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
            p[:, 1, 1] - p[:, 0, 1]
        ) * (p[:, 2, 0] - p[:, 0, 0])
        assert np.all(cross > 0)


def test_unit_square_corner_weights():
    mesh = build_mesh((0, 1, 0, 1), 1)
    weights = lumped_mass(mesh)
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    # diagonal corners touch both triangles, the others only one
    assert sorted(weights) == pytest.approx([1 / 6, 1 / 6, 1 / 3, 1 / 3])


def test_interior_weight_is_cell_area():
    mesh = build_mesh((0, 2, 0, 2), 5)
    h = 0.4
    idx = mesh.vertex_index(2, 3)
    assert mesh.lumped_weights[idx] == pytest.approx(h * h, abs=1e-14)


def test_weights_strictly_positive():
    mesh = build_mesh((-9, 9, -9, 9), 12)
    assert np.all(mesh.lumped_weights > 0)


def test_unit_square_stiffness_hand_values():
    mesh = build_mesh((0, 1, 0, 1), 1)
    matrix = assemble_stiffness(mesh, np.ones(4)).toarray()
    expected = np.array(
        [
            [1.0, -0.5, -0.5, 0.0],
            [-0.5, 1.0, 0.0, -0.5],
            [-0.5, 0.0, 1.0, -0.5],
            [0.0, -0.5, -0.5, 1.0],
        ]
    )
    assert np.abs(matrix - expected).max() <= 1e-12


def test_stiffness_linear_in_diffusivity():
    mesh = build_mesh((-1, 2, 0, 2), 4)
    base = assemble_stiffness(mesh, np.ones(mesh.num_vertices)).toarray()
    scaled = assemble_stiffness(mesh, np.full(mesh.num_vertices, 3.5)).toarray()
    assert np.abs(scaled - 3.5 * base).max() <= 1e-12


def test_stiffness_annihilates_constants():
    rng = np.random.default_rng(5)
    mesh = build_mesh((-9, 9, -9, 9), 10)
    diffusivity = 1.0 + 55.0 * rng.random(mesh.num_vertices)
    matrix = assemble_stiffness(mesh, diffusivity)
    assert np.abs(matrix @ np.ones(mesh.num_vertices)).max() <= 1e-12


def test_stiffness_exactly_symmetric():
    rng = np.random.default_rng(6)
    mesh = build_mesh((-9, 9, -9, 9), 8)
    diffusivity = 1.0 + rng.random(mesh.num_vertices)
    matrix = assemble_stiffness(mesh, diffusivity)
    asym = matrix - matrix.T
    assert asym.nnz == 0 or np.abs(asym.data).max() == 0.0


def test_stiffness_positive_semidefinite():
    rng = np.random.default_rng(8)
    mesh = build_mesh((0, 1, 0, 1), 6)
    diffusivity = 1.0 + 10.0 * rng.random(mesh.num_vertices)
    matrix = assemble_stiffness(mesh, diffusivity)
    for _ in range(20):
        x = rng.standard_normal(mesh.num_vertices)
        assert x @ (matrix @ x) >= -1e-12


def test_stiffness_m_matrix_for_constant_diffusivity():
    mesh = build_mesh((-9, 9, -9, 9), 6)
    matrix = assemble_stiffness(mesh, np.full(mesh.num_vertices, 2.0)).tocoo()
    off_diag = matrix.data[matrix.row != matrix.col]
    assert np.all(off_diag <= 1e-14)


@pytest.mark.parametrize("diagonal", ["main", "anti"])
@pytest.mark.parametrize("n_sub", [1, 2, 3])
def test_stiffness_matches_brute_force_oracle(n_sub, diagonal):
    rng = np.random.default_rng(n_sub)
    mesh = build_mesh((-1.5, 2.0, 0.5, 3.0), n_sub, diagonal=diagonal)
    diffusivity = 1.0 + 5.0 * rng.random(mesh.num_vertices)
    assembled = assemble_stiffness(mesh, diffusivity).toarray()
    expected = oracle_stiffness(mesh, diffusivity)
    assert np.abs(assembled - expected).max() <= 1e-12


@pytest.mark.parametrize("diagonal", ["main", "anti"])
def test_stiffness_stores_only_the_five_point_stencil(diagonal):
    n = 45
    mesh = build_mesh((-9, 9, -9, 9), n, diagonal=diagonal)
    rng = np.random.default_rng(45)
    matrix = assemble_stiffness(mesh, 1.0 + rng.random(mesh.num_vertices))
    # every vertex plus both directions of every axis-aligned edge
    assert matrix.nnz == (n + 1) ** 2 + 4 * n * (n + 1) == 10396
    assert np.all(matrix.data != 0.0)
    assert matrix.has_sorted_indices


def test_stiffness_rejects_wrong_length():
    mesh = build_mesh((0, 1, 0, 1), 2)
    with pytest.raises(MeshError):
        assemble_stiffness(mesh, np.ones(5))


def test_lumped_integral_constant_field():
    mesh = build_mesh((-9, 9, -9, 9), 9)
    assert lumped_integral(mesh, np.ones(mesh.num_vertices)) == pytest.approx(
        324.0, abs=1e-12
    )
    assert lumped_integral(mesh, np.zeros(mesh.num_vertices)) == 0.0


def test_lumped_integral_interior_indicator():
    mesh = build_mesh((-9, 9, -9, 9), 45)
    field = np.zeros(mesh.num_vertices)
    field[mesh.vertex_index(10, 17)] = 1.0
    assert lumped_integral(mesh, field) == pytest.approx(0.16, abs=1e-12)


def test_lumped_integral_rejects_wrong_length():
    mesh = build_mesh((0, 1, 0, 1), 2)
    with pytest.raises(MeshError):
        lumped_integral(mesh, np.ones(3))
