"""Mesh construction and mass-lumped P1 operator tests.

The stiffness oracle recomputes every local matrix from scratch: basis
gradients come from solving the three plane equations per triangle instead of
the analytic edge formulas used by the package.
"""

import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import gbmsim
from gbmsim import (
    MeshError,
    StructuredTriMesh,
    assemble_stiffness,
    build_mesh,
    lumped_integral,
    scenario_surface_regularity,
    vascular_fraction,
)


def as_csr(matrix):
    """A scipy CSR matrix built from the operator's CSR view."""
    return sparse.csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
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
    with pytest.raises(MeshError, match="^diagonal must be 'main' or 'anti', got 'x'$"):
        build_mesh((0, 1, 0, 1), 4, diagonal="x")


def test_direct_construction_runs_the_checks():
    with pytest.raises(MeshError, match="^n_sub must be >= 1, got 0$"):
        StructuredTriMesh(0, 1, 0, 1, 0)
    with pytest.raises(MeshError, match="^xmax must be finite"):
        StructuredTriMesh(0, float("inf"), 0, 1, 4)


def test_n_sub_must_be_an_integer():
    with pytest.raises(MeshError, match=r"^n_sub must be an integer, got 3\.0$"):
        build_mesh((0, 1, 0, 1), 3.0)
    with pytest.raises(MeshError, match=r"^n_sub must be an integer, got 2\.5$"):
        StructuredTriMesh(0, 1, 0, 1, 2.5)
    assert build_mesh((0, 1, 0, 1), np.int64(3)).num_vertices == 16
    assert build_mesh((0, 1, 0, 1), np.uint8(2)).num_vertices == 9


def test_mesh_is_a_frozen_value_of_its_defining_numbers():
    mesh = build_mesh((-2, 3, -1, 4), 7, diagonal="anti")
    assert [f.name for f in dataclasses.fields(mesh)] == [
        "xmin", "xmax", "ymin", "ymax", "n_sub", "diagonal"
    ]
    assert mesh == StructuredTriMesh(-2.0, 3.0, -1.0, 4.0, 7, "anti")
    assert mesh != build_mesh((-2, 3, -1, 4), 7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mesh.n_sub = 8
    assert mesh.num_vertices == len(mesh.vertices) == 64
    assert mesh.num_triangles == len(mesh.triangles) == 98


def test_set_up_builds_no_triangles():
    # The set-up sequence of a run: mesh, initial state, first assembly.
    scenario = scenario_surface_regularity()
    mesh = scenario.build_mesh()
    state = scenario.initial_state(mesh)
    p = vascular_fraction(state.phi_field, state.t_field)
    assemble_stiffness(mesh, scenario.params.kappa1 * p + 1.0)
    assert mesh.num_triangles == 4050
    assert "triangles" not in vars(mesh)


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


@pytest.mark.parametrize(
    "bounds, spans",
    [
        ((-1e200, 1e200, -1e200, 1e200), "2e+200 x 2e+200"),
        ((0, 1e-170, 0, 1e-170), "1e-170 x 1e-170"),
    ],
)
def test_cell_area_overflow_and_underflow_rejected(bounds, spans):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError) as info:
            build_mesh(bounds, 45)
    assert str(info.value) == (
        f"cell area of spans {spans} at n_sub=45 is not positive and finite"
    )


def test_triangle_orientation_positive():
    for diagonal in ("main", "anti"):
        mesh = build_mesh((-2, 3, -1, 4), 7, diagonal=diagonal)
        p = mesh.vertices[mesh.triangles]
        cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
            p[:, 1, 1] - p[:, 0, 1]
        ) * (p[:, 2, 0] - p[:, 0, 0])
        assert np.all(cross > 0)


def triangle_lumped_mass(mesh):
    """Per-triangle signed areas, one third to each corner by bincount."""
    p = mesh.vertices[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    contrib = np.repeat(areas / 3.0, 3)
    return np.bincount(
        mesh.triangles.ravel(), weights=contrib, minlength=mesh.num_vertices
    )


@pytest.mark.parametrize("diagonal", ["main", "anti"])
@pytest.mark.parametrize("n_sub", [1, 2, 7, 45])
@pytest.mark.parametrize("bounds", [(-3.3, 7.1, 0.2, 9.9), (-9, 9, -9, 9)])
def test_lumped_mass_bit_equal_to_triangle_accumulation(bounds, n_sub, diagonal):
    mesh = build_mesh(bounds, n_sub, diagonal=diagonal)
    assert np.array_equal(mesh.lumped_weights, triangle_lumped_mass(mesh))


def test_unit_square_corner_weights():
    mesh = build_mesh((0, 1, 0, 1), 1)
    weights = mesh.lumped_weights
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
    matrix = as_csr(assemble_stiffness(mesh, diffusivity))
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
    matrix = assemble_stiffness(mesh, np.full(mesh.num_vertices, 2.0))
    matrix = as_csr(matrix).tocoo()
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
    diffusivity = 1.0 + rng.random(mesh.num_vertices)
    matrix = as_csr(assemble_stiffness(mesh, diffusivity))
    # every vertex plus both directions of every axis-aligned edge
    assert matrix.nnz == (n + 1) ** 2 + 4 * n * (n + 1) == 10396
    assert np.all(matrix.data != 0.0)
    assert matrix.has_sorted_indices
    # a diagonal shift lands on the stored diagonal and nowhere else
    shift = rng.random(mesh.num_vertices)
    shifted = as_csr(assemble_stiffness(mesh, diffusivity, shift))
    assert shifted.nnz == matrix.nnz
    assert shifted.has_sorted_indices
    assert (shifted != matrix + sparse.diags(shift)).nnz == 0


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("diagonal", ["main", "anti"])
@pytest.mark.parametrize("n_sub", [1, 2, 3, 45, 180])
def test_stencil_matvec_matches_csr(n_sub, diagonal, shifted):
    # The plane product adds in the CSR product's order, so its bits match,
    # signed zeros and entries from 1e-200 to 1e200 included.
    mesh = build_mesh((-9.0, 9.0, -9.0, 9.0), n_sub, diagonal=diagonal)
    rng = np.random.default_rng(n_sub)
    nv = mesh.num_vertices
    diffusivity = 1.0 + 55.0 * rng.random(nv)
    shift = rng.random(nv) if shifted else None
    matrix = assemble_stiffness(mesh, diffusivity, shift)
    csr = as_csr(matrix)
    assert matrix.shape == csr.shape == (nv, nv)
    assert matrix.diagonal().tobytes() == csr.diagonal().tobytes()
    for _ in range(4):
        x = rng.standard_normal(nv) * 10.0 ** rng.uniform(-200.0, 200.0, nv)
        x[rng.random(nv) < 0.2] = 0.0
        x[rng.random(nv) < 0.2] = -0.0
        assert (matrix @ x).tobytes() == (csr @ x).tobytes()
    for x in (np.zeros(nv), np.full(nv, -0.0)):
        assert (matrix @ x).tobytes() == (csr @ x).tobytes()


def test_import_and_a_ring_run_load_no_scipy():
    # scipy is a test dependency only; loading it would cost every run its
    # resident memory.
    code = (
        "import dataclasses, sys\n"
        "import gbmsim\n"
        "scenario = dataclasses.replace(gbmsim.scenario_ring_width(), n_sub=4)\n"
        "result = gbmsim.run(scenario, gbmsim.SolverConfig(t_final=0.005))\n"
        "assert result.metrics[-1].time == 0.005\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(Path(gbmsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _sha1(array):
    return hashlib.sha1(np.ascontiguousarray(array, dtype="<f8").tobytes()).hexdigest()


# Bits of the vertex and triangle arrays; deriving them lazily must keep them.
VERTICES_SHA1 = "db8cab128708c164d31dfdb66e30325bb93d3b6f"
TRIANGLES_SHA1 = {
    "main": "c6f3acbdd4a24d7dd0322768c7458030b92224b3",
    "anti": "97d2e13369d3c94979cf6db3f0fd277a88e4c259",
}


@pytest.mark.parametrize(
    "diagonal, weights, plain, shifted",
    [
        ("main", "d14723c92cdb9a0957acd19890860b751e953df0",
         "216e2f5ddec965c62645aff540694c30538df895",
         "e7e4d0029e8c690f50b310b7bf3de8af4570f489"),
        ("anti", "6124d958e4f8e5f133265b838613fbf0d249a72b",
         "8688c4a620a1b250998dd7946bb0df731ff0fd06",
         "635046ff6e10ea9edd67161e43fa80a9b7861299"),
    ],
)
def test_weights_and_stiffness_bits_pinned(diagonal, weights, plain, shifted):
    # Bits of the triangle-gather assembly; a faster operator must keep them.
    mesh = build_mesh((-9.0, 9.0, -9.0, 9.0), 20, diagonal=diagonal)
    rng = np.random.default_rng(20)
    diffusivity = 1.0 + 5.0 * rng.random(mesh.num_vertices)
    shift = rng.random(mesh.num_vertices)
    assert _sha1(mesh.vertices) == VERTICES_SHA1
    assert _sha1(mesh.triangles) == TRIANGLES_SHA1[diagonal]
    assert _sha1(mesh.lumped_weights) == weights
    assert _sha1(assemble_stiffness(mesh, diffusivity).toarray()) == plain
    assert _sha1(assemble_stiffness(mesh, diffusivity, shift).toarray()) == shifted


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
