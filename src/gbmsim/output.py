"""Deterministic CSV and legacy-VTK writers.

Numbers are written with Python's shortest round-trip representation, so a
rerun of the same simulation produces byte-identical files and parsing a file
back recovers the in-memory values exactly.
"""

from __future__ import annotations

from pathlib import Path

from .errors import InvalidParameterError
from .mesh import StructuredTriMesh
from .solver import SimulationState

__all__ = [
    "METRICS_HEADER",
    "write_metrics_csv",
    "write_snapshot",
    "write_trajectory_csv",
]

METRICS_HEADER = "t,rq,sq,area,r_max,int_T,int_TN,int_phi"


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_metrics_csv(series, path) -> None:
    """Write a metrics series; one row per sample, LF line endings.

    The writer re-validates the ring quotient and area of every row so a
    metrics regression cannot slip into the files unnoticed.
    """
    series = list(series)
    if not series:
        raise InvalidParameterError("refusing to write an empty metrics series")
    for sample in series:
        if not (0.0 <= sample.rq <= 1.0):
            raise InvalidParameterError(
                f"ring quotient {sample.rq!r} outside [0, 1] at t={sample.time!r}"
            )
        if not sample.area >= 0.0:
            raise InvalidParameterError(
                f"negative area {sample.area!r} at t={sample.time!r}"
            )
    _write_csv(
        path,
        METRICS_HEADER,
        (
            (
                sample.time,
                sample.rq,
                sample.sq,
                sample.area,
                sample.r_max,
                sample.tumor_density,
                sample.total_tn_density,
                sample.phi_density,
            )
            for sample in series
        ),
    )


def write_trajectory_csv(trajectory, stride: int, path) -> None:
    """Write a homogeneous trajectory as "t,T,N,Phi", keeping every
    ``stride``-th step and the last one; LF line endings."""
    kept = sorted({*range(0, len(trajectory), stride), len(trajectory) - 1})
    columns = (
        trajectory.times,
        trajectory.t_density,
        trajectory.n_density,
        trajectory.phi_density,
    )
    _write_csv(path, "t,T,N,Phi", zip(*(column[kept] for column in columns)))


def write_snapshot(
    state: SimulationState,
    mesh: StructuredTriMesh,
    path,
    vtk: bool = False,
) -> None:
    """Write per-vertex fields as CSV, plus an optional legacy-VTK sibling.

    The CSV holds "x,y,T,N,Phi" in vertex-index order.  When ``vtk`` is set a
    ``.vtk`` file with the triangulation and three scalar point-data arrays
    (T, N, Phi) is written next to it.
    """
    path = Path(path)
    _write_csv(
        path,
        "x,y,T,N,Phi",
        zip(
            mesh.vertices[:, 0],
            mesh.vertices[:, 1],
            state.t_field,
            state.n_field,
            state.phi_field,
            strict=True,
        ),
    )
    if vtk:
        _write_legacy_vtk(state, mesh, path.with_suffix(".vtk"))


def _write_legacy_vtk(state, mesh, path) -> None:
    nv = mesh.num_vertices
    nt = mesh.num_triangles
    parts = [
        "# vtk DataFile Version 3.0",
        f"gbmsim fields at t={_fmt(state.time)}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    for i in range(nv):
        parts.append(f"{_fmt(mesh.vertices[i, 0])} {_fmt(mesh.vertices[i, 1])} 0.0")
    parts.append(f"CELLS {nt} {4 * nt}")
    for a, b, c in mesh.triangles:
        parts.append(f"3 {a} {b} {c}")
    parts.append(f"CELL_TYPES {nt}")
    parts.extend(["5"] * nt)  # 5 = VTK_TRIANGLE
    parts.append(f"POINT_DATA {nv}")
    for name, values in (
        ("T", state.t_field),
        ("N", state.n_field),
        ("Phi", state.phi_field),
    ):
        parts.append(f"SCALARS {name} double 1")
        parts.append("LOOKUP_TABLE default")
        parts.extend(_fmt(v) for v in values)
    Path(path).write_text("\n".join(parts) + "\n", newline="\n")
