"""Deterministic CSV and legacy-VTK writers.

Numbers are written with Python's shortest round-trip representation, so a
rerun of the same simulation produces byte-identical files and parsing a file
back recovers the in-memory values exactly.
"""

from __future__ import annotations

from dataclasses import astuple
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError
from .mesh import StructuredTriMesh
from .solver import SimulationState

__all__ = [
    "METRICS_HEADER",
    "snapshot_name",
    "write_metrics_csv",
    "write_snapshot",
    "write_trajectory_csv",
]

METRICS_HEADER = "t,rq,sq,area,r_max,int_T,int_TN,int_phi"


def _column(values) -> list[str]:
    """The text of each value, as the repr of a Python float."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def snapshot_name(time: float) -> str:
    """The CSV file name of the snapshot at ``time``: the time as the ``t``
    column of a metrics CSV writes it, so distinct times get distinct names."""
    return f"snapshot_t{_column([time])[0]}.csv"


def _write_lines(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _write_csv(path, header: str, columns) -> None:
    """Write columns of text, formatted by ``_column``, under a header."""
    _write_lines(path, [header, *map(",".join, zip(*columns, strict=True))])


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
    # MetricsSample's fields, in order, are the METRICS_HEADER columns.
    _write_csv(path, METRICS_HEADER, map(_column, zip(*map(astuple, series))))


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
    _write_csv(path, "t,T,N,Phi", [_column(column[kept]) for column in columns])


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
    # Each column is formatted once for both files.
    columns = [
        _column(values)
        for values in (
            mesh.vertices[:, 0],
            mesh.vertices[:, 1],
            state.t_field,
            state.n_field,
            state.phi_field,
        )
    ]
    _write_csv(path, "x,y,T,N,Phi", columns)
    if vtk:
        _write_legacy_vtk(state.time, mesh, columns, path.with_suffix(".vtk"))


def _write_legacy_vtk(time, mesh, columns, path) -> None:
    xs, ys, *fields = columns
    nv = mesh.num_vertices
    nt = mesh.num_triangles
    parts = [
        "# vtk DataFile Version 3.0",
        f"gbmsim fields at t={_column([time])[0]}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    parts.extend(f"{x} {y} 0.0" for x, y in zip(xs, ys))
    parts.append(f"CELLS {nt} {4 * nt}")
    parts.extend(f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist())
    parts.append(f"CELL_TYPES {nt}")
    parts.extend(["5"] * nt)  # 5 = VTK_TRIANGLE
    parts.append(f"POINT_DATA {nv}")
    for name, text in zip(("T", "N", "Phi"), fields):
        parts.append(f"SCALARS {name} double 1")
        parts.append("LOOKUP_TABLE default")
        parts.extend(text)
    _write_lines(path, parts)
