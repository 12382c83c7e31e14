"""Uncoupled, linear, bound-aware semi-implicit time stepper.

One step advances the three fields in a fixed order:

1. Freeze the vascular fraction P and the diffusivity D = kappa1 * P + 1 at
   the old state.
2. Tumor: one linear solve of (M/dt + A(D) + M c) T_new = M (T_old/dt + g),
   by CG with the settings of the step's ``SolverConfig``, where the
   implicit sink c collects the hypoxia rate, destruction by necrosis, and
   the negative part of the logistic factor, while the explicit gain
   g = T_old * P * (1 - S)_+ is nonnegative.  M is the lumped mass matrix
   and A(D) the stiffness matrix, an M-matrix on the structured mesh, so
   nonnegative input yields nonnegative output.
3. Vasculature: a pointwise linear update with the same implicit-sink /
   explicit-gain split, using the freshly solved tumor field.
4. Necrosis: gains exactly what the other fields lost, making the discrete
   mass exchange identity hold by construction.

Both destruction-by-necrosis rates read N+ = max(N, 0), so a negative N
(seeded by the CG tolerance) drives no transfer and cannot feed itself.

Fields are never clamped.  A monitor flags excursions outside
[-1e-9, 1 + 1e-6] (and negative necrosis) after every accepted step;
violations are logged and reported, not repaired, so scheme defects stay
visible.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SolverFailure
from .errors import check_array, check_finite, check_integer, check_range, check_type
from .kinetics import DimensionlessParameters, FieldTriple, vascular_fraction
from .mesh import StructuredTriMesh, assemble_stiffness, vertex_field
from .metrics import MetricsSample, compute_sample

__all__ = [
    "SolverConfig", "SimulationState", "BoundViolation", "RunResult",
    "HomogeneousTrajectory", "solve_spd", "step", "run", "run_homogeneous",
]

logger = logging.getLogger(__name__)

# Monitor tolerances for the theoretical bounds 0 <= T, Phi <= 1 and N >= 0.
LOWER_BOUND_TOL = 1e-9
UPPER_BOUND_TOL = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration settings.

    Every value is finite, and so is ``t_final / dt``.  ``t_final`` may be
    zero (the run then only reports the initial state).  Cadences are in
    steps; metrics are additionally sampled at t = 0 and at the final step.
    """

    dt: float = 1e-3
    t_final: float = 500.0
    cg_tolerance: float = 1e-10
    cg_max_iterations: int = 500
    snapshot_every: int = 50_000
    metrics_every: int = 1_000

    def __post_init__(self):
        check_range("dt", self.dt, lambda v: v > 0.0, "be positive")
        check_range("t_final", self.t_final, lambda v: v >= 0.0, "be nonnegative")
        check_range(
            "cg_tolerance", self.cg_tolerance, lambda v: 0.0 < v < 1.0, "lie in (0, 1)"
        )
        for name in ("cg_max_iterations", "snapshot_every", "metrics_every"):
            check_range(name, getattr(self, name), lambda v: v >= 1, "be >= 1")
            check_integer(name, getattr(self, name))
        check_finite("t_final / dt", self.t_final / self.dt)

    @property
    def n_steps(self) -> int:
        """The number of steps from t = 0 to ``t_final``."""
        return int(round(self.t_final / self.dt))


@dataclass
class SimulationState:
    """Per-vertex fields at one instant."""

    time: float
    t_field: np.ndarray
    n_field: np.ndarray
    phi_field: np.ndarray


@dataclass(frozen=True)
class BoundViolation:
    """One monitor hit: which field left its admissible range, and by how much."""

    step_index: int
    time: float
    field: str
    value: float
    bound: str


@dataclass
class RunResult:
    """Output of :func:`run`: sampled metrics, field snapshots, monitor log."""

    mesh: StructuredTriMesh
    metrics: list[MetricsSample]
    snapshots: list[SimulationState]
    bound_violations: list[BoundViolation]


@dataclass
class HomogeneousTrajectory:
    """Homogeneous states at t = 0, every ``metrics_every``-th step, the last."""

    times: np.ndarray
    t_density: np.ndarray
    n_density: np.ndarray
    phi_density: np.ndarray

    def __len__(self) -> int:
        return int(self.times.size)


def solve_spd(matrix, rhs, config: SolverConfig = SolverConfig(), x0=()):
    """Jacobi-preconditioned conjugate gradients for an SPD system; ``matrix``
    needs only ``@`` and ``diagonal()``.

    It reads tol and the iteration budget from ``config`` (``cg_tolerance``,
    ``cg_max_iterations``), a :class:`SolverConfig` that has checked both.
    Guarantees ||A x - b|| / ||b|| <= tol on return and is deterministic.
    A retry loop runs CG cycles; after each, one verdict on the true residual
    accepts, restarts from it (the recurrence drifted), or raises
    :class:`SolverFailure`: the budget is spent, or CG stalled (r.z or p.Ap
    not positive: a non-SPD matrix, or non-finite input).

    ``rhs`` is a 1-D array of real numbers, and ``x0`` a sequence of previous
    solutions shaped like it, newest first; any other ``config``, ``rhs`` or
    field raises :class:`InvalidParameterError`, also for a zero ``rhs``.
    ``x0 = ()`` starts from zero, and :func:`run` passes up to four.  CG
    starts from the Galerkin projection onto their span with this ``matrix``
    (Chan & Wan, SIAM J. Sci. Comput. 18, 1997): with V the fields in the
    difference basis [v0, v0 - v1, v0 - 2 v1 + v2, v0 - 3 v1 + 3 v2 - v3],
    which keeps the small system well conditioned, it solves
    (V A V^T) c = V b and starts from x = c V, r = b - c (A V), one product
    per field; numerically dependent fields are dropped first.  The start
    only changes the iteration count.  Neither ``rhs`` nor ``x0`` is
    written to.

    The system is normalized by ||b|| internally.  The norm squares the
    entries, so ||b|| underflows to 0.0 once max|rhs| < ~1e-162, and the
    result is then exact zeros, with ``matrix`` not read (:func:`step` then
    passes ``None``): a tumor field that decays that far is flushed to zero,
    far above the binary64 floor.
    """
    check_type("config", config, SolverConfig)
    tol, max_iter = config.cg_tolerance, config.cg_max_iterations
    rhs = check_array("rhs", rhs, lambda s: len(s) == 1, "1-D")
    x0 = [check_array("x0 field", field, rhs.shape.__eq__, rhs.shape) for field in x0]
    b_norm = math.sqrt(rhs @ rhs)
    if b_norm == 0.0:
        return np.zeros_like(rhs)

    inv_diag = 1.0 / matrix.diagonal()
    stack = np.empty((len(x0) + 1, rhs.size))
    for row, field in zip(stack, x0):
        np.divide(field, b_norm, out=row)
    b = np.divide(rhs, b_norm, out=stack[-1])
    x, r = _galerkin_start(matrix, stack)
    iterations = 0
    while True:
        # One CG cycle from r: the projected residual at the start, the true
        # one on a restart.  "not <=" also ends it on a NaN residual.
        p, stalled = None, False
        while not math.sqrt(r @ r) <= tol and iterations < max_iter:
            z = inv_diag * r
            rz_new = float(r @ z)
            if p is None:
                p = z
            else:
                p *= rz_new / rz
                p += z
            rz = rz_new
            ap = matrix @ p
            pap = float(p @ ap)
            if not pap > 0.0 or not rz > 0.0:
                stalled = True
                break
            alpha = rz / pap
            x += alpha * p
            r -= alpha * ap
            iterations += 1

        # The one verdict, on the true residual: the recurrence can drift.
        r = b - matrix @ x
        residual = math.sqrt(r @ r)
        if residual <= tol:
            return x * b_norm
        if stalled or iterations >= max_iter:
            verdict = "stalled after" if stalled else "did not converge in"
            raise SolverFailure(
                f"conjugate gradients {verdict} {iterations} iterations "
                f"(relative residual {residual:.3e})",
                residual=residual,
                iterations=iterations,
            )


def _galerkin_start(matrix, stack):
    """The start ``(x, b - A x)`` of :func:`solve_spd` from ``stack`` (the
    fields, newest first, then b), whose fields become the difference basis V,
    cut at the first Cholesky pivot of V V^T <= sqrt(n) eps ||v0|| ||vj||."""
    basis, b = stack[:-1], stack[-1]
    for j in range(1, len(basis)):
        basis[j:] = basis[j - 1 : -1] - basis[j:]
    gram = (basis @ stack.T).tolist()  # b's column makes it a gemm, not a syrk
    floors = [math.sqrt(b.size * gram[0][0] * g[j]) for j, g in enumerate(gram)]
    k = 0  # eliminate while the pivots clear their floors; a NaN one does
    while k < len(gram) and not gram[k][k] <= floors[k] * math.ulp(1.0):
        for i in range(k + 1, len(gram)):
            for j in range(k + 1, i + 1):
                gram[i][j] -= gram[i][k] * gram[j][k] / gram[k][k]
        k += 1
    basis = basis[:k]
    images = np.empty_like(basis)
    for j, v in enumerate(basis):
        images[j] = matrix @ v
    try:
        coeffs = np.linalg.solve(basis @ images.T, basis @ b)
    except np.linalg.LinAlgError:  # A is not positive definite on the span
        coeffs = np.zeros(len(basis))
    r = coeffs @ images
    return coeffs @ basis, np.subtract(b, r, out=r)


def step(
    state: SimulationState,
    params: DimensionlessParameters,
    mesh: StructuredTriMesh,
    config: SolverConfig = SolverConfig(),
    guess: Sequence[np.ndarray] | None = None,
) -> SimulationState:
    """Advance the state by one time step (see module docstring for the
    splitting).

    It reads ``dt`` from ``config`` and hands ``config`` to :func:`solve_spd`,
    which reads the CG settings from it.
    ``guess`` is the tumor solve's ``x0``: a sequence of previous tumor
    fields, newest first (see :func:`solve_spd`).  It defaults to
    ``(state.t_field,)`` and changes only the iteration count.
    """
    dt = config.dt
    t_old = vertex_field(mesh, "T", state.t_field)
    n_old = vertex_field(mesh, "N", state.n_field)
    phi_old = vertex_field(mesh, "Phi", state.phi_field)

    p = vascular_fraction(phi_old, t_old)
    lack = np.sqrt(1.0 - p * p)
    crowding = 1.0 - (t_old + n_old + phi_old)
    crowd_pos = np.maximum(crowding, 0.0)
    crowd_neg = np.maximum(-crowding, 0.0)

    # The death rates per unit of the dying field, named as in kinetics.reactions;
    # they read N+, so a negative N drives no transfer.
    n_pos = np.maximum(n_old, 0.0)
    hypoxia, t_by_n = params.alpha * lack, params.beta1 * n_pos
    weights = mesh.lumped_weights
    gain = t_old * p * crowd_pos
    rhs = weights * (t_old / dt + gain)
    # solve_spd reads no operator when ||rhs|| is 0 (underflow included).
    system = assemble_stiffness(
        mesh, params.kappa1 * p + 1.0,
        weights * (1.0 / dt + (hypoxia + t_by_n + p * crowd_neg)),
    ) if rhs @ rhs else None
    t_new = solve_spd(system, rhs, config, (t_old,) if guess is None else guess)

    growth = params.gamma * t_new * lack
    phi_by_t, phi_by_n = params.delta * t_new, params.beta2 * n_pos
    phi_new = (phi_old + dt * growth * phi_old * crowd_pos) / (
        1.0 + dt * (phi_by_t + phi_by_n + growth * crowd_neg)
    )
    transfer = hypoxia * t_new + t_by_n * t_new + phi_by_t * phi_new + phi_by_n * phi_new
    n_new = n_old + dt * transfer

    return SimulationState(
        time=state.time + dt, t_field=t_new, n_field=n_new, phi_field=phi_new
    )


def _check_bounds(
    state: SimulationState, step_index: int, violations: list[BoundViolation]
) -> None:
    t, phi, n = state.t_field, state.phi_field, state.n_field
    extremes = (  # N has no upper bound, so no maximum is taken
        ("T", "min", t.min()), ("T", "max", t.max()),
        ("Phi", "min", phi.min()), ("Phi", "max", phi.max()),
        ("N", "min", n.min()),
    )
    for name, stat, value in extremes:
        if value < -LOWER_BOUND_TOL if stat == "min" else value > 1.0 + UPPER_BOUND_TOL:
            bound = "lower" if stat == "min" else "upper"
            violations.append(BoundViolation(step_index, state.time, name, float(value), bound))
            logger.warning(
                "bound violation at step %d (t=%.6g): %s %s = %.6g",
                step_index, state.time, name, stat, value,
            )


def run(scenario, config: SolverConfig | None = None) -> RunResult:
    """Integrate a scenario from t = 0 to t_final.

    Metrics, with the region threshold ``scenario.theta``, are sampled every
    ``metrics_every`` steps plus at t = 0 and the final step; snapshots every
    ``snapshot_every`` steps plus the final step.
    Deterministic: identical inputs produce bit-identical outputs, with one
    caveat: at ``n_sub=180`` the bits follow the number of BLAS threads.
    ``config``, kept only for ``bench/workloads.py``, replaces ``scenario.solver``.

    Each tumor solve starts from the Galerkin projection onto the last four T
    arrays that :func:`step` returned (fewer on the first three steps, or where
    they are dependent), with that step's matrix: while T moves smoothly, the
    solution lies close to their span and CG needs fewer steps.
    """
    if config is None:
        config = scenario.solver
    mesh = scenario.build_mesh()
    state = scenario.initial_state(mesh)

    n_steps = config.n_steps
    violations: list[BoundViolation] = []
    metrics = [compute_sample(state, mesh, scenario.theta)]
    snapshots = [state]  # step allocates new fields and writes no old ones
    history = [state.t_field]  # the last four accepted T fields, newest first

    for k in range(1, n_steps + 1):
        try:
            state = step(state, scenario.params, mesh, config, guess=history)
        except SolverFailure as exc:
            raise SolverFailure(
                f"step {k} (t={k * config.dt:.6g}): {exc}",
                residual=exc.residual,
                iterations=exc.iterations,
                step_index=k,
            ) from exc
        state.time = k * config.dt
        history = [state.t_field, *history[:3]]
        _check_bounds(state, k, violations)
        if k % config.metrics_every == 0 or k == n_steps:
            metrics.append(compute_sample(state, mesh, scenario.theta))
        if k % config.snapshot_every == 0 or k == n_steps:
            snapshots.append(state)

    return RunResult(
        mesh=mesh,
        metrics=metrics,
        snapshots=snapshots,
        bound_violations=violations,
    )


def homogeneous_start(initial: FieldTriple) -> tuple[float, float, float]:
    """The ``FieldTriple`` start of :func:`run_homogeneous` as floats (T, N,
    Phi); each must be finite."""
    check_type("initial", initial, FieldTriple)
    for name, value in vars(initial).items():
        check_finite(f"initial {name}", value)
    return tuple(map(float, vars(initial).values()))


def run_homogeneous(
    initial: FieldTriple,
    params: DimensionlessParameters,
    config: SolverConfig,
) -> HomogeneousTrajectory:
    """Integrate the space-free system with the same semi-implicit update as
    :func:`step`, minus diffusion.

    It reads ``dt``, ``t_final`` (as ``n_steps``) and ``metrics_every`` from
    ``config``.  Every ``initial`` component must be finite.  Raises
    :class:`SolverFailure` on numeric overflow, and
    :class:`InvalidParameterError` when the samples cannot be allocated.
    """
    t, n, phi = homogeneous_start(initial)
    dt, n_steps, every = config.dt, config.n_steps, config.metrics_every
    n_rows = n_steps // every + 1 + (n_steps % every > 0)
    try:
        rows = np.empty((n_rows, 4))  # t, T, N, Phi
    except (MemoryError, ValueError):
        raise InvalidParameterError(
            f"t_final / dt = {config.t_final / dt:g} asks for {n_rows:.3g}"
            " trajectory samples, more than can be allocated"
        ) from None

    alpha, beta1, beta2, gamma, delta = (
        params.alpha, params.beta1, params.beta2, params.gamma, params.delta,
    )
    rows[0] = 0.0, t, n, phi
    row = 0
    for k in range(1, n_steps + 1):
        phi_pos = phi if phi > 0.0 else 0.0
        t_pos = t if t > 0.0 else 0.0
        p = phi_pos / ((phi_pos + 1.0) / 2.0 + t_pos)
        if p > 1.0:
            p = 1.0
        lack = math.sqrt(1.0 - p * p)
        crowding = 1.0 - (t + n + phi)
        crowd_pos = crowding if crowding > 0.0 else 0.0
        crowd_neg = -crowding if crowding < 0.0 else 0.0

        n_pos = n if n > 0.0 else 0.0
        hypoxia, t_by_n = alpha * lack, beta1 * n_pos
        sink = hypoxia + t_by_n + p * crowd_neg
        t_new = (t + dt * t * p * crowd_pos) / (1.0 + dt * sink)
        growth = gamma * t_new * lack
        phi_by_t, phi_by_n = delta * t_new, beta2 * n_pos
        phi_new = (phi + dt * growth * phi * crowd_pos) / (
            1.0 + dt * (phi_by_t + phi_by_n + growth * crowd_neg)
        )
        transfer = hypoxia * t_new + t_by_n * t_new + phi_by_t * phi_new + phi_by_n * phi_new
        n_new = n + dt * transfer
        if not (
            math.isfinite(t_new) and math.isfinite(n_new) and math.isfinite(phi_new)
        ):
            raise SolverFailure(
                f"homogeneous trajectory overflowed at step {k}", step_index=k
            )
        t, n, phi = t_new, n_new, phi_new
        if k % every == 0 or k == n_steps:
            row += 1
            rows[row] = dt * k, t, n, phi

    return HomogeneousTrajectory(*rows.T)
