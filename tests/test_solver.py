"""Time stepper, linear solver, and homogeneous-mode tests."""

import logging
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import gbmsim.solver
from gbmsim import (
    DimensionlessParameters,
    InvalidParameterError,
    FieldTriple,
    SimulationState,
    SolverConfig,
    SolverFailure,
    build_mesh,
    run,
    run_homogeneous,
    scenario_ring_width,
    scenario_surface_regularity,
    solve_spd,
    step,
    vascular_fraction,
)
from gbmsim.solver import _check_bounds

TABLE_PARAMS = DimensionlessParameters(
    kappa1=55.0, alpha=45.0, beta1=27.5, beta2=2.55, gamma=0.255, delta=2.55
)


def uniform_state(mesh, t=0.0, n=0.0, phi=0.0):
    nv = mesh.num_vertices
    return SimulationState(
        time=0.0,
        t_field=np.full(nv, float(t)),
        n_field=np.full(nv, float(n)),
        phi_field=np.full(nv, float(phi)),
    )


# --- linear solver ----------------------------------------------------------

class CountingMatrix:
    """Matrix proxy that counts products and delegates the rest."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.matvecs = 0

    def __matmul__(self, x):
        self.matvecs += 1
        return self.matrix @ x

    def diagonal(self):
        return self.matrix.diagonal()


def random_spd(rng, n):
    raw = rng.standard_normal((n, n))
    return sparse.csr_matrix(raw @ raw.T + n * np.eye(n))


def test_solve_spd_identity():
    matrix = sparse.identity(6, format="csr")
    b = np.arange(1.0, 7.0)
    assert np.allclose(solve_spd(matrix, b), b, atol=1e-12)


def test_solve_spd_diagonal():
    matrix = sparse.diags([2.0, 4.0]).tocsr()
    x = solve_spd(matrix, np.array([2.0, 8.0]))
    assert x == pytest.approx([1.0, 2.0], abs=1e-12)


def test_solve_spd_zero_rhs():
    matrix = sparse.diags([2.0, 4.0]).tocsr()
    assert np.all(solve_spd(matrix, np.zeros(2)) == 0.0)


def test_solve_spd_matches_dense_factorization():
    rng = np.random.default_rng(12)
    for trial in range(5):
        raw = rng.standard_normal((20, 20))
        dense = raw @ raw.T + 20.0 * np.eye(20)
        b = rng.standard_normal(20)
        x = solve_spd(sparse.csr_matrix(dense), b, tol=1e-12, max_iter=400)
        assert np.abs(x - np.linalg.solve(dense, b)).max() <= 1e-8


def test_solve_spd_respects_relative_residual():
    rng = np.random.default_rng(13)
    raw = rng.standard_normal((30, 30))
    dense = raw @ raw.T + 30.0 * np.eye(30)
    matrix = sparse.csr_matrix(dense)
    b = rng.standard_normal(30)
    x = solve_spd(matrix, b, tol=1e-11)
    assert np.linalg.norm(matrix @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_solve_spd_iteration_budget():
    rng = np.random.default_rng(14)
    raw = rng.standard_normal((40, 40))
    dense = raw @ raw.T + 1e-3 * np.eye(40)
    with pytest.raises(SolverFailure) as info:
        solve_spd(sparse.csr_matrix(dense), rng.standard_normal(40),
                  tol=1e-14, max_iter=2)
    assert info.value.iterations == 2
    assert info.value.residual > 0
    assert str(info.value).startswith(
        "conjugate gradients did not converge in 2 iterations (relative residual "
    )


def test_solve_spd_stalls_on_an_indefinite_matrix():
    # p = D^-1 b = (0, -1) gives r.z = p.Ap = -1 before the first update.
    with pytest.raises(SolverFailure) as info:
        solve_spd(sparse.csr_matrix(np.diag([1.0, -1.0])), np.array([0.0, 1.0]))
    assert info.value.iterations == 0
    assert info.value.residual == 1.0
    assert str(info.value) == (
        "conjugate gradients stalled after 0 iterations (relative residual 1.000e+00)"
    )


@pytest.mark.parametrize("rhs, x0", [
    ([np.nan, 1.0], ()),
    ([1.0, 1.0], [[np.nan, 0.0]]),
], ids=["rhs", "x0"])
def test_solve_spd_rejects_non_finite_input(rhs, x0):
    with pytest.raises(SolverFailure) as info:
        solve_spd(sparse.diags([2.0, 4.0]).tocsr(), np.array(rhs), x0=x0)
    assert info.value.iterations == 0
    assert np.isnan(info.value.residual)


class DriftingMatrix(CountingMatrix):
    """Counting proxy whose first ``drifting`` products are off by a relative
    1e-6, so the CG recurrence residual drifts from the true one."""

    def __init__(self, matrix, drifting):
        super().__init__(matrix)
        self.drifting = drifting

    def __matmul__(self, x):
        product = super().__matmul__(x)
        return product * (1.0 + 1e-6) if self.matvecs <= self.drifting else product


def test_solve_spd_restarts_when_the_recurrence_drifts():
    # The drifted cycle meets tol on its recurrence residual only; the true
    # residual check rejects it, and a second cycle from the true residual
    # meets tol against the exact matrix.
    rng = np.random.default_rng(7)
    matrix = random_spd(rng, 30)
    b = rng.standard_normal(30)
    exact, drifting = CountingMatrix(matrix), DriftingMatrix(matrix, 3)
    solve_spd(exact, b, tol=1e-10)
    x = solve_spd(drifting, b, tol=1e-10)
    assert np.linalg.norm(matrix @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert drifting.matvecs > exact.matvecs


def test_solve_spd_leaves_inputs_unmodified():
    _check_inputs_unmodified((1, 25))


def test_solve_spd_leaves_stacked_x0_unmodified():
    _check_inputs_unmodified((3, 25))


def _check_inputs_unmodified(x0_shape):
    rng = np.random.default_rng(15)
    matrix = random_spd(rng, 25)
    b = rng.standard_normal(25)
    x0 = rng.standard_normal(x0_shape)
    b_before, x0_before = b.copy(), x0.copy()
    x = solve_spd(matrix, b, tol=1e-12, x0=x0)
    assert np.array_equal(b, b_before)
    assert np.array_equal(x0, x0_before)
    assert x is not b and x is not x0
    assert np.linalg.norm(matrix @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("n_fields", [1, 2, 3, 4])
def test_solve_spd_exact_in_span_of_fields(n_fields):
    # the Galerkin start recovers a solution that lies in the fields' span:
    # one product per field, one to confirm the residual, no CG iteration
    rng = np.random.default_rng(16)
    matrix = random_spd(rng, 30)
    fields = rng.standard_normal((n_fields, 30))
    exact = np.array([0.3, -2.0, 0.7, 1.4][:n_fields]) @ fields
    b = matrix @ exact
    counting = CountingMatrix(matrix)
    x = solve_spd(counting, b, tol=1e-10, x0=fields)
    assert counting.matvecs <= n_fields + 1
    assert np.linalg.norm(matrix @ x - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize(
    "stack",
    [np.tile(np.linspace(0.5, 1.5, 25), (3, 1)), np.zeros((3, 25))],
    ids=["identical", "zero"],
)
def test_solve_spd_degenerate_stack_still_converges(stack):
    rng = np.random.default_rng(17)
    matrix = random_spd(rng, 25)
    b = rng.standard_normal(25)
    x = solve_spd(matrix, b, tol=1e-12, x0=stack)
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(matrix @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_solve_spd_drops_numerically_dependent_fields():
    # four fields of one geometric sequence plus noise at the tolerance span
    # one direction to below what their Gram matrix resolves: the start keeps
    # at most three, and as the solution is the newest field, CG needs no step
    rng = np.random.default_rng(18)
    matrix = random_spd(rng, 30)
    u = rng.standard_normal(30)
    fields = 0.9 ** np.arange(4)[:, None] * u + 1e-10 * rng.standard_normal((4, 30))
    b = matrix @ fields[0]
    counting = CountingMatrix(matrix)
    x = solve_spd(counting, b, tol=1e-10, x0=fields)
    assert counting.matvecs <= 3 + 1
    assert np.linalg.norm(matrix @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_spd_stalls_when_the_start_system_is_singular():
    # x0 = (1, 1) has v.Av = 0 on this indefinite matrix: the Galerkin start
    # falls back to zero, and CG reports the stall
    with pytest.raises(SolverFailure) as info:
        solve_spd(sparse.csr_matrix(np.diag([1.0, -1.0])), np.array([0.0, 1.0]),
                  x0=[np.array([1.0, 1.0])])
    assert info.value.iterations == 0
    assert info.value.residual == 1.0


@pytest.mark.parametrize("x0", [np.ones(25), np.ones((1, 24))], ids=["bare", "short"])
@pytest.mark.parametrize("scale", [1.0, 0.0], ids=["rhs", "zero-rhs"])
def test_solve_spd_rejects_a_field_of_the_wrong_shape(x0, scale):
    # x0 is a sequence of fields shaped like rhs: a bare field is a sequence
    # of scalars, and the check runs before the zero-rhs return
    rng = np.random.default_rng(19)
    b = scale * rng.standard_normal(25)
    with pytest.raises(InvalidParameterError, match="x0 field shape"):
        solve_spd(random_spd(rng, 25), b, x0=x0)


@pytest.mark.parametrize("b", [
    pytest.param([1e-150, 2e-150, -1e-150], id="1e-150"),
    pytest.param([1e-300, 2e-300, -1e-300], id="1e-300", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1: ||rhs|| underflows to 0 below "
        "max|rhs| ~ 1e-162, and solve_spd then returns zeros")),
])
def test_solve_spd_survives_tiny_scales(b):
    # magnitudes far below the normal range must not break the iteration
    matrix = sparse.diags([3.0, 5.0, 7.0]).tocsr()
    x = solve_spd(matrix, np.array(b))
    assert x == pytest.approx(np.array(b) / matrix.diagonal(), rel=1e-10, abs=0.0)


# --- one step ----------------------------------------------------------------

def test_step_equilibrium_without_tumor():
    mesh = build_mesh((-9, 9, -9, 9), 8)
    state = uniform_state(mesh, t=0.0, n=0.0, phi=0.37)
    after = step(state, TABLE_PARAMS, mesh)
    assert np.all(after.t_field == 0.0)
    assert np.all(after.n_field == 0.0)
    assert np.abs(after.phi_field - 0.37).max() == 0.0


@pytest.mark.parametrize("t, assemblies", [(0.0, 0), (0.3, 1)])
def test_step_assembles_the_operator_only_for_a_live_solve(monkeypatch, t, assemblies):
    # T = 0 gives an all-zero rhs, whose solve returns before reading the
    # operator, so the step assembles none
    calls = []
    original = gbmsim.solver.assemble_stiffness

    def counting_assembly(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gbmsim.solver, "assemble_stiffness", counting_assembly)
    mesh = build_mesh((-9, 9, -9, 9), 6)
    step(uniform_state(mesh, t=t, n=0.2, phi=0.6), TABLE_PARAMS, mesh)
    assert len(calls) == assemblies


def test_step_without_tumor_is_the_homogeneous_step_exactly():
    mesh = build_mesh((-9, 9, -9, 9), 6)
    config = SolverConfig(t_final=1e-3)
    trajectory = run_homogeneous(FieldTriple(0.0, 0.2, 0.6), TABLE_PARAMS, config)
    after = step(uniform_state(mesh, t=0.0, n=0.2, phi=0.6), TABLE_PARAMS, mesh, config)
    assert np.all(after.t_field == trajectory.t_density[-1])
    assert np.all(after.n_field == trajectory.n_density[-1])
    assert np.all(after.phi_field == trajectory.phi_density[-1])


def test_step_constant_implicit_decay():
    # uniform T with no vasculature: diffusion drops out, pure implicit sink
    mesh = build_mesh((-9, 9, -9, 9), 12)
    state = uniform_state(mesh, t=0.1)
    after = step(state, TABLE_PARAMS, mesh, SolverConfig(cg_tolerance=1e-13))
    assert np.abs(after.t_field - 0.1 / 1.045).max() <= 1e-12


def test_step_preserves_nonnegativity():
    mesh = build_mesh((-9, 9, -9, 9), 15)
    rng = np.random.default_rng(21)
    state = SimulationState(
        time=0.0,
        t_field=rng.random(mesh.num_vertices) * 0.8,
        n_field=rng.random(mesh.num_vertices) * 0.5,
        phi_field=rng.random(mesh.num_vertices),
    )
    for _ in range(20):
        state = step(state, TABLE_PARAMS, mesh)
        assert state.t_field.min() >= 0.0
        assert state.n_field.min() >= 0.0
        assert state.phi_field.min() >= 0.0


def test_step_necrosis_receives_exact_transfers():
    mesh = build_mesh((-9, 9, -9, 9), 10)
    rng = np.random.default_rng(22)
    state = SimulationState(
        time=0.0,
        t_field=rng.random(mesh.num_vertices) * 0.6,
        n_field=rng.random(mesh.num_vertices) * 0.3,
        phi_field=rng.random(mesh.num_vertices),
    )
    weights = mesh.lumped_weights
    for _ in range(10):
        before = state
        state = step(before, TABLE_PARAMS, mesh)
        p = vascular_fraction(before.phi_field, before.t_field)
        lack = np.sqrt(1.0 - p * p)
        transfer = (
            TABLE_PARAMS.alpha * lack * state.t_field
            + TABLE_PARAMS.beta1 * before.n_field * state.t_field
            + TABLE_PARAMS.delta * state.t_field * state.phi_field
            + TABLE_PARAMS.beta2 * before.n_field * state.phi_field
        )
        gained = float(np.dot(weights, state.n_field - before.n_field))
        expected = 1e-3 * float(np.dot(weights, transfer))
        assert abs(gained - expected) <= 1e-13 * max(1.0, abs(expected))


def test_step_rejects_mismatched_fields():
    mesh = build_mesh((0, 1, 0, 1), 3)
    bad = SimulationState(0.0, np.zeros(5), np.zeros(5), np.zeros(5))
    with pytest.raises(Exception):
        step(bad, TABLE_PARAMS, mesh)


def test_step_rejects_guess_of_wrong_length():
    _check_guess_rejected((5,))


def test_step_rejects_stacked_guess_of_wrong_length():
    _check_guess_rejected((3, 5))


@pytest.mark.parametrize("dt, message", [
    (0.0, "dt must be positive, got 0.0"),
    (-1e-3, "dt must be positive, got -0.001"),
    (float("nan"), "dt must be positive, got nan"),
], ids=["0.0", "-0.001", "nan"])
def test_step_rejects_dt_like_the_solver_config(dt, message):
    # step reads its dt from a SolverConfig, which cannot hold these
    with pytest.raises(InvalidParameterError) as info:
        SolverConfig(dt=dt)
    assert str(info.value) == message


def _check_guess_rejected(shape):
    mesh = build_mesh((0, 1, 0, 1), 3)
    state = uniform_state(mesh, t=0.1, phi=0.5)
    with pytest.raises(InvalidParameterError):
        step(state, TABLE_PARAMS, mesh, guess=np.zeros(shape))


def test_bound_monitor_logs_each_violation_once(caplog):
    state = SimulationState(
        time=0.5,
        t_field=np.array([-1e-3, 1.5]),
        n_field=np.array([-1.0, 0.0]),
        phi_field=np.array([0.0, 2.0]),
    )
    violations = []
    with caplog.at_level(logging.WARNING, logger="gbmsim.solver"):
        _check_bounds(state, 7, violations)
    assert [(v.field, v.bound) for v in violations] == [
        ("T", "lower"), ("T", "upper"), ("Phi", "upper"), ("N", "lower"),
    ]
    fields = {"T": state.t_field, "Phi": state.phi_field, "N": state.n_field}
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == len(violations)
    for record, violation in zip(warnings, violations):
        stat = "min" if violation.bound == "lower" else "max"
        assert violation.value == getattr(fields[violation.field], stat)()
        assert violation.step_index == 7 and violation.time == 0.5
        assert record.name == "gbmsim.solver"
        assert f"{violation.field} {stat} = " in record.getMessage()


# A known answer for the whole step.  On [0, 4]^2 with kappa1 = 0 (so D = 1),
# alpha = 10 and the other rates 0, start from Phi = 1/2, N = 0 and
# T = eps (1 + cos(pi x / 4) cos(pi y / 4) / 2) with eps = 1e-10.  Phi never
# changes, N feeds back into nothing, and T moves P and the crowding term only
# at O(eps).  So T solves the heat equation with the constant net rate
# r = P (1 - Phi) - alpha sqrt(1 - P^2), P = 2/3, and the cosine, which has no
# flux through the boundary, decays at pi^2 / 8 more.
COSINE_PARAMS = DimensionlessParameters(
    kappa1=0.0, alpha=10.0, beta1=0.0, beta2=0.0, gamma=0.0, delta=0.0
)
COSINE_RATE = 2.0 / 3.0 * 0.5 - 10.0 * math.sqrt(1.0 - (2.0 / 3.0) ** 2)


def cosine_mode(x, y, t):
    mode = np.cos(np.pi * x / 4.0) * np.cos(np.pi * y / 4.0)
    decay = np.exp(-np.pi**2 / 8.0 * t)
    return 1e-10 * np.exp(COSINE_RATE * t) * (1.0 + 0.5 * mode * decay)


def cosine_mode_error(n_sub, dt, t_final, diagonal):
    """The lumped-L2 error of ``step``'s T at ``t_final``, relative to the
    lumped-L2 norm of the known answer."""
    mesh = build_mesh((0.0, 4.0, 0.0, 4.0), n_sub, diagonal=diagonal)
    x, y = mesh.vertices.T
    state = replace(uniform_state(mesh, phi=0.5), t_field=cosine_mode(x, y, 0.0))
    config = SolverConfig(dt=dt, cg_tolerance=1e-12)
    n_steps = round(t_final / dt)
    for _ in range(n_steps):
        state = step(state, COSINE_PARAMS, mesh, config)
    exact = cosine_mode(x, y, n_steps * dt)
    weights = mesh.lumped_weights
    return math.sqrt(weights @ (state.t_field - exact) ** 2 / (weights @ exact**2))


def assert_order(coarse_error, fine_error, expected):
    # One halving of h or dt must show the expected order p to within p / 4:
    # the error ratio lies in [2^(0.75 p), 2^(1.25 p)].
    order = math.log2(coarse_error / fine_error)
    assert 0.75 * expected <= order <= 1.25 * expected, (coarse_error, fine_error)


@pytest.mark.parametrize("diagonal", ["main", "anti"])
def test_step_converges_to_the_cosine_mode_in_space_and_time(diagonal):
    # Space, second order: at dt = 2.5e-5 the time error is a seventh of the
    # space error at n = 16.
    space_errors = [cosine_mode_error(n, 2.5e-5, 0.05, diagonal) for n in (8, 16)]
    assert_order(*space_errors, expected=2)
    # Time, first order: at n = 16 the space error is a 25th of the time error.
    time_errors = [cosine_mode_error(16, dt, 0.2, diagonal) for dt in (4e-3, 2e-3)]
    assert_order(*time_errors, expected=1)


# --- run driver ---------------------------------------------------------------

def test_run_zero_horizon_single_sample():
    scenario = scenario_ring_width()
    scenario = replace(scenario, n_sub=10, solver=replace(scenario.solver, t_final=0.0))
    result = run(scenario)
    assert len(result.metrics) == 1
    assert result.metrics[0].time == 0.0
    assert result.metrics[0].rq == 1.0


def test_run_metrics_cadence_and_final_sample():
    scenario = scenario_ring_width()
    scenario = replace(
        scenario,
        n_sub=8,
        solver=replace(scenario.solver, t_final=0.0105, metrics_every=4),
    )
    result = run(scenario)
    # steps: round(0.0105 / 1e-3) = 10; samples at steps 0, 4, 8, 10
    times = [round(m.time, 6) for m in result.metrics]
    assert times == [0.0, 0.004, 0.008, 0.01]
    assert result.metrics[0].rq == 1.0


def test_run_is_deterministic():
    scenario = scenario_ring_width()
    scenario = replace(
        scenario, n_sub=10, solver=replace(scenario.solver, t_final=0.05)
    )
    a = run(scenario)
    b = run(scenario)
    for sa, sb in zip(a.metrics, b.metrics):
        assert sa == sb
    assert np.array_equal(a.snapshots[-1].t_field, b.snapshots[-1].t_field)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: OpenBLAS threads the long "
                   "dots of the solve, so at n_sub=180 the bits follow the thread count")
def test_run_bits_do_not_depend_on_blas_threads():
    # The SHA-1 of the final T, N and Phi of a short surface run at n_sub=180,
    # with one and with two BLAS threads.
    code = (
        "import dataclasses, hashlib\n"
        "import gbmsim\n"
        "scenario = gbmsim.scenario_surface_regularity()\n"
        "solver = dataclasses.replace(scenario.solver, t_final=0.05)\n"
        "scenario = dataclasses.replace(scenario, n_sub=180, solver=solver)\n"
        "last = gbmsim.run(scenario).snapshots[-1]\n"
        "fields = (last.t_field, last.n_field, last.phi_field)\n"
        "print(hashlib.sha1(b''.join(f.tobytes() for f in fields)).hexdigest())\n"
    )
    src = str(Path(gbmsim.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]


def test_run_projected_guess_saves_matvecs(monkeypatch):
    # run() projects each tumor solve onto the last four T fields; a plain
    # step loop projects onto T_old alone
    matvecs = []
    original = gbmsim.solver.solve_spd

    def counting_solve(matrix, rhs, *args, **kwargs):
        proxy = CountingMatrix(matrix)
        try:
            return original(proxy, rhs, *args, **kwargs)
        finally:
            matvecs.append(proxy.matvecs)

    monkeypatch.setattr(gbmsim.solver, "solve_spd", counting_solve)
    scenario = scenario_surface_regularity()
    scenario = replace(
        scenario, n_sub=45, solver=replace(scenario.solver, t_final=0.2)
    )
    config = scenario.solver

    result = run(scenario)
    run_matvecs = sum(matvecs)

    matvecs.clear()
    mesh = scenario.build_mesh()
    state = scenario.initial_state(mesh)
    for _ in range(200):
        state = step(state, scenario.params, mesh, config)

    assert len(matvecs) == 200
    assert 0 < run_matvecs < sum(matvecs)
    t_run = result.snapshots[-1].t_field
    scale = np.abs(state.t_field).max()
    assert scale > 0.0
    assert np.abs(t_run - state.t_field).max() <= 1e-6 * scale
    assert result.bound_violations == []
    assert t_run.min() >= 0.0


def test_run_guesses_from_the_last_four_tumor_fields(monkeypatch):
    # step k gets the accepted T fields k-1, k-2, ... (at most four), newest
    # first, with T at t = 0 as field 0: the very arrays that step returned
    guesses, t_fields, returned = [], [], []
    original = gbmsim.solver.step

    def recording_step(state, *args, guess=None, **kwargs):
        if not returned:
            returned.append(state.t_field)
        guesses.append(list(guess))
        after = original(state, *args, guess=guess, **kwargs)
        t_fields.append(after.t_field.copy())
        returned.append(after.t_field)
        return after

    monkeypatch.setattr(gbmsim.solver, "step", recording_step)
    scenario = scenario_ring_width()
    scenario = replace(
        scenario, n_sub=8, solver=replace(scenario.solver, t_final=0.007)
    )
    mesh = scenario.build_mesh()
    t_fields.append(scenario.initial_state(mesh).t_field)
    run(scenario)

    nv = mesh.num_vertices
    assert [np.shape(g) for g in guesses] == [
        (1, nv), (2, nv), (3, nv), (4, nv), (4, nv), (4, nv), (4, nv)
    ]
    for k, guess in enumerate(guesses, start=1):
        for age, field in enumerate(guess):
            assert np.array_equal(field, t_fields[k - 1 - age])
            assert field is returned[k - 1 - age]


def test_run_snapshots_are_not_views_of_the_guess_history(monkeypatch):
    # run() hands the T fields that step returned back to later steps as
    # their guess; each snapshot must keep its field as step returned it
    returned = []
    original = gbmsim.solver.step

    def recording_step(*args, **kwargs):
        after = original(*args, **kwargs)
        returned.append(after.t_field.copy())
        return after

    monkeypatch.setattr(gbmsim.solver, "step", recording_step)
    scenario = scenario_ring_width()
    scenario = replace(
        scenario,
        n_sub=8,
        solver=replace(scenario.solver, t_final=0.008, snapshot_every=1),
    )
    result = run(scenario)
    assert len(returned) == 8
    assert len(result.snapshots) == 9
    for snapshot, t_field in zip(result.snapshots[1:], returned):
        assert np.array_equal(snapshot.t_field, t_field)
    assert not np.array_equal(returned[-1], returned[-5])


def test_n_steps_is_the_step_count_of_run_and_run_homogeneous(monkeypatch):
    config = SolverConfig(dt=3e-3, t_final=0.01, metrics_every=1)  # 3.33 -> 3
    steps = []
    original = gbmsim.solver.step

    def counting_step(*args, **kwargs):
        steps.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gbmsim.solver, "step", counting_step)
    run(replace(scenario_ring_width(), n_sub=4, solver=config))
    trajectory = run_homogeneous(FieldTriple(0.1, 0.0, 0.5), TABLE_PARAMS, config)
    assert config.n_steps == 3
    assert len(steps) == len(trajectory) - 1 == config.n_steps


def test_run_annotates_solver_failure_with_step():
    scenario = scenario_ring_width()
    scenario = replace(
        scenario,
        n_sub=10,
        solver=replace(
            scenario.solver, t_final=0.01, cg_tolerance=1e-15, cg_max_iterations=1
        ),
    )
    with pytest.raises(SolverFailure) as info:
        run(scenario)
    assert info.value.step_index == 1


# --- homogeneous mode ----------------------------------------------------------

def test_homogeneous_matches_mesh_step_on_constant_fields():
    mesh = build_mesh((-9, 9, -9, 9), 6)
    initial = FieldTriple(0.3, 0.1, 0.6)
    trajectory = run_homogeneous(initial, TABLE_PARAMS, SolverConfig(t_final=1e-3))
    state = uniform_state(mesh, t=0.3, n=0.1, phi=0.6)
    after = step(state, TABLE_PARAMS, mesh, SolverConfig(cg_tolerance=1e-13))
    assert trajectory.t_density[-1] == pytest.approx(after.t_field[0], abs=1e-12)
    assert trajectory.n_density[-1] == pytest.approx(after.n_field[0], abs=1e-14)
    assert trajectory.phi_density[-1] == pytest.approx(after.phi_field[0], abs=1e-14)


def test_homogeneous_sign_structure_without_tumor():
    trajectory = run_homogeneous(
        FieldTriple(0.0, 0.1, 0.5), TABLE_PARAMS,
        SolverConfig(t_final=5.0, metrics_every=1),
    )
    assert np.all(trajectory.t_density == 0.0)
    assert np.all(np.diff(trajectory.phi_density) <= 0.0)
    assert np.all(np.diff(trajectory.n_density) >= 0.0)


def test_homogeneous_necrosis_bounded_and_monotone():
    trajectory = run_homogeneous(
        FieldTriple(0.1, 0.1, 0.5), TABLE_PARAMS,
        SolverConfig(t_final=20.0, metrics_every=1),
    )
    assert np.all(np.diff(trajectory.n_density) >= 0.0)
    assert np.isfinite(trajectory.n_density[-1])
    assert trajectory.n_density[-1] < 2.0


def test_homogeneous_samples_every_step():
    trajectory = run_homogeneous(
        FieldTriple(0.1, 0.0, 0.5), TABLE_PARAMS,
        SolverConfig(t_final=0.01, metrics_every=1),
    )
    assert len(trajectory) == 11
    assert trajectory.times[-1] == pytest.approx(0.01)


@pytest.mark.parametrize("every, kept", [(4, [0, 4, 8, 10]), (5, [0, 5, 10]),
                                         (1000, [0, 10])])
def test_homogeneous_keeps_every_metrics_step_and_the_last(every, kept):
    start = FieldTriple(0.1, 0.0, 0.5)
    config = SolverConfig(t_final=0.01, metrics_every=1)
    full = run_homogeneous(start, TABLE_PARAMS, config)
    sampled = run_homogeneous(
        start, TABLE_PARAMS, replace(config, metrics_every=every)
    )
    assert len(sampled) == len(kept)
    assert sampled.times.tolist() == [config.dt * k for k in kept]
    for name in ("times", "t_density", "n_density", "phi_density"):
        assert np.array_equal(getattr(sampled, name), getattr(full, name)[kept])


def test_homogeneous_overflow_raises_at_its_step():
    with pytest.raises(SolverFailure, match="overflowed at step 1$") as info:
        run_homogeneous(
            FieldTriple(1e308, 0.0, 0.5), TABLE_PARAMS, SolverConfig(t_final=0.01)
        )
    assert info.value.step_index == 1


@pytest.mark.parametrize("t_final", [-1.0, float("nan"), float("inf")])
def test_homogeneous_rejects_bad_horizon(t_final):
    with pytest.raises(InvalidParameterError, match="t_final"):
        config = SolverConfig(t_final=t_final)
        run_homogeneous(FieldTriple(0.1, 0.0, 0.5), TABLE_PARAMS, config)


@pytest.mark.parametrize("name", ["t_density", "n_density", "phi_density"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_homogeneous_rejects_non_finite_initial_state(name, value):
    initial = replace(FieldTriple(0.1, 0.0, 0.5), **{name: value})
    with pytest.raises(InvalidParameterError, match=f"initial {name} must be finite"):
        run_homogeneous(initial, TABLE_PARAMS, SolverConfig(t_final=0.01))


@pytest.mark.parametrize("name", ["dt", "t_final", "snapshot_every"])
def test_solver_config_requires_finite_values(name):
    with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
        SolverConfig(**{name: float("inf")})


@pytest.mark.parametrize(
    "name", ["dt", "cg_max_iterations", "snapshot_every", "metrics_every"]
)
def test_solver_config_rejects_a_value_that_is_not_a_number(name):
    with pytest.raises(InvalidParameterError, match=f"^{name} must be finite, got 'a'$"):
        SolverConfig(**{name: "a"})


@pytest.mark.parametrize("name", ["cg_max_iterations", "snapshot_every", "metrics_every"])
def test_solver_config_requires_integer_counts(name):
    with pytest.raises(InvalidParameterError, match=rf"^{name} must be an integer, got 1\.5$"):
        SolverConfig(**{name: 1.5})


# --- scheme robustness ----------------------------------------------------------

@pytest.mark.slow
def test_time_step_robustness_on_ring_scenario():
    scenario = scenario_ring_width()
    coarse_cfg = replace(scenario.solver, t_final=5.0, metrics_every=10**9)
    fine_cfg = replace(
        scenario.solver, dt=5e-4, t_final=5.0, metrics_every=10**9
    )
    coarse = run(replace(scenario, solver=coarse_cfg))
    fine = run(replace(scenario, solver=fine_cfg))
    gap = np.abs(
        coarse.snapshots[-1].t_field - fine.snapshots[-1].t_field
    ).max()
    assert gap < 1e-3


def test_mirror_symmetry_short_run():
    # axis-symmetric data on the mirrored mesh reproduces the mirrored solution
    n_sub = 16
    scenario = scenario_ring_width()
    scenario = replace(scenario, n_sub=n_sub)
    mesh = scenario.build_mesh()
    mirrored = build_mesh(scenario.bounds, n_sub, diagonal="anti")

    state = scenario.initial_state(mesh)
    state_m = scenario.initial_state(mirrored)

    ix = np.arange(n_sub + 1)
    flip = (np.add.outer((n_sub + 1) * np.arange(n_sub + 1), ix[::-1])).ravel()

    for _ in range(200):
        state = step(state, TABLE_PARAMS, mesh)
        state_m = step(state_m, TABLE_PARAMS, mirrored)
    for field in ("t_field", "n_field", "phi_field"):
        a = getattr(state, field)
        b = getattr(state_m, field)[flip]
        assert np.abs(a - b).max() <= 1e-9
