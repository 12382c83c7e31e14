"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Shared simulation campaigns (the t=25 uniform and zoned sweeps, the 10^4-step
bound run) are computed once per session and reused across criteria.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.

The full-scale smoke run (criterion 13) is opt-in: set GBMSIM_RUN_SMOKE=1.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import gbmsim as g
from circle_oracle import brute_force_radius

pytestmark = pytest.mark.acceptance

TABLE_PARAMS = g.DimensionlessParameters(
    kappa1=55.0, alpha=45.0, beta1=27.5, beta2=2.55, gamma=0.255, delta=2.55
)
RANGES = {
    "kappa1": (10.0, 100.0),
    "alpha": (10.0, 100.0),
    "beta1": (5.0, 50.0),
    "beta2": (0.1, 5.0),
    "gamma": (0.01, 0.5),
    "delta": (0.1, 5.0),
}
COMPARISON_HORIZON = 25.0


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {status} - {detail}")


def check(number: int, passed: bool, detail: str) -> None:
    report(number, passed, detail)
    assert passed, f"criterion {number}: {detail}"


def campaign(preset, names):
    """The preset's run at t_final=25, keyed "default", and a ``sweep_runs``
    over each named rate's range ends, keyed "<name>=<value>"."""
    base = preset()
    base = replace(
        base,
        solver=replace(base.solver, t_final=COMPARISON_HORIZON, metrics_every=250),
    )
    runs = {"default": g.run(base).metrics}
    for name in names:
        for value, result in g.sweep_runs(base, name, RANGES[name]):
            runs[f"{name}={value:g}"] = result.metrics
    return runs


@pytest.fixture(scope="module")
def uniform_runs():
    """Ring-width scenario at t_final=25 for the alpha/kappa1/beta1 grids."""
    return campaign(g.scenario_ring_width, ("alpha", "kappa1", "beta1"))


@pytest.fixture(scope="module")
def zoned_runs():
    """Surface-regularity scenario at t_final=25 for all six parameter grids."""
    return campaign(
        g.scenario_surface_regularity, ("kappa1", "beta1", "gamma", "delta", "beta2")
    )


@pytest.fixture(scope="module")
def bound_run():
    """Criterion 3's run, instrumented step by step for criteria 3 and 4.

    Drives step() directly so the bound and exchange checks are computed in
    the test, not by the solver.
    """
    scenario = g.scenario_ring_width()
    mesh = scenario.build_mesh()
    state = scenario.initial_state(mesh)
    weights = mesh.lumped_weights
    dt = 1e-3
    config = g.SolverConfig(dt=dt)
    n_steps = 10_000

    stats = {
        "min_field": math.inf,
        "max_t": -math.inf,
        "max_phi": -math.inf,
        "min_n_increment": math.inf,
        "max_exchange_residual": 0.0,
    }
    started = time.perf_counter()
    for _ in range(n_steps):
        before = state
        state = g.step(before, scenario.params, mesh, config)

        stats["min_field"] = min(
            stats["min_field"],
            float(state.t_field.min()),
            float(state.n_field.min()),
            float(state.phi_field.min()),
        )
        stats["max_t"] = max(stats["max_t"], float(state.t_field.max()))
        stats["max_phi"] = max(stats["max_phi"], float(state.phi_field.max()))
        stats["min_n_increment"] = min(
            stats["min_n_increment"],
            float((state.n_field - before.n_field).min()),
        )

        p = g.vascular_fraction(before.phi_field, before.t_field)
        lack = np.sqrt(1.0 - p * p)
        transfer = (
            TABLE_PARAMS.alpha * lack * state.t_field
            + TABLE_PARAMS.beta1 * before.n_field * state.t_field
            + TABLE_PARAMS.delta * state.t_field * state.phi_field
            + TABLE_PARAMS.beta2 * before.n_field * state.phi_field
        )
        lhs = float(np.dot(weights, state.n_field - before.n_field))
        rhs = dt * float(np.dot(weights, transfer))
        residual = abs(lhs - rhs) / max(1.0, abs(rhs))
        stats["max_exchange_residual"] = max(
            stats["max_exchange_residual"], residual
        )
    stats["elapsed"] = time.perf_counter() - started
    return stats


def test_criterion_01_kinetics_exchange_identity():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    batches, batch_size = 100, 1000  # 10^5 evaluations in total
    for _ in range(batches):
        params = g.DimensionlessParameters(
            kappa1=rng.uniform(*RANGES["kappa1"]),
            alpha=rng.uniform(*RANGES["alpha"]),
            beta1=rng.uniform(*RANGES["beta1"]),
            beta2=rng.uniform(*RANGES["beta2"]),
            gamma=rng.uniform(*RANGES["gamma"]),
            delta=rng.uniform(*RANGES["delta"]),
        )
        t, n, phi = rng.random((3, batch_size))
        state = g.FieldTriple(t, n, phi)
        p = g.vascular_fraction(phi, t)
        lack = np.sqrt(1.0 - p * p)
        crowd = 1.0 - (t + n + phi)
        target = t * p * crowd + params.gamma * t * lack * phi * crowd
        tumor, necrosis, vasculature = g.reactions(state, params)
        total = tumor + necrosis + vasculature
        worst = max(worst, float(np.abs(total - target).max()))
    elapsed = time.perf_counter() - started
    check(
        1,
        worst <= 1e-12 and elapsed < 5.0,
        f"max residual {worst:.2e} over 1e5 states in {elapsed:.2f}s",
    )


def test_criterion_02_fem_oracle():
    started = time.perf_counter()
    worst_matrix = 0.0
    worst_weights = 0.0
    rng = np.random.default_rng(202)
    for n_sub in (1, 2, 3):
        mesh = g.build_mesh((-1.0, 2.0, 0.5, 2.5), n_sub)
        diffusivity = 1.0 + 4.0 * rng.random(mesh.num_vertices)
        assembled = g.assemble_stiffness(mesh, diffusivity).toarray()

        dense = np.zeros_like(assembled)
        for tri in mesh.triangles:
            coords = mesh.vertices[tri]
            system = np.column_stack([coords, np.ones(3)])
            area = 0.5 * abs(np.linalg.det(system))
            grads = np.array(
                [np.linalg.solve(system, np.eye(3)[i])[:2] for i in range(3)]
            )
            d_mean = diffusivity[tri].mean()
            for i in range(3):
                for j in range(3):
                    dense[tri[i], tri[j]] += d_mean * area * grads[i] @ grads[j]
        worst_matrix = max(worst_matrix, np.abs(assembled - dense).max())
        domain_area = (2.0 - -1.0) * (2.5 - 0.5)
        worst_weights = max(
            worst_weights, abs(mesh.lumped_weights.sum() - domain_area)
        )
    elapsed = time.perf_counter() - started
    check(
        2,
        worst_matrix <= 1e-12 and worst_weights <= 1e-12 and elapsed < 1.0,
        f"stiffness gap {worst_matrix:.2e}, weight-sum gap {worst_weights:.2e} "
        f"in {elapsed:.2f}s",
    )


def test_criterion_03_bound_preservation(bound_run):
    ok = (
        bound_run["min_field"] >= -1e-13
        and bound_run["max_t"] <= 1.0 + 1e-6
        and bound_run["max_phi"] <= 1.0 + 1e-6
        and bound_run["min_n_increment"] >= 0.0
        and bound_run["elapsed"] < 120.0
    )
    check(
        3,
        ok,
        f"min field {bound_run['min_field']:.2e}, max T {bound_run['max_t']:.8f}, "
        f"max Phi {bound_run['max_phi']:.8f}, min dN {bound_run['min_n_increment']:.2e}, "
        f"{bound_run['elapsed']:.0f}s for 10^4 steps",
    )


def test_criterion_04_discrete_exchange_identity(bound_run):
    residual = bound_run["max_exchange_residual"]
    check(4, residual <= 1e-13, f"max per-step exchange residual {residual:.2e}")


def final_sample(series):
    sample = series[-1]
    assert sample.time == pytest.approx(COMPARISON_HORIZON)
    return sample


def test_criterion_05_rq_ordering_at_t25(uniform_runs):
    rq = {
        "alpha=10": final_sample(uniform_runs["alpha=10"]).rq,
        "alpha=45": final_sample(uniform_runs["default"]).rq,
        "alpha=100": final_sample(uniform_runs["alpha=100"]).rq,
    }
    ordered = rq["alpha=100"] < rq["alpha=45"] < rq["alpha=10"]
    check(
        5,
        ordered,
        f"RQ(t=25): alpha=100 -> {rq['alpha=100']:.3e}, alpha=45 -> "
        f"{rq['alpha=45']:.3e}, alpha=10 -> {rq['alpha=10']:.3e} "
        "(known defect: solve_spd's ||rhs||_2 underflows once max|rhs| < "
        "~1e-162 and it then returns exact zeros, which flushes T to 0.0 "
        "before t=25 for all three alpha; even without that flush RQ(25) for "
        "alpha >= 45 lies below the binary64 range, so the strict ordering "
        "needs an extended-range T; see the supplementary test below for the "
        "ordering on the representable range)",
    )


def test_criterion_05_supplementary_ordering_while_representable(uniform_runs):
    """The ordering RQ(100) < RQ(45) < RQ(10) at every sampled time where all
    three quotients are still positive in binary64."""
    a10 = uniform_runs["alpha=10"]
    a45 = uniform_runs["default"]
    a100 = uniform_runs["alpha=100"]
    comparable = 0
    ordered = True
    for s10, s45, s100 in zip(a10[1:], a45[1:], a100[1:]):
        if min(s10.rq, s45.rq, s100.rq) > 0.0:
            comparable += 1
            ordered = ordered and (s100.rq < s45.rq < s10.rq)
    report(
        5,
        ordered and comparable >= 10,
        f"supplementary: strict RQ ordering at all {comparable} sampled times "
        "with representable quotients",
    )
    assert ordered and comparable >= 10


def test_criterion_06_density_orderings(uniform_runs):
    tn = {
        key: final_sample(series).total_tn_density
        for key, series in uniform_runs.items()
    }
    alpha_ok = tn["alpha=10"] > tn["default"] > tn["alpha=100"]
    kappa_ok = tn["kappa1=10"] < tn["default"] < tn["kappa1=100"]
    check(
        6,
        alpha_ok and kappa_ok,
        "int(T+N)(t=25): alpha {10,45,100} -> "
        f"{tn['alpha=10']:.4f} > {tn['default']:.4f} > {tn['alpha=100']:.4f}; "
        "kappa1 {10,55,100} -> "
        f"{tn['kappa1=10']:.4f} < {tn['default']:.4f} < {tn['kappa1=100']:.4f}",
    )


def test_criterion_07_beta1_insensitivity(uniform_runs):
    def rel_spread(values):
        return (max(values) - min(values)) / float(np.mean(values))

    alpha_values = [
        final_sample(uniform_runs[k]).total_tn_density
        for k in ("alpha=10", "default", "alpha=100")
    ]
    beta_values = [
        final_sample(uniform_runs[k]).total_tn_density
        for k in ("beta1=5", "default", "beta1=50")
    ]
    spread_alpha = rel_spread(alpha_values)
    spread_beta = rel_spread(beta_values)
    check(
        7,
        spread_beta <= spread_alpha / 5.0,
        f"relative spread beta1 {spread_beta:.2e} vs alpha/5 "
        f"{spread_alpha / 5.0:.2e}",
    )


def test_criterion_08_sq_orderings(zoned_runs):
    def mean_sq(key):
        values = [s.sq for s in zoned_runs[key]]
        assert all(math.isfinite(v) for v in values)
        return float(np.mean(values))

    sq10 = mean_sq("kappa1=10")
    sq100 = mean_sq("kappa1=100")
    kappa_gap = abs(sq10 - sq100)
    ordering_ok = sq10 > sq100

    gaps = {}
    for name, keys in {
        "beta1": ("beta1=5", "default", "beta1=50"),
        "gamma": ("gamma=0.01", "default", "gamma=0.5"),
        "delta": ("delta=0.1", "default", "delta=5"),
        "beta2": ("beta2=0.1", "default", "beta2=5"),
    }.items():
        values = [mean_sq(k) for k in keys]
        gaps[name] = max(values) - min(values)
    secondary_ok = all(gap <= kappa_gap / 2.0 for gap in gaps.values())

    detail = (
        f"mean SQ kappa1=10 -> {sq10:.4f} > kappa1=100 -> {sq100:.4f} "
        f"(gap {kappa_gap:.4f}); other gaps "
        + ", ".join(f"{k}={v:.4f}" for k, v in gaps.items())
        + f" each <= {kappa_gap / 2.0:.4f}"
    )
    check(8, ordering_ok and secondary_ok, detail)


def reference_explicit_euler(initial, params, dt, t_final):
    """Independent fixed-step explicit integrator for the homogeneous system,
    applying plain forward Euler to the raw reaction terms."""
    t, n, phi = (float(v) for v in (
        initial.t_density, initial.n_density, initial.phi_density
    ))
    alpha, beta1, beta2 = params.alpha, params.beta1, params.beta2
    gamma, delta = params.gamma, params.delta
    for _ in range(int(round(t_final / dt))):
        phi_pos = phi if phi > 0.0 else 0.0
        t_pos = t if t > 0.0 else 0.0
        p = phi_pos / ((phi_pos + 1.0) / 2.0 + t_pos)
        if p > 1.0:
            p = 1.0
        lack = math.sqrt(1.0 - p * p)
        crowd = 1.0 - (t + n + phi)
        f1 = t * p * crowd - alpha * t * lack - beta1 * n * t
        f2 = alpha * t * lack + beta1 * n * t + delta * t * phi + beta2 * n * phi
        f3 = gamma * t * lack * phi * crowd - delta * t * phi - beta2 * n * phi
        t, n, phi = t + dt * f1, n + dt * f2, phi + dt * f3
    return t, n, phi


def test_criterion_09_long_time_decay():
    initial = g.FieldTriple(0.1, 0.1, 0.5)
    # The 10 s budget is the program's: only run_homogeneous is timed.
    started = time.perf_counter()
    trajectory = g.run_homogeneous(
        initial, TABLE_PARAMS, g.SolverConfig(t_final=200.0)
    )
    elapsed = time.perf_counter() - started
    t_end = float(trajectory.t_density[-1])
    phi_end = float(trajectory.phi_density[-1])

    ref_t, ref_n, ref_phi = reference_explicit_euler(
        initial, TABLE_PARAMS, 1e-5, 200.0
    )

    decay_ok = t_end < 1e-4 and phi_end < 1e-4
    ref_decay_ok = ref_t < 1e-4 and ref_phi < 1e-4
    # Relative 1e-3 agreement, floored at the criterion's own 1e-4 scale:
    # both endpoints sit many orders below the threshold, where a bare
    # relative comparison of denormal-range numbers is meaningless.
    agree = (
        abs(t_end - ref_t) <= 1e-3 * max(abs(t_end), abs(ref_t), 1e-4)
        and abs(phi_end - ref_phi) <= 1e-3 * max(abs(phi_end), abs(ref_phi), 1e-4)
    )
    check(
        9,
        decay_ok and ref_decay_ok and agree and elapsed < 10.0,
        f"T(200)={t_end:.2e}, Phi(200)={phi_end:.2e}; explicit dt=1e-5 "
        f"reference T={ref_t:.2e}, Phi={ref_phi:.2e}; run_homogeneous "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_metrics_oracles():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        pts = rng.uniform(-9.0, 9.0, size=(n, 2))
        gap = abs(g.max_radius(pts) - brute_force_radius(pts))
        worst = max(worst, gap)
    circles_ok = worst <= 1e-10

    mesh = g.build_mesh((-9.0, 9.0, -9.0, 9.0), 180)  # cell edge 0.1
    state = g.SimulationState(
        time=0.0,
        t_field=np.zeros(mesh.num_vertices),
        n_field=np.zeros(mesh.num_vertices),
        phi_field=np.zeros(mesh.num_vertices),
    )
    dist = np.linalg.norm(mesh.vertices, axis=1)
    state.t_field[dist <= 4.0] = 1.0
    sq = g.compute_sample(state, mesh).sq
    disc_ok = 0.9 <= sq <= 1.05
    check(
        10,
        circles_ok and disc_ok,
        f"max enclosing-circle gap {worst:.2e} over 200 sets; disc SQ {sq:.4f}",
    )


def test_criterion_11_mirror_symmetry():
    n_sub = 45
    scenario = g.scenario_ring_width()
    mesh = scenario.build_mesh()
    mirrored = g.build_mesh(scenario.bounds, n_sub, diagonal="anti")
    state = scenario.initial_state(mesh)
    state_m = scenario.initial_state(mirrored)

    row = (n_sub + 1) * np.arange(n_sub + 1)
    flip = (row[:, None] + np.arange(n_sub, -1, -1)[None, :]).ravel()

    worst = 0.0
    for _ in range(1000):
        state = g.step(state, scenario.params, mesh)
        state_m = g.step(state_m, scenario.params, mirrored)
    for field in ("t_field", "n_field", "phi_field"):
        gap = np.abs(
            getattr(state, field) - getattr(state_m, field)[flip]
        ).max()
        worst = max(worst, gap)
    check(11, worst <= 1e-9, f"max mirror gap {worst:.2e} after 10^3 steps")


def test_criterion_12_byte_identical_reruns(tmp_path):
    from gbmsim.cli import main

    config = tmp_path / "run.cfg"
    config.write_text("[solver]\nt_final=0.1\nmetrics_every=20\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "metrics.csv").read_bytes()
    bytes_b = (out_b / "metrics.csv").read_bytes()
    check(
        12,
        bytes_a == bytes_b and len(bytes_a) > 0,
        f"metrics.csv byte-identical across reruns ({len(bytes_a)} bytes)",
    )


@pytest.mark.skipif(
    os.environ.get("GBMSIM_RUN_SMOKE") != "1",
    reason="full-scale smoke run is opt-in (GBMSIM_RUN_SMOKE=1); "
    "wall time is documented in the README",
)
def test_criterion_13_full_scale_smoke():
    scenario = g.scenario_ring_width()
    config = replace(
        scenario.solver, t_final=500.0, metrics_every=5000, snapshot_every=100_000
    )
    started = time.perf_counter()
    result = g.run(replace(scenario, solver=config))
    elapsed = time.perf_counter() - started
    check(
        13,
        len(result.bound_violations) == 0,
        f"t_final=500 run: {len(result.bound_violations)} bound violations, "
        f"wall time {elapsed / 60.0:.1f} min",
    )
