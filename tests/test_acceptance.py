"""Acceptance suite: the package's release gates, one test per criterion.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single ``criterion N (...): PASS`` line with the measured values
(visible with ``pytest -s``).  The criteria:

1. kernel solver accuracy against the closed-form kernels, with monotone
   grid convergence and a runtime budget;
2. boundary identities of the solved kernel pair (imposed diagonal, inflow
   edge);
3. finite-difference residuals of the kernel equations, halving under grid
   doubling;
4. characteristic-tracer closed forms for constant and affine speeds plus a
   bounded Lipschitz quotient in the ensemble parameter;
5. Volterra resolvent closed form and agreement of the two independent
   routes to the target-system coupling kernel;
6. forward/inverse transform round trip on random smooth states;
7. open-loop growth versus closed-loop decay at default settings, including
   finite-time flushing of the transformed scalar state;
8. step-wise monotonicity of the recipe Lyapunov value with the
   norm-equivalence sandwich;
9. byte-identical CLI outputs across repeated runs and BLAS/OpenMP thread
   settings.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ensemble_backstep.characteristics import (
    trace_crossing_batch,
    trace_edge_batch,
)
from ensemble_backstep.grid import GridSpec
from ensemble_backstep.kernelsolve import (
    kernel_pde_residual,
    kernel_solution_from_evaluators,
    solve_backstepping_kernels,
)
from ensemble_backstep.model import (
    PlantModel,
    sample_coefficients,
    toy_analytic_kernels,
)
from ensemble_backstep.simulator import (
    EnsembleState,
    forward_transform,
    inverse_transform,
    scalar_norm,
    simulate_target,
    transform_operator,
)
from ensemble_backstep.volterra import (
    resolvent,
    solve_target_coupling,
    solve_target_coupling_picard,
    tri_to_matrix,
)


@pytest.fixture(scope="module")
def toy_kernel_sweep(toy):
    """Solved toy kernels at nx in {25, 50, 100}, ny = 60, with wall times."""
    out = {}
    for nx in (25, 50, 100):
        spec = GridSpec(nx=nx, ny=60)
        t0 = time.perf_counter()
        sol = solve_backstepping_kernels(toy, spec, tol=1e-10)
        out[nx] = (sol, time.perf_counter() - t0)
    return out


def _toy_errors(sol):
    """(max relative error on nonzero lines, max absolute error on the
    analytically-zero ensemble boundary lines)."""
    spec = sol.spec
    exact = kernel_solution_from_evaluators(spec, *toy_analytic_kernels())
    interior = slice(1, spec.ny - 1)
    rel_k = np.abs(sol.k[:, interior] - exact.k[:, interior]) \
        / np.abs(exact.k[:, interior])
    rel_kt = np.abs(sol.ktilde - exact.ktilde) / np.abs(exact.ktilde)
    edge_abs = max(float(np.abs(sol.k[:, 0]).max()),
                   float(np.abs(sol.k[:, -1]).max()))
    return max(float(rel_k.max()), float(rel_kt.max())), edge_abs


def _uncoupled_plant(speed_u, speed_v):
    return PlantModel(
        name="acceptance-probe",
        speed_u=speed_u,
        speed_v=speed_v,
        exchange=lambda x, y, e: np.zeros(
            np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(e))),
        drive=lambda x, y: np.zeros(
            np.broadcast_shapes(np.shape(x), np.shape(y))),
        readout=lambda x, y: np.zeros(
            np.broadcast_shapes(np.shape(x), np.shape(y))),
        inflow_gain=lambda y: np.zeros(np.shape(y)),
    )


def _smooth_state(spec, rng):
    a = rng.uniform(-1.0, 1.0, 3)
    b = rng.uniform(-1.0, 1.0, 3)
    c = rng.uniform(-1.0, 1.0, 3)
    xs = spec.x_nodes[:, None]
    ys = spec.y_nodes[None, :]
    u = ((a[0] + a[1] * xs + a[2] * np.sin(np.pi * xs))
         * (b[0] + b[1] * ys + b[2] * np.cos(np.pi * ys)))
    v = (c[0] + c[1] * spec.x_nodes
         + c[2] * np.sin(np.pi * spec.x_nodes))
    return EnsembleState(u=u, v=v, t=0.0)


def test_criterion_1_kernel_accuracy(toy_kernel_sweep):
    errors = {}
    for nx, (sol, _) in toy_kernel_sweep.items():
        errors[nx], edge_abs = _toy_errors(sol)
        assert edge_abs <= 1e-3, f"boundary-line error {edge_abs:.2e} at nx={nx}"
    wall = toy_kernel_sweep[100][1]
    assert errors[100] <= 0.02, f"relative error {errors[100]:.3e} at nx=100"
    assert errors[25] > errors[50] > errors[100], \
        f"errors not monotone: {errors}"
    assert wall <= 60.0, f"nx=100 solve took {wall:.1f} s"
    print(f"criterion 1 (kernel-oracle): PASS — rel err "
          f"{errors[25]:.3e}/{errors[50]:.3e}/{errors[100]:.3e} over "
          f"nx=25/50/100, solve {wall:.2f} s")


def test_criterion_2_boundary_identities(toy):
    spec = GridSpec(nx=100, ny=120)
    sol = solve_backstepping_kernels(toy, spec, tol=1e-10)
    coeff = sample_coefficients(toy, spec)
    xs, ys = spec.x_nodes, spec.y_nodes

    diag = spec.tri.diagonal_flat()
    f_exact = np.asarray(
        -toy.readout(xs[:, None], ys[None, :])
        / (toy.speed_u(xs[:, None], ys[None, :])
           + toy.speed_v(xs)[:, None]), dtype=float)
    diag_res = float(np.abs(sol.k[diag] - f_exact).max())
    assert diag_res == 0.0, f"diagonal data not imposed: {diag_res:.2e}"

    edge_rows = spec.tri.row_start[np.arange(spec.nx + 1)]
    mu0 = float(coeff.speed_v_grid[0])
    gain_vec = coeff.inflow_gain_grid * coeff.speed_u_grid[0]
    edge_integral = (sol.k[edge_rows] * gain_vec) @ spec.y_weights
    edge_res = float(np.abs(mu0 * sol.ktilde[edge_rows]
                            - edge_integral).max())
    assert edge_res <= 1e-6, f"edge identity residual {edge_res:.2e}"
    print(f"criterion 2 (boundary-identities): PASS — diagonal {diag_res:.1e}"
          f" (exact), edge residual {edge_res:.2e}")


def test_criterion_3_equation_residuals(toy, toy_kernel_sweep):
    res = {nx: kernel_pde_residual(sol, toy)
           for nx, (sol, _) in toy_kernel_sweep.items()}
    for nx, (res_ensemble, res_scalar) in res.items():
        bound = 10.0 / nx
        assert res_ensemble <= bound, \
            f"ensemble-equation residual {res_ensemble:.3e} > {bound} at nx={nx}"
        assert res_scalar <= bound, \
            f"scalar-equation residual {res_scalar:.3e} > {bound} at nx={nx}"
    # First-order scheme: the ensemble-equation residual halves (within 25%)
    # on each grid doubling.  The scalar equation's forcing vanishes
    # analytically for this model, so its residual sits at the quadrature
    # noise floor and is only required not to grow.
    r25, r50, r100 = res[25][0], res[50][0], res[100][0]
    for ratio in (r50 / r25, r100 / r50):
        assert 0.375 <= ratio <= 0.625, f"halving violated: ratio {ratio:.3f}"
    assert res[25][1] >= res[50][1] >= res[100][1]
    print(f"criterion 3 (equation-residuals): PASS — ensemble "
          f"{r25:.3e}/{r50:.3e}/{r100:.3e} (ratios {r50/r25:.3f}, "
          f"{r100/r50:.3f}), scalar {res[25][1]:.1e}/{res[50][1]:.1e}/"
          f"{res[100][1]:.1e}")


def test_criterion_4_characteristic_closed_forms(toy, pure_transport, rng):
    spec = GridSpec(nx=100, ny=60)
    worst_cross = 0.0
    worst_edge = 0.0
    for lam, mu, plant in (
            (1.0, 1.0, pure_transport),
            (2.0, 0.5, _uncoupled_plant(
                lambda x, y: 2.0 * np.ones(
                    np.broadcast_shapes(np.shape(x), np.shape(y))),
                lambda x: 0.5 * np.ones(np.shape(x))))):
        x = rng.uniform(0.0, 1.0, 1000)
        xi = x * rng.uniform(0.0, 1.0, 1000)
        y = rng.uniform(0.0, 1.0, 1000)
        cross = trace_crossing_batch(sample_coefficients(plant, spec),
                                     x, xi, y)
        worst_cross = max(worst_cross, float(
            np.abs(cross.s_end - (x - xi) / (lam + mu)).max()))
        edge = trace_edge_batch(sample_coefficients(plant, spec), x, xi)
        worst_edge = max(worst_edge, float(
            np.abs(edge.s_end - xi / mu).max()))
    assert worst_cross <= 1e-8, f"crossing-time error {worst_cross:.2e}"
    assert worst_edge <= 1e-8, f"edge-time error {worst_edge:.2e}"

    affine = _uncoupled_plant(
        lambda x, y: np.ones(np.broadcast_shapes(np.shape(x), np.shape(y))),
        lambda x: 1.0 + np.asarray(x, dtype=float))
    edge = trace_edge_batch(sample_coefficients(affine, spec),
                            [1.0], [0.5], step=1e-4)
    affine_err = abs(float(edge.s_end[0]) - np.log(1.5))
    assert affine_err <= 1e-8, f"affine-speed edge time off by {affine_err:.2e}"

    ys = np.linspace(0.0, 1.0, 50)
    sweep = trace_crossing_batch(sample_coefficients(toy, spec),
                                 np.full(50, 0.82), np.full(50, 0.31), ys)
    quotient = float(np.abs(np.diff(sweep.s_end) / np.diff(ys)).max())
    assert np.isfinite(quotient) and quotient <= 1e-6, \
        f"crossing time not Lipschitz in y: quotient {quotient:.2e}"
    print(f"criterion 4 (characteristic-closed-forms): PASS — crossing "
          f"{worst_cross:.2e}, edge {worst_edge:.2e}, affine {affine_err:.2e},"
          f" Lipschitz quotient {quotient:.2e}")


def test_criterion_5_volterra_routes(toy, spec_default, kernels_default):
    ones = np.ones(spec_default.tri.n_nodes)
    mat = tri_to_matrix(spec_default, resolvent(spec_default, ones).values)
    xs = spec_default.x_nodes
    rows, cols = np.tril_indices(spec_default.nx + 1)
    resolvent_err = float(
        np.abs(mat[rows, cols] - np.exp(xs[rows] - xs[cols])).max())
    assert resolvent_err <= 1e-6, f"resolvent error {resolvent_err:.2e}"

    coeff = sample_coefficients(toy, spec_default)
    coupling = solve_target_coupling(spec_default, kernels_default.ktilde)
    kappa_resolvent = coeff.drive_grid[spec_default.tri.i_index] \
        * coupling[:, None]
    kappa_picard = solve_target_coupling_picard(
        spec_default, coeff.drive_grid, kernels_default.ktilde)
    route_gap = float(np.abs(kappa_resolvent - kappa_picard).max())
    assert route_gap <= 1e-9, f"coupling routes disagree by {route_gap:.2e}"
    print(f"criterion 5 (volterra-routes): PASS — resolvent "
          f"{resolvent_err:.2e}, route gap {route_gap:.2e}")


def test_criterion_6_transform_round_trip(spec_default, kernels_default, rng):
    transform = transform_operator(spec_default, kernels_default.k,
                                   kernels_default.ktilde)
    worst = 0.0
    for _ in range(20):
        state = _smooth_state(spec_default, rng)
        alpha, beta = forward_transform(state, transform)
        _, v_back = inverse_transform(transform, alpha, beta)
        rel = scalar_norm(spec_default, v_back - state.v) \
            / scalar_norm(spec_default, state.v)
        worst = max(worst, rel)
    assert worst <= 1e-3, f"round-trip relative error {worst:.3e}"
    print(f"criterion 6 (transform-round-trip): PASS — worst relative "
          f"error {worst:.3e} over 20 states")


def test_criterion_7_closed_loop_stabilization(spec_default, kernels_default,
                                               kernels_default_timed,
                                               closed_run_default,
                                               open_run_default):
    open_rec, wall_open = open_run_default
    closed_rec, wall_closed = closed_run_default
    wall_total = kernels_default_timed[1] + wall_open + wall_closed

    growth = open_rec.joint_norms[-1] / open_rec.joint_norms[0]
    assert growth >= 10.0, f"open-loop growth only {growth:.2f}"

    final_vs_max = closed_rec.joint_norms[-1] / closed_rec.joint_norms.max()
    assert final_vs_max <= 0.05, f"closed final/max {final_vs_max:.3e}"

    late = closed_rec.times >= 2.0
    slope = np.polyfit(closed_rec.times[late],
                       np.log(closed_rec.joint_norms[late]), 1)[0]
    assert slope < 0.0, f"late-time log-norm slope {slope:.3f} not negative"

    (_, state0), (_, state3) = closed_rec.snapshots
    forward = transform_operator(spec_default, kernels_default.k,
                                 kernels_default.ktilde)
    beta0 = forward_transform(state0, forward)[1]
    beta3 = forward_transform(state3, forward)[1]
    flush = scalar_norm(spec_default, beta3) / scalar_norm(spec_default, beta0)
    assert flush <= 0.05, f"transformed scalar not flushed: {flush:.3e}"

    assert wall_total <= 300.0, f"runtime {wall_total:.1f} s over budget"
    print(f"criterion 7 (closed-loop-stabilization): PASS — open growth "
          f"{growth:.1f}, closed final/max {final_vs_max:.2e}, slope "
          f"{slope:.3f}, flush ratio {flush:.2e}, runtime {wall_total:.1f} s")


def test_criterion_8_lyapunov_monotonicity(toy, spec_default,
                                           kernels_default):
    coeff = sample_coefficients(toy, spec_default)
    record = simulate_target(coeff, spec_default, kernels_default)
    recipe = record.recipe
    assert recipe.p > 0.0 and recipe.delta > 0.0

    lyap = record.lyapunov
    # Monotone up to a 1e-3 step tolerance, checked on every step after the
    # first (the outlet value only takes effect once the first step is done).
    violation = float((lyap[2:] - lyap[1:-1] * (1.0 + 1e-3)).max())
    assert violation <= 0.0, f"Lyapunov step growth violation {violation:.3e}"
    positive = lyap[1:-1] > 0.0
    worst_growth = float((lyap[2:][positive] / lyap[1:-1][positive]).max()) - 1.0

    sq = record.joint_norms ** 2
    assert np.all(recipe.m_equiv * sq <= lyap * (1.0 + 1e-9) + 1e-300), \
        "lower norm-equivalence bound violated"
    assert np.all(lyap <= recipe.M_equiv * sq * (1.0 + 1e-9) + 1e-300), \
        "upper norm-equivalence bound violated"
    print(f"criterion 8 (lyapunov-monotonicity): PASS — worst step growth "
          f"{worst_growth:.3e}, p {recipe.p:.4f}, delta {recipe.delta:.4g}, "
          f"sandwich m {recipe.m_equiv:.3e} / M {recipe.M_equiv:.3e}")


def test_criterion_9_byte_determinism(tmp_path):
    # Importing the package pins these pools to one thread whatever the
    # caller set, so outputs must not depend on the values given here.
    def run(args, out_dir, threads):
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ensemble_backstep.cli", *args,
             "--out", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return out_dir

    sim_args = ["simulate", "--nx", "60", "--ny", "40", "--dt", "0.0125",
                "--t-final", "1.0", "--mode", "closed",
                "--snapshots", "0.5", "--seed", "11"]
    a = run(sim_args, tmp_path / "sim_a", threads=1)
    b = run(sim_args, tmp_path / "sim_b", threads=8)
    ker_args = ["kernels", "--nx", "60", "--ny", "40", "--seed", "11"]
    c = run(ker_args, tmp_path / "ker_a", threads=1)
    d = run(ker_args, tmp_path / "ker_b", threads=8)

    compared = 0
    for first, second, names in (
            (a, b, ("timeseries.csv", "summary.json", "snap_0.5.csv")),
            (c, d, ("kernels.csv", "kernels.json"))):
        for name in names:
            bytes_first = (first / name).read_bytes()
            assert bytes_first, f"{name} is empty"
            assert bytes_first == (second / name).read_bytes(), \
                f"{name} differs between thread settings"
            compared += 1
    print(f"criterion 9 (byte-determinism): PASS — {compared} output files "
          f"byte-identical across thread settings 1 and 8")
