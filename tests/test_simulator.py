"""Time stepping, feedback law, state transform, Lyapunov diagnostics."""

import dataclasses

import numpy as np
import pytest

from ensemble_backstep.errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
)
from ensemble_backstep.grid import GridSpec, gregory_weights
from ensemble_backstep.kernelsolve import (
    kernel_solution_from_evaluators,
    solve_backstepping_kernels,
)
from ensemble_backstep.model import (
    sample_coefficients,
    toy_analytic_kernels,
    toy_model,
)
from ensemble_backstep.simulator import (
    EnsembleState,
    control_value,
    default_initial_state,
    ensemble_norm,
    forward_transform,
    inverse_transform,
    joint_norm,
    lyapunov_recipe,
    lyapunov_value,
    scalar_norm,
    simulate,
    simulate_target,
    step_plant,
    step_target,
    transform_operator,
)
from ensemble_backstep.volterra import solve_target_coupling


def _smooth_state(spec, rng, amplitude=1.0):
    """Random low-order smooth fields on the grid."""
    a = rng.uniform(-1.0, 1.0, 3)
    b = rng.uniform(-1.0, 1.0, 3)
    c = rng.uniform(-1.0, 1.0, 3)
    x = spec.x_nodes[:, None]
    y = spec.y_nodes[None, :]
    u = amplitude * (a[0] + a[1] * x + a[2] * np.sin(np.pi * x)) \
        * (b[0] + b[1] * y + b[2] * np.cos(np.pi * y))
    v = amplitude * (c[0] + c[1] * spec.x_nodes
                     + c[2] * np.sin(np.pi * spec.x_nodes))
    return u, v


def _forward(kernels):
    return transform_operator(kernels.spec, kernels.k, kernels.ktilde)


class TestNorms:
    def test_constant_fields(self):
        spec = GridSpec(nx=30, ny=17)
        u = np.ones((31, 17))
        v = np.ones(31)
        assert abs(ensemble_norm(spec, u) - 1.0) <= 1e-12
        assert abs(scalar_norm(spec, v) - 1.0) <= 1e-12
        assert abs(joint_norm(spec, u, v) - np.sqrt(2.0)) <= 1e-12

    def test_linear_scalar_field(self):
        spec = GridSpec(nx=200, ny=5)
        v = spec.x_nodes.copy()
        assert abs(scalar_norm(spec, v) - 1.0 / np.sqrt(3.0)) <= 1e-4

    def test_zero_fields(self):
        spec = GridSpec(nx=10, ny=5)
        assert ensemble_norm(spec, np.zeros((11, 5))) == 0.0
        assert scalar_norm(spec, np.zeros(11)) == 0.0

    def test_overflowed_field_reports_inf_silently(self):
        spec = GridSpec(nx=10, ny=5)
        assert ensemble_norm(spec, np.full((11, 5), 1e300)) == np.inf


class TestPlantStep:
    def test_zero_state_stays_zero(self, toy):
        spec = GridSpec(nx=40, ny=12)
        coeff = sample_coefficients(toy, spec)
        state = EnsembleState(u=np.zeros((41, 12)), v=np.zeros(41), t=0.0)
        new = step_plant(state, coeff, 0.0, spec.dt)
        assert np.all(new.u == 0.0)
        assert np.all(new.v == 0.0)
        assert new.t == spec.dt

    def test_boundary_values_imposed(self, toy, rng):
        spec = GridSpec(nx=40, ny=12)
        coeff = sample_coefficients(toy, spec)
        u, v = _smooth_state(spec, rng)
        new = step_plant(EnsembleState(u=u, v=v, t=0.0), coeff, 0.75, spec.dt)
        assert new.v[-1] == 0.75
        np.testing.assert_allclose(
            new.u[0], coeff.inflow_gain_grid * new.v[0], atol=1e-15)

    def test_cfl_violation_rejected(self, toy):
        spec = GridSpec(nx=100, ny=8, dt=0.05)
        coeff = sample_coefficients(toy, spec)
        state = EnsembleState(u=np.zeros((101, 8)), v=np.zeros(101), t=0.0)
        with pytest.raises(ConfigurationError, match="CFL"):
            step_plant(state, coeff, 0.0, spec.dt)

    def test_divergence_error_carries_time(self, toy):
        spec = GridSpec(nx=20, ny=8)
        coeff = sample_coefficients(toy, spec)
        state = EnsembleState(u=np.full((21, 8), 1e308), v=np.full(21, 1e308),
                              t=0.125)
        with pytest.raises(DivergenceError) as exc:
            step_plant(state, coeff, 0.0, spec.dt)
        assert exc.value.t == 0.125

    def test_pure_transport_moves_pulse_rightward(self, pure_transport):
        spec = GridSpec(nx=200, ny=8, dt=0.004, t_final=0.4)
        pulse = np.exp(-100.0 * (spec.x_nodes - 0.3) ** 2)
        u0 = np.repeat(pulse[:, None], spec.ny, axis=1)
        record = simulate(pure_transport, spec, mode="open", u0=u0,
                          v0=np.zeros(spec.nx + 1),
                          snapshot_times=(spec.t_final,))
        t_snap, final = record.snapshots[0]
        assert abs(t_snap - 0.4) <= 1e-9
        peak = spec.x_nodes[np.argmax(final.u[:, 0])]
        assert abs(peak - 0.7) <= 2.0 * spec.hx
        # upwind transport with zero inflow cannot gain energy
        assert np.all(np.diff(record.u_norms) <= 1e-12)
        assert np.all(record.v_norms == 0.0)


class TestControlValue:
    def test_against_analytic_gain_ensemble_part(self):
        spec = GridSpec(nx=200, ny=120)
        sol = kernel_solution_from_evaluators(spec, *toy_analytic_kernels())
        u = np.broadcast_to(spec.y_nodes * (spec.y_nodes - 1.0),
                            (spec.nx + 1, spec.ny)).copy()
        state = EnsembleState(u=u, v=np.zeros(spec.nx + 1), t=0.0)
        rate = 35.0 / np.pi**2
        expected = (np.pi**2 / 30.0) * (np.exp(rate) - 1.0)
        assert abs(control_value(state, sol) - expected) <= 1e-3 * abs(expected)

    def test_against_analytic_gain_scalar_part(self):
        spec = GridSpec(nx=200, ny=120)
        sol = kernel_solution_from_evaluators(spec, *toy_analytic_kernels())
        state = EnsembleState(u=np.zeros((spec.nx + 1, spec.ny)),
                              v=np.ones(spec.nx + 1), t=0.0)
        expected = 35.0 / (2.0 * np.pi**2)
        assert abs(control_value(state, sol) - expected) <= 1e-12

    def test_linearity(self, kernels_mid, rng):
        spec = kernels_mid.spec
        u1, v1 = _smooth_state(spec, rng)
        u2, v2 = _smooth_state(spec, rng)
        lhs = control_value(
            EnsembleState(u=2.0 * u1 + u2, v=2.0 * v1 + v2, t=0.0), kernels_mid)
        rhs = 2.0 * control_value(EnsembleState(u=u1, v=v1, t=0.0), kernels_mid) \
            + control_value(EnsembleState(u=u2, v=v2, t=0.0), kernels_mid)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestTransforms:
    def test_zero_kernels_leave_state_unchanged(self, rng):
        spec = GridSpec(nx=50, ny=12)
        sol = kernel_solution_from_evaluators(
            spec, lambda x, xi, y: 0.0 * (x + xi + y), lambda x, xi: 0.0 * (x + xi))
        u, v = _smooth_state(spec, rng)
        alpha, beta = forward_transform(EnsembleState(u=u, v=v, t=0.0),
                                        _forward(sol))
        assert np.array_equal(alpha, u)
        np.testing.assert_allclose(beta, v, atol=1e-15)

    def test_inlet_value_is_preserved(self, kernels_mid, rng):
        spec = kernels_mid.spec
        forward = _forward(kernels_mid)
        for _ in range(5):
            u, v = _smooth_state(spec, rng)
            _, beta = forward_transform(EnsembleState(u=u, v=v, t=0.0),
                                        forward)
            assert beta[0] == v[0]

    def test_round_trip_recovers_scalar_field(self, kernels_mid, rng):
        spec = kernels_mid.spec
        transform = _forward(kernels_mid)
        worst = 0.0
        for _ in range(5):
            u, v = _smooth_state(spec, rng)
            alpha, beta = forward_transform(EnsembleState(u=u, v=v, t=0.0),
                                            transform)
            _, v_back = inverse_transform(transform, alpha, beta)
            worst = max(worst, float(np.max(np.abs(v_back - v)))
                        / float(np.max(np.abs(v))))
        assert worst <= 1e-3

    def test_rejects_wrong_shapes(self, kernels_mid):
        spec = kernels_mid.spec
        with pytest.raises(DimensionError):
            forward_transform(
                EnsembleState(u=np.zeros((3, 3)), v=np.zeros(spec.nx + 1),
                              t=0.0), _forward(kernels_mid))


class TestTargetStep:
    def test_zero_state_stays_zero(self, toy, kernels_mid):
        spec = kernels_mid.spec
        coeff = sample_coefficients(toy, spec)
        state = EnsembleState(u=np.zeros((spec.nx + 1, spec.ny)),
                              v=np.zeros(spec.nx + 1), t=0.0)
        new = step_target(state, coeff, _forward(kernels_mid), spec.dt)
        assert np.all(new.u == 0.0)
        assert np.all(new.v == 0.0)

    def test_outlet_is_zero_and_inlet_reflected(self, toy, kernels_mid, rng):
        spec = kernels_mid.spec
        coeff = sample_coefficients(toy, spec)
        u, v = _smooth_state(spec, rng)
        new = step_target(EnsembleState(u=u, v=v, t=0.0),
                          coeff, _forward(kernels_mid), spec.dt)
        assert new.v[-1] == 0.0
        np.testing.assert_allclose(
            new.u[0], coeff.inflow_gain_grid * new.v[0], atol=1e-15)

    def test_one_step_commutes_with_transform(self, toy, rng):
        # advancing the plant then transforming must agree with transforming
        # then advancing the cascade, up to first-order scheme defects that
        # shrink under joint grid/step refinement
        defects = {}
        for nx in (50, 100):
            spec = GridSpec(nx=nx, ny=40, dt=0.2 / nx)
            sol = solve_backstepping_kernels(toy, spec, tol=1e-10)
            coeff = sample_coefficients(toy, spec)
            u, v = _smooth_state(spec, rng)
            state = EnsembleState(u=u, v=v, t=0.0)
            transform = _forward(sol)
            after_plant = step_plant(state, coeff,
                                     control_value(state, sol), spec.dt)
            a_direct, b_direct = forward_transform(after_plant, transform)
            a0, b0 = forward_transform(state, transform)
            after_target = step_target(EnsembleState(u=a0, v=b0, t=0.0),
                                       coeff, transform, spec.dt)
            defect = joint_norm(spec, a_direct - after_target.u,
                                b_direct - after_target.v)
            assert defect <= 8.0 * spec.dt
            defects[nx] = defect
        assert defects[100] <= 0.6 * defects[50]


def _full_rank_plant():
    """The toy with a Gaussian exchange, a y-dependent speed and a drive that
    is not separable, so every kernel the cascade applies has y-rank > 1."""
    return dataclasses.replace(
        toy_model(), name="full-rank",
        speed_u=lambda x, y: 1.0 + 0.5 * y + 0.0 * x,
        exchange=lambda x, y, eta: x * np.exp(-(y - eta) ** 2),
        drive=lambda x, y: (x * (x + 1.0) * (y - 0.5) * np.exp(x)
                            + 0.5 * np.sin(np.pi * x * y)))


@pytest.fixture(scope="module", params=["toy", "full-rank"])
def operator_case(request):
    """Solved kernels of a small plant and the resolvent of its ktilde."""
    plant = toy_model() if request.param == "toy" else _full_rank_plant()
    spec = GridSpec(nx=40, ny=16, dt=0.01)
    coeff = sample_coefficients(plant, spec)
    sol = solve_backstepping_kernels(plant, spec, tol=1e-10)
    return request.param, coeff, sol, solve_target_coupling(spec, sol.ktilde)


def _running_rows(spec):
    """Row i: the Gregory weights of the triangle's row i; row 0 is empty."""
    rows = np.zeros((spec.nx + 1, spec.tri.n_nodes))
    for i in range(1, spec.nx + 1):
        rows[i, spec.tri.row_slice(i)] = gregory_weights(i + 1, spec.hx)
    return rows


def _ref_integral(spec, kernel, scalar_kernel, u, v):
    """Running x-integral by a y-contraction at every triangle node."""
    j = spec.tri.j_index
    inner = (np.einsum("ny,ny->n", kernel, (u * spec.y_weights)[j])
             + scalar_kernel * v[j])
    return _running_rows(spec) @ inner


def _ref_exchange(coeff, u):
    return np.einsum("xyh,h,xh->xy", coeff.exchange_grid,
                     coeff.spec.y_weights, u)


def _ref_transport(coeff, u, v, source_u, source_v, dt):
    """Increments of one upwind step before the boundary values are set."""
    h = coeff.spec.hx
    du = np.zeros_like(u)
    du[1:] = dt * (-coeff.speed_u_grid[1:] * (u[1:] - u[:-1]) / h
                   + source_u[1:])
    dv = np.zeros_like(v)
    dv[:-1] = dt * (coeff.speed_v_grid[:-1] * (v[1:] - v[:-1]) / h
                    + source_v[:-1])
    return du, dv


def _assert_rel_close(got, want, rtol=1e-12):
    scale = float(np.max(np.abs(want)))
    assert scale > 0.0
    err = float(np.max(np.abs(got - want)))
    assert err <= rtol * scale, f"relative error {err / scale:.3e}"


class TestFactoredOperators:
    """Each factored operator against the dense per-node quadrature."""

    def test_ranks(self, operator_case):
        name, coeff, sol, _ = operator_case
        ranks = {"k": _forward(sol).weighted_basis.shape[1],
                 "exchange": coeff.exchange_factor[1].shape[1]}
        if name == "toy":
            assert ranks == {"k": 1, "exchange": 1}
        else:
            assert min(ranks.values()) > 1
            assert max(ranks.values()) <= coeff.spec.ny

    def test_step_target(self, operator_case, rng):
        _, coeff, sol, resolvent = operator_case
        spec = coeff.spec
        alpha, beta = _smooth_state(spec, rng)
        new = step_target(EnsembleState(u=alpha, v=beta, t=0.0),
                          coeff, _forward(sol), spec.dt)
        kappa = coeff.drive_grid[spec.tri.i_index] * resolvent[:, None]
        J = _ref_integral(spec, sol.k, 0.0 * sol.ktilde, alpha, beta)
        bj = beta + J
        coupling = (coeff.drive_grid * J[:, None]
                    + _running_rows(spec) @ (kappa * bj[spec.tri.j_index, None]))
        source = (_ref_exchange(coeff, alpha) + coeff.drive_grid * beta[:, None]
                  + coupling)
        du, dv = _ref_transport(coeff, alpha, beta, source, 0.0 * beta, spec.dt)
        _assert_rel_close((new.u - alpha)[1:], du[1:])
        _assert_rel_close(new.v[:-1], (beta + dv)[:-1])

    def test_step_plant(self, operator_case, rng):
        _, coeff, _, _ = operator_case
        spec = coeff.spec
        u, v = _smooth_state(spec, rng)
        new = step_plant(EnsembleState(u=u, v=v, t=0.0), coeff, 0.0, spec.dt)
        source_u = _ref_exchange(coeff, u) + coeff.drive_grid * v[:, None]
        source_v = (coeff.readout_grid * u) @ spec.y_weights
        du, dv = _ref_transport(coeff, u, v, source_u, source_v, spec.dt)
        _assert_rel_close((new.u - u)[1:], du[1:])
        _assert_rel_close((new.v - v)[:-1], dv[:-1])

    def test_forward_transform(self, operator_case, rng):
        _, coeff, sol, _ = operator_case
        spec = coeff.spec
        u, v = _smooth_state(spec, rng)
        _, beta = forward_transform(EnsembleState(u=u, v=v, t=0.0),
                                    _forward(sol))
        _assert_rel_close(v - beta, _ref_integral(spec, sol.k, sol.ktilde, u, v))

    def test_inverse_transform(self, operator_case, rng):
        # v = (I + L)(beta + J) with L the resolvent of ktilde
        _, coeff, sol, resolvent = operator_case
        spec = coeff.spec
        alpha, beta = _smooth_state(spec, rng)
        _, v = inverse_transform(_forward(sol), alpha, beta)
        bj = beta + _ref_integral(spec, sol.k, 0.0 * sol.ktilde, alpha, beta)
        _assert_rel_close(v, bj + _running_rows(spec)
                          @ (resolvent * bj[spec.tri.j_index]))

    def test_round_trip_on_full_rank_plant(self, rng):
        # criterion 6's tolerance on a plant whose kernels all have y-rank > 1
        plant = _full_rank_plant()
        spec = GridSpec(nx=100, ny=16)
        sol = solve_backstepping_kernels(plant, spec, tol=1e-10)
        transform = _forward(sol)
        worst = 0.0
        for _ in range(5):
            u, v = _smooth_state(spec, rng)
            alpha, beta = forward_transform(EnsembleState(u=u, v=v, t=0.0),
                                            transform)
            _, v_back = inverse_transform(transform, alpha, beta)
            worst = max(worst, scalar_norm(spec, v_back - v)
                        / scalar_norm(spec, v))
        assert worst <= 1e-3


class TestLyapunov:
    def test_closed_form_ensemble_part(self, toy):
        spec = GridSpec(nx=400, ny=40)
        coeff = sample_coefficients(toy, spec)
        alpha = np.ones((spec.nx + 1, spec.ny))
        beta = np.zeros(spec.nx + 1)
        p, delta = 2.0, 0.7
        expected = p * (1.0 - np.exp(-delta)) / delta
        got = lyapunov_value(alpha, beta, coeff, p, delta)
        assert abs(got - expected) <= 1e-5

    def test_closed_form_scalar_part(self, toy):
        spec = GridSpec(nx=50, ny=8)
        coeff = sample_coefficients(toy, spec)
        alpha = np.zeros((spec.nx + 1, spec.ny))
        beta = np.ones(spec.nx + 1)
        got = lyapunov_value(alpha, beta, coeff, 1.0, 1.0)
        assert abs(got - 1.5) <= 1e-12

    def test_rejects_bad_parameters(self, toy):
        spec = GridSpec(nx=10, ny=5)
        coeff = sample_coefficients(toy, spec)
        z = np.zeros((11, 5))
        with pytest.raises(ConfigurationError):
            lyapunov_value(z, np.zeros(11), coeff, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            lyapunov_value(z, np.zeros(11), coeff, 1.0, -2.0)

    def test_recipe_sandwich_on_random_states(self, pure_transport, rng):
        spec = GridSpec(nx=60, ny=16)
        coeff = sample_coefficients(pure_transport, spec)
        sol = solve_backstepping_kernels(pure_transport, spec)
        recipe = lyapunov_recipe(coeff, sol,
                                 solve_target_coupling(spec, sol.ktilde))
        assert recipe.p > 0.0
        assert recipe.delta > 0.0
        assert recipe.m_equiv > 0.0  # nontrivial for uncoupled transport
        assert recipe.M_equiv >= recipe.m_equiv
        for _ in range(20):
            u, v = _smooth_state(spec, rng)
            val = lyapunov_value(u, v, coeff, recipe.p, recipe.delta)
            sq = joint_norm(spec, u, v) ** 2
            assert recipe.m_equiv * sq <= val * (1.0 + 1e-9)
            assert val <= recipe.M_equiv * sq * (1.0 + 1e-9)


class TestSimulate:
    def test_zero_initial_state_stays_quiet(self, toy):
        spec = GridSpec(nx=30, ny=10, dt=0.01, t_final=0.3)
        record = simulate(toy, spec, mode="open",
                          u0=np.zeros((31, 10)), v0=np.zeros(31))
        assert np.all(record.joint_norms == 0.0)
        assert np.all(record.control == 0.0)
        assert record.decay_rate is None

    def test_record_layout(self, toy):
        spec = GridSpec(nx=30, ny=10, dt=0.01, t_final=0.2)
        record = simulate(toy, spec, mode="open")
        assert record.times.shape == (21,)
        assert record.times[0] == 0.0
        assert abs(record.times[-1] - 0.2) <= 1e-12
        assert record.joint_norms.shape == (21,)
        assert record.lyapunov is None
        np.testing.assert_allclose(
            record.joint_norms,
            np.hypot(record.u_norms, record.v_norms), atol=1e-12)

    def test_snapshots_land_on_nearest_step(self, toy):
        spec = GridSpec(nx=30, ny=10, dt=0.01, t_final=0.2)
        record = simulate(toy, spec, mode="open",
                          snapshot_times=(0.052, 0.123, 5.0))
        assert len(record.snapshots) == 3
        taken = [t for t, _ in record.snapshots]
        assert abs(taken[0] - 0.05) <= 1e-9
        assert abs(taken[1] - 0.12) <= 1e-9
        assert abs(taken[2] - 0.2) <= 1e-9  # clamped to the final step
        for _, snap in record.snapshots:
            assert snap.u.shape == (31, 10)
            assert snap.v.shape == (31,)

    def test_rejects_bad_mode_and_missing_kernels(self, toy):
        spec = GridSpec(nx=10, ny=5)
        with pytest.raises(ConfigurationError):
            simulate(toy, spec, mode="sideways")
        with pytest.raises(ConfigurationError):
            simulate(toy, spec, mode="closed")

    def test_closed_loop_records_feedback_and_outlet(self, toy, kernels_mid):
        spec_run = GridSpec(nx=100, ny=60, dt=0.008, t_final=0.1)
        record = simulate(toy, spec_run, kernels=kernels_mid, mode="closed",
                          snapshot_times=(0.0,))
        assert record.control[0] != 0.0
        _, snap0 = record.snapshots[0]
        assert snap0.v[-1] == record.control[0]

    def test_default_initial_state_amplitude(self):
        spec = GridSpec(nx=40, ny=16)
        state = default_initial_state(spec, amplitude=2.0)
        assert abs(np.max(state.v) - 2.0) <= 1e-2
        assert abs(np.max(state.u) - 1.0) <= 1e-2  # (y-1/2) halves it


class TestSimulateTarget:
    def test_lyapunov_decreases_stepwise(self, toy, kernels_mid):
        spec_run = GridSpec(nx=100, ny=60, dt=0.008, t_final=1.5)
        record = simulate_target(toy, spec_run, kernels_mid)
        lyap = record.lyapunov
        assert lyap is not None
        assert np.all(lyap > 0.0)
        growth = lyap[2:] / np.maximum(lyap[1:-1], 1e-300)
        assert np.all(growth <= 1.0 + 1e-3)
        assert lyap[-1] < 1e-6 * lyap[0]

    def test_pure_transport_flushes_completely(self, pure_transport, rng):
        spec = GridSpec(nx=80, ny=20, dt=0.01, t_final=2.0)
        sol = solve_backstepping_kernels(pure_transport, spec)
        u0, v0 = _smooth_state(spec, rng)
        record = simulate_target(pure_transport, spec, sol, u0=u0, v0=v0)
        # after the first step the quadrature end-weight transient is gone
        # and the flush is strictly monotone
        growth = record.lyapunov[2:] / np.maximum(record.lyapunov[1:-1], 1e-300)
        assert np.all(growth <= 1.0 + 1e-12)
        assert record.joint_norms[-1] <= 1e-20
