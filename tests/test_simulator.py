"""Time stepping, feedback law, state transform, Lyapunov diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import full_rank_plant, sloped_plant
from ensemble_backstep import simulator
from ensemble_backstep.errors import (
    ConfigurationError,
    DimensionError,
    DivergenceError,
)
from ensemble_backstep.grid import GridSpec, gregory_weights
from ensemble_backstep.kernelsolve import solve_backstepping_kernels
from ensemble_backstep.model import (
    sample_coefficients,
    toy_analytic_kernels,
    toy_model,
)
from ensemble_backstep.simulator import (
    EnsembleState,
    coordinate_step,
    default_initial_state,
    forward_transform,
    inverse_transform,
    lyapunov_recipe,
    scalar_norm,
    simulate,
    simulate_target,
    step_plant,
    step_target,
    transform_operator,
)
from ensemble_backstep.volterra import solve_target_coupling
from oracles import (
    control_value,
    ensemble_norm,
    exchange_grid,
    kernel_solution_from_evaluators,
    lyapunov_value,
)


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


def _plant_step(coeff, state, boundary_v1, dt):
    """One plant step of a full-field state, taken on the coordinates of a
    run that starts from it."""
    step = coordinate_step(coeff, dt, state.u)
    return step.field(step_plant(step.coordinates(state), step, boundary_v1))


def _target_step(coeff, transform, state, dt):
    """One cascade step of a full-field state, taken on the coordinates of a
    run that starts from it."""
    step = coordinate_step(coeff, dt, state.u, transform)
    return step.field(step_target(step.coordinates(state), step))


class TestNorms:
    def test_constant_fields(self):
        spec = GridSpec(nx=30, ny=17)
        u = np.ones((31, 17))
        v = np.ones(31)
        assert abs(ensemble_norm(spec, u) - 1.0) <= 1e-12
        assert abs(scalar_norm(spec, v) - 1.0) <= 1e-12
        assert abs(math.hypot(ensemble_norm(spec, u), scalar_norm(spec, v))
                   - np.sqrt(2.0)) <= 1e-12

    def test_linear_scalar_field(self):
        spec = GridSpec(nx=200, ny=5)
        v = spec.x_nodes.copy()
        assert abs(scalar_norm(spec, v) - 1.0 / np.sqrt(3.0)) <= 1e-4

    def test_zero_fields(self):
        spec = GridSpec(nx=10, ny=5)
        assert ensemble_norm(spec, np.zeros((11, 5))) == 0.0
        assert scalar_norm(spec, np.zeros(11)) == 0.0

    def test_overflowed_field_reports_inf_silently(self):
        # the package's norms, on coordinates, and the full-field oracle
        spec = GridSpec(nx=10, ny=5)
        big = np.full((11, 5), 1e300)
        assert simulator._ensemble_norm(spec, big) == np.inf
        assert scalar_norm(spec, big[:, 0]) == np.inf
        assert ensemble_norm(spec, big) == np.inf


class TestPlantStep:
    def test_zero_state_stays_zero(self, toy):
        spec = GridSpec(nx=40, ny=12)
        coeff = sample_coefficients(toy, spec)
        state = EnsembleState(u=np.zeros((41, 12)), v=np.zeros(41), t=0.0)
        new = _plant_step(coeff, state, 0.0, spec.dt)
        assert np.all(new.u == 0.0)
        assert np.all(new.v == 0.0)
        assert new.t == spec.dt

    def test_boundary_values_imposed(self, toy, rng):
        spec = GridSpec(nx=40, ny=12)
        coeff = sample_coefficients(toy, spec)
        u, v = _smooth_state(spec, rng)
        new = _plant_step(coeff, EnsembleState(u=u, v=v, t=0.0), 0.75, spec.dt)
        assert new.v[-1] == 0.75
        np.testing.assert_allclose(
            new.u[0], coeff.inflow_gain_grid * new.v[0], atol=1e-15)

    def test_cfl_violation_rejected(self, toy):
        spec = GridSpec(nx=100, ny=8, dt=0.05)
        coeff = sample_coefficients(toy, spec)
        # checked once per run, when its step is built
        with pytest.raises(ConfigurationError, match="CFL"):
            coordinate_step(coeff, spec.dt, np.zeros((101, 8)))

    def test_divergence_error_carries_time(self, toy):
        spec = GridSpec(nx=20, ny=8)
        coeff = sample_coefficients(toy, spec)
        state = EnsembleState(u=np.full((21, 8), 1e308), v=np.full(21, 1e308),
                              t=0.125)
        with pytest.raises(DivergenceError) as exc:
            _plant_step(coeff, state, 0.0, spec.dt)
        assert exc.value.t == 0.125

    def test_pure_transport_moves_pulse_rightward(self, pure_transport):
        spec = GridSpec(nx=200, ny=8, dt=0.004, t_final=0.4)
        pulse = np.exp(-100.0 * (spec.x_nodes - 0.3) ** 2)
        u0 = np.repeat(pulse[:, None], spec.ny, axis=1)
        record = simulate(sample_coefficients(pure_transport, spec), spec,
                          u0=u0, v0=np.zeros(spec.nx + 1),
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
                                        transform_operator(sol))
        assert np.array_equal(alpha, u)
        np.testing.assert_allclose(beta, v, atol=1e-15)

    def test_inlet_value_is_preserved(self, kernels_mid, rng):
        spec = kernels_mid.spec
        forward = transform_operator(kernels_mid)
        for _ in range(5):
            u, v = _smooth_state(spec, rng)
            _, beta = forward_transform(EnsembleState(u=u, v=v, t=0.0),
                                        forward)
            assert beta[0] == v[0]

    def test_round_trip_recovers_scalar_field(self, kernels_mid, rng):
        spec = kernels_mid.spec
        transform = transform_operator(kernels_mid)
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
                              t=0.0), transform_operator(kernels_mid))


class TestTargetStep:
    def test_zero_state_stays_zero(self, toy, kernels_mid):
        spec = kernels_mid.spec
        coeff = sample_coefficients(toy, spec)
        state = EnsembleState(u=np.zeros((spec.nx + 1, spec.ny)),
                              v=np.zeros(spec.nx + 1), t=0.0)
        new = _target_step(coeff, transform_operator(kernels_mid), state,
                           spec.dt)
        assert np.all(new.u == 0.0)
        assert np.all(new.v == 0.0)

    def test_outlet_is_zero_and_inlet_reflected(self, toy, kernels_mid, rng):
        spec = kernels_mid.spec
        coeff = sample_coefficients(toy, spec)
        u, v = _smooth_state(spec, rng)
        new = _target_step(coeff, transform_operator(kernels_mid),
                           EnsembleState(u=u, v=v, t=0.0), spec.dt)
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
            transform = transform_operator(sol)
            after_plant = _plant_step(coeff, state, control_value(state, sol),
                                      spec.dt)
            a_direct, b_direct = forward_transform(after_plant, transform)
            a0, b0 = forward_transform(state, transform)
            after_target = _target_step(coeff, transform,
                                        EnsembleState(u=a0, v=b0, t=0.0),
                                        spec.dt)
            defect = math.hypot(ensemble_norm(spec, a_direct - after_target.u),
                                scalar_norm(spec, b_direct - after_target.v))
            assert defect <= 8.0 * spec.dt
            defects[nx] = defect
        assert defects[100] <= 0.6 * defects[50]


@pytest.fixture(scope="module", params=["toy", "full-rank"])
def operator_case(request):
    """Solved kernels of a small plant and the resolvent of its ktilde."""
    plant = toy_model() if request.param == "toy" else full_rank_plant()
    spec = GridSpec(nx=40, ny=16, dt=0.01)
    coeff = sample_coefficients(plant, spec)
    sol = solve_backstepping_kernels(plant, spec, tol=1e-10)
    coupling = solve_target_coupling(spec, sol.ktilde).values
    return request.param, coeff, sol, coupling


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
    return np.einsum("xyh,h,xh->xy", exchange_grid(coeff),
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
        spec = dataclasses.replace(coeff.spec, t_final=coeff.spec.dt)
        ranks = simulate_target(coeff, spec, sol).y_ranks
        if name == "toy":
            assert ranks == {"k": 1, "exchange": 1, "state": 2}
        else:
            assert min(ranks.values()) > 1
            assert max(ranks.values()) <= coeff.spec.ny
            # a y-dependent speed steps every y-node
            assert ranks["state"] == coeff.spec.ny

    def test_step_target(self, operator_case, rng):
        _, coeff, sol, resolvent = operator_case
        spec = coeff.spec
        alpha, beta = _smooth_state(spec, rng)
        new = _target_step(coeff, transform_operator(sol),
                           EnsembleState(u=alpha, v=beta, t=0.0), spec.dt)
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
        new = _plant_step(coeff, EnsembleState(u=u, v=v, t=0.0), 0.0, spec.dt)
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
                                    transform_operator(sol))
        _assert_rel_close(v - beta, _ref_integral(spec, sol.k, sol.ktilde, u, v))

    def test_inverse_transform(self, operator_case, rng):
        # v = (I + L)(beta + J) with L the resolvent of ktilde
        _, coeff, sol, resolvent = operator_case
        spec = coeff.spec
        alpha, beta = _smooth_state(spec, rng)
        _, v = inverse_transform(transform_operator(sol), alpha, beta)
        bj = beta + _ref_integral(spec, sol.k, 0.0 * sol.ktilde, alpha, beta)
        _assert_rel_close(v, bj + _running_rows(spec)
                          @ (resolvent * bj[spec.tri.j_index]))

    def test_round_trip_on_full_rank_plant(self, rng):
        # criterion 6's tolerance on a plant whose kernels all have y-rank > 1
        plant = full_rank_plant()
        spec = GridSpec(nx=100, ny=16)
        sol = solve_backstepping_kernels(plant, spec, tol=1e-10)
        transform = transform_operator(sol)
        worst = 0.0
        for _ in range(5):
            u, v = _smooth_state(spec, rng)
            alpha, beta = forward_transform(EnsembleState(u=u, v=v, t=0.0),
                                            transform)
            _, v_back = inverse_transform(transform, alpha, beta)
            worst = max(worst, scalar_norm(spec, v_back - v)
                        / scalar_norm(spec, v))
        assert worst <= 1e-3


def _ref_step(coeff, state, boundary_v1, dt, transform=None):
    """The full-field upwind step on every (x, y) node, the oracle of the
    coordinate step: the plant, or the cascade of ``transform``, whose drive
    acts on the plant's scalar field."""
    spec = coeff.spec
    u, v = state.u, state.v
    driven = v if transform is None else inverse_transform(transform, u, v)[1]
    source_u = _ref_exchange(coeff, u) + coeff.drive_grid * driven[:, None]
    source_v = (0.0 * v if transform is not None
                else (coeff.readout_grid * u) @ spec.y_weights)
    du, dv = _ref_transport(coeff, u, v, source_u, source_v, dt)
    u_new, v_new = u + du, v + dv
    v_new[-1] = boundary_v1
    u_new[0] = coeff.inflow_gain_grid * v_new[0]
    return EnsembleState(u=u_new, v=v_new, t=state.t + dt)


def _ref_run(coeff, state, n_steps, dt, kernels=None, transform=None):
    """The states and control values of ``n_steps`` reference steps; with
    ``kernels`` the loop is closed, the outlet set to the feedback value at
    the start of each step."""
    out = []
    for n in range(n_steps + 1):
        control = 0.0
        if kernels is not None:
            control = control_value(state, kernels)
            v = state.v.copy()
            v[-1] = control
            state = EnsembleState(u=state.u, v=v, t=state.t)
        out.append((state, control))
        if n < n_steps:
            state = _ref_step(coeff, state, control, dt, transform)
    return out


def _within(got, want, rtol):
    """``got`` agrees with ``want`` to ``rtol`` times the largest ``|want|``
    (exactly where ``want`` is zero throughout)."""
    err = float(np.max(np.abs(got - want)))
    assert err <= rtol * float(np.max(np.abs(want))), f"error {err:.3e}"


class TestCoordinateStep:
    """Runs stepped on coordinates against the full-field step."""

    @pytest.mark.parametrize("mode", ["open", "closed", "target"])
    @pytest.mark.parametrize("initial", ["default", "gaussian"])
    def test_twenty_steps_match_full_field_steps(self, operator_case, mode,
                                                 initial):
        name, coeff, sol, _ = operator_case
        spec = dataclasses.replace(coeff.spec, t_final=20 * coeff.spec.dt)
        plant0 = default_initial_state(spec)
        if initial == "gaussian":
            # a profile constant in y adds a direction to the toy's two
            pulse = np.exp(-((spec.x_nodes - 0.3) / 0.1) ** 2)
            plant0 = EnsembleState(u=np.repeat(pulse[:, None], spec.ny, axis=1),
                                   v=np.zeros(spec.nx + 1), t=0.0)
        times = spec.dt * np.arange(21)
        if mode == "target":
            transform = transform_operator(sol)
            record = simulate_target(coeff, spec, sol, u0=plant0.u, v0=plant0.v,
                                     snapshot_times=times)
            alpha0, beta0 = forward_transform(plant0, transform)
            ref = _ref_run(coeff, EnsembleState(u=alpha0, v=beta0, t=0.0), 20,
                           spec.dt, transform=transform)
        else:
            kernels = sol if mode == "closed" else None
            record = simulate(coeff, spec, kernels=kernels, u0=plant0.u,
                              v0=plant0.v, snapshot_times=times)
            ref = _ref_run(coeff, plant0, 20, spec.dt, kernels=kernels)
        if name == "toy":
            assert record.y_ranks["state"] == (2 if initial == "default" else 3)
        else:
            assert record.y_ranks["state"] == spec.ny
        assert len(record.snapshots) == 21
        for n, ((_, got), (want, _)) in enumerate(zip(record.snapshots, ref)):
            _within(got.u, want.u, 1e-13)
            _within(got.v, want.v, 1e-13)
            norm = math.hypot(ensemble_norm(spec, want.u),
                              scalar_norm(spec, want.v))
            assert abs(record.joint_norms[n] - norm) <= 1e-13 * norm
            if record.lyapunov is not None:
                value = lyapunov_value(want.u, want.v, coeff, record.recipe.p,
                                       record.recipe.delta)
                assert abs(record.lyapunov[n] - value) <= 1e-13 * value
        _within(record.control, np.array([c for _, c in ref]), 1e-13)

    def test_exchange_adds_directions_to_the_basis(self, toy):
        # a Gaussian exchange maps y - 1/2 out of the toy's span: the closure
        # adds its images until the subspace holds them, short of all of y
        plant = dataclasses.replace(
            toy, exchange=lambda x, y, eta: x * np.exp(-4.0 * (y - eta) ** 2))
        spec = GridSpec(nx=40, ny=16, dt=0.01, t_final=0.2)
        coeff = sample_coefficients(plant, spec)
        plant0 = default_initial_state(spec)
        record = simulate(coeff, spec, snapshot_times=spec.dt * np.arange(21))
        assert 2 < record.y_ranks["state"] < spec.ny
        ref = _ref_run(coeff, plant0, 20, spec.dt)
        for (_, got), (want, _) in zip(record.snapshots, ref):
            _within(got.u, want.u, 1e-13)
            _within(got.v, want.v, 1e-13)

    def test_toy_basis_is_the_smallest_closed_subspace(self, toy):
        spec = GridSpec(nx=40, ny=16)
        coeff = sample_coefficients(toy, spec)
        step = coordinate_step(coeff, spec.dt, default_initial_state(spec).u)
        basis, wy = step.basis, spec.y_weights
        # two columns, orthonormal in the y-quadrature ...
        assert basis.shape == (spec.ny, 2)
        np.testing.assert_allclose(basis.T @ (wy[:, None] * basis), np.eye(2),
                                   rtol=0.0, atol=1e-14)
        # ... spanning y - 1/2 (field, drive, exchange) and cos 2 pi y (inflow)
        y = spec.y_nodes
        for profile in (y - 0.5, np.cos(2.0 * np.pi * y)):
            outside = profile - basis @ (basis.T @ (wy * profile))
            assert np.max(np.abs(outside)) <= 1e-14
        assert step.y_ranks == {"state": 2, "exchange": 1}

    @pytest.mark.parametrize("name", ["toy", "gauss", "sloped", "full_rank"])
    def test_factored_exchange_is_the_projected_exchange(self, toy, name):
        # loadings[j] @ directions.T is W.T @ E_j @ W, W the weighted basis,
        # at every x-node: in the toy's two directions, in the Gaussian
        # exchange's closure and on every y-node
        gauss = dataclasses.replace(
            toy, exchange=lambda x, y, eta: x * np.exp(-(y - eta) ** 2))
        plant = {"toy": toy, "gauss": gauss,
                 "sloped": sloped_plant(),
                 "full_rank": full_rank_plant()}[name]
        spec = GridSpec(nx=20, ny=16)
        coeff = sample_coefficients(plant, spec)
        step = coordinate_step(coeff, spec.dt, default_initial_state(spec).u)
        loadings, directions = step.exchange
        w = step.weighted_basis
        want = np.stack([w.T @ coeff.exchange_at(j) @ w
                         for j in range(spec.nx + 1)])
        assert loadings.shape == want.shape[:2] + (directions.shape[1],)
        assert (np.max(np.abs(loadings @ directions.T - want))
                <= 1e-13 * np.max(np.abs(want)))

    def test_speed_varying_in_y_steps_every_node(self, rng):
        spec = GridSpec(nx=20, ny=9)
        coeff = sample_coefficients(full_rank_plant(), spec)
        u, _ = _smooth_state(spec, rng)
        step = coordinate_step(coeff, spec.dt, u)
        # the identity, scaled to be orthonormal in the y-quadrature
        assert np.array_equal(step.basis,
                              np.diag(1.0 / np.sqrt(spec.y_weights)))
        assert step.speed_u.shape == (spec.nx + 1, spec.ny)


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
        # the guard on the weights every Lyapunov series is evaluated with
        with pytest.raises(ConfigurationError, match="p > 0"):
            simulator._lyapunov_weights(coeff, 0.0, 1.0)
        with pytest.raises(ConfigurationError, match="delta > 0"):
            simulator._lyapunov_weights(coeff, 1.0, -2.0)

    def test_recipe_sandwich_on_random_states(self, pure_transport, rng):
        spec = GridSpec(nx=60, ny=16)
        coeff = sample_coefficients(pure_transport, spec)
        sol = solve_backstepping_kernels(pure_transport, spec)
        recipe = lyapunov_recipe(coeff, sol, transform_operator(sol))
        assert recipe.p > 0.0
        assert recipe.delta > 0.0
        assert recipe.m_equiv > 0.0  # nontrivial for uncoupled transport
        assert recipe.M_equiv >= recipe.m_equiv
        for _ in range(20):
            u, v = _smooth_state(spec, rng)
            val = lyapunov_value(u, v, coeff, recipe.p, recipe.delta)
            sq = math.hypot(ensemble_norm(spec, u), scalar_norm(spec, v)) ** 2
            assert recipe.m_equiv * sq <= val * (1.0 + 1e-9)
            assert val <= recipe.M_equiv * sq * (1.0 + 1e-9)


class TestSimulate:
    def test_zero_initial_state_stays_quiet(self, toy):
        spec = GridSpec(nx=30, ny=10, dt=0.01, t_final=0.3)
        record = simulate(sample_coefficients(toy, spec), spec,
                          u0=np.zeros((31, 10)), v0=np.zeros(31))
        assert np.all(record.joint_norms == 0.0)
        assert np.all(record.control == 0.0)
        assert record.decay_rate is None

    def test_record_layout(self, toy):
        spec = GridSpec(nx=30, ny=10, dt=0.01, t_final=0.2)
        record = simulate(sample_coefficients(toy, spec), spec)
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
        # 0.05 and 0.052 round to one step, which is recorded once
        record = simulate(sample_coefficients(toy, spec), spec,
                          snapshot_times=(0.05, 0.052, 0.123, 5.0))
        assert len(record.snapshots) == 3
        taken = [t for t, _ in record.snapshots]
        assert abs(taken[0] - 0.05) <= 1e-9
        assert abs(taken[1] - 0.12) <= 1e-9
        assert abs(taken[2] - 0.2) <= 1e-9  # clamped to the final step
        for _, snap in record.snapshots:
            assert snap.u.shape == (31, 10)
            assert snap.v.shape == (31,)


    def test_coefficients_from_another_grid_are_refused(self, toy):
        # no silent re-sampling: coefficients must match the run's nx and ny
        spec = GridSpec(nx=20, ny=6, dt=0.01, t_final=0.1)
        coeff_run = sample_coefficients(toy, spec)
        kernels = solve_backstepping_kernels(toy, spec)
        for other in (GridSpec(nx=40, ny=6), GridSpec(nx=20, ny=8)):
            coeff = sample_coefficients(toy, other)
            with pytest.raises(DimensionError, match="do not match"):
                simulate(coeff, spec)
            with pytest.raises(DimensionError, match="do not match"):
                simulate_target(coeff, spec, kernels)
            # and kernels must have been solved on them too
            kernels_other = solve_backstepping_kernels(toy, other)
            with pytest.raises(DimensionError, match="kernels solved"):
                simulate(coeff_run, spec, kernels=kernels_other)
            with pytest.raises(DimensionError, match="kernels solved"):
                simulate_target(coeff_run, spec, kernels_other)
        # another time step or horizon on the same nx and ny is accepted
        record = simulate(sample_coefficients(toy, GridSpec(nx=20, ny=6)),
                          spec)
        assert record.times.shape == (11,)

    def test_initial_state_that_is_not_finite_diverges_at_once(self, toy):
        spec = GridSpec(nx=20, ny=6, dt=0.01, t_final=0.05)
        coeff = sample_coefficients(toy, spec)
        kernels = solve_backstepping_kernels(toy, spec)
        u0 = np.zeros((21, 6))
        u0[3, 2] = np.nan
        for run in (lambda: simulate(coeff, spec, u0=u0),
                    lambda: simulate_target(coeff, spec, kernels, u0=u0)):
            with pytest.raises(DivergenceError) as exc:
                run()
            assert exc.value.t == 0.0

    def test_closed_loop_records_feedback_and_outlet(self, toy, kernels_mid):
        spec_run = GridSpec(nx=100, ny=60, dt=0.008, t_final=0.1)
        record = simulate(sample_coefficients(toy, spec_run), spec_run,
                          kernels=kernels_mid, snapshot_times=(0.0,))
        assert record.control[0] != 0.0
        _, snap0 = record.snapshots[0]
        assert snap0.v[-1] == record.control[0]

    def test_default_initial_state_amplitude(self):
        spec = GridSpec(nx=40, ny=16)
        state = default_initial_state(spec, amplitude=2.0)
        assert abs(np.max(state.v) - 2.0) <= 1e-2
        assert abs(np.max(state.u) - 1.0) <= 1e-2  # (y-1/2) halves it


class TestSimulateTarget:
    def test_record_carries_the_recipe_of_its_kernels(self, toy):
        spec = GridSpec(nx=20, ny=6, dt=0.01, t_final=0.1)
        coeff = sample_coefficients(toy, spec)
        kernels = solve_backstepping_kernels(toy, spec)
        record = simulate_target(coeff, spec, kernels)
        expected = lyapunov_recipe(coeff, kernels, transform_operator(kernels))
        for field in dataclasses.fields(expected):
            assert getattr(record.recipe, field.name) == \
                getattr(expected, field.name), field.name
        # the recorded Lyapunov series is evaluated with that recipe
        alpha0, beta0 = forward_transform(default_initial_state(spec),
                                          transform_operator(kernels))
        want = lyapunov_value(alpha0, beta0, coeff, expected.p, expected.delta)
        assert abs(record.lyapunov[0] - want) <= 1e-13 * want
        # plant runs, open and closed, carry no recipe
        for plant_kernels in (None, kernels):
            assert simulate(coeff, spec, kernels=plant_kernels).recipe is None

    def test_lyapunov_decreases_stepwise(self, toy, kernels_mid):
        spec_run = GridSpec(nx=100, ny=60, dt=0.008, t_final=1.5)
        record = simulate_target(sample_coefficients(toy, spec_run), spec_run,
                                 kernels_mid)
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
        record = simulate_target(sample_coefficients(pure_transport, spec),
                                 spec, sol, u0=u0, v0=v0)
        # after the first step the quadrature end-weight transient is gone
        # and the flush is strictly monotone
        growth = record.lyapunov[2:] / np.maximum(record.lyapunov[1:-1], 1e-300)
        assert np.all(growth <= 1.0 + 1e-12)
        assert record.joint_norms[-1] <= 1e-20


@pytest.mark.parametrize("slope", [0.0, 0.5], ids=["toy", "per_y"])
def test_recipe_reads_kernel_norms_from_coordinates(slope, monkeypatch):
    """The recipe's y-norms of k, read from the solver's coordinates, are
    those of the whole k, ``sqrt((k ** 2) @ w_y)``, to 1e-12 relative; so
    are its bounds, p, delta and M_equiv, on the toy (y-rank 1) and on a
    plant whose ensemble speed 1 + y/2 is held per y-node."""
    plant = sloped_plant(slope)
    spec = GridSpec(nx=30, ny=12)
    coeff = sample_coefficients(plant, spec)
    kernels = solve_backstepping_kernels(plant, spec)
    assert kernels.y_rank == (1 if slope == 0.0 else spec.ny)
    transform = transform_operator(kernels)

    def full_k_norms(sol):
        return np.sqrt((sol.k ** 2) @ sol.spec.y_weights)

    want = full_k_norms(kernels)
    got = simulator._kernel_y_norms(kernels)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    recipe = lyapunov_recipe(coeff, kernels, transform)
    monkeypatch.setattr(simulator, "_kernel_y_norms", full_k_norms)
    oracle = lyapunov_recipe(coeff, kernels, transform)
    assert oracle.bounds.keys() == recipe.bounds.keys()
    pairs = [(name, recipe.bounds[name], value)
             for name, value in oracle.bounds.items()]
    pairs += [(name, getattr(recipe, name), getattr(oracle, name))
              for name in ("p", "delta", "M_equiv")]
    for name, got, value in pairs:
        assert abs(got - value) <= 1e-12 * abs(value), name
