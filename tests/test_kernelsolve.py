"""Goursat solver: boundary data, convergence, identities, determinism."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from ensemble_backstep import kernelsolve
from ensemble_backstep.characteristics import (
    trace_crossing_batch,
    trace_edge_batch,
)
from ensemble_backstep.errors import NonconvergenceError
from ensemble_backstep.grid import GridSpec, corner_weights
from ensemble_backstep.kernelsolve import (
    build_backstepping_problem,
    kernel_pde_residual,
    kernel_solution_from_evaluators,
    solve_backstepping_kernels,
    solve_goursat,
)
from ensemble_backstep.model import sample_coefficients, toy_analytic_kernels

SPEC = GridSpec(nx=40, ny=24)


class TestGenericSolver:
    def test_decoupled_problem_copies_diagonal_data(self, pure_transport):
        # with no drive and no inflow gain the scalar unknown stays zero, so
        # the readout only sets the diagonal data -readout/2 = x^2 + y, and
        # the ensemble unknown is that data carried back along the crossing
        # curves
        plant = dataclasses.replace(
            pure_transport, readout=lambda x, y: -2.0 * (x**2 + y))
        res = solve_goursat(build_backstepping_problem(plant, SPEC))
        assert res.iterations == 2
        assert res.final_delta == 0.0
        assert np.all(res.G == 0.0)
        tri = SPEC.tri
        launch = 0.5 * (tri.x_coord + tri.xi_coord)  # unit speeds meet midway
        expected = launch[:, None] ** 2 + SPEC.y_nodes[None, :]
        np.testing.assert_allclose(res.F, expected, atol=1e-8)

    def test_zero_data_converges_immediately(self, pure_transport):
        # the pure-transport plant has zero readout, drive and inflow gain,
        # so every slot of the kernel system is zero
        res = solve_goursat(build_backstepping_problem(pure_transport, SPEC))
        assert res.iterations == 1
        assert res.final_delta == 0.0
        assert np.all(res.F == 0.0)

    def test_increments_decay_superlinearly(self, toy):
        spec = GridSpec(nx=50, ny=40)
        problem = build_backstepping_problem(toy, spec)
        res = solve_goursat(problem, tol=1e-10)
        deltas = np.array(res.deltas)
        assert deltas[-1] < 1e-10
        # strictly decreasing once the couplings have propagated
        assert np.all(np.diff(deltas[2:]) < 0.0)
        # far better than geometric with ratio 1/2 over the tail
        assert deltas[-1] <= deltas[4] * 1e-4

    def test_nonconvergence_carries_final_delta(self, toy):
        problem = build_backstepping_problem(toy, SPEC)
        with pytest.raises(NonconvergenceError) as exc:
            solve_goursat(problem, max_iter=1)
        assert exc.value.final_delta is not None
        assert exc.value.final_delta > 0.0

    def test_ensemble_operator_is_linear(self, toy, rng):
        problem = build_backstepping_problem(toy, SPEC)
        op = problem.apply_ensemble_operator
        tri = SPEC.tri
        f = rng.standard_normal((tri.n_nodes, SPEC.ny))
        g = rng.standard_normal((tri.n_nodes, SPEC.ny))
        combined = op(tri, 2.0 * f + 3.0 * g)
        split = 2.0 * op(tri, f) + 3.0 * op(tri, g)
        scale = max(1.0, float(np.max(np.abs(split))))
        assert np.max(np.abs(combined - split)) <= 1e-10 * scale


class TestBacksteppingKernels:
    def test_diagonal_condition_imposed_exactly(self, toy, kernels_mid):
        sol = kernels_mid
        spec = sol.spec
        tri = spec.tri
        diag = tri.diagonal_flat()
        x = tri.x_coord[diag][:, None]
        y = spec.y_nodes[None, :]
        required = -toy.readout(x, y) / (toy.speed_u(x, y) + toy.speed_v(x))
        assert np.max(np.abs(sol.k[diag] - required)) == 0.0

    def test_edge_condition_residual_tiny(self, toy, kernels_mid):
        sol = kernels_mid
        spec = sol.spec
        tri = spec.tri
        edge = tri.row_start
        y = spec.y_nodes
        weight = toy.inflow_gain(y) * toy.speed_u(np.zeros_like(y), y)
        mu0 = float(toy.speed_v(0.0))
        rhs = (sol.k[edge] * weight) @ spec.y_weights / mu0
        assert np.max(np.abs(sol.ktilde[edge] - rhs)) <= 1e-9

    def test_matches_analytic_kernels(self, kernels_mid):
        sol = kernels_mid
        spec = sol.spec
        k_eval, kt_eval = toy_analytic_kernels()
        exact = kernel_solution_from_evaluators(spec, k_eval, kt_eval)
        interior = (spec.y_nodes > 0.0) & (spec.y_nodes < 1.0)
        scale_k = np.max(np.abs(exact.k[:, interior]))
        rel_k = np.max(np.abs(sol.k[:, interior] - exact.k[:, interior])) / scale_k
        rel_kt = np.max(np.abs(sol.ktilde - exact.ktilde)) / np.max(np.abs(exact.ktilde))
        assert rel_k <= 0.02
        assert rel_kt <= 0.02
        # the y in {0, 1} rows of the ensemble kernel must vanish
        boundary = ~interior
        assert np.max(np.abs(sol.k[:, boundary])) <= 1e-3

    def test_gain_row_slices_actuated_end(self, kernels_mid):
        sol = kernels_mid
        spec = sol.spec
        outlet = spec.tri.row_slice(spec.nx)
        assert np.array_equal(sol.gain_row.k_row, sol.k[outlet])
        assert np.array_equal(sol.gain_row.ktilde_row, sol.ktilde[outlet])

    def test_resolve_is_bitwise_reproducible(self, toy):
        spec = GridSpec(nx=50, ny=40)
        first = solve_backstepping_kernels(toy, spec, tol=1e-10)
        second = solve_backstepping_kernels(toy, spec, tol=1e-10)
        assert np.array_equal(first.k, second.k)
        assert np.array_equal(first.ktilde, second.ktilde)
        assert first.iterations == second.iterations

    def test_pure_transport_has_zero_kernels(self, pure_transport):
        sol = solve_backstepping_kernels(pure_transport, SPEC)
        assert np.all(sol.k == 0.0)
        assert np.all(sol.ktilde == 0.0)
        assert sol.iterations == 1


class TestPdeResidual:
    def test_residual_shrinks_linearly_on_solved_kernels(self, toy):
        values = {}
        for nx in (25, 50):
            spec = GridSpec(nx=nx, ny=60)
            sol = solve_backstepping_kernels(toy, spec, tol=1e-10)
            res_k, res_kt = kernel_pde_residual(sol, toy)
            assert res_k <= 10.0 / nx
            assert res_kt <= 10.0 / nx
            values[nx] = (res_k, res_kt)
        ratio = values[50][0] / values[25][0]
        assert 0.375 <= ratio <= 0.625
        # the scalar equation sits at quadrature noise, far below its bound;
        # it must at least not grow under refinement
        assert values[50][1] <= values[25][1]

    def test_residual_shrinks_linearly_with_x_dependent_speeds(self, toy):
        # non-unit speeds that vary in x, with analytic derivatives; no other
        # solve here has a nonzero scalar decay term -speed_v_dx * ktilde
        plant = dataclasses.replace(
            toy,
            speed_u=lambda x, y: 1.0 + 0.5 * np.asarray(x) + 0.0 * np.asarray(y),
            speed_v=lambda x: 1.0 + 0.5 * np.asarray(x),
            speed_u_dx=lambda x, y: 0.5 + 0.0 * (np.asarray(x) + np.asarray(y)),
            speed_v_dx=lambda x: 0.5 + 0.0 * np.asarray(x))
        values = {}
        for nx in (25, 50):
            sol = solve_backstepping_kernels(plant, GridSpec(nx=nx, ny=30))
            values[nx] = kernel_pde_residual(sol, plant)
        assert values[50][0] <= 0.625 * values[25][0], values
        assert values[50][1] <= 0.625 * values[25][1], values

    def test_analytic_kernels_score_like_truncation(self, toy):
        spec = GridSpec(nx=50, ny=60)
        k_eval, kt_eval = toy_analytic_kernels()
        sol = kernel_solution_from_evaluators(spec, k_eval, kt_eval)
        res_k, res_kt = kernel_pde_residual(sol, toy)
        assert res_k <= 10.0 / spec.nx
        assert res_kt <= 1e-2

    def test_zero_kernels_score_zero(self, pure_transport):
        sol = solve_backstepping_kernels(pure_transport, SPEC)
        res_k, res_kt = kernel_pde_residual(sol, pure_transport)
        assert res_k == 0.0
        assert res_kt == 0.0

    def test_tiny_grid_returns_zero(self, toy):
        spec = GridSpec(nx=3, ny=8)
        k_eval, kt_eval = toy_analytic_kernels()
        sol = kernel_solution_from_evaluators(spec, k_eval, kt_eval)
        assert kernel_pde_residual(sol, toy) == (0.0, 0.0)


def test_curve_sharing_follows_the_sampled_speed(toy, monkeypatch):
    """y-nodes share crossing curves exactly where their sampled speeds agree.

    The toy traces one family; a speed that varies in y traces one per
    y-node; a speed constant in y on [0, 1/2] only traces one family for the
    15 nodes there and one per node above.
    """
    calls = []
    trace = kernelsolve.trace_crossing_batch

    def counting_trace(*args, **kwargs):
        calls.append(1)
        return trace(*args, **kwargs)

    monkeypatch.setattr(kernelsolve, "trace_crossing_batch", counting_trace)
    solve_backstepping_kernels(toy, GridSpec(nx=25, ny=30))
    assert len(calls) == 1

    sloped = dataclasses.replace(
        toy, speed_u=lambda x, y: 1.0 + 0.5 * np.asarray(y) + 0.0 * np.asarray(x))
    kinked = dataclasses.replace(
        toy, speed_u=lambda x, y: (1.0 + np.maximum(0.0, np.asarray(y) - 0.5)
                                   + 0.0 * np.asarray(x)))
    for plant, families in ((sloped, 30), (kinked, 16)):
        residual = {}
        for nx in (25, 50):
            calls.clear()
            sol = solve_backstepping_kernels(plant, GridSpec(nx=nx, ny=30))
            assert len(calls) == families
            residual[nx] = kernel_pde_residual(sol, plant)[0]
        # Curves traced at y = 0 only would leave the residual flat under
        # refinement; the per-group curves make it fall at first order.
        assert residual[50] < 0.8 * residual[25], residual


def _one_shot_operator(spec, bundle):
    """The quadrature operator as one COO matrix over the whole bundle."""
    n_tri = spec.tri.n_nodes
    rows = np.repeat(np.arange(n_tri), np.diff(bundle.offsets))
    idx4, w4 = corner_weights(spec.nx, bundle.sample_x, bundle.sample_xi)
    data = (bundle.weights[:, None] * w4).ravel()
    return sparse.coo_matrix((data, (np.repeat(rows, 4), idx4.ravel())),
                             shape=(n_tri, n_tri)).tocsr()


@pytest.mark.parametrize("plant_name, family", [
    ("toy", "cross"), ("toy", "edge"), ("sloped", "cross")])
def test_row_blocks_equal_one_shot_assembly(toy, plant_name, family):
    """The operator built per triangle row is the one a single COO pass over
    the whole bundle gives, entry for entry, in canonical CSR form."""
    spec = GridSpec(nx=30, ny=8)
    plant = toy if plant_name == "toy" else dataclasses.replace(
        toy, speed_u=lambda x, y: 1.0 + 0.5 * np.asarray(y) + 0.0 * np.asarray(x))
    coeff = sample_coefficients(plant, spec)
    tri = spec.tri
    if family == "cross":
        bundle = trace_crossing_batch(coeff, tri.x_coord, tri.xi_coord,
                                      np.full(tri.n_nodes, 0.75))
    else:
        bundle = trace_edge_batch(coeff, tri.x_coord, tri.xi_coord)
    op = kernelsolve._quadrature_matrix(spec, bundle)
    assert op.shape == (tri.n_nodes, tri.n_nodes)
    assert op.has_canonical_format
    assert np.array_equal(op.toarray(),
                          _one_shot_operator(spec, bundle).toarray())
