"""Goursat solver: boundary data, convergence, identities, determinism."""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from ensemble_backstep import kernelsolve
from ensemble_backstep.characteristics import (
    trace_crossing_batch,
    trace_edge_batch,
)
from ensemble_backstep.errors import DomainError, NonconvergenceError
from ensemble_backstep.grid import GridSpec, corner_weights
from ensemble_backstep.kernelsolve import (
    build_backstepping_problem,
    kernel_pde_residual,
    kernel_solution_from_evaluators,
    solve_backstepping_kernels,
    solve_goursat,
)
from ensemble_backstep.model import (
    sample_coefficients,
    toy_analytic_kernels,
    toy_model,
)

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
        assert np.all(res.ktilde == 0.0)
        tri = SPEC.tri
        launch = 0.5 * (tri.x_coord + tri.xi_coord)  # unit speeds meet midway
        expected = launch[:, None] ** 2 + SPEC.y_nodes[None, :]
        np.testing.assert_allclose(res.k, expected, atol=1e-8)

    def test_zero_data_converges_immediately(self, pure_transport):
        # the pure-transport plant has zero readout, drive and inflow gain,
        # so every slot of the kernel system is zero
        res = solve_goursat(build_backstepping_problem(pure_transport, SPEC))
        assert res.iterations == 1
        assert res.final_delta == 0.0
        assert np.all(res.k == 0.0)

    def test_increments_decay_superlinearly(self, toy):
        spec = GridSpec(nx=50, ny=40)
        problem = build_backstepping_problem(toy, spec)
        res = solve_goursat(problem, tol=1e-10)
        deltas = np.array(res.deltas)
        assert deltas.size == res.iterations
        assert deltas[-1] == res.final_delta < 1e-10
        # strictly decreasing once the couplings have propagated
        assert np.all(np.diff(deltas[2:]) < 0.0)
        # far better than geometric with ratio 1/2 over the tail
        assert deltas[-1] <= deltas[4] * 1e-4

    def test_nonconvergence_carries_final_delta(self, toy):
        problem = build_backstepping_problem(toy, SPEC)
        with pytest.raises(NonconvergenceError) as exc:
            # a tolerance below every increment the sweeps can reach
            solve_goursat(problem, tol=1e-300)
        assert exc.value.final_delta is not None
        assert exc.value.final_delta > 0.0

    @pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
    def test_bad_budget_raises_domain_error(self, pure_transport, tol):
        # a tolerance no increment can fall below, or one every increment
        # falls below, is rejected before the first sweep
        problem = build_backstepping_problem(pure_transport,
                                             GridSpec(nx=8, ny=4))
        with pytest.raises(DomainError):
            solve_goursat(problem, tol=tol)

    def test_ensemble_operator_is_linear(self, toy, rng):
        problem = build_backstepping_problem(toy, SPEC)
        op = problem.apply_ensemble_operator
        tri = SPEC.tri
        f = rng.standard_normal((tri.n_nodes, problem.y_rank))
        g = rng.standard_normal((tri.n_nodes, problem.y_rank))
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


def _reference_plants():
    """Plants whose kernels ``tests/data`` holds as solved before the sweeps
    ran in the y-subspace: the toy (y-rank 1), the toy with a Gaussian
    exchange (rank 11 at ny = 16) and with a degree-2 polynomial exchange
    (rank 3), and a plant with a y-dependent speed (per-y sweeps)."""
    toy = toy_model()
    return {
        "toy": toy,
        "gauss": dataclasses.replace(
            toy, name="toy-gauss",
            exchange=lambda x, y, eta: x * np.exp(-(y - eta) ** 2)),
        "poly": dataclasses.replace(
            toy, name="toy-poly",
            exchange=lambda x, y, eta: x * (1.0 + y * eta + (y * eta) ** 2)),
        "full_rank": dataclasses.replace(
            toy, name="full-rank",
            speed_u=lambda x, y: 1.0 + 0.5 * y + 0.0 * x,
            exchange=lambda x, y, eta: x * np.exp(-(y - eta) ** 2),
            drive=lambda x, y: (x * (x + 1.0) * (y - 0.5) * np.exp(x)
                                + 0.5 * np.sin(np.pi * x * y))),
    }


REFERENCE_KERNELS = os.path.join(os.path.dirname(__file__), "data",
                           "kernels_before_subspace_nx20_ny16.npz")


@pytest.mark.parametrize("name, y_rank", [
    ("toy", 1), ("gauss", 11), ("poly", 3), ("full_rank", 16)])
def test_subspace_solve_matches_per_y_solve(name, y_rank):
    """The subspace sweeps reproduce the kernels the per-y sweeps solved
    (``tests/data``, nx = 20, ny = 16) to rounding."""
    spec = GridSpec(nx=20, ny=16)
    sol = solve_backstepping_kernels(_reference_plants()[name], spec, tol=1e-10)
    assert sol.y_rank == y_rank
    with np.load(REFERENCE_KERNELS) as ref:
        k, ktilde = ref[f"{name}_k"], ref[f"{name}_ktilde"]
    assert np.max(np.abs(sol.k - k)) <= 1e-12 * np.max(np.abs(k))
    assert np.max(np.abs(sol.ktilde - ktilde)) <= 1e-12 * np.max(np.abs(ktilde))


_coefficient = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.lists(_coefficient, min_size=10, max_size=10),
       st.floats(0.1, 8.0))
def test_y_subspace_holds_seeds_and_is_closed(c, width):
    """For a random smooth plant whose speed does not depend on y, the
    sweep basis B holds the diagonal data and the readout rows, and is
    closed under every x-node's map f -> f @ A_j."""
    plant = dataclasses.replace(
        toy_model(), name="random",
        speed_u=lambda x, y: 1.5 + c[0] * np.sin(3.0 * x) / 2.0 + 0.0 * y,
        speed_u_dx=None,
        speed_v=lambda x: 1.0 + 0.25 * c[1] * x ** 2,
        speed_v_dx=None,
        exchange=lambda x, y, eta: (c[2] * x * np.exp(-width * (y - eta) ** 2)
                                    + c[3] * np.cos(np.pi * x * y) * eta
                                    + c[4] * (1.0 + x) * y * eta ** 2),
        drive=lambda x, y: c[5] * np.exp(x * y) + c[6] * y,
        readout=lambda x, y: c[7] * np.sin(2.0 * x + y) + c[8] * x * y ** 3,
        inflow_gain=lambda y: c[9] * np.cos(np.pi * np.asarray(y)))
    spec = GridSpec(nx=8, ny=12)
    coeff = sample_coefficients(plant, spec)
    problem = build_backstepping_problem(plant, spec)
    basis = problem.basis
    # the subspace of a full-rank closure is all of y, held as the identity
    assert basis.shape[1] < spec.ny or np.array_equal(basis, np.eye(spec.ny))
    assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)

    def outside(rows):
        return rows - (rows @ basis) @ basis.T

    seeds = np.vstack([problem.diagonal_data,
                       coeff.readout_grid])
    assert np.max(np.abs(outside(seeds))) <= 1e-12 * max(np.max(np.abs(seeds)),
                                                          1e-300)
    for j in range(spec.nx + 1):
        a_j = (np.diag(coeff.speed_u_dx_grid[j])
               + spec.y_weights[:, None] * coeff.exchange_grid[j])
        images = basis.T @ a_j
        assert (np.linalg.norm(outside(images), 2)
                <= 1e-12 * np.linalg.norm(a_j, 2))
