"""Goursat solver: boundary data, convergence, identities, determinism."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.integrate import quad

from conftest import full_rank_plant, half_x_plant, sloped_plant, ydep_plant
from ensemble_backstep import characteristics, cli, csvtable, kernelsolve
from ensemble_backstep.characteristics import (
    trace_crossing_batch,
    trace_edge_batch,
)
from ensemble_backstep.errors import (DimensionError, DomainError,
                                      NonconvergenceError, NumericError)
from ensemble_backstep.grid import (
    GridSpec,
    corner_weights,
    gregory_weights,
    row_basis,
)
from ensemble_backstep.kernelsolve import (
    KernelSolution,
    build_backstepping_problem,
    kernel_pde_residual,
    solve_backstepping_kernels,
    solve_goursat,
)
from ensemble_backstep.model import (
    pure_transport_model,
    sample_coefficients,
    toy_analytic_kernels,
    toy_model,
)
from ensemble_backstep.simulator import (
    coordinate_step,
    default_initial_state,
    transform_operator,
)
from ensemble_backstep.volterra import tri_to_matrix
from oracles import exchange_grid, kernel_solution_from_evaluators

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

    def test_increments_fall_from_the_predicted_start(self, toy):
        # each row starts from the rows below it (kernelsolve._start), so
        # its first increment is a small part of the kernel (8.7 against a
        # sup of about 300 here), and every sweep contracts by far more
        # than half (0.024)
        spec = GridSpec(nx=50, ny=40)
        problem = build_backstepping_problem(toy, spec)
        res = solve_goursat(problem, tol=1e-10)
        deltas = np.array(res.deltas)
        assert deltas.size == res.iterations
        assert deltas[-1] == res.final_delta < 1e-10
        assert np.all(np.diff(deltas) < 0.0)
        assert res.contraction_ratio <= 0.03
        assert deltas[0] <= 0.05 * np.max(np.abs(res.k))

    def test_nonconvergence_carries_final_delta(self, toy, monkeypatch):
        problem = build_backstepping_problem(toy, SPEC)
        # a sweep budget too small for the tolerance (the toy at nx = 40
        # needs 9 sweeps on its slowest row)
        monkeypatch.setattr(kernelsolve, "MAX_SWEEPS", 3)
        with pytest.raises(NonconvergenceError) as exc:
            solve_goursat(problem, tol=1e-10)
        assert exc.value.final_delta is not None
        assert exc.value.final_delta > 1e-10

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
        rows = range(SPEC.nx + 1)
        f = rng.standard_normal((tri.n_nodes, problem.basis.shape[1]))
        g = rng.standard_normal((tri.n_nodes, problem.basis.shape[1]))
        combined = op(rows, 2.0 * f + 3.0 * g)
        split = 2.0 * op(rows, f) + 3.0 * op(rows, g)
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
        plant = half_x_plant()
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


def _whole_array_residual(sol, model):
    """Both normalized residuals from every interior node at once."""
    spec = sol.spec
    tri = spec.tri
    h = spec.hx
    coeff = sample_coefficients(model, spec)
    f_ij = np.flatnonzero((tri.j_index >= 2) & (tri.j_index <= tri.i_index - 2)
                          & (tri.i_index >= 4))
    iv = tri.i_index[f_ij]
    jv = tri.j_index[f_ij]
    f_im1j = tri.row_start[iv - 1] + jv
    k = sol.k
    kt = sol.ktilde
    k_rows = k[f_ij]
    kx = (k_rows - k[f_im1j]) / h
    kxi = (k[f_ij + 1] - k_rows) / h
    weighted = k_rows * spec.y_weights
    theta_term = np.empty_like(k_rows)
    exchange = exchange_grid(coeff)
    for j in np.unique(jv):
        theta_term[jv == j] = weighted[jv == j] @ exchange[j]
    readout_term = coeff.readout_grid[jv] * kt[f_ij][:, None]
    res_ensemble = (coeff.speed_v_grid[iv][:, None] * kx
                    - coeff.speed_u_grid[jv] * kxi
                    - (coeff.speed_u_dx_grid[jv] * k_rows + theta_term
                       + readout_term))
    ktx = (kt[f_ij] - kt[f_im1j]) / h
    ktxi = (kt[f_ij] - kt[f_ij - 1]) / h
    drive_term = (coeff.drive_grid[jv] * k_rows * spec.y_weights).sum(axis=1)
    res_scalar = (coeff.speed_v_grid[iv] * ktx + coeff.speed_v_grid[jv] * ktxi
                  + coeff.speed_v_dx_grid[jv] * kt[f_ij] - drive_term)
    return (float(np.max(np.abs(res_ensemble))) / max(1.0, float(np.max(np.abs(k)))),
            float(np.max(np.abs(res_scalar))) / max(1.0, float(np.max(np.abs(kt)))))


@pytest.mark.parametrize("plant_name", ["toy", "half_x", "full_rank"])
def test_residual_by_columns_equals_whole_array(toy, plant_name):
    """Visiting the interior one xi-column at a time gives the residuals of
    the whole-array evaluation."""
    plant = {"toy": toy, "half_x": half_x_plant(),
             "full_rank": full_rank_plant()}[plant_name]
    sol = solve_backstepping_kernels(plant, SPEC)
    got = kernel_pde_residual(sol, plant)
    want = _whole_array_residual(sol, plant)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-15 * w


def _kinked_plant(toy):
    """The toy with the ensemble speed ``1 + max(0, y - 1/2)``: constant in
    y on [0, 1/2] only."""
    return dataclasses.replace(
        toy, speed_u=lambda x, y: (1.0 + np.maximum(0.0, np.asarray(y) - 0.5)
                                   + 0.0 * np.asarray(x)))


def _one_node_plant(toy, spec):
    """The toy with an ensemble speed that varies in y at the x-node 1/2
    only: a hat in x, half a cell wide, times y."""
    return dataclasses.replace(
        toy, speed_u=lambda x, y: (
            1.0 + 0.25 * np.asarray(y)
            * np.maximum(0.0, 1.0 - 2.0 * spec.nx * np.abs(np.asarray(x) - 0.5))))


def test_curve_sharing_follows_the_sampled_speed(toy, monkeypatch):
    """y-nodes share crossing curves exactly when the sampled speed does not
    vary in y.

    The toy traces one family; a speed that varies in y, on all of [0, 1]
    or on (1/2, 1] only, traces one per y-node.  Each block traces the steps
    of every family in one call.
    """
    traced = []
    trace = kernelsolve.trace_crossing_batch

    def recording_trace(coeff, xs, xis, ys, stop=0):
        traced.append(np.unique(ys))
        return trace(coeff, xs, xis, ys, stop)

    monkeypatch.setattr(kernelsolve, "trace_crossing_batch", recording_trace)
    spec = GridSpec(nx=25, ny=30)
    blocks = solve_backstepping_kernels(toy, spec).march["blocks"]
    assert len(traced) == blocks
    assert all(np.array_equal(ys, spec.y_nodes[:1]) for ys in traced)

    for plant in (sloped_plant(), _kinked_plant(toy)):
        residual = {}
        for nx in (25, 50):
            traced.clear()
            spec = GridSpec(nx=nx, ny=30)
            sol = solve_backstepping_kernels(plant, spec)
            assert len(traced) == sol.march["blocks"]
            assert all(np.array_equal(ys, spec.y_nodes) for ys in traced)
            residual[nx] = kernel_pde_residual(sol, plant)[0]
        # Curves traced at y = 0 only would leave the residual flat under
        # refinement; the per-y curves make it fall at first order.
        assert residual[50] < 0.8 * residual[25], residual


@pytest.mark.parametrize("name, varies", [
    ("toy", False), ("half_x", False), ("sloped", True), ("kinked", True),
    ("one_node", True)])
def test_one_rule_splits_families_and_steps(toy, name, varies):
    """``speed_u_varies_in_y`` decides both splits: the solver traces one
    crossing family or one per y-node, and the plant step runs in a
    y-subspace or on every y-node (the identity scaled by
    ``1 / sqrt(w_y)``)."""
    spec = GridSpec(nx=20, ny=9)
    plant = {"toy": toy, "half_x": half_x_plant(), "sloped": sloped_plant(),
             "kinked": _kinked_plant(toy),
             "one_node": _one_node_plant(toy, spec)}[name]
    problem = build_backstepping_problem(plant, spec)
    coeff = problem.coeff
    assert coeff.speed_u_varies_in_y is varies
    assert problem.family_y.size == (spec.ny if varies else 1)
    step = coordinate_step(coeff, spec.dt, default_initial_state(spec).u)
    if varies:
        assert np.array_equal(step.basis,
                              np.diag(1.0 / np.sqrt(spec.y_weights)))
    else:
        assert step.basis.shape[1] < spec.ny


def _one_shot_operator(spec, bundle):
    """The quadrature operator as one dense array over the whole bundle,
    point by point: each of a cell segment's three points is interpolated
    alone in the segment's cell (its midpoint's), and its stencil, weighted
    by the point's Simpson weight, is added with ``np.add.at``."""
    n_tri = spec.tri.n_nodes
    row = np.repeat(np.arange(n_tri), np.diff(bundle.offsets))
    dense = np.zeros((n_tri, n_tri))
    for point, share in enumerate((0.25, 1.0, 0.25)):
        # a group of two points, the second with weight 0, is the first
        # point's stencil in the second point's cell
        idx4, w4 = corner_weights(
            spec.nx, bundle.x[[point, 1]], bundle.xi[[point, 1]],
            np.stack([share * bundle.weights, np.zeros(row.size)]))
        np.add.at(dense, (np.repeat(row, 4), idx4.ravel()), w4.ravel())
    return dense


def _whole_curve_operator(spec, bundle):
    """The path quadrature of every curve of ``bundle``, a row each of one
    sparse ``(curves, n_tri)`` matrix: Simpson's rule on every cell segment
    of the bilinear interpolant, its four corner entries
    (:func:`corner_weights` with the Simpson weights), a curve's segments
    in order.  Its entries are as computed, four a segment; a dense form
    sums a curve's shared corners."""
    idx4, w4 = corner_weights(spec.nx, bundle.x, bundle.xi,
                              bundle.simpson_weights())
    return sparse.csr_matrix(
        (w4.ravel(), idx4.ravel(), 4 * bundle.offsets),
        shape=(bundle.offsets.size - 1, spec.tri.n_nodes))


def _family_operator(plant, spec, family, y=0.75):
    """Every node's whole crossing curve (at ``y``) or edge curve, traced,
    and its :func:`_whole_curve_operator`."""
    coeff = sample_coefficients(plant, spec)
    tri = spec.tri
    if family == "cross":
        bundle = trace_crossing_batch(coeff, tri.x_coord, tri.xi_coord,
                                      np.full(tri.n_nodes, y))
    else:
        bundle = trace_edge_batch(coeff, tri.x_coord, tri.xi_coord)
    return _whole_curve_operator(spec, bundle), bundle


@pytest.mark.parametrize("plant_name, family", [
    ("toy", "cross"), ("toy", "edge"), ("sloped", "cross"),
    ("half_x", "cross")])
def test_row_blocks_equal_one_shot_assembly(toy, plant_name, family):
    """The corner stencils built from the segment moments are the Simpson
    sum over the three points of every segment: four corner entries per
    segment, which summed per curve are the point-by-point assembly."""
    spec = GridSpec(nx=30, ny=8)
    plant = {"toy": toy, "sloped": sloped_plant(),
             "half_x": half_x_plant()}[plant_name]
    op, bundle = _family_operator(plant, spec, family)
    assert op.nnz == 4 * bundle.offsets[-1]
    assert (np.max(np.abs(op.toarray() - _one_shot_operator(spec, bundle)))
            <= 1e-14)


@pytest.mark.parametrize("name", ["toy", "half_x", "sloped"])
def test_step_quadrature_reads_rows_below_and_on(toy, name):
    """The march's source quadrature of one-cell steps, crossing and edge,
    from every node at nx = 30: each segment's entries on row i - 1 and on
    row i are its four corner weights (:func:`corner_weights` with its
    Simpson weights), plus on row i - 1 its level times ``[1, -2, 1]``,
    the second difference at its cell (``-sum_k w_k * (b_k * (1 - b_k) -
    1/6) / 2`` from its three points' places ``b_k`` across the cell in xi,
    zero on a diagonal cell or a row i - 1 of fewer than three nodes), to
    1e-15, each stencil's nodes counted from its row's first node.  Row
    i's nodes lie in the row, four entries are computed a segment, and the
    padding is node 0 at weight 0."""
    spec = GridSpec(nx=30, ny=8)
    tri, nx, n = spec.tri, spec.nx, spec.tri.n_nodes
    plant = {"toy": toy, "half_x": half_x_plant(),
             "sloped": sloped_plant()}[name]
    coeff = sample_coefficients(plant, spec)
    i, stop = tri.i_index, np.maximum(tri.i_index - 1, 0)
    for bundle in (trace_crossing_batch(coeff, tri.x_coord, tri.xi_coord,
                                        np.full(n, 0.75), stop),
                   trace_edge_batch(coeff, tri.x_coord, tri.xi_coord, stop)):
        op = kernelsolve._quadrature_matrix(spec, bundle, i, 1,
                                            np.zeros(n, np.int64))
        counts = np.diff(bundle.offsets)
        width = counts.max()
        assert op.nnz == 4 * bundle.offsets[-1]
        assert op.below_nodes.shape == op.below_weights.shape == (n, 3 * width)
        assert op.row_nodes.shape == op.row_weights.shape == (n, 2 * width)
        for nodes, weights, per in ((op.below_nodes, op.below_weights, 3),
                                    (op.row_nodes, op.row_weights, 2)):
            assert nodes.dtype == np.int32
            padding = np.arange(per * width) >= per * counts[:, None]
            assert np.all(nodes[padding] == 0)
            assert np.all(weights[padding] == 0.0)
        assert np.all((op.row_nodes >= 0) & (op.row_nodes <= i[:, None]))

        # Segment by segment: its curve c and its slot q in the curve.
        c = np.repeat(np.arange(n), counts)
        q = np.arange(bundle.offsets[-1]) - bundle.offsets[c]
        simpson = bundle.simpson_weights()
        idx4, w4 = corner_weights(nx, bundle.x, bundle.xi, simpson)
        below = i[c] - 1
        j = np.floor(bundle.xi[1] * nx)
        b = bundle.xi * nx - j
        level = -0.5 * (simpson * (b * (1.0 - b) - 1.0 / 6.0)).sum(axis=0)
        level[(j >= below) | (below < 2)] = 0.0
        # The second difference on row i - 1, about its node 1 on the edge
        # column.
        centre = tri.row_start[below] + np.maximum(
            idx4[:, 0] - tri.row_start[below], 1)
        segments = np.arange(c.size)[:, None]
        want, got = np.zeros((2, c.size, n))
        np.add.at(want, (segments, idx4), w4)
        np.add.at(want, (segments, centre[:, None] + [-1, 0, 1]),
                  level[:, None] * [1.0, -2.0, 1.0])
        slots = (c[:, None], 3 * q[:, None] + np.arange(3))
        np.add.at(got, (segments, op.below_nodes[slots]
                        + tri.row_start[below, None]), op.below_weights[slots])
        slots = (c[:, None], 2 * q[:, None] + np.arange(2))
        np.add.at(got, (segments, op.row_nodes[slots]
                        + tri.row_start[i[c], None]), op.row_weights[slots])
        assert np.max(np.abs(got - want)) <= 1e-15


def _basis_line_integrals(nx, x0, xi0, dx, dxi, s_end):
    """Integral over s in [0, s_end] of every node's basis function along the
    straight path (x0 + dx*s, xi0 + dxi*s), by ``scipy.integrate.quad`` on
    each cell the path crosses, as a dict from flat node index to value.

    The basis function of a node is bilinear in every full cell and linear
    on each half cell that touches the diagonal.
    """
    cuts = [0.0, s_end]
    for speed, start in ((dx, x0), (dxi, xi0)):
        if speed != 0.0:
            lines = np.arange(nx + 1) / nx
            s = (lines - start) / speed
            cuts.extend(s[(s > 0.0) & (s < s_end)])
    cuts = np.unique(cuts)
    out = {}
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        s_mid = 0.5 * (lo + hi)
        ci = min(int((x0 + dx * s_mid) * nx), nx - 1)
        cj = min(int((xi0 + dxi * s_mid) * nx), ci)

        def at(s, corner):
            x, xi = x0 + dx * s, xi0 + dxi * s
            a, b = x * nx - ci, xi * nx - cj
            if cj == ci:
                return {(ci, ci): 1.0 - a, (ci + 1, ci): a - b,
                        (ci + 1, ci + 1): b}.get(corner, 0.0)
            return {(ci, cj): (1 - a) * (1 - b), (ci + 1, cj): a * (1 - b),
                    (ci, cj + 1): (1 - a) * b,
                    (ci + 1, cj + 1): a * b}[corner]

        for corner in ((ci, cj), (ci + 1, cj), (ci, cj + 1), (ci + 1, cj + 1)):
            if cj == ci and corner == (ci, ci + 1):
                continue
            if hi - lo < 1e-9:
                # a sliver where two lines are crossed almost at once
                value = (hi - lo) * at(s_mid, corner)
            else:
                value, _ = quad(at, lo, hi, args=(corner,), epsabs=1e-15,
                                epsrel=1e-12)
            flat = corner[0] * (corner[0] + 1) // 2 + corner[1]
            out[flat] = out.get(flat, 0.0) + value
    return out


def _constant_speeds(toy, lam, mu):
    return dataclasses.replace(
        toy,
        speed_u=lambda x, y: lam + 0.0 * (np.asarray(x) + np.asarray(y)),
        speed_v=lambda x: mu + 0.0 * np.asarray(x),
        speed_u_dx=None, speed_v_dx=None)


@pytest.mark.parametrize("lam, family", [
    (1.0, "cross"), (1.0, "edge"), (2.0, "cross")])
def test_operator_rows_are_line_integrals_of_the_basis(toy, lam, family):
    """On straight characteristics every operator row is the exact line
    integral of each node's basis function: the toy's crossing and edge
    curves through the grid nodes, and crossing curves of the constant
    speeds speed_u = 2, speed_v = 1, which meet the diagonal inside cells."""
    spec = GridSpec(nx=12, ny=4)
    tri = spec.tri
    op, bundle = _family_operator(_constant_speeds(toy, lam, 1.0), spec,
                                  family)
    dense = op.toarray()
    # the event times are exact to the refinement tolerance; the rows
    # integrate up to the traced ones
    np.testing.assert_allclose(
        bundle.s_end, (tri.x_coord - tri.xi_coord) / (lam + 1.0)
        if family == "cross" else tri.xi_coord, atol=1e-10)
    for t in range(tri.n_nodes):
        exact = _basis_line_integrals(
            spec.nx, tri.x_coord[t], tri.xi_coord[t], -1.0,
            lam if family == "cross" else -1.0, bundle.s_end[t])
        want = np.zeros(tri.n_nodes)
        for flat, value in exact.items():
            want[flat] = value
        assert np.max(np.abs(dense[t] - want)) <= 1e-13, t


# Operator nonzeros of the trapezoid-sampling assembly this one replaced,
# at nx = 30: the crossing family at y = 0.75 and the edge family.
_SAMPLED_NNZ = {("toy", "cross"): 10621, ("toy", "edge"): 18649,
                ("sloped", "cross"): 11110, ("sloped", "edge"): 17366,
                ("half_x", "cross"): 10894, ("half_x", "edge"): 20732}


@pytest.mark.parametrize("plant_name, family", sorted(_SAMPLED_NNZ))
def test_operator_nonzeros_no_more_than_sampled(toy, plant_name, family):
    """Segment quadrature reaches no more (curve, node) pairs per family
    than sampling the curves at every trace step stored as nonzeros."""
    plant = {"toy": toy, "sloped": sloped_plant(),
             "half_x": half_x_plant()}[plant_name]
    op, _ = _family_operator(plant, GridSpec(nx=30, ny=8), family)
    curve = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    pairs = np.unique(np.column_stack([curve, op.indices]), axis=0)
    assert len(pairs) <= _SAMPLED_NNZ[plant_name, family]


def _refinement_gap(plant):
    """Relative sup-norm change of k and ktilde from nx = 25 to nx = 50
    (ny = 16), on the nx = 25 nodes."""
    coarse = solve_backstepping_kernels(plant, GridSpec(nx=25, ny=16))
    fine = solve_backstepping_kernels(plant, GridSpec(nx=50, ny=16))
    tri = GridSpec(nx=25, ny=16).tri
    same = GridSpec(nx=50, ny=16).tri.row_start[2 * tri.i_index] + 2 * tri.j_index
    return (np.max(np.abs(coarse.k - fine.k[same])) / np.max(np.abs(fine.k)),
            np.max(np.abs(coarse.ktilde - fine.ktilde[same]))
            / np.max(np.abs(fine.ktilde)))


def test_refinement_gap_no_larger_than_sampled(toy):
    """The nx = 25 -> 50 change of the kernels is no larger than with the
    trapezoid-sampled operators (1.887e-3 for k on speed_u = 1 + y/2, and
    1.666e-4 for k and 1.169e-3 for ktilde on speeds 1 + x/2).  The scalar
    kernel of speed_u = 1 + y/2 is left out: it moves 2.12e-3, against
    2.10e-3 with sampling, and its error against an nx = 320 solution is
    the same to four digits with whole-curve operators and with one-cell
    steps (1.272e-3 at nx = 40, 3.526e-4 at nx = 80);
    :func:`test_error_falls_at_second_order` pins its order."""
    gap_k, _ = _refinement_gap(sloped_plant())
    assert gap_k <= 1.887176e-3
    gap_k, gap_kt = _refinement_gap(half_x_plant())
    assert gap_k <= 1.666297e-4
    assert gap_kt <= 1.168731e-3


@pytest.mark.parametrize("name", ["half_x", "sloped", "full_rank"])
def test_error_falls_at_second_order(name):
    """Against an nx = 160 solve, the error of both kernels on the nodes of
    nx = 20, 40 and 80 (ny = 8) falls by a factor of at most 0.35 per
    halving of the grid: second order, on curved characteristics, one
    family per y-node and a y-rank above 1."""
    plant = {"half_x": half_x_plant, "sloped": sloped_plant,
             "full_rank": full_rank_plant}[name]()
    fine_spec = GridSpec(nx=160, ny=8)
    fine = solve_backstepping_kernels(plant, fine_spec)
    errors = []
    for nx in (20, 40, 80):
        spec = GridSpec(nx=nx, ny=8)
        sol = solve_backstepping_kernels(plant, spec)
        tri, step = spec.tri, 160 // nx
        same = fine_spec.tri.row_start[step * tri.i_index] + step * tri.j_index
        errors.append((
            np.max(np.abs(sol.k - fine.k[same])) / np.max(np.abs(fine.k)),
            np.max(np.abs(sol.ktilde - fine.ktilde[same]))
            / np.max(np.abs(fine.ktilde))))
    ratios = np.array(errors[1:]) / np.array(errors[:-1])
    assert np.all(ratios <= 0.35), (errors, ratios)


def test_steps_refuse_lanes_past_int32():
    """The steps index the lanes of the unknowns with int32 nodes, so a
    grid whose lanes number more than 2**31 is refused before any step is
    laid out: 501501 nodes in 4283 lanes are 445135 too many, in 4282
    lanes they fit."""
    spec = GridSpec(nx=1000, ny=2)
    assert spec.tri.n_nodes * 4282 < 2 ** 31 < spec.tri.n_nodes * 4283
    with pytest.raises(DimensionError, match="int32"):
        kernelsolve._quadrature_matrix(spec, None, np.zeros(0, np.int64),
                                       4283, None)


def _nodes(tri, rows):
    """The flat triangle nodes of a run of rows."""
    return slice(int(tri.row_start[rows.start]),
                 int(tri.row_start[rows.stop - 1]) + rows.stop)


def _join(parts, lanes):
    """Steps given in parts, as (steps, reads) pairs, as one
    ``kernelsolve._Steps`` padded to the widest part, node 0 of its lane at
    weight 0, and their reads joined (None for crossing steps)."""
    width = max(steps.row_nodes.shape[1] // 2 for steps, _ in parts)
    fields = []
    for f, columns in enumerate((4, 4) + (3 * width,) * 2 + (2 * width,) * 2):
        field = []
        for steps, _ in parts:
            a = steps[f]
            padded = np.zeros((a.shape[0], columns), a.dtype)
            padded[:, :a.shape[1]] = a
            if f % 2 == 0:
                lane = (np.arange(a.shape[0]) % lanes)[:, None]
                padded[:, a.shape[1]:] = lane
            field.append(padded)
        fields.append(np.concatenate(field))
    reads = (None if parts[0][1] is None
             else np.concatenate([reads for _, reads in parts]))
    return kernelsolve._Steps(*fields, 0), reads


def _marched_steps(problem):
    """Every block's steps as its rows march them, block by block as the
    solve traces them: each row's shared steps, then its steps near the
    diagonal (:func:`kernelsolve._row_parts`), joined in node order
    (:func:`_join`), as ``(rows, cross, diagonal, edge, (below,
    on_row))``, the diagonal data 0 on shared steps."""
    plans = kernelsolve._plans(problem)
    shared = {family: {} for family in plans}
    near = {family: {} for family in plans}
    for rows in kernelsolve._blocks(plans):
        diagonal = kernelsolve._block_steps(problem, plans, shared, near, rows)
        by_row = list(kernelsolve._row_parts(plans, shared, near, diagonal,
                                             rows))
        cross, _ = _join([part for row in by_row for part in row["crossing"]],
                         plans["crossing"].lanes)
        edge, reads = _join([part for row in by_row for part in row["edge"]],
                            1)
        diagonal = np.concatenate([
            part for row in by_row for part in
            [np.zeros((steps.start_nodes.shape[0], diagonal.shape[1]))
             for steps, _ in row["crossing"][:-1]]
            + [row["diagonal"]]])
        yield rows, cross, diagonal, edge, (reads[:, 0], reads[:, 1])
        kernelsolve._drop_unread(plans, shared, near, rows)


def _curved_per_y_plant():
    """The speed 1 + y/2 with ``speed_v = 1 + x/2``: one crossing family
    per y-node, every x-cell a travel-time profile of its own."""
    return dataclasses.replace(
        sloped_plant(), speed_v=lambda x: 1.0 + 0.5 * np.asarray(x),
        speed_v_dx=lambda x: 0.5 + 0.0 * np.asarray(x))


def _u_x_plant():
    """The toy with ``speed_u = 1 + x/2`` and ``speed_v = 1``: one profile
    of x-cells, and every xi-cell a ``speed_u`` profile of its own."""
    return dataclasses.replace(
        toy_model(),
        speed_u=lambda x, y: 1.0 + 0.5 * np.asarray(x) + 0.0 * np.asarray(y),
        speed_u_dx=lambda x, y: 0.5 + 0.0 * (np.asarray(x) + np.asarray(y)))


def _own_steps(problem, family, i, columns):
    """The steps of ``family`` from the nodes of row i at ``columns``, with
    their lanes, traced from row i itself (``trace_crossing_batch`` or
    ``trace_edge_batch``) and laid out (``_quadrature_matrix``), and their
    bundle."""
    spec, coeff, family_y = problem.spec, problem.coeff, problem.family_y
    x = spec.x_nodes
    lanes = family_y.size if family == "crossing" else 1
    column = np.repeat(columns, lanes)
    lane = np.tile(np.arange(lanes), columns.size)
    if family == "crossing":
        bundle = trace_crossing_batch(coeff, np.full(column.size, x[i]),
                                      x[column], family_y[lane], max(i - 1, 0))
    else:
        bundle = trace_edge_batch(coeff, np.full(column.size, x[i]),
                                  x[column], max(i - 1, 0))
    return bundle, kernelsolve._quadrature_matrix(
        spec, bundle, np.full(column.size, i), lanes, lane)


def _assert_steps_agree(got, want, counts, pad, tol, start_tol):
    """``got`` holds the steps ``want``, of ``counts`` segments, to the
    bit in their segments' stencil nodes and their start nodes, padded
    past them with the nodes ``pad`` at weight 0; their start weights
    within ``start_tol`` and their corner weights within ``tol`` of the
    largest weight."""
    for f, per in enumerate((4, 4, 3, 3, 2, 2)):
        width = got[f].shape[1]
        used = (np.arange(width) < per * counts[:, None] if f > 1
                else np.ones((counts.size, width), bool))
        if f % 2 == 0:
            want_f = np.zeros(got[f].shape, want[f].dtype)
            want_f[:, :want[f].shape[1]] = want[f]
            assert np.array_equal(got[f], np.where(used, want_f, pad[:, None]))
            continue
        assert np.all(got[f][~used] == 0.0)
        bound = start_tol if f == 1 else tol
        scale = np.max(np.abs(want[f]), initial=0.0)
        assert np.max(np.abs(got[f][:, :want[f].shape[1]] - want[f]),
                      initial=0.0) <= bound * scale


@pytest.mark.parametrize("name", ["toy", "pure_transport", "sloped",
                                  "half_x", "curved", "u_x", "ydep"])
def test_shared_steps_are_the_rows_own(name):
    """Every shared step a row reads (:class:`kernelsolve._Plan`), crossing
    and edge, is the step traced from that row itself (:func:`_own_steps`):
    the same segments, stencil nodes and start weights, to the bit, and
    corner weights within the rounding of where the x-component lies in its
    cell, 8 * nx ulps of the largest weight (a position's ulp, scaled by nx
    into the cell's coordinates).  So is every step it reads near the
    diagonal, moved along the diagonal from the row that traced it, to
    rounding: the same segments and stencil nodes, its start and corner
    weights within 8 * nx ulps, and the data it carries from the diagonal
    that of its own launch, to 8 * nx ulps of the sup of the diagonal
    rows.  A step that ends on the corner (x_{i-1}, x_{i-1}), where the
    diagonal data and the row below's last node agree, may end at the
    diagonal in one row's own trace and on the line in another's, as the
    crossing step from (i, i - 2) at y = 0 does in rows 50 and 90 of the
    per-y plant at nx=100, ny=60: every row reads the one decision of the
    row that traced it, carrying the diagonal data at its own launch, the
    corner, or reading the row below's last node alone.
    On the toy, pure transport, speed_u = 1 + y/2 (at nx=24 and at
    nx=100, ny=60, the bench's plant) and speed_u = 1 + x/2, whose speed_v
    is constant, every row from the fifth on reads shared steps, and,
    where its steps near the diagonal move through xi-cells of one
    profile, all but the crossing steps of speed_u = 1 + x/2, reads them
    moved; where speed_v varies in x (half_x; speed_v = 1 + x/2 with one
    family per y-node), every cell is a profile of its own and no row
    reads a step another row traced."""
    plant = {"toy": toy_model(), "pure_transport": pure_transport_model(),
             "sloped": sloped_plant(), "half_x": half_x_plant(),
             "curved": _curved_per_y_plant(), "u_x": _u_x_plant(),
             "ydep": ydep_plant()}[name]
    spec = GridSpec(nx=100, ny=60) if name == "ydep" else GridSpec(nx=24, ny=5)
    problem = build_backstepping_problem(plant, spec)
    x, model = spec.x_nodes, problem.coeff.model
    both = {"crossing", "edge"}
    moves = {"toy": both, "pure_transport": both, "sloped": both,
             "ydep": both, "u_x": {"edge"}}.get(name, set())
    plans = kernelsolve._plans(problem)
    shared = {family: {} for family in plans}
    near = {family: {} for family in plans}
    one_profile = name not in ("half_x", "curved")
    assert np.unique(plans["edge"].profile[1:]).size == (
        1 if one_profile else spec.nx)
    tol = 8 * spec.nx * np.finfo(float).eps
    scale = np.max(np.abs(problem.diagonal_rows))
    read, moved, ties = 0, 0, 0
    for rows in kernelsolve._blocks(plans):
        diagonal = kernelsolve._block_steps(problem, plans, shared, near, rows)
        for i, parts in zip(rows, kernelsolve._row_parts(plans, shared, near,
                                                         diagonal, rows)):
            for family, plan in plans.items():
                a, lanes = int(plan.shared[i]), plan.lanes
                source = int(plan.source[i])
                assert len(parts[family]) == 1 + (a > 0)
                if not one_profile:
                    # a profile of its own: its shared steps are the row's
                    assert plan.first[i] == 0
                if i >= 5:
                    assert (a > 0) == one_profile
                    assert (source < i) == (family in moves)
                    # one row traces them for all that read them
                    assert source in (i, plan.source[5])
                # near the diagonal: columns a to i
                bundle, want = _own_steps(problem, family, i,
                                          np.arange(a, i + 1))
                got, got_reads = parts[family][-1]
                table = near[family][source]
                n = (i + 1 - a) * lanes
                counts = np.diff(bundle.offsets)
                assert np.array_equal(np.diff(table.segments[-n - 1:]), counts)
                lane = np.arange(n) % lanes
                # the moved steps that reach the diagonal, where their own
                # would reach the line or the reverse (an edge step that
                # reaches the edge is never moved)
                launch = (x[i] + table.launch[-n:] if family == "crossing"
                          else bundle.launch)
                event = ~np.isnan(launch)
                tie = event != ~np.isnan(bundle.launch)
                _assert_steps_agree(got.rows(~tie, 0), want.rows(~tie, 0),
                                    counts[~tie], (i - source) * lanes
                                    + lane[~tie], tol, tol)
                if family == "edge":
                    _assert_edge_reads(got_reads, bundle, spec, i)
                else:
                    assert got_reads is None
                if tie.any():
                    ties += int(np.count_nonzero(tie))
                    assert np.allclose(bundle.end_xi[tie], x[i - 1], rtol=0,
                                       atol=tol)
                    assert np.allclose(launch[tie & event], x[i - 1], rtol=0,
                                       atol=tol)
                    line = tie & ~event
                    on_last = got.start_nodes[line] // lanes == i - 1
                    assert np.all(np.abs(got.start_weights[line] - on_last)
                                  <= tol)
                if family == "crossing":
                    # the data of a step that reaches the diagonal, at its
                    # own launch (the corner if it ends there)
                    at = np.where(tie, x[i - 1], bundle.launch)[event]
                    if problem.family_y.size == 1:
                        data = kernelsolve._diagonal_coords(
                            problem, kernelsolve._diagonal_data(
                                model, at[:, None], spec.y_nodes), rows)
                    else:
                        data = kernelsolve._diagonal_data(
                            model, at, problem.family_y[lane[event]])[:, None]
                    assert np.all(parts["diagonal"][~event] == 0.0)
                    assert np.max(np.abs(parts["diagonal"][event] - data),
                                  initial=0.0) <= tol * scale
                moved += (i - source) * n
                if a == 0:
                    continue
                # the shared steps: columns 0 to a - 1
                got, got_reads = parts[family][0]
                bundle, want = _own_steps(problem, family, i, np.arange(a))
                counts = np.diff(bundle.offsets)
                assert np.array_equal(
                    np.diff(shared[family][plan.profile[i]].segments[
                        :a * lanes + 1]), counts)
                _assert_steps_agree(got, want, counts,
                                    np.arange(a * lanes) % lanes, tol, 0.0)
                if family == "edge":
                    _assert_edge_reads(got_reads, bundle, spec, i)
                read += a * lanes
        kernelsolve._drop_unread(plans, shared, near, rows)
    assert (read > 0) == one_profile
    assert (moved > 0) == bool(moves)
    assert (ties > 0) == (name == "ydep")


def _assert_edge_reads(reads, bundle, spec, i):
    """``reads`` are the weights by which the edge steps of ``bundle``,
    from row i, that reach the edge read it from the x-lines i - 1 and i,
    within 8 * nx ulps, summing to 1 exactly where a step reaches the edge
    and 0 elsewhere."""
    event = ~np.isnan(bundle.launch)
    upper = np.where(event, np.clip(np.nan_to_num(bundle.launch) * spec.nx
                                    - (i - 1), 0.0, 1.0), 0.0)
    assert np.allclose(reads[:, 1], upper, rtol=0,
                       atol=8 * spec.nx * np.finfo(float).eps)
    assert np.array_equal(reads.sum(axis=1) == 1.0, event)
    assert np.all(reads[~event] == 0.0)


def _gather_by_columns(field, nodes, weights):
    """A gather of step-major ``(m, K)`` stencils one column at a time: a
    fancy index, a product and a sum for each of the K columns, from
    +0.0."""
    if field.ndim > 1:
        weights = weights[..., None]
    out = np.zeros((nodes.shape[0],) + field.shape[1:])
    for k in range(nodes.shape[1]):
        out += field[nodes[:, k]] * weights[:, k]
    return out


@pytest.mark.parametrize("trailing", [(), (1,), (3,)])
@pytest.mark.parametrize("width", [0, 1, 6])
def test_gather_sums_each_stencil_in_order(trailing, width, rng):
    """One gather of a whole stencil, held stencil-major, gives the bits of
    a sum one stencil column at a time, the signs of zeros included, on an
    ``(N,)`` field, ``(N, 1)`` lanes and ``(N, 3)`` coordinates: negative
    values with zero-weight padding (node 0 at weight 0, as the march pads,
    each such term -0.0), steps whose every term is -0.0, which sum to
    +0.0, and a stencil of no columns, which gathers +0.0."""
    size, m = 11, 40
    field = -rng.uniform(0.5, 1.0, (size,) + trailing)
    field[3] = -0.0
    nodes = rng.integers(0, size, (m, width)).astype(np.int32)
    weights = rng.standard_normal((m, width))
    padding = np.arange(width) >= rng.integers(0, width + 1, m)[:, None]
    nodes[padding] = 0
    weights[padding] = 0.0
    # The first five steps read node 3, -0.0, at weights of one sign.
    nodes[:5] = 3
    weights[:5] = np.abs(weights[:5])
    got = kernelsolve._gather(field, nodes.T.astype(np.intp), weights.T)
    want = _gather_by_columns(field, nodes, weights)
    assert got.shape == (m,) + trailing
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.all(got[:5] == 0.0) and not np.any(np.signbit(got[:5]))
    if width == 0:
        assert not np.any(got) and not np.any(np.signbit(got))


@pytest.mark.parametrize("name", ["toy", "ydep"])
def test_joined_row_stencils_give_their_parts_bits(name, rng):
    """Every row's stencils on its own row, joined across its parts (its
    profile's shared steps, then its steps near the diagonal, moved from
    the row that traced them where it reads them) into one padded
    stencil-major
    intp pair per family (``_join_on_row``), gather from a negative source
    the bits of the parts gathered one by one, a column at a time: in a
    y-subspace (the toy, whose crossing source is ``(n, r)``) and on lanes
    (one family per y-node, ``(n * ny, 1)``), on rows of one part and
    rows of two."""
    plant = {"toy": toy_model(), "ydep": ydep_plant()}[name]
    problem = build_backstepping_problem(plant, GridSpec(nx=24, ny=5))
    plans = kernelsolve._plans(problem)
    shared = {family: {} for family in plans}
    near = {family: {} for family in plans}
    width = kernelsolve._lane_width(problem)
    parts_seen = set()
    for rows in kernelsolve._blocks(plans):
        diagonal = kernelsolve._block_steps(problem, plans, shared, near, rows)
        for i, parts in zip(rows, kernelsolve._row_parts(plans, shared, near,
                                                         diagonal, rows)):
            for family, plan in plans.items():
                lanes = (i + 1) * plan.lanes
                field = -rng.uniform(0.5, 1.0, (lanes, width)
                                     if family == "crossing" else lanes)
                nodes, weights = kernelsolve._join_on_row(parts[family])
                assert nodes.dtype == np.intp
                assert nodes.shape == weights.shape
                assert nodes.shape[1] == lanes
                got = kernelsolve._gather(field, nodes, weights)
                want = np.concatenate([
                    _gather_by_columns(field, steps.row_nodes,
                                       steps.row_weights)
                    for steps, _ in parts[family]])
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
                parts_seen.add(len(parts[family]))
        kernelsolve._drop_unread(plans, shared, near, rows)
    assert parts_seen == {1, 2}


def test_steps_read_their_row_and_the_one_below(toy, monkeypatch):
    """Every step a row marches, crossing or edge, its profile's shared
    steps and its steps near the diagonal alike (:func:`_marched_steps`),
    moved along the diagonal or not, reads its start from
    row i - 1 by a stencil of at most four nodes whose weights sum to 1,
    counted from the row's first node, or starts at its event, and the
    source at the corners of cells between rows i - 1 and i; the steps of
    row i are node-major, a crossing step of every family per node.  The
    march keeps the sources of one row, with two zero nodes past it: every
    stencil below reads row i - 1 from its first node, nodes 0 to
    n(i - 1) + 1 of the n(i - 1) it has, and every entry past the row
    weighs exactly 0.  The stencils of short rows reach
    the second node past the row."""
    spec = GridSpec(nx=30, ny=6)
    tri = spec.tri
    monkeypatch.setattr(kernelsolve, "_BLOCK_CURVES", 24)
    reach = []
    for plant in (toy, half_x_plant(), sloped_plant(), full_rank_plant(),
                  ydep_plant()):
        problem = build_backstepping_problem(plant, spec)
        families = problem.family_y.size
        blocks = kernelsolve._blocks(kernelsolve._plans(problem))
        assert len(blocks) >= 3
        assert [rows.start for rows in blocks[1:]] == [
            rows.stop for rows in blocks[:-1]]
        for rows, cross, diagonal, edge, (below, on_row) in _marched_steps(
                problem):
            row = tri.i_index[_nodes(tri, rows)]
            for steps, lanes, i in ((cross, families,
                                     np.repeat(row, families)),
                                    (edge, 1, row)):
                lane = np.arange(i.size) % lanes
                start = steps.start_weights.sum(axis=1)
                from_line = start != 0.0
                assert np.allclose(start[from_line], 1.0, rtol=0, atol=1e-12)
                assert np.all((steps.start_nodes - lane[:, None]) % lanes == 0)
                # Row i - 1 has i nodes, counted from its first.
                line_nodes = (steps.start_nodes - lane[:, None]) // lanes
                assert np.all((line_nodes[from_line] >= 0)
                              & (line_nodes[from_line] < i[from_line, None]))
                assert np.all((steps.below_nodes - lane[:, None]) % lanes == 0)
                node = (steps.below_nodes - lane[:, None]) // lanes
                # Row i - 1 has i nodes, row 0 (below itself) one.
                count = np.maximum(i, 1)[:, None]
                assert np.all((node >= 0) & (node <= count + 1))
                assert np.all(steps.below_weights[node >= count] == 0.0)
                reach.append(np.max(node - count, initial=-1))
                below_nodes = node + tri.row_start[np.maximum(i - 1, 0), None]
                used = steps.below_weights != 0.0
                below_rows = np.broadcast_to(i[:, None] - 1, used.shape)
                assert np.all(tri.i_index[below_nodes][used]
                              == below_rows[used])
                local = (steps.row_nodes - lane[:, None]) // lanes
                used = steps.row_weights != 0.0
                assert np.all((local >= 0) & (local <= i[:, None])
                              | ~used)
            # a crossing step that starts from the diagonal carries its data
            # instead, and an edge step that reaches the edge reads it from
            # rows i - 1 and i
            event = cross.start_weights.sum(axis=1) == 0.0
            assert np.all(diagonal[~event] == 0.0)
            reached = edge.start_weights.sum(axis=1) == 0.0
            assert np.allclose((below + on_row)[reached], 1.0, rtol=0,
                               atol=1e-15)
            assert np.all((below + on_row)[~reached] == 0.0)
    assert max(reach) == 1


def test_leveled_steps_take_the_mean_cell_error():
    """On the source xi**2, whose bilinear interpolant exceeds it by
    h**2 * b * (1 - b) across a cell, every step's source quadrature (its
    nodes on rows i - 1 and i) is the exact path integral plus h**3 / 6, the
    mean over a cell, wherever in a cell the step ends: on the straight
    steps of speed_u = 1 + y/2, whose crossing steps end 1 to 1.5 cells on
    in xi, and its edge steps, from node to node, away from the diagonal,
    the edge and the rows of fewer than three nodes, to 1e-11 of h**3."""
    spec = GridSpec(nx=20, ny=4)
    tri, h = spec.tri, spec.hx
    problem = build_backstepping_problem(sloped_plant(), spec)
    families = problem.family_y.size
    source = tri.xi_coord ** 2
    for rows, cross, _, edge, _ in _marched_steps(problem):
        nodes = _nodes(tri, rows)
        for steps, lanes in ((cross, families), (edge, 1)):
            i = np.repeat(tri.i_index[nodes], lanes)
            j = np.repeat(tri.j_index[nodes], lanes)
            xi = np.repeat(tri.xi_coord[nodes], lanes)
            field = np.repeat(source, lanes)
            on_row = steps.row_nodes + (tri.row_start[i] * lanes)[:, None]
            below = steps.below_nodes + (
                tri.row_start[np.maximum(i - 1, 0)] * lanes)[:, None]
            got = ((field[below] * steps.below_weights).sum(axis=1)
                   + (field[on_row] * steps.row_weights).sum(axis=1))
            if steps is cross:
                speed = 1.0 + 0.5 * problem.family_y[np.arange(i.size) % lanes]
                exact = ((xi + speed * h) ** 3 - xi ** 3) / (3.0 * speed)
                inside = (i >= 3) & (j <= i - 3)
            else:
                exact = (xi ** 3 - (xi - h) ** 3) / 3.0
                inside = (i >= 3) & (j >= 2) & (j <= i - 1)
            assert np.count_nonzero(inside) > 0
            assert np.max(np.abs(got - exact - h ** 3 / 6.0)[inside]) <= (
                1e-11 * h ** 3)


@pytest.mark.parametrize("name", ["toy", "sloped"])
def test_build_traces_nothing(name, monkeypatch):
    """The build reads only the sampled plant: it calls no trace and forms
    no block.  The solve traces the crossing steps of every block, of every
    family, in one call and its edge steps in another, the blocks in x
    order, each curve stopping at the x-line below its node's row, and
    each step once: a step its row reads shared (:class:`kernelsolve._Plan`)
    from the first row of its profile that reads it, a step near the
    diagonal from the row whose steps it reads, moved along the diagonal
    (its ``source``), the first of its profile and key that traced them,
    row 4 from row 5 on."""
    plant = {"toy": toy_model(), "sloped": sloped_plant()}[name]
    spec = GridSpec(nx=20, ny=6)
    monkeypatch.setattr(kernelsolve, "_BLOCK_CURVES", 16)
    calls, points = [], {"crossing": [], "edge": []}
    monkeypatch.setattr(kernelsolve, "_blocks", _recording(
        kernelsolve._blocks, lambda _: calls.append("_blocks")))
    crossing, edge = (kernelsolve.trace_crossing_batch,
                      kernelsolve.trace_edge_batch)

    def recording_crossing(coeff, xs, xis, ys, stop=0):
        points["crossing"].append(np.column_stack([xs, xis, ys, stop]))
        return crossing(coeff, xs, xis, ys, stop)

    def recording_edge(coeff, xs, xis, stop=0):
        points["edge"].append(np.column_stack([xs, xis, stop]))
        return edge(coeff, xs, xis, stop)

    monkeypatch.setattr(kernelsolve, "trace_crossing_batch",
                        recording_crossing)
    monkeypatch.setattr(kernelsolve, "trace_edge_batch", recording_edge)
    problem = build_backstepping_problem(plant, spec)
    assert calls == [] and points == {"crossing": [], "edge": []}
    sol = solve_goursat(problem)
    blocks = sol.march["blocks"]
    assert calls == ["_blocks"] and blocks >= 3
    assert len(points["crossing"]) == len(points["edge"]) == blocks
    families = problem.family_y.size
    plans = kernelsolve._plans(problem)
    profile = plans["crossing"].profile
    for family, lanes in (("crossing", families), ("edge", 1)):
        traced = np.concatenate(points[family])
        assert traced.shape[0] == sol.march[family]["traced"]
        # every step stops at the x-line below its node's row, and a
        # crossing step is traced for every family in turn
        i = np.rint(traced[:, 0] * spec.nx).astype(int)
        j = np.rint(traced[:, 1] * spec.nx).astype(int)
        assert np.array_equal(traced[:, -1], np.maximum(i - 1, 0))
        if family == "crossing":
            assert np.array_equal(traced[:, 2].reshape(-1, lanes),
                                  np.tile(problem.family_y,
                                          (traced.shape[0] // lanes, 1)))
        # each step once: the first row of its profile that reads its
        # column shared, or the row whose steps near the diagonal its row
        # reads, moved by as many columns as rows
        steps = set(zip(profile[i[::lanes]].tolist(), j[::lanes].tolist(),
                        i[::lanes].tolist()))
        assert len(steps) == traced.shape[0] // lanes
        shared, source = plans[family].shared, plans[family].source
        assert np.array_equal(source[:5], np.arange(5))
        assert np.all(source[5:] == 4)
        for row in range(spec.nx + 1):
            for column in range(row + 1):
                if column < shared[row]:
                    reader = min(r for r in range(spec.nx + 1)
                                 if profile[r] == profile[row]
                                 and shared[r] > column)
                    assert (profile[row], column, reader) in steps
                else:
                    assert (profile[row], column - row + source[row],
                            source[row]) in steps


def test_unresolved_plant_raises_numeric_error():
    """A readout term that vanishes on every x-node, and changes the
    readout's y-profile between them, puts the diagonal data of the crossing
    curves, launched between x-nodes, outside the y-subspace seeded with
    the diagonal rows: the solve raises :class:`NumericError`, naming the
    rows, where it would solve in too small a subspace.  The toy on the
    same grid solves."""
    spec = GridSpec(nx=20, ny=12)
    toy = toy_model()
    plant = dataclasses.replace(
        toy, readout=lambda x, y: (toy.readout(x, y) + np.sin(np.pi * spec.nx * x)
                                   * (y - 0.5) ** 3))
    assert solve_backstepping_kernels(toy, spec).y_rank == 1
    with pytest.raises(NumericError, match="rows 0 to"):
        solve_backstepping_kernels(plant, spec)




def _whole_curve_oracle(problem):
    """Both unknowns of the whole-curve kernel system of a plant with one
    family of crossing curves, solved densely with ``np.linalg.solve``, in
    the coordinates of ``problem.basis``: every node's crossing curve
    traced to the diagonal and its edge curve to the edge, each an operator
    row of Simpson's rule on every cell segment of the bilinear interpolant
    (assembled by scipy, which sums a curve's shared corners), so that
    ``C = D + K(s2e G + A C)`` and ``G = g . interp(C) + E(d G + e2s . C)``,
    the edge data interpolated linearly in x at the edge curve's launch
    between the rows at and below it."""
    spec = problem.spec
    tri = spec.tri
    n, r = tri.n_nodes, problem.basis.shape[1]
    assert problem.family_y.size == 1
    coeff = problem.coeff

    def operator(bundle):
        return _whole_curve_operator(spec, bundle).toarray()

    crossing = trace_crossing_batch(coeff, tri.x_coord, tri.xi_coord,
                                    np.full(n, problem.family_y[0]))
    launch = crossing.launch[:, None]
    diagonal = (-coeff.model.readout(launch, spec.y_nodes)
                / (coeff.model.speed_u(launch, spec.y_nodes)
                   + coeff.model.speed_v(launch))) @ problem.basis
    cross = operator(crossing)
    edging = trace_edge_batch(coeff, tri.x_coord, tri.xi_coord)
    edge = operator(edging)
    i = tri.i_index
    pos = np.clip(edging.launch * spec.nx, 0.0, i)
    lower = np.clip(np.floor(pos).astype(np.int64), 0, np.maximum(i - 1, 0))
    flat0 = tri.row_start[lower]
    flat1 = tri.row_start[np.minimum(lower + 1, i)]
    frac = pos - lower
    everything = range(spec.nx + 1)
    j = tri.j_index

    def update(x):
        C, G = x[:n * r].reshape(n, r), x[n * r:]
        source = (problem.scalar_to_ensemble[j] * G[:, None]
                  + problem.apply_ensemble_operator(everything, C))
        edge_rows = ((1.0 - frac)[:, None] * C[flat0]
                     + frac[:, None] * C[flat1])
        G_new = ((problem.edge_gain * edge_rows).sum(axis=1)
                 + edge @ (problem.scalar_decay[j] * G
                           + (problem.ensemble_to_scalar[j] * C).sum(axis=1)))
        return np.concatenate([(cross @ source).ravel(), G_new])

    return _dense_solve(problem, update, diagonal)


def _dense_solve(problem, update, diagonal):
    """``k`` and ``ktilde`` of the solution of ``x = update(x) + data``,
    ``data`` the diagonal coordinates ``diagonal`` for C and zero for G, by
    a dense solve of the matrix of the linear map ``update``."""
    n, r = problem.spec.tri.n_nodes, problem.basis.shape[1]
    size = n * (r + 1)
    matrix = np.column_stack([update(e) for e in np.eye(size)])
    data = np.concatenate([diagonal.ravel(), np.zeros(n)])
    x = np.linalg.solve(np.eye(size) - matrix, data)
    C, G = x[:n * r].reshape(n, r), x[n * r:]
    return KernelSolution(coords=C, diagonal_rows=problem.diagonal_rows,
                          ktilde=G, iterations=0, final_delta=0.0, deltas=(),
                          spec=problem.spec, basis=problem.basis).k, G


def _one_cell_oracle(problem):
    """Both unknowns of the one-cell kernel system of the march's steps,
    block by block, solved densely: each node's value is its steps' starts
    (read from the row below, or the diagonal and edge data) plus their
    source integrals, over the whole triangle at once."""
    spec = problem.spec
    tri = spec.tri
    n, r = tri.n_nodes, problem.basis.shape[1]
    families = problem.family_y.size
    width = r if families == 1 else 1
    parts = list(_marched_steps(problem))
    everything = range(spec.nx + 1)
    j = tri.j_index

    def gather(field, nodes, weights):
        values = field[nodes]
        weights = weights.reshape(weights.shape + (1,) * (values.ndim - 2))
        return (values * weights).sum(axis=1)

    def update(x):
        C, G = x[:n * r].reshape(n, r), x[n * r:]
        src_c = (problem.scalar_to_ensemble[j] * G[:, None]
                 + problem.apply_ensemble_operator(everything, C))
        src_g = (problem.scalar_decay[j] * G
                 + (problem.ensemble_to_scalar[j] * C).sum(axis=1))
        lanes = C.reshape(n * families, width)
        lanes_src = src_c.reshape(n * families, width)
        C_new = np.empty_like(lanes)
        G_new = np.empty(n)
        for rows, cross, _, edge, (below, on_row) in parts:
            nodes = _nodes(tri, rows)
            row = tri.i_index[nodes]
            first = tri.row_start[np.maximum(row - 1, 0)]
            shift = tri.row_start[np.repeat(row, families)] * families
            C_new[nodes.start * families:nodes.stop * families] = (
                gather(lanes, cross.start_nodes
                       + np.repeat(first * families, families)[:, None],
                       cross.start_weights)
                + gather(lanes_src, cross.below_nodes
                         + np.repeat(first * families, families)[:, None],
                         cross.below_weights)
                + gather(lanes_src, cross.row_nodes + shift[:, None],
                         cross.row_weights))
            gain = C @ problem.edge_gain
            G_new[nodes] = (
                gather(G, edge.start_nodes + first[:, None],
                       edge.start_weights)
                + gather(src_g, edge.below_nodes + first[:, None],
                         edge.below_weights)
                + gather(src_g, edge.row_nodes + tri.row_start[row][:, None],
                         edge.row_weights)
                + below * gain[tri.row_start[np.maximum(row - 1, 0)]]
                + on_row * gain[tri.row_start[row]])
        return np.concatenate([C_new.ravel(), G_new])

    diagonal = np.concatenate([part[2] for part in parts])
    return _dense_solve(problem, update, diagonal.reshape(n, r))


@pytest.mark.parametrize("name", ["toy", "gauss", "half_x", "sloped"])
def test_march_solves_the_discrete_system(name, monkeypatch):
    """The march, row by row, solves the discrete kernel system its steps
    make: against a dense solve of the one-cell system over the whole
    triangle, to 1e-12 relative, in several blocks, on one family in a
    y-subspace (the toy, the Gaussian exchange), curved characteristics
    and one family per y-node."""
    plant = {"half_x": half_x_plant(), "sloped": sloped_plant(),
             **_reference_plants()}[name]
    spec = GridSpec(nx=16, ny=6)
    monkeypatch.setattr(kernelsolve, "_BLOCK_CURVES", 16)
    problem = build_backstepping_problem(plant, spec)
    assert len(kernelsolve._blocks(kernelsolve._plans(problem))) >= 4
    # Where a row's sweeps stop at tol depends on where they start, so the
    # march iterates well past the bound's scale.
    sol = solve_goursat(problem, tol=1e-13)
    k, ktilde = _one_cell_oracle(problem)
    assert np.max(np.abs(sol.k - k)) <= 1e-12 * np.max(np.abs(k))
    assert np.max(np.abs(sol.ktilde - ktilde)) <= 1e-12 * np.max(np.abs(ktilde))


@pytest.mark.parametrize("name", ["toy", "half_x", "sloped", "full_rank",
                                  "ydep"])
def test_runs_and_blocks_change_no_bit(name, toy, monkeypatch):
    """Blocks of rows bound only what the march forms and holds at a time:
    blocks of 64 steps solve the same kernels as the default, in one block,
    bit for bit, in a y-subspace (the toy, half_x) and on every y-node (one
    family per y-node, a closure of rank ny), with the same counts of steps
    marched, traced and cut into segments.  Every padded slot of every
    block's steps is node 0 of its lane at weight 0, also where a block's
    padded steps take less room than the block's before it (the per-y
    plant of the bench, ydep)."""
    plant = {"toy": toy, "half_x": half_x_plant(), "sloped": sloped_plant(),
             "full_rank": full_rank_plant(), "ydep": ydep_plant()}[name]
    spec = GridSpec(nx=30, ny=8)
    default = solve_backstepping_kernels(plant, spec)
    assert default.march["blocks"] == 1
    sizes = []
    layout = kernelsolve._quadrature_matrix

    def padded_with_node_0(spec, bundle, row, lanes, lane):
        steps = layout(spec, bundle, row, lanes, lane)
        width = steps.row_nodes.shape[1] // 2
        sizes.append(steps.row_nodes.size)
        counts = np.diff(bundle.offsets)[:, None]
        for nodes, weights, per in ((steps.below_nodes, steps.below_weights,
                                     3),
                                    (steps.row_nodes, steps.row_weights, 2)):
            padding = np.arange(per * width) >= per * counts
            assert np.all((nodes - lane[:, None])[padding] == 0)
            assert np.all(weights[padding] == 0.0)
        return steps

    monkeypatch.setattr(kernelsolve, "_quadrature_matrix", padded_with_node_0)
    monkeypatch.setattr(kernelsolve, "_BLOCK_CURVES", 64)
    blocks = solve_backstepping_kernels(plant, spec)
    assert blocks.march["blocks"] > 1
    assert len(sizes) == 2 * blocks.march["blocks"]
    if name == "ydep":
        crossing = sizes[::2]
        assert any(a > b for a, b in zip(crossing, crossing[1:]))
    for attr in ("coords", "ktilde", "deltas"):
        assert np.array_equal(getattr(blocks, attr), getattr(default, attr))
    for family in ("crossing", "edge"):
        assert blocks.march[family] == default.march[family]
    assert blocks.march["sweeps"] == default.march["sweeps"]


@pytest.mark.parametrize("name", ["toy", "ydep"])
def test_march_counts_every_rows_sweeps(name, toy, monkeypatch):
    """``march["sweeps"]`` is the sum of the local sweeps of every row: a
    row applies the ensemble operator at the top of each sweep and once to
    its converged iterate, so row i's calls are its sweeps plus one, the
    most of them ``iterations`` plus one.  Blocks of 64 steps sweep as
    often as one block."""
    plant = {"toy": toy, "ydep": ydep_plant()}[name]
    spec = GridSpec(nx=30, ny=8)
    counted = []
    for block_curves in (64, 2 ** 30):
        monkeypatch.setattr(kernelsolve, "_BLOCK_CURVES", block_curves)
        problem = build_backstepping_problem(plant, spec)
        calls = np.zeros(spec.nx + 1, dtype=np.int64)

        def apply(rows, field, apply=problem.apply_ensemble_operator):
            calls[rows.start:rows.stop] += 1
            return apply(rows, field)

        sol = solve_goursat(dataclasses.replace(
            problem, apply_ensemble_operator=apply))
        sweeps = calls - 1
        assert sol.march["sweeps"] == int(sweeps.sum())
        assert int(sweeps.max()) == sol.iterations
        counted.append((sol.march["blocks"], sol.march["sweeps"]))
    (blocks, sweeps), (one_block, whole) = counted
    assert blocks > 1 == one_block
    assert sweeps == whole


@pytest.mark.parametrize("name", ["toy", "ydep"])
def test_every_block_owns_its_steps_and_traces(name, toy, monkeypatch):
    """Each block's traces and step data are arrays of its own: with
    blocks of 24 steps, three or more, every bundle a trace returns and
    every family's steps laid out still equal, after the solve, the copies
    taken as they were returned, so no later block wrote over them, on one
    family (the toy) and on one family per y-node."""
    plant = {"toy": toy, "ydep": ydep_plant()}[name]
    monkeypatch.setattr(kernelsolve, "_BLOCK_CURVES", 24)
    returned = []

    def copied(out):
        fields = tuple(out) if isinstance(out, tuple) else tuple(
            vars(out).values())
        returned.append((fields, [np.array(a) for a in fields]))

    for attr in ("trace_crossing_batch", "trace_edge_batch",
                 "_quadrature_matrix"):
        monkeypatch.setattr(kernelsolve, attr, _recording(
            getattr(kernelsolve, attr), copied))
    sol = solve_backstepping_kernels(plant, GridSpec(nx=30, ny=8))
    assert sol.march["blocks"] >= 3
    assert len(returned) == 4 * sol.march["blocks"]
    for fields, copies in returned:
        for a, b in zip(fields, copies):
            assert np.array_equal(a, b, equal_nan=b.dtype.kind == "f")


@pytest.mark.parametrize("name, calls", [("half_x", 0), ("sloped", 2)])
def test_profiles_of_one_row_read_no_line_ends(name, calls, monkeypatch):
    """A travel-time profile of one row shares no step: its row traces them
    all either way, so the plan reads no line ends for it.  On half_x,
    where every x-cell is a profile of its own, the solve reads none; with
    speed_v = 1 and a family per y-node, where every row has one profile,
    it reads them once for each family, crossing and edge."""
    plant = {"half_x": half_x_plant(), "sloped": sloped_plant()}[name]
    ends = []
    monkeypatch.setattr(kernelsolve, "line_ends", _recording(
        kernelsolve.line_ends, ends.append))
    sol = solve_backstepping_kernels(plant, GridSpec(nx=30, ny=6))
    assert len(ends) == calls
    if not calls:
        for family in ("crossing", "edge"):
            assert sol.march[family]["traced"] == sol.march[family]["steps"]


def test_solve_builds_its_travel_times_once(monkeypatch):
    """Every block's crossing and edge traces read the travel-time tables
    of the sampled plant: a per-y solve in four blocks or more builds the
    same tables as in one block, one of speed_v and one of speed_u at
    every y-node."""
    spec = GridSpec(nx=40, ny=8)
    tables = []
    monkeypatch.setattr(characteristics, "_TravelTime", _recording(
        characteristics._TravelTime, tables.append))
    built = []
    for block_curves in (64, 2 ** 20):
        monkeypatch.setattr(kernelsolve, "_BLOCK_CURVES", block_curves)
        tables.clear()
        sol = solve_backstepping_kernels(sloped_plant(), spec)
        built.append((sol.march["blocks"],
                      [t.nodes.shape[0] for t in tables]))
    (blocks, many), (one_block, one) = built
    assert blocks >= 4 and one_block == 1
    assert many == one == [1, spec.ny]


@pytest.mark.parametrize("name", ["toy", "gauss"])
def test_unit_speeds_keep_the_whole_curve_system(name):
    """With unit speeds every one-cell step ends on a node, so the march
    solves the whole-curve system summed in another order: against its
    dense solve (:func:`_whole_curve_oracle`), to 1e-12 relative, the
    march iterated well past the bound's scale."""
    spec = GridSpec(nx=16, ny=6)
    problem = build_backstepping_problem(_reference_plants()[name], spec)
    sol = solve_goursat(problem, tol=1e-13)
    k, ktilde = _whole_curve_oracle(problem)
    assert np.max(np.abs(sol.k - k)) <= 1e-12 * np.max(np.abs(k))
    assert (np.max(np.abs(sol.ktilde - ktilde))
            <= 1e-12 * np.max(np.abs(ktilde)))


def _recording(fn, log):
    """``fn``, passing each result to ``log`` on its way out."""
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        log(out)
        return out
    return wrapper


def _record_block_work(monkeypatch):
    """Record, as the solver runs, the padded segments of every path
    quadrature it forms, a block's crossing steps then its edge steps; for
    every trace its work bytes as modelled (128 B a segment and 640 B a
    curve of its bundle; 128 B a cell of each row of the travel-time tables
    it reads, one for speed_v and one per distinct y of its crossing
    curves, for its brackets in them and its fixed costs; and 512 B a cell
    of each row it builds: the sampled plant keeps the tables, so the
    first trace of a solve builds every row, and later traces none), the
    peak of traced memory it reaches above its entry, and its curves; for
    every block's evaluation of the diagonal data its rows' steps near the
    diagonal carry, in ``work["_diagonal_data"]``, its work bytes as
    modelled (40 B a value, for its data on its y-nodes and the plant's
    temporaries, and 1 kB), its peak and its values; the
    travel-time tables built; and the bytes of the arrays of every problem
    it builds.  A trace, or an evaluation, resets the traced peak, so the
    peaks reached before each are recorded too, and the peak since the
    last reading is the largest of them and the peak read after it
    (:func:`_peak`).  For every
    block it records the bytes of each array of the step data it lays out,
    their :func:`_step_bytes`, and how many of the arrays the block before
    it laid out, and its diagonal data, are alive, by weak references, when
    its steps are traced; in ``kept``, the bytes of the steps kept for
    later rows once it has traced its own (:func:`_kept_bytes`); and, in
    ``peaks``,
    the traced peak of every block but the last as the next one starts,
    the first's counted from the start of tracing.
    The caller appends the last block's as the solve returns.  Each table
    is recorded as its rows and its bytes (:func:`_table_bytes`), so that
    no record keeps it alive."""
    padded, work, problem_bytes, before, blocks = [], {}, [], [], []
    tables, peaks = [], []
    monkeypatch.setattr(characteristics, "_TravelTime", _recording(
        characteristics._TravelTime,
        lambda t: tables.append((t.nodes.shape[0], _table_bytes(t)))))
    layouts = []

    def laid_out(op):
        padded.append(op.row_nodes.size // 2)
        # every field of the steps but their count nnz
        layouts.append((sum(a.nbytes for a in op[:-1]), _step_bytes(op),
                        [weakref.ref(a) for a in op[:-1]]))

    monkeypatch.setattr(kernelsolve, "_quadrature_matrix", _recording(
        kernelsolve._quadrature_matrix, laid_out))
    monkeypatch.setattr(kernelsolve, "build_backstepping_problem", _recording(
        kernelsolve.build_backstepping_problem,
        lambda problem: problem_bytes.append(_array_bytes(problem))))
    for attr in ("trace_crossing_batch", "trace_edge_batch"):
        def recording(coeff, *args, attr=attr, trace=getattr(kernelsolve, attr)):
            entry, peak = tracemalloc.get_traced_memory()
            before.append(peak)
            tracemalloc.reset_peak()
            built = len(tables)
            bundle = trace(coeff, *args)
            read = 1 + (np.unique(args[2]).size
                        if attr == "trace_crossing_batch" else 0)
            rows = sum(n for n, _ in tables[built:])
            curves = bundle.offsets.size - 1
            work.setdefault(attr, []).append((
                128 * bundle.weights.size + 640 * curves
                + (128 * read + 512 * rows) * coeff.spec.nx,
                tracemalloc.get_traced_memory()[1] - entry, curves))
            return bundle

        monkeypatch.setattr(kernelsolve, attr, recording)
    marching = []

    def diagonal_data(model, at, y, data=kernelsolve._diagonal_data):
        if not marching:
            return data(model, at, y)
        entry, peak = tracemalloc.get_traced_memory()
        before.append(peak)
        tracemalloc.reset_peak()
        out = data(model, at, y)
        work.setdefault("_diagonal_data", []).append((
            40 * out.size + 1024, tracemalloc.get_traced_memory()[1] - entry,
            out.size))
        return out

    monkeypatch.setattr(kernelsolve, "_diagonal_data", diagonal_data)
    refs = []

    def block_steps(problem, plans, shared, near, rows,
                    steps=kernelsolve._block_steps):
        if blocks:
            peaks.append(_peak(before))
            tracemalloc.reset_peak()
        alive = sum(ref() is not None for ref in refs)
        marching.append(rows)
        diagonal = steps(problem, plans, shared, near, rows)
        (cross_views, cross_bytes, cross_refs), (
            edge_views, edge_bytes, edge_refs) = layouts[-2:]
        # every field of both families' steps as the block laid them out
        # but their counts nnz, and its diagonal data
        refs[:] = cross_refs + edge_refs + [weakref.ref(diagonal)]
        blocks.append((cross_views + edge_views, cross_bytes + edge_bytes,
                       alive))
        kept.append(_kept_bytes(shared, near))
        return diagonal

    kept = []
    monkeypatch.setattr(kernelsolve, "_block_steps", block_steps)
    return padded, work, problem_bytes, before, blocks, tables, peaks, kept


def _kept_bytes(*kept):
    """The bytes of the steps that profiles and rows keep for later rows in
    arrays of their own (:class:`kernelsolve._Shared`), the shared ones and
    those near the diagonal, not those read where a block laid them
    out."""
    return sum(a.nbytes for held in kept for tables in held.values()
               for table in tables.values()
               for value in vars(table).values()
               for a in (value if isinstance(value, tuple) else (value,))
               if isinstance(a, np.ndarray) and a.base is None)


def _table_bytes(table):
    """The bytes a travel-time table holds, which the sampled plant keeps
    from the first trace on: its own arrays, not the x-nodes it shares with
    the grid."""
    return _array_bytes(table) - table.x.nbytes


def _peak(before):
    """The traced peak since the last reset, with the peaks recorded before
    each trace (:func:`_record_block_work`), which are then cleared."""
    peak = max(before + [tracemalloc.get_traced_memory()[1]])
    before.clear()
    return peak


def _step_bytes(steps):
    """The bytes of a block's step data of one family, as held: its source
    stencils, 60 B a padded segment of its path quadrature (on row i - 1
    three int32 nodes and three float weights, 36 B; on row i two and two,
    24 B), and its start stencils, 48 B a step (four int32 nodes and four
    weights)."""
    padded = steps.row_nodes.size // 2
    return 60 * padded + 48 * len(steps.start_nodes)


def _block_allowances(padded, work, shared, row_work):
    """Each block's allowance, in order: the work of its crossing and edge
    traces, as modelled (:func:`_record_block_work`), the travel-time
    tables charged to the trace that builds them; the step data of both,
    60 B a padded segment (:func:`_step_bytes`); 56 B a step (its start
    stencil and its diagonal datum), all of it the block's own, which
    allocates its arrays and frees them before the next block; the work of
    evaluating the diagonal data its rows' steps near the diagonal carry,
    as modelled; the steps kept for later rows (``shared``); and the work
    of marching one of its rows (``row_work``, :func:`_row_work_bytes`)."""
    return [cross + edge + 60 * (padded_cross + padded_edge)
            + 56 * (cross_steps + edge_steps) + diagonal + kept + row_work
            for (cross, _, cross_steps), (edge, _, edge_steps),
            (diagonal, _, _), padded_cross, padded_edge, kept in zip(
                work["trace_crossing_batch"], work["trace_edge_batch"],
                work["_diagonal_data"], padded[::2], padded[1::2], shared)]


def _blocks_within_allowances(peaks, kept, padded, work, shared, row_work):
    """Whether every block peaked, in traced memory, within ``kept`` and
    its own allowance (:func:`_block_allowances`)."""
    allowances = _block_allowances(padded, work, shared, row_work)
    return len(peaks) == len(allowances) and all(
        peak <= kept + allowance for peak, allowance in zip(peaks, allowances))


def _row_of_sources_bytes(spec, r):
    """The bytes of the sources the march keeps: one row's, of both
    unknowns, ``r`` coordinates of the ensemble one a node, with two zero
    nodes past the longest row."""
    return 8 * (spec.nx + 3) * (r + 1)


def _row_work_bytes(spec, r):
    """The work of marching one row, as modelled: 24 rows of sources
    (:func:`_row_of_sources_bytes`) for its iterates, their sources and
    increments, and the gathers of its steps.  The toy at nx = 100 takes
    up to 17 (28 kB), plants with a family per y-node, at nx = 80 and
    240, up to 9."""
    return 24 * _row_of_sources_bytes(spec, r)


def _one_block_at_a_time(blocks):
    """Whether, over more than two blocks, every block's step data took
    :func:`_step_bytes` and none of the block before it was alive when its
    steps were traced (:func:`_record_block_work`): the solve holds one
    block's step data at a time."""
    return len(blocks) > 2 and all(
        views == expected and not alive for views, expected, alive in blocks)


def _traces_within_model(work):
    """Whether every trace, and every evaluation of a block's diagonal
    data, peaked within its modelled work bytes."""
    return all(peak <= model for sizes in work.values()
               for model, peak, _ in sizes)


def _array_bytes(*objects):
    """The bytes of the arrays among the attributes of ``objects``, and in
    their tuple attributes."""
    return sum(v.nbytes for obj in objects for value in vars(obj).values()
               for v in (value if isinstance(value, tuple) else (value,))
               if isinstance(v, np.ndarray))


@pytest.mark.parametrize("name", ["toy", "sloped"])
def test_sampled_plants_do_not_outlive_their_call(name, toy, monkeypatch):
    """Every plant that the solve and the residuals sample, and every
    travel-time table the solve's traces attach to its plant, is
    unreachable, by weak references, as soon as the call returns: no
    sampled plant, and no table, outlives the solve."""
    plant = {"toy": toy, "sloped": sloped_plant()}[name]
    spec = GridSpec(nx=12, ny=6)
    plants, tables = [], []
    monkeypatch.setattr(kernelsolve, "sample_coefficients", _recording(
        kernelsolve.sample_coefficients,
        lambda coeff: plants.append(weakref.ref(coeff))))
    monkeypatch.setattr(characteristics, "_TravelTime", _recording(
        characteristics._TravelTime,
        lambda table: tables.append(weakref.ref(table))))
    sol = solve_backstepping_kernels(plant, spec)
    assert len(plants) == 1 and len(tables) == 2
    assert all(ref() is None for ref in plants + tables)
    kernel_pde_residual(sol, plant)
    assert len(plants) == 2 and plants[1]() is None


@pytest.mark.parametrize("name, nx, ny, block_curves", [
    ("toy", 100, 8, 64), ("sloped", 80, 8, 256), ("ydep", 240, 4, 256)],
    ids=["toy", "sloped", "ydep"])
def test_solve_holds_one_band_of_operators(name, nx, ny, block_curves, toy,
                                           monkeypatch):
    """With blocks of a few hundred traced steps (64 on the toy, whose rows
    from the fifth on trace two steps each) every block of a solve
    peaks, in traced memory, at the arrays kept over the march, which hold
    no ``(n_tri, ny)`` array on one family and of the sources one row, and
    its own traces and step data, the shared steps kept and the work of
    marching a row (:func:`_block_allowances`), on one family in a
    y-subspace (the toy) and on one family per y-node.  Holding every step
    marched, laid out, exceeds every block's allowance, and at nx = 240 the
    source of the ensemble unknown on the whole triangle alone exceeds some
    block's.
    Each trace peaks within its modelled work, each block's step data take
    :func:`_step_bytes`, int32 nodes, and none of a block's, nor an array
    they are views of, is alive when the next is traced
    (:func:`_one_block_at_a_time`): the modelled trace work exceeds what a
    trace takes by more than one block's step data, so the bound alone
    would not see a block held too long."""
    plant = {"toy": toy, "sloped": sloped_plant(), "ydep": ydep_plant()}[name]
    spec = GridSpec(nx=nx, ny=ny)
    monkeypatch.setattr(kernelsolve, "_BLOCK_CURVES", block_curves)
    padded, work, problem_bytes, before, blocks, tables, peaks, shared = (
        _record_block_work(monkeypatch))
    tracemalloc.start()
    try:
        sol = solve_backstepping_kernels(plant, spec)
        peaks.append(_peak(before))
    finally:
        tracemalloc.stop()
    n_tri, r = sol.coords.shape
    # The problem's arrays (the diagonal rows and the per-x-node plant
    # fields), the sampled grids, their travel-time tables and the grid's
    # index arrays; the march's unknowns C and G, which the solution keeps,
    # and the sources of one row (:func:`_row_of_sources_bytes`).
    kept = (problem_bytes[0] + _array_bytes(sample_coefficients(plant, spec))
            + sum(b for _, b in tables) + _array_bytes(spec.tri)
            + 8 * n_tri * (r + 1) + _row_of_sources_bytes(spec, r))
    row_work = _row_work_bytes(spec, r)
    allowances = _block_allowances(padded, work, shared, row_work)
    # every step marched, laid out (60 B a segment)
    assert 60 * (sol.march["crossing"]["segments"]
                 + sol.march["edge"]["segments"]) > max(allowances)
    if name == "ydep":
        assert 8 * n_tri * r > min(allowances)
    assert _blocks_within_allowances(peaks, kept, padded, work, shared,
                                     row_work)
    assert _traces_within_model(work)
    assert _one_block_at_a_time(blocks)


def test_kernels_command_forms_no_full_size_kernel(tmp_path, monkeypatch):
    """``kernels`` on the toy samples no plant of its own: the solve and the
    residual each sample theirs.  It peaks in its solve, in traced memory,
    below the arrays the solve keeps (its sampled coefficients with their
    travel-time tables, the problem's arrays, the grid's index arrays, the
    march's unknowns, ``C`` among them, with the diagonal rows, and one row
    of their sources) and, in each block, that block's own allowance
    (:func:`_block_allowances`): the build forms
    no ``(n_tri, ny)`` array, each trace peaks within its modelled work,
    and each block's step data take :func:`_step_bytes` and are not alive
    when the next block is traced.
    After the solve it forms ``k`` a block of rows at a time, in the
    residual, the closed-form error and the CSV writer, so that it peaks
    below what it holds (the residual's sampled coefficients, the solution
    and the grid's index arrays, but no travel-time table: the solve's
    plant is gone) plus the larger of one CSV chunk (512 B a line) and one
    block of ``k`` (128 B a value): an allowance smaller than any
    ``(n_tri, ny)`` array.  Nothing on the way asks for the whole ``k``."""
    spec = GridSpec(nx=100, ny=60)
    ny = spec.ny
    monkeypatch.setattr(kernelsolve, "_BLOCK_CURVES", 64)
    monkeypatch.setattr(csvtable, "_CHUNK_LINES", 2048)
    padded, work, problem_bytes, before, blocks, tables, peaks, shared = (
        _record_block_work(monkeypatch))
    # the bytes of every plant sampled, read as it is sampled, so that no
    # record keeps a plant alive
    coeffs, cli_coeffs, solutions = [], [], []
    monkeypatch.setattr(kernelsolve, "sample_coefficients", _recording(
        kernelsolve.sample_coefficients,
        lambda coeff: coeffs.append(_array_bytes(coeff))))
    monkeypatch.setattr(cli, "sample_coefficients", _recording(
        cli.sample_coefficients, cli_coeffs.append))

    def solve_and_reset_peak(*args, **kwargs):
        sol = solve_backstepping_kernels(*args, **kwargs)
        peaks.append(_peak(before))
        tracemalloc.reset_peak()
        solutions.append(sol)
        return sol

    monkeypatch.setattr(cli, "solve_backstepping_kernels",
                        solve_and_reset_peak)
    tracemalloc.start()
    try:
        assert cli.cmd_kernels(cli.RunConfig(
            nx=spec.nx, ny=ny, output_dir=str(tmp_path))) == 0
        after_peak = _peak(before)
    finally:
        tracemalloc.stop()
    (solve_coeff, residual_coeff), (sol,) = coeffs, solutions
    assert not cli_coeffs
    n_tri, r = sol.coords.shape
    full_size = 8 * n_tri * ny
    grid = _array_bytes(sol.spec.tri)
    chunk = max(512 * csvtable._CHUNK_LINES, 128 * kernelsolve._BLOCK_VALUES)
    assert chunk < full_size
    kept = (problem_bytes[0] + solve_coeff + sum(b for _, b in tables)
            + grid + 8 * n_tri * (r + 1) + _row_of_sources_bytes(spec, r))
    assert _blocks_within_allowances(peaks, kept, padded, work, shared,
                                     _row_work_bytes(spec, r))
    assert _traces_within_model(work)
    assert _one_block_at_a_time(blocks)
    # the command never asks for the whole k, and holds the solution's
    # own arrays only
    assert "k" not in vars(sol)
    assert after_peak <= residual_coeff + _array_bytes(sol) + grid + chunk


def _reference_plants():
    """The toy (y-rank 1), the toy with a Gaussian exchange (closure rank
    11 or 12 at ny = 16, a count set by rounding: its closure keeps adding
    directions until their images sink into rounding, while its kernel has
    a clear rank of 3) and with a degree-2 polynomial exchange (rank 3),
    and a plant with a y-dependent speed (per-y sweeps)."""
    toy = toy_model()
    return {
        "toy": toy,
        "gauss": dataclasses.replace(
            toy, name="toy-gauss",
            exchange=lambda x, y, eta: x * np.exp(-(y - eta) ** 2)),
        "poly": dataclasses.replace(
            toy, name="toy-poly",
            exchange=lambda x, y, eta: x * (1.0 + y * eta + (y * eta) ** 2)),
        "full_rank": full_rank_plant(),
    }


def _assert_closure_rank(rank, pinned, ny):
    """The closure rank equals its pin, or for the Gaussian exchange (no
    pin: rounding sets the count) lies strictly between 1 and ny."""
    if pinned is None:
        assert 1 < rank < ny
    else:
        assert rank == pinned


@pytest.mark.parametrize("name, y_rank", [
    ("toy", 1), pytest.param("gauss", None, id="gauss"), ("poly", 3),
    ("full_rank", 16)])
def test_subspace_solve_matches_per_y_solve(name, y_rank, monkeypatch):
    """The subspace sweeps reproduce the kernels the sweeps on every y-node
    (the basis held as the identity) solve, to rounding."""
    spec = GridSpec(nx=20, ny=16)
    plant = _reference_plants()[name]
    sol = solve_backstepping_kernels(plant, spec, tol=1e-10)
    _assert_closure_rank(sol.y_rank, y_rank, spec.ny)
    if y_rank is None:
        # the kernel's own rank has a clear gap: sigma_4 / sigma_1 ~ 2e-15
        # against the cutoff 5e-14
        assert transform_operator(sol).weighted_basis.shape[1] == 3
    monkeypatch.setattr(kernelsolve, "y_subspace",
                        lambda seeds, maps: np.eye(spec.ny))
    ref = solve_backstepping_kernels(plant, spec, tol=1e-10)
    assert ref.y_rank == spec.ny
    k, ktilde = ref.k, ref.ktilde
    assert np.max(np.abs(sol.k - k)) <= 1e-12 * np.max(np.abs(k))
    assert np.max(np.abs(sol.ktilde - ktilde)) <= 1e-12 * np.max(np.abs(ktilde))


# The full-rank plant's kernel, solved on every y-node, has singular values
# that fall smoothly into rounding (sigma_14 / sigma_1 = 5.23e-14 and
# sigma_15 / sigma_1 = 3.2e-15, against the cutoff 5.13e-14), so rounding
# sets its numerical rank: the test counts it (factor_rank None).
@pytest.mark.parametrize("name, factor_rank", [
    ("toy", 1), ("gauss", 3), ("poly", 3),
    pytest.param("full_rank", None, id="full_rank-counted"),
    ("evaluator", 2)])
def test_transform_factors_the_kernel_in_its_basis(name, factor_rank, rng):
    """The solution's basis is orthonormal and holds every row of k, and
    the transform built on it integrates the full k: against a dense
    running-weight quadrature, no factoring, to rounding.  Its factor has
    the rank of the kernel's coordinates, pinned or, where rounding sets it,
    counted as :func:`row_basis` counts it.  On the identity basis the
    coordinates are k's values, and its factor is theirs, bit for bit."""
    spec = GridSpec(nx=20, ny=16)
    tri = spec.tri
    if name == "evaluator":
        sol = kernel_solution_from_evaluators(
            spec, lambda x, xi, y: (x * (1.0 + xi) * y
                                    + np.sin(3.0 * xi) * np.cos(np.pi * y)),
            lambda x, xi: np.cos(x - xi))
    else:
        sol = solve_backstepping_kernels(_reference_plants()[name], spec)
    k, basis = sol.k, sol.basis
    assert np.max(np.abs(basis.T @ basis - np.eye(sol.y_rank))) <= 1e-12
    assert (np.max(np.abs(k - (k @ basis) @ basis.T))
            <= 1e-12 * np.max(np.abs(k)))

    op = transform_operator(sol)
    coords = sol.coords
    if factor_rank is None:
        sv = np.linalg.svd(coords, compute_uv=False)
        factor_rank = int(np.count_nonzero(
            sv > sv.max() * max(coords.shape) * np.finfo(float).eps))
    assert op.weighted_basis.shape[1] == factor_rank
    weights = np.concatenate([np.zeros(1)] + [
        gregory_weights(i + 1, spec.hx) for i in range(1, spec.nx + 1)])
    u = rng.standard_normal((spec.nx + 1, spec.ny))
    inner = weights * np.einsum("ty,ty->t", k,
                                (u * spec.y_weights)[tri.j_index])
    dense = np.array([inner[tri.row_slice(i)].sum()
                      for i in range(spec.nx + 1)])
    assert (np.max(np.abs(op.integrate(u) - dense))
            <= 1e-12 * np.max(np.abs(dense)))

    if sol.y_rank == spec.ny:
        assert np.array_equal(basis, np.eye(spec.ny))
        # The coordinates hold k's values, but a zero of k on the diagonal
        # may be -0.0 where they hold 0.0, which moves row_basis's bits.
        assert np.array_equal(coords, k)
        directions = row_basis([coords])
        rows = tri_to_matrix(spec, weights[:, None] * (coords @ directions))
        assert np.array_equal(op.rows, rows.transpose(1, 0, 2))
        assert np.array_equal(op.weighted_basis,
                              directions * spec.y_weights[:, None])


@pytest.mark.parametrize("plant", [
    toy_model(), sloped_plant(), half_x_plant(), full_rank_plant()],
    ids=["toy", "sloped", "half_x", "full_rank"])
def test_coords_hold_the_diagonal_rows_coordinates(plant):
    """On the diagonal nodes the marched ``coords`` are the coordinates of
    the exact diagonal rows in the solution's basis, each summed one basis
    column at a time, and on the identity basis (sloped, full_rank) the
    rows themselves, bit for bit but for the sign of a zero: the transform
    factors ``coords`` as they stand."""
    spec = GridSpec(nx=20, ny=16)
    sol = solve_backstepping_kernels(plant, spec)
    rows = sol.diagonal_rows
    if sol.y_rank == spec.ny:
        want = rows
    else:
        want = np.column_stack([(rows * column).sum(axis=1)
                                for column in sol.basis.T])
    assert np.array_equal(sol.coords[spec.tri.diagonal_flat()], want)


@pytest.mark.parametrize("plant", [
    toy_model(), half_x_plant(), sloped_plant(), full_rank_plant()],
    ids=["toy", "half_x", "sloped", "full_rank"])
def test_ensemble_operator_is_the_projected_map_at_every_node(plant, rng):
    """The factored ensemble operator applies ``B.T @ A_j @ B`` at node
    (i, j), to 1e-13 of the sup, on the whole triangle and on one row at
    a time as the march calls it."""
    spec = GridSpec(nx=20, ny=16)
    tri = spec.tri
    problem = build_backstepping_problem(plant, spec)
    basis = problem.basis
    maps = [basis.T @ a @ basis
            for a in kernelsolve._ensemble_maps(problem.coeff)]
    c = rng.standard_normal((tri.n_nodes, basis.shape[1]))
    want = np.stack([c[t] @ maps[j] for t, j in enumerate(tri.j_index)])
    got = problem.apply_ensemble_operator(range(spec.nx + 1), c)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    for i in range(spec.nx + 1):
        row = tri.row_slice(i)
        assert np.array_equal(
            problem.apply_ensemble_operator(range(i, i + 1), c[row]),
            got[row])


@pytest.mark.parametrize("reader", ["build", "coordinate_step"])
def test_exchange_is_factored_without_its_stack(reader):
    """Both readers of the exchange factor it a slab at a time: each peaks,
    in traced memory, above the arrays it returns (the build's with the
    plant it samples) by less than half of the ``(nx + 1, ny, ny)`` stack
    of the exchange on the y-nodes."""
    plant = sloped_plant()
    spec = GridSpec(nx=100, ny=60)
    coeff = sample_coefficients(plant, spec)
    tracemalloc.start()
    try:
        if reader == "build":
            made = build_backstepping_problem(plant, spec)
            held = _array_bytes(made, made.coeff)
        else:
            made = coordinate_step(coeff, spec.dt,
                                   default_initial_state(spec).u)
            held = _array_bytes(made)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 8 * (spec.nx + 1) * spec.ny ** 2 / 2


@pytest.mark.parametrize("plant", [
    toy_model(), half_x_plant(), full_rank_plant()],
    ids=["toy", "half_x", "full_rank"])
def test_ensemble_maps_are_the_speed_derivative_plus_the_exchange(plant):
    """The solver's ensemble operator at each x-node, which the closure and
    the residual read, is diag(speed_u_dx) plus the weighted exchange of
    the whole sampled grid, bit for bit."""
    spec = GridSpec(nx=8, ny=12)
    coeff = sample_coefficients(plant, spec)
    exchange = exchange_grid(coeff)
    maps = list(kernelsolve._ensemble_maps(coeff))
    assert len(maps) == spec.nx + 1
    for j, a_j in enumerate(maps):
        assert np.array_equal(a_j, np.diag(coeff.speed_u_dx_grid[j])
                              + spec.y_weights[:, None] * exchange[j])


_coefficient = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.lists(_coefficient, min_size=10, max_size=10),
       st.floats(0.1, 8.0))
def test_y_subspace_holds_seeds_and_is_closed(c, width):
    """For a random smooth plant whose speed does not depend on y, the
    sweep basis B holds its seeds, the exact diagonal data on the diagonal
    nodes and the readout rows, and the data every crossing curve carries
    from its launch, and is closed under every x-node's map f -> f @ A_j."""
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

    def diagonal_data(at):
        y = spec.y_nodes
        return -plant.readout(at, y) / (plant.speed_u(at, y)
                                        + plant.speed_v(at))

    # the seeds, the diagonal rows exact as the problem holds them
    x = spec.x_nodes[:, None]
    assert np.array_equal(problem.diagonal_rows, diagonal_data(x))
    # and the data each crossing curve carries from its launch, as the
    # band's trace solves it (one family: the launch is the same on every
    # y-node)
    tri = spec.tri
    assert problem.family_y.size == 1
    launch = trace_crossing_batch(
        coeff, tri.x_coord, tri.xi_coord,
        np.full(tri.n_nodes, problem.family_y[0])).launch
    seeds = np.vstack([problem.diagonal_rows, coeff.readout_grid,
                       diagonal_data(launch[:, None])])
    scale = max(np.max(np.abs(seeds)), 1e-300)
    assert np.max(np.abs(outside(seeds))) <= 1e-12 * scale
    exchange = exchange_grid(coeff)
    for j in range(spec.nx + 1):
        a_j = (np.diag(coeff.speed_u_dx_grid[j])
               + spec.y_weights[:, None] * exchange[j])
        images = basis.T @ a_j
        assert (np.linalg.norm(outside(images), 2)
                <= 1e-12 * np.linalg.norm(a_j, 2))


class _RecordingArray:
    """Stands in for ``scalar_to_ensemble`` and keeps the scalar iterate
    each local sweep multiplies it by, for its rows read at a row's nodes
    too."""

    def __init__(self, array, iterates=None):
        self.array = array
        self.iterates = [] if iterates is None else iterates

    def __getitem__(self, index):
        return _RecordingArray(self.array[index], self.iterates)

    def __mul__(self, other):
        self.iterates.append(other[:, 0].copy())
        return self.array * other


@pytest.mark.parametrize("name, y_rank", [
    ("toy", 1), pytest.param("gauss", None, id="gauss"), ("full_rank", 16)])
def test_increment_is_the_sup_on_every_y_node(name, y_rank):
    """Every local sweep's increment is ``max|dC @ B.T|`` over every y-node,
    or the scalar's if larger, bit for bit, with one column as with many
    and on the identity basis of the per-y path (where it is ``max|dC|``);
    ``deltas[k]`` is the largest row increment of local sweep k + 1, a row
    that stopped sooner counting its last."""
    spec = GridSpec(nx=20, ny=16)
    problem = build_backstepping_problem(_reference_plants()[name], spec)
    _assert_closure_rank(problem.basis.shape[1], y_rank, spec.ny)
    calls = []
    scalars = _RecordingArray(problem.scalar_to_ensemble)
    operator = problem.apply_ensemble_operator

    def recording(rows, field):
        calls.append((rows, field.copy()))
        return operator(rows, field)

    sol = solve_goursat(dataclasses.replace(
        problem, apply_ensemble_operator=recording,
        scalar_to_ensemble=scalars))
    # a row's calls, in x order: one from each local sweep's iterates and
    # one from its converged iterates
    iterates = {}
    for (rows, field), scalar in zip(calls, scalars.iterates, strict=True):
        iterates.setdefault(rows, []).append((field, scalar))
    assert list(iterates) == [range(i, i + 1) for i in range(spec.nx + 1)]
    increments = [
        [max(float(np.max(np.abs((f1 - f0) @ problem.basis.T))),
             float(np.max(np.abs(g1 - g0))))
         for (f0, g0), (f1, g1) in zip(row, row[1:])]
        for row in iterates.values()]
    assert sol.iterations == max(len(steps) for steps in increments) > 5
    assert sol.deltas == tuple(
        max(steps[min(k, len(steps) - 1)] for steps in increments)
        for k in range(sol.iterations))
    assert sol.final_delta == sol.deltas[-1] < 1e-10
