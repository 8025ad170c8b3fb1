"""Goursat solver: boundary data, convergence, identities, determinism."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.integrate import quad

from conftest import full_rank_plant, half_x_plant, sloped_plant
from ensemble_backstep import cli, csvtable, kernelsolve
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
    y_factor,
)
from ensemble_backstep.kernelsolve import (
    KernelSolution,
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
from ensemble_backstep.simulator import transform_operator
from ensemble_backstep.volterra import tri_to_matrix

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

    def test_nonconvergence_carries_final_delta(self, toy, monkeypatch):
        problem = build_backstepping_problem(toy, SPEC)
        # a sweep budget too small for the tolerance (the toy at nx = 40
        # needs 20 sweeps; swept on, it reaches an exact fixed point, an
        # increment of 0.0, at sweep 25)
        monkeypatch.setattr(kernelsolve, "MAX_SWEEPS", 10)
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

    def test_coefficients_of_another_plant_or_grid_are_refused(
            self, toy, pure_transport):
        """Coefficients handed to the solve or the residuals must be the
        plant's, sampled on the solve's grid."""
        spec = GridSpec(nx=12, ny=6)
        coeff = sample_coefficients(toy, spec)
        sol = solve_backstepping_kernels(toy, spec, coeff=coeff)
        assert np.array_equal(sol.k, solve_backstepping_kernels(toy, spec).k)
        for plant, grid in ((pure_transport, spec),
                            (toy, GridSpec(nx=12, ny=8))):
            with pytest.raises(DimensionError):
                solve_backstepping_kernels(plant, grid, coeff=coeff)
        with pytest.raises(DimensionError):
            kernel_pde_residual(sol, pure_transport, coeff)


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
    for j in np.unique(jv):
        theta_term[jv == j] = weighted[jv == j] @ coeff.exchange_grid[j]
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


def test_curve_sharing_follows_the_sampled_speed(toy, monkeypatch):
    """y-nodes share crossing curves exactly where their sampled speeds agree.

    The toy traces one family; a speed that varies in y traces one per
    y-node; a speed constant in y on [0, 1/2] only traces one family for the
    15 nodes there and one per node above.  Each band traces the curves of
    every family in one call.
    """
    traced = []
    trace = kernelsolve.trace_crossing_batch

    def recording_trace(coeff, xs, xis, ys, **kwargs):
        traced.append(np.unique(ys))
        return trace(coeff, xs, xis, ys, **kwargs)

    monkeypatch.setattr(kernelsolve, "trace_crossing_batch", recording_trace)
    spec = GridSpec(nx=25, ny=30)
    solve_backstepping_kernels(toy, spec)
    assert len(traced) == len(kernelsolve._bands(spec.tri, 1))
    assert all(ys.size == 1 for ys in traced)

    sloped = sloped_plant()
    kinked = dataclasses.replace(
        toy, speed_u=lambda x, y: (1.0 + np.maximum(0.0, np.asarray(y) - 0.5)
                                   + 0.0 * np.asarray(x)))
    for plant, families in ((sloped, 30), (kinked, 16)):
        residual = {}
        for nx in (25, 50):
            traced.clear()
            spec = GridSpec(nx=nx, ny=30)
            sol = solve_backstepping_kernels(plant, spec)
            assert len(traced) == len(kernelsolve._bands(spec.tri, families))
            assert all(ys.size == families for ys in traced)
            residual[nx] = kernel_pde_residual(sol, plant)[0]
        # Curves traced at y = 0 only would leave the residual flat under
        # refinement; the per-group curves make it fall at first order.
        assert residual[50] < 0.8 * residual[25], residual


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


def _family_operator(plant, spec, family, y=0.75):
    coeff = sample_coefficients(plant, spec)
    tri = spec.tri
    if family == "cross":
        bundle = trace_crossing_batch(coeff, tri.x_coord, tri.xi_coord,
                                      np.full(tri.n_nodes, y))
    else:
        bundle = trace_edge_batch(coeff, tri.x_coord, tri.xi_coord)
    return kernelsolve._quadrature_matrix(spec, bundle), bundle


@pytest.mark.parametrize("plant_name, family", [
    ("toy", "cross"), ("toy", "edge"), ("sloped", "cross"),
    ("half_x", "cross")])
def test_row_blocks_equal_one_shot_assembly(toy, plant_name, family):
    """The operator built block by block from the segment moments is the
    Simpson sum over the three points of every segment, in canonical CSR
    form."""
    spec = GridSpec(nx=30, ny=8)
    plant = {"toy": toy, "sloped": sloped_plant(),
             "half_x": half_x_plant()}[plant_name]
    op, bundle = _family_operator(plant, spec, family)
    assert op.shape == (spec.tri.n_nodes, spec.tri.n_nodes)
    assert op.has_canonical_format
    assert np.max(np.abs(op.toarray() - _one_shot_operator(spec, bundle))) <= 1e-14


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
    """Segment assembly stores no more nonzeros per family than sampling the
    curves at every trace step did."""
    plant = {"toy": toy, "sloped": sloped_plant(),
             "half_x": half_x_plant()}[plant_name]
    op, _ = _family_operator(plant, GridSpec(nx=30, ny=8), family)
    assert op.nnz <= _SAMPLED_NNZ[plant_name, family]


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
    2.10e-3 with sampling, and its error against an nx = 200 solution is as
    close (2.77e-3 and 2.74e-3 at nx = 25)."""
    gap_k, _ = _refinement_gap(sloped_plant())
    assert gap_k <= 1.887176e-3
    gap_k, gap_kt = _refinement_gap(half_x_plant())
    assert gap_k <= 1.666297e-4
    assert gap_kt <= 1.168731e-3


@pytest.mark.parametrize("plant_name", ["toy", "sloped", "half_x"])
def test_band_partition_moves_kernels_by_rounding(toy, plant_name,
                                                  monkeypatch):
    """Marching in bands of rows (at least 3 here) solves the kernels of one
    band over the whole triangle to rounding: straight and curved
    characteristics, one family and one per y-node."""
    spec = GridSpec(nx=40, ny=16)
    plant = {"toy": toy, "sloped": sloped_plant(),
             "half_x": half_x_plant()}[plant_name]
    monkeypatch.setattr(kernelsolve, "_BAND_SEGMENTS", np.inf)
    assert len(kernelsolve._bands(spec.tri, spec.ny)) == 1
    whole = solve_backstepping_kernels(plant, spec)
    monkeypatch.setattr(kernelsolve, "_BAND_SEGMENTS", 2048)
    assert len(kernelsolve._bands(spec.tri, 1)) >= 3
    banded = solve_backstepping_kernels(plant, spec)
    assert np.max(np.abs(banded.k - whole.k)) <= 1e-12 * np.max(np.abs(whole.k))
    assert (np.max(np.abs(banded.ktilde - whole.ktilde))
            <= 1e-12 * np.max(np.abs(whole.ktilde)))


def test_bands_read_no_row_above_them(toy, monkeypatch):
    """Every operator row of a band, and every edge launch it interpolates,
    reads only rows at or below its own: a launch on x-line i (the edge
    curve from (x_i, 0) has no length) reads rows i - 1 and i, one from row
    0 reads row 0 alone."""
    spec = GridSpec(nx=60, ny=8)
    tri = spec.tri
    monkeypatch.setattr(kernelsolve, "_BAND_SEGMENTS", 4096)
    for plant in (toy, half_x_plant(), sloped_plant()):
        problem = build_backstepping_problem(plant, spec)
        bands = kernelsolve._bands(tri, problem.family_y.size)
        assert len(bands) >= 10
        for rows in bands:
            nodes = kernelsolve._nodes(tri, rows)
            _, cross, edge, (flat0, flat1, frac) = (
                kernelsolve._band_operators(problem, nodes))
            lanes = cross.shape[1] // tri.n_nodes
            assert cross.indices.max() < lanes * nodes.stop
            assert edge.indices.max() < nodes.stop
            row = tri.i_index[nodes]
            lower, upper = tri.i_index[flat0], tri.i_index[flat1]
            assert np.all((tri.j_index[flat0] == 0) & (tri.j_index[flat1] == 0))
            assert np.all(lower <= np.maximum(row - 1, 0))
            assert np.all(upper == np.minimum(lower + 1, row))
            assert np.all((frac >= 0.0) & (frac <= 1.0))
            assert np.all(frac[row == 0] == 0.0)


@pytest.mark.parametrize("name", ["toy", "sloped"])
def test_build_traces_nothing(name, monkeypatch):
    """The build reads only the sampled plant: it calls no trace and forms
    no band.  The solve traces every band's crossing curves, of every
    family, in one call, each curve exactly once, the bands in x order."""
    plant = {"toy": toy_model(), "sloped": sloped_plant()}[name]
    spec = GridSpec(nx=20, ny=6)
    tri = spec.tri
    monkeypatch.setattr(kernelsolve, "_BAND_SEGMENTS", 256)
    calls, crossing_points = [], []
    for attr in ("trace_edge_batch", "_bands"):
        monkeypatch.setattr(kernelsolve, attr, _recording(
            getattr(kernelsolve, attr), lambda _, attr=attr: calls.append(attr)))
    trace = kernelsolve.trace_crossing_batch

    def recording_crossing(coeff, xs, xis, ys):
        crossing_points.append(np.column_stack([xs, xis, ys]))
        return trace(coeff, xs, xis, ys)

    monkeypatch.setattr(kernelsolve, "trace_crossing_batch",
                        recording_crossing)
    problem = build_backstepping_problem(plant, spec)
    assert calls == [] and crossing_points == []
    solve_goursat(problem)
    traced = len(crossing_points), calls.count("trace_edge_batch")
    bands = kernelsolve._bands(tri, problem.family_y.size)
    assert len(bands) >= 3
    assert traced == (len(bands), len(bands))
    families = problem.family_y.size
    every_curve = np.column_stack([
        np.repeat(tri.x_coord, families), np.repeat(tri.xi_coord, families),
        np.tile(problem.family_y, tri.n_nodes)])
    assert np.array_equal(np.concatenate(crossing_points), every_curve)


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


@pytest.mark.parametrize("group", [[0, 1, 2, 3], [3, 1, 0, 2], [1, 0, 1, 1]])
def test_per_y_operator_applies_each_family_to_its_lanes(group, rng):
    """On the flat (node, y) unknowns, lane y of the per-y crossing operator
    is the operator of family ``group[y]``: in order, permuted (a speed
    falling in y), and shared by several y-nodes."""
    group = np.array(group)
    families, ny, nodes, columns = group.max() + 1, group.size, 5, 9
    op = sparse.random(nodes * families, columns, density=0.4, format="csr",
                       random_state=np.random.default_rng(1))
    field = rng.standard_normal((columns, ny))
    flat = (kernelsolve._per_y(op, group) @ field.ravel()).reshape(nodes, ny)
    for y, f in enumerate(group):
        assert np.allclose(flat[:, y], op[f::families] @ field[:, y],
                           rtol=1e-14, atol=1e-14)


def _dense_march_oracle(problem):
    """Both unknowns of the discrete kernel system (the band operators
    stacked over the triangle), solved densely with ``np.linalg.solve``:
    ``C = D + K(s2e G + A C)`` and ``G = g . interp(C) + E(d G + e2s . C)``,
    in the coordinates of ``problem.basis``."""
    from scipy import sparse

    spec = problem.spec
    tri = spec.tri
    n, r = tri.n_nodes, problem.basis.shape[1]
    parts = [kernelsolve._band_operators(problem, kernelsolve._nodes(tri, rows))
             for rows in kernelsolve._bands(tri, problem.family_y.size)]
    diagonal = np.concatenate([p[0] for p in parts])
    cross = sparse.vstack([p[1] for p in parts], format="csr").toarray()
    edge = sparse.vstack([p[2] for p in parts], format="csr").toarray()
    flat0, flat1, frac = (np.concatenate([p[3][k] for p in parts])
                          for k in range(3))
    lanes = cross.shape[1] // n
    everything = range(spec.nx + 1)

    j = tri.j_index

    def update(x):
        C, G = x[:n * r].reshape(n, r), x[n * r:]
        source = (problem.scalar_to_ensemble[j] * G[:, None]
                  + problem.apply_ensemble_operator(everything, C))
        if lanes == 1:
            C_new = cross @ source
        else:
            C_new = (cross @ source.ravel()).reshape(n, r)
        edge_rows = ((1.0 - frac)[:, None] * C[flat0]
                     + frac[:, None] * C[flat1])
        G_new = ((problem.edge_gain * edge_rows).sum(axis=1)
                 + edge @ (problem.scalar_decay[j] * G
                           + (problem.ensemble_to_scalar[j] * C).sum(axis=1)))
        return np.concatenate([C_new.ravel(), G_new])

    size = n * (r + 1)
    matrix = np.column_stack([update(e) for e in np.eye(size)])
    data = np.concatenate([diagonal.ravel(), np.zeros(n)])
    x = np.linalg.solve(np.eye(size) - matrix, data)
    C, G = x[:n * r].reshape(n, r), x[n * r:]
    return KernelSolution(coords=C, diagonal_rows=problem.diagonal_rows,
                          ktilde=G, iterations=0, final_delta=0.0, deltas=(),
                          spec=spec, basis=problem.basis).k, G


@pytest.mark.parametrize("name", ["toy", "gauss", "half_x", "sloped"])
def test_march_solves_the_discrete_system(name, monkeypatch):
    """The march, band by band, solves the discrete kernel system its band
    operators make: against a dense solve of the whole system, to 1e-12
    relative, on one family in a y-subspace (the toy, the Gaussian
    exchange), curved characteristics and one family per y-node."""
    plant = {"half_x": half_x_plant(), "sloped": sloped_plant(),
             **_reference_plants()}[name]
    spec = GridSpec(nx=16, ny=6)
    monkeypatch.setattr(kernelsolve, "_BAND_SEGMENTS", 128)
    problem = build_backstepping_problem(plant, spec)
    assert len(kernelsolve._bands(spec.tri, problem.family_y.size)) >= 4
    sol = solve_goursat(problem)
    k, ktilde = _dense_march_oracle(problem)
    assert np.max(np.abs(sol.k - k)) <= 1e-12 * np.max(np.abs(k))
    assert np.max(np.abs(sol.ktilde - ktilde)) <= 1e-12 * np.max(np.abs(ktilde))


def _recording(fn, log):
    """``fn``, passing each result to ``log`` on its way out."""
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        log(out)
        return out
    return wrapper


def _record_band_work(monkeypatch):
    """Record, as the solver runs, the nonzeros of every operator it
    assembles, the work bytes of every trace (256 B a segment and 128 B a
    curve of its bundle), the bytes of the diagonal data of every crossing
    trace's nodes (8 B a node and y-node, in six arrays while it is formed
    and projected) and the bytes of the arrays of every problem it
    builds."""
    nnz, work_bytes, problem_bytes = [], {}, []
    monkeypatch.setattr(kernelsolve, "_quadrature_matrix", _recording(
        kernelsolve._quadrature_matrix, lambda op: nnz.append(op.nnz)))
    monkeypatch.setattr(kernelsolve, "build_backstepping_problem", _recording(
        kernelsolve.build_backstepping_problem,
        lambda problem: problem_bytes.append(_array_bytes(problem))))
    for attr in ("trace_crossing_batch", "trace_edge_batch"):
        monkeypatch.setattr(kernelsolve, attr, _recording(
            getattr(kernelsolve, attr),
            lambda bundle, attr=attr: work_bytes.setdefault(attr, []).append(
                256 * bundle.weights.size + 128 * (bundle.offsets.size - 1))))
    trace = kernelsolve.trace_crossing_batch

    def recording_crossing(coeff, xs, xis, ys):
        nodes = np.size(xs) // np.unique(ys).size
        work_bytes.setdefault("diagonal data", []).append(
            6 * 8 * nodes * coeff.spec.ny)
        return trace(coeff, xs, xis, ys)

    monkeypatch.setattr(kernelsolve, "trace_crossing_batch", recording_crossing)
    return nnz, work_bytes, problem_bytes


def _band_bytes(nnz, work_bytes):
    """One band: its operators (12 B a nonzero, in at most three copies: as
    assembled, on flat (node, y) unknowns, and the band's own columns), the
    work arrays of its crossing and edge traces and its diagonal data."""
    return 3 * 12 * max(nnz) + sum(max(sizes) for sizes in work_bytes.values())


def _array_bytes(*objects):
    """The bytes of the arrays among the attributes of ``objects``."""
    return sum(value.nbytes for obj in objects for value in vars(obj).values()
               if isinstance(value, np.ndarray))


@pytest.mark.parametrize("name, nx", [("toy", 100), ("sloped", 80)],
                         ids=["toy", "sloped"])
def test_solve_holds_one_band_of_operators(name, nx, toy, monkeypatch):
    """With bands of a few thousand segments a whole solve peaks, in traced
    memory, at the arrays kept over the march, which hold no
    ``(n_tri, ny)`` array on one family, and one band
    (:func:`_band_bytes`), on one family in a y-subspace (the toy) and on
    one family per y-node.  Holding every band's operators, as a global
    sweep does, exceeds it."""
    plant = {"toy": toy, "sloped": sloped_plant()}[name]
    spec = GridSpec(nx=nx, ny=8)
    monkeypatch.setattr(kernelsolve, "_BAND_SEGMENTS", 4096)
    nnz, work_bytes, problem_bytes = _record_band_work(monkeypatch)
    tracemalloc.start()
    try:
        sol = solve_backstepping_kernels(plant, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_tri, r = sol.coords.shape
    # The problem's arrays (the diagonal data as coordinates and diagonal
    # rows) and the sampled grids; the march's unknowns (C and its source,
    # G and its source), which the solution keeps.
    kept = (problem_bytes[0] + _array_bytes(sample_coefficients(plant, spec))
            + 8 * n_tri * (2 * r + 2))
    bound = kept + _band_bytes(nnz, work_bytes)
    assert kept + 12 * sum(nnz) > bound
    assert peak <= bound


def test_kernels_command_forms_no_full_size_kernel(tmp_path, monkeypatch):
    """``kernels`` on the toy peaks in its solve, in traced memory, below
    the arrays it keeps (the sampled coefficients, the problem's arrays, the
    grid's index arrays and the march's unknowns, ``C`` among them, with the
    diagonal rows) and one band (:func:`_band_bytes`): the build forms no
    ``(n_tri, ny)`` array.  After the solve it forms
    ``k`` a block of rows at a time, in the residual, the closed-form error
    and the CSV writer, so that it peaks below what it holds (the
    coefficients, the solution and the grid's index arrays) plus the larger
    of one CSV chunk (512 B a line) and one block of ``k`` (128 B a value):
    an allowance smaller than any ``(n_tri, ny)`` array.  Nothing on the
    way asks for the whole ``k``."""
    spec = GridSpec(nx=100, ny=60)
    ny = spec.ny
    monkeypatch.setattr(kernelsolve, "_BAND_SEGMENTS", 4096)
    monkeypatch.setattr(csvtable, "_CHUNK_LINES", 2048)
    nnz, work_bytes, problem_bytes = _record_band_work(monkeypatch)
    coeffs, solutions, solve_peaks = [], [], []
    monkeypatch.setattr(cli, "sample_coefficients", _recording(
        cli.sample_coefficients, coeffs.append))

    def solve_and_reset_peak(*args, **kwargs):
        sol = solve_backstepping_kernels(*args, **kwargs)
        solve_peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        solutions.append(sol)
        return sol

    monkeypatch.setattr(cli, "solve_backstepping_kernels",
                        solve_and_reset_peak)
    tracemalloc.start()
    try:
        assert cli.cmd_kernels(cli.RunConfig(
            nx=spec.nx, ny=ny, output_dir=str(tmp_path))) == 0
        _, after_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (coeff,), (sol,) = coeffs, solutions
    n_tri, r = sol.coords.shape
    full_size = 8 * n_tri * ny
    grid = _array_bytes(sol.spec.tri)
    chunk = max(512 * csvtable._CHUNK_LINES, 128 * kernelsolve._BLOCK_VALUES)
    assert chunk < full_size
    kept = (problem_bytes[0] + _array_bytes(coeff) + grid
            + 8 * n_tri * (2 * r + 2))
    assert solve_peaks[0] <= kept + _band_bytes(nnz, work_bytes)
    # the command never asks for the whole k, and holds the solution's
    # own arrays only
    assert "k" not in vars(sol)
    assert after_peak <= _array_bytes(coeff, sol) + grid + chunk


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
                        lambda seeds, images, scale: np.eye(spec.ny))
    ref = solve_backstepping_kernels(plant, spec, tol=1e-10)
    assert ref.y_rank == spec.ny
    k, ktilde = ref.k, ref.ktilde
    assert np.max(np.abs(sol.k - k)) <= 1e-12 * np.max(np.abs(k))
    assert np.max(np.abs(sol.ktilde - ktilde)) <= 1e-12 * np.max(np.abs(ktilde))


@pytest.mark.parametrize("name, factor_rank", [
    ("toy", 1), ("gauss", 3), ("poly", 3), ("full_rank", 16),
    ("evaluator", 2)])
def test_transform_factors_the_kernel_in_its_basis(name, factor_rank, rng):
    """The solution's basis is orthonormal and holds every row of k, and
    the transform built on it integrates the full k: against a dense
    running-weight quadrature, no factoring, to rounding.  On the identity
    basis its factor is that of k itself, bit for bit."""
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
        loadings, directions = y_factor(k)
        rows = tri_to_matrix(spec, weights[:, None] * loadings)
        assert np.array_equal(op.rows, rows.transpose(1, 0, 2))
        assert np.array_equal(op.weighted_basis,
                              directions * spec.y_weights[:, None])


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
    for j in range(spec.nx + 1):
        a_j = (np.diag(coeff.speed_u_dx_grid[j])
               + spec.y_weights[:, None] * coeff.exchange_grid[j])
        images = basis.T @ a_j
        assert (np.linalg.norm(outside(images), 2)
                <= 1e-12 * np.linalg.norm(a_j, 2))


class _RecordingArray:
    """Stands in for ``scalar_to_ensemble`` and keeps the scalar iterate
    each local sweep multiplies it by, for its rows read at a band's nodes
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
    ("toy", 1), pytest.param("gauss", None, id="gauss")])
def test_increment_is_the_sup_on_every_y_node(name, y_rank, monkeypatch):
    """Every local sweep's increment is ``max|dC @ B.T|`` over every y-node,
    or the scalar's if larger, bit for bit, with one column as with many;
    ``deltas[k]`` is the largest band increment of local sweep k + 1, a band
    that stopped sooner counting its last."""
    spec = GridSpec(nx=20, ny=16)
    monkeypatch.setattr(kernelsolve, "_BAND_SEGMENTS", 1024)
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
    # a band's calls, in x order: one from each local sweep's iterates and
    # one from its converged iterates
    iterates = {}
    for (rows, field), scalar in zip(calls, scalars.iterates, strict=True):
        iterates.setdefault(rows, []).append((field, scalar))
    assert list(iterates) == kernelsolve._bands(spec.tri, 1)
    assert len(iterates) >= 3
    increments = [
        [max(float(np.max(np.abs((f1 - f0) @ problem.basis.T))),
             float(np.max(np.abs(g1 - g0))))
         for (f0, g0), (f1, g1) in zip(band, band[1:])]
        for band in iterates.values()]
    assert sol.iterations == max(len(steps) for steps in increments) > 5
    assert sol.deltas == tuple(
        max(steps[min(k, len(steps) - 1)] for steps in increments)
        for k in range(sol.iterations))
    assert sol.final_delta == sol.deltas[-1] < 1e-10
