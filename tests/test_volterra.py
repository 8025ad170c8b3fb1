"""Triangle Volterra machinery: composition, resolvents, coupling kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ensemble_backstep.errors import (
    DimensionError,
    NonconvergenceError,
    NumericError,
)
from ensemble_backstep.grid import GridSpec, gregory_weights
from ensemble_backstep.model import sample_coefficients
from ensemble_backstep.simulator import inverse_transform, transform_operator
from ensemble_backstep.volterra import (
    compose,
    matrix_to_tri,
    resolvent,
    solve_target_coupling,
    solve_target_coupling_picard,
    target_coupling_residual,
    tri_to_matrix,
)

TOY_CONST = 35.0 / (2.0 * np.pi**2)


def _const_tri(spec, value):
    return np.full(spec.tri.n_nodes, float(value))


def _drive_times(spec, drive, coupling):
    """kappa(x, xi, y) = drive(x, y) * coupling(x, xi), shape (n_tri, ny)."""
    return drive[spec.tri.i_index] * coupling[:, None]


class TestTriangleStorage:
    def test_round_trip_scalar(self, rng):
        spec = GridSpec(nx=9, ny=4)
        flat = rng.standard_normal(spec.tri.n_nodes)
        mat = tri_to_matrix(spec, flat)
        assert mat.shape == (10, 10)
        assert np.array_equal(matrix_to_tri(spec, mat), flat)
        # strictly-upper part is zero
        assert np.max(np.abs(np.triu(mat, 1))) == 0.0

    def test_round_trip_batched(self, rng):
        spec = GridSpec(nx=7, ny=5)
        flat = rng.standard_normal((spec.tri.n_nodes, spec.ny))
        mat = tri_to_matrix(spec, flat)
        assert mat.shape == (spec.ny, 8, 8)
        assert np.array_equal(matrix_to_tri(spec, mat), flat)

    def test_rejects_bad_shapes(self):
        spec = GridSpec(nx=5, ny=3)
        with pytest.raises(DimensionError):
            tri_to_matrix(spec, np.zeros(4))
        with pytest.raises(DimensionError):
            tri_to_matrix(spec, np.zeros((spec.tri.n_nodes, 2, 2)))
        with pytest.raises(DimensionError):
            matrix_to_tri(spec, np.zeros(6))


class TestCompose:
    def test_constant_kernels_give_span_length(self):
        spec = GridSpec(nx=16, ny=3)
        ones = tri_to_matrix(spec, _const_tri(spec, 1.0))
        out = compose(spec.hx, ones, ones)
        x = spec.x_nodes
        expected = np.tril(x[:, None] - x[None, :])
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_empty_and_single_spans(self):
        spec = GridSpec(nx=8, ny=3)
        ones = tri_to_matrix(spec, _const_tri(spec, 1.0))
        out = compose(spec.hx, ones, ones)
        assert np.all(np.diagonal(out) == 0.0)
        np.testing.assert_allclose(np.diagonal(out, -1), spec.hx, atol=1e-15)

    def test_bilinearity(self, rng):
        spec = GridSpec(nx=10, ny=3)
        a = np.tril(rng.standard_normal((11, 11)))
        b = np.tril(rng.standard_normal((11, 11)))
        c = np.tril(rng.standard_normal((11, 11)))
        lhs = compose(spec.hx, a, 2.0 * b + c)
        rhs = 2.0 * compose(spec.hx, a, b) + compose(spec.hx, a, c)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestResolvent:
    def test_zero_kernel(self):
        spec = GridSpec(nx=12, ny=3)
        res = resolvent(spec, _const_tri(spec, 0.0))
        assert res.n_terms_used == 1
        assert res.tail_bound == 0.0
        assert np.all(res.values == 0.0)

    def test_unit_constant_kernel_matches_exponential(self):
        spec = GridSpec(nx=200, ny=3)
        res = resolvent(spec, _const_tri(spec, 1.0))
        tri = spec.tri
        exact = np.exp(tri.x_coord - tri.xi_coord)
        assert np.max(np.abs(res.values - exact)) <= 1e-6

    def test_toy_constant_kernel(self):
        spec = GridSpec(nx=200, ny=3)
        c = TOY_CONST
        res = resolvent(spec, _const_tri(spec, c))
        got = res.values[spec.tri.row_start[spec.nx]]
        assert abs(got - c * np.exp(c)) <= 1e-4

    def test_term_sups_decay_factorially(self):
        spec = GridSpec(nx=100, ny=3)
        res = resolvent(spec, _const_tri(spec, TOY_CONST))
        sups = np.array(res.term_sups)
        # term n has sup c^n / (n-1)!; demand each recorded sup stays below
        # twice that envelope
        n = np.arange(1, sups.shape[0] + 1)
        envelope = TOY_CONST**n / np.array(
            [math.factorial(int(m) - 1) for m in n], dtype=float)
        assert np.all(sups <= 2.0 * envelope)
        assert sups[-1] <= 1e-12

    def test_series_satisfies_its_fixed_point_equation(self, rng):
        spec = GridSpec(nx=60, ny=3)
        flat = 0.8 * rng.standard_normal(spec.tri.n_nodes)
        res = resolvent(spec, flat)
        kmat = tri_to_matrix(spec, flat)
        rmat = tri_to_matrix(spec, res.values)
        residual = rmat - kmat - compose(spec.hx, kmat, rmat)
        assert np.max(np.abs(residual)) <= 50.0 * 1e-12

    def test_rejects_nan_input(self):
        spec = GridSpec(nx=5, ny=3)
        bad = _const_tri(spec, 1.0)
        bad[3] = np.nan
        with pytest.raises(NumericError):
            resolvent(spec, bad)

    def test_nonconvergence_carries_final_delta(self):
        spec = GridSpec(nx=20, ny=3)
        with pytest.raises(NonconvergenceError) as exc:
            # the terms of a constant 30 shrink like 30**n / n!, and are
            # still far above the tolerance after the 60-term budget
            resolvent(spec, _const_tri(spec, 30.0))
        assert exc.value.final_delta is not None
        assert exc.value.final_delta > 0.0


class TestTargetCoupling:
    def test_zero_drive_gives_zero(self):
        spec = GridSpec(nx=20, ny=4)
        drive = np.zeros((spec.nx + 1, spec.ny))
        coupling = solve_target_coupling(spec, _const_tri(spec, 1.0))
        assert coupling.shape == (spec.tri.n_nodes,)
        assert np.all(_drive_times(spec, drive, coupling) == 0.0)
        picard = solve_target_coupling_picard(spec, drive, _const_tri(spec, 1.0))
        assert np.all(picard == 0.0)

    def test_constant_data_closed_form(self):
        # unit drive and constant scalar kernel c solve to c*exp(c*(x-xi))
        spec = GridSpec(nx=200, ny=4)
        c = 0.9
        coupling = solve_target_coupling(spec, _const_tri(spec, c))
        tri = spec.tri
        exact = c * np.exp(c * (tri.x_coord - tri.xi_coord))
        assert np.max(np.abs(coupling - exact)) <= 1e-6

    def test_residual_of_solution_is_tiny(self, toy):
        spec = GridSpec(nx=80, ny=24)
        coeff = sample_coefficients(toy, spec)
        ktilde = _const_tri(spec, TOY_CONST)
        kappa = _drive_times(spec, coeff.drive_grid,
                             solve_target_coupling(spec, ktilde))
        res = target_coupling_residual(spec, kappa, coeff.drive_grid, ktilde)
        assert res <= 1e-9

    def test_two_routes_agree(self, toy):
        # drive times the resolvent vs direct successive approximation
        spec = GridSpec(nx=100, ny=40)
        coeff = sample_coefficients(toy, spec)
        ktilde = _const_tri(spec, TOY_CONST)
        via_resolvent = _drive_times(spec, coeff.drive_grid,
                                     solve_target_coupling(spec, ktilde))
        via_picard = solve_target_coupling_picard(spec, coeff.drive_grid, ktilde)
        assert np.max(np.abs(via_resolvent - via_picard)) <= 1e-9

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(-1.5, 1.5), min_size=7, max_size=7))
    def test_smooth_nonconstant_data(self, coef):
        # a non-constant ktilde and a drive that is not separable in (x, y):
        # drive times the resolvent solves the full equation to roundoff
        spec = GridSpec(nx=60, ny=6)
        tri = spec.tri
        x, xi = tri.x_coord, tri.xi_coord
        ktilde = (coef[0] + coef[1] * x + coef[2] * xi
                  + coef[3] * np.sin(np.pi * x) * np.cos(2.0 * xi))
        xs, ys = spec.x_nodes[:, None], spec.y_nodes[None, :]
        drive = (1.0 + coef[4] * xs * ys + coef[5] * np.sin(np.pi * xs * ys)
                 + coef[6] * np.exp(xs) * (ys - 0.5))
        kappa = _drive_times(spec, drive, solve_target_coupling(spec, ktilde))
        scale = float(np.max(np.abs(kappa)))
        res = target_coupling_residual(spec, kappa, drive, ktilde)
        assert res <= 1e-12 * scale
        via_picard = solve_target_coupling_picard(spec, drive, ktilde)
        assert np.max(np.abs(kappa - via_picard)) <= 1e-9

    def test_picard_nonconvergence(self, toy):
        spec = GridSpec(nx=20, ny=4)
        coeff = sample_coefficients(toy, spec)
        with pytest.raises(NonconvergenceError):
            solve_target_coupling_picard(
                spec, coeff.drive_grid, _const_tri(spec, TOY_CONST), max_iter=1)


class TestInverseKernels:
    """The inverse transform v = (I + L)(beta + J), L the resolvent."""

    def test_zero_scalar_kernel_returns_direct_kernel(self, rng):
        spec = GridSpec(nx=15, ny=8)
        k = rng.uniform(0.5, 1.5, (spec.tri.n_nodes, spec.ny))
        op = transform_operator(spec, k, _const_tri(spec, 0.0))
        assert np.all(op.resolvent == 0.0)
        alpha = rng.standard_normal((spec.nx + 1, spec.ny))
        beta = rng.standard_normal(spec.nx + 1)
        _, v = inverse_transform(op, alpha, beta)
        assert np.array_equal(v, beta + op.integrate(alpha))

    def test_constant_scalar_kernel_closed_form(self):
        # with ktilde = c the inverse maps beta = 1 to v = exp(c x)
        spec = GridSpec(nx=200, ny=4)
        c = TOY_CONST
        op = transform_operator(spec, np.zeros((spec.tri.n_nodes, spec.ny)),
                                _const_tri(spec, c))
        _, v = inverse_transform(op, np.zeros((spec.nx + 1, spec.ny)),
                                 np.ones(spec.nx + 1))
        assert np.max(np.abs(v - np.exp(c * spec.x_nodes))) <= 1e-4

    def test_ensemble_part_is_consistent(self):
        # (I + L)J must agree with the explicit inverse kernel l = k + L*k,
        # composed and integrated with the package's own quadrature, up to
        # the quadrature error (1.9e-5 at nx = 40, falling about eightfold
        # per halving of h)
        spec = GridSpec(nx=40, ny=6)
        tri = spec.tri
        x, xi, y = tri.x_coord[:, None], tri.xi_coord[:, None], spec.y_nodes
        k = np.cos(x + xi * y)
        ktilde = 0.7 * np.sin(2.0 * tri.x_coord - tri.xi_coord) + 0.3
        alpha = np.sin(np.pi * spec.x_nodes)[:, None] * (1.0 + y)
        _, v = inverse_transform(transform_operator(spec, k, ktilde), alpha,
                                 np.zeros(spec.nx + 1))
        lt_mat = tri_to_matrix(spec, solve_target_coupling(spec, ktilde))
        l = k + matrix_to_tri(spec, compose(spec.hx, tri_to_matrix(spec, k),
                                            lt_mat))
        inner = np.einsum("ny,ny->n", l, (alpha * spec.y_weights)[tri.j_index])
        expected = np.zeros(spec.nx + 1)
        for i in range(1, spec.nx + 1):
            expected[i] = gregory_weights(i + 1, spec.hx) @ inner[tri.row_slice(i)]
        assert np.max(np.abs(v - expected)) <= 1e-4 * np.max(np.abs(expected))
