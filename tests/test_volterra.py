"""Triangle Volterra machinery: composition, resolvents, coupling kernels."""

import math

import numpy as np
import pytest

from ensemble_backstep.errors import (
    DimensionError,
    DomainError,
    NonconvergenceError,
    NumericError,
)
from ensemble_backstep.grid import GridSpec
from ensemble_backstep.model import sample_coefficients
from ensemble_backstep.volterra import (
    compose,
    inverse_transform_kernels,
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
        got = res.values[spec.tri.flat(spec.nx, 0)]
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
        res = resolvent(spec, flat, tol=1e-12)
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

    def test_rejects_bad_tol(self):
        spec = GridSpec(nx=5, ny=3)
        with pytest.raises(DomainError):
            resolvent(spec, _const_tri(spec, 1.0), tol=0.0)

    def test_nonconvergence_carries_final_delta(self):
        spec = GridSpec(nx=20, ny=3)
        with pytest.raises(NonconvergenceError) as exc:
            resolvent(spec, _const_tri(spec, 3.0), max_terms=2)
        assert exc.value.final_delta is not None
        assert exc.value.final_delta > 0.0


class TestTargetCoupling:
    def test_zero_drive_gives_zero(self):
        spec = GridSpec(nx=20, ny=4)
        drive = np.zeros((spec.nx + 1, spec.ny))
        kappa = solve_target_coupling(spec, drive, _const_tri(spec, 1.0))
        assert kappa.shape == (spec.tri.n_nodes, spec.ny)
        assert np.all(kappa == 0.0)

    def test_constant_data_closed_form(self):
        # unit drive and constant scalar kernel c solve to c*exp(c*(x-xi))
        spec = GridSpec(nx=200, ny=4)
        c = 0.9
        drive = np.ones((spec.nx + 1, spec.ny))
        kappa = solve_target_coupling(spec, drive, _const_tri(spec, c))
        tri = spec.tri
        exact = c * np.exp(c * (tri.x_coord - tri.xi_coord))
        assert np.max(np.abs(kappa - exact[:, None])) <= 1e-6

    def test_residual_of_solution_is_tiny(self, toy):
        spec = GridSpec(nx=80, ny=24)
        coeff = sample_coefficients(toy, spec)
        ktilde = _const_tri(spec, TOY_CONST)
        kappa = solve_target_coupling(spec, coeff.drive_grid, ktilde)
        res = target_coupling_residual(spec, kappa, coeff.drive_grid, ktilde)
        assert res <= 1e-9

    def test_two_routes_agree(self, toy):
        # resolvent assembly vs direct successive approximation
        spec = GridSpec(nx=100, ny=40)
        coeff = sample_coefficients(toy, spec)
        ktilde = _const_tri(spec, TOY_CONST)
        via_resolvent = solve_target_coupling(spec, coeff.drive_grid, ktilde)
        via_picard = solve_target_coupling_picard(spec, coeff.drive_grid, ktilde)
        assert np.max(np.abs(via_resolvent - via_picard)) <= 1e-9

    def test_picard_nonconvergence(self, toy):
        spec = GridSpec(nx=20, ny=4)
        coeff = sample_coefficients(toy, spec)
        with pytest.raises(NonconvergenceError):
            solve_target_coupling_picard(
                spec, coeff.drive_grid, _const_tri(spec, TOY_CONST), max_iter=1)


class TestInverseKernels:
    def test_zero_scalar_kernel_returns_direct_kernel(self, rng):
        spec = GridSpec(nx=15, ny=8)
        k = rng.uniform(0.5, 1.5, (spec.tri.n_nodes, spec.ny))
        inv = inverse_transform_kernels(spec, k, _const_tri(spec, 0.0))
        assert np.all(inv.ltilde == 0.0)
        assert np.array_equal(inv.l, k)
        assert inv.n_terms_used == 1

    def test_constant_scalar_kernel_closed_form(self):
        spec = GridSpec(nx=200, ny=4)
        c = TOY_CONST
        k = np.zeros((spec.tri.n_nodes, spec.ny))
        inv = inverse_transform_kernels(spec, k, _const_tri(spec, c))
        tri = spec.tri
        exact = c * np.exp(c * (tri.x_coord - tri.xi_coord))
        assert np.max(np.abs(inv.ltilde - exact)) <= 1e-4

    def test_ensemble_part_is_consistent(self, rng):
        # l must satisfy l = k + ltilde*k with the package's own composition
        spec = GridSpec(nx=40, ny=6)
        k = rng.standard_normal((spec.tri.n_nodes, spec.ny))
        ktilde = 0.7 * rng.standard_normal(spec.tri.n_nodes)
        inv = inverse_transform_kernels(spec, k, ktilde)
        k_mat = tri_to_matrix(spec, k)
        lt_mat = tri_to_matrix(spec, inv.ltilde)
        expected = k + matrix_to_tri(spec, compose(spec.hx, k_mat, lt_mat))
        np.testing.assert_allclose(inv.l, expected, atol=1e-12)
