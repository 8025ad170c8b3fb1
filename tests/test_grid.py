"""Grids, quadrature, triangular indexing, and interpolation."""

import math

import numpy as np
import pytest

from ensemble_backstep.grid import (
    GridSpec,
    TriangularIndex,
    corner_weights,
    gregory_weights,
    row_basis,
    trapezoid_weights,
    y_subspace,
)


def _interpolate(tri, field, x, xi):
    """Value of a tri field at one point through its corner_weights stencil,
    a group of one point with weight 1."""
    x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
    idx, w = corner_weights(tri.nx, x[None], xi[None], np.ones((1,) + x.shape))
    return w @ field[idx]


class TestGridSpec:
    def test_node_layout(self):
        spec = GridSpec(nx=4, ny=3)
        np.testing.assert_allclose(spec.x_nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(spec.y_nodes, [0.0, 0.5, 1.0])
        assert spec.hx == 0.25
        assert spec.hy == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [dict(nx=1, ny=3), dict(nx=4, ny=1), dict(nx=4, ny=3, dt=0.0),
         dict(nx=4, ny=3, t_final=-1.0)],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


class TestQuadrature:
    def test_integrate_y_constant(self):
        for ny in (2, 3, 5, 17, 120):
            spec = GridSpec(nx=2, ny=ny)
            assert abs(spec.y_weights @ np.ones(ny) - 1.0) <= 1e-13

    def test_integrate_y_linear(self):
        spec = GridSpec(nx=2, ny=5)
        assert abs(spec.y_weights @ spec.y_nodes - 0.5) <= 1e-13

    def test_integrate_y_oscillatory(self):
        # integral of y(y-1)cos(2 pi y) over [0,1] is 1/(2 pi^2)
        spec = GridSpec(nx=2, ny=120)
        y = spec.y_nodes
        val = spec.y_weights @ (y * (y - 1.0) * np.cos(2.0 * np.pi * y))
        assert abs(val - 1.0 / (2.0 * np.pi**2)) <= 1e-4

    def test_integrate_x_constant(self):
        spec = GridSpec(nx=7, ny=2)
        assert abs(spec.x_weights @ np.ones(8) - 1.0) <= 1e-13

    def test_integrate_x_partial_upper_index(self):
        # the rule on the first five nodes integrates x over [0, 1/2]
        spec = GridSpec(nx=8, ny=2)
        val = trapezoid_weights(5, spec.hx) @ spec.x_nodes[:5]
        assert abs(val - 0.125) <= 1e-13

    def test_integrate_x_exponential(self):
        spec = GridSpec(nx=200, ny=2)
        val = spec.x_weights @ np.exp(spec.x_nodes)
        assert abs(val - (math.e - 1.0)) <= 1e-4

    def test_affine_exactness_all_sizes(self):
        for nx in (2, 3, 5, 17, 64):
            spec = GridSpec(nx=nx, ny=nx + 1)
            f = 2.0 - 3.0 * spec.x_nodes
            assert abs(spec.x_weights @ f - 0.5) <= 1e-13
            g = 2.0 - 3.0 * spec.y_nodes
            assert abs(spec.y_weights @ g - 0.5) <= 1e-13

    def test_weight_sums(self):
        for n in (2, 3, 4, 9):
            h = 0.1
            assert abs(trapezoid_weights(n, h).sum() - (n - 1) * h) <= 1e-14
            assert abs(gregory_weights(n, h).sum() - (n - 1) * h) <= 1e-14

    def test_gregory_beats_trapezoid_on_smooth_integrand(self):
        # end-corrected weights should gain roughly two orders of accuracy
        n, h = 51, 1.0 / 50
        x = np.arange(n) * h
        f = np.exp(x)
        exact = math.e - 1.0
        err_trap = abs(trapezoid_weights(n, h) @ f - exact)
        err_greg = abs(gregory_weights(n, h) @ f - exact)
        assert err_greg < err_trap / 30.0


class TestTriangularIndex:
    def test_counts_and_order(self):
        tri = TriangularIndex(4)
        assert tri.n_nodes == 15
        assert tri.row_start[0] == 0
        assert tri.row_start[4] + 4 == 14
        # row-major: i index nondecreasing, j resets per row
        assert np.all(np.diff(tri.i_index) >= 0)
        for i in range(5):
            sl = tri.row_slice(i)
            np.testing.assert_array_equal(tri.j_index[sl], np.arange(i + 1))
            assert np.all(tri.i_index[sl] == i)

    def test_no_node_above_diagonal(self):
        tri = TriangularIndex(9)
        assert np.all(tri.j_index <= tri.i_index)

    def test_diagonal_flat(self):
        tri = TriangularIndex(5)
        diag = tri.diagonal_flat()
        assert np.all(tri.i_index[diag] == tri.j_index[diag])
        assert diag.shape == (6,)


class TestBilinearTri:
    """Interpolation on the triangle through the corner_weights stencils."""

    def test_constant_field(self):
        tri = TriangularIndex(6)
        field = np.full(tri.n_nodes, 3.25)
        assert abs(_interpolate(tri, field, 0.41, 0.17) - 3.25) <= 1e-13

    def test_reproduces_coordinate(self):
        tri = TriangularIndex(10)
        field = tri.x_coord.copy()
        assert abs(_interpolate(tri, field, 0.35, 0.1) - 0.35) <= 1e-12

    def test_product_field_at_cell_center(self):
        # bilinear interpolation is exact for a + bx + c xi + d x xi
        tri = TriangularIndex(10)
        field = tri.x_coord * tri.xi_coord
        val = _interpolate(tri, field, 0.65, 0.25)
        assert abs(val - 0.65 * 0.25) <= 1e-13

    def test_affine_reproduction_random_queries(self, rng):
        tri = TriangularIndex(12)
        a, b, c = 0.7, -1.3, 2.1
        field = a + b * tri.x_coord + c * tri.xi_coord
        for _ in range(100):
            x = rng.uniform(0.0, 1.0)
            xi = rng.uniform(0.0, x)
            val = _interpolate(tri, field, x, xi)
            assert abs(val - (a + b * x + c * xi)) <= 1e-12

    def test_vector_field_interpolation(self):
        tri = TriangularIndex(8)
        field = np.stack([tri.x_coord, 2.0 * tri.xi_coord], axis=1)
        val = _interpolate(tri, field, 0.5, 0.25)
        np.testing.assert_allclose(val, [0.5, 0.5], atol=1e-12)

    def test_corner_weights_partition_of_unity(self, rng):
        nx = 9
        xs = rng.uniform(0.0, 1.0, 200)
        xis = xs * rng.uniform(0.0, 1.0, 200)
        idx4, w4 = corner_weights(nx, xs[None], xis[None],
                                  np.ones((1,) + xs.shape))
        np.testing.assert_allclose(w4.sum(axis=1), 1.0, atol=1e-12)
        assert idx4.min() >= 0
        assert idx4.max() < TriangularIndex(nx).n_nodes


def _one_shot_basis(matrix):
    """The row basis of one QR of the whole stack, as it was factored
    before the R factor was carried across slabs."""
    _, sv, vt = np.linalg.svd(np.linalg.qr(matrix, mode="r"),
                              full_matrices=False)
    cutoff = sv.max(initial=0.0) * max(matrix.shape) * np.finfo(float).eps
    return vt[:int(np.count_nonzero(sv > cutoff))].T


def _blocks(matrix, rows):
    """``matrix`` as a family of blocks of ``rows`` rows each."""
    return [matrix[at:at + rows] for at in range(0, len(matrix), rows)]


class TestRowBasis:
    def test_recovers_rank_and_matrix(self, rng):
        # 125 blocks of 40 rows, one slab each
        m = rng.standard_normal((5000, 3)) @ rng.standard_normal((3, 40))
        q = row_basis(_blocks(m, 40))
        assert q.shape == (40, 3)
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-14)
        assert np.max(np.abs((m @ q) @ q.T - m)) <= 1e-13 * np.max(np.abs(m))

    def test_full_rank_and_zero(self, rng):
        m = rng.standard_normal((9000, 12))
        q = row_basis(_blocks(m, 100))
        assert q.shape == (12, 12)
        assert np.max(np.abs((m @ q) @ q.T - m)) <= 1e-13 * np.max(np.abs(m))
        # zero blocks, one slab or several, have rank 0
        assert row_basis([np.zeros((7, 5))]).shape == (5, 0)
        assert row_basis([np.zeros((7, 5))] * 9).shape == (5, 0)

    def test_tall_low_rank_matrix_factors_at_its_rank(self, rng):
        # a tall rank-5 matrix factors at rank 5 and reproduces itself
        m = rng.standard_normal((5000, 5)) @ rng.standard_normal((5, 60))
        q = row_basis(_blocks(m, 30))
        assert q.shape == (60, 5)
        np.testing.assert_allclose(q.T @ q, np.eye(5), rtol=0.0, atol=1e-13)
        assert np.max(np.abs((m @ q) @ q.T - m)) <= 1e-12 * np.max(np.abs(m))

    def test_empty_matrix(self):
        assert row_basis([np.zeros((0, 0))]).shape == (0, 0)

    @pytest.mark.parametrize("rows", [(5000,), (4, 4, 4), (12,), (1,) * 12])
    def test_one_slab_is_the_one_shot_qr(self, rng, rows):
        # one block of any size, or blocks of at most ny**2 = 144 values in
        # all, factor bit for bit as one QR of their stack
        m = rng.standard_normal((sum(rows), 3)) @ rng.standard_normal((3, 12))
        blocks = np.split(m, np.cumsum(rows)[:-1])
        assert np.array_equal(row_basis(blocks), _one_shot_basis(m))

    @pytest.mark.parametrize("rank", [1, 3, 16])
    def test_slabs_keep_the_rank_and_span(self, rng, rank):
        # 201 blocks of 16 x 16, one slab each, as an exchange per x-node
        ny = 16
        m = (rng.standard_normal((201 * ny, rank))
             @ rng.standard_normal((rank, ny)))
        q = row_basis(_blocks(m, ny))
        one_shot = _one_shot_basis(m)
        assert q.shape == one_shot.shape == (ny, rank)
        assert np.max(np.abs(q @ q.T - one_shot @ one_shot.T)) <= 1e-12

    def test_cutoff_counts_every_row_of_the_family(self):
        # sigma_2 / sigma_1 = 100 eps stands above the cutoff of the last
        # slab's 8 rows, 8 eps, but not above that of the family's 4000,
        # 4000 eps
        ny = 4
        first = np.zeros((ny, ny))
        first[0, 0] = 1.0
        first[1, 1] = 100.0 * np.finfo(float).eps
        blocks = [first] + [np.zeros((ny, ny))] * 999
        q = row_basis(blocks)
        assert q.shape == (ny, 1)
        assert np.array_equal(np.abs(q[:, 0]), [1.0, 0.0, 0.0, 0.0])
        assert row_basis(blocks[:2]).shape == (ny, 2)


class TestYSubspace:
    def test_zero_family_keeps_the_seed_basis(self, rng):
        seeds = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 9))
        basis = y_subspace(seeds, lambda: [np.zeros((9, 9))] * 3)
        assert np.array_equal(basis, row_basis([seeds]))

    def test_nilpotent_shift_grows_to_its_span(self):
        # e_k -> e_{k+1} for k < 3 in row form (f -> f @ a): from e_0 three
        # growth passes add e_1, e_2 and e_3, and a fourth adds nothing
        ny = 8
        shift = np.zeros((ny, ny))
        shift[[0, 1, 2], [1, 2, 3]] = 1.0
        passes = []

        def maps():
            passes.append(None)
            yield shift

        basis = y_subspace(np.eye(ny)[:1], maps)
        assert basis.shape == (ny, 4)
        assert len(passes) == 4
        np.testing.assert_allclose(basis.T @ basis, np.eye(4), atol=1e-15)
        span = np.zeros((ny, ny))
        span[:4, :4] = np.eye(4)
        np.testing.assert_allclose(basis @ basis.T, span, atol=1e-15)

    def test_full_rank_closure_is_the_identity(self):
        # a cyclic shift carries e_0 through every y-node
        ny = 5
        cycle = np.roll(np.eye(ny), 1, axis=1)
        basis = y_subspace(np.eye(ny)[:1], lambda: [cycle])
        assert np.array_equal(basis, np.eye(ny))
