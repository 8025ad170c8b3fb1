"""Built-in plants, coefficient sampling, and exchange-operator identities."""

import dataclasses
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from conftest import full_rank_plant
from ensemble_backstep.errors import ConfigurationError
from ensemble_backstep.grid import GridSpec
from ensemble_backstep.kernelsolve import (_ensemble_maps,
                                          solve_backstepping_kernels)
from ensemble_backstep.model import (
    PlantModel,
    builtin_model,
    pure_transport_model,
    sample_coefficients,
    toy_analytic_kernels,
    toy_model,
)
from ensemble_backstep.simulator import simulate
from oracles import exchange_grid

TWO_C = 35.0 / np.pi**2
C_SCALAR = 35.0 / (2.0 * np.pi**2)


def _exchange(coeff, x_index, a):
    """The exchange integral at one x-node, by the y-quadrature of the
    sampled kernel."""
    return exchange_grid(coeff)[x_index] @ (coeff.spec.y_weights * a)


def _exchange_transpose(coeff, x_index, a):
    """The transposed exchange at one x-node, as the kernel solver applies
    it: ``a @ A_j``, whose speed derivative is zero on the toy."""
    a_j = next(islice(_ensemble_maps(coeff), x_index, None))
    return a @ a_j


class TestToyModel:
    def test_point_values(self, toy):
        assert float(toy.speed_u(0.3, 0.7)) == 1.0
        assert float(toy.speed_v(0.9)) == 1.0
        assert abs(float(toy.readout(0.0, 0.5)) - 17.5) <= 1e-14
        assert abs(float(toy.inflow_gain(0.5)) - (-1.0)) <= 1e-14
        assert abs(float(toy.exchange(1.0, 1.0, 0.0))
                   - (2.0 * 0.5 * (-0.5))) <= 1e-14
        assert abs(float(toy.drive(1.0, 1.0)) - (2.0 * 0.5 * np.e)) <= 1e-13

    def test_analytic_kernels_values(self):
        k, kt = toy_analytic_kernels()
        assert abs(float(kt(0.4, 0.1)) - C_SCALAR) <= 1e-14
        want = 35.0 * 0.5 * (-0.5) * np.exp(TWO_C)
        assert abs(float(k(1.0, 1.0, 0.5)) - want) <= 1e-10
        xs = np.linspace(0, 1, 7)
        assert np.max(np.abs(k(xs, 0.5 * xs, 0.0))) == 0.0
        assert np.max(np.abs(k(xs, 0.5 * xs, 1.0))) == 0.0

    def test_analytic_kernels_broadcast(self):
        k, kt = toy_analytic_kernels()
        out = k(np.ones((3, 1)), np.full((3, 1), 0.5), np.linspace(0, 1, 4)[None, :])
        assert out.shape == (3, 4)
        out_t = kt(np.ones(5), np.linspace(0, 1, 5))
        assert out_t.shape == (5,)

    def test_diagonal_identity_toy_kernels(self, toy):
        # (speed_u + speed_v) * k(x, x, y) + readout(x, y) = 0 at all nodes
        spec = GridSpec(nx=40, ny=33)
        k, _ = toy_analytic_kernels()
        x = spec.x_nodes[:, None]
        y = spec.y_nodes[None, :]
        resid = (toy.speed_u(x, y) + toy.speed_v(x)[..., None] * np.ones_like(y)) \
            * k(x, x, y) + toy.readout(x, y)
        assert np.max(np.abs(resid)) <= 1e-12

    def test_edge_identity_toy_kernels(self, toy):
        # speed_v(0) ktilde(x, 0) = integral q(y) speed_u(0,y) k(x, 0, y) dy
        # up to the O(hy^2) quadrature error of the y-rule; the bound scales
        # as hy^2 so refining y must tighten it
        k, kt = toy_analytic_kernels()
        prev = None
        for ny in (120, 240):
            spec = GridSpec(nx=4, ny=ny)
            y = spec.y_nodes
            worst = 0.0
            for x in spec.x_nodes:
                rhs = spec.y_weights @ (toy.inflow_gain(y) * toy.speed_u(0.0, y)
                                        * k(x, 0.0, y))
                lhs = float(toy.speed_v(0.0)) * float(kt(x, 0.0))
                worst = max(worst, abs(lhs - rhs))
            assert worst <= 20.0 * spec.hy**2
            if prev is not None:
                assert worst <= 0.3 * prev
            prev = worst

    def test_pure_transport_is_uncoupled(self, pure_transport):
        y = np.linspace(0, 1, 9)
        assert np.all(pure_transport.exchange(0.5, y[:, None], y[None, :]) == 0.0)
        assert np.all(pure_transport.drive(0.5, y) == 0.0)
        assert np.all(pure_transport.readout(0.5, y) == 0.0)
        assert np.all(pure_transport.inflow_gain(y) == 0.0)

    def test_builtin_lookup(self):
        assert builtin_model("toy").name == "toy"
        assert builtin_model("pure-transport").name == "pure-transport"
        with pytest.raises(ConfigurationError):
            builtin_model("no-such-plant")


class TestSampling:
    def test_shapes_and_bounds(self, toy):
        spec = GridSpec(nx=10, ny=7)
        coeff = sample_coefficients(toy, spec)
        assert coeff.speed_u_grid.shape == (11, 7)
        assert coeff.speed_v_grid.shape == (11,)
        for j in range(11):
            assert coeff.exchange_at(j).shape == (7, 7)
        assert coeff.drive_grid.shape == (11, 7)
        assert coeff.readout_grid.shape == (11, 7)
        assert coeff.inflow_gain_grid.shape == (7,)
        assert coeff.speed_u_min == 1.0
        assert coeff.speed_v_min == 1.0

    def test_rejects_nonpositive_speed(self):
        bad = PlantModel(
            name="bad",
            speed_u=lambda x, y: np.asarray(x) - 0.5,
            speed_v=lambda x: np.ones(np.shape(x)),
            exchange=lambda x, y, e: np.zeros(
                np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(e))),
            drive=lambda x, y: np.zeros(
                np.broadcast_shapes(np.shape(x), np.shape(y))),
            readout=lambda x, y: np.zeros(
                np.broadcast_shapes(np.shape(x), np.shape(y))),
            inflow_gain=lambda y: np.zeros(np.shape(y)),
        )
        with pytest.raises(ConfigurationError):
            sample_coefficients(bad, GridSpec(nx=4, ny=3))

    @pytest.mark.parametrize("run", ["solve", "simulate"])
    @pytest.mark.parametrize("name, change", [
        ("readout", lambda toy: {"readout": lambda x, y: np.where(
            np.asarray(y) == 0.5, np.inf, toy.readout(x, y))}),
        ("drive", lambda toy: {
            "drive": lambda x, y: np.nan * toy.drive(x, y)}),
        ("exchange", lambda toy: {
            "exchange": lambda x, y, eta: np.nan * toy.exchange(x, y, eta)}),
    ], ids=["readout-inf", "drive-nan", "exchange-nan"])
    def test_rejects_nonfinite_coefficients(self, toy, name, change, run):
        # a readout that is inf at the y-node 1/2, a NaN drive and a NaN
        # exchange are named, not left to fail the factoring of the
        # y-subspace; the exchange is checked where it is sampled
        plant = dataclasses.replace(toy, **change(toy))
        spec = GridSpec(nx=20, ny=9, dt=0.01, t_final=0.1)
        with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
            if run == "solve":
                solve_backstepping_kernels(plant, spec)
            else:
                simulate(sample_coefficients(plant, spec), spec)

    def test_owned_grids_are_kept_and_broadcasts_copied(self, toy):
        # an owned float array of the grid's or the exchange matrix's shape is
        # kept as the model returned it; a scalar and a broadcast view
        # become owned, writable arrays of the grid's shape
        spec = GridSpec(nx=6, ny=4)
        returned = {}

        def exchange(x, y, eta):
            returned["exchange"] = toy.exchange(x, y, eta)
            return returned["exchange"]

        def drive(x, y):
            returned["drive"] = np.broadcast_to(
                np.asarray(toy.drive(x, 0.25), dtype=float), (spec.nx + 1, spec.ny))
            return returned["drive"]

        plant = PlantModel(
            name="ownership", speed_u=toy.speed_u, speed_v=lambda x: 2.0,
            exchange=exchange, drive=drive, readout=toy.readout,
            inflow_gain=toy.inflow_gain)
        coeff = sample_coefficients(plant, spec)
        exchange = coeff.exchange_at(0)
        assert returned["exchange"].base is None
        assert exchange is returned["exchange"]
        assert returned["drive"].base is not None
        for grid, want in ((coeff.drive_grid, returned["drive"]),
                           (coeff.speed_v_grid, np.full(spec.nx + 1, 2.0))):
            assert grid.base is None and grid.flags.writeable
            assert grid.shape == want.shape
            np.testing.assert_array_equal(grid, want)

    @pytest.mark.parametrize("name", ["toy", "gauss", "full_rank"])
    def test_exchange_at_is_the_whole_grid(self, name, toy):
        # every x-node's matrix is bit for bit the grid sampled by one call
        # (the toy's x**3 rounds otherwise on a scalar x)
        gauss = dataclasses.replace(
            toy, exchange=lambda x, y, eta: x * np.exp(-(y - eta) ** 2))
        plant = {"toy": toy, "gauss": gauss,
                 "full_rank": full_rank_plant()}[name]
        coeff = sample_coefficients(plant, GridSpec(nx=40, ny=16))
        whole = exchange_grid(coeff)
        for j in range(coeff.spec.nx + 1):
            assert coeff.exchange_at(j).tobytes() == whole[j].tobytes()

    def test_sampling_holds_no_exchange_grid(self, toy):
        # the (nx+1, ny) grids only: a quarter of the exchange grid's
        # (nx+1) * ny**2 doubles is more than sampling ever holds
        spec = GridSpec(nx=100, ny=60)
        tracemalloc.start()
        try:
            sample_coefficients(toy, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (spec.nx + 1) * spec.ny ** 2 / 4

    def test_finite_difference_speed_derivative(self):
        # omit the analytic derivative; the sampled slope must still be right
        quad = PlantModel(
            name="quad-speed",
            speed_u=lambda x, y: 1.0 + 0.0 * np.asarray(x) * np.asarray(y),
            speed_v=lambda x: 1.0 + np.asarray(x, dtype=float) ** 2,
            exchange=lambda x, y, e: np.zeros(
                np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(e))),
            drive=lambda x, y: np.zeros(
                np.broadcast_shapes(np.shape(x), np.shape(y))),
            readout=lambda x, y: np.zeros(
                np.broadcast_shapes(np.shape(x), np.shape(y))),
            inflow_gain=lambda y: np.zeros(np.shape(y)),
        )
        spec = GridSpec(nx=50, ny=3)
        coeff = sample_coefficients(quad, spec)
        # centered differences are exact for quadratics at interior nodes
        np.testing.assert_allclose(coeff.speed_v_dx_grid[1:-1],
                                   2.0 * spec.x_nodes[1:-1], atol=1e-10)


class TestExchangeOperator:
    def test_zero_kernel(self, pure_transport):
        spec = GridSpec(nx=4, ny=9)
        coeff = sample_coefficients(pure_transport, spec)
        out = _exchange(coeff, 2, np.ones(9))
        assert np.all(out == 0.0)

    def test_unit_kernel_on_unit_field(self):
        unit = PlantModel(
            name="unit-exchange",
            speed_u=lambda x, y: np.ones(
                np.broadcast_shapes(np.shape(x), np.shape(y))),
            speed_v=lambda x: np.ones(np.shape(x)),
            exchange=lambda x, y, e: np.ones(
                np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(e))),
            drive=lambda x, y: np.zeros(
                np.broadcast_shapes(np.shape(x), np.shape(y))),
            readout=lambda x, y: np.zeros(
                np.broadcast_shapes(np.shape(x), np.shape(y))),
            inflow_gain=lambda y: np.zeros(np.shape(y)),
        )
        spec = GridSpec(nx=3, ny=17)
        coeff = sample_coefficients(unit, spec)
        out = _exchange(coeff, 1, np.ones(17))
        np.testing.assert_allclose(out, np.ones(17), atol=1e-13)

    def test_toy_orthogonality(self, toy):
        # the odd toy mode integrates the even profile eta(eta-1) to zero
        spec = GridSpec(nx=4, ny=120)
        coeff = sample_coefficients(toy, spec)
        eta = spec.y_nodes
        out = _exchange(coeff, 4, eta * (eta - 1.0))
        assert np.max(np.abs(out)) <= 1e-6

    def test_transpose_on_constant(self, toy):
        spec = GridSpec(nx=4, ny=120)
        coeff = sample_coefficients(toy, spec)
        out = _exchange_transpose(coeff, 4, np.ones(120))
        assert np.max(np.abs(out)) <= 1e-6

    def test_transpose_equals_direct_for_symmetric_kernel(self, toy, rng):
        spec = GridSpec(nx=4, ny=31)
        coeff = sample_coefficients(toy, spec)
        # the toy exchange kernel is symmetric in (y, eta)
        for _ in range(20):
            a = rng.standard_normal(31)
            np.testing.assert_allclose(_exchange(coeff, 3, a),
                                       _exchange_transpose(coeff, 3, a),
                                       atol=1e-13)

    def test_adjoint_identity(self, toy, rng):
        spec = GridSpec(nx=6, ny=41)
        coeff = sample_coefficients(toy, spec)
        for _ in range(10):
            a = rng.standard_normal(41)
            b = rng.standard_normal(41)
            lhs = spec.y_weights @ (a * _exchange(coeff, 5, b))
            rhs = spec.y_weights @ (_exchange_transpose(coeff, 5, a) * b)
            assert abs(lhs - rhs) <= 1e-10


def test_module_level_aliases():
    assert toy_model().name == "toy"
    assert pure_transport_model().name == "pure-transport"
