"""Characteristic tracing: crossing times, launch points, path integrity."""

import numpy as np
import pytest

from conftest import half_x_plant, sloped_plant
from ensemble_backstep.characteristics import (
    trace_crossing_batch,
    trace_edge_batch,
)
from ensemble_backstep.errors import DomainError, NonconvergenceError
from ensemble_backstep.grid import GridSpec
from ensemble_backstep.model import PlantModel, sample_coefficients


def _plant(speed_u, speed_v, name="custom"):
    """Uncoupled plant with the given transport speeds."""
    return PlantModel(
        name=name,
        speed_u=speed_u,
        speed_v=speed_v,
        exchange=lambda x, y, e: np.zeros(
            np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(e))),
        drive=lambda x, y: np.zeros(
            np.broadcast_shapes(np.shape(x), np.shape(y))),
        readout=lambda x, y: np.zeros(
            np.broadcast_shapes(np.shape(x), np.shape(y))),
        inflow_gain=lambda y: np.zeros(np.shape(y)),
    )


SPEC = GridSpec(nx=50, ny=11)


def _curve(bundle):
    """The x and xi of the only curve of a one-point bundle at its points in
    path order: its start, then each segment's midpoint and end."""
    return tuple(np.append(p[0, :1], p[1:].T.ravel())
                 for p in (bundle.x, bundle.xi))


class TestCrossingClosedForms:
    def test_unit_speeds(self, toy):
        # equal constant speeds meet halfway: s = (x - xi)/2, launch midway
        for y in (0.0, 0.37, 1.0):
            cc = trace_crossing_batch(sample_coefficients(toy, SPEC),
                                      [1.0], [0.0], [y])
            assert abs(cc.s_end[0] - 0.5) <= 1e-9
            assert abs(cc.launch[0] - 0.5) <= 1e-9

    def test_degenerate_diagonal_point(self, toy):
        cc = trace_crossing_batch(sample_coefficients(toy, SPEC),
                                  [0.625], [0.625], [0.5])
        assert cc.s_end[0] == 0.0
        assert cc.launch[0] == 0.625
        assert cc.offsets[1] - cc.offsets[0] == 0
        assert cc.path_integral(np.ones_like(cc.x))[0] == 0.0

    def test_unequal_constant_speeds(self):
        plant = _plant(
            lambda x, y: 2.0 * np.ones(np.broadcast_shapes(np.shape(x), np.shape(y))),
            lambda x: np.ones(np.shape(x)),
        )
        cc = trace_crossing_batch(sample_coefficients(plant, SPEC),
                                  [0.9], [0.3], [0.5])
        assert abs(cc.s_end[0] - 0.2) <= 1e-9
        assert abs(cc.launch[0] - 0.7) <= 1e-9

    def test_random_triples_match_closed_form(self, toy, rng):
        xs = rng.uniform(0.0, 1.0, 200)
        xis = xs * rng.uniform(0.0, 1.0, 200)
        ys = rng.uniform(0.0, 1.0, 200)
        coeff = sample_coefficients(toy, SPEC)
        bundle = trace_crossing_batch(coeff, xs, xis, ys)
        np.testing.assert_allclose(bundle.s_end, (xs - xis) / 2.0, atol=1e-9)
        np.testing.assert_allclose(bundle.launch, (xs + xis) / 2.0, atol=1e-9)

    def test_curved_speeds_varying_in_x_and_y(self, rng):
        # speed_v = 1 + x/2 and speed_u = c (1 + x/2) with c = 1 + y/2 have
        # travel times 2 ln(1 + x/2) and 2 ln(1 + x/2) / c, so the launch l
        # has ln(1 + l/2) = (c ln(1 + x/2) + ln(1 + xi/2)) / (c + 1) and
        # s_end = 2 (ln(1 + x/2) - ln(1 + l/2))
        plant = _plant(
            lambda x, y: (1.0 + 0.5 * np.asarray(x)) * (1.0 + 0.5 * np.asarray(y)),
            lambda x: 1.0 + 0.5 * np.asarray(x, dtype=float),
        )
        xs = rng.uniform(0.0, 1.0, 500)
        xis = xs * rng.uniform(0.0, 1.0, 500)
        ys = rng.uniform(0.0, 1.0, 500)
        bundle = trace_crossing_batch(sample_coefficients(plant, SPEC),
                                      xs, xis, ys)
        c = 1.0 + 0.5 * ys
        log_launch = (c * np.log1p(xs / 2.0) + np.log1p(xis / 2.0)) / (c + 1.0)
        np.testing.assert_allclose(bundle.launch, 2.0 * np.expm1(log_launch),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(bundle.s_end,
                                   2.0 * (np.log1p(xs / 2.0) - log_launch),
                                   rtol=0.0, atol=1e-12)


class TestEdgeClosedForms:
    def test_unit_speed(self, toy):
        cc = trace_edge_batch(sample_coefficients(toy, SPEC), [0.8], [0.5])
        assert abs(cc.s_end[0] - 0.5) <= 1e-9
        assert abs(cc.launch[0] - 0.3) <= 1e-9

    def test_already_on_edge(self, toy):
        cc = trace_edge_batch(sample_coefficients(toy, SPEC), [0.4], [0.0])
        assert cc.s_end[0] == 0.0
        assert cc.launch[0] == 0.4

    def test_affine_speed(self):
        # speed 1 + x gives crossing time ln(1.5) and launch 1/3
        plant = _plant(
            lambda x, y: np.ones(np.broadcast_shapes(np.shape(x), np.shape(y))),
            lambda x: 1.0 + np.asarray(x, dtype=float),
        )
        cc = trace_edge_batch(sample_coefficients(plant, SPEC), [1.0], [0.5])
        assert abs(cc.s_end[0] - np.log(1.5)) <= 1e-8
        assert abs(cc.launch[0] - (2.0 / 1.5 - 1.0)) <= 1e-8

    @pytest.mark.parametrize("nx", [25, 50, 100])
    def test_event_time_on_curved_edge_curves(self, nx, rng):
        # speed_v = 1 + x/2 reaches the edge at s = 2 ln(1 + xi/2), the
        # travel time from 0 to xi
        coeff = sample_coefficients(half_x_plant(), GridSpec(nx=nx, ny=5))
        xs = rng.uniform(0.0, 1.0, 400)
        xis = xs * rng.uniform(0.0, 1.0, 400)
        bundle = trace_edge_batch(coeff, xs, xis)
        np.testing.assert_allclose(bundle.s_end, 2.0 * np.log1p(xis / 2.0),
                                   rtol=0.0, atol=1e-9)


class TestDomain:
    """Points outside 0 <= xi <= x <= 1, 0 <= y <= 1 are refused."""

    @pytest.mark.parametrize("x, xi", [
        (0.3, 0.5),        # xi above x
        (1.2, 0.5),        # x beyond the outlet
        (0.5, -0.1),       # xi below the inlet
        (np.nan, 0.2),     # not finite
        (0.7, np.inf),
    ], ids=["inverted", "x>1", "xi<0", "x-nan", "xi-inf"])
    def test_outside_triangle(self, toy, x, xi):
        with pytest.raises(DomainError):
            trace_crossing_batch(sample_coefficients(toy, SPEC),
                                 [0.5, x], [0.25, xi], [0.5, 0.5])
        with pytest.raises(DomainError):
            trace_edge_batch(sample_coefficients(toy, SPEC),
                             [0.5, x], [0.25, xi])

    @pytest.mark.parametrize("y", [1.5, -0.25, np.nan],
                             ids=["y>1", "y<0", "y-nan"])
    def test_outside_ensemble_range(self, toy, y):
        with pytest.raises(DomainError):
            trace_crossing_batch(sample_coefficients(toy, SPEC),
                                 [0.6], [0.2], [y])

    def test_roundoff_outside_is_accepted(self, toy):
        eps = 1e-13
        cc = trace_crossing_batch(sample_coefficients(toy, SPEC),
                                  [1.0 + eps, 0.4], [0.0, 0.4 + eps],
                                  [1.0 + eps, -eps])
        assert np.all(np.isfinite(cc.s_end))
        ce = trace_edge_batch(sample_coefficients(toy, SPEC),
                              [1.0 + eps], [-eps])
        assert np.all(np.isfinite(ce.s_end))


def _trace(family, coeff, xs, xis, stop=0):
    """A trace of ``family`` from the points ``(xs, xis)``, crossing curves
    at y = 0.3."""
    if family == "crossing":
        return trace_crossing_batch(coeff, xs, xis, np.full(np.shape(xs), 0.3),
                                    stop)
    return trace_edge_batch(coeff, xs, xis, stop)


class TestArguments:
    """Points that are not 1-D arrays of one length, and a stop line a
    curve cannot end on, are refused: the traces had answered wrongly or
    failed with an untyped error."""

    @pytest.mark.parametrize("family", ["crossing", "edge"])
    @pytest.mark.parametrize("stop", [-1, 8, 2.7, 50, [1, 2]], ids=[
        "negative", "above-point", "not-integer", "past-nx", "wrong-length"])
    def test_stop_it_cannot_honour(self, toy, family, stop):
        """From (0.5, 0.2) at nx = 10 the traces had wrapped stop -1 to
        the x-line nx and ended the curve there, above its point (``s_end``
        -0.5), ran it up to the line 8 above its point, truncated 2.7 to 2,
        and raised IndexError for 50 and a broadcast ValueError for two
        stops of one point."""
        coeff = sample_coefficients(toy, GridSpec(nx=10, ny=4))
        with pytest.raises(DomainError, match="stop"):
            _trace(family, coeff, [0.5], [0.2], stop)

    @pytest.mark.parametrize("family", ["crossing", "edge"])
    @pytest.mark.parametrize("xs, xis", [
        (0.5, 0.2), ([[0.5]], [[0.2]]), ([0.5, 0.6], [0.2])],
        ids=["scalar", "2-d", "unequal"])
    def test_points_of_another_shape(self, toy, family, xs, xis):
        """Scalar and 2-D points had raised IndexError, and unequal lengths
        a broadcast ValueError."""
        coeff = sample_coefficients(toy, GridSpec(nx=10, ny=4))
        with pytest.raises(DomainError, match="1-D"):
            _trace(family, coeff, xs, xis)

    def test_ys_of_another_length(self, toy):
        coeff = sample_coefficients(toy, GridSpec(nx=10, ny=4))
        with pytest.raises(DomainError, match="1-D"):
            trace_crossing_batch(coeff, [0.5, 0.6], [0.2, 0.1], [0.3])

    @pytest.mark.parametrize("family", ["crossing", "edge"])
    def test_stop_on_the_points_own_line(self, toy, family):
        """A stop line through the point itself, one stop for all or one
        per point of any integer type, ends each curve where it starts."""
        coeff = sample_coefficients(toy, GridSpec(nx=10, ny=4))
        for stop in (5, np.array([5, 5], dtype=np.uint8)):
            bundle = _trace(family, coeff, [0.5, 0.5], [0.2, 0.3], stop)
            assert np.array_equal(bundle.s_end, [0.0, 0.0])
            assert np.array_equal(bundle.end_xi, [0.2, 0.3])


class TestPathIntegrity:
    """Segments run backward from the query point to the event point."""

    def test_crossing_path_endpoints(self, toy):
        cc = trace_crossing_batch(sample_coefficients(toy, SPEC),
                                  [0.9], [0.2], [0.4])
        px, pxi = _curve(cc)
        assert px[0] == 0.9 and pxi[0] == 0.2
        assert abs(px[-1] - cc.launch[0]) <= 1e-9
        assert abs(pxi[-1] - cc.launch[0]) <= 1e-9
        assert np.all(np.diff(px) <= 1e-12)
        assert abs(cc.path_integral(np.ones_like(cc.x))[0]
                   - cc.s_end[0]) <= 1e-12

    def test_edge_path_endpoints(self, toy):
        cc = trace_edge_batch(sample_coefficients(toy, SPEC), [0.7], [0.45])
        px, pxi = _curve(cc)
        assert px[0] == 0.7 and pxi[0] == 0.45
        assert abs(pxi[-1] - 0.0) <= 1e-9
        assert abs(px[-1] - cc.launch[0]) <= 1e-9
        assert np.all(np.diff(px) <= 1e-12)

    def test_path_stays_on_straight_characteristic(self, toy):
        # with unit speeds the backward pair is x(s) = x - s, xi(s) = xi + s;
        # from (0.8, 0.1) it passes a grid node every 1/nx and ends at the
        # diagonal half a cell later, so it holds 18 cell segments, each with
        # its start, midpoint and end, weighted by 2/3 of its length
        cc = trace_crossing_batch(sample_coefficients(toy, SPEC),
                                  [0.8], [0.1], [0.9])
        assert np.array_equal(cc.offsets, [0, 18])
        ends = np.arange(19) / SPEC.nx
        ends[-1] = 0.35
        s = np.stack([ends[:-1], 0.5 * (ends[:-1] + ends[1:]), ends[1:]])
        np.testing.assert_allclose(cc.x, 0.8 - s, atol=1e-9)
        np.testing.assert_allclose(cc.xi, 0.1 + s, atol=1e-9)
        np.testing.assert_allclose(cc.weights, 2.0 * np.diff(ends) / 3.0,
                                   atol=1e-9)

    @pytest.mark.parametrize("family", ["cross", "edge"])
    def test_segments_chain_along_each_curve(self, family, rng):
        # within a curve each segment ends where the next starts, the first
        # starts at the query point, the last ends at the event, and the
        # path integral of 1 is the event time; along curved characteristics
        # of speeds 1 + x/2, with diagonal and edge points among them
        coeff = sample_coefficients(half_x_plant(), SPEC)
        xs = rng.uniform(0.0, 1.0, 150)
        xis = xs * rng.uniform(0.0, 1.0, 150)
        xis[:5] = 0.0 if family == "edge" else xs[:5]
        if family == "cross":
            bundle = trace_crossing_batch(coeff, xs, xis,
                                          rng.uniform(0.0, 1.0, 150))
            event_xi = bundle.launch
        else:
            bundle = trace_edge_batch(coeff, xs, xis)
            event_xi = np.zeros(xs.size)
        counts = np.diff(bundle.offsets)
        assert np.all(counts[:5] == 0) and np.all(counts[5:] > 0)
        moving = np.flatnonzero(counts)
        first, last = bundle.offsets[moving], bundle.offsets[moving + 1] - 1
        inner = np.ones(bundle.weights.size - 1, dtype=bool)
        inner[last[:-1]] = False
        for p, start, end in ((bundle.x, xs, bundle.launch),
                              (bundle.xi, xis, event_xi)):
            assert np.array_equal(p[2, :-1][inner], p[0, 1:][inner])
            assert np.array_equal(p[0, first], start[moving])
            np.testing.assert_allclose(p[2, last], end[moving], rtol=0.0,
                                       atol=1e-12)
        np.testing.assert_allclose(
            bundle.path_integral(np.ones_like(bundle.x)), bundle.s_end,
            rtol=1e-14, atol=0.0)


class TestBatchInvariants:
    def test_consistency_identity_crossing(self, toy, rng):
        # integral of (speed_u(xi(s), y) + speed_v(x(s))) ds equals x - xi
        coeff = sample_coefficients(toy, SPEC)
        xs = rng.uniform(0.0, 1.0, 120)
        xis = xs * rng.uniform(0.0, 1.0, 120)
        ys = rng.uniform(0.0, 1.0, 120)
        bundle = trace_crossing_batch(coeff, xs, xis, ys)
        lam = coeff.model.speed_u(np.clip(bundle.xi, 0, 1),
                                  _per_segment(bundle, ys))
        mu = coeff.model.speed_v(np.clip(bundle.x, 0, 1))
        val = bundle.path_integral(lam + mu)
        assert np.max(np.abs(val - (xs - xis))) <= 1e-6

    def test_consistency_identity_crossing_curved(self, rng):
        # the same identity along the curved characteristics of speeds
        # 1 + x/2: Simpson's rule on every cell segment, with each midpoint
        # read to fourth order, holds it to 1e-8 (sampling every trace step
        # with trapezoid weights left 2.2e-7)
        coeff = sample_coefficients(half_x_plant(), SPEC)
        xs = rng.uniform(0.0, 1.0, 120)
        xis = xs * rng.uniform(0.0, 1.0, 120)
        ys = rng.uniform(0.0, 1.0, 120)
        bundle = trace_crossing_batch(coeff, xs, xis, ys)
        lam = coeff.model.speed_u(bundle.xi, _per_segment(bundle, ys))
        mu = coeff.model.speed_v(bundle.x)
        val = bundle.path_integral(lam + mu)
        assert np.max(np.abs(val - (xs - xis))) <= 1e-8

    def test_consistency_identity_edge(self, toy, rng):
        # integral of speed_v along the curve from the edge equals xi
        coeff = sample_coefficients(toy, SPEC)
        xs = rng.uniform(0.0, 1.0, 120)
        xis = xs * rng.uniform(0.0, 1.0, 120)
        bundle = trace_edge_batch(coeff, xs, xis)
        mu = coeff.model.speed_v(np.clip(bundle.xi, 0, 1))
        val = bundle.path_integral(mu)
        assert np.max(np.abs(val - xis)) <= 1e-6

    def test_uniform_crossing_time_bound(self, toy, rng):
        coeff = sample_coefficients(toy, SPEC)
        eps1 = coeff.speed_u_min + coeff.speed_v_min
        xs = rng.uniform(0.0, 1.0, 300)
        xis = xs * rng.uniform(0.0, 1.0, 300)
        ys = rng.uniform(0.0, 1.0, 300)
        bundle = trace_crossing_batch(coeff, xs, xis, ys)
        assert np.all(bundle.s_end <= 1.0 / eps1 + 1e-9)

    def test_edge_time_independent_of_x(self, toy):
        coeff = sample_coefficients(toy, SPEC)
        xi = 0.3
        xs = np.array([0.35, 0.6, 0.85, 1.0])
        bundle = trace_edge_batch(coeff, xs, np.full(4, xi))
        assert np.max(bundle.s_end) - np.min(bundle.s_end) <= 1e-10

    def test_lipschitz_in_y(self, rng):
        # a y-dependent ensemble speed: the crossing time must vary smoothly
        coeff = sample_coefficients(sloped_plant(), SPEC)
        ys = np.linspace(0.0, 1.0, 50)
        bundle = trace_crossing_batch(coeff, np.full(50, 0.9), np.full(50, 0.2), ys)
        s = bundle.s_end
        quotients = np.abs(np.diff(s)) / (ys[1] - ys[0])
        # |ds/dy| <= (x - xi) * sup|d speed/dy| / eps1^2 = 0.7 * 0.5 / 4
        assert np.max(quotients) <= 0.7 * 0.5 / 4.0 + 1e-3
        # and the toy model's y-independent speed gives a flat crossing time
        toy_coeff = sample_coefficients(
            _plant(lambda x, y: np.ones(np.broadcast_shapes(np.shape(x), np.shape(y))),
                   lambda x: np.ones(np.shape(x))), SPEC)
        b2 = trace_crossing_batch(toy_coeff, np.full(50, 0.9), np.full(50, 0.2), ys)
        assert np.max(np.abs(np.diff(b2.s_end))) <= 1e-12


def _per_segment(bundle, values):
    """Per-curve values repeated onto each curve's segments."""
    return np.repeat(values, np.diff(bundle.offsets))


@pytest.mark.parametrize("make_plant", [half_x_plant, sloped_plant],
                         ids=["speeds-1+x/2", "speed_u-1+y/2"])
@pytest.mark.parametrize("family", ["cross", "edge"])
def test_batch_equals_one_point_traces(make_plant, family):
    """Curves traced together, some sharing starts, are bit for bit the
    curves traced alone."""
    coeff = sample_coefficients(make_plant(), SPEC)
    # a repeated point, a diagonal point, two xi = 0 points, and points
    # sharing x or (xi, y) with another
    xs = np.array([0.9, 0.9, 0.6, 0.6, 0.7, 0.9, 0.3, 0.55])
    xis = np.array([0.2, 0.2, 0.6, 0.0, 0.2, 0.4, 0.0, 0.1])
    ys = np.array([0.5, 0.5, 0.3, 0.8, 0.5, 0.5, 0.0, 1.0])

    def trace(sl):
        if family == "cross":
            return trace_crossing_batch(coeff, xs[sl], xis[sl], ys[sl])
        return trace_edge_batch(coeff, xs[sl], xis[sl])

    batch = trace(slice(None))
    singles = [trace(slice(c, c + 1)) for c in range(xs.size)]
    for name in ("x", "xi", "weights", "s_end", "launch"):
        joined = np.concatenate([getattr(b, name) for b in singles], axis=-1)
        assert np.array_equal(getattr(batch, name), joined), name
    lengths = [b.offsets[1] for b in singles]
    assert np.array_equal(batch.offsets, np.concatenate([[0], np.cumsum(lengths)]))


def test_stalling_speed_raises_nonconvergence():
    """A scalar speed of 1.999 at every node and 0.001 between nodes stalls
    the curves: each trace reports how many found no event, and of which
    family."""
    nx = 50
    plant = _plant(
        lambda x, y: np.ones(np.broadcast_shapes(np.shape(x), np.shape(y))),
        lambda x: 1.0 + 0.999 * np.cos(2.0 * np.pi * nx * np.asarray(x)),
    )
    coeff = sample_coefficients(plant, GridSpec(nx=nx, ny=5))
    assert np.all(coeff.speed_v_grid == 1.999)
    xs = [0.9, 0.8, 0.5, 0.3]
    xis = [0.1, 0.0, 0.5, 0.2]
    # crossing: the two widest gaps stall; the diagonal point is degenerate
    with pytest.raises(NonconvergenceError,
                       match=r"^2 characteristic curve.* found no cross event"):
        trace_crossing_batch(coeff, xs, xis, [0.5] * 4)
    # edge: all but the point already on the xi = 0 edge stall
    with pytest.raises(NonconvergenceError,
                       match=r"^3 characteristic curve.* found no edge event"):
        trace_edge_batch(coeff, xs, xis)


def test_speed_vanishing_on_one_y_spares_the_others():
    """An ensemble speed that vanishes between two nodes at y = 0.5 only,
    traced together with unit speeds at y = 0 and y = 1: the curves of the
    other rows keep their closed forms, and a curve across the stall
    raises."""
    plant = _plant(
        lambda x, y: np.where(np.abs(np.asarray(y) - 0.5) < 0.01,
                              40.0 * (np.asarray(x) - 0.55) ** 2,
                              np.ones(np.broadcast_shapes(np.shape(x),
                                                          np.shape(y)))),
        lambda x: np.ones(np.shape(x)),
    )
    coeff = sample_coefficients(plant, GridSpec(nx=10, ny=3))
    xs = np.array([0.9, 0.8, 0.95, 0.3])
    xis = np.array([0.1, 0.2, 0.9, 0.1])
    bundle = trace_crossing_batch(coeff, xs, xis, [0.0, 0.0, 1.0, 0.5])
    np.testing.assert_allclose(bundle.launch[:3], (xs + xis)[:3] / 2.0,
                               rtol=0.0, atol=1e-12)
    with pytest.raises(NonconvergenceError, match=r"^1 characteristic curve"):
        trace_crossing_batch(coeff, [0.9, 0.9], [0.1, 0.6], [0.0, 0.5])


def test_bundle_samples_fully_populated(toy, rng):
    """Every stored segment point is meaningful (no uninitialized tails)."""
    coeff = sample_coefficients(toy, SPEC)
    xs = rng.uniform(0.0, 1.0, 64)
    xis = xs * rng.uniform(0.0, 1.0, 64)
    ys = rng.uniform(0.0, 1.0, 64)
    bundle = trace_crossing_batch(coeff, xs, xis, ys)
    assert np.all(bundle.x >= -1e-6)
    assert np.all(bundle.x <= 1.0 + 1e-6)
    assert np.all(bundle.xi >= -1e-6)
    assert np.all(bundle.xi <= 1.0 + 1e-6)
    assert np.all(bundle.weights > 0.0)
    # the last segment of each curve ends at the refined meeting point
    last = bundle.offsets[1:] - 1
    np.testing.assert_allclose(bundle.x[2, last], bundle.launch, atol=1e-12)


@pytest.mark.parametrize("make_plant", [half_x_plant, sloped_plant],
                         ids=["half_x", "sloped"])
@pytest.mark.parametrize("family", ["crossing", "edge"])
def test_curve_stopped_at_a_line_continues_as_the_whole_curve(make_plant,
                                                              family):
    """A curve from node (i, j) stopped at x-line i - 1 is the start of its
    whole curve: a curve that reaches its event first is the whole curve,
    and one that reaches the line first, at ``(x_{i-1}, end_xi)``, leaves
    the whole curve from there, whose time, launch and path integral of a
    smooth function add up to the whole curve's: to rounding on straight
    characteristics, and on curved ones to the error of the cubic Hermite
    inverse of the travel times that reads the end point (below 1e-8 at
    nx = 16)."""
    spec = GridSpec(nx=16, ny=5)
    coeff = sample_coefficients(make_plant(), spec)
    tri = spec.tri
    moving = tri.i_index > 0
    xs, xis = tri.x_coord[moving], tri.xi_coord[moving]
    stop = tri.i_index[moving] - 1
    tol = 1e-8 if make_plant is half_x_plant else 1e-14

    def trace(x, xi, stop=0):
        if family == "crossing":
            return trace_crossing_batch(coeff, x, xi, np.full(x.size, 0.75),
                                        stop)
        return trace_edge_batch(coeff, x, xi, stop)

    def smooth(x, xi):
        return np.cos(3.0 * x) * (1.0 + xi * xi)

    whole, step = trace(xs, xis), trace(xs, xis, stop)
    at_line = np.isnan(step.launch)
    assert 0 < np.count_nonzero(at_line) < xs.size
    assert np.all(step.s_end <= whole.s_end + 1e-14)
    event = ~at_line
    assert np.array_equal(step.s_end[event], whole.s_end[event])
    assert np.array_equal(step.launch[event], whole.launch[event])
    end_x = spec.x_nodes[stop[at_line]]
    rest = trace(end_x, step.end_xi[at_line])
    assert np.allclose(step.s_end[at_line] + rest.s_end,
                       whole.s_end[at_line], rtol=0, atol=tol)
    assert np.allclose(rest.launch, whole.launch[at_line], rtol=0, atol=tol)
    parts = step.path_integral(smooth(step.x, step.xi))
    assert np.allclose(parts[at_line] + rest.path_integral(
        smooth(rest.x, rest.xi)), whole.path_integral(
        smooth(whole.x, whole.xi))[at_line], rtol=0, atol=tol)
