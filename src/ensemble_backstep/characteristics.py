"""Characteristic curves of the kernel PDEs and their crossing times.

Two families of curves convert the kernel PDEs into integral equations:

* *Crossing curves*: from a triangle point ``(x, xi)`` one curve runs backward
  from ``x`` with the scalar speed and one runs forward from ``xi`` with the
  ensemble speed (at a fixed ensemble parameter y); they meet after time
  ``s_end`` at the launch abscissa where the diagonal data applies.
* *Edge curves*: both components move with the scalar speed; the lower
  component reaches the ``xi = 0`` edge after time ``s_end``, and the launch
  abscissa carries the edge data.

Each component follows its own ODE from its own start, so curves are read
from :class:`TrajectoryTables`: one trajectory per distinct start (classical
RK4, fixed step, whole horizon) in an x-table for the scalar speed and a
xi-table for the ensemble speed, and each curve is a prefix of its two
trajectories.  The scalar ODE does not depend on y, so every family of a
solve can read one pair of tables; RK4 acts element-wise, so a table row is
the same whichever other starts share the table.  Both speeds are assumed
strictly positive on [0, 1] (the plant checks them at the grid nodes): the
event difference then grows strictly along a curve, bisection over the step
index finds its event step, and bisection on a cubic-Hermite interpolant of
the difference (values and slopes at the step ends come from the ODE
right-hand sides) refines the event time.  Speeds are evaluated at positions
clamped to [0, 1] so that tiny overshoots beyond the domain stay
well-defined.

A curve is cut into cell segments where either component crosses a grid
line.  Once per table row, the step bisection and Newton steps on the same
cubic Hermite find the time at which the row crosses each grid line beyond
its start, to rounding; a curve's cuts are its two
rows' crossings before its event time, merged in time order, with an
x-line and a xi-line crossed within :data:`CORNER_TOL` of each other taken
as one crossing of their grid node.  A cut lies on the line crossed, its
other component read by the cubic Hermite of the tables, and a segment's
midpoint is the cubic Hermite of its two ends, with the ODE right-hand
sides as slopes.  The bilinear interpolant of a grid field is quadratic
along a straight segment, so Simpson's rule on every segment integrates it
exactly along straight characteristics and to fourth order along curved
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NonconvergenceError
# ``sample_coefficients`` is unused here but must stay bound: bench/tracing.py
# wraps it in this module.
from .model import SampledCoefficients, sample_coefficients  # noqa: F401

__all__ = [
    "TracedBundle",
    "TrajectoryTables",
    "trace_crossing_batch",
    "trace_edge_batch",
]

#: Refinement target for the interpolated event difference, and the
#: bisection steps allowed to reach it.
REFINE_TOL = 1e-10
REFINE_STEPS = 120

#: Newton steps that refine a grid-line crossing from the secant root.
NEWTON_STEPS = 3

#: Round-off by which a query point may stray outside its domain.
DOMAIN_TOL = 1e-12

#: Event differences above this (negative) threshold at s = 0 count as
#: already-crossed degenerate curves (diagonal points, edge points).
DEGENERATE_TOL = -1e-14

#: Grid-line crossings of one curve closer in time than this count as one
#: (a curve through a grid node crosses both of its lines at once), and
#: crossings this close to either end of the curve are dropped: an event
#: time is refined to :data:`REFINE_TOL`, about 1e-10 in time at unit
#: speed.  A genuinely separate pair this close leaves a piece of curve
#: shorter than this in the neighbouring cell, whose interpolant is
#: continuous with the one it is integrated with.
CORNER_TOL = 1e-8

#: Curves cut into segments per block by :func:`_read_curves`, and table
#: rows whose line crossings are found per block: enough to spread the cost
#: of a block, few enough that its temporaries stay small.
_CUT_CURVES = 2048


@dataclass(frozen=True)
class TracedBundle:
    """Many traced curves, concatenated, in backward parametrization.

    A curve is cut into cell segments where it crosses grid lines.  Curve
    ``c`` of ``n`` segments owns samples ``offsets[c]:offsets[c+1]`` of
    ``sample_x`` / ``sample_xi``, ``2n + 1`` of them: the query point
    ``(x, xi)``, then each segment's midpoint and end, the last end being
    the refined event point.  ``weights`` are composite-Simpson weights in
    the curve parameter, so ``sum(weights * f(sample_x, sample_xi))`` over a
    curve's slice is the path integral of ``f`` up to the event time,
    exactly for a quadratic along each segment.  A degenerate curve holds
    its query point alone, with weight 0.
    """

    offsets: np.ndarray
    sample_x: np.ndarray
    sample_xi: np.ndarray
    weights: np.ndarray
    s_end: np.ndarray
    launch: np.ndarray
    step: float


def _default_step(coeff: SampledCoefficients, step: float | None) -> float:
    auto = 1.0 / (4.0 * coeff.spec.nx * coeff.max_speed)
    if step is None:
        return auto
    if not step > 0:
        raise DomainError(f"step must be > 0, got {step}")
    return min(step, auto)


def _hermite(p0, p1, m0, m1, t):
    """Cubic Hermite on [0,1]; slopes m are pre-scaled by the interval length."""
    t2 = t * t
    t3 = t2 * t
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * p0
        + (t3 - 2.0 * t2 + t) * m0
        + (-2.0 * t3 + 3.0 * t2) * p1
        + (t3 - t2) * m1
    )


def _hermite_bisect(d0, d1, m0, m1):
    """Vectorized bisection of the Hermite interpolant to |value| <=
    :data:`REFINE_TOL`, in at most :data:`REFINE_STEPS` steps.

    The data satisfies d0 < 0 <= d1, so a sign change exists in (0, 1].
    An entry stops moving once it converges, and the working arrays drop
    the converged entries whenever they are at least half of them, so the
    cost of a step follows the number of unconverged entries.
    """
    lo = np.zeros_like(d0)
    hi = np.ones_like(d0)
    result = np.empty_like(d0)
    held = np.arange(d0.size)
    done = np.zeros(d0.shape, dtype=bool)
    for _ in range(REFINE_STEPS):
        mid = 0.5 * (lo + hi)
        val = _hermite(d0, d1, m0, m1, mid)
        hit = np.abs(val) <= REFINE_TOL
        newly = hit & ~done
        result[held[newly]] = mid[newly]
        done |= hit
        n_open = done.size - np.count_nonzero(done)
        if n_open == 0:
            return result
        neg = val < 0.0
        lo = np.where(neg & ~done, mid, lo)
        hi = np.where(~neg & ~done, mid, hi)
        if 2 * n_open <= done.size:
            keep = ~done
            held, lo, hi, d0, d1, m0, m1 = (
                v[keep] for v in (held, lo, hi, d0, d1, m0, m1))
            done = np.zeros(n_open, dtype=bool)
    result[held[~done]] = (0.5 * (lo + hi))[~done]
    return result


def _hermite_root(d0, d1, m0, m1):
    """Root of the Hermite interpolant on [0, 1] for d0 < 0 <= d1:
    :data:`NEWTON_STEPS` Newton steps from the root of the secant.

    The secant root is exact for a straight trajectory, and off by the
    step's curvature, O(h^2), otherwise; the steps then converge
    quadratically.  Each step narrows a bracket of the root and bisects it
    instead where Newton's step would leave it, as it can where the slopes
    disagree with the secant.
    """
    lo = np.zeros_like(d0)
    hi = np.ones_like(d0)
    tau = d0 / (d0 - d1)
    for _ in range(NEWTON_STEPS):
        value = _hermite(d0, d1, m0, m1, tau)
        below = value < 0.0
        lo = np.where(below, tau, lo)
        hi = np.where(below, hi, tau)
        t2 = tau * tau
        rate = ((6.0 * t2 - 6.0 * tau) * (d0 - d1)
                + (3.0 * t2 - 4.0 * tau + 1.0) * m0 + (3.0 * t2 - 2.0 * tau) * m1)
        rising = rate > 0.0
        newton = tau - value / np.where(rising, rate, 1.0)
        tau = np.where(rising & (newton >= lo) & (newton <= hi), newton,
                       0.5 * (lo + hi))
    return tau


def _event_step(event, n_steps: int, size: int) -> np.ndarray:
    """Step K of each of ``size`` entries with event(K) < 0 <= event(K+1).

    ``event(k)`` returns every entry's event at its step ``k[e]``; it must
    be negative at step 0, at least 0 at step ``n_steps - 1`` and increasing,
    so bisection over the step index finds K.
    """
    lo = np.zeros(size, dtype=np.int64)
    hi = np.full(size, n_steps - 1)
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        crossed = event(mid) >= 0.0
        hi = np.where(crossed, mid, hi)
        lo = np.where(crossed, lo, mid)
    return lo


def _trajectories(rate, starts, y, h, n_steps):
    """RK4 trajectories of ``w' = rate(w, y)``: row r runs from ``starts[r]``.

    Column k holds every trajectory at ``s = k*h``, ``n_steps`` columns in all.
    """
    table = np.empty((n_steps, starts.shape[0]))
    table[0] = starts
    for k in range(n_steps - 1):
        w = table[k]
        k1 = rate(w, y)
        k2 = rate(w + 0.5 * h * k1, y)
        k3 = rate(w + 0.5 * h * k2, y)
        k4 = rate(w + h * k3, y)
        table[k + 1] = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.ascontiguousarray(table.T)


class _Table:
    """RK4 trajectories of ``w' = rate(w, y)``, one per row, and the times
    at which they cross the grid lines ``k/nx`` beyond their starts.

    ``values[r, k]`` is trajectory r at ``s = k*h``.  Its slope there is
    ``rate(values[r, k], y[r])``, evaluated where a reading needs it rather
    than held.  ``times`` lists every row's crossing times in turn,
    ascending, the times of lines the table does not reach replaced by its
    length ``n_steps * h``, which no crossing reaches; ``times[n]`` is a
    crossing of line ``line_of[r] + sign * n``.  ``keys`` is ``times``
    shifted by ``r * span``: with ``span`` a power of two above twice that
    length it is sorted, so one search finds every curve's crossings below
    a time.
    """

    def __init__(self, rate, starts, y, h, n_steps, nx, falling):
        self.rate = rate
        self.y = y
        self.h = h
        self.nx = nx
        self.sign = -1 if falling else 1
        self.values = _trajectories(rate, starts, y, h, n_steps)
        self.span = 2.0 ** np.ceil(np.log2(2.0 * n_steps * h))
        self.times, row = self._line_crossings()
        self.keys = row * self.span + self.times

    def slope(self, w, rows):
        """Right-hand side at positions ``w`` of trajectories ``rows``."""
        return self.rate(w, None if self.y is None else self.y[rows])

    def _line_crossings(self):
        """Times at which each row crosses the lines strictly beyond its
        start (below it if falling, else above) in turn, and the row of
        each; sets ``line_of``.  Rows are taken :data:`_CUT_CURVES` at a
        time, so that the temporaries stay small."""
        values, h, sign = self.values, self.h, self.sign
        n_rows, n_steps = values.shape
        lines = np.arange(self.nx + 1) / self.nx
        # The first line each row crosses, and how many lie beyond it.
        if sign < 0:
            count = np.searchsorted(lines, values[:, 0], side="left")
            first = count - 1
        else:
            first = np.searchsorted(lines, values[:, 0], side="right")
            count = self.nx + 1 - first
        row0 = np.cumsum(count) - count
        self.line_of = first - sign * row0
        row = np.repeat(np.arange(n_rows), count)
        times = np.full(row.size, n_steps * h)
        flat = values.ravel()
        for lo in range(0, n_rows, _CUT_CURVES):
            hi = min(lo + _CUT_CURVES, n_rows)
            at = np.arange(row0[lo], row0[hi - 1] + count[hi - 1])
            r = row[at]
            line = lines[self.line_of[r] + sign * at]
            reached = np.flatnonzero(sign * (flat[r * n_steps + n_steps - 1]
                                             - line) >= 0.0)
            r, line, base = r[reached], line[reached], r[reached] * n_steps

            def event(k):
                return sign * (flat[base + k] - line)

            K = _event_step(event, n_steps, r.size)
            w0, w1 = flat[base + K], flat[base + K + 1]
            tau = _hermite_root(sign * (w0 - line), sign * (w1 - line),
                                sign * h * self.slope(w0, r),
                                sign * h * self.slope(w1, r))
            times[at[reached]] = (K + tau) * h
        return times, row

    def count_within(self, rows, s_end):
        """Flat index of the first crossing of each of trajectories ``rows``
        farther than :data:`CORNER_TOL` in time from both 0 and ``s_end``,
        and how many there are."""
        base = rows * self.span
        first = np.searchsorted(self.keys, base + CORNER_TOL, side="right")
        last = np.searchsorted(self.keys, base + (s_end - CORNER_TOL),
                               side="left")
        return first, np.maximum(last - first, 0)

    def crossings_within(self, rows, s_end):
        """The crossings :meth:`count_within` counts, every row's in turn,
        ascending: their times, how many each row has, and their lines."""
        first, count = self.count_within(rows, s_end)
        index = np.arange(count.sum()) + np.repeat(
            first - (np.cumsum(count) - count), count)
        line = np.repeat(self.line_of[rows], count) + self.sign * index
        return self.times[index], count, line / self.nx

    def read(self, rows, t):
        """Trajectory ``rows[e]`` at time ``t[e]``, each read by the cubic
        Hermite on the step that holds it."""
        h = self.h
        n_steps = self.values.shape[1]
        u = t / h
        k = np.minimum(u.astype(np.int64), n_steps - 2)
        u -= k
        k += rows * n_steps
        values = self.values.ravel()
        p0, rise = values[k], values[k + 1]
        m0, m1 = self.slope(p0, rows), self.slope(rise, rows)
        # _hermite in Horner form and in place, p0 + u*(m0 + u*(c2 + u*c3)),
        # which reads these in about 0.6 of the time.
        m0 *= h
        m1 *= h
        rise -= p0
        c3 = m0 + m1
        c3 -= rise
        c3 -= rise
        c3 *= u
        rise *= 3.0
        rise -= m0
        rise -= m0
        rise -= m1
        c3 += rise
        c3 *= u
        c3 += m0
        c3 *= u
        c3 += p0
        return c3


def _points(xs, xis, ys=None):
    """The query points as float arrays.

    Raises :class:`DomainError` unless every point is finite and lies in
    ``0 <= xi <= x <= 1`` (and ``0 <= y <= 1``) up to :data:`DOMAIN_TOL`.
    """
    xs = np.asarray(xs, dtype=float)
    xis = np.asarray(xis, dtype=float)
    inside = (np.isfinite(xs) & np.isfinite(xis) & (xis >= -DOMAIN_TOL)
              & (xis <= xs + DOMAIN_TOL) & (xs <= 1.0 + DOMAIN_TOL))
    if ys is not None:
        ys = np.asarray(ys, dtype=float)
        inside &= (np.isfinite(ys) & (ys >= -DOMAIN_TOL)
                   & (ys <= 1.0 + DOMAIN_TOL))
    if not inside.all():
        c = int(np.argmin(inside))
        where = f"(x={xs[c]:g}, xi={xis[c]:g}"
        where += f", y={ys[c]:g})" if ys is not None else ")"
        raise DomainError(
            f"{int(inside.size - np.count_nonzero(inside))} point(s) outside "
            f"0 <= xi <= x <= 1, 0 <= y <= 1 or not finite, first {where}")
    return xs, xis, ys


def _pairs(xis, ys):
    """(xi, y) pairs as complex numbers, which sort and search
    lexicographically."""
    pairs = np.empty(np.shape(xis), dtype=complex)
    pairs.real = xis
    pairs.imag = ys
    return pairs


def _rows(starts, points):
    """Row of each point in the sorted distinct ``starts``."""
    row = np.searchsorted(starts, points)
    found = row < starts.size
    found[found] = starts[row[found]] == points[found]
    if not found.all():
        raise DomainError(
            f"{int(found.size - np.count_nonzero(found))} curve start(s) "
            f"have no trajectory in the tables")
    return row


class TrajectoryTables:
    """RK4 trajectories that one or more curve families read their curves
    from.

    The x-table holds one trajectory of ``z' = -speed_v(z)`` per distinct
    start in ``x_starts``: the x-component of every curve and the
    xi-component of every edge curve follow it.  The xi-table holds one
    trajectory of ``w' = speed_u(w, y)`` per distinct pair of
    ``xi_starts`` and ``y_starts``: the xi-component of every crossing
    curve.  Each table is integrated, and its rows' grid-line crossings
    found, on its first read, over the longest horizon of the families that
    read it (the edge horizon for the x-table); a family reads only its own
    horizon's columns.  ``del tables.xi_table`` frees the xi-table.
    """

    def __init__(self, coeff: SampledCoefficients, x_starts, xi_starts=(),
                 y_starts=(), step: float | None = None):
        self.coeff = coeff
        self.h = _default_step(coeff, step)
        self.x_starts = np.unique(np.asarray(x_starts, dtype=float))
        self.xi_starts = np.unique(_pairs(xi_starts, y_starts))

    def horizon(self, kind: str) -> tuple[float, int]:
        """Longest event time a family of ``kind`` allows for, and the
        number of steps that covers it."""
        coeff = self.coeff
        s_max = 2.0 / (coeff.crossing_speed_min if kind == "cross"
                       else coeff.speed_v_min)
        return s_max, int(np.ceil(s_max / self.h)) + 2

    def dz(self, z, y=None):
        """Right-hand side of the x-table's ODE; ``y`` is unused.

        Below z = 0 the speed continues along its tangent at 0 (the sampled
        ``speed_v_dx`` there), not as a constant, so the RK4 step in which
        an edge curve reaches the edge crosses no kink and its event time
        keeps the step's order.
        """
        speed = self.coeff.model.speed_v(np.clip(z, 0.0, 1.0))
        return -(speed + self.coeff.speed_v_dx_grid[0] * np.minimum(z, 0.0))

    def dw(self, w, y):
        """Right-hand side of the xi-table's ODE."""
        return self.coeff.model.speed_u(np.clip(w, 0.0, 1.0), y)

    @cached_property
    def x_table(self) -> _Table:
        # speed_v_min <= crossing_speed_min: the edge horizon is the longer
        _, n_steps = self.horizon("edge")
        return _Table(self.dz, self.x_starts, None, self.h, n_steps,
                      self.coeff.spec.nx, falling=True)

    @cached_property
    def xi_table(self) -> _Table:
        _, n_steps = self.horizon("cross")
        return _Table(self.dw, self.xi_starts.real, self.xi_starts.imag,
                      self.h, n_steps, self.coeff.spec.nx, falling=False)


def _cut_curves(z_tab, w_tab, z_row, w_row, xs, xis, s_end, end_x, end_xi):
    """Samples and composite-Simpson weights of curves that run from
    ``(xs, xis)`` to ``(end_x, end_xi)`` at ``s_end`` along their rows of
    ``z_tab`` and ``w_tab``: each curve's sample count, cumulated, the mask
    of the samples kept, and the sample x, xi and weight arrays it masks.

    A curve's segments end where one of its components crosses a grid
    line; an x-line and a xi-line crossed within :data:`CORNER_TOL` of each
    other are one corner crossing.  Every curve's ends (its start, its cuts
    and, for a curve that moves, its event point) sort by (curve, time) in
    one linear pass of a stable sort over four runs sorted already.
    """
    m = xs.size
    ref = np.flatnonzero(s_end > 0.0)
    zr, wr, s_ref = z_row[ref], w_row[ref], s_end[ref]
    tz, nz, lz = z_tab.crossings_within(zr, s_ref)
    tw, nw, lw = w_tab.crossings_within(wr, s_ref)
    span = max(z_tab.span, w_tab.span)
    base = ref * span
    key = np.concatenate([np.arange(m) * span, np.repeat(base, nz) + tz,
                          np.repeat(base, nw) + tw, base + s_ref])
    order = np.argsort(key, kind="stable")
    key = key[order]
    t = np.concatenate([np.zeros(m), tz, tw, s_ref])[order]
    cut = (order >= m) & (order < m + tz.size + tw.size)
    apart = np.ones(t.size, dtype=bool)
    apart[1:] = (np.diff(key) > CORNER_TOL) | ~(cut[1:] & cut[:-1])
    # The end positions: the start, the event point, and at a cut the line
    # that was crossed; NaN marks a component still to be read.  Two merged
    # cuts are a grid node: they keep the earlier time, whichever way the
    # shifted keys rounded, and both lines.
    z = np.concatenate([xs, lz, np.full(tw.size, np.nan), end_x[ref]])[order]
    w = np.concatenate([xis, np.full(tz.size, np.nan), lw, end_xi[ref]])[order]
    merged = np.flatnonzero(~apart)
    t[merged - 1] = np.minimum(t[merged - 1], t[merged])
    z[merged - 1] = np.fmax(z[merged - 1], z[merged])
    w[merged - 1] = np.fmax(w[merged - 1], w[merged])
    t, z, w = t[apart], z[apart], w[apart]
    # Curve c's ends are t[e_off[c]:e_off[c+1]], its start first.
    e_off = np.append(np.flatnonzero(order[apart] < m), t.size)
    end_curve = np.repeat(np.arange(m), np.diff(e_off))
    del key, order, cut, apart, merged, tz, tw, lz, lw

    # The other component at a cut is read by the Hermite interpolant of
    # the tables; exact crossing times put the cut on its line to rounding.
    unread = np.flatnonzero(np.isnan(z))
    z[unread] = z_tab.read(z_row[end_curve[unread]], t[unread])
    unread = np.flatnonzero(np.isnan(w))
    w[unread] = w_tab.read(w_row[end_curve[unread]], t[unread])

    # A segment's midpoint is the cubic Hermite of its two ends, with the
    # slopes the ODEs give there.
    length = np.diff(t)
    length[e_off[1:-1] - 1] = 0.0
    eighth = 0.125 * length
    dz = z_tab.slope(z, z_row[end_curve])
    mid_z = 0.5 * (z[:-1] + z[1:]) + eighth * (dz[:-1] - dz[1:])
    dw = w_tab.slope(w, w_row[end_curve])
    mid_w = 0.5 * (w[:-1] + w[1:]) + eighth * (dw[:-1] - dw[1:])

    # Curve c's samples are its start, then each segment's midpoint and end:
    # end e is sample 2e - c and the midpoint after it sample 2e - c + 1.
    # Composite Simpson: a segment of length L weighs L/6 at its ends and
    # 2L/3 at its midpoint.
    kept = np.ones(2 * t.size - 1, dtype=bool)
    kept[2 * e_off[1:-1] - 1] = False
    sample_x = np.empty(kept.size)
    sample_x[0::2] = z
    sample_x[1::2] = mid_z
    sample_xi = np.empty(kept.size)
    sample_xi[0::2] = w
    sample_xi[1::2] = mid_w
    weights = np.empty(kept.size)
    weights[1::2] = (2.0 / 3.0) * length
    length /= 6.0
    weights[0::2] = np.append(length, 0.0)
    weights[2::2] += length
    return 2 * e_off[1:] - np.arange(1, m + 1), kept, (sample_x, sample_xi,
                                                         weights)


def _read_curves(tables: TrajectoryTables, kind: str, xs, xis,
                 ys) -> TracedBundle:
    """One family's curves, each read from its two trajectories in
    ``tables`` up to its refined event point and cut into cell segments,
    with composite-Simpson weights."""
    h = tables.h
    m = xs.shape[0]
    s_max, n_alloc = tables.horizon(kind)
    z_tab = tables.x_table
    z_row = _rows(tables.x_starts, xs)
    if kind == "cross":
        def event(z, w):
            return w - z

        w_tab = tables.xi_table
        w_row = _rows(tables.xi_starts, _pairs(xis, ys))
    else:
        # Both components of an edge curve follow the scalar speed.
        def event(z, w):
            return -w

        w_tab = z_tab
        w_row = _rows(tables.x_starts, xis)

    ref = np.flatnonzero(event(xs, xis) < DEGENERATE_TOL)
    zr, wr = z_row[ref], w_row[ref]
    # Step k of the curves' rows, as flat indices into the tables.
    z_flat, w_flat = z_tab.values.ravel(), w_tab.values.ravel()
    z_at = zr * z_tab.values.shape[1]
    w_at = wr * w_tab.values.shape[1]

    def curve_event(k):
        return event(z_flat[z_at + k], w_flat[w_at + k])

    missed = np.count_nonzero(curve_event(n_alloc - 1) < 0.0)
    if missed:
        raise NonconvergenceError(
            f"{missed} characteristic curve(s) found no {kind} event before "
            f"s = {s_max:.3g}; the model's speeds are too close to zero")
    K = _event_step(curve_event, n_alloc, ref.size)
    zk, zk1 = z_flat[z_at + K], z_flat[z_at + K + 1]
    wk, wk1 = w_flat[w_at + K], w_flat[w_at + K + 1]
    dz0, dz1 = z_tab.slope(zk, zr), z_tab.slope(zk1, zr)
    dw0, dw1 = w_tab.slope(wk, wr), w_tab.slope(wk1, wr)
    # event is linear, so its slope is event applied to the velocities
    tau = _hermite_bisect(event(zk, wk), event(zk1, wk1),
                          h * event(dz0, dw0), h * event(dz1, dw1))
    s_end = np.zeros(m)
    s_end[ref] = (K + tau) * h
    launch = xs.copy()
    launch[ref] = _hermite(zk, zk1, h * dz0, h * dz1, tau)
    w_star = _hermite(wk, wk1, h * dw0, h * dw1, tau)

    # Cut the curves into segments a block of _CUT_CURVES curves at a time,
    # into arrays sized for a cut at every crossing (merged corners leave
    # their tails unwritten, and untouched pages cost no memory).
    n_cut = (z_tab.count_within(zr, s_end[ref])[1].sum()
             + w_tab.count_within(wr, s_end[ref])[1].sum())
    bound = m + 2 * (int(n_cut) + ref.size)
    sample_x, sample_xi, weights = (np.empty(bound) for _ in range(3))
    offsets = np.zeros(m + 1, dtype=np.int64)
    end_x, end_xi = xs.copy(), xis.copy()
    end_x[ref], end_xi[ref] = launch[ref], w_star
    for lo in range(0, m, _CUT_CURVES):
        hi = min(lo + _CUT_CURVES, m)
        counts, kept, block = _cut_curves(
            z_tab, w_tab, z_row[lo:hi], w_row[lo:hi], xs[lo:hi], xis[lo:hi],
            s_end[lo:hi], end_x[lo:hi], end_xi[lo:hi])
        at = offsets[lo]
        offsets[lo + 1:hi + 1] = at + counts
        for out, values in zip((sample_x, sample_xi, weights), block):
            np.compress(kept, values, out=out[at:at + counts[-1]])
    n = offsets[-1]
    sample_x, sample_xi, weights = sample_x[:n], sample_xi[:n], weights[:n]
    return TracedBundle(offsets, sample_x, sample_xi, weights, s_end, launch, h)


def trace_crossing_batch(coeff: SampledCoefficients, xs, xis, ys,
                         step: float | None = None,
                         tables: TrajectoryTables | None = None) -> TracedBundle:
    """Trace crossing curves for many triangle points at once.

    The curves are read from ``tables`` (built from ``coeff``, with every
    point's x and (xi, y) among its starts, and its own step) when given,
    else from tables of these points alone with the given ``step``.
    """
    xs, xis, ys = _points(xs, xis, ys)
    if tables is None:
        tables = TrajectoryTables(coeff, xs, xis, ys, step=step)
    return _read_curves(tables, "cross", xs, xis, ys)


def trace_edge_batch(coeff: SampledCoefficients, xs, xis,
                     step: float | None = None,
                     tables: TrajectoryTables | None = None) -> TracedBundle:
    """Trace edge curves for many triangle points at once.

    ``tables`` is as for :func:`trace_crossing_batch`, with every point's x
    and xi among its x-starts.
    """
    xs, xis, _ = _points(xs, xis)
    if tables is None:
        tables = TrajectoryTables(coeff, np.concatenate([xs, xis]), step=step)
    return _read_curves(tables, "edge", xs, xis, None)
