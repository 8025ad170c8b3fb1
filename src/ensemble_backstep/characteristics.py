"""Characteristic curves of the kernel PDEs and their crossing times.

Two families of curves convert the kernel PDEs into integral equations:

* *Crossing curves*: from a triangle point ``(x, xi)`` one curve runs backward
  from ``x`` with the scalar speed and one runs forward from ``xi`` with the
  ensemble speed (at a fixed ensemble parameter y); they meet after time
  ``s_end`` at the launch abscissa where the diagonal data applies.
* *Edge curves*: both components move with the scalar speed; the lower
  component reaches the ``xi = 0`` edge after time ``s_end``, and the launch
  abscissa carries the edge data.

Both component ODEs are autonomous and one-dimensional: a scalar component
follows ``z' = -speed_v(z)`` and an ensemble component, at a fixed y,
``w' = speed_u(w, y)``.  So every curve is fixed exactly by the travel times
``Phi_v(x) = int_0^x dz / speed_v(z)`` and
``Phi_u(xi; y) = int_0^xi dw / speed_u(w, y)``: a curve from ``(x, xi)`` has
``z(s) = Phi_v^-1(Phi_v(x) - s)`` and, on a crossing curve,
``w(s) = Phi_u^-1(Phi_u(xi) + s)`` (the lower component of an edge curve
falls like ``z``).  A trace tabulates ``Phi_v`` on the x-nodes, and ``Phi_u``
on the x-nodes for every distinct y of its points, integrating ``1/speed``
cell by cell with an adaptive Gauss-Legendre rule (:func:`_integrate`).

A crossing curve's launch abscissa ``l`` solves
``Phi_v(l) + Phi_u(l) = Phi_v(x) + Phi_u(xi)``, and ``s_end = Phi_v(x) -
Phi_v(l)``; an edge curve has ``s_end = Phi_v(xi)`` and
``launch = Phi_v^-1(Phi_v(x) - Phi_v(xi))``.  Each launch is bracketed
between two x-nodes of the tables and refined by Newton steps on the travel
times themselves; every trace solves the launches of its own curves.  This
relies on the plant's contract that both speeds are strictly positive on
all of [0, 1] (sampling checks them at the grid nodes only): a curve whose
travel time is infinite or unresolved, or longer than twice the slowest
crossing (edge) time the sampled speeds allow, raises
:class:`NonconvergenceError`.  Speeds are
evaluated at positions clamped to [0, 1] so that tiny overshoots beyond the
domain stay well-defined.

A curve is cut into cell segments where either component crosses a grid
line, at times that are differences of node values of its travel times; an
x-line and a xi-line crossed within :data:`CORNER_TOL` of each other count
as one crossing of their grid node.  A cut lies on the line crossed, and
the other component there, like both components at a segment's mid-time,
is read by the inverse travel time: the cubic Hermite in the travel time
through the two nodes of the cell, with the node speeds as slopes, so that
reading a point calls no model function.  The bilinear interpolant of a
grid field is quadratic along a straight segment, so Simpson's rule on
every segment integrates it exactly along straight characteristics and to
fourth order along curved ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonconvergenceError
# ``sample_coefficients`` is unused here but must stay bound: bench/tracing.py
# wraps it in this module.
from .model import SampledCoefficients, sample_coefficients  # noqa: F401

__all__ = [
    "TracedBundle",
    "trace_crossing_batch",
    "trace_edge_batch",
]

#: Round-off by which a query point may stray outside its domain, and to
#: which a travel-time integral (relative) and a launch abscissa are
#: resolved.
DOMAIN_TOL = 1e-12

#: Refinements allowed in resolving a travel time: halvings of an interval
#: of a travel-time integral, where the Gauss-Legendre rule on it and on its
#: two halves disagree by more than :data:`DOMAIN_TOL` relative, and Newton
#: steps towards a launch abscissa.  A curve whose travel times are not
#: resolved within them raises :class:`NonconvergenceError`.
REFINE_DEPTH = 12

#: Points with ``xi - x`` (crossing curves) or ``-xi`` (edge curves) above
#: this (negative) threshold are degenerate curves already at their event:
#: diagonal points, edge points.
DEGENERATE_TOL = -1e-14

#: Grid-line crossings of one curve closer in time than this count as one
#: (a curve through a grid node crosses both of its lines at once), and
#: crossings this close to either end of the curve are dropped: cut and
#: event times are exact to rounding, and a genuinely separate pair this
#: close leaves a piece of curve shorter than this in the neighbouring
#: cell, whose interpolant is continuous with the one it is integrated with.
CORNER_TOL = 1e-8

#: Curves cut into segments per block by :func:`_read_curves`: enough to
#: spread the cost of a block, few enough that its temporaries stay small.
_CUT_CURVES = 2048

#: The 8-point Gauss-Legendre rule on [0, 1].
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GAUSS_NODES = 0.5 * (_GAUSS_NODES + 1.0)
_GAUSS_WEIGHTS = 0.5 * _GAUSS_WEIGHTS


@dataclass(frozen=True)
class TracedBundle:
    """Many traced curves, concatenated, in backward parametrization.

    A curve is cut into cell segments where it crosses grid lines.  Curve
    ``c`` owns segments ``offsets[c]:offsets[c+1]``, in order from the query
    point ``(x, xi)`` to the event point; a degenerate curve owns none.
    Column q of ``x`` and ``xi`` holds segment q's start, midpoint (in the
    curve parameter) and end, and ``weights[q]`` is its Simpson midpoint
    weight, two thirds of its length: Simpson's rule on the segment
    (:meth:`simpson_weights`) is ``weights[q] * (f0/4 + f1 + f2/4)``, exact
    for a quadratic along it.
    """

    offsets: np.ndarray
    x: np.ndarray
    xi: np.ndarray
    weights: np.ndarray
    s_end: np.ndarray
    launch: np.ndarray

    def simpson_weights(self, segments=slice(None)) -> np.ndarray:
        """Simpson's rule on the segments ``segments``: the ``(3, n)``
        weights of their points."""
        return np.array([[0.25], [1.0], [0.25]]) * self.weights[segments]

    def path_integral(self, values: np.ndarray) -> np.ndarray:
        """Each curve's path integral, up to its event time, of a function
        given by its ``(3, S)`` values at the segments' points."""
        per_segment = (self.simpson_weights() * values).sum(axis=0)
        curve = np.repeat(np.arange(self.offsets.size - 1),
                          np.diff(self.offsets))
        return np.bincount(curve, per_segment, minlength=self.offsets.size - 1)


def _gauss(rate, a, b, y):
    """The Gauss-Legendre rule for the integral of ``rate(w, y)`` over
    ``[a, b]``, entry by entry."""
    width = b - a
    # One call of ``rate`` for the eight nodes, summed in node order.
    values = np.broadcast_to(rate(a + _GAUSS_NODES[:, None] * width, y),
                             _GAUSS_NODES.shape + width.shape)
    total = np.zeros_like(width)
    for weight, value in zip(_GAUSS_WEIGHTS, values):
        total += weight * value
    return total * width


def _integrate(rate, a, b, y):
    """Integral of ``rate(w, y)`` over ``[a[e], b[e]]`` for every entry e
    (``y`` is one value per entry, or None).

    Where the rule on an interval agrees with the rule on its two halves,
    the halves' sum is taken; elsewhere each half is checked in the same
    way, up to :data:`REFINE_DEPTH` halvings.  An entry with an interval
    still unresolved then, or with an infinite integrand, is NaN.  Every
    operation acts entry by entry, so an entry's value does not depend on
    the others.
    """
    total = np.zeros(a.shape)
    entry = np.arange(a.size)
    whole = _gauss(rate, a, b, y)
    for _ in range(REFINE_DEPTH):
        mid = 0.5 * (a + b)
        left = _gauss(rate, a, mid, y)
        right = _gauss(rate, mid, b, y)
        halves = left + right
        done = np.abs(halves - whole) <= DOMAIN_TOL * np.abs(halves)
        total += np.bincount(entry[done], halves[done], minlength=total.size)
        split = ~done
        a, mid, b, entry = a[split], mid[split], b[split], entry[split]
        if not entry.size:
            return total
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        whole = np.concatenate([left[split], right[split]])
        entry = np.concatenate([entry, entry])
        if y is not None:
            y = np.tile(y[split], 2)
    total[entry] = np.nan
    return total


class _TravelTime:
    """The travel time ``Phi(p) = int_0^p dw / speed(w, y)`` of one transport
    speed: of ``speed_v`` (one row) or of ``speed_u`` at each of ``ys`` (one
    row each).

    ``nodes[r, k]`` is row r's travel time to x-node k.
    """

    def __init__(self, coeff: SampledCoefficients, ys=None):
        model = coeff.model
        self.nx = nx = coeff.spec.nx
        self.x = x = coeff.spec.x_nodes
        self.ys = ys
        if ys is None:
            self.speed = lambda w, y: model.speed_v(np.clip(w, 0.0, 1.0))
            n_rows, y_cells = 1, None
            speeds = self.speed(x, None)
        else:
            self.speed = lambda w, y: model.speed_u(np.clip(w, 0.0, 1.0), y)
            n_rows, y_cells = ys.size, np.repeat(ys, nx)
            speeds = self.speed(x[None, :], ys[:, None])
        speeds = np.broadcast_to(np.asarray(speeds, dtype=float),
                                 (n_rows, nx + 1))
        cells = _integrate(self._rate, np.tile(x[:-1], n_rows),
                           np.tile(x[1:], n_rows), y_cells)
        self.nodes = np.zeros((n_rows, nx + 1))
        np.cumsum(cells.reshape(n_rows, nx), axis=1, out=self.nodes[:, 1:])
        # Each cell's Hermite coefficients for :meth:`inverse`, flat over
        # (row, cell): its slopes are the node speeds times the cell's span
        # of travel time.
        span = np.diff(self.nodes, axis=1).ravel()
        self._phi0 = self.nodes[:, :-1].ravel()
        self._per_phi = 1.0 / span
        self._x0 = np.tile(x[:-1], n_rows)
        rise = np.tile(np.diff(x), n_rows)
        self._m0 = span * speeds[:, :-1].ravel()
        m1 = span * speeds[:, 1:].ravel()
        self._c2 = 3.0 * rise - 2.0 * self._m0 - m1
        self._c3 = self._m0 + m1 - 2.0 * rise

    def _rate(self, w, y):
        return 1.0 / self.speed(w, y)

    def _y(self, rows):
        return None if self.ys is None else self.ys[rows]

    def rate(self, rows, p):
        """``dPhi/dp = 1/speed`` of rows ``rows`` at positions ``p``."""
        return self._rate(p, self._y(rows))

    def at(self, rows, p):
        """Travel time of rows ``rows`` to positions ``p``: the node value
        below each, plus the integral over the rest of its cell, which a
        position on a node does not have."""
        k = np.clip(np.searchsorted(self.x, p, side="right") - 1,
                    0, self.nx - 1)
        value = self.nodes.ravel()[rows * (self.nx + 1) + k]
        rest = np.flatnonzero(p != self.x[k])
        y = self._y(rows)
        value[rest] += _integrate(
            self._rate, self.x[k[rest]], p[rest],
            None if y is None else np.broadcast_to(y, p.shape)[rest])
        return value

    def inverse(self, at, phi):
        """Positions at which the travel time reaches ``phi`` in the cells
        ``at`` (flat over (row, cell), ``row * nx + cell``), read by the
        cubic Hermite in the travel time through each cell's two nodes, with
        the node speeds (``dp/dPhi``) as slopes.  Overwrites ``phi``."""
        u = phi
        u -= self._phi0[at]
        u *= self._per_phi[at]
        # Horner's form, in place: x0 + u*(m0 + u*(c2 + u*c3)).
        p = self._c3[at]
        p *= u
        p += self._c2[at]
        p *= u
        p += self._m0[at]
        p *= u
        p += self._x0[at]
        return p


def _launch(target, rows, phi_v: _TravelTime, phi_u: _TravelTime | None = None):
    """Abscissa ``l`` at which ``Phi_v(l)``, plus ``Phi_u(l)`` of rows
    ``rows`` when given, reaches ``target``, and whether it is resolved.

    ``l`` is bracketed between two x-nodes of the tabulated sum, started at
    the secant root there, and refined by Newton steps on the travel times,
    each kept inside the bracket (a step that would leave it bisects it).
    An entry is resolved once a step moves it by at most :data:`DOMAIN_TOL`
    within :data:`REFINE_DEPTH` steps, its target finite and bracketed by
    finite node values.  Off a smooth speed's O(h^2) secant root Newton's
    error squares at every step, so that takes three.
    """
    nx = phi_v.nx
    table = phi_v.nodes if phi_u is None else phi_v.nodes + phi_u.nodes
    # (row, value) keys sort lexicographically as complex numbers, so one
    # search brackets every target in its own row.  An unresolved node
    # value (NaN) keys as +inf: a complex NaN would sort after every other
    # row and mis-bracket their targets.
    keys = np.empty(table.shape, dtype=complex)
    keys.real = np.arange(table.shape[0])[:, None]
    keys.imag = np.where(np.isnan(table), np.inf, table)
    keys = keys.ravel()
    first = rows * (nx + 1)
    k = np.searchsorted(keys, rows + 1j * target, side="right") - 1 - first
    k = np.clip(k, 0, nx - 1)
    at_lo = table.ravel()[first + k]
    at_hi = table.ravel()[first + k + 1]
    lo, hi = phi_v.x[k], phi_v.x[k + 1]
    p = np.clip(lo + (hi - lo) * (target - at_lo) / (at_hi - at_lo), lo, hi)
    moving = np.arange(p.size)
    for _ in range(REFINE_DEPTH):
        q = p[moving]
        value = phi_v.at(0, q) - target[moving]
        rate = phi_v.rate(0, q)
        if phi_u is not None:
            value += phi_u.at(rows[moving], q)
            rate += phi_u.rate(rows[moving], q)
        below = value < 0.0
        lo[moving] = np.where(below, q, lo[moving])
        hi[moving] = np.where(below, hi[moving], q)
        step = -value / rate
        inside = (q + step >= lo[moving]) & (q + step <= hi[moving])
        p[moving] = np.where(inside, q + step,
                             0.5 * (lo[moving] + hi[moving]))
        moving = moving[~(np.abs(p[moving] - q) <= DOMAIN_TOL)]
        if not moving.size:
            break
    resolved = np.isfinite(target) & np.isfinite(at_hi)
    resolved[moving] = False
    return p, resolved


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


@dataclass(frozen=True)
class _Component:
    """One component of a family's curves: curve c moves from ``p0[c]`` to
    ``p_end[c]`` along rows ``rows[c]`` of the travel time ``phi``, whose
    value there starts at ``start[c]`` and changes at rate ``sign`` (+1
    rising, -1 falling)."""

    phi: _TravelTime
    sign: int
    rows: np.ndarray
    start: np.ndarray
    p0: np.ndarray
    p_end: np.ndarray

    def __getitem__(self, curves) -> _Component:
        return _Component(self.phi, self.sign, self.rows[curves],
                          self.start[curves], self.p0[curves],
                          self.p_end[curves])

    def lines(self):
        """The first grid line each curve may cross, in its direction of
        travel, and how many lie between the outer lines of its two ends'
        cells."""
        nx = self.phi.nx
        lo = np.floor(np.minimum(self.p0, self.p_end) * nx)
        hi = np.ceil(np.maximum(self.p0, self.p_end) * nx)
        lo, hi = (np.clip(v, 0, nx).astype(np.int64) for v in (lo, hi))
        return (hi if self.sign < 0 else lo), hi - lo + 1

    def crossings(self, s_end):
        """The grid lines each curve crosses farther than
        :data:`CORNER_TOL` in time from both 0 and ``s_end``, every curve's
        in turn, in time order: their times, how many each curve crosses,
        the lines' positions, and the cell each curve starts its first
        segment in."""
        nx = self.phi.nx
        first, count = self.lines()
        curve = np.repeat(np.arange(count.size), count)
        line = first[curve] + self.sign * (
            np.arange(curve.size) - np.repeat(np.cumsum(count) - count, count))
        t = self.sign * (self.phi.nodes.ravel()[self.rows[curve] * (nx + 1)
                                                + line] - self.start[curve])
        kept = (t > CORNER_TOL) & (t < s_end[curve] - CORNER_TOL)
        t, line, curve = t[kept], line[kept], curve[kept]
        n = np.bincount(curve, minlength=count.size)
        # The first segment's cell holds the midpoint of the start and the
        # first line crossed, or of the two ends if the curve crosses none.
        q = self.p_end.copy()
        crossing = n > 0
        q[crossing] = self.phi.x[line[(np.cumsum(n) - n)[crossing]]]
        cell = np.clip(np.floor(0.5 * (self.p0 + q) * nx).astype(np.int64),
                       0, nx - 1)
        return t, n, self.phi.x[line], cell


def _cut_curves(z: _Component, w: _Component, s_end, span, out, first):
    """Cut curves whose x- and xi-components are ``z`` and ``w`` into cell
    segments up to time ``s_end``, and return each curve's segment count,
    cumulated.  The S segments are written from column ``first`` on into
    ``out``: their ``(3, S)`` x and xi points (start, midpoint, end) and
    their ``(S,)`` Simpson midpoint weights.

    A curve's segments end where one of its components crosses a grid
    line; an x-line and a xi-line crossed within :data:`CORNER_TOL` of each
    other are one corner crossing.  Every curve's ends (its start, its cuts
    and, for a curve that moves, its event point) sort by (curve, time) in
    one linear pass of a stable sort over four runs sorted already; the
    keys shift curve c's times by ``c * span``, with ``span`` a power of two
    above twice the longest event time.  Consecutive ends of one curve
    bound a segment; the joins between curves are masked out.
    """
    m = s_end.size
    nx = z.phi.nx
    ref = np.flatnonzero(s_end > 0.0)
    s_ref = s_end[ref]
    tz, nz, lz, cell_z0 = z[ref].crossings(s_ref)
    tw, nw, lw, cell_w0 = w[ref].crossings(s_ref)
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
    x = np.concatenate([z.p0, lz, np.full(tw.size, np.nan),
                        z.p_end[ref]])[order]
    xi = np.concatenate([w.p0, np.full(tz.size, np.nan), lw,
                         w.p_end[ref]])[order]
    merged = np.flatnonzero(~apart)
    t[merged - 1] = np.minimum(t[merged - 1], t[merged])
    x[merged - 1] = np.fmax(x[merged - 1], x[merged])
    xi[merged - 1] = np.fmax(xi[merged - 1], xi[merged])
    t, x, xi, cut = t[apart], x[apart], xi[apart], cut[apart]
    # Curve c's ends are t[e_off[c]:e_off[c+1]], its start first.
    e_off = np.append(np.flatnonzero(order[apart] < m), t.size)
    end_curve = np.repeat(np.arange(m), np.diff(e_off))
    del key, order, apart, merged, tz, tw, lz, lw

    def reading(component, cell0, position):
        """Each end's cell for ``component``, flat in its travel-time table
        (its first segment's, moved on by one for every line crossed up to
        and including the end), and the component's travel time there."""
        first = component.rows * nx
        first[ref] += cell0
        crossed = np.cumsum(cut & ~np.isnan(position))
        crossed -= np.repeat(crossed[e_off[:-1]], np.diff(e_off))
        at = first[end_curve]
        phi = component.start[end_curve]
        if component.sign < 0:
            at -= crossed
            phi -= t
        else:
            at += crossed
            phi += t
        return at, phi

    # Segment q runs from end begin[q] to the next: every pair of
    # consecutive ends but the joins from one curve's event to the next
    # curve's start.
    begin = np.delete(np.arange(t.size - 1), e_off[1:-1] - 1)
    length = t[begin + 1] - t[begin]
    written = slice(first, first + begin.size)
    seg_x, seg_xi, weights = out
    np.multiply(2.0 / 3.0, length, out=weights[written])
    # The other component at a cut, and both at a segment's mid-time, come
    # from the inverse travel time in the cell the component is in.
    half = 0.5 * length
    for component, cell0, position, points in ((z, cell_z0, x, seg_x),
                                                (w, cell_w0, xi, seg_xi)):
        at, phi = reading(component, cell0, position)
        mid_phi = phi[begin] + component.sign * half
        unread = np.flatnonzero(np.isnan(position))
        position[unread] = component.phi.inverse(at[unread], phi[unread])
        np.take(position, begin, out=points[0, written])
        points[1, written] = component.phi.inverse(at[begin], mid_phi)
        np.take(position, begin + 1, out=points[2, written])
    return e_off[1:] - np.arange(1, m + 1)


@dataclass(frozen=True)
class _Family:
    """The curves from many query points, up to their events: the travel
    time ``phi_v`` of their x-component and ``phi_w`` of their
    xi-component, read on row ``rows[c]`` by curve c, with its values
    ``start_x`` and ``start_xi`` at the query point, the curves ``ref`` that
    move, and the longest event time ``s_max`` the sampled speeds allow."""

    kind: str
    xs: np.ndarray
    xis: np.ndarray
    phi_v: _TravelTime
    phi_w: _TravelTime
    rows: np.ndarray
    s_max: float
    ref: np.ndarray
    start_x: np.ndarray
    start_xi: np.ndarray


def _family(coeff: SampledCoefficients, kind: str, xs, xis, ys) -> _Family:
    """Tabulate the travel times of a family's curves and read them at
    every query point."""
    m = xs.shape[0]
    phi_v = _TravelTime(coeff)
    if kind == "cross":
        y_rows, rows = np.unique(ys, return_inverse=True)
        phi_w = _TravelTime(coeff, y_rows)
        s_max = 2.0 / coeff.crossing_speed_min
        ref = np.flatnonzero(xis - xs < DEGENERATE_TOL)
    else:
        # Both components of an edge curve follow the scalar speed.
        phi_w, rows = phi_v, np.zeros(m, dtype=np.int64)
        s_max = 2.0 / coeff.speed_v_min
        ref = np.flatnonzero(-xis < DEGENERATE_TOL)
    start_x, start_xi = np.zeros(m), np.zeros(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        start_x[ref] = phi_v.at(0, xs[ref])
        start_xi[ref] = phi_w.at(rows[ref], xis[ref])
    return _Family(kind, xs, xis, phi_v, phi_w, rows, s_max, ref, start_x,
                   start_xi)


def _events(family: _Family):
    """Each curve's launch abscissa and event time.

    Raises :class:`NonconvergenceError` if a launch is not resolved or an
    event lies beyond ``family.s_max``.
    """
    ref = family.ref
    phi_v, kind = family.phi_v, family.kind
    start_x, start_xi = family.start_x, family.start_xi
    s_end = np.zeros(family.xs.shape[0])
    launch = family.xs.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "cross":
            target, phi_w = start_x[ref] + start_xi[ref], family.phi_w
        else:
            target, phi_w = start_x[ref] - start_xi[ref], None
        launch[ref], resolved = _launch(target, family.rows[ref], phi_v,
                                        phi_w)
        if kind == "cross":
            s_end[ref] = start_x[ref] - phi_v.at(0, launch[ref])
        else:
            s_end[ref] = start_xi[ref]
    missed = np.count_nonzero(~(resolved & (s_end[ref] <= family.s_max)))
    if missed:
        raise NonconvergenceError(
            f"{missed} characteristic curve(s) found no {kind} event before "
            f"s = {family.s_max:.3g}; the model's speeds are too close to zero")
    return launch, s_end


def _read_curves(family: _Family, launch, s_end) -> TracedBundle:
    """A family's curves, cut into cell segments up to their event points."""
    xs, xis, ref = family.xs, family.xis, family.ref
    m = xs.shape[0]
    phi_v = family.phi_v
    on_v = np.zeros(m, dtype=np.int64)
    z = _Component(phi_v, -1, on_v, family.start_x, xs, launch)
    if family.kind == "cross":
        w = _Component(family.phi_w, 1, family.rows, family.start_xi, xis,
                       launch)
    else:
        w = _Component(phi_v, -1, on_v, family.start_xi, xis, np.zeros(m))

    # Cut the curves into segments a block of _CUT_CURVES curves at a time,
    # into arrays sized for a cut at every line between each curve's ends,
    # plus one segment per curve that moves (lines crossed too close to an
    # end and merged corners leave their tails unwritten, and untouched
    # pages cost no memory).
    n_lines = z[ref].lines()[1].sum() + w[ref].lines()[1].sum()
    bound = int(n_lines) + ref.size
    seg_x, seg_xi = np.empty((3, bound)), np.empty((3, bound))
    weights = np.empty(bound)
    offsets = np.zeros(m + 1, dtype=np.int64)
    span = 2.0 ** np.ceil(np.log2(2.0 * family.s_max))
    for lo in range(0, m, _CUT_CURVES):
        block = slice(lo, min(lo + _CUT_CURVES, m))
        offsets[lo + 1:block.stop + 1] = offsets[lo] + _cut_curves(
            z[block], w[block], s_end[block], span, (seg_x, seg_xi, weights),
            offsets[lo])
    n = offsets[-1]
    return TracedBundle(offsets, seg_x[:, :n], seg_xi[:, :n], weights[:n],
                        s_end, launch)


def trace_crossing_batch(coeff: SampledCoefficients, xs, xis, ys
                         ) -> TracedBundle:
    """Trace crossing curves for many triangle points at once."""
    family = _family(coeff, "cross", *_points(xs, xis, ys))
    return _read_curves(family, *_events(family))


def trace_edge_batch(coeff: SampledCoefficients, xs, xis) -> TracedBundle:
    """Trace edge curves for many triangle points at once."""
    family = _family(coeff, "edge", *_points(xs, xis))
    return _read_curves(family, *_events(family))
