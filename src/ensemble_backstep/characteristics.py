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
falls like ``z``).  A trace reads ``Phi_v`` tabulated on the x-nodes, and
``Phi_u`` on the x-nodes for every distinct y of its points, integrated
from ``1/speed`` cell by cell with an adaptive Gauss-Legendre rule
(:func:`_integrate`).  The tables depend on the sampled plant alone, so
they are kept with it (``SampledCoefficients.travel_times``): the first
trace that needs a table builds it, and every later trace of the same
y-nodes reads it.  Every block of a solve traces the same families, so a
solve builds ``Phi_v`` once and ``Phi_u`` once, however many blocks it
traces.

A crossing curve's launch abscissa ``l`` solves
``Phi_v(l) + Phi_u(l) = Phi_v(x) + Phi_u(xi)``, and ``s_end = Phi_v(x) -
Phi_v(l)``; an edge curve has ``s_end = Phi_v(xi)`` and
``launch = Phi_v^-1(Phi_v(x) - Phi_v(xi))``.  A trace may stop each curve
earlier, where its x-component reaches a given x-line ``x_m``, at
``s_end = Phi_v(x) - Phi_v(x_m)``, if that comes first: a crossing curve's
launch lies below ``x_m`` exactly when the summed node values of the two
travel times at ``x_m`` exceed its target, and an edge curve's event comes
later when ``Phi_v(xi)`` exceeds that time, so the node tables decide which
end comes first.  The other component where a curve stops on its line is
read by the inverse travel time in the cell that brackets it.  Each launch
is bracketed between two x-nodes of the tables and refined by Newton steps
on the travel times themselves; every trace solves the launches of its own
curves that reach their event first, and only those.  This relies on the
plant's contract that both speeds are strictly positive on all of [0, 1]
(sampling checks them at the grid nodes only): a curve whose travel time
is infinite or unresolved, or longer than twice the slowest crossing
(edge) time the sampled speeds allow, raises
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

    Curve c runs from its query point ``(x, xi)`` for a time ``s_end[c]``
    to its end: its event, at the launch abscissa ``launch[c]``, or, if it
    reaches it first, the x-line it was to stop at, where ``launch[c]`` is
    NaN; ``end_xi[c]`` is the xi-component at its end (the launch on the
    diagonal, 0 on the edge).  A curve is cut into cell segments where it
    crosses grid lines.  Curve ``c`` owns segments
    ``offsets[c]:offsets[c+1]``, in order from the query point to the end;
    a degenerate curve owns none.
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
    end_xi: np.ndarray

    def simpson_weights(self) -> np.ndarray:
        """Simpson's rule on every segment: the ``(3, S)`` weights of the
        segments' points."""
        return np.array([[0.25], [1.0], [0.25]]) * self.weights

    def path_integral(self, values: np.ndarray) -> np.ndarray:
        """Each curve's path integral, up to its end, of a function
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

    def reach(self, rows, phi):
        """Positions at which rows ``rows`` reach the travel times ``phi``:
        :meth:`inverse` in the cell that brackets each."""
        at = rows * self.nx + _bracket(self.nodes, rows, phi)
        return self.inverse(at, phi.copy())

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


def _travel_time(coeff: SampledCoefficients, ys=None) -> _TravelTime:
    """The travel time of ``speed_v`` (``ys`` None) or of ``speed_u`` at
    the distinct ``ys``, from ``coeff.travel_times``, which keeps the table
    of ``speed_v`` and the last of ``speed_u``: a table is built on the
    first trace that needs it and read by every later trace of the same
    y-nodes, as every block of a solve is."""
    key = "speed_v" if ys is None else "speed_u"
    phi = coeff.travel_times.get(key)
    if phi is None or (ys is not None and not np.array_equal(phi.ys, ys)):
        phi = coeff.travel_times[key] = _TravelTime(coeff, ys)
    return phi


def _bracket(table, rows, target):
    """The cell k, between node values rising along row ``rows[e]`` of
    ``table``, with ``table[rows[e], k] <= target[e] < table[rows[e], k+1]``,
    clipped to the cells."""
    nx = table.shape[1] - 1
    # (row, value) keys sort lexicographically as complex numbers, so one
    # search brackets every target in its own row.  An unresolved node
    # value (NaN) keys as +inf: a complex NaN would sort after every other
    # row and mis-bracket their targets.
    keys = np.empty(table.shape, dtype=complex)
    keys.real = np.arange(table.shape[0])[:, None]
    keys.imag = np.where(np.isnan(table), np.inf, table)
    k = np.searchsorted(keys.ravel(), rows + 1j * target, side="right")
    return np.clip(k - 1 - rows * (nx + 1), 0, nx - 1)


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
    table = phi_v.nodes if phi_u is None else phi_v.nodes + phi_u.nodes
    k = _bracket(table, rows, target)
    first = rows * (phi_v.nx + 1)
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

    Raises :class:`DomainError` unless the coordinates are 1-D arrays of
    one length and every point is finite and lies in ``0 <= xi <= x <= 1``
    (and ``0 <= y <= 1``) up to :data:`DOMAIN_TOL`.
    """
    xs = np.asarray(xs, dtype=float)
    xis = np.asarray(xis, dtype=float)
    shapes = [xs.shape, xis.shape]
    if ys is not None:
        ys = np.asarray(ys, dtype=float)
        shapes.append(ys.shape)
    if xs.ndim != 1 or len(set(shapes)) > 1:
        raise DomainError(f"the points' coordinates must be 1-D arrays of "
                          f"one length, got shapes {shapes}")
    inside = (np.isfinite(xs) & np.isfinite(xis) & (xis >= -DOMAIN_TOL)
              & (xis <= xs + DOMAIN_TOL) & (xs <= 1.0 + DOMAIN_TOL))
    if ys is not None:
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
    and, for a curve that moves, its end point) sort by (curve, time) in
    one linear pass of a stable sort over four runs sorted already; the
    keys shift curve c's times by ``c * span``, with ``span`` a power of two
    above twice the longest end time.  Consecutive ends of one curve
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
    # The end positions: the start, the end point, and at a cut the line
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
    # consecutive ends but the joins from one curve's end to the next
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


def _read_curves(z: _Component, w: _Component, ref, s_end, launch,
                 s_max) -> TracedBundle:
    """Curves whose x- and xi-components are ``z`` and ``w``, cut into cell
    segments up to their end times ``s_end``, with the launch abscissas
    ``launch`` of those that end at their event; ``ref`` are the curves
    that move, and ``s_max`` bounds their end times."""
    m = s_end.size
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
    span = 2.0 ** np.ceil(np.log2(2.0 * s_max))
    for lo in range(0, m, _CUT_CURVES):
        block = slice(lo, min(lo + _CUT_CURVES, m))
        offsets[lo + 1:block.stop + 1] = offsets[lo] + _cut_curves(
            z[block], w[block], s_end[block], span, (seg_x, seg_xi, weights),
            offsets[lo])
    n = offsets[-1]
    return TracedBundle(offsets, seg_x[:, :n], seg_xi[:, :n], weights[:n],
                        s_end, launch, w.p_end)


def _stops(stop, xs, x):
    """The x-line index each curve from the abscissas ``xs`` stops at, and
    its position on the x-nodes ``x``.

    Raises :class:`DomainError` unless ``stop`` is one integer, or one per
    curve, in ``0 .. nx``, its line no higher than its curve's point (up to
    :data:`DOMAIN_TOL`).
    """
    stop, nx = np.asarray(stop), x.size - 1
    if (not np.issubdtype(stop.dtype, np.integer) or stop.ndim > 1
            or stop.size not in (1, xs.size)):
        raise DomainError(f"stop must be one integer x-line index or one per "
                          f"point, got {stop.dtype} of shape {stop.shape}")
    stop = np.broadcast_to(stop.astype(np.int64, copy=False), xs.shape)
    outside = (stop < 0) | (stop > nx)
    if outside.any():
        raise DomainError(f"stop x-line {stop[np.argmax(outside)]} is not "
                          f"in 0..{nx}")
    above = x[stop] > xs + DOMAIN_TOL
    if above.any():
        c = int(np.argmax(above))
        raise DomainError(f"stop x-line {stop[c]} (x={x[stop[c]]:g}) lies "
                          f"above its point's x={xs[c]:g}")
    return stop, x[stop]


def trace_crossing_batch(coeff: SampledCoefficients, xs, xis, ys, stop=0
                         ) -> TracedBundle:
    """Trace crossing curves for many triangle points at once, reading
    ``Phi_u`` tabulated at their distinct ys.

    Each curve ends at its cross event or where its x-component reaches the
    x-line ``stop`` (an index, one per curve or one for all), whichever
    comes first; the default 0 runs every curve to its event.  A launch is
    solved only for the curves that reach the diagonal first.  Raises
    :class:`DomainError` for points that are not 1-D arrays of one length
    or lie outside the triangle, and for a ``stop`` that is not an integer
    x-line index in ``0 .. nx`` at or below its point, and
    :class:`NonconvergenceError` for curves with no resolved end (see the
    module docstring)."""
    xs, xis, ys = _points(xs, xis, ys)
    m = xs.size
    stop, x_stop = _stops(stop, xs, coeff.spec.x_nodes)
    phi_v = _travel_time(coeff)
    y_rows, rows = np.unique(ys, return_inverse=True)
    phi_u = _travel_time(coeff, y_rows)
    s_max = 2.0 / coeff.crossing_speed_min
    ref = np.flatnonzero(xis - xs < DEGENERATE_TOL)
    start_x, start_xi = np.zeros(m), np.zeros(m)
    s_end, launch = np.zeros(m), xs.copy()
    z_end, w_end = xs.copy(), xs.copy()
    resolved = np.ones(m, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        start_x[ref] = phi_v.at(0, xs[ref])
        start_xi[ref] = phi_u.at(rows[ref], xis[ref])
        target = start_x[ref] + start_xi[ref]
        # The launch lies above the stop line exactly when the summed travel
        # times there fall short of the target; an unresolved sum counts as
        # an event, so that the launch solve flags it.
        on_stop = stop[ref], rows[ref]
        line = (phi_v.nodes[0, on_stop[0]]
                + phi_u.nodes[on_stop[1], on_stop[0]]) > target
        event, at_line = ref[~line], ref[line]
        launch[event], resolved[event] = _launch(target[~line], rows[event],
                                                 phi_v, phi_u)
        s_end[event] = start_x[event] - phi_v.at(0, launch[event])
        z_end[event] = w_end[event] = launch[event]
        s_end[at_line] = start_x[at_line] - phi_v.nodes[0, stop[at_line]]
        z_end[at_line] = x_stop[at_line]
        w_end[at_line] = phi_u.reach(rows[at_line],
                                     start_xi[at_line] + s_end[at_line])
        launch[at_line] = np.nan
    missed = np.count_nonzero(~(resolved[ref] & (s_end[ref] <= s_max)))
    if missed:
        raise NonconvergenceError(
            f"{missed} characteristic curve(s) found no cross event before "
            f"s = {s_max:.3g}; the model's speeds are too close to zero")
    z = _Component(phi_v, -1, np.zeros(m, dtype=np.int64), start_x, xs, z_end)
    w = _Component(phi_u, 1, rows, start_xi, xis, w_end)
    return _read_curves(z, w, ref, s_end, launch, s_max)


def trace_edge_batch(coeff: SampledCoefficients, xs, xis, stop=0
                     ) -> TracedBundle:
    """Trace edge curves for many triangle points at once, both components
    falling along ``Phi_v``.

    Each curve ends at its edge event or where its x-component reaches the
    x-line ``stop``, whichever comes first, as in
    :func:`trace_crossing_batch`.  Raises :class:`DomainError` as
    :func:`trace_crossing_batch` does, and :class:`NonconvergenceError` for
    curves with no resolved end (see the module docstring)."""
    xs, xis, _ = _points(xs, xis)
    m = xs.size
    stop, x_stop = _stops(stop, xs, coeff.spec.x_nodes)
    phi_v = _travel_time(coeff)
    on_v = np.zeros(m, dtype=np.int64)
    s_max = 2.0 / coeff.speed_v_min
    ref = np.flatnonzero(-xis < DEGENERATE_TOL)
    start_x, start_xi, s_end = np.zeros(m), np.zeros(m), np.zeros(m)
    launch, z_end, w_end = xs.copy(), xs.copy(), np.zeros(m)
    resolved = np.ones(m, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        start_x[ref] = phi_v.at(0, xs[ref])
        start_xi[ref] = phi_v.at(0, xis[ref])
        s_line = start_x[ref] - phi_v.nodes[0, stop[ref]]
        # An unresolved travel time counts as an event, which flags it.
        line = s_line < start_xi[ref]
        event, at_line = ref[~line], ref[line]
        s_end[event] = start_xi[event]
        launch[event], resolved[event] = _launch(
            start_x[event] - s_end[event], on_v[event], phi_v)
        z_end[event] = launch[event]
        s_end[at_line] = s_line[line]
        z_end[at_line] = x_stop[at_line]
        w_end[at_line] = phi_v.reach(on_v[at_line],
                                     start_xi[at_line] - s_end[at_line])
        launch[at_line] = np.nan
    missed = np.count_nonzero(~(resolved[ref] & (s_end[ref] <= s_max)))
    if missed:
        raise NonconvergenceError(
            f"{missed} characteristic curve(s) found no edge event before "
            f"s = {s_max:.3g}; the model's speeds are too close to zero")
    z = _Component(phi_v, -1, on_v, start_x, xs, z_end)
    w = _Component(phi_v, -1, on_v, start_xi, xis, w_end)
    return _read_curves(z, w, ref, s_end, launch, s_max)
