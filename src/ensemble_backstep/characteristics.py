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
trace that needs a table builds it, with the keys that bracket targets in
its rows and, for ``Phi_u``, the summed table ``Phi_v + Phi_u`` that
crossing launches solve on, and every later trace of the same y-nodes
reads them, matching its ys to the table's rows by one search.  Every
block of a solve traces the same families, so a solve builds ``Phi_v``
once and ``Phi_u`` once, however many blocks it traces.

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

Every cell's travel time is integrated over the one width ``1/nx``, and
``Phi`` at the nodes is their running sum.  A curve whose x-component
stays in one cell reads it in the cell's own coordinates, its time
counted from the cell's lower node (:meth:`_TravelTime.within`), and a
one-cell step from a node that stops on the x-line below takes the cell's
own travel time: so it moves alike, to the bit, from every cell of one
travel-time profile (:func:`cell_profiles`, one for a constant
``speed_v``), and :func:`line_ends` tells, before any trace, where its
xi-component ends.

A curve is cut into cell segments where either component crosses a grid
line, at times that are differences of node values of its travel times.
A one-cell step, whose x-component crosses no x-line, as every step of
the kernel march, has its ends in time order as they are listed (its
start, its xi-cuts, its end) and is cut as it is.  A curve whose
x-component crosses x-lines is first split at them into pieces that stay
in one x-cell each, a chain of one-cell steps cut in the same way, and
its segments are its pieces' in turn.  A xi-line crossed within
:data:`CORNER_TOL` of an x-line lies at an end of a piece and is not cut
again, so the two count as one crossing of their grid node.  A cut lies
on the line crossed, and the other component there, like both components
at a segment's mid-time, is read by the inverse travel time: the cubic
Hermite in the travel time through the two nodes of the cell, with the
node speeds as slopes, so that reading a point calls no model function.
The bilinear interpolant of a grid field is quadratic along a straight
segment, so Simpson's rule on every segment integrates it exactly along
straight characteristics and to fourth order along curved ones.  Every
trace cuts all its curves at once, into arrays of its own, allocated
once their grid-line crossings are counted.
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

#: Grid-line crossings this close in time to either end of a curve, or of
#: a piece of it between two x-lines, are dropped, so that a curve through
#: a grid node, which crosses its x-line and its xi-line at once, is cut
#: there once, at the x-line that ends a piece: cut and event times are
#: exact to rounding, and a genuinely separate pair this close leaves a
#: piece of curve shorter than this in the neighbouring cell, whose
#: interpolant is continuous with the one it is integrated with.
CORNER_TOL = 1e-8

#: Simpson's rule on a segment: the weights of its start, midpoint and end
#: relative to the midpoint's, as a ``(3, 1)`` column.
SIMPSON_POINT_WEIGHTS = np.array([[0.25], [1.0], [0.25]])
SIMPSON_POINT_WEIGHTS.flags.writeable = False

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
        return SIMPSON_POINT_WEIGHTS * self.weights

    def path_integral(self, values: np.ndarray) -> np.ndarray:
        """Each curve's path integral, up to its end, of a function
        given by its ``(3, S)`` values at the segments' points."""
        per_segment = (self.simpson_weights() * values).sum(axis=0)
        curve = np.repeat(np.arange(self.offsets.size - 1),
                          np.diff(self.offsets))
        return np.bincount(curve, per_segment, minlength=self.offsets.size - 1)


def _gauss(rate, a, width, y):
    """The Gauss-Legendre rule for the integral of ``rate(w, y)`` over
    ``[a, a + width]``, entry by entry."""
    # One call of ``rate`` for the eight nodes, summed in node order by one
    # running sum: a reduction may pair the terms otherwise.
    values = np.broadcast_to(rate(a + _GAUSS_NODES[:, None] * width, y),
                             _GAUSS_NODES.shape + width.shape)
    return np.cumsum(_GAUSS_WEIGHTS[:, None] * values, axis=0)[-1] * width


def _integrate(rate, a, width, y):
    """Integral of ``rate(w, y)`` over ``[a[e], a[e] + width[e]]`` for every
    entry e (``y`` is one value per entry, or None).

    Where the rule on an interval agrees with the rule on its two halves,
    the halves' sum is taken; elsewhere each half is checked in the same
    way, up to :data:`REFINE_DEPTH` halvings.  An entry with an interval
    still unresolved then, or with an infinite integrand, is NaN.  Every
    operation acts entry by entry, so an entry's value does not depend on
    the others, nor, given its width, on where its interval starts, unless
    ``rate`` does.
    """
    total = np.zeros(a.shape)
    entry = np.arange(a.size)
    whole = _gauss(rate, a, width, y)
    for _ in range(REFINE_DEPTH):
        width = 0.5 * width
        mid = a + width
        left = _gauss(rate, a, width, y)
        right = _gauss(rate, mid, width, y)
        halves = left + right
        done = np.abs(halves - whole) <= DOMAIN_TOL * np.abs(halves)
        total += np.bincount(entry[done], halves[done], minlength=total.size)
        split = ~done
        a, mid, width, entry = a[split], mid[split], width[split], entry[split]
        if not entry.size:
            return total
        a, width = np.concatenate([a, mid]), np.tile(width, 2)
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
        # Every cell is integrated over the one width 1/nx, so that cells
        # whose speeds agree take equal times to the bit.
        h = coeff.spec.hx
        self.cells = _integrate(self._rate, np.tile(x[:-1], n_rows),
                                np.full(n_rows * nx, h), y_cells
                                ).reshape(n_rows, nx)
        self.nodes = np.zeros((n_rows, nx + 1))
        np.cumsum(self.cells, axis=1, out=self.nodes[:, 1:])
        # Each cell's Hermite coefficients for :meth:`inverse`, flat over
        # (row, cell), in the cell's own coordinates: its slopes are the
        # node speeds times its travel time, and it rises by 1/nx.
        span = self.cells.ravel()
        self._phi0 = self.nodes[:, :-1].ravel()
        self._per_phi = 1.0 / span
        self._x0 = np.tile(x[:-1], n_rows)
        self._m0 = span * speeds[:, :-1].ravel()
        m1 = span * speeds[:, 1:].ravel()
        self._c2 = 3.0 * h - 2.0 * self._m0 - m1
        self._c3 = self._m0 + m1 - 2.0 * h
        self.keys = _bracket_keys(self.nodes)
        if ys is not None:
            # A crossing curve launches where Phi_v + Phi_u reaches its
            # target: the summed table of every row, with its keys.
            self.summed = _travel_time(coeff).nodes + self.nodes
            self.summed_keys = _bracket_keys(self.summed)

    def _rate(self, w, y):
        return 1.0 / self.speed(w, y)

    def _y(self, rows):
        return None if self.ys is None else self.ys[rows]

    def rate(self, rows, p):
        """``dPhi/dp = 1/speed`` of rows ``rows`` at positions ``p``."""
        return self._rate(p, self._y(rows))

    def within(self, rows, p):
        """The cell of rows ``rows`` each position ``p`` lies in (the one
        below it on a node, cell 0 at 0) and the travel time from the
        cell's lower node to it: the cell's own time on its upper node, 0
        on its lower one, elsewhere the integral over the part below."""
        k = np.minimum(np.maximum(np.searchsorted(self.x, p) - 1, 0),
                       self.nx - 1)
        value = self.cells.ravel()[rows * self.nx + k]
        value[p == self.x[k]] = 0.0
        rest = np.flatnonzero((p != self.x[k]) & (p != self.x[k + 1]))
        y = self._y(rows)
        value[rest] = _integrate(
            self._rate, self.x[k[rest]], p[rest] - self.x[k[rest]],
            None if y is None else np.broadcast_to(y, p.shape)[rest])
        return k, value

    def at(self, rows, p):
        """Travel time of rows ``rows`` to positions ``p``: the node value
        below each plus its time within the cell (:meth:`within`), so that
        a position on a node reads the node's value."""
        k, value = self.within(rows, p)
        value += self.nodes.ravel()[rows * (self.nx + 1) + k]
        return value

    def reach(self, rows, phi):
        """Positions at which rows ``rows`` reach the travel times ``phi``:
        :meth:`inverse` in the cell that brackets each."""
        at = rows * self.nx + _bracket(self.keys, self.nx, rows, phi)
        return self.inverse(at, phi - self._phi0[at])

    def inverse(self, at, phi):
        """Positions at which the travel time past the lower node of the
        cells ``at`` (flat over (row, cell), ``row * nx + cell``) reaches
        ``phi``, read by the cubic Hermite in the travel time through each
        cell's two nodes, with the node speeds (``dp/dPhi``) as slopes, in
        the cell's own coordinates and then placed at its lower node.
        Overwrites ``phi``."""
        u = phi
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


def _travel_time(coeff: SampledCoefficients) -> _TravelTime:
    """The travel time of ``speed_v``, from ``coeff.travel_times``, which
    keeps it and the last table of ``speed_u``: a table is built on the
    first trace that needs it and read by every later trace, as every block
    of a solve is."""
    phi = coeff.travel_times.get("speed_v")
    if phi is None:
        phi = coeff.travel_times["speed_v"] = _TravelTime(coeff)
    return phi


def _ensemble_travel_time(coeff: SampledCoefficients, ys):
    """The travel time of ``speed_u`` at the distinct ``ys``, from
    ``coeff.travel_times`` if its last table is of those y-nodes, and the
    row of it each of ``ys`` reads.  The kept table's rows are matched by
    one search, so the traces of a solve, which all read the same y-nodes,
    sort none of their ys.  A trace of no points gets a table of no rows,
    which is not kept."""
    phi = coeff.travel_times.get("speed_u")
    if phi is not None:
        rows = np.minimum(np.searchsorted(phi.ys, ys), phi.ys.size - 1)
        if (np.array_equal(phi.ys[rows], ys)
                and np.bincount(rows, minlength=phi.ys.size).all()):
            return phi, rows
    y_rows, rows = np.unique(ys, return_inverse=True)
    phi = _TravelTime(coeff, y_rows)
    if y_rows.size:
        coeff.travel_times["speed_u"] = phi
    return phi, rows


def _bracket_keys(table):
    """The keys by which :func:`_bracket` searches the node values of
    ``table``, flat: (row, value) keys sort lexicographically as complex
    numbers, so one search brackets every target in its own row.  An
    unresolved node value (NaN) keys as +inf: a complex NaN would sort
    after every other row and mis-bracket their targets."""
    keys = np.empty(table.shape, dtype=complex)
    keys.real = np.arange(table.shape[0])[:, None]
    keys.imag = np.where(np.isnan(table), np.inf, table)
    return keys.ravel()


def _bracket(keys, nx, rows, target):
    """The cell k, between node values rising along row ``rows[e]`` of a
    table of ``nx`` cells a row, keyed by :func:`_bracket_keys` as
    ``keys``, with ``table[rows[e], k] <= target[e] < table[rows[e], k+1]``,
    clipped to the cells."""
    key = np.empty(target.shape, dtype=complex)
    key.real, key.imag = rows, target
    k = np.searchsorted(keys, key, side="right")
    return np.minimum(np.maximum(k - 1 - rows * (nx + 1), 0), nx - 1)


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
    table, keys = ((phi_v.nodes, phi_v.keys) if phi_u is None
                   else (phi_u.summed, phi_u.summed_keys))
    k = _bracket(keys, phi_v.nx, rows, target)
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
    rising, -1 falling).  ``first[c]`` is the first grid line it may cross,
    in its direction of travel, and ``count[c]`` how many lie between the
    outer lines of its two ends' cells (:meth:`along` finds them).  An
    x-component that stays in one cell also has ``within[c]``, its start's
    travel time past the cell's lower node (:meth:`_TravelTime.within`),
    so that it is read in the cell's own coordinates: every cell with the
    same profile places it alike (:func:`cell_profiles`)."""

    phi: _TravelTime
    sign: int
    rows: np.ndarray
    start: np.ndarray
    p0: np.ndarray
    p_end: np.ndarray
    first: np.ndarray
    count: np.ndarray
    within: np.ndarray | None = None

    @classmethod
    def along(cls, phi: _TravelTime, sign: int, rows, start, p0,
              p_end, within=None) -> _Component:
        """The component, with the lines of every curve found once."""
        nx = phi.nx
        lo = np.floor(np.minimum(p0, p_end) * nx)
        hi = np.ceil(np.maximum(p0, p_end) * nx)
        lo, hi = (np.clip(v, 0, nx).astype(np.int32) for v in (lo, hi))
        return cls(phi, sign, rows, start, p0, p_end,
                   hi if sign < 0 else lo, hi - lo + 1, within)

    def __getitem__(self, curves) -> _Component:
        return _Component(self.phi, self.sign, *(
            None if v is None else v[curves]
            for v in (self.rows, self.start, self.p0, self.p_end,
                      self.first, self.count, self.within)))

    def cell(self, q):
        """The cell each curve starts its first segment in: the one that
        holds the midpoint of its start and ``q``, the first line it
        crosses or, if it crosses none, its end."""
        nx = self.phi.nx
        return np.minimum(np.maximum(
            np.floor(0.5 * (self.p0 + q) * nx).astype(np.int64), 0), nx - 1)

    def position(self, curves, at, t):
        """Where curves ``curves`` are at times ``t``, read in the cells
        ``at`` (flat over (row, cell)): from ``within`` when given, which
        holds the cell's own time, else from ``start`` less the cell's
        lower node value."""
        if self.within is None:
            phi = self.start[curves] + self.sign * t
            phi -= self.phi._phi0[at]
        else:
            phi = self.within[curves] + self.sign * t
        return self.phi.inverse(at, phi)

    def crossings(self, s_end):
        """The grid lines each curve crosses farther than
        :data:`CORNER_TOL` in time from both 0 and ``s_end``, every curve's
        in turn, in time order: their times, how many each curve crosses,
        the lines' indices, and the cell each curve starts its first
        segment in."""
        nx = self.phi.nx
        count = self.count
        curve = np.repeat(np.arange(count.size), count)
        line = self.first[curve] + self.sign * (
            np.arange(curve.size) - np.repeat(np.cumsum(count) - count, count))
        t = self.sign * (self.phi.nodes.ravel()[self.rows[curve] * (nx + 1)
                                                + line] - self.start[curve])
        kept = (t > CORNER_TOL) & (t < s_end[curve] - CORNER_TOL)
        t, line, curve = t[kept], line[kept], curve[kept]
        n = np.bincount(curve, minlength=count.size)
        q = self.p_end.copy()
        crossing = n > 0
        q[crossing] = self.phi.x[line[(np.cumsum(n) - n)[crossing]]]
        return t, n, line, self.cell(q)

    def crosses_none(self, s_end) -> bool:
        """Whether :meth:`crossings` keeps no line of any curve, decided on
        the same times line by line, k-th lines of all curves at once, so
        that the lines are not listed: a one-cell step's x-component
        crosses at most the lines of its cell, at or beyond its ends."""
        at = self.rows * (self.phi.nx + 1) + self.first
        nodes = self.phi.nodes.ravel()
        for k in range(int(self.count.max(initial=0))):
            t = self.sign * (nodes[at + self.sign * np.minimum(
                k, self.count - 1)] - self.start)
            if np.any((t > CORNER_TOL) & (t < s_end - CORNER_TOL)):
                return False
        return True


def _cut_in_order(z: _Component, w: _Component, s_end):
    """Cut moving curves whose x- and xi-components are ``z`` and ``w``,
    and whose x-components stay in one x-cell, into cell segments up to
    time ``s_end``, and return how many each curve has and the S
    segments: their ``(3, S)`` x and xi points (start, midpoint, end) and
    their ``(S,)`` Simpson midpoint weights.

    A curve's ends come in time order as they are listed: its start, the
    cuts of its xi-component and its end.  The x-component's position at
    each cut is read in the cell it stays in, in the cell's own
    coordinates, the xi-component moves on by a cell at each of its cuts,
    and a segment's midpoint is read by the inverse travel time in its
    cells."""
    nx = z.phi.nx
    tw, nw, lw, cell_w = w.crossings(s_end)
    m, count = s_end.size, nw + 1
    e_off = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(count + 1, out=e_off[1:])
    start, end = e_off[:-1], e_off[1:] - 1
    cuts = np.arange(tw.size) + np.repeat(start + 1 - np.cumsum(nw) + nw, nw)
    cut_curve = np.repeat(np.arange(m), nw)
    at_z = z.rows * nx + z.cell(z.p_end)
    t, x, xi = np.zeros(e_off[-1]), np.empty(e_off[-1]), np.empty(e_off[-1])
    t[cuts], t[end] = tw, s_end
    x[start], x[end] = z.p0, z.p_end
    x[cuts] = z.position(cut_curve, at_z[cut_curve], tw)
    xi[start], xi[cuts], xi[end] = w.p0, w.phi.x[lw], w.p_end
    # Segment q of curve c, its k-th, runs from end q + c, in the cell of
    # the xi-component's table that it enters at its k-th cut.
    curve = np.repeat(np.arange(m), count)
    begin = np.arange(curve.size)
    k = begin - np.repeat(start - np.arange(m), count)
    begin += curve
    t_begin = t[begin]
    length = t[begin + 1] - t_begin
    weights = (2.0 / 3.0) * length
    t_mid = 0.5 * length
    t_mid += t_begin
    seg_x, seg_xi = np.empty((3, begin.size)), np.empty((3, begin.size))
    for component, at, position, points in (
            (z, at_z[curve], x, seg_x),
            (w, (w.rows * nx + cell_w)[curve] + w.sign * k, xi, seg_xi)):
        np.take(position, begin, out=points[0])
        points[1] = component.position(curve, at, t_mid)
        np.take(position, begin + 1, out=points[2])
    return count, seg_x, seg_xi, weights


def _one_cell_pieces(z: _Component, w: _Component, s_end):
    """Split moving curves whose x- and xi-components are ``z`` and ``w``
    where their x-components cross an x-line, at the times
    :meth:`_Component.crossings` finds, into pieces that each stay in one
    x-cell, as a one-cell step does: the pieces' x- and xi-components,
    their end times, and where each curve's pieces start among them.  A
    piece after a cut starts there, its x-component on the line crossed,
    a whole cell's time above the cell it enters, and its xi-component
    where the inverse travel time reads it."""
    tz, nz, lz, _ = z.crossings(s_end)
    last = np.cumsum(nz + 1) - 1
    curve = np.repeat(np.arange(s_end.size), nz + 1)
    # Curve c's k-th cut ends its piece k and starts its piece k + 1.
    after = np.arange(tz.size) + np.repeat(np.arange(1, s_end.size + 1), nz)
    t0, t1 = np.zeros(curve.size), np.empty(curve.size)
    t0[after] = t1[after - 1] = tz
    t1[last] = s_end
    cut_curve = curve[after]
    xi_cut = w.phi.reach(w.rows[cut_curve], w.start[cut_curve] + w.sign * tz)

    def split(component: _Component, at_cut, within=None) -> _Component:
        p0, p_end = component.p0[curve], component.p_end[curve]
        p0[after] = p_end[after - 1] = at_cut
        return _Component.along(
            component.phi, component.sign, component.rows[curve],
            component.start[curve] + component.sign * t0, p0, p_end, within)

    within = z.within[curve]
    within[after] = z.phi.cells.ravel()[z.rows[cut_curve] * z.phi.nx + lz - 1]
    return (split(z, z.phi.x[lz], within), split(w, xi_cut), t1 - t0,
            last - nz)


def _read_curves(z: _Component, w: _Component, s_end, launch
                 ) -> TracedBundle:
    """Curves whose x- and xi-components are ``z`` and ``w``, cut into cell
    segments up to their end times ``s_end``, with the launch abscissas
    ``launch`` of those that end at their event.  Curves some of whose
    x-components cross an x-line are cut as the chains of their pieces
    (:func:`_one_cell_pieces`), a curve's segments those of its pieces in
    turn; one-cell steps, as every step of the march, are cut as they
    are."""
    moving = np.flatnonzero(s_end > 0.0)
    z_m, w_m, s_m = z[moving], w[moving], s_end[moving]
    if z_m.crosses_none(s_m):
        counts, x, xi, weights = _cut_in_order(z_m, w_m, s_m)
    else:
        *pieces, first = _one_cell_pieces(z_m, w_m, s_m)
        counts, x, xi, weights = _cut_in_order(*pieces)
        counts = np.add.reduceat(counts, first)
    offsets = np.zeros(s_end.size + 1, dtype=np.int64)
    offsets[moving + 1] = counts
    np.cumsum(offsets, out=offsets)
    return TracedBundle(offsets, x, xi, weights, s_end, launch, w.p_end)


def cell_profiles(coeff: SampledCoefficients, ys=None) -> np.ndarray:
    """The travel-time profile of ``speed_v`` in every x-cell, or, with
    ``ys``, of ``speed_u`` in every lane at ``ys`` at once, as the index of
    the first cell with the same one: the cells whose Hermite inverse in
    their own coordinates (:meth:`_TravelTime.inverse`), their travel time
    and node speeds, agree to the bit, in every lane.  A one-cell step from
    a node that stops on the x-line below it moves alike in every cell of
    one profile of ``speed_v`` (:func:`_start_and_line`), so its segments'
    times, its xi-component and its x-component past the cell's lower line
    are the same to the bit: with a constant ``speed_v`` every cell has one
    profile.  A step whose xi-component moves through cells of the same
    profiles, as a crossing step through those of ``speed_u`` at its lane's
    y, moves alike there too, to rounding: with a ``speed_u`` that does
    not vary in x every cell has one profile."""
    phi = (_travel_time(coeff) if ys is None
           else _ensemble_travel_time(coeff, np.asarray(ys, dtype=float))[0])
    key = np.concatenate([a.reshape(-1, phi.nx).T for a in (
        phi._per_phi, phi._m0, phi._c2, phi._c3)], axis=1)
    _, first, profile = np.unique(key, axis=0, return_index=True,
                                  return_inverse=True)
    return first[profile.ravel()]


def line_ends(coeff: SampledCoefficients, cell: int, xis, ys=None
              ) -> np.ndarray:
    """Where the xi-components from ``xis`` are when the x-component of
    their one-cell step, from the x-line ``cell + 1`` to ``cell``, reaches
    its line: of crossing steps at ``ys``, which may reach the diagonal
    first, or, without ``ys``, of edge steps, 0 where they reach the edge
    first.  These are the ends that :func:`trace_crossing_batch` and
    :func:`trace_edge_batch` give such steps, to the bit, wherever they
    end on their line."""
    xis = np.asarray(xis, dtype=float)
    phi_v = _travel_time(coeff)
    s_line = phi_v.cells[0, cell]
    if ys is None:
        start = phi_v.at(0, xis)
        ends = np.zeros(xis.shape)
        line = s_line < start
        ends[line] = phi_v.reach(0, start[line] - s_line)
        return ends
    phi_u, rows = _ensemble_travel_time(coeff, np.asarray(ys, dtype=float))
    return phi_u.reach(rows, phi_u.at(rows, xis) + s_line)


def _stops(stop, xs, x):
    """The x-line index each curve from the abscissas ``xs`` stops at, on
    the x-nodes ``x``.

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
    return stop


def _start_and_line(phi_v: _TravelTime, xs, stop):
    """The travel times of ``speed_v`` to the abscissas ``xs``, past the
    lower node of the cell each lies in (:meth:`_TravelTime.within`), and
    from the x-lines ``stop`` to them.  A curve that stops on the lower
    line of the cell it starts in takes its time within the cell, so that
    every cell of one profile gives it alike, to the bit."""
    k, within = phi_v.within(0, xs)
    start = phi_v.nodes[0, k] + within
    return start, within, np.where(stop == k, within,
                                   start - phi_v.nodes[0, stop])


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
    stop = _stops(stop, xs, coeff.spec.x_nodes)
    phi_v = _travel_time(coeff)
    phi_u, rows = _ensemble_travel_time(coeff, ys)
    s_max = 2.0 / coeff.crossing_speed_min
    ref = np.flatnonzero(xis - xs < DEGENERATE_TOL)
    start_x, start_xi, within = np.zeros(m), np.zeros(m), np.zeros(m)
    s_end, launch = np.zeros(m), xs.copy()
    z_end, w_end = xs.copy(), xs.copy()
    resolved = np.ones(m, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        start_x[ref], within[ref], s_line = _start_and_line(
            phi_v, xs[ref], stop[ref])
        start_xi[ref] = phi_u.at(rows[ref], xis[ref])
        target = start_x[ref] + start_xi[ref]
        # The launch lies above the stop line exactly when the summed travel
        # times there fall short of the target; an unresolved sum counts as
        # an event, so that the launch solve flags it.
        line = phi_u.summed[rows[ref], stop[ref]] > target
        event, at_line = ref[~line], ref[line]
        launch[event], resolved[event] = _launch(target[~line], rows[event],
                                                 phi_v, phi_u)
        s_end[event] = start_x[event] - phi_v.at(0, launch[event])
        z_end[event] = w_end[event] = launch[event]
        s_end[at_line] = s_line[line]
        z_end[at_line] = phi_v.x[stop[at_line]]
        w_end[at_line] = phi_u.reach(rows[at_line],
                                     start_xi[at_line] + s_end[at_line])
        launch[at_line] = np.nan
    missed = np.count_nonzero(~(resolved[ref] & (s_end[ref] <= s_max)))
    if missed:
        raise NonconvergenceError(
            f"{missed} characteristic curve(s) found no cross event before "
            f"s = {s_max:.3g}; the model's speeds are too close to zero")
    # Only what the cut reads stays alive while it runs.
    del resolved, target, s_line, line, event, at_line
    # Row 0 of the table of speed_v for every curve, as one value.
    z = _Component.along(phi_v, -1, np.broadcast_to(0, m), start_x, xs, z_end,
                         within)
    w = _Component.along(phi_u, 1, rows, start_xi, xis, w_end)
    return _read_curves(z, w, s_end, launch)


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
    stop = _stops(stop, xs, coeff.spec.x_nodes)
    phi_v = _travel_time(coeff)
    on_v = np.broadcast_to(0, m)  # row 0 of the table of speed_v
    s_max = 2.0 / coeff.speed_v_min
    ref = np.flatnonzero(-xis < DEGENERATE_TOL)
    start_x, start_xi, s_end = np.zeros(m), np.zeros(m), np.zeros(m)
    within, launch = np.zeros(m), xs.copy()
    z_end, w_end = xs.copy(), np.zeros(m)
    resolved = np.ones(m, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        start_x[ref], within[ref], s_line = _start_and_line(
            phi_v, xs[ref], stop[ref])
        start_xi[ref] = phi_v.at(0, xis[ref])
        # An unresolved travel time counts as an event, which flags it.
        line = s_line < start_xi[ref]
        event, at_line = ref[~line], ref[line]
        s_end[event] = start_xi[event]
        launch[event], resolved[event] = _launch(
            start_x[event] - s_end[event], on_v[event], phi_v)
        z_end[event] = launch[event]
        s_end[at_line] = s_line[line]
        z_end[at_line] = phi_v.x[stop[at_line]]
        # A curve from the diagonal runs along it, its components alike.
        w_end[at_line] = np.where(
            xis[at_line] == xs[at_line], z_end[at_line],
            phi_v.reach(on_v[at_line], start_xi[at_line] - s_end[at_line]))
        launch[at_line] = np.nan
    missed = np.count_nonzero(~(resolved[ref] & (s_end[ref] <= s_max)))
    if missed:
        raise NonconvergenceError(
            f"{missed} characteristic curve(s) found no edge event before "
            f"s = {s_max:.3g}; the model's speeds are too close to zero")
    # Only what the cut reads stays alive while it runs.
    del resolved, s_line, line, event, at_line
    z = _Component.along(phi_v, -1, on_v, start_x, xs, z_end,
                         within)
    w = _Component.along(phi_v, -1, on_v, start_xi, xis, w_end)
    return _read_curves(z, w, s_end, launch)
