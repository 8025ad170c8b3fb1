"""Characteristic curves of the kernel PDEs and their crossing times.

Two families of curves convert the kernel PDEs into integral equations:

* *Crossing curves*: from a triangle point ``(x, xi)`` one curve runs backward
  from ``x`` with the scalar speed and one runs forward from ``xi`` with the
  ensemble speed (at a fixed ensemble parameter y); they meet after time
  ``s_end`` at the launch abscissa where the diagonal data applies.
* *Edge curves*: both components move with the scalar speed; the lower
  component reaches the ``xi = 0`` edge after time ``s_end``, and the launch
  abscissa carries the edge data.

Each component follows its own ODE from its own start, so a batch integrates
every distinct start once (classical RK4, fixed step, whole horizon) and each
curve is a prefix of its two trajectories.  Both speeds are assumed strictly
positive on [0, 1] (the plant checks them at the grid nodes): the event
difference then grows strictly along a curve, bisection over the step index
finds its event step, and bisection on a cubic-Hermite interpolant of the
difference (values and slopes at the step ends come from the ODE right-hand
sides) refines the event time.  Speeds are evaluated at positions clamped to
[0, 1] so that tiny overshoots beyond the domain stay well-defined.
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

#: Refinement target for the interpolated event difference, and the
#: bisection steps allowed to reach it.
REFINE_TOL = 1e-10
REFINE_STEPS = 120

#: Round-off by which a query point may stray outside its domain.
DOMAIN_TOL = 1e-12

#: Event differences above this (negative) threshold at s = 0 count as
#: already-crossed degenerate curves (diagonal points, edge points).
DEGENERATE_TOL = -1e-14


@dataclass(frozen=True)
class TracedBundle:
    """Many traced curves, concatenated, in backward parametrization.

    Curve ``c`` owns samples ``offsets[c]:offsets[c+1]`` of ``sample_x`` /
    ``sample_xi``; ``weights`` are trapezoid weights in the curve parameter,
    so ``sum(weights * f(sample_x, sample_xi))`` over a curve's slice
    approximates the path integral of ``f`` up to the event time.  Sample 0
    is the query point ``(x, xi)``; the last sample is the refined event
    point.
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
    """
    lo = np.zeros_like(d0)
    hi = np.ones_like(d0)
    result = np.full_like(d0, 0.5)
    done = np.zeros(d0.shape, dtype=bool)
    for _ in range(REFINE_STEPS):
        mid = 0.5 * (lo + hi)
        val = _hermite(d0, d1, m0, m1, mid)
        hit = np.abs(val) <= REFINE_TOL
        newly = hit & ~done
        result[newly] = mid[newly]
        done |= hit
        if done.all():
            break
        neg = val < 0.0
        lo = np.where(neg & ~done, mid, lo)
        hi = np.where(~neg & ~done, mid, hi)
    result[~done] = (0.5 * (lo + hi))[~done]
    return result


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


def _gather(table, row, first, lengths):
    """Sample p of curve c is step ``p - first[c]`` of trajectory ``row[c]``."""
    index = np.repeat(row * table.shape[1] - first, lengths)
    index += np.arange(index.size)
    return table.ravel()[index]


def _check_domain(xs, xis, ys) -> None:
    """Raise :class:`DomainError` unless every point is finite and lies in
    ``0 <= xi <= x <= 1`` (and ``0 <= y <= 1``) up to :data:`DOMAIN_TOL`."""
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


def _trace_batch(coeff: SampledCoefficients, kind: str, xs, xis, ys, step) -> TracedBundle:
    xs = np.asarray(xs, dtype=float)
    xis = np.asarray(xis, dtype=float)
    if ys is not None:
        ys = np.asarray(ys, dtype=float)
    _check_domain(xs, xis, ys)
    h = _default_step(coeff, step)
    model = coeff.model
    m = xs.shape[0]

    s_max = 2.0 / (coeff.crossing_speed_min if kind == "cross" else coeff.speed_v_min)
    n_alloc = int(np.ceil(s_max / h)) + 2

    def dz(z, y=None):
        return -model.speed_v(np.clip(z, 0.0, 1.0))

    # One trajectory per distinct start: row z_row[c] of z_table is curve
    # c's x-component, row w_row[c] of w_table its xi-component.
    if kind == "cross":
        def dw(w, y):
            return model.speed_u(np.clip(w, 0.0, 1.0), y)

        def event(z, w):
            return w - z

        starts_z, z_row = np.unique(xs, return_inverse=True)
        starts_w, w_row = np.unique(np.stack([xis, ys], axis=1), axis=0,
                                    return_inverse=True)
        z_table = _trajectories(dz, starts_z, None, h, n_alloc)
        w_table = _trajectories(dw, starts_w[:, 0], starts_w[:, 1], h, n_alloc)
    else:
        # Both components of an edge curve follow the scalar speed, so one
        # table serves both.
        dw = dz

        def event(z, w):
            return -w

        starts, row = np.unique(np.concatenate([xs, xis]), return_inverse=True)
        z_row, w_row = row[:m], row[m:]
        z_table = w_table = _trajectories(dz, starts, None, h, n_alloc)

    ref = np.flatnonzero(event(xs, xis) < DEGENERATE_TOL)
    zr, wr = z_row[ref], w_row[ref]
    yr = ys[ref] if ys is not None else None
    missed = np.count_nonzero(event(z_table[zr, -1], w_table[wr, -1]) < 0.0)
    if missed:
        raise NonconvergenceError(
            f"{missed} characteristic curve(s) found no {kind} event before "
            f"s = {s_max:.3g}; the model's speeds are too close to zero")
    # Bisect for the first step with event >= 0, the difference being monotone.
    lo = np.zeros(ref.size, dtype=np.int64)
    hi = np.full(ref.size, n_alloc - 1)
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        crossed = event(z_table[zr, mid], w_table[wr, mid]) >= 0.0
        hi = np.where(crossed, mid, hi)
        lo = np.where(crossed, lo, mid)

    K = lo
    zk, zk1 = z_table[zr, K], z_table[zr, K + 1]
    wk, wk1 = w_table[wr, K], w_table[wr, K + 1]
    dz0, dz1 = dz(zk), dz(zk1)
    dw0, dw1 = dw(wk, yr), dw(wk1, yr)
    # event is linear, so its slope is event applied to the velocities
    tau = _hermite_bisect(event(zk, wk), event(zk1, wk1),
                          h * event(dz0, dw0), h * event(dz1, dw1))
    s_end = np.zeros(m)
    s_end[ref] = (K + tau) * h
    launch = xs.copy()
    launch[ref] = _hermite(zk, zk1, h * dz0, h * dz1, tau)
    w_star = _hermite(wk, wk1, h * dw0, h * dw1, tau)

    # A curve with bracket step K holds steps 0..K of its trajectories and
    # the refined event point; a degenerate curve holds its query point.
    lengths = np.ones(m, dtype=np.int64)
    lengths[ref] = K + 2
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    first = offsets[:-1]
    sample_x = _gather(z_table, z_row, first, lengths)
    sample_xi = _gather(w_table, w_row, first, lengths)
    end = first[ref] + K + 1
    sample_x[end] = launch[ref]
    sample_xi[end] = w_star

    # Trapezoid weights: h/2 at the first sample, h inside, and the partial
    # step rem = s_end - K*h split over the last two.
    rem = s_end[ref] - K * h
    weights = np.full(offsets[-1], h)
    weights[first] = 0.0
    weights[first[ref]] = h / 2.0
    weights[end - 1] = np.where(K > 0, h / 2.0, 0.0) + rem / 2.0
    weights[end] = rem / 2.0
    return TracedBundle(offsets, sample_x, sample_xi, weights, s_end, launch, h)


def trace_crossing_batch(coeff: SampledCoefficients, xs, xis, ys,
                         step: float | None = None) -> TracedBundle:
    """Trace crossing curves for many triangle points at once."""
    return _trace_batch(coeff, "cross", xs, xis, ys, step)


def trace_edge_batch(coeff: SampledCoefficients, xs, xis,
                     step: float | None = None) -> TracedBundle:
    """Trace edge curves for many triangle points at once."""
    return _trace_batch(coeff, "edge", xs, xis, None, step)

