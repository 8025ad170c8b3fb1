"""Characteristic curves of the kernel PDEs and their crossing times.

Two families of curves convert the kernel PDEs into integral equations:

* *Crossing curves*: from a triangle point ``(x, xi)`` one curve runs backward
  from ``x`` with the scalar speed and one runs forward from ``xi`` with the
  ensemble speed (at a fixed ensemble parameter y); they meet after time
  ``s_end`` at the launch abscissa where the diagonal data applies.
* *Edge curves*: both components move with the scalar speed; the lower
  component reaches the ``xi = 0`` edge after time ``s_end``, and the launch
  abscissa carries the edge data.

Both are integrated with a fixed-step classical fourth-order scheme, the
event step is bracketed by a sign change, and the event time is refined by
bisection on a cubic-Hermite interpolant of the monitored difference (values
and slopes at the bracketing step ends are available from the ODE right-hand
sides).  Speeds are evaluated with positions clamped to [0, 1] so that tiny
overshoots beyond the domain stay well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonconvergenceError
from .grid import GridSpec
from .model import PlantModel, SampledCoefficients, sample_coefficients

__all__ = [
    "TracedBundle",
    "trace_crossing_batch",
    "trace_edge_batch",
]

#: Refinement target for the interpolated event difference.
REFINE_TOL = 1e-10

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
    n_steps: np.ndarray
    step: float


def _as_sampled(coeff, spec: GridSpec | None = None) -> SampledCoefficients:
    if isinstance(coeff, SampledCoefficients):
        return coeff
    if isinstance(coeff, PlantModel):
        return sample_coefficients(coeff, spec or GridSpec(nx=100, ny=60))
    raise TypeError(f"expected SampledCoefficients or PlantModel, got {type(coeff)!r}")


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


def _hermite_bisect(d0, d1, m0, m1, tol=REFINE_TOL, max_iter=120):
    """Vectorized bisection of the Hermite interpolant to |value| <= tol.

    The data satisfies d0 < 0 <= d1, so a sign change exists in (0, 1].
    """
    lo = np.zeros_like(d0)
    hi = np.ones_like(d0)
    result = np.full_like(d0, 0.5)
    done = np.zeros(d0.shape, dtype=bool)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        val = _hermite(d0, d1, m0, m1, mid)
        hit = np.abs(val) <= tol
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


def _trace_batch_chunk(coeff: SampledCoefficients, kind: str, xs, xis, ys, h, s_max):
    """Trace one chunk of curves; returns per-curve arrays (backward order)."""
    model = coeff.model
    m = xs.shape[0]

    def dz(z):
        return -model.speed_v(np.clip(z, 0.0, 1.0))

    if kind == "cross":
        def dw(w, y):
            return model.speed_u(np.clip(w, 0.0, 1.0), y)

        def event(z, w):
            return w - z

        def event_slope(z, w, y):
            return model.speed_u(np.clip(w, 0.0, 1.0), y) + model.speed_v(np.clip(z, 0.0, 1.0))
    elif kind == "edge":
        def dw(w, y):
            return -model.speed_v(np.clip(w, 0.0, 1.0))

        def event(z, w):
            return -w

        def event_slope(z, w, y):
            return model.speed_v(np.clip(w, 0.0, 1.0))
    else:  # pragma: no cover - internal
        raise ValueError(kind)

    n_alloc = int(np.ceil(s_max / h)) + 2
    z_hist = np.empty((m, n_alloc))
    w_hist = np.empty((m, n_alloc))
    z_hist[:, 0] = xs
    w_hist[:, 0] = xis

    d_start = event(xs, xis)
    degenerate = d_start >= DEGENERATE_TOL
    active = ~degenerate
    bracket = np.zeros(m, dtype=np.int64)

    k = 0
    while active.any():
        if k + 1 >= n_alloc:
            raise NonconvergenceError(
                f"{int(active.sum())} characteristic curve(s) found no "
                f"{kind} event before s = {s_max:.3g}; the model's speeds "
                "are too close to zero"
            )
        idx = np.nonzero(active)[0]
        z = z_hist[idx, k]
        w = w_hist[idx, k]
        y = ys[idx] if ys is not None else None

        k1z = dz(z)
        k1w = dw(w, y)
        k2z = dz(z + 0.5 * h * k1z)
        k2w = dw(w + 0.5 * h * k1w, y)
        k3z = dz(z + 0.5 * h * k2z)
        k3w = dw(w + 0.5 * h * k2w, y)
        k4z = dz(z + h * k3z)
        k4w = dw(w + h * k3w, y)
        z_new = z + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        w_new = w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)

        z_hist[idx, k + 1] = z_new
        w_hist[idx, k + 1] = w_new
        crossed = event(z_new, w_new) >= 0.0
        bracket[idx[crossed]] = k
        active[idx[crossed]] = False
        k += 1

    rows = np.arange(m)
    s_end = np.zeros(m)
    launch = xs.astype(float).copy()
    w_star = xis.astype(float).copy()

    ref = np.nonzero(~degenerate)[0]
    if ref.size:
        K = bracket[ref]
        zk = z_hist[ref, K]
        zk1 = z_hist[ref, K + 1]
        wk = w_hist[ref, K]
        wk1 = w_hist[ref, K + 1]
        yk = ys[ref] if ys is not None else None
        d0 = event(zk, wk)
        d1 = event(zk1, wk1)
        m0 = h * event_slope(zk, wk, yk)
        m1 = h * event_slope(zk1, wk1, yk)
        tau = _hermite_bisect(d0, d1, m0, m1)
        s_end[ref] = (K + tau) * h
        launch[ref] = _hermite(zk, zk1, h * dz(zk), h * dz(zk1), tau)
        w_star[ref] = _hermite(wk, wk1, h * dw(wk, yk), h * dw(wk1, yk), tau)

    # Per non-degenerate curve: history samples 0..K (K+1 points) plus the
    # refined endpoint, K+2 slots total.  Reserving more would leave trailing
    # uninitialized slots whose bytes vary run to run.
    lengths = np.where(degenerate, 1, bracket + 2)
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    sample_x = np.empty(total)
    sample_xi = np.empty(total)
    weights = np.zeros(total)

    for c in rows:
        o = int(offsets[c])
        if degenerate[c]:
            sample_x[o] = xs[c]
            sample_xi[o] = xis[c]
            continue
        K = int(bracket[c])
        npre = K + 1
        sample_x[o : o + npre] = z_hist[c, :npre]
        sample_xi[o : o + npre] = w_hist[c, :npre]
        sample_x[o + npre] = launch[c]
        sample_xi[o + npre] = w_star[c]
        rem = s_end[c] - K * h
        if npre == 1:
            weights[o] = rem / 2.0
            weights[o + 1] = rem / 2.0
        else:
            weights[o] = h / 2.0
            weights[o + 1 : o + npre - 1] = h
            weights[o + npre - 1] = h / 2.0 + rem / 2.0
            weights[o + npre] = rem / 2.0

    n_steps = np.where(degenerate, 0, bracket + 1).astype(np.int64)
    return offsets, sample_x, sample_xi, weights, s_end, launch, n_steps


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
    if kind == "cross":
        s_max = 2.0 / coeff.crossing_speed_min
    else:
        s_max = 2.0 / coeff.speed_v_min

    n_alloc = int(np.ceil(s_max / h)) + 2
    chunk = int(np.clip(2_500_000 // max(n_alloc, 1), 64, 8192))

    parts = []
    for start in range(0, xs.shape[0], chunk):
        sl = slice(start, start + chunk)
        parts.append(
            _trace_batch_chunk(
                coeff, kind, xs[sl], xis[sl],
                ys[sl] if ys is not None else None, h, s_max,
            )
        )
    if len(parts) == 1:
        offsets, sample_x, sample_xi, weights, s_end, launch, n_steps = parts[0]
    else:
        offsets_list = [parts[0][0]]
        base = parts[0][0][-1]
        for p in parts[1:]:
            offsets_list.append(p[0][1:] + base)
            base = base + p[0][-1]
        offsets = np.concatenate(offsets_list)
        sample_x = np.concatenate([p[1] for p in parts])
        sample_xi = np.concatenate([p[2] for p in parts])
        weights = np.concatenate([p[3] for p in parts])
        s_end = np.concatenate([p[4] for p in parts])
        launch = np.concatenate([p[5] for p in parts])
        n_steps = np.concatenate([p[6] for p in parts])
    return TracedBundle(offsets, sample_x, sample_xi, weights, s_end, launch,
                        n_steps, h)


def trace_crossing_batch(coeff, xs, xis, ys, step: float | None = None,
                         spec: GridSpec | None = None) -> TracedBundle:
    """Trace crossing curves for many triangle points at once."""
    return _trace_batch(_as_sampled(coeff, spec), "cross", xs, xis, ys, step)


def trace_edge_batch(coeff, xs, xis, step: float | None = None,
                     spec: GridSpec | None = None) -> TracedBundle:
    """Trace edge curves for many triangle points at once."""
    return _trace_batch(_as_sampled(coeff, spec), "edge", xs, xis, None, step)

