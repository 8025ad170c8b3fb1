"""Volterra integral equations of the second kind on the triangle.

This module provides the composition quadrature for kernels on the triangle
``0 <= xi <= x <= 1`` and everything built from it:

* iterated-kernel resolvents (Neumann series), and
* the coupling kernel of the stabilized target dynamics, which is the drive
  times the resolvent of the scalar kernel.  The same resolvent is the
  scalar kernel of the inverse state transform.

Path integrals between triangle nodes use the trapezoid rule with the
first-order Gregory end correction (weights ``h/12`` moved between the two
outermost node pairs whenever the span covers at least two cells).  The plain
trapezoid rule leaves an ``O(h^2)`` error with a coefficient large enough to
be visible at the accuracy this package targets; the end correction removes
it at zero extra structural cost since compositions remain dense matrix
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, NonconvergenceError, NumericError
from .grid import GridSpec

#: The resolvent series stops once its last term's sup-norm is at most
#: ``RESOLVENT_TOL``, and gives up after ``RESOLVENT_MAX_TERMS`` terms.
RESOLVENT_TOL = 1e-12
RESOLVENT_MAX_TERMS = 60

__all__ = [
    "ResolventKernel",
    "tri_to_matrix",
    "matrix_to_tri",
    "compose",
    "resolvent",
    "solve_target_coupling",
]


@dataclass(frozen=True)
class ResolventKernel:
    """Summed iterated-kernel series of a scalar triangle kernel.

    ``values`` is the resolvent on the flat triangle index; ``tail_bound`` is
    the sup-norm of the last series term (the truncation control), and
    ``term_sups`` records every term's sup-norm so the factorial decay of the
    series can be audited.
    """

    values: np.ndarray
    n_terms_used: int
    tail_bound: float
    term_sups: tuple[float, ...]


def tri_to_matrix(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    """Expand flat triangle storage to lower-triangular matrices.

    ``(n_tri,)`` becomes ``(N, N)`` and ``(n_tri, ny)`` becomes ``(ny, N, N)``
    with row = x-index, column = xi-index and zeros above the diagonal.
    """
    tri = spec.tri
    n = spec.nx + 1
    values = np.asarray(values, dtype=float)
    if values.shape[0] != tri.n_nodes:
        raise DimensionError(
            f"expected {tri.n_nodes} triangle rows, got {values.shape[0]}")
    if values.ndim == 1:
        out = np.zeros((n, n))
        out[tri.i_index, tri.j_index] = values
    elif values.ndim == 2:
        out = np.zeros((values.shape[1], n, n))
        out[:, tri.i_index, tri.j_index] = values.T
    else:
        raise DimensionError(f"expected 1 or 2 dimensions, got {values.ndim}")
    return out


def matrix_to_tri(spec: GridSpec, mat: np.ndarray) -> np.ndarray:
    """Inverse of :func:`tri_to_matrix` for one ``(N, N)`` matrix."""
    tri = spec.tri
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise DimensionError(f"expected 2 dimensions, got {mat.ndim}")
    return mat[tri.i_index, tri.j_index].copy()


@lru_cache(maxsize=8)
def _wide_span_mask(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] - idx[None, :]) >= 2


def compose(spacing: float, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Quadrature of ``out(x, xi) = integral_xi^x second(x, s) first(s, xi) ds``.

    ``first`` and ``second`` are lower-triangular matrices on the uniform
    x-grid (``second`` may carry leading batch dimensions, or ``first`` may —
    they broadcast).  Node weights are trapezoid with the first Gregory end
    correction on spans of two or more cells; spans of one cell reduce to the
    plain trapezoid and the empty span gives exactly zero.  The result is
    again lower-triangular with a zero diagonal.
    """
    n = first.shape[-1]
    diag_f = np.diagonal(first, axis1=-2, axis2=-1)
    diag_g = np.diagonal(second, axis1=-2, axis2=-1)
    out = spacing * np.matmul(second, first)
    out -= (spacing / 2.0) * (second * diag_f[..., None, :]
                              + diag_g[..., :, None] * first)
    corr = -(diag_g[..., :, None] * first) - (second * diag_f[..., None, :])
    sub_g = np.diagonal(second, offset=-1, axis1=-2, axis2=-1)
    sub_f = np.diagonal(first, offset=-1, axis1=-2, axis2=-1)
    corr[..., 1:, :] += sub_g[..., :, None] * first[..., :-1, :]
    corr[..., :, :-1] += second[..., :, 1:] * sub_f[..., None, :]
    out += (spacing / 12.0) * np.where(_wide_span_mask(n), corr, 0.0)
    return out


def resolvent(spec: GridSpec, ktilde: np.ndarray) -> ResolventKernel:
    """Sum the iterated kernels of a scalar triangle kernel.

    Terms ``T_1 = kernel`` and ``T_{n+1}(x, xi) = integral_xi^x
    T_n(x, s) kernel(s, xi) ds`` are accumulated until the last term's
    sup-norm drops to :data:`RESOLVENT_TOL`; the factorial decay of Volterra
    iterates makes this terminate in a few dozen terms for any bounded
    kernel, and :class:`NonconvergenceError` is raised if it takes more
    than :data:`RESOLVENT_MAX_TERMS`.
    """
    values = np.asarray(ktilde, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NumericError("resolvent input contains non-finite values")
    kernel = tri_to_matrix(spec, values)
    term = kernel.copy()
    acc = kernel.copy()
    sups = [float(np.max(np.abs(term)))]
    n_terms = 1
    while sups[-1] > RESOLVENT_TOL:
        if n_terms >= RESOLVENT_MAX_TERMS:
            raise NonconvergenceError(
                f"resolvent series not below tol={RESOLVENT_TOL} after "
                f"{RESOLVENT_MAX_TERMS} terms",
                final_delta=sups[-1],
            )
        term = compose(spec.hx, kernel, term)
        acc += term
        sups.append(float(np.max(np.abs(term))))
        n_terms += 1
    return ResolventKernel(
        values=matrix_to_tri(spec, acc),
        n_terms_used=n_terms,
        tail_bound=sups[-1],
        term_sups=tuple(sups),
    )


def solve_target_coupling(spec: GridSpec,
                          ktilde: np.ndarray) -> ResolventKernel:
    """The coupling kernel of the target system per unit drive.

    The unknown ``kappa(x, xi, y)`` satisfies ``kappa = drive(x, y)
    ktilde(x, xi) + integral_xi^x kappa(x, s, y) ktilde(s, xi) ds``.  The
    drive does not depend on the integration variable, so ``kappa(x, xi, y)
    = drive(x, y) m(x, xi)`` with ``m`` the resolvent of ``ktilde``, which
    this returns with its series counts: ``values`` in flat triangle
    storage, shape ``(n_tri,)``.
    """
    return resolvent(spec, ktilde)
