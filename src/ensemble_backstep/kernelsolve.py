"""The kernel equations of a plant solved along characteristic curves.

The transform kernels couple an ensemble-valued unknown ``F(x, xi, y)``
(the kernel ``k``) and a scalar unknown ``G(x, xi)`` (``ktilde``) on the
triangle ``0 <= xi <= x <= 1``.  Every coefficient is a field of the sampled
plant:

* the ensemble equation transports ``F`` along crossing curves and is forced
  by ``readout(xi, y) * G`` plus the ensemble operator (the speed derivative
  and the transposed exchange) applied to ``F``;
* the scalar equation transports ``G`` along edge curves and is forced by
  ``-speed_v_dx(xi) * G`` plus the y-integral of ``drive(xi, y) * F``;
* ``F`` equals ``-readout / (speed_u + speed_v)`` on the diagonal ``xi = x``
  and ``G`` on the edge ``xi = 0`` the y-integral of ``F`` weighted by
  ``inflow_gain * speed_u(0, y) / speed_v(0)``.

Integrating each equation along its curve family turns the system into
coupled integral equations, solved here by successive approximation from
zero.  One family of crossing curves, a curve from every triangle node, is
traced per group of y-nodes whose sampled ensemble speeds are equal at every
x-node: a plant whose speed does not depend on y has one group, one with a
different speed at every y-node has ny (and holds ny operators in memory
instead of one).  Each family reads its curves off one trajectory per
distinct start (see :mod:`.characteristics`) and becomes one sparse
operator that combines path-trapezoid weights with bilinear interpolation
on the triangle, written in CSR one triangle row at a time; the family's
samples are freed once its operator and launch abscissas exist.  Each sweep
evaluates the source terms on the grid and pushes them through these
operators.  Boundary data is always evaluated exactly at the off-grid launch
abscissas, so the diagonal condition holds exactly at nodes and the edge
condition holds to the fixed-point tolerance.  The solution is returned
together with the outlet gain row used by the controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .characteristics import trace_crossing_batch, trace_edge_batch
from .errors import NonconvergenceError, NumericError
from .grid import GridSpec, TriangularIndex, corner_weights
from .model import PlantModel, SampledCoefficients, sample_coefficients

__all__ = [
    "GoursatProblem",
    "GoursatResult",
    "GainRow",
    "KernelSolution",
    "solve_goursat",
    "build_backstepping_problem",
    "solve_backstepping_kernels",
    "kernel_pde_residual",
    "kernel_solution_from_evaluators",
]


@dataclass(frozen=True)
class GoursatProblem:
    """The kernel system of one sampled plant.

    Every coefficient is read from ``coeff``.  ``apply_ensemble_operator(tri,
    field)`` receives the full ensemble iterate as a ``(n_tri, ny)`` array
    and returns the ensemble operator applied per triangle node (linear in
    the field, acting only within each node's y-profile); the solver calls
    it once at the start of every sweep.
    """

    coeff: SampledCoefficients
    apply_ensemble_operator: Callable


@dataclass(frozen=True)
class GoursatResult:
    """Converged iterates of the kernel system with iteration diagnostics."""

    F: np.ndarray
    G: np.ndarray
    iterations: int
    final_delta: float
    deltas: tuple[float, ...]


@dataclass(frozen=True)
class GainRow:
    """Kernel slices at the actuated end, ready for the feedback law."""

    k_row: np.ndarray
    ktilde_row: np.ndarray


@dataclass(frozen=True)
class KernelSolution:
    """Solved transform kernels on the triangle plus controller gain data."""

    k: np.ndarray
    ktilde: np.ndarray
    iterations: int
    final_delta: float
    gain_row: GainRow
    spec: GridSpec


def _quadrature_matrix(spec: GridSpec, bundle) -> sparse.csr_matrix:
    """Sparse operator turning a grid field into per-node path integrals.

    Row ``t`` of the result, applied to a flat triangle field, yields the
    trapezoid integral of the bilinear interpolant of that field along the
    traced curve of triangle node ``t``.  Each triangle row's curves are
    written as one CSR block straight from the bundle: every sample adds
    its four interpolation corners, so ``4 * offsets`` is the row pointer,
    and the corners a curve's samples share are summed.
    """
    tri = spec.tri
    offsets = bundle.offsets
    bounds = np.append(tri.row_start, tri.n_nodes)
    blocks = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        lo, hi = offsets[a], offsets[b]
        idx4, w4 = corner_weights(spec.nx, bundle.sample_x[lo:hi],
                                  bundle.sample_xi[lo:hi])
        block = sparse.csr_matrix(
            ((bundle.weights[lo:hi, None] * w4).ravel(), idx4.ravel(),
             4 * (offsets[a:b + 1] - lo)), shape=(b - a, tri.n_nodes))
        block.sum_duplicates()
        blocks.append(block)
    return sparse.vstack(blocks, format="csr")


def _edge_interp_indices(spec: GridSpec, launch: np.ndarray):
    """Linear-in-x interpolation data for edge nodes (xi = 0) at off-grid x."""
    pos = np.clip(launch, 0.0, 1.0) * spec.nx
    i0 = np.clip(np.floor(pos).astype(np.int64), 0, spec.nx - 1)
    frac = pos - i0
    flat0 = i0 * (i0 + 1) // 2
    flat1 = (i0 + 1) * (i0 + 2) // 2
    return flat0, flat1, frac


def solve_goursat(problem: GoursatProblem, tol: float = 1e-10,
                  max_iter: int = 60) -> GoursatResult:
    """Solve the kernel system by successive approximation.

    Starts both unknowns from zero and sweeps until the sup-norm increment of
    both falls below ``tol``.  Each sweep computes the ensemble update from
    the previous iterates, then the scalar update using the fresh ensemble
    values in the edge condition and the previous iterates in the path
    integral.

    Raises
    ------
    NonconvergenceError
        If ``max_iter`` sweeps do not reach ``tol`` (carries the last
        increment as ``final_delta``).
    NumericError
        If an iterate stops being finite.
    """
    coeff = problem.coeff
    model = coeff.model
    spec = coeff.spec
    tri = spec.tri
    n_tri = tri.n_nodes
    xs = tri.x_coord
    xis = tri.xi_coord
    wy = spec.y_weights

    # y-nodes whose sampled speed columns are equal, which the grid cannot
    # tell apart, share one family of crossing curves traced at the first.
    _, group = np.unique(coeff.speed_u_grid.T, axis=0, return_inverse=True)
    cross_ops = []
    f_boundary = np.empty((n_tri, spec.ny))
    for g in range(group.max() + 1):
        cols = np.flatnonzero(group == g)
        y = spec.y_nodes[cols]
        if cols[-1] - cols[0] + 1 == cols.size:
            # A slice, not an index array: no copy of the columns per sweep.
            cols = slice(cols[0], cols[-1] + 1)
        bundle = trace_crossing_batch(coeff, xs, xis, np.full(n_tri, y[0]))
        cross_ops.append((cols, _quadrature_matrix(spec, bundle)))
        launch = bundle.launch[:, None]
        # A family's samples are the bulk of the solve's memory: each bundle
        # goes as soon as its operator and launch data exist.
        del bundle
        f_boundary[:, cols] = -model.readout(launch, y) / (
            model.speed_u(launch, y) + model.speed_v(launch))

    bundle = trace_edge_batch(coeff, xs, xis)
    edge_op = _quadrature_matrix(spec, bundle)
    edge_flat0, edge_flat1, edge_frac = _edge_interp_indices(spec, bundle.launch)
    del bundle
    edge_gain = (coeff.inflow_gain_grid * coeff.speed_u_grid[0]
                 / coeff.speed_v_grid[0] * wy)

    scalar_to_ensemble = coeff.readout_grid[tri.j_index]
    scalar_decay = -coeff.speed_v_dx_grid[tri.j_index]
    ensemble_to_scalar = coeff.drive_grid[tri.j_index] * wy

    F = np.zeros((n_tri, spec.ny))
    G = np.zeros(n_tri)
    deltas: list[float] = []
    for iteration in range(1, max_iter + 1):
        source_F = (scalar_to_ensemble * G[:, None]
                    + problem.apply_ensemble_operator(tri, F))
        F_new = np.empty_like(F)
        for cols, op in cross_ops:
            F_new[:, cols] = f_boundary[:, cols] + op @ source_F[:, cols]

        source_G = scalar_decay * G + (ensemble_to_scalar * F).sum(axis=1)
        edge_rows = ((1.0 - edge_frac)[:, None] * F_new[edge_flat0]
                     + edge_frac[:, None] * F_new[edge_flat1])
        G_new = edge_op @ source_G + (edge_gain * edge_rows).sum(axis=1)

        if not (np.all(np.isfinite(F_new)) and np.all(np.isfinite(G_new))):
            raise NumericError("Goursat iterate is no longer finite")
        delta = max(float(np.max(np.abs(F_new - F))),
                    float(np.max(np.abs(G_new - G))))
        deltas.append(delta)
        F = F_new
        G = G_new
        if delta < tol:
            return GoursatResult(F=F, G=G, iterations=iteration,
                                 final_delta=delta, deltas=tuple(deltas))
    raise NonconvergenceError(
        f"Goursat iteration did not reach tol={tol} in {max_iter} sweeps",
        final_delta=deltas[-1],
    )


def _transpose_exchange_rows(coeff: SampledCoefficients, j_values: np.ndarray,
                             rows: np.ndarray) -> np.ndarray:
    """Apply the transposed y-exchange at per-row positions ``j_values``.

    Row ``r`` of the result is the y-profile ``rows[r]`` integrated against
    the exchange field sampled at x-index ``j_values[r]``, with the
    integration hitting the first (not the second) ensemble slot.
    """
    out = np.empty_like(rows)
    wy = coeff.spec.y_weights
    weighted = rows * wy
    for j in np.unique(j_values):
        sel = np.nonzero(j_values == j)[0]
        out[sel] = weighted[sel] @ coeff.exchange_grid[j]
    return out


def build_backstepping_problem(model: PlantModel, spec: GridSpec) -> GoursatProblem:
    """Sample the plant and pair it with its ensemble operator."""
    coeff = sample_coefficients(model, spec)

    def apply_ensemble_operator(tri: TriangularIndex, field: np.ndarray) -> np.ndarray:
        out = coeff.speed_u_dx_grid[tri.j_index] * field
        out += _transpose_exchange_rows(coeff, tri.j_index, field)
        return out

    return GoursatProblem(coeff=coeff,
                          apply_ensemble_operator=apply_ensemble_operator)


def _gain_row(spec: GridSpec, k: np.ndarray, ktilde: np.ndarray) -> GainRow:
    outlet = spec.tri.row_slice(spec.nx)
    return GainRow(k_row=k[outlet].copy(), ktilde_row=ktilde[outlet].copy())


def solve_backstepping_kernels(model: PlantModel, spec: GridSpec,
                               tol: float = 1e-10,
                               max_iter: int = 60) -> KernelSolution:
    """Solve the transform-kernel equations for a plant on a given grid."""
    problem = build_backstepping_problem(model, spec)
    result = solve_goursat(problem, tol=tol, max_iter=max_iter)
    return KernelSolution(
        k=result.F,
        ktilde=result.G,
        iterations=result.iterations,
        final_delta=result.final_delta,
        gain_row=_gain_row(spec, result.F, result.G),
        spec=spec,
    )


def kernel_solution_from_evaluators(spec: GridSpec, ensemble_kernel,
                                    scalar_kernel) -> KernelSolution:
    """Sample closed-form kernel evaluators into a KernelSolution.

    ``ensemble_kernel(x, xi, y)`` and ``scalar_kernel(x, xi)`` must broadcast
    over arrays.  Useful for injecting known solutions as references.
    """
    tri = spec.tri
    k = np.broadcast_to(
        np.asarray(ensemble_kernel(tri.x_coord[:, None], tri.xi_coord[:, None],
                                   spec.y_nodes[None, :]), dtype=float),
        (tri.n_nodes, spec.ny)).copy()
    ktilde = np.broadcast_to(
        np.asarray(scalar_kernel(tri.x_coord, tri.xi_coord), dtype=float),
        (tri.n_nodes,)).copy()
    return KernelSolution(
        k=k,
        ktilde=ktilde,
        iterations=0,
        final_delta=0.0,
        gain_row=_gain_row(spec, k, ktilde),
        spec=spec,
    )


def kernel_pde_residual(sol: KernelSolution,
                        model: PlantModel) -> tuple[float, float]:
    """One-sided finite-difference residuals of both kernel equations.

    Samples ``model`` on ``sol.spec`` and evaluates the ensemble and scalar
    kernel equations at interior triangle nodes, excluding a one-cell band
    along the diagonal and along the ``xi = 0`` edge where the one-sided
    stencils would cross the data lines.
    Each equation's max absolute residual is normalized by the sup of the
    kernel it differentiates (floored at 1), since the finite-difference
    truncation error scales with the field; both normalized residuals shrink
    linearly with the grid spacing for a converged (or exact) kernel pair.
    """
    spec = sol.spec
    nx = spec.nx
    h = spec.hx
    if nx < 4:
        return 0.0, 0.0
    coeff = sample_coefficients(model, spec)
    iv = np.repeat(np.arange(4, nx + 1), np.arange(1, nx - 2))
    jv = np.concatenate([np.arange(2, i - 1) for i in range(4, nx + 1)])
    f_ij = iv * (iv + 1) // 2 + jv
    f_im1j = (iv - 1) * iv // 2 + jv
    f_ijp1 = f_ij + 1
    f_ijm1 = f_ij - 1

    k = sol.k
    kt = sol.ktilde
    k_rows = k[f_ij]
    kx = (k_rows - k[f_im1j]) / h
    kxi = (k[f_ijp1] - k_rows) / h
    mu_x = coeff.speed_v_grid[iv][:, None]
    lam_xi = coeff.speed_u_grid[jv]
    lam_dxi = coeff.speed_u_dx_grid[jv]
    theta_term = _transpose_exchange_rows(coeff, jv, k_rows)
    readout_term = coeff.readout_grid[jv] * kt[f_ij][:, None]
    res_ensemble = mu_x * kx - lam_xi * kxi - (lam_dxi * k_rows + theta_term
                                               + readout_term)

    ktx = (kt[f_ij] - kt[f_im1j]) / h
    ktxi = (kt[f_ij] - kt[f_ijm1]) / h
    mu_xi = coeff.speed_v_grid[jv]
    mu_dxi = coeff.speed_v_dx_grid[jv]
    drive_term = (coeff.drive_grid[jv] * k_rows) @ spec.y_weights
    res_scalar = (coeff.speed_v_grid[iv] * ktx + mu_xi * ktxi
                  + mu_dxi * kt[f_ij] - drive_term)

    k_scale = max(1.0, float(np.max(np.abs(k))))
    kt_scale = max(1.0, float(np.max(np.abs(kt))))
    return (float(np.max(np.abs(res_ensemble))) / k_scale,
            float(np.max(np.abs(res_scalar))) / kt_scale)
