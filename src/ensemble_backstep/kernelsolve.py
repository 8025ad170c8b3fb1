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
samples are freed once its operator and launch abscissas exist.  Boundary
data is always evaluated exactly at the off-grid launch abscissas, so the
diagonal condition holds exactly at nodes and the edge condition holds to
the fixed-point tolerance.

With one family the crossing operators act on x and xi only, so y moves
only through the exchange and the speed derivative, and the sweeps run in
the smallest y-subspace that holds every iterate: ``F = C @ B.T`` with
``B`` an orthonormal ``(ny, r)`` basis (r = 1 for the toy), each operator
applied to r columns and the exchange to one ``r x r`` block per x-node.
With more than one family, or when that subspace is all of y, ``B`` is the
identity and the sweeps act on every y-node.  The solver returns the
kernel pair with its iteration history; the controller reads the outlet
row ``x = 1`` of both kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .characteristics import trace_crossing_batch, trace_edge_batch
from .errors import DomainError, NonconvergenceError, NumericError
from .grid import GridSpec, TriangularIndex, corner_weights, y_factor
from .model import PlantModel, SampledCoefficients, sample_coefficients

__all__ = [
    "GoursatProblem",
    "KernelSolution",
    "solve_goursat",
    "build_backstepping_problem",
    "solve_backstepping_kernels",
    "kernel_pde_residual",
    "kernel_solution_from_evaluators",
]

#: Sweep budget of :func:`solve_goursat`; a solve that needs more raises
#: :class:`~ensemble_backstep.errors.NonconvergenceError`.
MAX_SWEEPS = 60


@dataclass(frozen=True)
class GoursatProblem:
    """The kernel system of one sampled plant, assembled and projected.

    The ensemble unknown is held as ``F = C @ basis.T``, with ``basis`` an
    orthonormal ``(ny, r)`` basis of the y-subspace that holds every iterate,
    and every ``(n_tri, r)`` field here is a plant field in those
    coordinates, except ``diagonal_data``: the ``(n_tri, ny)`` data each
    crossing curve carries from the diagonal.  ``cross_ops`` pairs each
    crossing operator with the columns it acts on, and ``edge_interp`` holds
    the linear-in-x interpolation of the edge launch points.
    ``apply_ensemble_operator(tri, field)`` receives the ``(n_tri, r)``
    coordinates of the ensemble iterate and returns those of the ensemble
    operator (the speed derivative and the transposed exchange) applied per
    triangle node; the solver calls it once at the start of every sweep.
    """

    spec: GridSpec
    basis: np.ndarray
    cross_ops: tuple
    diagonal_data: np.ndarray
    scalar_to_ensemble: np.ndarray
    ensemble_to_scalar: np.ndarray
    scalar_decay: np.ndarray
    edge_op: sparse.csr_matrix
    edge_interp: tuple
    edge_gain: np.ndarray
    apply_ensemble_operator: Callable

    @property
    def y_rank(self) -> int:
        """Number of columns each sweep acts on."""
        return self.basis.shape[1]


@dataclass(frozen=True)
class KernelSolution:
    """Transform kernels on the triangle with their iteration history.

    ``k`` is the ``(n_tri, ny)`` ensemble kernel and ``ktilde`` the
    ``(n_tri,)`` scalar kernel, both flat over the triangle.  ``deltas``
    holds the sup-norm increment of every sweep, the last of which is
    ``final_delta``.  ``y_rank`` is the number of y-columns the solver
    swept: the dimension of the y-subspace that holds ``k``, or ``ny`` when
    ``k`` was held per y-node.
    """

    k: np.ndarray
    ktilde: np.ndarray
    iterations: int
    final_delta: float
    deltas: tuple[float, ...]
    spec: GridSpec
    y_rank: int


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
    return spec.tri.row_start[i0], spec.tri.row_start[i0 + 1], frac


def _y_subspace(maps: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the smallest y-subspace holding every iterate.

    With one family of crossing curves the sweeps make y-profiles only from
    the ``seeds`` (the diagonal data and the readout rows) and move a
    profile ``f`` only by ``f @ maps[j]`` at every x-node j.  The basis
    starts as the :func:`~ensemble_backstep.grid.y_factor` of the seeds;
    each pass adds the images under every map of the directions the
    previous pass added, until the rank stops growing.  The basis enters
    each pass scaled to the largest map, so a direction counts as new only
    if its images stand out of their rounding.  A closure of rank ny
    returns the identity.
    """
    ny = seeds.shape[1]
    scale = float(np.max(np.linalg.norm(maps, axis=(1, 2))))
    _, basis = y_factor(seeds)
    new = basis
    while new.shape[1] and 0.0 < scale and basis.shape[1] < ny:
        images = (new.T @ maps).reshape(-1, ny)
        _, grown = y_factor(np.vstack([scale * basis.T, images]))
        added = grown.shape[1] - basis.shape[1]
        if added <= 0:
            break
        u, _, _ = np.linalg.svd(grown - basis @ (basis.T @ grown),
                                full_matrices=False)
        new = u[:, :added]
        basis = grown
    return basis if basis.shape[1] < ny else np.eye(ny)


def solve_goursat(problem: GoursatProblem, tol: float = 1e-10) -> KernelSolution:
    """Solve the kernel system by successive approximation.

    Starts both unknowns from zero and sweeps until the sup-norm increment of
    both (of the ensemble unknown on every y-node, not of its coordinates)
    falls below ``tol``.  Each sweep computes the ensemble update from the
    previous iterates, then the scalar update using the fresh ensemble
    values in the edge condition and the previous iterates in the path
    integral.

    Raises
    ------
    DomainError
        If ``tol`` is not a positive finite number.
    NonconvergenceError
        If :data:`MAX_SWEEPS` sweeps do not reach ``tol`` (carries the last
        increment as ``final_delta``).
    NumericError
        If an iterate stops being finite.
    """
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    tri = problem.spec.tri
    basis = problem.basis
    diagonal = problem.diagonal_data @ basis
    edge_flat0, edge_flat1, edge_frac = problem.edge_interp

    C = np.zeros((tri.n_nodes, problem.y_rank))
    G = np.zeros(tri.n_nodes)
    deltas: list[float] = []
    for iteration in range(1, MAX_SWEEPS + 1):
        source_C = (problem.scalar_to_ensemble * G[:, None]
                    + problem.apply_ensemble_operator(tri, C))
        C_new = np.empty_like(C)
        for cols, op in problem.cross_ops:
            C_new[:, cols] = diagonal[:, cols] + op @ source_C[:, cols]

        source_G = (problem.scalar_decay * G
                    + (problem.ensemble_to_scalar * C).sum(axis=1))
        edge_rows = ((1.0 - edge_frac)[:, None] * C_new[edge_flat0]
                     + edge_frac[:, None] * C_new[edge_flat1])
        G_new = (problem.edge_op @ source_G
                 + (problem.edge_gain * edge_rows).sum(axis=1))

        if not (np.all(np.isfinite(C_new)) and np.all(np.isfinite(G_new))):
            raise NumericError("Goursat iterate is no longer finite")
        delta = max(float(np.max(np.abs((C_new - C) @ basis.T))),
                    float(np.max(np.abs(G_new - G))))
        deltas.append(delta)
        C = C_new
        G = G_new
        if delta < tol:
            # The diagonal data enters at full y-resolution, so a node whose
            # curve has no length carries it exactly.
            F = problem.diagonal_data + (C - diagonal) @ basis.T
            return KernelSolution(k=F, ktilde=G, iterations=iteration,
                                  final_delta=delta, deltas=tuple(deltas),
                                  spec=problem.spec, y_rank=problem.y_rank)
    raise NonconvergenceError(
        f"Goursat iteration did not reach tol={tol} in {MAX_SWEEPS} sweeps",
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
    """Sample the plant, trace and assemble its curve families, and project
    the kernel system onto its y-subspace."""
    coeff = sample_coefficients(model, spec)
    tri = spec.tri
    n_tri = tri.n_nodes
    xs = tri.x_coord
    xis = tri.xi_coord
    wy = spec.y_weights

    # y-nodes whose sampled speed columns are equal, which the grid cannot
    # tell apart, share one family of crossing curves traced at the first.
    _, group = np.unique(coeff.speed_u_grid.T, axis=0, return_inverse=True)
    cross_ops = []
    diagonal_data = np.empty((n_tri, spec.ny))
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
        diagonal_data[:, cols] = -model.readout(launch, y) / (
            model.speed_u(launch, y) + model.speed_v(launch))

    bundle = trace_edge_batch(coeff, xs, xis)
    edge_op = _quadrature_matrix(spec, bundle)
    edge_interp = _edge_interp_indices(spec, bundle.launch)
    del bundle

    # The ensemble operator at x-node j maps a y-profile f to f @ maps[j]:
    # maps[j] = diag(speed_u_dx[j]) + diag(w_y) @ exchange[j].
    maps = wy[:, None] * coeff.exchange_grid
    diag = np.arange(spec.ny)
    maps[:, diag, diag] += coeff.speed_u_dx_grid
    if len(cross_ops) == 1:
        basis = _y_subspace(maps, np.vstack([diagonal_data,
                                             coeff.readout_grid]))
        # The one family acts on every column of the subspace.
        cross_ops = [(slice(None), cross_ops[0][1])]
    else:
        basis = np.eye(spec.ny)
    blocks = basis.T @ maps @ basis
    columns = [tri.row_start[j:] + j for j in range(spec.nx + 1)]

    def apply_ensemble_operator(tri: TriangularIndex, field: np.ndarray) -> np.ndarray:
        # ``columns[j]`` holds the flat nodes (i, j), i >= j, of ``tri``.
        out = np.empty_like(field)
        for nodes, block in zip(columns, blocks):
            out[nodes] = field[nodes] @ block
        return out

    return GoursatProblem(
        spec=spec,
        basis=basis,
        cross_ops=tuple(cross_ops),
        diagonal_data=diagonal_data,
        scalar_to_ensemble=(coeff.readout_grid @ basis)[tri.j_index],
        ensemble_to_scalar=((coeff.drive_grid * wy) @ basis)[tri.j_index],
        scalar_decay=-coeff.speed_v_dx_grid[tri.j_index],
        edge_op=edge_op,
        edge_interp=edge_interp,
        edge_gain=(coeff.inflow_gain_grid * coeff.speed_u_grid[0]
                   / coeff.speed_v_grid[0] * wy) @ basis,
        apply_ensemble_operator=apply_ensemble_operator,
    )


def solve_backstepping_kernels(model: PlantModel, spec: GridSpec,
                               tol: float = 1e-10) -> KernelSolution:
    """Solve the transform-kernel equations for a plant on a given grid."""
    return solve_goursat(build_backstepping_problem(model, spec), tol=tol)


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
    return KernelSolution(k=k, ktilde=ktilde, iterations=0, final_delta=0.0,
                          deltas=(), spec=spec, y_rank=spec.ny)


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
    tri = spec.tri
    h = spec.hx
    if spec.nx < 4:
        return 0.0, 0.0
    coeff = sample_coefficients(model, spec)
    f_ij = np.flatnonzero((tri.j_index >= 2) & (tri.j_index <= tri.i_index - 2)
                          & (tri.i_index >= 4))
    iv = tri.i_index[f_ij]
    jv = tri.j_index[f_ij]
    f_im1j = tri.row_start[iv - 1] + jv
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
