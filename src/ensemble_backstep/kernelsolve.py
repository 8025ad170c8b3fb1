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
coupled integral equations.  They are Volterra in x: every crossing and edge
curve from a node of row i reaches only rows at or below i.  So they are
solved by marching in x, the standard way with Volterra equations (Linz,
*Analytical and Numerical Methods for Volterra Equations*, SIAM 1985):
the triangle is cut into bands, runs of rows each a contiguous flat range,
closed once a bound on their curves' segments, known from the grid before
any trace, reaches :data:`_BAND_SEGMENTS`.  In x order each band is traced
and assembled, the operator columns of the finished rows below it are
applied once, its own rows are iterated from zero until their increment is
below the tolerance, and its operators are dropped; at most one band's
operators are held.  One family of crossing curves is traced per group of
y-nodes whose sampled ensemble speeds are equal at every x-node: a plant
whose speed does not depend on y has one group, one with a different speed
at every y-node has ny.  A band's crossing curves, of every family, are one
trace through the travel times of the two speeds (see
:mod:`.characteristics`), whose tables cost about ``nx + 1`` cells per
trace, on launch abscissas solved once per solve; its edge curves are
another.  Each trace becomes one sparse operator: Simpson's rule on every
cell segment of a curve applied to the bilinear interpolant on the
triangle, which is exact along straight curves, written in CSR a block of
curves at a time, four corner entries per segment, its shared corners
summed by two transposes instead of a sort.  Boundary data is always
evaluated exactly at the off-grid launch abscissas, so the diagonal
condition holds exactly at nodes and the edge condition holds to the
fixed-point tolerance.

With one family the crossing operators act on x and xi only, so y moves
only through the exchange and the speed derivative, and the sweeps run in
the smallest y-subspace that holds every iterate: ``F = C @ B.T`` with
``B`` an orthonormal ``(ny, r)`` basis (r = 1 for the toy), each operator
applied to r columns and the exchange to one ``r x r`` block per x-node.
With more than one family ``B`` is the identity, and a band's crossing
operator is one CSR over the flat ``(node, y)`` unknowns, each row its
family's; when the one family's subspace is all of y, ``B`` is the identity
too.  The solver returns the kernel pair with ``B``, in which the transform
factors ``k``, and its iteration history; the controller reads the outlet
row of both kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .characteristics import (crossing_launch, trace_crossing_batch,
                              trace_edge_batch)
from .errors import DomainError, NonconvergenceError, NumericError
from .grid import GridSpec, TriangularIndex, corner_weights, y_subspace
from .model import PlantModel, SampledCoefficients, sample_coefficients

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "GoursatProblem",
    "KernelSolution",
    "solve_goursat",
    "build_backstepping_problem",
    "solve_backstepping_kernels",
    "kernel_pde_residual",
    "kernel_solution_from_evaluators",
]

#: Local sweep budget of every band of :func:`solve_goursat`; a band that
#: needs more raises :class:`~ensemble_backstep.errors.NonconvergenceError`.
MAX_SWEEPS = 60

#: Cell segments per CSR block of an operator: enough to spread the cost
#: of building a block, few enough that a block's arrays stay small.
_BLOCK_SEGMENTS = 16384

#: Cell segments a band of triangle rows may reach, by the geometric bound
#: of :func:`_bands`, before it is closed: the size of every trace and
#: operator build, and of the operators the march holds.  Solving the toy
#: at nx=200, ny=120 and the plant with speed_u = 1 + y/2 at nx=100, ny=60
#: with 2**16 ... 2**20 took 2.1-2.6, 1.9-2.1, 1.6-1.9, 1.9 and 1.5-1.8 s
#: and 4.5-7.1, 5.7-6.2, 4.5-4.8, 4.8-5.5 and 5.2-5.3 s, peaking at 118,
#: 120, 125-128, 140 and 171 MB of RSS and 117, 119-121, 129-130, 153-155
#: and 208-214 MB (two runs each, 2-core Xeon, one sitting): fewer bands
#: trace less often, larger ones hold more.
_BAND_SEGMENTS = 2 ** 18


@dataclass(frozen=True)
class GoursatProblem:
    """The kernel system of one sampled plant, projected onto its y-subspace
    and ready to march.

    The ensemble unknown is held as ``F = C @ basis.T``, with ``basis`` an
    orthonormal ``(ny, r)`` basis of the y-subspace that holds every iterate.
    ``scalar_to_ensemble`` and ``ensemble_to_scalar`` are ``(nx + 1, r)``
    plant fields in those coordinates and ``scalar_decay`` an
    ``(nx + 1,)`` one, held per x-node: triangle node ``(i, j)`` reads row
    ``j``.  ``diagonal_data`` is the ``(n_tri, ny)`` data each crossing
    curve carries from the diagonal.  The crossing curves of y-node
    ``y`` are family ``group[y]``'s, traced at ``family_y[group[y]]``, and
    ``launch[n, f]`` is where family f's curve from triangle node n meets
    the diagonal.  No operator is held: :func:`solve_goursat` traces and
    assembles them a band of rows at a time from ``coeff``.
    ``apply_ensemble_operator(rows, field)`` receives the ``(n, r)``
    coordinates of the ensemble iterate on the triangle rows ``rows`` (a
    range of x-indices, the nodes flat in their order) and returns those of
    the ensemble operator (the speed derivative and the transposed
    exchange) applied per node; the solver calls it once at the start of
    every local sweep of a band and once on the band's converged iterate.
    """

    spec: GridSpec
    coeff: SampledCoefficients
    basis: np.ndarray
    family_y: np.ndarray
    group: np.ndarray
    launch: np.ndarray
    diagonal_data: np.ndarray
    scalar_to_ensemble: np.ndarray
    ensemble_to_scalar: np.ndarray
    scalar_decay: np.ndarray
    edge_gain: np.ndarray
    apply_ensemble_operator: Callable


@dataclass(frozen=True)
class KernelSolution:
    """Transform kernels on the triangle with their iteration history.

    ``k`` is the ``(n_tri, ny)`` ensemble kernel and ``ktilde`` the
    ``(n_tri,)`` scalar kernel, both flat over the triangle.
    ``iterations`` is the most local sweeps a band of the march took, and
    ``deltas[k]`` the largest sup-norm increment of a band at local sweep
    k + 1, a band that stopped sooner counting its last, so that
    ``deltas[-1]`` is ``final_delta``, the largest last increment.
    ``basis`` is the orthonormal ``(ny, y_rank)`` basis
    of the y-subspace the solver swept, which holds every row of ``k``, or
    the identity when ``k`` was held per y-node.
    """

    k: np.ndarray
    ktilde: np.ndarray
    iterations: int
    final_delta: float
    deltas: tuple[float, ...]
    spec: GridSpec
    basis: np.ndarray

    @property
    def y_rank(self) -> int:
        return self.basis.shape[1]


def _quadrature_matrix(spec: GridSpec, bundle) -> sparse.csr_matrix:
    """Sparse operator turning a grid field into per-curve path integrals.

    Row ``c`` of the result, applied to a flat triangle field, yields the
    integral of the bilinear interpolant of that field along curve ``c`` of
    the bundle (the bundle of a band's curves, so the result has a row per
    curve and a column per triangle node): Simpson's rule on
    every cell segment, its three points interpolated in the segment's cell
    (its midpoint's), which is exact wherever the segment is straight.
    Each segment adds the four corners of its cell, so ``4 * offsets`` is
    the row pointer, and consecutive curves holding about
    :data:`_BLOCK_SEGMENTS` segments are written as one CSR block, the
    corners a curve's segments share summed.
    """
    # scipy is imported here, where the operators are built, so that the
    # CLI's other commands and the simulators start without it.
    from scipy import sparse

    tri = spec.tri
    offsets = bundle.offsets
    bounds = np.unique(np.append(np.searchsorted(
        offsets, np.arange(0, offsets[-1] + 1, _BLOCK_SEGMENTS)),
        offsets.size - 1))
    blocks = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        lo, hi = offsets[a], offsets[b]
        idx4, w4 = corner_weights(spec.nx, bundle.x[:, lo:hi],
                                  bundle.xi[:, lo:hi],
                                  bundle.simpson_weights(slice(lo, hi)))
        block = sparse.csr_matrix(
            (w4.ravel(), idx4.ravel(), 4 * (offsets[a:b + 1] - lo)),
            shape=(b - a, tri.n_nodes))
        # After the transpose each column lists its rows in order, so the
        # corners a curve's segments share are adjacent and summed in
        # segment order; both conversions are linear passes with no sort.
        block = block.tocsc()
        block.sum_duplicates()
        blocks.append(block.tocsr())
    return sparse.vstack(blocks, format="csr")


def _bands(tri: TriangularIndex, families: int) -> list[range]:
    """Contiguous runs of triangle rows, as ranges of x-indices, each closed
    at the row where a bound on the cell segments of its nodes' curves,
    known before any trace, reaches :data:`_BAND_SEGMENTS`: summed over a
    crossing curve of every family and the edge curve of each node.

    A crossing curve from node (i, j) crosses each grid line strictly
    between xi_j and x_i once, with one of its components, and the two
    falling components of an edge curve cross at most i and j lines: at
    most i - j + 1 and i + j + 1 segments.
    """
    segments = (families * (tri.i_index - tri.j_index + 1)
                + tri.i_index + tri.j_index + 1)
    bands, lo, total = [], 0, 0
    for i, row in enumerate(np.add.reduceat(segments, tri.row_start)):
        total += int(row)
        if total >= _BAND_SEGMENTS or i == tri.nx:
            bands.append(range(lo, i + 1))
            lo, total = i + 1, 0
    return bands


def _edge_interp_indices(spec: GridSpec, launch: np.ndarray, i: np.ndarray):
    """Linear-in-x interpolation of the edge (xi = 0) at the launch
    abscissas of edge curves from x-rows ``i``: the flat nodes of the lower
    and the upper row read, and the weight of the upper.

    A launch lies at or below its curve's row i, and is read from two
    neighbouring rows no higher than i: one on x-line i from rows i - 1 and
    i, one from row 0 from row 0 alone.  So it never reads a row the march
    has not reached.
    """
    pos = np.clip(launch * spec.nx, 0.0, i)
    lower = np.clip(np.floor(pos).astype(np.int64), 0, np.maximum(i - 1, 0))
    row_start = spec.tri.row_start
    return row_start[lower], row_start[np.minimum(lower + 1, i)], pos - lower


def _per_y(op: sparse.csr_matrix, group: np.ndarray) -> sparse.csr_matrix:
    """Crossing operators with a row per (node, family), node-major, as one
    operator on the flat ``(node, y)`` unknowns: row ``(n, y)`` is family
    ``group[y]``'s row of node n, acting on the y-lane of every node."""
    from scipy import sparse

    ny = group.size
    families = int(group.max()) + 1
    nodes = op.shape[0] // families
    if not np.array_equal(group, np.arange(ny)):
        op = op[(np.arange(nodes)[:, None] * families + group).ravel()]
    dtype = np.int32 if op.shape[1] * ny < 2**31 else np.int64
    indices = op.indices.astype(dtype) * ny
    indices += np.repeat(np.tile(np.arange(ny, dtype=dtype), nodes),
                         np.diff(op.indptr))
    return sparse.csr_matrix((op.data, indices, op.indptr),
                             shape=(nodes * ny, op.shape[1] * ny))


def _nodes(tri: TriangularIndex, rows: range) -> slice:
    """The flat triangle nodes of a run of rows."""
    return slice(int(tri.row_start[rows.start]),
                 int(tri.row_start[rows.stop - 1]) + rows.stop)


def _crossing_points(tri: TriangularIndex, nodes: slice, family_y):
    """The query points of the crossing curves from ``nodes``: one per
    (node, family), node-major."""
    families = family_y.size
    n = nodes.stop - nodes.start
    return (np.repeat(tri.x_coord[nodes], families),
            np.repeat(tri.xi_coord[nodes], families), np.tile(family_y, n))


def _band_operators(problem: GoursatProblem, nodes: slice):
    """Trace and assemble the curves of a band's nodes: the crossing
    operator, on flat ``(node, y)`` unknowns when there is more than one
    family, the edge operator and the edge interpolation data."""
    spec, coeff = problem.spec, problem.coeff
    tri = spec.tri
    # Every crossing curve of the band in one trace, its launches those
    # solved with the diagonal data.
    bundle = trace_crossing_batch(
        coeff, *_crossing_points(tri, nodes, problem.family_y),
        launch=problem.launch[nodes].ravel())
    cross = _quadrature_matrix(spec, bundle)
    # Segments are the bulk of a band's memory: each bundle goes as soon as
    # its operator exists.
    del bundle
    if problem.family_y.size > 1:
        cross = _per_y(cross, problem.group)
    bundle = trace_edge_batch(coeff, tri.x_coord[nodes], tri.xi_coord[nodes])
    edge = _quadrature_matrix(spec, bundle)
    interp = _edge_interp_indices(spec, bundle.launch, tri.i_index[nodes])
    return cross, edge, interp


def _apply(op: sparse.csr_matrix, field: np.ndarray, lanes: int) -> np.ndarray:
    """``op`` applied to an ``(n, r)`` field: to each column with one lane,
    or to the flat field when ``op`` acts on its ``(node, lane)`` entries."""
    if lanes == 1:
        return op @ field
    return (op @ field.ravel()).reshape(-1, lanes)


def _sup_increment(step: np.ndarray, basis: np.ndarray) -> float:
    """``max|step @ basis.T|``, the sup-norm on every y-node of an increment
    held in subspace coordinates.

    With one column every entry is one product, and rounding is monotone,
    so the sup is the product of the two sups, bit for bit, without forming
    the ``(n_tri, ny)`` field.
    """
    if basis.shape[1] == 1:
        return float(np.max(np.abs(step))) * float(np.max(np.abs(basis)))
    return float(np.max(np.abs(step @ basis.T)))


def solve_goursat(problem: GoursatProblem, tol: float = 1e-10) -> KernelSolution:
    """Solve the kernel system by marching in x, a band of rows at a time.

    Every crossing and edge curve from a node of row i reaches only rows at
    or below i, so the system is block lower-triangular in the rows.  For
    each band (:func:`_bands`), in x order, the band's curves are traced
    and assembled, the operator columns of the finished rows below it are
    applied once to their sources, and both unknowns on the band's rows are
    iterated from zero until their sup-norm increment (of the ensemble
    unknown on every y-node, not of its coordinates) falls below ``tol``;
    then its operators are dropped.  Each local sweep computes the ensemble
    update from the previous iterates, then the scalar update using the
    fresh ensemble values in the edge condition and the previous iterates
    in the path integral.  ``iterations`` is the most local sweeps any band
    took, and ``deltas[k]`` the largest band increment of local sweep
    k + 1, a band that stopped sooner counting its last.

    Raises
    ------
    DomainError
        If ``tol`` is not a positive finite number.
    NonconvergenceError
        If a band does not reach ``tol`` in :data:`MAX_SWEEPS` local sweeps
        (carries its last increment as ``final_delta``).
    NumericError
        If an iterate stops being finite.
    """
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    tri = problem.spec.tri
    basis = problem.basis
    diagonal = problem.diagonal_data @ basis
    C = np.zeros((tri.n_nodes, basis.shape[1]))
    G = np.zeros(tri.n_nodes)
    # What the operators apply to: the sources of the finished rows, zero
    # on the rows still to come.
    source_C = np.zeros_like(C)
    source_G = np.zeros_like(G)
    histories = []
    for rows in _bands(tri, problem.family_y.size):
        nodes = _nodes(tri, rows)
        cross, edge, (edge_flat0, edge_flat1, edge_frac) = _band_operators(
            problem, nodes)
        lanes = cross.shape[1] // tri.n_nodes
        # Every column once, on the finished sources; then only the band's.
        fixed_C = diagonal[nodes] + _apply(cross, source_C, lanes)
        fixed_G = edge @ source_G
        cross = cross[:, lanes * nodes.start:lanes * nodes.stop]
        edge = edge[:, nodes]
        j = tri.j_index[nodes]
        to_ensemble = problem.scalar_to_ensemble[j]
        to_scalar = problem.ensemble_to_scalar[j]
        decay = problem.scalar_decay[j]

        c = np.zeros_like(fixed_C)
        g = np.zeros_like(fixed_G)
        deltas: list[float] = []
        # The sources are formed at the top of every sweep, so that those of
        # the converged iterate are at hand for the bands above.
        while True:
            src_c = (to_ensemble * g[:, None]
                     + problem.apply_ensemble_operator(rows, c))
            src_g = decay * g + (to_scalar * c).sum(axis=1)
            if deltas and deltas[-1] < tol:
                break
            if len(deltas) == MAX_SWEEPS:
                raise NonconvergenceError(
                    f"Goursat iteration did not reach tol={tol} in "
                    f"{MAX_SWEEPS} sweeps on rows {rows.start} to "
                    f"{rows.stop - 1}", final_delta=deltas[-1])
            c_new = fixed_C + _apply(cross, src_c, lanes)
            C[nodes] = c_new
            edge_rows = ((1.0 - edge_frac)[:, None] * C[edge_flat0]
                         + edge_frac[:, None] * C[edge_flat1])
            g_new = ((problem.edge_gain * edge_rows).sum(axis=1) + fixed_G
                     + edge @ src_g)
            if not (np.all(np.isfinite(c_new)) and np.all(np.isfinite(g_new))):
                raise NumericError("Goursat iterate is no longer finite")
            deltas.append(max(_sup_increment(c_new - c, basis),
                              float(np.max(np.abs(g_new - g)))))
            c, g = c_new, g_new
        G[nodes] = g
        source_C[nodes] = src_c
        source_G[nodes] = src_g
        histories.append(deltas)

    iterations = max(len(h) for h in histories)
    deltas = tuple(max(h[min(k, len(h) - 1)] for h in histories)
                   for k in range(iterations))
    # The diagonal data enters at full y-resolution, so a node whose curve
    # has no length carries it exactly.
    F = problem.diagonal_data + (C - diagonal) @ basis.T
    return KernelSolution(k=F, ktilde=G, iterations=iterations,
                          final_delta=deltas[-1], deltas=deltas,
                          spec=problem.spec, basis=basis)


def _transpose_exchange_rows(coeff: SampledCoefficients, j: int,
                             rows: np.ndarray) -> np.ndarray:
    """Apply the transposed y-exchange at x-index ``j`` to every row.

    Row ``r`` of the result is the y-profile ``rows[r]`` integrated against
    the exchange field sampled at x-index ``j``, with the integration
    hitting the first (not the second) ensemble slot.
    """
    return (rows * coeff.spec.y_weights) @ coeff.exchange_grid[j]


def build_backstepping_problem(model: PlantModel, spec: GridSpec) -> GoursatProblem:
    """Sample the plant, solve every crossing launch and the diagonal data,
    and project the kernel system onto its y-subspace."""
    coeff = sample_coefficients(model, spec)
    tri = spec.tri
    n_tri = tri.n_nodes
    wy = spec.y_weights

    # y-nodes whose sampled speed columns are equal, which the grid cannot
    # tell apart, share one family of crossing curves traced at the first.
    _, first, group = np.unique(coeff.speed_u_grid.T, axis=0,
                                return_index=True, return_inverse=True)
    family_y = spec.y_nodes[first]
    families = family_y.size
    # Every launch, one per (node, family), is solved once, here, a band of
    # rows at a time: the y-subspace is closed over the diagonal data before
    # the march starts.
    launch = np.empty((n_tri, families))
    diagonal_data = np.empty((n_tri, spec.ny))
    y = spec.y_nodes
    for rows in _bands(tri, families):
        nodes = _nodes(tri, rows)
        launch[nodes] = crossing_launch(
            coeff, *_crossing_points(tri, nodes, family_y)).reshape(-1, families)
        at = launch[nodes][:, group]
        diagonal_data[nodes] = -model.readout(at, y) / (
            model.speed_u(at, y) + model.speed_v(at))

    # The ensemble operator at x-node j maps a y-profile f to f @ A_j,
    # A_j = diag(speed_u_dx[j]) + diag(w_y) @ exchange[j].  Each pass builds
    # the A_j one at a time: no copy of the exchange grid is made.
    diag = np.arange(spec.ny)

    def maps():
        for exchange, speed_u_dx in zip(coeff.exchange_grid,
                                        coeff.speed_u_dx_grid):
            a = wy[:, None] * exchange
            a[diag, diag] += speed_u_dx
            yield a

    if families == 1:
        # The sweeps make y-profiles only from the diagonal data and the
        # readout rows, and move a profile f only by f @ A_j.
        basis = y_subspace(
            (diagonal_data, coeff.readout_grid),
            lambda new: np.concatenate([new.T @ a for a in maps()]),
            max(float(np.linalg.norm(a, axis=(0, 1))) for a in maps()))
    else:
        basis = np.eye(spec.ny)
    blocks = np.stack([basis.T @ a @ basis for a in maps()])

    def apply_ensemble_operator(rows: range, field: np.ndarray) -> np.ndarray:
        # Row i holds the nodes (i, j), j <= i, in order, and the map of
        # node (i, j) is blocks[j].
        out = np.empty_like(field)
        at = 0
        for i in rows:
            np.matmul(field[at:at + i + 1, None], blocks[:i + 1],
                      out=out[at:at + i + 1, None])
            at += i + 1
        return out

    return GoursatProblem(
        spec=spec,
        coeff=coeff,
        basis=basis,
        family_y=family_y,
        group=group,
        launch=launch,
        diagonal_data=diagonal_data,
        scalar_to_ensemble=coeff.readout_grid @ basis,
        ensemble_to_scalar=(coeff.drive_grid * wy) @ basis,
        scalar_decay=-coeff.speed_v_dx_grid,
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
                          deltas=(), spec=spec, basis=np.eye(spec.ny))


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
    The nodes are visited one xi-column at a time, so the work arrays hold
    one column's ``(rows, ny)`` values, not the whole triangle's.
    """
    spec = sol.spec
    tri = spec.tri
    h = spec.hx
    if spec.nx < 4:
        return 0.0, 0.0
    coeff = sample_coefficients(model, spec)
    k = sol.k
    kt = sol.ktilde
    # One xi-column j at a time, rows i >= max(j + 2, 4), with a running max.
    worst_k = worst_kt = 0.0
    for j in range(2, spec.nx - 1):
        iv = np.arange(max(j + 2, 4), spec.nx + 1)
        f_ij = tri.row_start[iv] + j
        f_im1j = tri.row_start[iv - 1] + j
        k_rows = k[f_ij]
        kx = (k_rows - k[f_im1j]) / h
        kxi = (k[f_ij + 1] - k_rows) / h
        theta_term = _transpose_exchange_rows(coeff, j, k_rows)
        readout_term = coeff.readout_grid[j] * kt[f_ij][:, None]
        res_ensemble = (coeff.speed_v_grid[iv][:, None] * kx
                        - coeff.speed_u_grid[j] * kxi
                        - (coeff.speed_u_dx_grid[j] * k_rows + theta_term
                           + readout_term))

        ktx = (kt[f_ij] - kt[f_im1j]) / h
        ktxi = (kt[f_ij] - kt[f_ij - 1]) / h
        drive_term = (coeff.drive_grid[j] * k_rows * spec.y_weights).sum(axis=1)
        res_scalar = (coeff.speed_v_grid[iv] * ktx + coeff.speed_v_grid[j] * ktxi
                      + coeff.speed_v_dx_grid[j] * kt[f_ij] - drive_term)
        worst_k = max(worst_k, float(np.max(np.abs(res_ensemble))))
        worst_kt = max(worst_kt, float(np.max(np.abs(res_scalar))))

    k_scale = max(1.0, float(np.max(np.abs(k))))
    kt_scale = max(1.0, float(np.max(np.abs(kt))))
    return worst_k / k_scale, worst_kt / kt_scale
