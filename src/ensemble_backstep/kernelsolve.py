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
instead of one).  Each family is traced through the travel times of the
two speeds (see :mod:`.characteristics`), whose tables cost about
``nx + 1`` cells per trace, and becomes one sparse operator: Simpson's
rule on every cell segment of a curve applied to the bilinear interpolant
on the triangle, which is exact along straight curves.  A family is traced
and assembled in bands: runs of triangle rows, each a contiguous flat
range, closed once a bound on their curves' segments, known from the grid
before any trace, reaches :data:`_BAND_SEGMENTS`.  A band's operator is
written in CSR a block of curves at a time, four corner entries per
segment, its shared corners summed by two transposes instead of a sort,
and its samples are freed once its operator and launch abscissas exist,
so no transient grows with the family.  The operator is kept as its row
bands, which the sweeps apply one at a time; a row's curve reaches only
rows at or below it, so a band is also the unit a march in x would take.
Boundary data is always evaluated exactly at the off-grid launch abscissas,
so the diagonal condition holds exactly at nodes and the edge condition
holds to the fixed-point tolerance.

With one family the crossing operators act on x and xi only, so y moves
only through the exchange and the speed derivative, and the sweeps run in
the smallest y-subspace that holds every iterate: ``F = C @ B.T`` with
``B`` an orthonormal ``(ny, r)`` basis (r = 1 for the toy), each operator
applied to r columns and the exchange to one ``r x r`` block per x-node.
With more than one family, or when that subspace is all of y, ``B`` is the
identity and the sweeps act on every y-node.  The solver returns the
kernel pair with ``B``, in which the transform factors ``k``, and its
iteration history; the controller reads the outlet row of both kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .characteristics import trace_crossing_batch, trace_edge_batch
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

#: Sweep budget of :func:`solve_goursat`; a solve that needs more raises
#: :class:`~ensemble_backstep.errors.NonconvergenceError`.
MAX_SWEEPS = 60

#: Cell segments per CSR block of an operator: enough to spread the cost
#: of building a block, few enough that a block's arrays stay small.
_BLOCK_SEGMENTS = 16384

#: Cell segments a band of triangle rows may reach, by the geometric bound
#: of :func:`_bands`, before it is closed: the size of every trace and
#: operator build, and so of their transients.  Building the toy's problem
#: at nx=200, ny=120 peaked at 183, 186, 192, 208, 223 and 287 MB of RSS
#: with 2**16 ... 2**20 and with whole families, at build times within the
#: host's noise (2-core Xeon, one sitting); 2**18 is the smallest power of
#: two that keeps a crossing family at nx = 100 (bound 176,851) one band.
_BAND_SEGMENTS = 2 ** 18


@dataclass(frozen=True)
class GoursatProblem:
    """The kernel system of one sampled plant, assembled and projected.

    The ensemble unknown is held as ``F = C @ basis.T``, with ``basis`` an
    orthonormal ``(ny, r)`` basis of the y-subspace that holds every iterate,
    and every ``(n_tri, r)`` field here is a plant field in those
    coordinates, except ``diagonal_data``: the ``(n_tri, ny)`` data each
    crossing curve carries from the diagonal.  Every operator is held as its
    row bands, a tuple of ``(rows, csr)`` pairs: ``rows`` a slice of the
    flat triangle nodes and ``csr`` the operator's rows for those nodes,
    with a column for every triangle node.  ``cross_ops`` pairs each
    crossing operator's bands with the columns it acts on, ``edge_bands``
    are the edge operator's, and ``edge_interp`` holds the linear-in-x
    interpolation of the edge launch points.
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
    edge_bands: tuple
    edge_interp: tuple
    edge_gain: np.ndarray
    apply_ensemble_operator: Callable


@dataclass(frozen=True)
class KernelSolution:
    """Transform kernels on the triangle with their iteration history.

    ``k`` is the ``(n_tri, ny)`` ensemble kernel and ``ktilde`` the
    ``(n_tri,)`` scalar kernel, both flat over the triangle.  ``deltas``
    holds the sup-norm increment of every sweep, the last of which is
    ``final_delta``.  ``basis`` is the orthonormal ``(ny, y_rank)`` basis
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
    the bundle (the bundle of a band of triangle nodes, so the result has a
    row per band node and a column per triangle node): Simpson's rule on
    every cell segment, its three points interpolated in the segment's cell
    (its midpoint's), which is exact wherever the segment is straight.
    Each segment adds the four corners of its cell, so ``4 * seg_off`` is
    the row pointer, and consecutive curves holding about
    :data:`_BLOCK_SEGMENTS` segments are written as one CSR block, the
    corners a curve's segments share summed.
    """
    # scipy is imported here, where the operators are built, so that the
    # CLI's other commands and the simulators start without it.
    from scipy import sparse

    tri = spec.tri
    offsets = bundle.offsets
    curves = np.arange(offsets.size)
    # A curve of n segments holds 2n + 1 samples: its start, then each
    # segment's midpoint and end.
    seg_off = (offsets - curves) // 2
    bounds = np.unique(np.append(np.searchsorted(
        seg_off, np.arange(0, seg_off[-1] + 1, _BLOCK_SEGMENTS)),
        offsets.size - 1))
    simpson = np.array([[0.25], [1.0], [0.25]])
    blocks = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        lo, hi = seg_off[a], seg_off[b]
        # Segment q of curve c starts at sample 2q + c.
        start = 2 * np.arange(lo, hi) + np.repeat(curves[a:b],
                                                  np.diff(seg_off[a:b + 1]))
        points = start + np.arange(3)[:, None]
        idx4, w4 = corner_weights(spec.nx, bundle.sample_x[points],
                                  bundle.sample_xi[points],
                                  simpson * bundle.weights[start + 1])
        block = sparse.csr_matrix(
            (w4.ravel(), idx4.ravel(), 4 * (seg_off[a:b + 1] - lo)),
            shape=(b - a, tri.n_nodes))
        # After the transpose each column lists its rows in order, so the
        # corners a curve's segments share are adjacent and summed in
        # segment order; both conversions are linear passes with no sort.
        block = block.tocsc()
        block.sum_duplicates()
        blocks.append(block.tocsr())
    return sparse.vstack(blocks, format="csr")


def _bands(tri: TriangularIndex, segments: np.ndarray) -> list[slice]:
    """Contiguous runs of triangle rows, as flat slices, each closed at the
    row where the sum of ``segments`` over its nodes (a bound on the cell
    segments of each node's curve, known before any trace) reaches
    :data:`_BAND_SEGMENTS`."""
    bands, lo, total = [], 0, 0
    for i, row in enumerate(np.add.reduceat(segments, tri.row_start)):
        total += int(row)
        if total >= _BAND_SEGMENTS or i == tri.nx:
            hi = int(tri.row_start[i]) + i + 1
            bands.append(slice(lo, hi))
            lo, total = hi, 0
    return bands


def _edge_interp_indices(spec: GridSpec, launch: np.ndarray):
    """Linear-in-x interpolation data for edge nodes (xi = 0) at off-grid x."""
    pos = np.clip(launch, 0.0, 1.0) * spec.nx
    i0 = np.clip(np.floor(pos).astype(np.int64), 0, spec.nx - 1)
    frac = pos - i0
    return spec.tri.row_start[i0], spec.tri.row_start[i0 + 1], frac


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

    C = np.zeros((tri.n_nodes, basis.shape[1]))
    G = np.zeros(tri.n_nodes)
    deltas: list[float] = []
    for iteration in range(1, MAX_SWEEPS + 1):
        source_C = (problem.scalar_to_ensemble * G[:, None]
                    + problem.apply_ensemble_operator(tri, C))
        C_new = np.empty_like(C)
        for cols, bands in problem.cross_ops:
            source = source_C[:, cols]
            for rows, op in bands:
                C_new[rows, cols] = diagonal[rows, cols] + op @ source

        source_G = (problem.scalar_decay * G
                    + (problem.ensemble_to_scalar * C).sum(axis=1))
        edge_rows = ((1.0 - edge_frac)[:, None] * C_new[edge_flat0]
                     + edge_frac[:, None] * C_new[edge_flat1])
        G_new = (problem.edge_gain * edge_rows).sum(axis=1)
        for rows, op in problem.edge_bands:
            G_new[rows] += op @ source_G

        if not (np.all(np.isfinite(C_new)) and np.all(np.isfinite(G_new))):
            raise NumericError("Goursat iterate is no longer finite")
        delta = max(_sup_increment(C_new - C, basis),
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
                                  spec=problem.spec, basis=basis)
    raise NonconvergenceError(
        f"Goursat iteration did not reach tol={tol} in {MAX_SWEEPS} sweeps",
        final_delta=deltas[-1],
    )


def _transpose_exchange_rows(coeff: SampledCoefficients, j: int,
                             rows: np.ndarray) -> np.ndarray:
    """Apply the transposed y-exchange at x-index ``j`` to every row.

    Row ``r`` of the result is the y-profile ``rows[r]`` integrated against
    the exchange field sampled at x-index ``j``, with the integration
    hitting the first (not the second) ensemble slot.
    """
    return (rows * coeff.spec.y_weights) @ coeff.exchange_grid[j]


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
    _, first, group = np.unique(coeff.speed_u_grid.T, axis=0,
                                return_index=True, return_inverse=True)
    family_y = spec.y_nodes[first]
    # A crossing curve from node (i, j) crosses each grid line strictly
    # between xi_j and x_i once, with one of its components, and the two
    # falling components of an edge curve cross at most i and j lines: at
    # most i - j + 1 and i + j + 1 segments.
    cross_bands = _bands(tri, tri.i_index - tri.j_index + 1)
    cross_ops = []
    diagonal_data = np.empty((n_tri, spec.ny))
    for g, y0 in enumerate(family_y):
        cols = np.flatnonzero(group == g)
        y = spec.y_nodes[cols]
        if cols[-1] - cols[0] + 1 == cols.size:
            # A slice, not an index array: no copy of the columns per sweep.
            cols = slice(cols[0], cols[-1] + 1)
        bands = []
        for rows in cross_bands:
            bundle = trace_crossing_batch(coeff, xs[rows], xis[rows],
                                          np.full(rows.stop - rows.start, y0))
            bands.append((rows, _quadrature_matrix(spec, bundle)))
            launch = bundle.launch[:, None]
            # Samples are the bulk of the build's memory: each band's bundle
            # goes as soon as its operator and launch data exist.
            del bundle
            diagonal_data[rows, cols] = -model.readout(launch, y) / (
                model.speed_u(launch, y) + model.speed_v(launch))
        cross_ops.append((cols, tuple(bands)))

    edge_bands = []
    edge_launch = np.empty(n_tri)
    for rows in _bands(tri, tri.i_index + tri.j_index + 1):
        bundle = trace_edge_batch(coeff, xs[rows], xis[rows])
        edge_bands.append((rows, _quadrature_matrix(spec, bundle)))
        edge_launch[rows] = bundle.launch
        del bundle

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

    if len(cross_ops) == 1:
        # The sweeps make y-profiles only from the diagonal data and the
        # readout rows, and move a profile f only by f @ A_j.
        basis = y_subspace(
            (diagonal_data, coeff.readout_grid),
            lambda new: np.concatenate([new.T @ a for a in maps()]),
            max(float(np.linalg.norm(a, axis=(0, 1))) for a in maps()))
        # The one family acts on every column of the subspace.
        cross_ops = [(slice(None), cross_ops[0][1])]
    else:
        basis = np.eye(spec.ny)
    blocks = [basis.T @ a @ basis for a in maps()]
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
        edge_bands=tuple(edge_bands),
        edge_interp=_edge_interp_indices(spec, edge_launch),
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
