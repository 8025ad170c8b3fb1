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
operators are held.  A plant whose sampled ensemble speed does not vary in
y has one family of crossing curves, traced at the first y-node, and any
other one per y-node.  A band's crossing curves, of every family, are one
trace through the travel times of the two speeds (see
:mod:`.characteristics`), whose tables cost about ``nx + 1`` cells per
trace, which solves their launch abscissas; its edge curves are
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
too.  The solver returns the kernel pair as it marched it: ``k`` as its
coordinates ``C`` in ``B`` with the exact diagonal rows, formed into rows on
y-nodes a block at a time where it is read, ``ktilde`` whole, and the
iteration history; the transform factors ``k`` in ``B``, and the controller
reads the outlet row of both kernels.  ``B`` is seeded with the diagonal
data on the diagonal nodes and the readout rows, and each band checks that
the data its crossing curves carry lie in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .characteristics import trace_crossing_batch, trace_edge_batch
from .errors import (DimensionError, DomainError, NonconvergenceError,
                     NumericError)
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

#: The part of a band's diagonal data, relative to the sup of the diagonal
#: rows, that may lie outside the y-subspace seeded with those rows.
_SUBSPACE_TOL = 1e-12

#: Values of ``k`` (rows times ny) in one block of
#: :meth:`KernelSolution.k_blocks`.
_BLOCK_VALUES = 1 << 13


@dataclass(frozen=True)
class GoursatProblem:
    """The kernel system of one sampled plant, projected onto its y-subspace
    and ready to march.

    The ensemble unknown is held as ``F = C @ basis.T``, with ``basis`` an
    orthonormal ``(ny, r)`` basis of the y-subspace that holds every iterate.
    ``scalar_to_ensemble`` and ``ensemble_to_scalar`` are ``(nx + 1, r)``
    plant fields in those coordinates and ``scalar_decay`` an
    ``(nx + 1,)`` one, held per x-node: triangle node ``(i, j)`` reads row
    ``j``.  ``diagonal_rows`` holds the exact ``(nx + 1, ny)`` data on the
    diagonal nodes ``(i, i)``, which the solution keeps as its diagonal
    rows.  The crossing curves are traced at ``family_y``: the first y-node,
    shared by all, or every y-node.  Nothing is traced and no operator is
    held: :func:`solve_goursat` traces and assembles them, and forms the
    data the crossing curves carry from the diagonal, a band of rows at a
    time from ``coeff``.
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
    diagonal_rows: np.ndarray
    scalar_to_ensemble: np.ndarray
    ensemble_to_scalar: np.ndarray
    scalar_decay: np.ndarray
    edge_gain: np.ndarray
    apply_ensemble_operator: Callable


@dataclass(frozen=True)
class KernelSolution:
    """Transform kernels on the triangle with their iteration history.

    The ``(n_tri, ny)`` ensemble kernel ``k`` is held as the solver marched
    it: ``coords``, its ``(n_tri, y_rank)`` coordinates in ``basis``, the
    orthonormal ``(ny, y_rank)`` basis of the y-subspace the solver swept
    (the identity when ``k`` was held per y-node), and ``diagonal_rows``,
    its ``(nx + 1, ny)`` rows on the diagonal nodes ``(i, i)``, the exact
    diagonal data.  :meth:`k_rows` forms rows of ``k`` on the y-nodes,
    :meth:`k_blocks` all of them a block at a time, and :attr:`k` the whole
    array.  ``ktilde`` is the ``(n_tri,)`` scalar kernel, flat over the
    triangle.  ``iterations`` is the most local sweeps a band of the march
    took, and ``deltas[k]`` the largest sup-norm increment of a band at
    local sweep k + 1, a band that stopped sooner counting its last, so
    that ``deltas[-1]`` is ``final_delta``, the largest last increment.
    """

    coords: np.ndarray
    diagonal_rows: np.ndarray
    ktilde: np.ndarray
    iterations: int
    final_delta: float
    deltas: tuple[float, ...]
    spec: GridSpec
    basis: np.ndarray

    @property
    def y_rank(self) -> int:
        return self.basis.shape[1]

    def k_rows(self, nodes) -> np.ndarray:
        """The rows of ``k`` at ``nodes``, a slice or an index array of flat
        triangle nodes: ``coords @ basis.T``, summed one basis column at a
        time so that a row's value does not depend on the rows formed with
        it, and on the diagonal nodes the exact diagonal rows."""
        coords = self.coords[nodes]
        if self.y_rank == self.spec.ny:
            rows = np.array(coords)
        else:
            rows = np.zeros((coords.shape[0], self.spec.ny))
            for s in range(self.y_rank):
                rows += coords[:, s:s + 1] * self.basis[:, s]
        tri = self.spec.tri
        i = tri.i_index[nodes]
        on = np.flatnonzero(i == tri.j_index[nodes])
        rows[on] = self.diagonal_rows[i[on]]
        return rows

    def k_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """Every row of ``k``, in flat order, as ``(nodes, k_rows(nodes))``
        for consecutive slices of about :data:`_BLOCK_VALUES` values."""
        n_tri = self.spec.tri.n_nodes
        step = max(1, _BLOCK_VALUES // self.spec.ny)
        for lo in range(0, n_tri, step):
            nodes = slice(lo, min(lo + step, n_tri))
            yield nodes, self.k_rows(nodes)

    @cached_property
    def k(self) -> np.ndarray:
        """The whole ``(n_tri, ny)`` ensemble kernel, read-only, formed by
        :meth:`k_rows` once."""
        k = self.k_rows(slice(None))
        k.flags.writeable = False
        return k

    def coordinates(self) -> np.ndarray:
        """``k @ basis``: ``coords`` with the diagonal rows' coordinates, on
        the identity basis the rows themselves, as :meth:`k_rows` gives
        them."""
        coords = self.coords.copy()
        diagonal = self.diagonal_rows
        coords[self.spec.tri.diagonal_flat()] = (
            diagonal if self.y_rank == self.spec.ny else diagonal @ self.basis)
        return coords


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


def _per_y(op: sparse.csr_matrix, ny: int) -> sparse.csr_matrix:
    """Crossing operators with a row per (node, y-node), node-major, as one
    operator on the flat ``(node, y)`` unknowns: row ``(n, y)`` acts on the
    y-lane of every node."""
    from scipy import sparse

    nodes = op.shape[0] // ny
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


def _diagonal_data(model: PlantModel, at: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """``-readout / (speed_u + speed_v)`` at the ``(n, 1)`` or ``(n, ny)``
    launch abscissas ``at`` of crossing curves: the ``(n, ny)`` data they
    carry from the diagonal."""
    return -model.readout(at, y) / (model.speed_u(at, y) + model.speed_v(at))


def _diagonal_coords(problem: GoursatProblem, data: np.ndarray,
                     nodes: slice) -> np.ndarray:
    """The coordinates in ``problem.basis`` of the diagonal data ``data``
    (overwritten) of the crossing curves from ``nodes``, on the identity
    basis the data themselves.  Raises
    :class:`NumericError` where more than :data:`_SUBSPACE_TOL` of the sup
    of the diagonal rows lies outside the basis: the plant's y-profiles
    change between x-nodes."""
    spec, basis = problem.spec, problem.basis
    if basis.shape[1] == spec.ny:
        return data
    coords = data @ basis
    data -= coords @ basis.T
    outside = float(np.max(np.abs(data)))
    scale = float(np.max(np.abs(problem.diagonal_rows)))
    if outside > _SUBSPACE_TOL * scale:
        i = spec.tri.i_index
        raise NumericError(
            f"the diagonal data of rows {i[nodes.start]} to "
            f"{i[nodes.stop - 1]} lie {outside:.3g} outside the y-subspace "
            f"of the diagonal rows (sup {scale:.3g}): the plant's y-profiles "
            f"change between x-nodes, which nx={spec.nx} does not resolve")
    return coords


def _band_operators(problem: GoursatProblem, nodes: slice):
    """Trace and assemble the curves of a band's nodes: the coordinates of
    the diagonal data their crossing curves carry, the crossing operator,
    on flat ``(node, y)`` unknowns when there is a family per y-node, the
    edge operator and the edge interpolation data."""
    spec, coeff, family_y = problem.spec, problem.coeff, problem.family_y
    tri = spec.tri
    n = nodes.stop - nodes.start
    # Every crossing curve of the band, one per (node, family), node-major,
    # in one trace, which solves their launches.
    bundle = trace_crossing_batch(
        coeff, np.repeat(tri.x_coord[nodes], family_y.size),
        np.repeat(tri.xi_coord[nodes], family_y.size), np.tile(family_y, n))
    launch = bundle.launch.reshape(n, family_y.size)
    cross = _quadrature_matrix(spec, bundle)
    # Segments are the bulk of a band's memory: each bundle goes as soon as
    # its operator exists.
    del bundle
    diagonal = _diagonal_coords(problem, _diagonal_data(
        coeff.model, launch, spec.y_nodes), nodes)
    if family_y.size > 1:
        cross = _per_y(cross, family_y.size)
    bundle = trace_edge_batch(coeff, tri.x_coord[nodes], tri.xi_coord[nodes])
    edge = _quadrature_matrix(spec, bundle)
    interp = _edge_interp_indices(spec, bundle.launch, tri.i_index[nodes])
    return diagonal, cross, edge, interp


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
    k + 1, a band that stopped sooner counting its last.  The solution
    keeps the marched coordinates and the problem's exact diagonal rows: no
    ``(n_tri, ny)`` array is formed.

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
    C = np.zeros((tri.n_nodes, basis.shape[1]))
    G = np.zeros(tri.n_nodes)
    # What the operators apply to: the sources of the finished rows, zero
    # on the rows still to come.
    source_C = np.zeros_like(C)
    source_G = np.zeros_like(G)
    histories = []
    for rows in _bands(tri, problem.family_y.size):
        nodes = _nodes(tri, rows)
        diagonal, cross, edge, (edge_flat0, edge_flat1, edge_frac) = (
            _band_operators(problem, nodes))
        lanes = cross.shape[1] // tri.n_nodes
        # Every column once, on the finished sources; then only the band's.
        fixed_C = diagonal + _apply(cross, source_C, lanes)
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
    return KernelSolution(coords=C, diagonal_rows=problem.diagonal_rows,
                          ktilde=G, iterations=iterations,
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


def _sampled(model: PlantModel, spec: GridSpec,
             coeff: SampledCoefficients | None) -> SampledCoefficients:
    """``coeff``, checked to be ``model`` sampled on ``spec``, or if it is
    None the plant sampled now."""
    if coeff is None:
        return sample_coefficients(model, spec)
    if coeff.model is not model or coeff.spec != spec:
        raise DimensionError(
            f"coefficients sampled from {coeff.model.name!r} at "
            f"nx={coeff.spec.nx}, ny={coeff.spec.ny} are not those of "
            f"{model.name!r} at nx={spec.nx}, ny={spec.ny}")
    return coeff


def build_backstepping_problem(model: PlantModel, spec: GridSpec,
                               coeff: SampledCoefficients | None = None
                               ) -> GoursatProblem:
    """Project the kernel system of the sampled plant onto its y-subspace;
    nothing is traced.

    ``coeff`` is the plant already sampled on ``spec``, if the caller holds
    it; otherwise it is sampled here.  The subspace is seeded with the
    exact diagonal data on the diagonal nodes and the readout rows.
    """
    coeff = _sampled(model, spec, coeff)
    wy = spec.y_weights

    # A speed the grid sees vary in y gives each y-node its own crossing
    # curves; otherwise one family, traced at the first, serves them all.
    family_y = spec.y_nodes if coeff.speed_u_varies_in_y else spec.y_nodes[:1]
    # A diagonal node is its own launch.
    diagonal_rows = _diagonal_data(
        model, np.broadcast_to(spec.x_nodes[:, None], (spec.nx + 1, spec.ny)),
        spec.y_nodes)

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

    if family_y.size == 1:
        # The sweeps make y-profiles only from the diagonal data and the
        # readout rows, and move a profile f only by f @ A_j.
        basis = y_subspace(
            np.vstack([diagonal_rows, coeff.readout_grid]),
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
        diagonal_rows=diagonal_rows,
        scalar_to_ensemble=coeff.readout_grid @ basis,
        ensemble_to_scalar=(coeff.drive_grid * wy) @ basis,
        scalar_decay=-coeff.speed_v_dx_grid,
        edge_gain=(coeff.inflow_gain_grid * coeff.speed_u_grid[0]
                   / coeff.speed_v_grid[0] * wy) @ basis,
        apply_ensemble_operator=apply_ensemble_operator,
    )


def solve_backstepping_kernels(model: PlantModel, spec: GridSpec,
                               tol: float = 1e-10,
                               coeff: SampledCoefficients | None = None
                               ) -> KernelSolution:
    """Solve the transform-kernel equations for a plant on a given grid;
    ``coeff``, the plant sampled on ``spec``, spares sampling it again."""
    return solve_goursat(build_backstepping_problem(model, spec, coeff),
                         tol=tol)


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
    return KernelSolution(coords=k, diagonal_rows=k[tri.diagonal_flat()],
                          ktilde=ktilde, iterations=0, final_delta=0.0,
                          deltas=(), spec=spec, basis=np.eye(spec.ny))


def kernel_pde_residual(sol: KernelSolution, model: PlantModel,
                        coeff: SampledCoefficients | None = None
                        ) -> tuple[float, float]:
    """One-sided finite-difference residuals of both kernel equations.

    Evaluates the ensemble and scalar kernel equations of ``model``, sampled
    on ``sol.spec`` unless ``coeff`` holds it already, at interior triangle
    nodes, excluding a one-cell band along the diagonal and along the
    ``xi = 0`` edge where the one-sided stencils would cross the data lines.
    Each equation's max absolute residual is normalized by the sup of the
    kernel it differentiates (floored at 1), since the finite-difference
    truncation error scales with the field; both normalized residuals shrink
    linearly with the grid spacing for a converged (or exact) kernel pair.
    The nodes are visited one xi-column at a time, and the sup of ``k`` a
    block of rows at a time, so the work arrays hold one column's or
    block's rows of ``k``, not the whole triangle's.
    """
    spec = sol.spec
    tri = spec.tri
    h = spec.hx
    if spec.nx < 4:
        return 0.0, 0.0
    coeff = _sampled(model, spec, coeff)
    kt = sol.ktilde
    # One xi-column j at a time, rows i >= max(j + 2, 4), with a running max.
    worst_k = worst_kt = 0.0
    for j in range(2, spec.nx - 1):
        iv = np.arange(max(j + 2, 4), spec.nx + 1)
        f_ij = tri.row_start[iv] + j
        f_im1j = tri.row_start[iv - 1] + j
        k_rows = sol.k_rows(f_ij)
        kx = (k_rows - sol.k_rows(f_im1j)) / h
        kxi = (sol.k_rows(f_ij + 1) - k_rows) / h
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

    k_sup = max(float(np.max(np.abs(rows))) for _, rows in sol.k_blocks())
    k_scale = max(1.0, k_sup)
    kt_scale = max(1.0, float(np.max(np.abs(kt))))
    return worst_k / k_scale, worst_kt / kt_scale
