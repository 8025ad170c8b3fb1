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
*Analytical and Numerical Methods for Volterra Equations*, SIAM 1985), one
row of nodes at a time.  The equations hold along every piece of a curve,
so a node's curve is followed only back to the x-line below its row, or to
its event (the diagonal, the edge) if it reaches that first: a
semi-Lagrangian step (Staniforth & Cote, *Mon. Weather Rev.* 119, 1991;
Falcone & Ferretti, *Semi-Lagrangian Approximation Schemes for Linear and
Hamilton-Jacobi Equations*, SIAM 2013).  The value where a step crosses the
x-line is read from the row below by a 4-point Lagrange stencil in xi; a
step that reaches the diagonal starts from the diagonal data at its launch,
and an edge step that reaches the edge from the edge condition,
interpolated linearly in x between the row below and its own.  To that the
step adds the path integral of the source over its one cell: Simpson's rule
on every cell segment applied to the bilinear interpolant on the triangle,
which is exact along straight curves, with the interpolant's xi-error on
each segment leveled to its mean over a cell, so that steps which end
partway across a cell keep the leading error of whole curves.  Each step
has a few segments, so the work is O(nx^2) segments per family, not the
O(nx^3) of whole curves.  With unit speeds every step ends on a node, and
the march solves the system of whole curves summed in another order.  The
steps are traced a block of rows at a time, at most :data:`_BLOCK_CURVES`
curves, through the travel times of the two speeds (see
:mod:`.characteristics`), tabulated by the first block's traces and read
by every later block's, and laid out once, a run of at most
:data:`_RUN_SEGMENTS` cell segments at a time, as the two padded stencils
the march gathers on int32 node indices (:func:`_quadrature_matrix`):
three leveled nodes a segment on the row below, two corners a segment on
the step's own row.  The march holds one block's step data at a time:
they are freed before the next block is traced.  Every gather sums its
stencil in one fixed order, and every projection one basis column at a
time, so no bit of the kernels depends on the block or run sizes.  A
step's source reads the corners of its cell on its own row too, so each
row is a small fixed point.  Boundary data is evaluated exactly at the
off-grid launch abscissas, so the diagonal condition holds exactly at
nodes and the edge condition holds to the fixed-point tolerance.  A plant
whose sampled ensemble speed does not vary in y has one family of crossing
curves, traced at the first y-node, and any other one per y-node.

With one family the steps act on x and xi only, so y moves only through
the exchange and the speed derivative, and the sweeps run in the smallest
y-subspace that holds every iterate: ``F = C @ B.T`` with ``B`` an
orthonormal ``(ny, r)`` basis (r = 1 for the toy), each step applied to r
columns.  With more than one family ``B`` is the identity, and the crossing
steps act on the flat ``(node, y)`` lanes, each lane's step its family's;
when the one family's subspace is all of y, ``B`` is the identity too.  In
either case the ensemble operator at x-node j is the speed derivative
times ``C`` plus the exchange in ``B``, factored through the row space of
its blocks over all x-nodes (:func:`~ensemble_backstep.grid.row_basis`):
``(C @ blocks[j]) @ D.T``, with ``D`` of the exchange's joint rank q in y
(1 for the toy's exchange), so no ``(nx + 1, r, r)`` stack is formed.  The
solver returns the kernel pair as it marched it: ``k`` as its coordinates
``C`` in ``B`` with the exact diagonal rows, formed into rows on y-nodes a
block at a time where it is read, ``ktilde`` whole, and the iteration
history; the transform factors ``k`` in ``B``, and the controller reads
the outlet row of both kernels.  ``B`` is seeded with the diagonal data
on the diagonal nodes and the readout rows, and each block checks that the
data its crossing steps carry from the diagonal lie in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .characteristics import trace_crossing_batch, trace_edge_batch
from .errors import (DimensionError, DomainError, NonconvergenceError,
                     NumericError)
from .grid import (GridSpec, TriangularIndex, corner_weights, row_basis,
                   y_subspace)
from .model import PlantModel, SampledCoefficients, sample_coefficients

__all__ = [
    "GoursatProblem",
    "KernelSolution",
    "solve_goursat",
    "build_backstepping_problem",
    "solve_backstepping_kernels",
    "kernel_pde_residual",
]

#: Local sweep budget of every row of :func:`solve_goursat`; a row that
#: needs more raises :class:`~ensemble_backstep.errors.NonconvergenceError`.
MAX_SWEEPS = 60

#: Steps (crossing and edge curves) a block of rows of :func:`solve_goursat`
#: may hold: the size of every trace and of the step data the march holds,
#: one block at a time.  Every block's traces read the travel-time tables
#: the first one built, so a block costs its curves and a fixed overhead.
#: With 2**13 ... 2**16 (6, 3, 2 and 1 blocks) the toy at nx=200, ny=120
#: solved in 0.20, 0.18, 0.19 and 0.17 s, and the plant with
#: speed_u = 1 + y/2 at nx=100, ny=60 (54, 23, 11 and 5 blocks) in 0.87,
#: 0.70, 0.68 and 0.77 s, and a process that samples the plant and solves
#: peaked at 38.9, 40.6, 43.8 and 45.6 MB of RSS and 44.3, 46.6, 54.1 and
#: 72.3 MB (medians of five runs, 2-core Xeon shared with other jobs, one
#: sitting): fewer blocks trace less often, larger ones hold more.
_BLOCK_CURVES = 2 ** 14

#: Cell segments whose stencils a block forms at a time
#: (:func:`_segment_runs`): enough to spread the cost of a run, few enough
#: that its temporaries stay small beside the block's padded step data.  A
#: solve of the plant with speed_u = 1 + y/2 at nx=100, ny=60, sampled
#: beforehand, peaked at 26.1, 27.2 and 28.8 MB of traced memory with runs
#: of 2**10, 2**12 and 2**13 segments, and at 40.3 MB with each block
#: formed whole.
_RUN_SEGMENTS = 4096

#: The part of a block's diagonal data, relative to the sup of the diagonal
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
    shared by all, or every y-node.  Nothing is traced: :func:`solve_goursat`
    traces the steps, and forms the data the crossing steps carry from the
    diagonal, a block of rows at a time from ``coeff``.
    ``apply_ensemble_operator(rows, field)`` receives the ``(n, r)``
    coordinates of the ensemble iterate on the triangle rows ``rows`` (a
    range of x-indices, the nodes flat in their order) and returns those of
    the ensemble operator (the speed derivative and the transposed
    exchange) applied per node; the solver calls it on one row at a time,
    once at the start of every local sweep and once on the row's converged
    iterate.
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
    triangle.  ``iterations`` is the most local sweeps a row of the march
    took, and ``deltas[k]`` the largest sup-norm increment of a row at
    local sweep k + 1, a row that stopped sooner counting its last, so
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

    @property
    def contraction_ratio(self) -> float | None:
        """The median of ``deltas[k + 1] / deltas[k]`` over the sweeps with
        a nonzero increment before them: the observed contraction of a
        local sweep, None with no such pair."""
        ratios = [b / a for a, b in zip(self.deltas, self.deltas[1:])
                  if a > 0.0]
        return float(np.median(ratios)) if ratios else None

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


class _PathQuadrature(NamedTuple):
    """The source quadrature of many steps, each from a node of row i back
    to the x-line i - 1, as the two padded stencils the march reads.

    ``below_nodes``/``below_weights``, ``(steps, 3 * width)``, read row
    i - 1, three consecutive nodes a cell segment that also level its
    xi-error; ``row_nodes``/``row_weights``, ``(steps, 2 * width)``, read
    row i, two corners a segment, as indices into the row.  A step's
    segments come in order, padded with node 0 at weight 0 up to the
    ``width`` segments of the longest step.  The nodes are int32.  ``nnz``
    counts the corner entries computed, four per segment.
    """

    below_nodes: np.ndarray
    below_weights: np.ndarray
    row_nodes: np.ndarray
    row_weights: np.ndarray
    nnz: int


def _segment_runs(offsets: np.ndarray, width: int):
    """The cell segments of curves with the segment offsets ``offsets``, in
    runs of at most :data:`_RUN_SEGMENTS`: each run as its slice of the
    segments, their curves, and their slots in the curves' padded
    ``(curves * width)`` layout, segment q of curve c in slot
    ``c * width + q - offsets[c]``."""
    total = int(offsets[-1])
    for lo in range(0, total, _RUN_SEGMENTS):
        hi = min(lo + _RUN_SEGMENTS, total)
        # The curves that own segments lo to hi - 1, and how many each.
        first, last = np.searchsorted(offsets, [lo, hi - 1], side="right") - 1
        owned = np.diff(np.clip(offsets[first:last + 2], lo, hi))
        curves = np.arange(first, last + 1)
        curve = np.repeat(curves, owned)
        yield slice(lo, hi), curve, np.arange(lo, hi) + np.repeat(
            curves * width - offsets[first:last + 1], owned)


def _quadrature_matrix(spec: GridSpec, bundle,
                       row: np.ndarray) -> _PathQuadrature:
    """The path integral of the bilinear interpolant of a grid field along
    every step of ``bundle``, from rows ``row``: Simpson's rule on every
    cell segment, its three points interpolated in the segment's cell (its
    midpoint's), which is exact wherever the segment is straight, and its
    xi-error leveled to its mean over a cell.  The stencils are formed a
    run of segments at a time, each run written straight into its padded
    slots of both stencils.

    Along a segment the bilinear interpolant misses the source by about
    ``-h**2 * b * (1 - b) * S_xixi / 2``, ``b`` the local xi-coordinate in
    the segment's cell.  A whole curve meets every ``b`` alike, so it
    takes ``b * (1 - b)`` at its mean, 1/6, whatever its offset.  A step
    starts on a node, so a step that moves ``tau`` cells in xi per cell in
    x, ``tau`` < 1, meets only ``b`` in ``[0, tau]``, at the mean
    ``tau / 2 - tau**2 / 3``, on every step of the march.  So a segment in
    a full cell, on a row i - 1 of three nodes or more, adds
    ``-sum_k w_k * (b_k * (1 - b_k) - 1/6) / 2`` (``w_k`` its Simpson
    weights) times the second difference of the source along row i - 1 at
    its cell, ``h**2 * S_xixi`` to first order: the march keeps the leading
    xi-error of whole curves.  A segment from one xi-line to the next, as
    every step with unit speeds is, adds 0 to rounding.
    """
    row_start = spec.tri.row_start
    offsets = bundle.offsets
    m, width = offsets.size - 1, int(np.diff(offsets).max(initial=0))
    below = np.maximum(row - 1, 0)
    below_nodes = np.zeros((m * width, 3), dtype=np.int32)
    below_weights = np.zeros((m * width, 3))
    row_nodes = np.zeros((m * width, 2), dtype=np.int32)
    row_weights = np.zeros((m * width, 2))
    for run, curve, slot in _segment_runs(offsets, width):
        xi = bundle.xi[:, run]
        simpson = np.array([[0.25], [1.0], [0.25]]) * bundle.weights[run]
        # Corners (i - 1, j), (i, j), (i - 1, j + 1), (i, j + 1): the even
        # ones lie on row i - 1, the odd ones on row i.
        corners, weights = corner_weights(spec.nx, bundle.x[:, run], xi,
                                          simpson)
        # The segment's level, from the xi-column j of its midpoint.
        on = below[curve]
        j = np.floor(xi[1] * spec.nx).astype(np.int64)
        b = xi * spec.nx - j
        b *= 1.0 - b
        b -= 1.0 / 6.0
        level = -0.5 * (simpson * b).sum(axis=0)
        # Cells on the diagonal (j = i - 1) interpolate linearly, and a row
        # of two nodes has no second difference.
        level[(j >= on) | (on < 2)] = 0.0
        # Row i - 1: the stencil j - 1, j, j + 1, or 0, 1, 2 on the edge
        # column, the level's second difference plus the two corners.
        lower, w_lower, w_upper = corners[:, 0], weights[:, 0], weights[:, 2]
        edge = lower == row_start[on]
        below_nodes[slot] = (lower - 1 + edge)[:, None] + np.arange(3)
        out = level[:, None] * np.array([1.0, -2.0, 1.0])
        out[:, 0] += np.where(edge, w_lower, 0.0)
        out[:, 1] += np.where(edge, w_upper, w_lower)
        out[:, 2] += np.where(edge, 0.0, w_upper)
        below_weights[slot] = out
        # Row i: the two corners, as indices into the row.
        row_nodes[slot] = corners[:, 1::2] - row_start[row[curve], None]
        row_weights[slot] = weights[:, 1::2]
    return _PathQuadrature(below_nodes.reshape(m, -1),
                           below_weights.reshape(m, -1),
                           row_nodes.reshape(m, -1),
                           row_weights.reshape(m, -1), 4 * int(offsets[-1]))


def _blocks(tri: TriangularIndex, families: int) -> list[range]:
    """Contiguous runs of triangle rows, as ranges of x-indices, each closed
    before its steps (a crossing step of every family and an edge step from
    each node) exceed :data:`_BLOCK_CURVES`; a row above it alone is a
    block."""
    blocks, lo, total = [], 0, 0
    for i in range(tri.nx + 1):
        steps = (families + 1) * (i + 1)
        if total and total + steps > _BLOCK_CURVES:
            blocks.append(range(lo, i))
            lo, total = i, 0
        total += steps
    blocks.append(range(lo, tri.nx + 1))
    return blocks


def _nodes(tri: TriangularIndex, rows: range) -> slice:
    """The flat triangle nodes of a run of rows."""
    return slice(int(tri.row_start[rows.start]),
                 int(tri.row_start[rows.stop - 1]) + rows.stop)


def _row_stencil(tri: TriangularIndex, row: np.ndarray, xi: np.ndarray):
    """4-point Lagrange stencils in xi along the triangle rows ``row`` at
    ``xi``: their flat nodes and weights, ``(n, 4)`` each, on the four nodes
    nearest ``xi`` that the row has.  A row with fewer nodes uses all of
    them, the other entries weighing 0."""
    count = np.minimum(row + 1, 4)
    t = xi * tri.nx
    first = np.clip(np.floor(t).astype(np.int64) - 1, 0, row + 1 - count)
    cols = first[:, None] + np.arange(4)
    used = np.arange(4) < count[:, None]
    weights = np.ones(cols.shape)
    for k in range(4):
        for q in range(4):
            if q != k:
                factor = (t - cols[:, q]) / (k - q)
                weights[:, k] *= np.where(used[:, q], factor, 1.0)
    weights[~used] = 0.0
    nodes = tri.row_start[row][:, None] + np.where(used, cols, first[:, None])
    return nodes.astype(np.int32), weights


class _Steps(NamedTuple):
    """One family of a block's steps, each a curve from a node of row i
    back to the x-line i - 1 or to its event, whichever it reaches first,
    in node order (and family order within a node), as rows of the
    unknown and of its source read in lanes (a row per node, or per node and
    y-node).

    A step's value is its start, plus the Simpson integral of the source
    over its cell segments, which lie in the cells between rows i - 1 and
    i.  ``start_nodes``/``start_weights`` read the start on the x-line
    i - 1 by the 4-point Lagrange stencil of row i - 1 (weight 0 for a step
    that reaches its event first); ``below_nodes``/``below_weights`` and
    ``row_nodes``/``row_weights`` read the source on rows i - 1 and i, as
    :func:`_quadrature_matrix` lays them out, row i's as rows of row i's
    own source.  The nodes are int32.
    """

    start_nodes: np.ndarray
    start_weights: np.ndarray
    below_nodes: np.ndarray
    below_weights: np.ndarray
    row_nodes: np.ndarray
    row_weights: np.ndarray

    @classmethod
    def trace(cls, spec: GridSpec, bundle, row: np.ndarray, lanes: int,
              lane: np.ndarray) -> _Steps:
        """The steps of ``bundle``, traced from rows ``row`` to the x-lines
        below them, read in ``lanes`` lanes, step s in lane ``lane[s]``."""
        tri = spec.tri
        if tri.n_nodes * lanes > 2 ** 31:
            raise DimensionError(
                f"{tri.n_nodes} nodes in {lanes} lanes each need more "
                f"than the 2**31 int32 indices of the march's steps")
        # The start stencils first: their temporaries are step-sized, and
        # none of the padded segment data is formed yet.
        start, start_weights = _row_stencil(tri, np.maximum(row - 1, 0),
                                            bundle.end_xi)
        start_weights[~np.isnan(bundle.launch)] = 0.0
        quad = _quadrature_matrix(spec, bundle, row)
        for index in (start, quad.below_nodes, quad.row_nodes):
            index *= lanes
            index += lane[:, None]
        return cls(start, start_weights, *quad[:4])

    def fixed(self, steps: slice, unknown: np.ndarray,
              source: np.ndarray) -> np.ndarray:
        """The part of ``steps`` that rows below theirs set: the start read
        from ``unknown`` and the source's corners below, from ``source``."""
        return (_gather(unknown, self.start_nodes[steps],
                        self.start_weights[steps])
                + _gather(source, self.below_nodes[steps],
                          self.below_weights[steps]))


def _gather(field: np.ndarray, nodes: np.ndarray,
            weights: np.ndarray) -> np.ndarray:
    """``sum_k weights[s, k] * field[nodes[s, k]]`` for every step s, summed
    over k in order, so that no bit of a step's value depends on the steps
    gathered with it or on their padded width: padding adds an exact 0."""
    if field.ndim > 1:
        weights = weights[..., None]
    out = np.zeros((nodes.shape[0],) + field.shape[1:])
    for k in range(nodes.shape[1]):
        out += field[nodes[:, k]] * weights[:, k]
    return out


def _diagonal_data(model: PlantModel, at: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """``-readout / (speed_u + speed_v)`` at the launch abscissas ``at`` of
    crossing curves and the y-nodes ``y``: the data they carry from the
    diagonal."""
    return -model.readout(at, y) / (model.speed_u(at, y) + model.speed_v(at))


def _diagonal_coords(problem: GoursatProblem, data: np.ndarray,
                     rows: range) -> np.ndarray:
    """The coordinates in ``problem.basis`` of the ``(n, ny)`` diagonal data
    ``data`` (overwritten) of the crossing steps from ``rows``.  Raises
    :class:`NumericError` where more than :data:`_SUBSPACE_TOL` of the sup
    of the diagonal rows lies outside the basis: the plant's y-profiles
    change between x-nodes.  Each coordinate sums one basis column's
    products along y, so that a step's coordinates do not depend, to the
    bit, on the steps projected with it; on the identity basis they are
    the data themselves."""
    spec, basis = problem.spec, problem.basis
    if basis.shape[1] == spec.ny:
        return data
    coords = np.empty((data.shape[0], basis.shape[1]))
    for s, column in enumerate(basis.T):
        coords[:, s] = (data * column).sum(axis=1)
    data -= coords @ basis.T
    outside = float(np.max(np.abs(data), initial=0.0))
    scale = float(np.max(np.abs(problem.diagonal_rows)))
    if outside > _SUBSPACE_TOL * scale:
        raise NumericError(
            f"the diagonal data of rows {rows.start} to {rows.stop - 1} lie "
            f"{outside:.3g} outside the y-subspace of the diagonal rows (sup "
            f"{scale:.3g}): the plant's y-profiles change between x-nodes, "
            f"which nx={spec.nx} does not resolve")
    return coords


def _lane_width(problem: GoursatProblem) -> int:
    """Coordinates in a lane of the ensemble unknown: all r of a node's with
    one family, one with a family (and a lane) per y-node."""
    return problem.basis.shape[1] if problem.family_y.size == 1 else 1


def _block_steps(problem: GoursatProblem, rows: range):
    """Trace the steps of a block of rows: the crossing steps, of every
    family, with the data those that reach the diagonal carry, in the
    crossing steps' lanes, and the edge steps, with the weights by which
    those that reach the edge read it from the x-lines i - 1 and i."""
    spec, coeff, family_y = problem.spec, problem.coeff, problem.family_y
    tri = spec.tri
    nodes = _nodes(tri, rows)
    families = family_y.size
    row = tri.i_index[nodes]
    stop = np.maximum(row - 1, 0)
    lane = np.tile(np.arange(families), row.size)
    # Every crossing step of the block, one per (node, family), node-major,
    # in one trace, which solves the launches of the steps that reach the
    # diagonal.
    bundle = trace_crossing_batch(
        coeff, np.repeat(tri.x_coord[nodes], families),
        np.repeat(tri.xi_coord[nodes], families), family_y[lane],
        np.repeat(stop, families))
    cross = _Steps.trace(spec, bundle, np.repeat(row, families), families,
                         lane)
    event = np.flatnonzero(~np.isnan(bundle.launch))
    launch = bundle.launch[event]
    del bundle
    diagonal = np.zeros((row.size * families, _lane_width(problem)))
    if families == 1:
        diagonal[event] = _diagonal_coords(problem, _diagonal_data(
            coeff.model, launch[:, None], spec.y_nodes), rows)
    else:
        diagonal[event, 0] = _diagonal_data(coeff.model, launch,
                                            family_y[lane[event]])
    bundle = trace_edge_batch(coeff, tri.x_coord[nodes], tri.xi_coord[nodes],
                              stop)
    edge = _Steps.trace(spec, bundle, row, 1, np.zeros(row.size, np.int64))
    # An edge event lies between the x-lines i - 1 and i (row 0's on
    # x-line 0), and reads the edge linearly in x between them.
    event = ~np.isnan(bundle.launch)
    upper = np.where(event, np.clip(np.nan_to_num(bundle.launch) * spec.nx
                                    - (row - 1), 0.0, 1.0), 0.0)
    return cross, diagonal, edge, (np.where(event, 1.0 - upper, 0.0), upper)


def _sup_increment(step: np.ndarray, basis: np.ndarray) -> float:
    """``max|step @ basis.T|``, the sup-norm on every y-node of an increment
    held in subspace coordinates.

    With one column every entry is one product, and rounding is monotone,
    so the sup is the product of the two sups, bit for bit, without forming
    the ``(n, ny)`` field; on the identity basis (the per-y path) every
    entry is its own coordinate times 1 plus zeros, exactly.
    """
    if basis.shape[1] == basis.shape[0]:
        return float(np.max(np.abs(step)))
    if basis.shape[1] == 1:
        return float(np.max(np.abs(step))) * float(np.max(np.abs(basis)))
    return float(np.max(np.abs(step @ basis.T)))


def solve_goursat(problem: GoursatProblem, tol: float = 1e-10) -> KernelSolution:
    """Solve the kernel system by marching in x, one row of nodes at a time.

    The kernel equations hold along every piece of a characteristic, so the
    unknowns at node (i, j) are their values where its crossing and edge
    curves cross the x-line i - 1, read from row i - 1 by a 4-point
    Lagrange stencil in xi, plus the path integral of their sources over
    that one cell (Simpson on every cell segment, its xi-error leveled, as
    :func:`_quadrature_matrix` lays it out), a semi-Lagrangian step; a step
    that reaches the diagonal (the edge) first starts from the diagonal
    (edge) data there instead.  The steps are traced a block of rows at a
    time (:func:`_blocks`), and each block's rows are marched by
    :func:`_march_block`, so that one block's step data are held at a time.
    The source of a step reads its cell's corners on row i too, so each row
    is a small fixed point: both unknowns on the row are iterated from zero
    until their sup-norm increment (of the ensemble unknown on every y-node,
    not of its coordinates) falls below ``tol``.
    Each local sweep computes the ensemble update from the previous
    iterates, then the scalar update using the fresh ensemble values in the
    edge condition and the previous iterates in the path integral.
    ``iterations`` is the most local sweeps any row took, and ``deltas[k]``
    the largest row increment of local sweep k + 1, a row that stopped
    sooner counting its last.  The solution keeps the marched coordinates
    and the problem's exact diagonal rows: no ``(n_tri, ny)`` array is
    formed.

    Raises
    ------
    DomainError
        If ``tol`` is not a positive finite number.
    NonconvergenceError
        If a row does not reach ``tol`` in :data:`MAX_SWEEPS` local sweeps
        (carries its last increment as ``final_delta``).
    NumericError
        If an iterate stops being finite.
    """
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    tri = problem.spec.tri
    r = problem.basis.shape[1]
    C = np.zeros((tri.n_nodes, r))
    G = np.zeros(tri.n_nodes)
    # The sources of the finished rows.
    source_C = np.zeros_like(C)
    source_G = np.zeros_like(G)
    # deltas[k]: the largest row increment of local sweep k + 1, a row that
    # stopped sooner counting its last; ended: the largest last increment.
    deltas, ended = [], 0.0
    for rows in _blocks(tri, problem.family_y.size):
        for history in _march_block(problem, rows, tol, C, G, source_C,
                                    source_G):
            deltas += [ended] * (len(history) - len(deltas))
            for k in range(len(deltas)):
                deltas[k] = max(deltas[k], history[min(k, len(history) - 1)])
            ended = max(ended, history[-1])

    return KernelSolution(coords=C, diagonal_rows=problem.diagonal_rows,
                          ktilde=G, iterations=len(deltas),
                          final_delta=deltas[-1], deltas=tuple(deltas),
                          spec=problem.spec, basis=problem.basis)


def _march_block(problem: GoursatProblem, rows: range, tol: float,
                 C: np.ndarray, G: np.ndarray, source_C: np.ndarray,
                 source_G: np.ndarray) -> list[list[float]]:
    """March the rows of one block of :func:`solve_goursat`, writing their
    unknowns ``C`` and ``G`` and their sources, and return each row's
    local sweep increments.  The block's step data live in this call only,
    so they are freed before the next block is traced."""
    tri = problem.spec.tri
    basis = problem.basis
    r = basis.shape[1]
    families = problem.family_y.size
    cross, diagonal, edge, (edge_below, edge_on_row) = (
        _block_steps(problem, rows))
    # The ensemble unknown and its source as the crossing steps read them:
    # a row per node, or per node and y-node with a family per y-node.
    width = _lane_width(problem)
    lanes_C = C.reshape(tri.n_nodes * families, width)
    lanes_source = source_C.reshape(lanes_C.shape)
    first = int(tri.row_start[rows.start])
    histories = []
    for i in rows:
        nodes = tri.row_slice(i)
        n = i + 1
        on_edge = slice(nodes.start - first, nodes.stop - first)
        on_cross = slice(on_edge.start * families, on_edge.stop * families)
        fixed_C = (diagonal[on_cross]
                   + cross.fixed(on_cross, lanes_C, lanes_source)
                   ).reshape(n, r)
        below = int(tri.row_start[max(i - 1, 0)])
        fixed_G = (edge.fixed(on_edge, G, source_G) + edge_below[on_edge]
                   * float(problem.edge_gain @ C[below]))
        cross_nodes = cross.row_nodes[on_cross]
        cross_weights = cross.row_weights[on_cross]
        edge_nodes = edge.row_nodes[on_edge]
        edge_weights = edge.row_weights[on_edge]
        gain = edge_on_row[on_edge]
        to_ensemble = problem.scalar_to_ensemble[:n]
        to_scalar = problem.ensemble_to_scalar[:n]
        decay = problem.scalar_decay[:n]

        c = np.zeros((n, r))
        g = np.zeros(n)
        history: list[float] = []
        # The sources are formed at the top of every sweep, so that those
        # of the converged iterate are at hand for the rows above.
        while True:
            src_c = (to_ensemble * g[:, None]
                     + problem.apply_ensemble_operator(range(i, i + 1), c))
            src_g = decay * g + (to_scalar * c).sum(axis=1)
            if history and history[-1] < tol:
                break
            if len(history) == MAX_SWEEPS:
                raise NonconvergenceError(
                    f"Goursat iteration did not reach tol={tol} in "
                    f"{MAX_SWEEPS} sweeps on row {i}",
                    final_delta=history[-1])
            c_new = fixed_C + _gather(src_c.reshape(n * families, width),
                                      cross_nodes, cross_weights
                                      ).reshape(n, r)
            g_new = (fixed_G + gain * float(problem.edge_gain @ c_new[0])
                     + _gather(src_g, edge_nodes, edge_weights))
            if not (np.all(np.isfinite(c_new))
                    and np.all(np.isfinite(g_new))):
                raise NumericError("Goursat iterate is no longer finite")
            history.append(max(_sup_increment(c_new - c, basis),
                               float(np.max(np.abs(g_new - g)))))
            c, g = c_new, g_new
        C[nodes] = c
        G[nodes] = g
        source_C[nodes] = src_c
        source_G[nodes] = src_g
        histories.append(history)
    return histories


def _ensemble_maps(coeff: SampledCoefficients) -> Iterator[np.ndarray]:
    """The ensemble operator of ``coeff`` at each x-node j in turn, in row
    form: ``A_j = diag(speed_u_dx[j]) + diag(w_y) @ exchange[j]`` maps a
    y-profile ``f`` to ``f @ A_j``, the speed derivative plus the exchange
    integrated against ``f`` in its first ensemble slot.  The exchange is
    sampled one x-node at a time, so its grid is never held whole."""
    wy = coeff.spec.y_weights
    diag = np.arange(coeff.spec.ny)
    for j, speed_u_dx in enumerate(coeff.speed_u_dx_grid):
        a = wy[:, None] * coeff.exchange_at(j)
        a[diag, diag] += speed_u_dx
        yield a


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
    exact diagonal data on the diagonal nodes and the readout rows.  The
    exchange part of each ``A_j`` in the basis is sampled one x-node at a
    time, twice: once for the row basis ``D`` of all of them
    (:func:`~ensemble_backstep.grid.row_basis`) and once for their
    ``(r, q)`` loadings ``blocks[j]`` on it.  The speed derivative stays
    out of the factored part, so one that varies in y cannot raise q.
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

    if family_y.size == 1:
        # The sweeps make y-profiles only from the diagonal data and the
        # readout rows, and move a profile f only by f @ A_j.
        basis = y_subspace(np.vstack([diagonal_rows, coeff.readout_grid]),
                           lambda: _ensemble_maps(coeff))
        speed_u_dx = coeff.speed_u_dx_grid[:, :1]
    else:
        basis = np.eye(spec.ny)
        speed_u_dx = coeff.speed_u_dx_grid
    identity = basis.shape[1] == spec.ny

    def exchanges() -> Iterator[np.ndarray]:
        # The exchange part of A_j in the basis, one x-node at a time.
        for j in range(spec.nx + 1):
            a = wy[:, None] * coeff.exchange_at(j)
            yield a if identity else basis.T @ a @ basis

    # A_j = f * speed_u_dx[j] + f @ (blocks[j] @ directions.T) in the basis.
    directions = row_basis(exchanges())
    blocks = np.stack([a @ directions for a in exchanges()])

    def apply_ensemble_operator(rows: range, field: np.ndarray) -> np.ndarray:
        # Row i holds the nodes (i, j), j <= i, in order, and the map of
        # node (i, j) is that of x-node j.
        out = np.empty_like(field)
        at = 0
        for i in rows:
            f = field[at:at + i + 1]
            exchanged = np.matmul(f[:, None], blocks[:i + 1])[:, 0]
            np.add(f * speed_u_dx[:i + 1], exchanged @ directions.T,
                   out=out[at:at + i + 1])
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
    The ensemble operator is the solver's own, ``k @ A_j``
    (:func:`_ensemble_maps`).  The nodes are visited one xi-column at a
    time, and the sup of ``k`` a block of rows at a time, so the work
    arrays hold one column's or block's rows of ``k``, not the whole
    triangle's.
    """
    spec = sol.spec
    tri = spec.tri
    h = spec.hx
    if spec.nx < 4:
        return 0.0, 0.0
    coeff = _sampled(model, spec, coeff)
    kt = sol.ktilde
    # One xi-column j at a time, rows i >= j + 2, with a running max.  The
    # column's rows of k, from row j + 1 on, are the previous column's
    # rows at xi-column j (rows of k do not depend on the rows formed with
    # them), so each row is formed once.
    worst_k = worst_kt = 0.0
    column = sol.k_rows(tri.row_start[3:] + 2)
    for j, a_j in enumerate(islice(_ensemble_maps(coeff), 2, spec.nx - 1),
                            start=2):
        iv = np.arange(j + 2, spec.nx + 1)
        f_ij = tri.row_start[iv] + j
        f_im1j = tri.row_start[iv - 1] + j
        k_rows = column[1:]
        kx = (k_rows - column[:-1]) / h
        column = sol.k_rows(f_ij + 1)
        kxi = (column - k_rows) / h
        readout_term = coeff.readout_grid[j] * kt[f_ij][:, None]
        res_ensemble = (coeff.speed_v_grid[iv][:, None] * kx
                        - coeff.speed_u_grid[j] * kxi
                        - (k_rows @ a_j + readout_term))

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
