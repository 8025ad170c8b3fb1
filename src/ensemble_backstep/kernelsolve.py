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
the march solves the system of whole curves summed in another order.
Every stencil of a step counts from its row's first node, and a step that
stops on the x-line below its node moves alike from every row whose
x-cell has its travel-time profile
(:func:`~.characteristics.cell_profiles`), so such rows share their steps
(:class:`_Plan`): the step of a column is traced once per profile, from
the first row that reads it, and every row of the profile reads it, as a
prefix of its steps, once it keeps clear of the row's ends.  The rest, near
the diagonal, move alike along the diagonal, to rounding, from every such
row whose xi-cells they move through have the same profiles too, and they
read alike counted from the row's last node: a row traces them once, and
every later row of the same profiles reads them, as a suffix of its steps,
their nodes moved on by as many as it has more, and the data those that
reach the diagonal carry at its own launches (the traced row's counted
from its x-node).  With ``speed_v = 1`` and a ``speed_u`` that does not
vary in x, rows 0 to 4 trace their steps near the diagonal and every row
above reads row 4's, so a row from the fifth on traces one column of
crossing steps, its next shared one; where ``speed_v`` varies in x every
cell is a profile of its own, and every row traces all its steps.  The
steps are traced a block of rows at a time, at most :data:`_BLOCK_CURVES`
curves, the march's one bound on what it holds, through the travel times
of the two speeds (see :mod:`.characteristics`), tabulated before the
first block and read by every block's traces.  Each family's traced steps
are laid out whole, in one pass (:func:`_quadrature_matrix`), as the
stencils the march gathers on int32 node indices: a 4-point start stencil
on the row below, then two padded source stencils, three leveled nodes a
segment on the row below and two corners a segment on the step's own row,
each from its row's first node.  The march holds the solution, one
block's step data, the shared steps and the steps near the diagonal later
rows read (:class:`_Shared`) and one row of sources: each block allocates
its traces' segments and its step data, which are freed before the next
block is traced, and each
finished row's sources replace those of the row below it, since no step
reads a source more than one row below its own.  The solve records its
blocks, the local sweeps of its rows, and the steps it marched and traced
and their segments (:attr:`KernelSolution.march`).  A step's source reads
the corners of its cell on its own row too, so each row is a small fixed
point.  Before its first sweep a row joins its steps' stencils on the row,
its profile's shared steps then its steps near the diagonal, into one
stencil-major pair per family, so a sweep gathers each family's sources in
one take
(:func:`_gather`).  Every gather sums its stencil in one fixed order, and
every projection one basis column at a time, so no bit of the kernels
depends on the block size.  A row's sweeps start from the two rows below
it, extrapolated linearly in x (:func:`_start`): the predictor of a
predictor-corrector scheme (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, Springer 1993, section III.1), so a row's first
increment is the error of that prediction, not the size of the kernel.
The toy at nx=200, ny=120 takes 604 sweeps in all and at most 4 a row,
against 1202 and 6 from a zero start.  Boundary data is evaluated exactly
at the off-grid launch abscissas, so the diagonal condition holds exactly
at nodes and the edge condition holds to the fixed-point tolerance.  A
plant whose sampled ensemble speed does not vary in y has one family of
crossing curves, traced at the first y-node, and any other one per
y-node.

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
``C`` in ``B``, on the diagonal nodes those of the diagonal data, with
the exact diagonal rows, formed into rows on y-nodes a block at a time
where it is read, ``ktilde`` whole, and the iteration history; the
transform factors ``C`` as it stands, and the controller reads the outlet
row of both kernels.  ``B`` is seeded with the diagonal data
on the diagonal nodes and the readout rows, and each block checks that the
data its crossing steps carry from the diagonal lie in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .characteristics import (cell_profiles, line_ends,
                              trace_crossing_batch, trace_edge_batch)
from .errors import (DimensionError, DomainError, NonconvergenceError,
                     NumericError)
from .grid import (GridSpec, TriangularIndex, corner_weights, factor_blocks,
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
#: may trace: the size of every trace and of the step data the march holds,
#: one block at a time, each block's allocated for it, beside the shared
#: steps and the steps near the diagonal later rows read (:class:`_Plan`).
#: Every block's traces read the travel-time tables the solve built first,
#: so a block costs its curves and a small fixed overhead.  With
#: speed_v = 1 and a speed_u that does not vary in x a row from the fifth
#: on traces one column of crossing steps and one of edge steps, and the
#: shared steps and row 4's steps near the diagonal serve the rest.
#: With 2**11, 2**12, 3 * 2**12 and 2**14 the toy at nx=200, ny=120 solved
#: in one block, peaking at 37.9 MB, and the plant with speed_u = 1 + y/2
#: at nx=100, ny=60 in 4, 2, 1 and 1 blocks, a process that samples the
#: plant and solves peaking at 40.4, 40.6, 40.5 and 40.5 MB of RSS, in
#: 0.11-0.16 s and 0.12-0.21 s, within the host's noise (medians of five
#: runs, 2-core Xeon shared with other jobs, one sitting, Python 3.11,
#: numpy 2.4): the bound matters where rows share fewer steps, as where
#: speed_v varies in x.
_BLOCK_CURVES = 2 ** 12

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
    diagonal data.  On the diagonal nodes ``coords`` holds the coordinates
    of those rows, each summed one basis column at a time, and on the
    identity basis the rows themselves, so ``coords`` is ``k @ basis`` to
    rounding.  :meth:`k_rows` forms rows of ``k`` on the y-nodes,
    :meth:`k_blocks` all of them a block at a time, and :attr:`k` the whole
    array.  ``ktilde`` is the ``(n_tri,)`` scalar kernel, flat over the
    triangle.  ``iterations`` is the most local sweeps a row of the march
    took, and ``deltas[k]`` the largest sup-norm increment of a row at
    local sweep k + 1, a row that stopped sooner counting its last, so
    that ``deltas[-1]`` is ``final_delta``, the largest last increment.
    ``march`` holds the sizes of the march that solved the kernels: its
    ``blocks``, the local ``sweeps`` of all its rows, and for each family
    of steps, ``crossing`` and ``edge``,
    the ``steps`` it marched, the cell ``segments`` they were cut into and
    the steps it ``traced``, each shared step once (None for kernels not
    marched).
    """

    coords: np.ndarray
    diagonal_rows: np.ndarray
    ktilde: np.ndarray
    iterations: int
    final_delta: float
    deltas: tuple[float, ...]
    spec: GridSpec
    basis: np.ndarray
    march: dict | None = None

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


def _quadrature_matrix(spec: GridSpec, bundle, row: np.ndarray, lanes: int,
                       lane: np.ndarray) -> _Steps:
    """The steps of ``bundle``, traced from rows ``row`` to the x-lines
    below them, read in ``lanes`` lanes, step s in lane ``lane[s]``: the
    start stencils, and the path integral of the bilinear interpolant of
    the source along every step, Simpson's rule on every cell segment, its
    three points interpolated in the segment's cell (its midpoint's), which
    is exact wherever the segment is straight, and its xi-error leveled to
    its mean over a cell.  The start stencils are formed first, so that
    their step-sized temporaries come before any padded segment data; the
    source stencils are allocated zero, padding included, and every
    segment is written into its padded slot of both in one pass.  The
    steps own their arrays: the march holds one block's, allocated for
    that block and freed before the next is traced.

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
    tri = spec.tri
    if tri.n_nodes * lanes > 2 ** 31:
        raise DimensionError(
            f"{tri.n_nodes} nodes in {lanes} lanes each need more "
            f"than the 2**31 int32 indices of the march's steps")
    row_start = tri.row_start
    below = np.maximum(row - 1, 0)
    offsets = bundle.offsets
    counts = np.diff(offsets)
    m, width = counts.size, int(counts.max(initial=0))
    start_nodes, start_weights = _row_stencil(tri, below, bundle.end_xi)
    start_weights[~np.isnan(bundle.launch)] = 0.0
    below_nodes = np.zeros((m * width, 3), np.int32)
    below_weights = np.zeros((m * width, 3))
    row_nodes = np.zeros((m * width, 2), np.int32)
    row_weights = np.zeros((m * width, 2))
    # Segment q of curve c, in slot c * width + q - offsets[c].
    curve = np.repeat(np.arange(m), counts)
    slot = np.arange(curve.size) + np.repeat(
        np.arange(m) * width - offsets[:-1], counts)
    xi = bundle.xi
    simpson = bundle.simpson_weights()
    # Corners (i - 1, j), (i, j), (i - 1, j + 1), (i, j + 1): the even ones
    # lie on row i - 1, the odd ones on row i.
    corners, weights = corner_weights(spec.nx, bundle.x, xi, simpson)
    # The segment's level, from the xi-column j of its midpoint.
    on = below[curve]
    j = np.floor(xi[1] * spec.nx).astype(np.int64)
    b = xi * spec.nx - j
    b *= 1.0 - b
    b -= 1.0 / 6.0
    level = -0.5 * (simpson * b).sum(axis=0)
    # Cells on the diagonal (j = i - 1) interpolate linearly, and a row of
    # two nodes has no second difference.
    level[(j >= on) | (on < 2)] = 0.0
    # Row i - 1: the stencil j - 1, j, j + 1, or 0, 1, 2 on the edge column,
    # the level's second difference plus the two corners.
    lower = corners[:, 0] - row_start[on]
    w_lower, w_upper = weights[:, 0], weights[:, 2]
    edge = lower == 0
    below_nodes[slot] = (lower - 1 + edge)[:, None] + np.arange(3)
    out = level[:, None] * np.array([1.0, -2.0, 1.0])
    out[:, 0] += np.where(edge, w_lower, 0.0)
    out[:, 1] += np.where(edge, w_upper, w_lower)
    out[:, 2] += np.where(edge, 0.0, w_upper)
    below_weights[slot] = out
    # Row i: the two corners, as indices into the row.
    row_nodes[slot] = corners[:, 1::2] - row_start[row[curve], None]
    row_weights[slot] = weights[:, 1::2]
    steps = _Steps(start_nodes, start_weights, below_nodes.reshape(m, -1),
                   below_weights.reshape(m, -1), row_nodes.reshape(m, -1),
                   row_weights.reshape(m, -1), 4 * int(offsets[-1]))
    for index in (steps.start_nodes, steps.below_nodes, steps.row_nodes):
        index *= lanes
        index += lane[:, None]
    return steps


class _Plan(NamedTuple):
    """How the rows of a solve come by one family's steps, in ``lanes``
    lanes (a step per node and lane).  Row i's steps cross the x-cell
    i - 1, whose travel-time profile is ``profile[i]``
    (:func:`~ensemble_backstep.characteristics.cell_profiles`; -1 for row
    0).  Its steps from the columns ``0 .. shared[i] - 1`` are its
    profile's shared steps, traced once, each from the first row that reads
    it; it traces its profile's shared steps from ``first[i]``, the first
    no row before it reads, up to ``shared[i]``.  Its steps from the
    columns ``shared[i] .. i``, near the diagonal, are the last of the
    steps near the diagonal that row ``source[i]`` traces: row i traces
    them itself where ``source[i]`` is i, and reads them, moved along the
    diagonal, where it is a row before it."""

    lanes: int
    profile: np.ndarray
    shared: np.ndarray
    first: np.ndarray
    source: np.ndarray

    def traced(self) -> np.ndarray:
        """The steps each row traces."""
        row = np.arange(self.profile.size)
        return (self.shared - self.first + np.where(
            self.source == row, row + 1 - self.shared, 0)) * self.lanes


def _plans(problem: GoursatProblem) -> dict[str, _Plan]:
    """The :class:`_Plan` of the crossing and the edge steps of a solve.

    A step from node (i, j) that stops on the x-line i - 1 moves alike,
    to the bit, from every row of one profile (see
    :func:`~ensemble_backstep.characteristics.line_ends`), and its layout
    counts every node from its row's first, so it is one step for all of
    them wherever it keeps clear of the rows' ends: where its start
    stencil, its segments' cells and the second differences of their
    levels lie in the row below, of four nodes or more, and do not reach
    its last two nodes.  Its xi-component ends, in lane order, below
    column ``c_j`` (as the start stencil floors it), so row i reads column
    j shared once every column up to j ends below i - 2: ``c_j <= i - 3``.
    A step that ends that far below the diagonal reaches its line, not the
    diagonal, so no shared step carries diagonal data.

    A step near the diagonal moves alike, to rounding, from every row of
    one profile whose xi-cells it moves through have the same profiles
    (of ``speed_u`` in every lane for a crossing step, of ``speed_v`` for
    an edge step), and its layout is the same counted from the row's last
    node wherever the row below has four nodes or more and the step keeps
    above the first xi-cell, so that no stencil is cut short at column 0
    and no edge step reaches the edge (:func:`_diagonal_sources`)."""
    spec, coeff, family_y = problem.spec, problem.coeff, problem.family_y
    nx, x = spec.nx, spec.x_nodes
    profile = np.concatenate([[-1], cell_profiles(coeff)])
    # The profiles of the xi-cells each family's steps move through.
    moves = {"crossing": cell_profiles(coeff, family_y), "edge": profile[1:]}
    plans = {}
    for family, lanes in (("crossing", family_y.size), ("edge", 1)):
        shared = np.zeros(nx + 1, dtype=np.int64)
        first = np.zeros(nx + 1, dtype=np.int64)
        source = np.arange(nx + 1)
        for cell in np.unique(profile[1:]):
            on = np.flatnonzero(profile == cell)
            # A profile of one row shares nothing: it traces all its steps.
            if on.size == 1:
                continue
            columns = np.repeat(x[:on[-1] + 1], lanes)
            if family == "crossing":
                ends = line_ends(coeff, cell, columns,
                                 np.tile(family_y, on[-1] + 1))
            else:
                ends = line_ends(coeff, cell, columns)
            ends = ends.reshape(-1, lanes)
            below = np.maximum.accumulate(
                np.floor(ends[:-1] * nx).max(axis=1))
            reads = np.searchsorted(below, on - 3, side="right")
            shared[on] = np.where(on >= 4, np.minimum(reads, on), 0)
            first[on[1:]] = shared[on[:-1]]
            # The lowest xi-cell the step of each column moves through: a
            # crossing step's xi-component rises from its column, an edge
            # step's falls to its end.
            low = (np.arange(on[-1] + 1) if family == "crossing" else
                   np.floor(ends.min(axis=1) * nx).astype(np.int64))
            source[on] = _diagonal_sources(on, shared[on], low,
                                           moves[family])
        plans[family] = _Plan(lanes, profile, shared, first, source)
    return plans


def _diagonal_sources(rows: np.ndarray, shared: np.ndarray, low: np.ndarray,
                      moves: np.ndarray) -> np.ndarray:
    """The row each of ``rows``, the rows of one profile, reads its steps
    near the diagonal from (:class:`_Plan`), those from its columns
    ``shared`` on.  The steps from the last t columns of a row i move
    through the xi-cells ``low[i + 1 - t]`` to i - 1 and are keyed by t
    and the profiles ``moves`` of those cells.  A row of four nodes or
    more reads them from the first row that traced its key, matched on
    the cells that row's steps moved through (its own may reach one cell
    lower where a step ends on a node), and traces its own otherwise,
    which serve later rows wherever they keep above the first xi-cell."""
    source = rows.copy()
    traced: dict[tuple, int] = {}
    # The numbers of cells below the diagonal that keys of t columns span.
    spans: dict[int, set] = {}
    for k, (i, a) in enumerate(zip(rows.tolist(), shared.tolist())):
        if i < 4:
            continue
        t = i + 1 - a
        keys = ((t, tuple(moves[i - span:i].tolist()))
                for span in spans.get(t, ()))
        found = [traced[key] for key in keys if key in traced]
        if found:
            source[k] = min(found)
            continue
        for column in range(a, i + 1):
            if low[column] >= 1:
                cells = tuple(moves[low[column]:i].tolist())
                traced.setdefault((i + 1 - column, cells), i)
                spans.setdefault(i + 1 - column, set()).add(len(cells))
    return source


def _blocks(plans: dict[str, _Plan]) -> list[range]:
    """Contiguous runs of triangle rows, as ranges of x-indices, each closed
    before the steps its rows trace, of both families
    (:meth:`_Plan.traced`), exceed :data:`_BLOCK_CURVES`; a row above it
    alone is a block."""
    traced = sum(plan.traced() for plan in plans.values())
    blocks, lo, total = [], 0, 0
    for i, steps in enumerate(traced.tolist()):
        if total and total + steps > _BLOCK_CURVES:
            blocks.append(range(lo, i))
            lo, total = i, 0
        total += steps
    blocks.append(range(lo, traced.size))
    return blocks


def _row_stencil(tri: TriangularIndex, row: np.ndarray, xi: np.ndarray):
    """4-point Lagrange stencils in xi along the triangle rows ``row`` at
    ``xi``: their nodes, counted from the row's first node, and weights,
    ``(n, 4)`` each, int32 nodes and float weights, on the four nodes
    nearest ``xi`` that the row has.  A row with fewer nodes
    uses all of them, the other entries weighing 0.  The stencils are
    formed a column at a time, and only a column that some row lacks is
    masked."""
    count = np.minimum(row + 1, 4)
    t = xi * tri.nx
    first = np.minimum(np.maximum(np.floor(t).astype(np.int64) - 1, 0),
                       row + 1 - count)
    every = int(count.min(initial=4))
    nodes = np.empty((row.size, 4), np.int32)
    weights = np.ones((row.size, 4))
    for k in range(4):
        for q in range(4):
            if q != k:
                factor = (t - (first + q)) / (k - q)
                if q >= every:
                    factor = np.where(count > q, factor, 1.0)
                weights[:, k] *= factor
    for q in range(4):
        if q < every:
            nodes[:, q] = first + q
        else:
            nodes[:, q] = np.where(count > q, first + q, first)
            weights[count <= q, q] = 0.0
    return nodes, weights


class _Steps(NamedTuple):
    """Steps of one family, as :func:`_quadrature_matrix` lays them out:
    each a curve from a node of row i back to the x-line i - 1 or to its
    event, whichever it reaches first, in node order (and family order
    within a node), reading the unknown and its source in lanes (a row per
    node, or per node and y-node).

    A step's value is its start, plus the Simpson integral of the source
    over its cell segments, which lie in the cells between rows i - 1 and
    i.  ``start_nodes``/``start_weights`` read the start on the x-line
    i - 1 by the 4-point Lagrange stencil of row i - 1 (weight 0 for a step
    that reaches its event first).  ``below_nodes``/``below_weights``,
    ``(steps, 3 * width)``, read the one row of sources the march keeps,
    row i - 1's, three consecutive nodes a segment that also level its
    xi-error; ``row_nodes``/``row_weights``, ``(steps, 2 * width)``, read
    row i's own source, two corners a segment.  Every stencil counts from
    its row's first node, so a step reads alike from every row it serves
    (:class:`_Plan`), moved on by as many nodes as that row has more where
    it is read along the diagonal (:meth:`shifted`), and a stencil below of
    a short row reaches up to two nodes past it, at weight 0.  A step's
    segments come in order, padded with node 0 at weight 0 up to the
    ``width`` segments of the longest step.  The steps are held
    step-major, ``(steps, K)``, and their nodes
    are int32, so that a block's steps and the shared ones take half the
    room of intp nodes; a gather reads them stencil-major, ``(K, steps)``
    (:func:`_gather`), and a row's steps on the row are joined into one
    intp stencil while that row is marched (:func:`_join_on_row`).
    ``nnz`` counts the corner entries of the steps, four a segment.
    """

    start_nodes: np.ndarray
    start_weights: np.ndarray
    below_nodes: np.ndarray
    below_weights: np.ndarray
    row_nodes: np.ndarray
    row_weights: np.ndarray
    nnz: int

    def rows(self, steps: slice, segments: int) -> _Steps:
        """The steps ``steps``, as views, which have ``segments``
        segments."""
        return _Steps(*(a[steps] for a in self[:-1]), 4 * segments)

    def shifted(self, by: int) -> _Steps:
        """The steps read from a row ``by`` lanes past the first node of
        the row they were laid out from, as steps moved along the diagonal
        are: their nodes ``by`` on, their padding too."""
        if not by:
            return self
        return _Steps(self.start_nodes + by, self.start_weights,
                      self.below_nodes + by, self.below_weights,
                      self.row_nodes + by, self.row_weights, self.nnz)

    def fixed(self, unknown: np.ndarray, source: np.ndarray) -> np.ndarray:
        """The part of the steps that the row below theirs sets: the start
        read from ``unknown`` and the source's corners below, from
        ``source``, both that row's."""
        return (_gather(unknown, self.start_nodes.T, self.start_weights.T)
                + _gather(source, self.below_nodes.T, self.below_weights.T))


class _Shared:
    """Steps of one family that rows read (:class:`_Plan`), as
    :func:`_quadrature_matrix` lays them out (``steps``), with the weights
    by which edge steps that reach the edge read it from the x-lines i - 1
    and i (``reads``, None for crossing steps) and the segments of the
    first n steps, ``segments[n]``: a profile's shared steps, columns 0, 1,
    ... with their lanes, read as a prefix (:meth:`prefix`), or one row's
    steps near the diagonal, read as a suffix (:meth:`suffix`), with their
    crossing steps' launches counted from the row's x-node (``launch``,
    NaN for a step that reaches its line).  Steps whose rows all lie in the
    block that traces them are read where the block laid them out; a
    profile's others are kept in arrays of its own (:meth:`kept`), sized
    for every step its rows read and as wide as the widest so far, zero
    past each step, as padding is, and a row's in copies."""

    def __init__(self, steps: _Steps, reads, counts: np.ndarray,
                 lane: np.ndarray | None = None,
                 launch: np.ndarray | None = None):
        self.steps, self.reads, self.lane = steps, reads, lane
        self.launch = launch
        self.segments = np.concatenate([[0], np.cumsum(counts)])

    @classmethod
    def kept(cls, capacity: int, lanes: int, reads: bool) -> _Shared:
        """No steps yet, with room for ``capacity`` in ``lanes`` lanes."""
        steps = _Steps(*(np.zeros((capacity, width), dtype)
                         for width in (4, 0, 0)
                         for dtype in (np.int32, float)), 0)
        return cls(steps, np.zeros((capacity, 2)) if reads else None,
                   np.zeros(0, np.int64),
                   (np.arange(capacity, dtype=np.int32) % lanes)[:, None])

    def extend(self, steps: _Steps, reads, counts: np.ndarray) -> None:
        """Add ``steps``, with their ``reads`` and segment ``counts``, past
        those held, widening the arrays if they are wider; every slot past
        a step's segments is padding, node 0 of its lane at weight 0."""
        n, k = self.segments.size - 1, counts.size
        fields = list(self.steps[:-1])
        for f, new in enumerate(steps[:-1]):
            held = fields[f]
            # The node fields are the even ones.
            pad = self.lane if f % 2 == 0 else np.zeros((held.shape[0], 1))
            if new.shape[1] > held.shape[1]:
                fields[f] = np.empty((held.shape[0], new.shape[1]), held.dtype)
                fields[f][:] = pad
                fields[f][:n, :held.shape[1]] = held[:n]
            fields[f][n:n + k, :new.shape[1]] = new
            fields[f][n:n + k, new.shape[1]:] = pad[n:n + k]
        self.steps = _Steps(*fields, 0)
        if reads is not None:
            self.reads[n:n + k] = reads
        self.segments = np.concatenate([self.segments,
                                        self.segments[-1] + np.cumsum(counts)])

    def prefix(self, n: int):
        """The first ``n`` steps, as views, and their reads."""
        return (self.steps.rows(slice(0, n), int(self.segments[n])),
                None if self.reads is None else self.reads[:n])

    def suffix(self, n: int, by: int):
        """The last ``n`` steps, read from a row ``by`` lanes past the first
        node of the row that traced them (:meth:`_Steps.shifted`), and
        their reads."""
        held = self.segments.size - 1
        part = slice(held - n, held)
        steps = self.steps.rows(part, int(self.segments[-1]
                                          - self.segments[held - n]))
        return (steps.shifted(by),
                None if self.reads is None else self.reads[part])


def _gather(field: np.ndarray, nodes: np.ndarray,
            weights: np.ndarray) -> np.ndarray:
    """``sum_k weights[k, s] * field[nodes[k, s]]`` for every step s, the
    stencils held stencil-major, ``(K, m)``, and ``field`` of any trailing
    shape: every term taken at once and weighted in place, then summed over
    k in order from an exact +0.0, so that no bit of a step's value depends
    on the steps gathered with it or on their padded width: padding adds an
    exact 0, and terms that are all -0.0 sum to +0.0."""
    terms = np.take(field, nodes, axis=0)
    terms *= weights.reshape(weights.shape + (1,) * (field.ndim - 1))
    out = np.zeros(terms.shape[1:])
    for term in terms:
        out += term
    return out


def _join_on_row(parts) -> tuple[np.ndarray, np.ndarray]:
    """The stencils on row i of a row's steps, part by part (its shared
    steps, then its steps near the diagonal), joined stencil-major:
    ``(K, m)`` intp nodes and
    weights for the m steps of the parts, K the widest part's, padded with
    node 0 at weight 0."""
    m = sum(steps.row_nodes.shape[0] for steps, _ in parts)
    width = max(steps.row_nodes.shape[1] for steps, _ in parts)
    nodes = np.zeros((width, m), np.intp)
    weights = np.zeros((width, m))
    at = 0
    for steps, _ in parts:
        n, k = steps.row_nodes.shape
        nodes[:k, at:at + n] = steps.row_nodes.T
        weights[:k, at:at + n] = steps.row_weights.T
        at += n
    return nodes, weights


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


def _traced_steps(plan: _Plan, rows: range):
    """The nodes whose steps a block of rows traces, as their rows and
    columns: first the new shared steps of its profiles (:class:`_Plan`),
    a profile's columns in order, each traced from the first row that reads
    it, then the steps near the diagonal of every row that traces its own,
    in node order; each profile's run of them, as (profile, its last row,
    first node, end), and each such row's, as (row, first node, end)."""
    block = np.arange(rows.start, rows.stop)
    profiles = plan.profile[block]
    row, column, runs, n = [], [], [], 0
    for cell in np.unique(profiles[profiles >= 0]).tolist():
        on = block[profiles == cell]
        columns = np.arange(plan.first[on[0]], plan.shared[on[-1]])
        if columns.size:
            row.append(on[np.searchsorted(plan.shared[on], columns,
                                          side="right")])
            column.append(columns)
            last = int(np.flatnonzero(plan.profile == cell)[-1])
            runs.append((cell, last, n, n + columns.size))
            n += columns.size
    tracing = block[plan.source[block] == block]
    count = tracing + 1 - plan.shared[tracing]
    row.append(np.repeat(tracing, count))
    column.append(np.arange(count.sum()) + np.repeat(
        plan.shared[tracing] - np.cumsum(count) + count, count))
    ends = n + np.cumsum(count)
    tails = list(zip(tracing.tolist(), (ends - count).tolist(), ends.tolist()))
    return np.concatenate(row), np.concatenate(column), runs, tails


def _block_steps(problem: GoursatProblem, plans: dict[str, _Plan],
                 shared: dict[str, dict[int, _Shared]],
                 near: dict[str, dict[int, _Shared]], rows: range):
    """Trace the steps a block of rows traces (:class:`_Plan`), add the new
    shared ones to ``shared`` and the steps near the diagonal of every row
    that traces its own to ``near``, by row, and return the data that each
    row's crossing steps near the diagonal carry from the diagonal, in
    their lanes, the block's rows in turn: a step that reaches the
    diagonal carries it at the row's own launch, its x-node plus the
    launch of the traced step counted from the traced row's, all of the
    block's evaluated in one call.  The steps near the diagonal of a row
    that a later block reads are copied out of the block's."""
    spec, coeff, family_y = problem.spec, problem.coeff, problem.family_y
    x = spec.x_nodes
    for family, plan in plans.items():
        lanes = plan.lanes
        row, column, runs, tails = _traced_steps(plan, rows)
        lane = np.tile(np.arange(lanes), row.size)
        stop = np.maximum(row - 1, 0)
        # Every step the block traces of the family in one trace, which
        # solves the launches of the steps that reach their event.
        if family == "crossing":
            bundle = trace_crossing_batch(
                coeff, np.repeat(x[row], lanes), np.repeat(x[column], lanes),
                family_y[lane], np.repeat(stop, lanes))
            reads = None
        else:
            bundle = trace_edge_batch(coeff, x[row], x[column], stop)
            # An edge event lies between the x-lines i - 1 and i (row 0's
            # on x-line 0), and reads the edge linearly in x between them.
            event = ~np.isnan(bundle.launch)
            upper = np.where(event, np.clip(np.nan_to_num(bundle.launch)
                                            * spec.nx - (row - 1), 0.0, 1.0),
                             0.0)
            reads = np.column_stack([np.where(event, 1.0 - upper, 0.0),
                                     upper])
        steps = _quadrature_matrix(spec, bundle, np.repeat(row, lanes), lanes,
                                   lane)
        counts = np.diff(bundle.offsets)

        def part(lo: int, hi: int, copy: bool):
            # The steps of the nodes lo to hi, with their reads and counts,
            # as views, or copies.
            on = slice(lo * lanes, hi * lanes)
            new = steps.rows(on, int(counts[on].sum()))
            held = None if reads is None else reads[on]
            if copy:
                new = _Steps(*(np.array(a) for a in new[:-1]), new.nnz)
                held = None if held is None else np.array(held)
            return new, held, counts[on]

        for cell, last, lo, hi in runs:
            table = shared[family].get(cell)
            if table is None and last < rows.stop:
                shared[family][cell] = _Shared(*part(lo, hi, False))
            else:
                if table is None:
                    table = shared[family][cell] = _Shared.kept(
                        int(plan.shared[last]) * lanes, lanes,
                        reads is not None)
                table.extend(*part(lo, hi, False))
        # The last row that reads each row's steps near the diagonal.
        reader = np.zeros(plan.source.size, dtype=np.int64)
        np.maximum.at(reader, plan.source, np.arange(plan.source.size))
        for i, lo, hi in tails:
            near[family][i] = _Shared(
                *part(lo, hi, reader[i] >= rows.stop), launch=(
                    bundle.launch[lo * lanes:hi * lanes] - x[i]
                    if family == "crossing" else None))
        del bundle
    # The block's steps that reach the diagonal, as rows' steps near the
    # diagonal in turn, and their launches.
    plan, event, launch, steps = plans["crossing"], [], [], 0
    for i in rows:
        n = (i + 1 - int(plan.shared[i])) * plan.lanes
        offset = near["crossing"][plan.source[i]].launch[-n:]
        at = np.flatnonzero(~np.isnan(offset))
        event.append(steps + at)
        launch.append(x[i] + offset[at])
        steps += n
    event, launch = np.concatenate(event), np.concatenate(launch)
    diagonal = np.zeros((steps, _lane_width(problem)))
    if family_y.size == 1:
        diagonal[event] = _diagonal_coords(problem, _diagonal_data(
            coeff.model, launch[:, None], spec.y_nodes), rows)
    else:
        diagonal[event, 0] = _diagonal_data(coeff.model, launch,
                                            family_y[event % plan.lanes])
    return diagonal


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
    (edge) data there instead.  Rows whose x-cells share a travel-time
    profile share the steps that keep clear of their ends, each traced
    once, from the first row that reads it, and read as a prefix of every
    such row's steps, and rows whose xi-cells near the diagonal share
    their profiles too share their steps near the diagonal, traced by the
    first such row and read, moved along the diagonal, as a suffix
    (:func:`_plans`).  The steps a row traces are traced
    a block of rows at a time (:func:`_blocks`), and each block's rows are
    marched by :func:`_march_block`, so that one block's step data are
    held at a time, beside the shared steps later rows read; the sources
    of the last finished row, which the next row's steps read, are carried
    from row to row and from block to block.
    The source of a step reads its cell's corners on row i too, so each row
    is a small fixed point: both unknowns on the row are iterated from the
    rows below it, extrapolated linearly in x (:func:`_start`), until their
    sup-norm increment (of the ensemble unknown on every y-node, not of its
    coordinates) falls below ``tol``; a row's steps on the row are joined
    into one stencil per family before its first sweep.
    Each local sweep computes the ensemble update from the previous
    iterates, then the scalar update using the fresh ensemble values in the
    edge condition and the previous iterates in the path integral.
    ``iterations`` is the most local sweeps any row took, and ``deltas[k]``
    the largest row increment of local sweep k + 1, a row that stopped
    sooner counting its last, and ``march["sweeps"]`` the local sweeps of
    all rows.  The solution keeps the marched coordinates
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
    # The sources of the last finished row, in the crossing steps' lanes,
    # with room for the longest row and two nodes past it, which the
    # stencils below of short rows reach at weight 0.  Rows grow, so the
    # nodes past a row are still zero when the row above reads it.
    families = problem.family_y.size
    source_c = np.zeros(((tri.nx + 3) * families, _lane_width(problem)))
    source_g = np.zeros(tri.nx + 3)
    # deltas[k]: the largest row increment of local sweep k + 1, a row that
    # stopped sooner counting its last; ended: the largest last increment.
    deltas, ended = [], 0.0
    plans = _plans(problem)
    blocks = _blocks(plans)
    march = {"blocks": len(blocks), "sweeps": 0,
             **{family: {"steps": 0, "traced": 0, "segments": 0}
                for family in plans}}
    shared = {family: {} for family in plans}
    near = {family: {} for family in plans}
    for rows in blocks:
        for history in _march_block(problem, plans, shared, near, rows, tol,
                                    C, G, source_c, source_g, march):
            deltas += [ended] * (len(history) - len(deltas))
            for k in range(len(deltas)):
                deltas[k] = max(deltas[k], history[min(k, len(history) - 1)])
            ended = max(ended, history[-1])
            march["sweeps"] += len(history)
        _drop_unread(plans, shared, near, rows)

    return KernelSolution(coords=C, diagonal_rows=problem.diagonal_rows,
                          ktilde=G, iterations=len(deltas),
                          final_delta=deltas[-1], deltas=tuple(deltas),
                          spec=problem.spec, basis=problem.basis,
                          march=march)


def _row_parts(plans: dict[str, _Plan], shared: dict[str, dict[int, _Shared]],
               near: dict[str, dict[int, _Shared]], diagonal: np.ndarray,
               rows: range) -> Iterator[dict]:
    """Each row's steps in a block, a family's as (steps, reads) pairs: the
    shared steps it reads (:class:`_Plan`), if any, then its steps near the
    diagonal, the last of those its source row traced, their nodes moved
    along the diagonal from that row's to its own; and ``"diagonal"``, the
    row's slice of the block's ``diagonal`` data
    (:func:`_block_steps`).  The nodes of every part count from their
    rows' first, so the parts together are the row's steps in node
    order."""
    at = 0
    for i in rows:
        parts = {}
        for family, plan in plans.items():
            lanes, source = plan.lanes, int(plan.source[i])
            n = (i + 1 - int(plan.shared[i])) * lanes
            parts[family] = [near[family][source].suffix(
                n, (i - source) * lanes)]
            if plan.shared[i]:
                parts[family].insert(0, shared[family][plan.profile[i]].prefix(
                    int(plan.shared[i]) * lanes))
            if family == "crossing":
                parts["diagonal"] = diagonal[at:at + n]
                at += n
        yield parts


def _drop_unread(plans: dict[str, _Plan],
                 shared: dict[str, dict[int, _Shared]],
                 near: dict[str, dict[int, _Shared]], rows: range) -> None:
    """Drop the shared steps and the steps near the diagonal that no row
    past ``rows`` reads."""
    for family, plan in plans.items():
        for tables, by in ((shared, plan.profile), (near, plan.source)):
            later = set(by[rows.stop:].tolist())
            for key in set(tables[family]) - later:
                del tables[family][key]


def _march_block(problem: GoursatProblem, plans: dict[str, _Plan],
                 shared: dict[str, dict[int, _Shared]],
                 near: dict[str, dict[int, _Shared]], rows: range,
                 tol: float, C: np.ndarray, G: np.ndarray,
                 source_c: np.ndarray, source_g: np.ndarray,
                 march: dict) -> list[list[float]]:
    """March the rows of one block of :func:`solve_goursat`, writing their
    unknowns ``C`` and ``G``, add the steps its rows march and trace, and
    their segments, to ``march``, and return each row's local sweep
    increments.  ``source_c`` and ``source_g`` hold the sources of the row
    below the block's first, and each row leaves its own there for the
    next.  Each row reads its profile's shared steps (:class:`_Plan`),
    then its steps near the diagonal; the block's step data live in this
    call only, but for the copies later blocks read, so none of them is
    alive when the next block is traced."""
    tri = problem.spec.tri
    basis = problem.basis
    r = basis.shape[1]
    families = problem.family_y.size
    diagonal = _block_steps(problem, plans, shared, near, rows)
    for family, plan in plans.items():
        march[family]["traced"] += int(plan.traced()[
            rows.start:rows.stop].sum())
    # The ensemble unknown as the crossing steps read it: a row per node,
    # or per node and y-node with a family per y-node.
    width = _lane_width(problem)
    lanes_C = C.reshape(tri.n_nodes * families, width)
    histories = []
    for i, parts in zip(rows, _row_parts(plans, shared, near, diagonal,
                                         rows)):
        nodes = tri.row_slice(i)
        n = i + 1
        below = tri.row_slice(max(i - 1, 0))
        for family, plan in plans.items():
            march[family]["steps"] += n * plan.lanes
            march[family]["segments"] += sum(
                steps.nnz for steps, _ in parts[family]) // 4
        cross_parts, edge_parts = parts["crossing"], parts["edge"]
        unknown = lanes_C[below.start * families:below.stop * families]
        fixed_C = [steps.fixed(unknown, source_c) for steps, _ in cross_parts]
        fixed_C[-1] = parts["diagonal"] + fixed_C[-1]
        fixed_C = np.concatenate(fixed_C).reshape(n, r)
        fixed_G = (np.concatenate([steps.fixed(G[below], source_g)
                                   for steps, _ in edge_parts])
                   + np.concatenate([reads[:, 0] for _, reads in edge_parts])
                   * float(problem.edge_gain @ C[below.start]))
        gain = np.concatenate([reads[:, 1] for _, reads in edge_parts])
        on_row_c = _join_on_row(cross_parts)
        on_row_g = _join_on_row(edge_parts)
        to_ensemble = problem.scalar_to_ensemble[:n]
        to_scalar = problem.ensemble_to_scalar[:n]
        decay = problem.scalar_decay[:n]

        c = _start(C, tri, i)
        g = _start(G, tri, i)
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
                                      *on_row_c).reshape(n, r)
            g_new = (fixed_G + gain * float(problem.edge_gain @ c_new[0])
                     + _gather(src_g, *on_row_g))
            if not (np.all(np.isfinite(c_new))
                    and np.all(np.isfinite(g_new))):
                raise NumericError("Goursat iterate is no longer finite")
            history.append(max(_sup_increment(c_new - c, basis),
                               float(np.max(np.abs(g_new - g)))))
            c, g = c_new, g_new
        # Freed before the next row joins its own: one row's intp stencils
        # are held at a time.
        del on_row_c, on_row_g
        C[nodes] = c
        G[nodes] = g
        source_c[:n * families] = src_c.reshape(n * families, width)
        source_g[:n] = src_g
        histories.append(history)
    return histories


def _start(field: np.ndarray, tri: TriangularIndex, i: int) -> np.ndarray:
    """Where row i's local sweeps start the unknown ``field`` (``C`` or
    ``G``, solved on the rows below i), the predictor of a
    predictor-corrector march: zero on row 0; on rows 1 and 2 row i - 1,
    its last node repeated; above them ``2 * row(i - 1) - row(i - 2)`` on
    the nodes the two rows share, extrapolated linearly along the row to
    its last two nodes."""
    if i == 0:
        return np.zeros((1,) + field.shape[1:])
    last = field[tri.row_slice(i - 1)]
    if i < 3:
        return np.concatenate([last, last[-1:]])
    start = np.empty((i + 1,) + field.shape[1:])
    np.subtract(2.0 * last[:-1], field[tri.row_slice(i - 2)], out=start[:-2])
    for j in (i - 1, i):
        start[j] = 2.0 * start[j - 1] - start[j - 2]
    return start


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


def build_backstepping_problem(model: PlantModel,
                               spec: GridSpec) -> GoursatProblem:
    """Sample ``model`` on ``spec`` and project the kernel system onto its
    y-subspace; nothing is traced.

    The subspace is seeded with the exact diagonal data on the diagonal
    nodes and the readout rows.  The exchange part of each ``A_j`` in the
    basis is sampled one x-node at a time for the row basis ``D`` of all
    of them (:func:`~ensemble_backstep.grid.row_basis`) and their
    ``(r, q)`` loadings ``blocks[j]`` on it
    (:func:`~ensemble_backstep.grid.factor_blocks`).  The speed
    derivative stays out of the factored part, so one that varies in y
    cannot raise q.
    """
    coeff = sample_coefficients(model, spec)
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
    directions, blocks = factor_blocks(exchanges, identity)

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
                               tol: float = 1e-10) -> KernelSolution:
    """Solve the transform-kernel equations of ``model`` sampled on ``spec``;
    the samples are freed when the solve returns."""
    return solve_goursat(build_backstepping_problem(model, spec), tol=tol)


def kernel_pde_residual(sol: KernelSolution,
                        model: PlantModel) -> tuple[float, float]:
    """One-sided finite-difference residuals of both kernel equations.

    Evaluates the ensemble and scalar kernel equations of ``model``, sampled
    on ``sol.spec`` here, at interior triangle nodes, excluding a one-cell
    band along the diagonal and along the ``xi = 0`` edge where the
    one-sided stencils would cross the data lines.
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
    coeff = sample_coefficients(model, spec)
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
