"""Uniform grids on [0,1], the triangular index set, quadrature, interpolation.

Conventions used throughout the package:

* x-nodes are ``i/nx`` for ``i = 0..nx`` (``nx`` intervals, ``nx+1`` nodes).
* y-nodes are ``j/(ny-1)`` for ``j = 0..ny-1`` (endpoints included).
* Fields on the triangle ``T = {0 <= xi <= x <= 1}`` are stored dense and
  ragged in row-major order: row ``i`` holds the ``i+1`` nodes
  ``(x_i, xi_0..xi_i)``, flattened so that node ``(i, j)`` sits at flat index
  ``i*(i+1)/2 + j``.  A "tri field" is an array of shape ``(n_tri, ny)``; a
  "tri scalar field" has shape ``(n_tri,)``.
* Integrals over the x- and y-nodes use the composite trapezoid rule;
  :func:`corner_weights` also applies a quadrature rule to the interpolant
  along a segment inside one cell.
* Fields that stay in a few y-directions are held in the coordinates of
  the smallest closed subspace that holds them (:func:`y_subspace`), and
  kernels acting along y are factored through the row space of their
  blocks (:func:`row_basis`, streamed a block at a time), so applying one
  costs in proportion to its numerical rank, not to ``ny``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization of space, ensemble variable, and time.

    Parameters
    ----------
    nx : int
        Number of x-intervals (``nx + 1`` nodes at ``i/nx``).
    ny : int
        Number of y-nodes, evenly spaced with endpoints included.
    dt : float
        Time step in seconds.
    t_final : float
        Simulation horizon in seconds.
    """

    nx: int
    ny: int
    dt: float = 0.004
    t_final: float = 5.0

    def __post_init__(self):
        if self.nx < 2:
            raise ValueError(f"nx must be >= 2, got {self.nx}")
        if self.ny < 2:
            raise ValueError(f"ny must be >= 2, got {self.ny}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not self.t_final > 0:
            raise ValueError(f"t_final must be > 0, got {self.t_final}")

    @property
    def hx(self) -> float:
        """x-grid spacing 1/nx."""
        return 1.0 / self.nx

    @property
    def hy(self) -> float:
        """y-grid spacing 1/(ny-1)."""
        return 1.0 / (self.ny - 1)

    @cached_property
    def x_nodes(self) -> np.ndarray:
        """The nx+1 nodes i/nx."""
        return np.arange(self.nx + 1) / self.nx

    @cached_property
    def y_nodes(self) -> np.ndarray:
        """The ny nodes j/(ny-1)."""
        return np.arange(self.ny) / (self.ny - 1)

    @cached_property
    def x_weights(self) -> np.ndarray:
        """Trapezoid weights on the x-nodes."""
        return trapezoid_weights(self.nx + 1, self.hx)

    @cached_property
    def y_weights(self) -> np.ndarray:
        """Trapezoid weights on the y-nodes."""
        return trapezoid_weights(self.ny, self.hy)

    @cached_property
    def tri(self) -> "TriangularIndex":
        """Triangular index set over the x-nodes."""
        return TriangularIndex(self.nx)


def trapezoid_weights(n_nodes: int, spacing: float) -> np.ndarray:
    """Composite trapezoid weights for ``n_nodes`` uniformly spaced nodes."""
    w = np.full(n_nodes, spacing)
    w[0] = w[-1] = spacing / 2.0
    return w


def gregory_weights(n_nodes: int, spacing: float) -> np.ndarray:
    """Trapezoid weights with the first Gregory end correction.

    Spans of at least two cells get the ``spacing/12`` end-point correction
    (the same convention as the Volterra composition routine); a one-cell
    span stays plain trapezoid.
    """
    w = trapezoid_weights(n_nodes, spacing)
    if n_nodes >= 3:
        c = spacing / 12.0
        w[0] -= c
        w[1] += c
        w[-2] += c
        w[-1] -= c
    return w


def row_basis(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Orthonormal ``(ny, q)`` basis of the row space of a family of
    ``(m_k, ny)`` blocks stacked, at the stack's numerical rank q.

    q counts the singular values above ``s_max * max(m, ny) * eps``, m the
    rows of all the blocks, the rule of ``numpy.linalg.matrix_rank``; a
    family of zero blocks gets q = 0.  The singular values and the basis
    come from the SVD of the stack's R factor, carried from slab to slab
    (QR updating: Golub & Van Loan, *Matrix Computations*, 4th ed.,
    sec. 6.5): a slab is the R factor so far over the next blocks, at most
    ``ny**2`` values of them or one larger block, so the stack is never
    formed, nor the ``m x ny`` left factor a thin SVD would form.  A family
    that fits in one slab gets the one QR of its stack.  It factors the
    seeds and closure passes of :func:`y_subspace`, a solved kernel's
    coordinates and the exchange in a y-basis, one ``(r, r)`` block per
    x-node.
    """
    slab, held, rows = [], 0, 0
    for block in blocks:
        ny = block.shape[1]
        if held and held + block.size > ny * ny:
            slab, held = [np.linalg.qr(np.vstack(slab), mode="r")], 0
        slab.append(block)
        held += block.size
        rows += len(block)
    _, sv, vt = np.linalg.svd(np.linalg.qr(np.vstack(slab), mode="r"),
                              full_matrices=False)
    cutoff = sv.max(initial=0.0) * max(rows, ny) * np.finfo(float).eps
    return vt[:int(np.count_nonzero(sv > cutoff))].T.copy()


def y_subspace(seeds: np.ndarray,
               maps: Callable[[], Iterable[np.ndarray]]) -> np.ndarray:
    """Orthonormal basis of the smallest y-subspace that holds the seeds and
    is closed under a family of linear maps.

    ``seeds`` is an ``(m, ny)`` array of y-profiles, one a row.  ``maps()``
    yields the family's ``(ny, ny)`` matrices in row form: a profile ``f``
    maps to ``f @ a``.  The basis starts as the :func:`row_basis` of the
    seeds; each pass over the maps adds the images ``new.T @ a`` of the
    directions ``new`` the previous pass added, until the rank stops
    growing: it factors the images, a map at a time, stacked over ``scale *
    basis.T``, with ``scale`` the largest Frobenius norm of a map, so a
    direction counts as new only if its images stand out of their rounding.
    A family of zero maps adds nothing.  A closure of rank ny returns the
    identity.
    """
    ny = seeds.shape[1]
    basis = row_basis([seeds])
    new = basis
    while new.shape[1] and basis.shape[1] < ny:
        grown = row_basis(_closure_pass(new, basis, maps))
        added = grown.shape[1] - basis.shape[1]
        if added <= 0:
            break
        u, _, _ = np.linalg.svd(grown - basis @ (basis.T @ grown),
                                full_matrices=False)
        new = u[:, :added]
        basis = grown
    return basis if basis.shape[1] < ny else np.eye(ny)


def _closure_pass(new: np.ndarray, basis: np.ndarray,
                  maps: Callable[[], Iterable[np.ndarray]]
                  ) -> Iterator[np.ndarray]:
    """The images ``new.T @ a`` of one pass over the maps, then ``scale *
    basis.T``: a pass over zero maps has rank 0."""
    scale = 0.0
    for a in maps():
        yield new.T @ a
        scale = max(scale, float(np.linalg.norm(a)))
    yield scale * basis.T


@dataclass(frozen=True)
class TriangularIndex:
    """Index set of nodes ``(x_i, xi_j)`` with ``0 <= j <= i <= nx``.

    Nodes are ordered row-major (outer index i, inner index j), which is the
    flat storage order of every tri field in the package.
    """

    nx: int

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.nx + 2) // 2

    @cached_property
    def row_start(self) -> np.ndarray:
        """Flat index of the first node of each row: i*(i+1)/2."""
        i = np.arange(self.nx + 1)
        return i * (i + 1) // 2

    @cached_property
    def i_index(self) -> np.ndarray:
        """Row index i of every flat node, in storage order."""
        return np.repeat(np.arange(self.nx + 1), np.arange(1, self.nx + 2))

    @cached_property
    def j_index(self) -> np.ndarray:
        """Column index j of every flat node, in storage order."""
        return np.concatenate([np.arange(i + 1) for i in range(self.nx + 1)])

    @cached_property
    def x_coord(self) -> np.ndarray:
        """x_i of every flat node."""
        return self.i_index / self.nx

    @cached_property
    def xi_coord(self) -> np.ndarray:
        """xi_j of every flat node."""
        return self.j_index / self.nx

    def diagonal_flat(self) -> np.ndarray:
        """Flat indices of the diagonal nodes (i, i)."""
        i = np.arange(self.nx + 1)
        return i * (i + 1) // 2 + i

    def row_slice(self, i: int) -> slice:
        """Slice of flat storage covering row i (nodes (i, 0..i))."""
        start = i * (i + 1) // 2
        return slice(start, start + i + 1)


def corner_weights(nx: int, x: np.ndarray, xi: np.ndarray,
                   weights: np.ndarray):
    """Bilinear interpolation stencils on the triangle, vectorized.

    The points come in groups along the first axis: column ``g`` of ``x``,
    ``xi`` and ``weights`` (all of shape ``(p, ...)``) is one group, and
    for each group this returns four flat node indices and four weights:
    the ``weights``-weighted sum of its points' interpolation stencils in
    the cell of its middle point ``p // 2``.  Full cells use the bilinear
    formula; cells touching the diagonal use barycentric weights on the
    corner triangle (which degenerate to linear interpolation along the
    diagonal itself).  The cell is that of the middle point clamped to the
    triangle; callers are responsible for rejecting points farther than
    roundoff outside it.  The interpolant is one polynomial per cell and
    continuous across cells, so a point on the cell's boundary gets its
    value there.  A group that lies in its cell thus gets the quadrature
    rule ``weights`` applied to the interpolant; a group of one point with
    weight 1 gets the point's interpolation stencil.

    Parameters
    ----------
    nx : int
    x, xi, weights : arrays of equal shape ``(p,) + s``

    Returns
    -------
    idx : int64 array of shape ``s + (4,)``
    w : float array of shape ``s + (4,)``
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    shape = x.shape[1:] + (4,)
    x, xi, weights = (v.reshape(len(v), -1) for v in (x, xi, weights))
    # The cell of the middle point, clamped to the triangle.
    mid_x = np.clip(x[len(x) // 2], 0.0, 1.0)
    mid_xi = np.minimum(np.clip(xi[len(x) // 2], 0.0, 1.0), mid_x)
    i = np.minimum((mid_x * nx).astype(np.int64), nx - 1)
    j = np.minimum((mid_xi * nx).astype(np.int64), i)
    # Local coordinates of every point in its group's cell, and the moments
    # of the weights against them: the stencils are linear in those.
    a = x * nx
    a -= i
    b = xi * nx
    b -= j
    s = weights.sum(axis=0)
    a *= weights
    sa = a.sum(axis=0)
    a *= b
    sab = a.sum(axis=0)
    b *= weights
    sb = b.sum(axis=0)

    # Each index and weight is written straight into its slot of the
    # (n, 4) outputs: corners (i, j), (i+1, j), (i, j+1), (i+1, j+1).
    idx = np.empty(i.shape + (4,), dtype=np.int64)
    w = np.empty(i.shape + (4,))
    corner = i * (i + 1) // 2 + j
    idx[:, 0] = corner
    idx[:, 2] = corner + 1
    corner += i + 1
    idx[:, 1] = corner
    idx[:, 3] = corner + 1
    w[:, 1] = sa - sab
    w[:, 2] = sb - sab
    w[:, 3] = sab
    w[:, 0] = s - sa - w[:, 2]
    # Diagonal cells: barycentric weights on {(i,i), (i+1,i), (i+1,i+1)},
    # (x - xi)*nx = a - b and xi*nx - i = b there, with the unused corner
    # (i, i+1) pointed at (i, i) with weight 0.
    diag = np.flatnonzero(j == i)
    idx[diag, 2] = idx[diag, 0]
    w[diag, 0] = (s - sa)[diag]
    w[diag, 1] = (sa - sb)[diag]
    w[diag, 2] = 0.0
    w[diag, 3] = sb[diag]
    return idx.reshape(shape), w.reshape(shape)
