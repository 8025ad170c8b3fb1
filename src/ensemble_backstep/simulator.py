"""Explicit time-domain simulation of the plant and its stabilized forms.

The plant couples an ensemble field ``u(t, x, y)`` transported rightward with
a scalar field ``v(t, x)`` transported leftward, with interior exchange,
drive, and readout couplings and boundary conditions ``u(t, 0, y) =
inflow_gain(y) * v(t, 0)`` and ``v(t, 1)`` set by the control input.

This module provides:

* one first-order explicit upwind step that serves the plant and the
  transformed (cascade) system, applied to the coordinates ``A`` of the
  ensemble field in a y-basis ``B`` built once per run (``u = A @ B.T``,
  :func:`coordinate_step`).  ``B`` spans the smallest y-subspace that holds
  the initial field's rows, the inflow gain and the drive rows and is
  closed under the exchange at every x-node
  (:func:`~ensemble_backstep.grid.y_subspace`, the closure the kernel
  solver uses too); the toy's state stays in the span of ``y - 1/2`` and
  ``cos 2 pi y``, so its steps move 2 columns instead of ny.  ``B`` is
  orthonormal in the y-quadrature, so norms and the Lyapunov value are sums
  of squares of coordinates.  When the sampled ensemble speed varies in y,
  the field is transported per y-node and ``B`` is the identity scaled by
  the inverse square roots of the y-weights: the same step, on every
  y-node.  Full fields are rebuilt only for snapshots;
* the scalar feedback law assembled from the outlet row of the solved
  kernels;
* the state transform that maps the scalar field ``v`` onto a pure-transport
  variable ``beta`` (the ensemble field is unchanged by the transform), its
  inverse, and norm/Lyapunov diagnostics with a constructive parameter
  recipe;
* simulation drivers that record norms, control activity, snapshots, and a
  fitted exponential rate.

Space is discretized with one-sided differences oriented by the transport
direction and time with forward Euler; runs are accepted only when
``dt * max_speed * nx <= 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DimensionError, DivergenceError
from .grid import GridSpec, gregory_weights, row_basis, y_subspace
from .kernelsolve import KernelSolution
# ``sample_coefficients`` is unused here but must stay bound: bench/tracing.py
# wraps it in this module.
from .model import SampledCoefficients, sample_coefficients  # noqa: F401
from .volterra import ResolventKernel, solve_target_coupling, tri_to_matrix

__all__ = [
    "EnsembleState",
    "SimulationRecord",
    "LyapunovRecipe",
    "TransformOperator",
    "transform_operator",
    "CoordinateStep",
    "coordinate_step",
    "default_initial_state",
    "cfl_condition",
    "check_cfl",
    "scalar_norm",
    "step_plant",
    "simulate",
    "simulate_target",
    "forward_transform",
    "inverse_transform",
    "step_target",
    "lyapunov_recipe",
]


@dataclass(frozen=True)
class EnsembleState:
    """Joint state at one instant: ensemble field, scalar field, time.

    In transformed-system simulations the same container carries the
    transformed pair (ensemble component in ``u``, scalar component in ``v``).
    The states a :class:`CoordinateStep` advances carry the coordinates of
    the ensemble component in its basis in ``u`` instead of the field.
    """

    u: np.ndarray
    v: np.ndarray
    t: float


@dataclass(frozen=True)
class SimulationRecord:
    """Per-step time series of a simulation run.

    ``control`` holds the boundary input associated with each recorded time
    (zero in open-loop and transformed-system runs).  ``lyapunov`` is filled
    only by transformed-system runs.  ``decay_rate`` is the least-squares
    slope of ``log(joint_norm)`` over the late-time window.  ``y_ranks``
    holds the y-ranks the step applied: ``state``, the dimension of the
    subspace it stepped in, ``exchange``, the rank of the factored
    exchange, and in transformed-system runs ``k``, the rank of the
    factored ensemble kernel.  ``recipe`` (transformed-system runs only) is
    the :class:`LyapunovRecipe` the Lyapunov series was evaluated with, and
    ``resolvent`` the resolvent series of the scalar kernel behind the
    coupling: ``n_terms_used`` and ``tail_bound``, the last term's sup-norm.
    """

    times: np.ndarray
    joint_norms: np.ndarray
    u_norms: np.ndarray
    v_norms: np.ndarray
    control: np.ndarray
    lyapunov: np.ndarray | None
    snapshots: tuple[tuple[float, EnsembleState], ...]
    decay_rate: float | None
    y_ranks: dict[str, int]
    recipe: LyapunovRecipe | None = None
    resolvent: dict[str, float] | None = None


@dataclass(frozen=True)
class LyapunovRecipe:
    """Constructively chosen Lyapunov parameters with their norm sandwich.

    ``m_equiv`` and ``M_equiv`` satisfy ``m_equiv * joint_norm**2 <= V <=
    M_equiv * joint_norm**2`` by pointwise comparison of the quadrature
    weights.  ``bounds`` records the measured coefficient bounds the recipe
    was evaluated from.
    """

    p: float
    delta: float
    m_equiv: float
    M_equiv: float
    bounds: dict[str, float]


def _running_weights(spec: GridSpec) -> np.ndarray:
    """Flat-triangle weights of the running integral over xi from 0 to x_i.

    Row ``i`` carries the end-corrected trapezoid weights of the Volterra
    composition (:func:`~ensemble_backstep.grid.gregory_weights`), so
    transforms built here are quadrature-consistent with kernels built
    there; row 0 spans nothing and weighs 0.
    """
    return np.concatenate([np.zeros(1)] + [gregory_weights(i + 1, spec.hx)
                                           for i in range(1, spec.nx + 1)])


@dataclass(frozen=True)
class TransformOperator:
    """The running integrals of a state transform and of its inverse.

    Maps a state ``(u, v)`` to ``int_0^x (int kernel(x, xi, y) u(xi, y) dy
    + scalar_kernel(x, xi) v(xi)) dxi`` at every x-node.  The ensemble
    kernel is factored in y inside the solver's y-subspace: ``kernel[(i,
    j), :] ~= basis @ P[(i, j)]`` (:func:`transform_operator`),
    ``rows[i, s, j]`` is ``P[(i, j), s]`` times the running-integral weight
    of node ``(i, j)``, zero above the diagonal, and ``weighted_basis`` is
    ``basis`` times the y-quadrature weights.  ``scalar`` is the scalar
    kernel and ``resolvent`` its resolvent ``L``, both as lower-triangular
    matrices with the running-integral weights folded in; ``L`` undoes the
    transform as ``v = (I + L)(beta + J)``, with ``J`` the running integral
    of the ensemble kernel against the ensemble field.  ``coupling`` is the
    same resolvent series in flat triangle storage, without weights: the
    cascade's coupling per unit drive.  An application costs
    O(N^2 r + N ny r) for ``N = nx + 1`` x-nodes and y-rank r.
    """

    spec: GridSpec
    rows: np.ndarray
    weighted_basis: np.ndarray
    scalar: np.ndarray
    resolvent: np.ndarray
    coupling: ResolventKernel

    def integrate(self, field: np.ndarray) -> np.ndarray:
        """``J``: ``int_0^x int kernel(x, xi, y) field(xi, y) dy dxi`` at
        every x-node."""
        return self.running_integral(field @ self.weighted_basis)

    def running_integral(self, contracted: np.ndarray) -> np.ndarray:
        """``J`` from the ``(nx + 1, r)`` contractions ``field @
        weighted_basis`` of the field at every x-node."""
        n, r = contracted.shape
        return self.rows.reshape(n, r * n) @ contracted.T.ravel()

    def __call__(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        _check_state_shapes(self.spec, u, v)
        return self.integrate(u) + self.scalar @ v


def transform_operator(kernels: KernelSolution) -> TransformOperator:
    """Build the operator of the transform with the kernels, and of its
    inverse: ``k ~= P @ (B @ Q).T`` in the solver's basis ``B``, with ``Q``
    the :func:`~ensemble_backstep.grid.row_basis` of ``k @ B``, which is
    ``kernels.coordinates()``, and ``P = k @ B @ Q`` its loadings."""
    spec = kernels.spec
    weights = _running_weights(spec)
    coords = kernels.coordinates()
    inner = row_basis([coords])
    rows = tri_to_matrix(spec, weights[:, None] * (coords @ inner))
    series = solve_target_coupling(spec, kernels.ktilde)
    return TransformOperator(
        spec=spec, rows=np.ascontiguousarray(rows.transpose(1, 0, 2)),
        weighted_basis=(kernels.basis @ inner) * spec.y_weights[:, None],
        scalar=tri_to_matrix(spec, weights * kernels.ktilde),
        resolvent=tri_to_matrix(spec, weights * series.values),
        coupling=series)


def _scalar_field(transform: TransformOperator, beta: np.ndarray,
                  running: np.ndarray) -> np.ndarray:
    """The plant's scalar field ``(I + L)(beta + J)`` of cascade variables,
    ``running`` being ``J``."""
    bj = beta + running
    return bj + transform.resolvent @ bj


def _ensemble_norm(spec: GridSpec, coords: np.ndarray) -> float:
    """L2 norm over (x, y) of an ensemble field given by its coordinates in
    a basis orthonormal in the y-quadrature."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(spec.x_weights @ (coords * coords).sum(axis=1)))


def scalar_norm(spec: GridSpec, v: np.ndarray) -> float:
    """L2 norm of a scalar field over x.

    Returns ``inf`` without warning when the field has overflowed; divergence
    detection is the caller's job.
    """
    with np.errstate(over="ignore"):
        return float(np.sqrt(spec.x_weights @ (v * v)))


def default_initial_state(spec: GridSpec, amplitude: float = 1.0) -> EnsembleState:
    """Default excitation: an odd ensemble mode and a half-sine scalar profile.

    The ensemble part ``amplitude * (y - 1/2) * sin(pi x)`` excites the mode
    the built-in toy coupling amplifies; the scalar part
    ``amplitude * sin(pi x)`` seeds the inflow/readout loop directly so that
    open-loop growth is visible on short horizons.
    """
    u0 = amplitude * (spec.y_nodes[None, :] - 0.5) * np.sin(np.pi * spec.x_nodes)[:, None]
    v0 = amplitude * np.sin(np.pi * spec.x_nodes)
    return EnsembleState(u=u0, v=v0, t=0.0)


def cfl_condition(coeff: SampledCoefficients, dt: float) -> tuple[float, bool]:
    """Courant number ``dt * max_speed * nx`` of an explicit step, and whether
    it meets the CFL condition (at most 1, up to roundoff)."""
    courant = dt * coeff.max_speed * coeff.spec.nx
    return courant, courant <= 1.0 + 1e-12


def check_cfl(coeff: SampledCoefficients, dt: float) -> None:
    """Raise :class:`ConfigurationError` if ``dt`` violates the CFL condition."""
    courant, holds = cfl_condition(coeff, dt)
    if not holds:
        raise ConfigurationError(
            f"time step violates the CFL condition: dt*max_speed*nx = "
            f"{courant:.6g} > 1")


def _check_grid(spec: GridSpec, coeff: SampledCoefficients,
                kernels: KernelSolution | None = None) -> None:
    """Raise :class:`DimensionError` unless the coefficients (and kernels, if
    given) were sampled (solved) at ``spec``'s nx and ny."""
    grid = (spec.nx, spec.ny)
    for what, part in (("coefficients sampled", coeff),
                       ("kernels solved", kernels)):
        if part is not None and (part.spec.nx, part.spec.ny) != grid:
            raise DimensionError(
                f"{what} at nx={part.spec.nx}, ny={part.spec.ny} do not "
                f"match the run's grid nx={spec.nx}, ny={spec.ny}")


def _check_state_shapes(spec: GridSpec, u: np.ndarray, v: np.ndarray) -> None:
    if u.shape != (spec.nx + 1, spec.ny):
        raise DimensionError(
            f"ensemble field shape {u.shape} does not match grid "
            f"({spec.nx + 1}, {spec.ny})")
    if v.shape != (spec.nx + 1,):
        raise DimensionError(
            f"scalar field shape {v.shape} does not match grid ({spec.nx + 1},)")


@dataclass(frozen=True)
class CoordinateStep:
    """One run's upwind step, on the coordinates of the ensemble field.

    ``basis`` is the run's ``(ny, r)`` y-basis, orthonormal in the
    y-quadrature (``basis.T @ diag(w_y) @ basis = I``), and the states the
    step advances carry coordinates ``A`` with ``field = A @ basis.T`` in
    place of the ensemble field.  The plant's coefficients are projected
    once: ``speed_u`` is the ensemble speed of each coordinate column (one
    column when the speed does not depend on y); ``drive`` and ``readout``
    are the ``(nx + 1, r)`` rows and ``inflow`` the inflow gain, each times
    ``diag(w_y) @ basis``; ``exchange = (loadings, directions)`` factors the
    exchange in the basis, ``W.T @ E_i @ W ~= loadings[i] @ directions.T``
    with ``W = diag(w_y) @ basis``: ``directions`` is the ``(r, q)`` row
    basis of those blocks over every x-node and ``loadings`` is ``(nx + 1,
    r, q)``, so the coordinates of the exchange integral at x-node i are
    ``loadings[i] @ (A[i] @ directions)``.  A step built with a
    ``transform`` can also take cascade steps: ``contraction = basis.T @
    transform.weighted_basis`` maps coordinates to the y-contractions of
    the transform's running integral.
    """

    spec: GridSpec
    dt: float
    basis: np.ndarray
    speed_u: np.ndarray
    speed_v: np.ndarray
    exchange: tuple[np.ndarray, np.ndarray]
    drive: np.ndarray
    readout: np.ndarray
    inflow: np.ndarray
    transform: TransformOperator | None = None
    contraction: np.ndarray | None = None

    @property
    def weighted_basis(self) -> np.ndarray:
        """``diag(w_y) @ basis``: a field times it gives its coordinates."""
        return self.spec.y_weights[:, None] * self.basis

    @property
    def y_ranks(self) -> dict[str, int]:
        """The dimension of the basis and the rank of the factored exchange."""
        return {"state": self.basis.shape[1],
                "exchange": self.exchange[1].shape[1]}

    def coordinates(self, state: EnsembleState) -> EnsembleState:
        """``state`` with its ensemble field replaced by its coordinates."""
        return replace(state, u=state.u @ self.weighted_basis)

    def field(self, state: EnsembleState) -> EnsembleState:
        """``state`` with its coordinates replaced by the ensemble field."""
        return replace(state, u=state.u @ self.basis.T)


def _unit_scale(rows: np.ndarray) -> np.ndarray:
    """``rows`` divided by their largest magnitude, if that is not 0."""
    peak = float(np.max(np.abs(rows)))
    return rows / peak if peak > 0.0 else rows


def coordinate_step(coeff: SampledCoefficients, dt: float, u0: np.ndarray,
                    transform: TransformOperator | None = None) -> CoordinateStep:
    """Build the upwind step of a run that starts from the ensemble field
    ``u0``.

    With one ensemble speed per x-node, the y-profiles of a run come from
    the rows of ``u0``, the inflow gain and the drive rows, and the exchange
    at each x-node maps a profile ``f`` to ``exchange[i] @ (w_y * f)``; the
    basis spans the smallest subspace that holds those seeds and is closed
    under those maps (:func:`~ensemble_backstep.grid.y_subspace`).  When
    the sampled speed varies in y, or that subspace is all of y, the basis
    is the identity scaled by ``1 / sqrt(w_y)``.  ``transform`` is the
    :func:`transform_operator` of the solved kernels, for cascade steps.

    The exchange is sampled one x-node at a time
    (:meth:`~ensemble_backstep.model.SampledCoefficients.exchange_at`):
    once for each closure pass, which hands :func:`y_subspace` the maps in
    row form, ``(exchange[i] * w_y).T``, once for the
    :func:`~ensemble_backstep.grid.row_basis` of its ``r x r`` blocks in
    the basis, and once for their loadings on that row basis, so no
    ``(nx + 1, r, r)`` array is formed.

    Raises :class:`ConfigurationError` if ``dt`` violates the CFL condition.
    """
    check_cfl(coeff, dt)
    spec = coeff.spec
    n, ny = spec.nx + 1, spec.ny
    wy = spec.y_weights
    speed_u = coeff.speed_u_grid
    if not coeff.speed_u_varies_in_y:
        # Each seed enters at unit scale: the rank rule drops a direction
        # only below rounding of the largest, whatever the field's amplitude.
        seeds = [u0, coeff.inflow_gain_grid[None], coeff.drive_grid]
        basis = y_subspace(
            np.vstack([_unit_scale(part) for part in seeds]),
            lambda: ((coeff.exchange_at(j) * wy).T for j in range(n)))
        speed_u = speed_u[:, :1]
    else:
        basis = np.eye(ny)
    # Orthonormal in the y-quadrature; the identity becomes diag(1/sqrt(w)).
    root = np.sqrt(wy)[:, None]
    basis = np.linalg.qr(root * basis)[0] / root
    weighted = wy[:, None] * basis

    def blocks():
        for j in range(n):
            yield weighted.T @ (coeff.exchange_at(j) @ weighted)

    directions = row_basis(blocks())
    return CoordinateStep(
        spec=spec, dt=dt, basis=basis, speed_u=speed_u,
        speed_v=coeff.speed_v_grid,
        exchange=(np.stack([b @ directions for b in blocks()]), directions),
        drive=coeff.drive_grid @ weighted,
        readout=coeff.readout_grid @ weighted,
        inflow=coeff.inflow_gain_grid @ weighted,
        transform=transform,
        contraction=(None if transform is None
                     else basis.T @ transform.weighted_basis))


def _upwind_step(state: EnsembleState, step: CoordinateStep,
                 boundary_v1: float, cascade: bool) -> EnsembleState:
    """One explicit upwind / forward-Euler step of the plant or the cascade.

    The ensemble coordinates move rightward (backward difference), the
    scalar field leftward (forward difference).  Interior sources use the
    current state; afterwards the outlet value of the scalar field is set
    to ``boundary_v1`` and the ensemble inflow to ``inflow_gain * v(0)``.
    In the plant the drive acts on the scalar field and the readout forces
    it.  In the cascade the drive acts on the plant's scalar field ``(I +
    L)(beta + J)`` of the step's transform and the scalar component is pure
    transport.
    """
    a = state.u
    v = state.v
    h = step.spec.hx
    dt = step.dt
    loadings, directions = step.exchange
    with np.errstate(over="ignore", invalid="ignore"):
        driven = v
        if cascade:
            transform = step.transform
            driven = _scalar_field(transform, v, transform.running_integral(
                a @ step.contraction))
        exchanged = loadings @ (a @ directions)[:, :, None]
        source = exchanged[:, :, 0] + step.drive * driven[:, None]
        a_new = a.copy()
        a_new[1:] += dt * (-step.speed_u[1:] * (a[1:] - a[:-1]) / h
                           + source[1:])
        rate_v = step.speed_v[:-1] * (v[1:] - v[:-1]) / h
        if not cascade:
            rate_v += (step.readout * a).sum(axis=1)[:-1]
        v_new = v.copy()
        v_new[:-1] += dt * rate_v
    v_new[-1] = boundary_v1
    a_new[0] = step.inflow * v_new[0]
    new_t = state.t + dt
    if not (np.isfinite(a_new).all() and np.isfinite(v_new).all()):
        raise DivergenceError(f"state stopped being finite at t = {new_t:.6g}",
                              t=state.t)
    return EnsembleState(u=a_new, v=v_new, t=new_t)


def step_plant(state: EnsembleState, step: CoordinateStep,
               boundary_v1: float) -> EnsembleState:
    """One explicit upwind / forward-Euler step of the plant on the
    coordinates of ``step``, with the scalar outlet set to
    ``boundary_v1``."""
    return _upwind_step(state, step, boundary_v1, cascade=False)


def _feedback_gain(kernels: KernelSolution,
                   weighted_basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The feedback law's weights: the kernels' outlet rows, the ensemble
    one as weights on the coordinates of ``weighted_basis``."""
    spec = kernels.spec
    outlet = spec.tri.row_slice(spec.nx)
    return kernels.k_rows(outlet) @ weighted_basis, kernels.ktilde[outlet]


def _feedback(spec: GridSpec, gain: tuple[np.ndarray, np.ndarray],
              coords: np.ndarray, v: np.ndarray) -> float:
    """The feedback value of the state with ensemble coordinates
    ``coords`` and scalar field ``v``."""
    k, ktilde = gain
    return float(spec.x_weights @ ((k * coords).sum(axis=1) + ktilde * v))


def _refresh_outlet(state: EnsembleState, spec: GridSpec,
                    gain: tuple[np.ndarray, np.ndarray]
                    ) -> tuple[EnsembleState, float]:
    """Impose the feedback law at the state's own time.

    Computes the feedback value from the state and writes it into the scalar
    outlet node, so the closed-loop state carries ``v(1) = U(t)`` at the same
    time ``t`` (as the feedback law prescribes) rather than the value applied
    one step earlier.  Returns the updated state and the feedback value.
    """
    boundary = _feedback(spec, gain, state.u, state.v)
    v_new = state.v.copy()
    v_new[-1] = boundary
    return EnsembleState(u=state.u, v=v_new, t=state.t), boundary


def forward_transform(state: EnsembleState,
                      transform: TransformOperator) -> tuple[np.ndarray, np.ndarray]:
    """Map the plant state onto the cascade variables.

    ``transform`` is :func:`transform_operator` of the solved kernels.  The
    ensemble component is returned unchanged; the scalar component is ``v``
    minus the running x-integral of the kernels against the state, so its
    value at x = 0 always equals ``v(0)``.
    """
    beta = state.v - transform(state.u, state.v)
    return state.u.copy(), beta


def inverse_transform(inverse: TransformOperator, alpha: np.ndarray,
                      beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map cascade variables back to the plant state.

    ``inverse`` is :func:`transform_operator` of the solved kernels, the
    same operator :func:`forward_transform` applies; the scalar field is
    ``(I + L)(beta + J)`` with ``L`` the resolvent of ``ktilde``.
    """
    _check_state_shapes(inverse.spec, alpha, beta)
    return alpha.copy(), _scalar_field(inverse, beta, inverse.integrate(alpha))


def step_target(state: EnsembleState, step: CoordinateStep) -> EnsembleState:
    """One explicit step of the transformed (cascade) system on the
    coordinates of ``step``.

    The scalar component is pure leftward transport with zero inflow at the
    outlet; the ensemble component keeps the exchange and drive terms and
    gains two Volterra couplings, evaluated through the running integral
    ``J(x)`` of the ensemble kernel against the ensemble field: with the
    drive term, the composed coupling contributes ``drive * (beta + J)``
    plus the x-integral of ``kappa * (beta + J)``, which reproduces both
    Volterra terms after swapping the order of integration.  As ``kappa =
    drive * L``, the whole source is ``drive * (I + L)(beta + J)``, the
    drive acting on the plant's scalar field.  ``step`` must have been built
    with the :func:`transform_operator` of the solved kernels.
    """
    return _upwind_step(state, step, 0.0, cascade=True)


def _lyapunov_weights(coeff: SampledCoefficients, p: float,
                      delta: float) -> tuple[np.ndarray, np.ndarray]:
    """x-weights of the Lyapunov value's ensemble and scalar parts."""
    if p <= 0 or delta <= 0:
        raise ConfigurationError(
            "the Lyapunov value requires p > 0 and delta > 0")
    spec = coeff.spec
    return (p * spec.x_weights * np.exp(-delta * spec.x_nodes),
            spec.x_weights * (1.0 + spec.x_nodes) / coeff.speed_v_grid)


def _lyapunov(weights: tuple[np.ndarray, np.ndarray], coords: np.ndarray,
              speed_u: np.ndarray, beta: np.ndarray) -> float:
    """The Lyapunov value of cascade variables with ensemble coordinates
    ``coords`` in a basis orthonormal in the y-quadrature, ``speed_u``
    being the ensemble speed of each coordinate column."""
    ensemble, scalar = weights
    return float(ensemble @ ((coords * coords) / speed_u).sum(axis=1)
                 + scalar @ (beta * beta))


def _kernel_y_norms(kernels: KernelSolution) -> np.ndarray:
    """``||k(x, xi, .)||_y`` at every triangle node, from the coordinates
    ``C`` of ``k`` in the solver's basis ``B``: the square root of the row
    sums of ``(C @ M) * C``, ``M = B.T @ diag(w_y) @ B``, and on the
    diagonal nodes of the exact diagonal rows squared against ``w_y``."""
    spec = kernels.spec
    wy = spec.y_weights
    coords, basis = kernels.coords, kernels.basis
    squares = ((coords @ (basis.T @ (wy[:, None] * basis))) * coords).sum(
        axis=1)
    squares[spec.tri.diagonal_flat()] = (kernels.diagonal_rows ** 2) @ wy
    return np.sqrt(squares)


def lyapunov_recipe(coeff: SampledCoefficients, kernels: KernelSolution,
                    transform: TransformOperator) -> LyapunovRecipe:
    """Choose Lyapunov parameters from measured coefficient bounds.

    The decay weight must exceed a threshold built from the composed-coupling
    bound, the exchange bound, and the inverse-speed bound; the ensemble
    weight ``p`` must stay below a feasibility minimum built from the inflow
    gain, the Volterra coupling, and the drive.  This routine doubles the
    threshold and halves the feasibility minimum, then evaluates the norm
    sandwich constants for the resulting pair.  The Volterra coupling per
    unit drive is ``transform.coupling.values``, the resolvent of
    ``kernels.ktilde`` that :func:`transform_operator` solved, so
    ``||kappa(x, xi, .)||_y = ||drive(x, .)||_y * |coupling(x, xi)|``; the
    y-norms of ``k`` come from its coordinates (:func:`_kernel_y_norms`).
    """
    spec = coeff.spec
    wy = spec.y_weights
    m_linv = 1.0 / coeff.speed_u_min
    m_theta = float(np.sqrt(max(
        np.einsum("yh,yh,y,h->", exchange, exchange, wy, wy)
        for exchange in map(coeff.exchange_at, range(spec.nx + 1)))))
    drive_norm = np.sqrt((coeff.drive_grid ** 2) @ wy)
    m_drive = float(drive_norm.max())
    q_norm = float(np.sqrt((coeff.inflow_gain_grid ** 2) @ wy))

    k_norm = _kernel_y_norms(kernels)
    kap_norm = drive_norm[spec.tri.i_index] * np.abs(transform.coupling.values)
    k_mat = tri_to_matrix(spec, k_norm)
    kap_mat = tri_to_matrix(spec, kap_norm)
    composed = drive_norm[:, None] * k_mat + spec.hx * (kap_mat @ k_mat)
    m_composed = float(composed.max())

    delta_star = 1.0 + m_composed ** 2 + 2.0 * m_linv * m_theta + m_linv
    delta = 2.0 * delta_star

    kap_sq_cum = np.bincount(spec.tri.i_index,
                             weights=_running_weights(spec) * kap_norm ** 2,
                             minlength=spec.nx + 1)
    m_kappa = float(np.sqrt(kap_sq_cum.max()))

    p_bound = 1.0
    feasibility_denom = m_kappa ** 2 + delta * m_drive ** 2
    if feasibility_denom > 0.0:
        p_bound = min(p_bound, delta / feasibility_denom)
    if q_norm > 0 and delta < 700.0:
        p_bound = min(p_bound, math.exp(delta) / q_norm)
    p = 0.5 * p_bound

    lam_max = float(coeff.speed_u_grid.max())
    mu_max = float(coeff.speed_v_grid.max())
    exp_neg = math.exp(-delta) if delta < 745.0 else 0.0
    m_equiv = min(p * exp_neg / lam_max, 1.0 / mu_max)
    M_equiv = max(p / coeff.speed_u_min, 2.0 / coeff.speed_v_min)
    bounds = {
        "delta_star": delta_star,
        "composed_coupling": m_composed,
        "exchange": m_theta,
        "inverse_speed": m_linv,
        "drive": m_drive,
        "volterra_coupling": m_kappa,
        "inflow_gain_norm": q_norm,
    }
    return LyapunovRecipe(p=p, delta=delta, m_equiv=m_equiv, M_equiv=M_equiv,
                          bounds=bounds)


def _fit_decay(times: np.ndarray, norms: np.ndarray) -> float | None:
    """Least-squares slope of log(norm) over the late-time window [2, end]."""
    mask = (times >= 2.0 - 1e-9) & (norms > 0.0)
    if np.count_nonzero(mask) < 2:
        mask = norms > 0.0
    if np.count_nonzero(mask) < 2:
        return None
    return float(np.polyfit(times[mask], np.log(norms[mask]), 1)[0])


def _initial_state(spec: GridSpec, u0, v0) -> EnsembleState:
    if u0 is None and v0 is None:
        return default_initial_state(spec)
    u = (np.zeros((spec.nx + 1, spec.ny)) if u0 is None
         else np.array(u0, dtype=float))
    v = np.zeros(spec.nx + 1) if v0 is None else np.array(v0, dtype=float)
    _check_state_shapes(spec, u, v)
    # A field that is not finite spans no y-basis: the run diverges at once.
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise DivergenceError("initial state is not finite", t=0.0)
    return EnsembleState(u=u, v=v, t=0.0)


def _snapshot_steps(spec: GridSpec, snapshot_times, n_steps: int) -> set[int]:
    """The step indices nearest the requested times, clamped to the run."""
    return {int(np.clip(round(float(t) / spec.dt), 0, n_steps))
            for t in snapshot_times}


def _run(spec: GridSpec, step: CoordinateStep, state: EnsembleState,
         snapshot_times, advance, refresh=None,
         lyapunov=None) -> SimulationRecord:
    """Step from t = 0 to the grid's final time, recording every step.

    ``state`` carries the ensemble coordinates of ``step``.
    ``refresh(state)`` (optional) returns the state to record and the control
    value of the step; ``advance(state, control)`` returns the next state;
    ``lyapunov(state)`` (optional) fills the Lyapunov series.  Norms are
    recorded at every step, snapshots (full fields) at the steps nearest the
    requested times (once per step, however many times round to it), and
    ``decay_rate`` is fitted on the late-time window.
    """
    n_steps = int(round(spec.t_final / spec.dt))
    snap_steps = _snapshot_steps(spec, snapshot_times, n_steps)

    times = np.arange(n_steps + 1) * spec.dt
    joint = np.empty(n_steps + 1)
    u_norms = np.empty(n_steps + 1)
    v_norms = np.empty(n_steps + 1)
    control = np.zeros(n_steps + 1)
    lyap = None if lyapunov is None else np.empty(n_steps + 1)
    snapshots = []
    for n in range(n_steps + 1):
        if refresh is not None:
            state, control[n] = refresh(state)
        un = _ensemble_norm(spec, state.u)
        vn = scalar_norm(spec, state.v)
        u_norms[n] = un
        v_norms[n] = vn
        joint[n] = math.sqrt(un * un + vn * vn)
        if lyap is not None:
            lyap[n] = lyapunov(state)
        if n in snap_steps:
            snapshots.append((float(state.t), step.field(state)))
        if n < n_steps:
            state = advance(state, control[n])
    decay = _fit_decay(times, joint)
    return SimulationRecord(times=times, joint_norms=joint, u_norms=u_norms,
                            v_norms=v_norms, control=control, lyapunov=lyap,
                            snapshots=tuple(snapshots), decay_rate=decay,
                            y_ranks=step.y_ranks)


def simulate(coeff: SampledCoefficients, spec: GridSpec,
             kernels: KernelSolution | None = None, u0=None, v0=None,
             snapshot_times=()) -> SimulationRecord:
    """Run the plant from t = 0 to the grid's final time.

    Given ``kernels``, the loop is closed: the feedback value is computed
    from the state at the beginning of each step and applied as the outlet
    boundary value for that step; the closed-loop state carries the freshly
    computed value at its outlet node while the step runs, so the trajectory
    obeys ``v(t, 1) = U(t)`` at the step's own time instead of lagging the
    outlet one step behind the law.  Without kernels the loop is open and
    the outlet input is zero.  The run steps the coordinates of the
    :func:`coordinate_step` built from its initial field.  Norms and the
    control value are recorded at every step, snapshots at the steps
    nearest the requested times, and ``decay_rate`` is fitted on the
    late-time window.  ``coeff`` and ``kernels`` must be sampled and solved
    at ``spec``'s nx and ny (:class:`DimensionError` otherwise); ``spec``
    also sets the time step and the horizon.
    """
    _check_grid(spec, coeff, kernels)
    plant0 = _initial_state(spec, u0, v0)
    step = coordinate_step(coeff, spec.dt, plant0.u)
    refresh = None
    if kernels is not None:
        gain = _feedback_gain(kernels, step.weighted_basis)

        def refresh(state):
            return _refresh_outlet(state, spec, gain)

    def advance(state, control):
        return step_plant(state, step, control)

    return _run(spec, step, step.coordinates(plant0), snapshot_times, advance,
                refresh=refresh)


def simulate_target(coeff: SampledCoefficients, spec: GridSpec,
                    kernels: KernelSolution,
                    u0=None, v0=None, snapshot_times=()) -> SimulationRecord:
    """Run the transformed (cascade) system from the transformed initial state.

    The kernels are factored once, in the coordinates of the solver's y-basis
    (:func:`transform_operator`), the Lyapunov recipe is assembled from them
    and that operator's coupling (:func:`lyapunov_recipe`), the plant
    initial condition is mapped through the forward transform, and the run
    steps the coordinates of the :func:`coordinate_step` built from the
    transformed ensemble field.  The Lyapunov value with recipe parameters is
    recorded at every step alongside the norms.  The record's ``recipe``
    holds the recipe, its ``resolvent`` the coupling's series counts, and
    its ``y_ranks`` also the rank of the factored ensemble kernel.
    ``coeff`` and ``kernels`` must be sampled and solved at ``spec``'s nx
    and ny, as in :func:`simulate`.
    """
    _check_grid(spec, coeff, kernels)
    plant0 = _initial_state(spec, u0, v0)
    transform = transform_operator(kernels)
    recipe = lyapunov_recipe(coeff, kernels, transform)
    alpha0, beta0 = forward_transform(plant0, transform)
    step = coordinate_step(coeff, spec.dt, alpha0, transform)
    weights = _lyapunov_weights(coeff, recipe.p, recipe.delta)

    def advance(state, control):
        return step_target(state, step)

    def lyapunov(state):
        return _lyapunov(weights, state.u, step.speed_u, state.v)

    record = _run(spec, step, step.coordinates(EnsembleState(u=alpha0, v=beta0,
                                                             t=0.0)),
                  snapshot_times, advance, lyapunov=lyapunov)
    return replace(record, recipe=recipe, y_ranks={
        "k": transform.weighted_basis.shape[1], **record.y_ranks},
        resolvent={"n_terms_used": transform.coupling.n_terms_used,
                   "tail_bound": transform.coupling.tail_bound})
