"""Explicit time-domain simulation of the plant and its stabilized forms.

The plant couples an ensemble field ``u(t, x, y)`` transported rightward with
a scalar field ``v(t, x)`` transported leftward, with interior exchange,
drive, and readout couplings and boundary conditions ``u(t, 0, y) =
inflow_gain(y) * v(t, 0)`` and ``v(t, 1)`` set by the control input.

This module provides:

* one first-order explicit upwind step that serves the plant and the
  transformed (cascade) system, applying kernels factored in y with the
  quadrature weights folded in, built once per run;
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
from .grid import GridSpec, gregory_weights, y_factor
from .kernelsolve import KernelSolution
# ``sample_coefficients`` is unused here but must stay bound: bench/tracing.py
# wraps it in this module.
from .model import SampledCoefficients, sample_coefficients  # noqa: F401
from .volterra import solve_target_coupling, tri_to_matrix

__all__ = [
    "EnsembleState",
    "SimulationRecord",
    "LyapunovRecipe",
    "TransformOperator",
    "transform_operator",
    "default_initial_state",
    "cfl_condition",
    "check_cfl",
    "ensemble_norm",
    "scalar_norm",
    "step_plant",
    "control_value",
    "simulate",
    "simulate_target",
    "forward_transform",
    "inverse_transform",
    "step_target",
    "lyapunov_value",
    "lyapunov_recipe",
]


@dataclass(frozen=True)
class EnsembleState:
    """Joint state at one instant: ensemble field, scalar field, time.

    In transformed-system simulations the same container carries the
    transformed pair (ensemble component in ``u``, scalar component in ``v``).
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
    (transformed-system runs only) holds the y-ranks of the factored
    kernels the cascade step applied.
    """

    times: np.ndarray
    joint_norms: np.ndarray
    u_norms: np.ndarray
    v_norms: np.ndarray
    control: np.ndarray
    lyapunov: np.ndarray | None
    snapshots: tuple[tuple[float, EnsembleState], ...]
    decay_rate: float | None
    y_ranks: dict[str, int] | None = None


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
    kernel is factored in y: ``kernel[(i, j), :] ~= basis @ P[(i, j)]`` is
    the :func:`~ensemble_backstep.grid.y_factor` of the flat kernel,
    ``rows[i, s, j]`` is ``P[(i, j), s]`` times the running-integral weight
    of node ``(i, j)``, zero above the diagonal, and ``weighted_basis`` is
    ``basis`` times the y-quadrature weights.  ``scalar`` is the scalar
    kernel and ``resolvent`` its resolvent ``L``, both as lower-triangular
    matrices with the running-integral weights folded in; ``L`` undoes the
    transform as ``v = (I + L)(beta + J)``, with ``J`` the running integral
    of the ensemble kernel against the ensemble field.  An application
    costs O(N^2 r + N ny r) for ``N = nx + 1`` x-nodes and y-rank r.
    """

    spec: GridSpec
    rows: np.ndarray
    weighted_basis: np.ndarray
    scalar: np.ndarray
    resolvent: np.ndarray

    def integrate(self, field: np.ndarray) -> np.ndarray:
        """``J``: ``int_0^x int kernel(x, xi, y) field(xi, y) dy dxi`` at
        every x-node."""
        n, r = self.rows.shape[0], self.weighted_basis.shape[1]
        return self.rows.reshape(n, r * n) @ (field @ self.weighted_basis).T.ravel()

    def __call__(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        _check_state_shapes(self.spec, u, v)
        return self.integrate(u) + self.scalar @ v


def transform_operator(spec: GridSpec, kernel: np.ndarray,
                       scalar_kernel: np.ndarray) -> TransformOperator:
    """Build the operator of the transform with the flat triangle kernels
    ``(k, ktilde)`` of a :class:`KernelSolution`, and of its inverse."""
    weights = _running_weights(spec)
    loadings, basis = y_factor(np.asarray(kernel, dtype=float))
    rows = tri_to_matrix(spec, weights[:, None] * loadings)
    resolvent = solve_target_coupling(spec, scalar_kernel)
    return TransformOperator(
        spec=spec, rows=np.ascontiguousarray(rows.transpose(1, 0, 2)),
        weighted_basis=basis * spec.y_weights[:, None],
        scalar=tri_to_matrix(spec, weights * scalar_kernel),
        resolvent=tri_to_matrix(spec, weights * resolvent))


def _scalar_field(transform: TransformOperator, alpha: np.ndarray,
                  beta: np.ndarray) -> np.ndarray:
    """The plant's scalar field ``(I + L)(beta + J)`` of cascade variables."""
    bj = beta + transform.integrate(alpha)
    return bj + transform.resolvent @ bj


def ensemble_norm(spec: GridSpec, u: np.ndarray) -> float:
    """L2 norm of an ensemble field over (x, y).

    Returns ``inf`` without warning when the field has overflowed; divergence
    detection is the caller's job.
    """
    with np.errstate(over="ignore"):
        return float(np.sqrt(spec.x_weights @ ((u * u) @ spec.y_weights)))


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


def _check_coeff_grid(coeff: SampledCoefficients, spec: GridSpec) -> None:
    if (coeff.spec.nx, coeff.spec.ny) != (spec.nx, spec.ny):
        raise DimensionError(
            f"coefficients sampled at nx={coeff.spec.nx}, ny={coeff.spec.ny} "
            f"do not match the run's grid nx={spec.nx}, ny={spec.ny}")


def _check_state_shapes(spec: GridSpec, u: np.ndarray, v: np.ndarray) -> None:
    if u.shape != (spec.nx + 1, spec.ny):
        raise DimensionError(
            f"ensemble field shape {u.shape} does not match grid "
            f"({spec.nx + 1}, {spec.ny})")
    if v.shape != (spec.nx + 1,):
        raise DimensionError(
            f"scalar field shape {v.shape} does not match grid ({spec.nx + 1},)")


def _exchange(coeff: SampledCoefficients, u: np.ndarray) -> np.ndarray:
    """The exchange integral of an ensemble field at every (x, y) node."""
    loadings, weighted_basis = coeff.exchange_factor
    return np.einsum("xys,xs->xy", loadings, u @ weighted_basis)


def _upwind_step(state: EnsembleState, coeff: SampledCoefficients,
                 dt: float, boundary_v1: float,
                 transform: TransformOperator | None = None) -> EnsembleState:
    """One explicit upwind / forward-Euler step of the plant or the cascade.

    The ensemble field moves rightward (backward difference), the scalar
    field leftward (forward difference).  Interior sources use the current
    state; afterwards the outlet value of the scalar field is set to
    ``boundary_v1`` and the ensemble inflow to ``inflow_gain * v(0)``.
    Without ``transform`` this is the plant: the drive acts on the scalar
    field and the readout forces it.  With the :func:`transform_operator` of
    the solved kernels it is the cascade: the drive acts on the plant's
    scalar field ``(I + L)(beta + J)`` and the scalar component is pure
    transport.
    """
    spec = coeff.spec
    check_cfl(coeff, dt)
    u = state.u
    v = state.v
    h = spec.hx
    with np.errstate(over="ignore", invalid="ignore"):
        driven = v if transform is None else _scalar_field(transform, u, v)
        source_u = _exchange(coeff, u) + coeff.drive_grid * driven[:, None]
        u_new = u.copy()
        u_new[1:] += dt * (-coeff.speed_u_grid[1:] * (u[1:] - u[:-1]) / h
                           + source_u[1:])
        rate_v = coeff.speed_v_grid[:-1] * (v[1:] - v[:-1]) / h
        if transform is None:
            rate_v += ((coeff.readout_grid * u) @ spec.y_weights)[:-1]
        v_new = v.copy()
        v_new[:-1] += dt * rate_v
    v_new[-1] = boundary_v1
    u_new[0] = coeff.inflow_gain_grid * v_new[0]
    new_t = state.t + dt
    if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
        raise DivergenceError(f"state stopped being finite at t = {new_t:.6g}",
                              t=state.t)
    return EnsembleState(u=u_new, v=v_new, t=new_t)


def step_plant(state: EnsembleState, coeff: SampledCoefficients,
               boundary_v1: float, dt: float) -> EnsembleState:
    """One explicit upwind / forward-Euler step of the plant, with the
    scalar outlet set to ``boundary_v1``."""
    return _upwind_step(state, coeff, dt, boundary_v1)


def control_value(state: EnsembleState, kernels: KernelSolution) -> float:
    """Scalar feedback: the kernel outlet row integrated against the state."""
    spec = kernels.spec
    outlet = spec.tri.row_slice(spec.nx)
    inner = ((kernels.k[outlet] * state.u) @ spec.y_weights
             + kernels.ktilde[outlet] * state.v)
    return float(spec.x_weights @ inner)


def _refresh_outlet(state: EnsembleState,
                    kernels: KernelSolution) -> tuple[EnsembleState, float]:
    """Impose the feedback law at the state's own time.

    Computes the feedback value from the state and writes it into the scalar
    outlet node, so the closed-loop state carries ``v(1) = U(t)`` at the same
    time ``t`` (as the feedback law prescribes) rather than the value applied
    one step earlier.  Returns the updated state and the feedback value.
    """
    boundary = control_value(state, kernels)
    v_new = state.v.copy()
    v_new[-1] = boundary
    return EnsembleState(u=state.u, v=v_new, t=state.t), boundary


def forward_transform(state: EnsembleState,
                      transform: TransformOperator) -> tuple[np.ndarray, np.ndarray]:
    """Map the plant state onto the cascade variables.

    ``transform`` is :func:`transform_operator` of the solved ``(k,
    ktilde)``.  The ensemble component is returned unchanged; the scalar
    component is ``v`` minus the running x-integral of the kernels against
    the state, so its value at x = 0 always equals ``v(0)``.
    """
    beta = state.v - transform(state.u, state.v)
    return state.u.copy(), beta


def inverse_transform(inverse: TransformOperator, alpha: np.ndarray,
                      beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map cascade variables back to the plant state.

    ``inverse`` is :func:`transform_operator` of the solved ``(k, ktilde)``,
    the same operator :func:`forward_transform` applies; the scalar field
    is ``(I + L)(beta + J)`` with ``L`` the resolvent of ``ktilde``.
    """
    _check_state_shapes(inverse.spec, alpha, beta)
    return alpha.copy(), _scalar_field(inverse, alpha, beta)


def step_target(state: EnsembleState, coeff: SampledCoefficients,
                transform: TransformOperator, dt: float) -> EnsembleState:
    """One explicit step of the transformed (cascade) system.

    The scalar component is pure leftward transport with zero inflow at the
    outlet; the ensemble component keeps the exchange and drive terms and
    gains two Volterra couplings, evaluated through the running integral
    ``J(x)`` of the ensemble kernel against the ensemble field: with the
    drive term, the composed coupling contributes ``drive * (beta + J)``
    plus the x-integral of ``kappa * (beta + J)``, which reproduces both
    Volterra terms after swapping the order of integration.  As ``kappa =
    drive * L``, the whole source is ``drive * (I + L)(beta + J)``, the
    drive acting on the plant's scalar field.  ``transform`` is
    :func:`transform_operator` of the solved kernels; the exchange factor is
    ``coeff.exchange_factor``.
    """
    return _upwind_step(state, coeff, dt, 0.0, transform)


def lyapunov_value(alpha: np.ndarray, beta: np.ndarray,
                   coeff: SampledCoefficients, p: float, delta: float) -> float:
    """Weighted energy of the cascade variables.

    ``p * integral of exp(-delta x) <alpha, alpha/speed_u>`` plus the
    integral of ``(1 + x)/speed_v * beta**2``.
    """
    if p <= 0 or delta <= 0:
        raise ConfigurationError("lyapunov_value requires p > 0 and delta > 0")
    spec = coeff.spec
    decay = np.exp(-delta * spec.x_nodes)
    ens = ((alpha * alpha) / coeff.speed_u_grid) @ spec.y_weights
    val = p * (spec.x_weights @ (decay * ens))
    val += spec.x_weights @ ((1.0 + spec.x_nodes) / coeff.speed_v_grid
                             * beta * beta)
    return float(val)


def lyapunov_recipe(coeff: SampledCoefficients, kernels: KernelSolution,
                    coupling: np.ndarray) -> LyapunovRecipe:
    """Choose Lyapunov parameters from measured coefficient bounds.

    The decay weight must exceed a threshold built from the composed-coupling
    bound, the exchange bound, and the inverse-speed bound; the ensemble
    weight ``p`` must stay below a feasibility minimum built from the inflow
    gain, the Volterra coupling, and the drive.  This routine doubles the
    threshold and halves the feasibility minimum, then evaluates the norm
    sandwich constants for the resulting pair.  ``coupling`` is the
    Volterra coupling per unit drive (:func:`~ensemble_backstep.volterra.
    solve_target_coupling`), so ``||kappa(x, xi, .)||_y = ||drive(x, .)||_y
    * |coupling(x, xi)|``.
    """
    spec = coeff.spec
    wy = spec.y_weights
    m_linv = 1.0 / coeff.speed_u_min
    m_theta = float(np.sqrt(
        np.einsum("xyh,y,h->x", coeff.exchange_grid ** 2, wy, wy).max()))
    drive_norm = np.sqrt((coeff.drive_grid ** 2) @ wy)
    m_drive = float(drive_norm.max())
    q_norm = float(np.sqrt((coeff.inflow_gain_grid ** 2) @ wy))

    k_norm = np.sqrt((kernels.k ** 2) @ wy)
    kap_norm = drive_norm[spec.tri.i_index] * np.abs(coupling)
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
    return EnsembleState(u=u, v=v, t=0.0)


def _snapshot_steps(spec: GridSpec, snapshot_times, n_steps: int) -> dict:
    table: dict[int, list[float]] = {}
    for t_req in snapshot_times:
        idx = int(np.clip(round(float(t_req) / spec.dt), 0, n_steps))
        table.setdefault(idx, []).append(float(t_req))
    return table


def _run(spec: GridSpec, state: EnsembleState, snapshot_times, advance,
         refresh=None, lyapunov=None) -> SimulationRecord:
    """Step from t = 0 to the grid's final time, recording every step.

    ``refresh(state)`` (optional) returns the state to record and the control
    value of the step; ``advance(state, control)`` returns the next state;
    ``lyapunov(state)`` (optional) fills the Lyapunov series.  Norms are
    recorded at every step, snapshots at the steps nearest the requested
    times, and ``decay_rate`` is fitted on the late-time window.
    """
    n_steps = int(round(spec.t_final / spec.dt))
    snap_table = _snapshot_steps(spec, snapshot_times, n_steps)

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
        un = ensemble_norm(spec, state.u)
        vn = scalar_norm(spec, state.v)
        u_norms[n] = un
        v_norms[n] = vn
        joint[n] = math.sqrt(un * un + vn * vn)
        if lyap is not None:
            lyap[n] = lyapunov(state)
        if n in snap_table:
            for _ in snap_table[n]:
                snapshots.append((float(state.t), state))
        if n < n_steps:
            state = advance(state, control[n])
    decay = _fit_decay(times, joint)
    return SimulationRecord(times=times, joint_norms=joint, u_norms=u_norms,
                            v_norms=v_norms, control=control, lyapunov=lyap,
                            snapshots=tuple(snapshots), decay_rate=decay)


def simulate(coeff: SampledCoefficients, spec: GridSpec,
             kernels: KernelSolution | None = None,
             mode: str = "open", u0=None, v0=None,
             snapshot_times=()) -> SimulationRecord:
    """Run the plant from t = 0 to the grid's final time.

    In ``closed`` mode (``kernels`` must be supplied) the feedback value is
    computed from the state at the beginning of each step and applied as the
    outlet boundary value for that step; the closed-loop state carries the
    freshly computed value at its outlet node while the step runs, so the
    trajectory obeys ``v(t, 1) = U(t)`` at the step's own time instead of
    lagging the outlet one step behind the law.  In ``open`` mode the outlet
    input is zero.  Norms and the control value are recorded at every step,
    snapshots at the steps nearest the requested times, and ``decay_rate`` is
    fitted on the late-time window.  ``coeff`` must be sampled at ``spec``'s
    nx and ny (:class:`DimensionError` otherwise); ``spec`` also sets the
    time step and the horizon.
    """
    if mode not in ("open", "closed"):
        raise ConfigurationError(f"unknown simulation mode: {mode!r}")
    if mode == "closed" and kernels is None:
        raise ConfigurationError("closed-loop simulation requires kernels")
    _check_coeff_grid(coeff, spec)
    refresh = ((lambda state: _refresh_outlet(state, kernels))
               if mode == "closed" else None)

    def advance(state, control):
        return step_plant(state, coeff, control, spec.dt)

    return _run(spec, _initial_state(spec, u0, v0), snapshot_times, advance,
                refresh=refresh)


def simulate_target(coeff: SampledCoefficients, spec: GridSpec,
                    kernels: KernelSolution,
                    u0=None, v0=None, snapshot_times=(),
                    recipe: LyapunovRecipe | None = None) -> SimulationRecord:
    """Run the transformed (cascade) system from the transformed initial state.

    The Lyapunov recipe is assembled if not supplied, the kernels are
    factored once (:func:`transform_operator`), the plant initial condition
    is mapped through the forward transform, and the Lyapunov value with
    recipe parameters is recorded at every step alongside the norms.  The
    record's ``y_ranks`` holds the ranks of the factored kernels.  ``coeff``
    must be sampled at ``spec``'s nx and ny, as in :func:`simulate`.
    """
    _check_coeff_grid(coeff, spec)
    plant0 = _initial_state(spec, u0, v0)
    if recipe is None:
        recipe = lyapunov_recipe(coeff, kernels,
                                 solve_target_coupling(spec, kernels.ktilde))
    transform = transform_operator(spec, kernels.k, kernels.ktilde)
    alpha0, beta0 = forward_transform(plant0, transform)

    def advance(state, control):
        return step_target(state, coeff, transform, spec.dt)

    def lyapunov(state):
        return lyapunov_value(state.u, state.v, coeff, recipe.p, recipe.delta)

    record = _run(spec, EnsembleState(u=alpha0, v=beta0, t=0.0),
                  snapshot_times, advance, lyapunov=lyapunov)
    return replace(record, y_ranks={
        "k": transform.weighted_basis.shape[1],
        "exchange": coeff.exchange_factor[1].shape[1]})
