"""Plant definitions for the controlled ensemble of transport PDEs.

A plant couples an ensemble field ``u(t, x, y)`` (one transport PDE per
ensemble parameter ``y``) with a single scalar field ``v(t, x)``:

* ``u`` moves rightward with speed ``speed_u(x, y) > 0`` and is driven by an
  intra-ensemble exchange integral with kernel ``exchange(x, y, eta)`` and by
  the scalar field through ``drive(x, y) * v``.
* ``v`` moves leftward with speed ``speed_v(x) > 0`` and is driven by the
  ensemble average ``integral readout(x, y) u(t, x, y) dy``.
* At ``x = 0`` the scalar field reflects into the ensemble inflow with gain
  ``inflow_gain(y)``; the ``x = 1`` boundary of ``v`` is the control input.

Evaluators must accept numpy-broadcastable arguments and be defined on all of
[0, 1] in each variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .grid import GridSpec, y_factor

__all__ = [
    "PlantModel",
    "SampledCoefficients",
    "sample_coefficients",
    "toy_model",
    "pure_transport_model",
    "toy_analytic_kernels",
    "builtin_model",
    "BUILTIN_MODEL_NAMES",
]


@dataclass(frozen=True)
class PlantModel:
    """Coefficient functions defining one ensemble plant.

    Parameters
    ----------
    name : str
    speed_u : callable (x, y) -> float
        Rightward transport speed of the ensemble field; strictly positive.
    speed_v : callable (x,) -> float
        Leftward transport speed of the scalar field; strictly positive.
    exchange : callable (x, y, eta) -> float
        Kernel of the intra-ensemble exchange integral (integrated over eta).
    drive : callable (x, y) -> float
        Coupling of the scalar field into the ensemble equation.
    readout : callable (x, y) -> float
        Weight with which the ensemble average drives the scalar equation.
    inflow_gain : callable (y,) -> float
        Reflection gain of ``v(t, 0)`` into the ensemble inflow ``u(t, 0, y)``.
    speed_u_dx : callable (x, y) -> float, optional
        Analytic x-derivative of ``speed_u``; finite differences are used
        when omitted.
    speed_v_dx : callable (x,) -> float, optional
        Analytic x-derivative of ``speed_v``; finite differences otherwise.
    """

    name: str
    speed_u: Callable
    speed_v: Callable
    exchange: Callable
    drive: Callable
    readout: Callable
    inflow_gain: Callable
    speed_u_dx: Optional[Callable] = None
    speed_v_dx: Optional[Callable] = None


@dataclass(frozen=True)
class SampledCoefficients:
    """A plant sampled on one grid, with positivity bounds.

    Grid layouts: ``speed_u_grid``, ``drive_grid``, ``readout_grid`` are
    ``(nx+1, ny)``; ``exchange_grid[i, a, b]`` is the kernel at
    ``(x_i, y_a, eta_b)``; ``speed_v_grid`` is ``(nx+1,)``;
    ``inflow_gain_grid`` is ``(ny,)``.
    """

    model: PlantModel
    spec: GridSpec
    speed_u_grid: np.ndarray
    speed_v_grid: np.ndarray
    exchange_grid: np.ndarray
    drive_grid: np.ndarray
    readout_grid: np.ndarray
    inflow_gain_grid: np.ndarray
    speed_u_dx_grid: np.ndarray
    speed_v_dx_grid: np.ndarray
    speed_u_min: float
    speed_v_min: float

    @property
    def crossing_speed_min(self) -> float:
        """Lower bound for the sum of the two speeds (> 0)."""
        return self.speed_u_min + self.speed_v_min

    @cached_property
    def max_speed(self) -> float:
        """Largest transport speed on the grid (CFL constant)."""
        return float(max(self.speed_u_grid.max(), self.speed_v_grid.max()))

    @cached_property
    def exchange_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """The exchange kernel factored in eta, built on first use.

        Returns ``(loadings, weighted_basis)`` with ``exchange_grid[i, a] ~=
        basis @ loadings[i, a]`` (:func:`~ensemble_backstep.grid.y_factor`
        of the ``((nx+1) ny, ny)`` matrix) and ``weighted_basis`` the
        ``(ny, r)`` basis times the y-quadrature weights, so the exchange
        integral of a field ``u`` at node ``(x_i, y_a)`` is ``loadings[i, a]
        @ (u @ weighted_basis)[i]``.
        """
        n, ny = self.spec.nx + 1, self.spec.ny
        loadings, basis = y_factor(self.exchange_grid.reshape(n * ny, ny))
        rank = basis.shape[1]
        return (loadings.reshape(n, ny, rank),
                basis * self.spec.y_weights[:, None])


def _on_grid(values, shape: tuple[int, ...]) -> np.ndarray:
    """A coefficient's sampled values as an owned float array of ``shape``
    (a model may return a scalar or a lower-dimensional broadcastable)."""
    return np.broadcast_to(np.asarray(values, dtype=float), shape).copy()


def sample_coefficients(model: PlantModel, spec: GridSpec) -> SampledCoefficients:
    """Sample a plant's coefficients on a grid, checking speed positivity."""
    x = spec.x_nodes
    y = spec.y_nodes
    xc, yr = x[:, None], y[None, :]
    shape_x = (spec.nx + 1,)
    shape_xy = (spec.nx + 1, spec.ny)

    speed_u_grid = _on_grid(model.speed_u(xc, yr), shape_xy)
    speed_v_grid = _on_grid(model.speed_v(x), shape_x)
    exchange_grid = _on_grid(
        model.exchange(x[:, None, None], y[None, :, None], y[None, None, :]),
        (spec.nx + 1, spec.ny, spec.ny))
    drive_grid = _on_grid(model.drive(xc, yr), shape_xy)
    readout_grid = _on_grid(model.readout(xc, yr), shape_xy)
    inflow_gain_grid = _on_grid(model.inflow_gain(y), (spec.ny,))

    if model.speed_u_dx is not None:
        speed_u_dx_grid = _on_grid(model.speed_u_dx(xc, yr), shape_xy)
    else:
        speed_u_dx_grid = np.gradient(speed_u_grid, spec.hx, axis=0)
    if model.speed_v_dx is not None:
        speed_v_dx_grid = _on_grid(model.speed_v_dx(x), shape_x)
    else:
        speed_v_dx_grid = np.gradient(speed_v_grid, spec.hx)

    if not np.all(speed_u_grid > 0.0):
        raise ConfigurationError(
            f"model {model.name!r}: ensemble transport speed must be strictly "
            f"positive on the grid (min {speed_u_grid.min()})"
        )
    if not np.all(speed_v_grid > 0.0):
        raise ConfigurationError(
            f"model {model.name!r}: scalar transport speed must be strictly "
            f"positive on the grid (min {speed_v_grid.min()})"
        )

    return SampledCoefficients(
        model=model,
        spec=spec,
        speed_u_grid=speed_u_grid,
        speed_v_grid=speed_v_grid,
        exchange_grid=exchange_grid,
        drive_grid=drive_grid,
        readout_grid=readout_grid,
        inflow_gain_grid=inflow_gain_grid,
        speed_u_dx_grid=speed_u_dx_grid,
        speed_v_dx_grid=speed_v_dx_grid,
        speed_u_min=float(speed_u_grid.min()),
        speed_v_min=float(speed_v_grid.min()),
    )


def toy_model() -> PlantModel:
    """The separable benchmark plant with closed-form feedback kernels.

    Unit speeds; the exchange kernel and scalar drive write odd-about-1/2
    ensemble modes; the readout weighs the even mode ``y(y-1)``; the inflow
    reflection is ``cos(2 pi y)``.  The kernels of the stabilizing transform
    are known in closed form (:func:`toy_analytic_kernels`), which makes this
    model the package's accuracy oracle.
    """
    two_c = 35.0 / np.pi**2

    def speed_u(x, y):
        return np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)))

    def speed_v(x):
        return np.ones(np.shape(x))

    def exchange(x, y, eta):
        return x**3 * (x + 1.0) * (y - 0.5) * (eta - 0.5)

    def drive(x, y):
        return x * (x + 1.0) * (y - 0.5) * np.exp(x)

    def readout(x, y):
        return -70.0 * np.exp(two_c * x) * y * (y - 1.0)

    def inflow_gain(y):
        return np.cos(2.0 * np.pi * np.asarray(y, dtype=float))

    def speed_u_dx(x, y):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))

    def speed_v_dx(x):
        return np.zeros(np.shape(x))

    return PlantModel(
        name="toy",
        speed_u=speed_u,
        speed_v=speed_v,
        exchange=exchange,
        drive=drive,
        readout=readout,
        inflow_gain=inflow_gain,
        speed_u_dx=speed_u_dx,
        speed_v_dx=speed_v_dx,
    )


def pure_transport_model() -> PlantModel:
    """Unit-speed transport with no coupling at all (conservation tests)."""

    def one_xy(x, y):
        return np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)))

    def one_x(x):
        return np.ones(np.shape(x))

    def zero_xy(x, y):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))

    def zero_x3(x, y, eta):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(eta)))

    def zero_y(y):
        return np.zeros(np.shape(y))

    return PlantModel(
        name="pure-transport",
        speed_u=one_xy,
        speed_v=one_x,
        exchange=zero_x3,
        drive=zero_xy,
        readout=zero_xy,
        inflow_gain=zero_y,
        speed_u_dx=zero_xy,
        speed_v_dx=lambda x: np.zeros(np.shape(x)),
    )


BUILTIN_MODEL_NAMES = ("toy", "pure-transport")


def builtin_model(name: str) -> PlantModel:
    """Look up a built-in plant by name."""
    if name == "toy":
        return toy_model()
    if name == "pure-transport":
        return pure_transport_model()
    raise ConfigurationError(
        f"unknown model {name!r}; built-ins: {', '.join(BUILTIN_MODEL_NAMES)}"
    )


def toy_analytic_kernels():
    """Closed-form transform kernels of the toy plant.

    Returns
    -------
    k : callable (x, xi, y) -> float
        Ensemble-weighting kernel ``35 y(y-1) exp(35 xi / pi^2)``.
    ktilde : callable (x, xi) -> float
        Scalar-weighting kernel, the constant ``35 / (2 pi^2)``.
    """
    two_c = 35.0 / np.pi**2
    c = two_c / 2.0

    def k(x, xi, y):
        x = np.asarray(x, dtype=float)
        return 35.0 * y * (np.asarray(y) - 1.0) * np.exp(two_c * np.asarray(xi)) + 0.0 * x

    def ktilde(x, xi):
        return c + 0.0 * (np.asarray(x, dtype=float) + np.asarray(xi, dtype=float))

    return k, ktilde
