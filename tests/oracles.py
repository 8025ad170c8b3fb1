"""Second routes to quantities the package computes one way.

The tests compare the package against these:

* closed-form kernels sampled into a :class:`KernelSolution`;
* the coupling kernel of the target system by direct successive
  approximation of its full equation (Picard), with the equation's residual,
  against the package's drive-times-resolvent route;
* full-field formulas for the ensemble norm, the feedback value and the
  Lyapunov value, which the package evaluates on the coordinates of a
  y-basis;
* the exchange kernel sampled on the whole grid at once, which the package
  samples a slab of x-nodes at a time where it reads it.

Only public names of the package are used here, so the two routes share no
private code.
"""

import numpy as np

from ensemble_backstep.errors import DimensionError, NonconvergenceError
from ensemble_backstep.kernelsolve import KernelSolution
from ensemble_backstep.volterra import compose, matrix_to_tri, tri_to_matrix


def kernel_solution_from_evaluators(spec, ensemble_kernel, scalar_kernel):
    """Sample closed-form kernel evaluators into a KernelSolution.

    ``ensemble_kernel(x, xi, y)`` and ``scalar_kernel(x, xi)`` must broadcast
    over arrays.  The solution holds ``k`` on every y-node (the identity
    basis), so ``KernelSolution.k`` is the sampled array bit for bit.
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


def exchange_grid(coeff):
    """The exchange kernel of ``coeff`` on every x-node at once, ``(nx+1,
    ny, ny)``, by one broadcasting call on the whole grid."""
    spec = coeff.spec
    x, y = spec.x_nodes, spec.y_nodes
    values = coeff.model.exchange(x[:, None, None], y[None, :, None],
                                  y[None, None, :])
    return np.broadcast_to(np.asarray(values, dtype=float),
                           (spec.nx + 1, spec.ny, spec.ny))


def batch_to_tri(spec, mats):
    """``(ny, N, N)`` lower-triangular matrices to ``(n_tri, ny)`` storage,
    one matrix at a time."""
    return np.stack([matrix_to_tri(spec, mat) for mat in mats], axis=1)


def _coupling_source(spec, drive_grid, ktilde):
    """Zeroth iterate drive(x, y) * ktilde(x, xi) as a (ny, N, N) batch."""
    drive_grid = np.asarray(drive_grid, dtype=float)
    if drive_grid.shape[0] != spec.nx + 1:
        raise DimensionError(
            f"drive grid must have {spec.nx + 1} x-rows, got {drive_grid.shape[0]}")
    kernel = tri_to_matrix(spec, np.asarray(ktilde, dtype=float))
    return drive_grid.T[:, :, None] * kernel[None, :, :]


def solve_target_coupling_picard(spec, drive_grid, ktilde, tol=1e-12,
                                 max_iter=200):
    """Solve ``kappa = drive ktilde + integral_xi^x kappa(x, s, y)
    ktilde(s, xi) ds`` by direct iteration.

    Starts from zero and applies the fixed-point map, drive included, to an
    ``(ny, N, N)`` batch until the sup-norm increment drops to ``tol``, and
    returns ``kappa`` of shape ``(n_tri, ny)``.
    """
    kernel = tri_to_matrix(spec, np.asarray(ktilde, dtype=float))
    source = _coupling_source(spec, drive_grid, ktilde)
    kappa = np.zeros_like(source)
    for _ in range(max_iter):
        new = source + compose(spec.hx, kernel, kappa)
        delta = float(np.max(np.abs(new - kappa)))
        kappa = new
        if delta <= tol:
            return batch_to_tri(spec, kappa)
    raise NonconvergenceError(
        f"direct coupling iteration not below tol={tol} after {max_iter} sweeps",
        final_delta=delta,
    )


def target_coupling_residual(spec, kappa, drive_grid, ktilde):
    """Sup-norm residual of a coupling kernel in its defining equation.

    Evaluates ``kappa - kappa0 - integral_xi^x ktilde(s, xi) kappa(x, s) ds``
    with the package's composition quadrature, so a correct solution scores
    at roundoff level.
    """
    kernel = tri_to_matrix(spec, np.asarray(ktilde, dtype=float))
    source = _coupling_source(spec, drive_grid, ktilde)
    kap_mat = tri_to_matrix(spec, np.asarray(kappa, dtype=float))
    resid = kap_mat - source - compose(spec.hx, kernel, kap_mat)
    return float(np.max(np.abs(batch_to_tri(spec, resid))))


def ensemble_norm(spec, u):
    """L2 norm of an ensemble field over (x, y); ``inf`` without warning
    when its squares overflow."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(spec.x_weights @ ((u * u) @ spec.y_weights)))


def control_value(state, kernels):
    """The feedback value: the kernels' outlet rows integrated against the
    state's full fields."""
    spec = kernels.spec
    outlet = spec.tri.row_slice(spec.nx)
    return float(spec.x_weights @ (
        (kernels.k_rows(outlet) * state.u) @ spec.y_weights
        + kernels.ktilde[outlet] * state.v))


def lyapunov_value(alpha, beta, coeff, p, delta):
    """``p * integral of exp(-delta x) <alpha, alpha / speed_u>_y`` plus the
    integral of ``(1 + x) / speed_v * beta**2``, on full fields."""
    spec = coeff.spec
    x = spec.x_nodes
    ensemble = ((alpha * alpha) / coeff.speed_u_grid) @ spec.y_weights
    scalar = (1.0 + x) / coeff.speed_v_grid * beta * beta
    return float(spec.x_weights @ (p * np.exp(-delta * x) * ensemble + scalar))
