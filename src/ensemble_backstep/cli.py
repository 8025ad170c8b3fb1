"""Command-line front end: kernel solves, simulations, verification.

Three subcommands share one configuration model (defaults, optional flat
``key = value`` config file, command-line overrides):

* ``kernels`` solves the transform kernels and writes ``kernels.csv`` plus a
  ``kernels.json`` summary;
* ``simulate`` runs the plant open- or closed-loop, or the transformed
  cascade system, and writes ``timeseries.csv``, optional per-snapshot CSV
  files, and ``summary.json``;
* ``verify`` solves the kernels and runs a self-contained invariant suite
  (CFL, characteristic identities, Volterra oracle, closed-form kernel
  oracle for the toy model, kernel boundary and equation residuals,
  transform round trip, Lyapunov monotonicity) and writes ``verify.json``.

Exit codes: 0 success, 2 invalid configuration, 3 kernel nonconvergence,
4 simulation divergence, 5 verification failure.

All numeric output is deterministic for a fixed configuration and seed: the
numerical core is vectorized but single-threaded (BLAS thread pools are
pinned when the package is imported), floats are emitted with 17
significant digits, and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .characteristics import trace_crossing_batch, trace_edge_batch
from .csvtable import write_table
from .errors import (ConfigurationError, DivergenceError, EnsembleBackstepError,
                     NonconvergenceError)
from .grid import GridSpec
from .kernelsolve import (KernelSolution, kernel_pde_residual,
                          solve_backstepping_kernels)
from .model import (BUILTIN_MODEL_NAMES, builtin_model, sample_coefficients,
                    toy_analytic_kernels)
from .simulator import (cfl_condition, check_cfl, default_initial_state,
                        inverse_transform, forward_transform, scalar_norm,
                        simulate, simulate_target, transform_operator,
                        EnsembleState)
# ``lyapunov_recipe`` and ``solve_target_coupling`` are unused here but must
# stay bound: bench/tracing.py wraps them in this module.
from .simulator import lyapunov_recipe  # noqa: F401
from .volterra import resolvent, solve_target_coupling  # noqa: F401

__all__ = ["RunConfig", "main", "cmd_kernels", "cmd_simulate", "cmd_verify"]


@dataclass(frozen=True)
class RunConfig:
    """One run's complete configuration (defaults reproduce the benchmark)."""

    model_name: str = "toy"
    nx: int = 200
    ny: int = 120
    dt: float = 0.004
    t_final: float = 5.0
    mode: str = "closed"
    kernel_tol: float = 1e-10
    snapshot_times: tuple[float, ...] = ()
    output_dir: str = "."
    initial_condition: str = "default"
    ic_amplitude: float = 1.0
    ic_center: float = 0.3
    ic_width: float = 0.1
    seed: int = 0


def _parse_snapshot_times(text: str) -> tuple[float, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    try:
        return tuple(float(part) for part in items)
    except ValueError as exc:
        raise ConfigurationError(f"bad snapshot time list {text!r}") from exc


#: Every config key, with the function that reads its value from text.
_COERCERS = {f.name: (_parse_snapshot_times if f.name == "snapshot_times"
                      else type(f.default)) for f in fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` config file (``#`` starts a comment)."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _COERCERS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _COERCERS[key](value)
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(
                f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def _validate_config(config: RunConfig) -> RunConfig:
    if config.model_name not in BUILTIN_MODEL_NAMES:
        raise ConfigurationError(
            f"unknown model {config.model_name!r}; built-ins: "
            f"{', '.join(BUILTIN_MODEL_NAMES)}")
    if config.nx < 2 or config.ny < 2:
        raise ConfigurationError("nx and ny must both be at least 2")
    for name in ("dt", "t_final", "kernel_tol", "ic_amplitude", "ic_center",
                 "ic_width", "snapshot_times"):
        value = getattr(config, name)
        if not np.all(np.isfinite(value)):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")
    if config.dt <= 0 or config.t_final <= 0:
        raise ConfigurationError("dt and t_final must be positive")
    if any(t < 0 for t in config.snapshot_times):
        raise ConfigurationError(
            f"snapshot times must be non-negative, got {config.snapshot_times}")
    if config.kernel_tol <= 0:
        raise ConfigurationError("kernel_tol must be positive")
    if config.ic_width <= 0:
        raise ConfigurationError("ic_width must be positive")
    if config.seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {config.seed}")
    if config.mode not in ("open", "closed", "target"):
        raise ConfigurationError(
            f"unknown mode {config.mode!r} (open, closed, target)")
    if config.initial_condition not in ("default", "zero", "gaussian"):
        raise ConfigurationError(
            f"unknown initial condition {config.initial_condition!r} "
            "(default, zero, gaussian)")
    return config


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and CLI overrides."""
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for name, coerce in _COERCERS.items():
        override = getattr(args, name, None)
        if override is not None:
            values[name] = coerce(override)
    return _validate_config(RunConfig(**values))


def _grid_from_config(config: RunConfig) -> GridSpec:
    return GridSpec(nx=config.nx, ny=config.ny, dt=config.dt,
                    t_final=config.t_final)


def _write_kernels_csv(path: str, sol: KernelSolution) -> None:
    """``kernels.csv``: one line per triangle node (x, xi) and y-node."""
    tri = sol.spec.tri
    write_table(path, "x,xi,y,k,ktilde\n",
                [tri.x_coord[:, None], tri.xi_coord[:, None],
                 sol.spec.y_nodes[None, :], sol.k_rows, sol.ktilde[:, None]])


def _write_json(path: str, payload: dict) -> None:
    """Write ``payload`` with sorted keys; numpy scalars that ``json`` cannot
    encode (``np.bool_``, ``np.int64``) are written as their Python value."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=lambda obj: obj.item())
        fh.write("\n")


def _initial_condition(config: RunConfig, spec: GridSpec):
    if config.initial_condition == "default":
        state = default_initial_state(spec, amplitude=config.ic_amplitude)
        return state.u, state.v
    if config.initial_condition == "zero":
        return np.zeros((spec.nx + 1, spec.ny)), np.zeros(spec.nx + 1)
    u0 = config.ic_amplitude * np.exp(
        -((spec.x_nodes - config.ic_center) / config.ic_width) ** 2)
    return np.repeat(u0[:, None], spec.ny, axis=1), np.zeros(spec.nx + 1)


def _toy_kernel_error(sol: KernelSolution) -> float:
    """Max relative kernel error against the closed forms, interior ensemble
    lines only (the y in {0,1} lines of the ensemble kernel are exact zeros),
    the ensemble kernel compared a block of rows at a time."""
    spec = sol.spec
    tri = spec.tri
    k_fn, kt_fn = toy_analytic_kernels()
    exact_kt = kt_fn(tri.x_coord, tri.xi_coord)
    worst = float(np.max(np.abs(sol.ktilde - exact_kt) / np.abs(exact_kt)))
    if spec.ny > 2:
        y = spec.y_nodes[None, 1:-1]
        for nodes, rows in sol.k_blocks():
            exact = k_fn(tri.x_coord[nodes, None], tri.xi_coord[nodes, None], y)
            rel = np.abs(rows[:, 1:-1] - exact) / np.abs(exact)
            worst = max(worst, float(rel.max()))
    return worst


def _solve_kernels(config: RunConfig, coeff) -> KernelSolution | None:
    """Solve the kernels of a run's sampled plant, or return None after
    writing ``{"converged": false, "final_delta": ...}`` to
    ``kernels.json``."""
    try:
        return solve_backstepping_kernels(coeff.model, coeff.spec,
                                          tol=config.kernel_tol, coeff=coeff)
    except NonconvergenceError as exc:
        path = os.path.join(config.output_dir, "kernels.json")
        _write_json(path, {"converged": False,
                           "final_delta": exc.final_delta})
        print(f"kernel solve did not converge (final_delta = "
              f"{exc.final_delta:.3e}); wrote {path}", file=sys.stderr)
        return None


def cmd_kernels(config: RunConfig) -> int:
    """Solve the transform kernels; write kernels.csv and kernels.json."""
    spec = _grid_from_config(config)
    model = builtin_model(config.model_name)
    coeff = sample_coefficients(model, spec)
    os.makedirs(config.output_dir, exist_ok=True)
    sol = _solve_kernels(config, coeff)
    if sol is None:
        return 3
    res_ensemble, res_scalar = kernel_pde_residual(sol, model, coeff)
    payload = {
        "iterations": sol.iterations,
        "final_delta": sol.final_delta,
        "deltas": sol.deltas,
        "contraction_ratio": sol.contraction_ratio,
        "y_rank": sol.y_rank,
        "residuals": {"ensemble_equation": res_ensemble,
                      "scalar_equation": res_scalar},
    }
    if config.model_name == "toy":
        payload["analytic_max_rel_error"] = _toy_kernel_error(sol)
    json_path = os.path.join(config.output_dir, "kernels.json")
    _write_json(json_path, payload)

    csv_path = os.path.join(config.output_dir, "kernels.csv")
    _write_kernels_csv(csv_path, sol)
    print(f"wrote {csv_path} and {json_path} "
          f"(iterations={sol.iterations}, final_delta={sol.final_delta:.3e})")
    return 0


def _write_timeseries(path: str, record) -> None:
    """``timeseries.csv``; the Lyapunov column is empty unless the run
    recorded a Lyapunov series (cascade runs)."""
    columns = [record.times, record.joint_norms, record.u_norms,
               record.v_norms, record.control, record.lyapunov]
    write_table(path, "t,norm_joint,norm_u,norm_v,U,V_lyapunov\n",
                [None if c is None else c[:, None] for c in columns])


def _write_snapshots(out_dir: str, spec: GridSpec, record) -> list[str]:
    paths = []
    seen = set()
    for t_snap, state in record.snapshots:
        label = f"{t_snap:g}"
        # distinct steps can share a label when dt is tiny
        if label in seen:
            continue
        seen.add(label)
        path = os.path.join(out_dir, f"snap_{label}.csv")
        write_table(path, "x,y,u,v\n", [spec.x_nodes[:, None],
                                         spec.y_nodes[None, :], state.u,
                                         state.v[:, None]])
        paths.append(path)
    return paths


def cmd_simulate(config: RunConfig) -> int:
    """Run a simulation; write timeseries.csv, snapshots, summary.json."""
    spec = _grid_from_config(config)
    model = builtin_model(config.model_name)
    coeff = sample_coefficients(model, spec)
    check_cfl(coeff, spec.dt)
    os.makedirs(config.output_dir, exist_ok=True)
    summary_path = os.path.join(config.output_dir, "summary.json")
    u0, v0 = _initial_condition(config, spec)

    kernels = None
    if config.mode in ("closed", "target"):
        kernels = _solve_kernels(config, coeff)
        if kernels is None:
            return 3

    try:
        if config.mode == "target":
            record = simulate_target(coeff, spec, kernels, u0=u0, v0=v0,
                                     snapshot_times=config.snapshot_times)
        else:
            record = simulate(coeff, spec, kernels=kernels, u0=u0, v0=v0,
                              snapshot_times=config.snapshot_times)
    except DivergenceError as exc:
        _write_json(summary_path, {
            "mode": config.mode,
            "diverged": True,
            "last_finite_t": exc.t,
        })
        print(f"simulation diverged; last finite state at t = {exc.t:.6g}",
              file=sys.stderr)
        return 4

    ts_path = os.path.join(config.output_dir, "timeseries.csv")
    _write_timeseries(ts_path, record)
    snap_paths = _write_snapshots(config.output_dir, spec, record)
    summary = {
        "mode": config.mode,
        "decay_rate": record.decay_rate,
        "max_norm": float(record.joint_norms.max()),
        "final_norm": float(record.joint_norms[-1]),
        "max_abs_U": float(np.abs(record.control).max()),
        "y_ranks": record.y_ranks,
        "courant": cfl_condition(coeff, spec.dt)[0],
    }
    recipe = record.recipe
    if recipe is not None:
        summary["lyapunov_recipe"] = {"p": recipe.p, "delta": recipe.delta,
                                      "m_equiv": recipe.m_equiv,
                                      "M_equiv": recipe.M_equiv}
    if record.resolvent is not None:
        summary["resolvent"] = record.resolvent
    _write_json(summary_path, summary)
    extras = f" and {len(snap_paths)} snapshot file(s)" if snap_paths else ""
    print(f"wrote {ts_path} and {summary_path}{extras} "
          f"(final_norm={summary['final_norm']:.6g})")
    return 0


def _verify_characteristics(coeff, rng) -> dict:
    """Path-integral consistency of both traced curve families.

    Along a crossing curve the two position components close the gap x - xi
    at rate speed_u + speed_v, so the path integral of the summed speeds must
    equal x - xi; along an edge curve the xi-component travels from 0 to xi
    at rate speed_v, so the path integral of speed_v must equal xi.
    """
    m = 200
    x = rng.uniform(0.0, 1.0, size=m)
    xi = x * rng.uniform(0.0, 1.0, size=m)
    y = rng.uniform(0.0, 1.0, size=m)
    model = coeff.model
    cross = trace_crossing_batch(coeff, x, xi, y)
    y_seg = np.repeat(y, np.diff(cross.offsets))
    gap = cross.path_integral(model.speed_u(cross.xi, y_seg)
                              + model.speed_v(cross.x))
    edge = trace_edge_batch(coeff, x, xi)
    travelled = edge.path_integral(model.speed_v(edge.xi))
    worst = float(max(np.max(np.abs(gap - (x - xi))),
                      np.max(np.abs(travelled - xi))))
    return {"measured": worst, "tolerance": 1e-6, "passed": worst <= 1e-6}


def _verify_volterra(spec: GridSpec) -> dict:
    """Constant unit kernel must produce the exponential resolvent."""
    tri = spec.tri
    res = resolvent(spec, np.ones(tri.n_nodes))
    xs = spec.x_nodes
    exact = np.exp(xs[tri.i_index] - xs[tri.j_index])
    err = float(np.abs(res.values - exact).max())
    tol = 1e-6 * (200.0 / spec.nx) ** 3
    return {"measured": err, "tolerance": tol, "passed": err <= tol}


def _verify_kernel_boundary(spec: GridSpec, coeff, kernels) -> dict:
    """Diagonal data and inflow-edge identity of the kernel pair."""
    tri = spec.tri
    model = coeff.model
    f_exact = np.asarray(
        -model.readout(spec.x_nodes[:, None], spec.y_nodes[None, :])
        / (model.speed_u(spec.x_nodes[:, None], spec.y_nodes[None, :])
           + model.speed_v(spec.x_nodes)[:, None]), dtype=float)
    diag_res = float(np.abs(kernels.diagonal_rows - f_exact).max())
    edge_rows = tri.row_start
    mu0 = float(coeff.speed_v_grid[0])
    gain_vec = coeff.inflow_gain_grid * coeff.speed_u_grid[0]
    edge_integral = (kernels.k_rows(edge_rows) * gain_vec) @ spec.y_weights
    edge_res = float(np.abs(mu0 * kernels.ktilde[edge_rows]
                            - edge_integral).max())
    edge_tol = 0.02 * (119.0 / (spec.ny - 1)) ** 2
    passed = diag_res <= 1e-9 and edge_res <= edge_tol
    return {"measured": {"diagonal": diag_res, "edge": edge_res},
            "tolerance": {"diagonal": 1e-9, "edge": edge_tol},
            "passed": passed}


def _verify_round_trip(spec: GridSpec, kernels, rng) -> dict:
    """Forward-then-inverse transform must reproduce the scalar field."""
    transform = transform_operator(kernels)
    xs = spec.x_nodes[:, None]
    ys = spec.y_nodes[None, :]
    worst = 0.0
    for _ in range(5):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        c = rng.standard_normal(3)
        u = ((a[0] + a[1] * xs + a[2] * np.sin(np.pi * xs))
             * (b[0] + b[1] * ys + b[2] * np.cos(np.pi * ys)))
        v = c[0] + c[1] * spec.x_nodes + c[2] * np.sin(np.pi * spec.x_nodes)
        state = EnsembleState(u=u, v=v, t=0.0)
        alpha, beta = forward_transform(state, transform)
        _, v_back = inverse_transform(transform, alpha, beta)
        err = scalar_norm(spec, v_back - v)
        worst = max(worst, err / max(scalar_norm(spec, v), 1e-300))
    tol = 1e-3 * (200.0 / spec.nx) ** 2
    return {"measured": worst, "tolerance": tol, "passed": worst <= tol}


def _verify_lyapunov(config: RunConfig, spec: GridSpec, coeff, kernels) -> dict:
    """Monotonicity of the recipe Lyapunov value on a short cascade run."""
    short = GridSpec(nx=spec.nx, ny=spec.ny, dt=spec.dt,
                     t_final=min(spec.t_final, 1.0))
    u0, v0 = _initial_condition(config, short)
    record = simulate_target(coeff, short, kernels, u0=u0, v0=v0)
    recipe = record.recipe
    lyap = record.lyapunov
    prev = lyap[1:-1]
    positive = prev > 0
    worst_ratio = float(np.max(lyap[2:][positive] / prev[positive] - 1.0,
                               initial=0.0))
    j2 = record.joint_norms ** 2
    sandwich_ok = bool(np.all(
        (recipe.m_equiv * j2 <= lyap * (1 + 1e-9) + 1e-300)
        & (lyap <= recipe.M_equiv * j2 * (1 + 1e-9) + 1e-300)))
    passed = worst_ratio <= 1e-3 and sandwich_ok
    return {"measured": {"worst_step_growth": worst_ratio,
                         "sandwich_holds": sandwich_ok,
                         "p": recipe.p, "delta": recipe.delta},
            "tolerance": {"worst_step_growth": 1e-3},
            "passed": passed}


def cmd_verify(config: RunConfig) -> int:
    """Run the invariant suite; write verify.json; exit 0 iff all pass."""
    spec = _grid_from_config(config)
    model = builtin_model(config.model_name)
    coeff = sample_coefficients(model, spec)
    rng = np.random.default_rng(config.seed)
    os.makedirs(config.output_dir, exist_ok=True)

    checks = {}
    courant, cfl_holds = cfl_condition(coeff, spec.dt)
    checks["cfl"] = {"measured": courant, "tolerance": 1.0,
                     "passed": cfl_holds}

    checks["characteristics"] = _verify_characteristics(coeff, rng)
    checks["volterra_resolvent"] = _verify_volterra(spec)

    kernels = _solve_kernels(config, coeff)
    if kernels is None:
        return 3
    if config.model_name == "toy":
        oracle_err = _toy_kernel_error(kernels)
        # Criterion 1's 0.02 at ny = 60, scaled with the y-quadrature error
        # the closed form measures (second order in 1 / (ny - 1)), at most
        # 0.25.
        oracle_tol = min(0.25, 0.02 * (59.0 / (spec.ny - 1)) ** 2)
        checks["kernel_oracle"] = {"measured": oracle_err,
                                   "tolerance": oracle_tol,
                                   "passed": oracle_err <= oracle_tol}
    checks["kernel_boundary"] = _verify_kernel_boundary(spec, coeff, kernels)

    res_ensemble, res_scalar = kernel_pde_residual(kernels, model, coeff)
    pde_tol = 10.0 / spec.nx
    pde_worst = max(res_ensemble, res_scalar)
    checks["kernel_pde"] = {"measured": {"ensemble_equation": res_ensemble,
                                         "scalar_equation": res_scalar},
                            "tolerance": pde_tol,
                            "passed": pde_worst <= pde_tol}

    checks["round_trip"] = _verify_round_trip(spec, kernels, rng)
    if checks["cfl"]["passed"]:
        checks["lyapunov"] = _verify_lyapunov(config, spec, coeff, kernels)
    else:
        checks["lyapunov"] = {"measured": None, "tolerance": None,
                              "passed": False,
                              "note": "skipped: CFL precheck failed"}

    all_passed = all(entry["passed"] for entry in checks.values())
    report = {"all_passed": all_passed, "checks": checks,
              "model": config.model_name, "nx": spec.nx, "ny": spec.ny,
              "seed": config.seed}
    path = os.path.join(config.output_dir, "verify.json")
    _write_json(path, report)
    for name in sorted(checks):
        status = "PASS" if checks[name]["passed"] else "FAIL"
        print(f"{name}: {status}")
    print(f"verify: {'all checks passed' if all_passed else 'FAILURES'} "
          f"(report: {path})")
    return 0 if all_passed else 5


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensemble-backstep",
        description="Boundary-feedback stabilization toolkit for a continuum "
                    "ensemble of coupled transport equations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("kernels", "solve the feedback transform kernels"),
            ("simulate", "run an open-, closed-loop, or cascade simulation"),
            ("verify", "run the invariant verification suite")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--model", dest="model_name",
                       help="built-in model name (toy, pure-transport)")
        p.add_argument("--nx", type=int, help="number of x intervals")
        p.add_argument("--ny", type=int, help="number of ensemble nodes")
        p.add_argument("--dt", type=float, help="time step")
        p.add_argument("--t-final", dest="t_final", type=float,
                       help="final time")
        p.add_argument("--mode", help="open | closed | target")
        p.add_argument("--out", dest="output_dir", help="output directory")
        p.add_argument("--snapshots", dest="snapshot_times",
                       help="comma-separated snapshot times, e.g. 1.0,2.5")
        p.add_argument("--seed", type=int,
                       help="seed for randomized verification checks")
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
        if args.command == "kernels":
            return cmd_kernels(config)
        if args.command == "simulate":
            return cmd_simulate(config)
        return cmd_verify(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NonconvergenceError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 4
    except EnsembleBackstepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
