"""Outside-in layer spans for the traced run.

The traced child wraps the names each consumer module binds from the
package's other modules (``corner_weights`` as bound in ``kernelsolve``,
``step_target`` as bound in ``simulator``, ...) and records one span per call:
name, start, end and parent.  Nothing inside the package is edited.  Spans
stay in memory and are written out when the run ends; :func:`layer_metrics`
turns them into the per-layer figures.

Sweep boundaries come from the ensemble-operator callback that
``build_backstepping_problem`` returns: the solver calls it once at the start
of every sweep, so the wrapper swaps in a timed copy of the callback.
"""

from __future__ import annotations

import dataclasses
import functools
import resource
import statistics
import time

import numpy as np

TINY = np.finfo(float).tiny


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder; one per traced process.

    Its wrappers stay installed until the process exits.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``module.attr`` with a spanned wrapper.

        ``before(span, args)`` and ``after(span, args, result)`` annotate
        the span with counts.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            if before is not None:
                before(span, args)
            try:
                out = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, out)
            return out

        setattr(module, attr, wrapper)


def _rss_before(span, args):
    span["rss0"] = _maxrss_mb()


def _rss_after(span, args, out):
    span["rss_rise"] = _maxrss_mb() - span["rss0"]


def _trace_after(span, args, bundle):
    _rss_after(span, args, bundle)
    span["curves"] = int(bundle.offsets.shape[0] - 1)
    span["samples"] = int(bundle.offsets[-1])


def _corner_before(span, args):
    span["points"] = int(np.asarray(args[1]).size)


def _quadrature_after(span, args, out):
    span["nnz"] = int(out.nnz)


def _resolvent_after(span, args, out):
    span["terms"] = int(out.n_terms_used)


def _is_subnormal(a: np.ndarray) -> bool:
    return bool(np.any((a != 0.0) & (np.abs(a) < TINY)))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from ensemble_backstep import (characteristics, cli, kernelsolve, model,
                                   simulator, volterra)

    for consumer in (cli, kernelsolve, simulator, characteristics, model):
        tracer.wrap(consumer, "sample_coefficients", "model.sample")
    for consumer in (kernelsolve, cli):
        for attr in ("trace_crossing_batch", "trace_edge_batch"):
            tracer.wrap(consumer, attr, "characteristics.trace",
                        before=_rss_before, after=_trace_after)
    tracer.wrap(kernelsolve, "corner_weights", "grid.corner_weights",
                before=_corner_before)
    # The solver builds every quadrature operator, crossing and edge, one
    # per ensemble node on the per-y path, through this module-level name.
    tracer.wrap(kernelsolve, "_quadrature_matrix", "kernelsolve.quadrature",
                after=_quadrature_after)

    for consumer in (cli, kernelsolve):
        tracer.wrap(consumer, "solve_backstepping_kernels", "kernelsolve.solve",
                    before=_rss_before, after=_rss_after)
        tracer.wrap(consumer, "kernel_pde_residual", "kernelsolve.residual")

    build = kernelsolve.build_backstepping_problem

    @functools.wraps(build)
    def timed_build(*args, **kwargs):
        problem = build(*args, **kwargs)
        callback = problem.apply_ensemble_operator

        def timed_callback(tri, field):
            span = tracer.open("kernelsolve.sweep")
            try:
                return callback(tri, field)
            finally:
                tracer.close(span)

        return dataclasses.replace(problem, apply_ensemble_operator=timed_callback)

    kernelsolve.build_backstepping_problem = timed_build

    for consumer in (volterra, cli):
        tracer.wrap(consumer, "resolvent", "volterra.resolvent",
                    after=_resolvent_after)
    for consumer in (simulator, cli):
        tracer.wrap(consumer, "solve_target_coupling", "volterra.kappa")
        tracer.wrap(consumer, "forward_transform", "simulator.forward_transform")
        tracer.wrap(consumer, "lyapunov_recipe", "simulator.recipe")
    tracer.wrap(cli, "simulate", "simulator.driver")
    tracer.wrap(cli, "simulate_target", "simulator.driver")
    tracer.wrap(simulator, "step_plant", "simulator.step_plant")

    step_target = simulator.step_target

    @functools.wraps(step_target)
    def traced_step_target(state, *args, **kwargs):
        check = tracer.open("trace.subnormal_check")
        subnormal = _is_subnormal(state.u) or _is_subnormal(state.v)
        tracer.close(check)
        span = tracer.open("simulator.step_target")
        span["subnormal"] = subnormal
        try:
            return step_target(state, *args, **kwargs)
        finally:
            tracer.close(span)

    simulator.step_target = traced_step_target


#: Per-layer metrics in the order the benchmark declares them, with units.
LAYER_METRICS = {
    "model.sample_s": "s",
    "characteristics.trace_s": "s",
    "characteristics.trace_calls": "count",
    "characteristics.curves": "count",
    "characteristics.samples": "count",
    "characteristics.rss_rise_mb": "MB",
    "grid.corner_weights_s": "s",
    "grid.stencil_points": "count",
    "kernelsolve.solve_s": "s",
    "kernelsolve.assembly_s": "s",
    "kernelsolve.sweep_s": "s",
    "kernelsolve.sweeps": "count",
    "kernelsolve.operator_nnz_computed": "count",
    "kernelsolve.rss_rise_mb": "MB",
    "kernelsolve.residual_s": "s",
    "volterra.resolvent_s": "s",
    "volterra.resolvent_terms": "count",
    "volterra.kappa_s": "s",
    "simulator.step_target_ms": "ms",
    "simulator.step_target_p99_ms": "ms",
    "simulator.subnormal_steps": "count",
    "simulator.driver_self_s": "s",
    "simulator.forward_transform_s": "s",
    "simulator.recipe_s": "s",
    "simulator.step_plant_ms": "ms",
    "simulator.steps": "count",
    "cli.self_s": "s",
    "cli.output_mb": "MB",
    "trace.overhead_s": "s",
}


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer figures from one traced operation's spans.

    A layer the workload does not reach reads 0.  ``cli.output_mb`` and
    ``trace.overhead_s`` are measured by the parent and filled in there.
    """
    by_name: dict[str, list[dict]] = {}
    child_time = [0.0] * len(spans)
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def self_time(name):
        return sum(s["end"] - s["start"] - child_time[i]
                   for i, s in enumerate(spans) if s["name"] == name)

    traces = by_name.get("characteristics.trace", [])
    solves = by_name.get("kernelsolve.solve", [])
    sweeps = by_name.get("kernelsolve.sweep", [])

    assembly = 0.0
    sweep_lengths = []
    for solve in solves:
        inside = [s for s in sweeps if solve["start"] <= s["start"] <= solve["end"]]
        if not inside:
            continue
        first = inside[0]["start"]
        # Everything before the first sweep that is not tracing or sampling
        # the coefficients builds the operators and the boundary data.
        pre = [s for s in spans if s["parent"] is not None
               and solve["start"] <= s["start"] and s["end"] <= first
               and s["name"] in ("characteristics.trace", "model.sample")
               and spans[s["parent"]]["name"] not in
               ("characteristics.trace", "model.sample")]
        assembly += first - solve["start"] - sum(s["end"] - s["start"] for s in pre)
        starts = [s["start"] for s in inside] + [solve["end"]]
        sweep_lengths += [b - a for a, b in zip(starts, starts[1:])]

    steps_t = [1e3 * (s["end"] - s["start"])
               for s in by_name.get("simulator.step_target", [])]
    steps_p = [1e3 * (s["end"] - s["start"])
               for s in by_name.get("simulator.step_plant", [])]
    return {
        "model.sample_s": total("model.sample"),
        "characteristics.trace_s": total("characteristics.trace"),
        "characteristics.trace_calls": len(traces),
        "characteristics.curves": sum(s["curves"] for s in traces),
        "characteristics.samples": sum(s["samples"] for s in traces),
        "characteristics.rss_rise_mb": sum(s["rss_rise"] for s in traces),
        "grid.corner_weights_s": total("grid.corner_weights"),
        "grid.stencil_points": sum(s["points"] for s in by_name.get(
            "grid.corner_weights", [])),
        "kernelsolve.solve_s": total("kernelsolve.solve"),
        "kernelsolve.assembly_s": assembly,
        "kernelsolve.sweep_s": (statistics.median(sweep_lengths)
                                if sweep_lengths else 0.0),
        "kernelsolve.sweeps": len(sweeps),
        "kernelsolve.operator_nnz_computed": sum(s["nnz"] for s in by_name.get(
            "kernelsolve.quadrature", [])),
        "kernelsolve.rss_rise_mb": sum(s["rss_rise"] for s in solves),
        "kernelsolve.residual_s": total("kernelsolve.residual"),
        "volterra.resolvent_s": total("volterra.resolvent"),
        "volterra.resolvent_terms": sum(s["terms"] for s in by_name.get(
            "volterra.resolvent", [])),
        "volterra.kappa_s": total("volterra.kappa"),
        "simulator.step_target_ms": _percentile(steps_t, 50),
        "simulator.step_target_p99_ms": _percentile(steps_t, 99),
        "simulator.subnormal_steps": sum(
            s["subnormal"] for s in by_name.get("simulator.step_target", [])),
        "simulator.driver_self_s": self_time("simulator.driver"),
        "simulator.forward_transform_s": total("simulator.forward_transform"),
        "simulator.recipe_s": total("simulator.recipe"),
        "simulator.step_plant_ms": _percentile(steps_p, 50),
        "simulator.steps": len(steps_t) + len(steps_p),
        "cli.self_s": self_time("cli.main"),
    }
