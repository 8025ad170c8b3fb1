"""The benchmark's layer tracer still finds every name it wraps.

``bench/tracing.install`` replaces names the package's modules bind and
times each local sweep of the solver's march through the ensemble-operator
callback of ``build_backstepping_problem``.  A refactor that unbinds one of
those names, or stops calling the callback once per local sweep (and once
per band on its converged rows), breaks the traced benchmark run; these
tests catch it without running the benchmark, on the shared-curve path (the
toy, swept in its one-dimensional y-subspace) and on the per-y path (a
y-dependent ensemble speed, swept on every y-node), in bands small enough
that there are several.  Traced CLI simulations check the same for the
plant and cascade steppers, the simulation driver, the Lyapunov recipe and
the coupling solve.
"""

import importlib
import json
import os
import subprocess
import sys

import ensemble_backstep
from ensemble_backstep import kernelsolve

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import collections, dataclasses, json, sys
import tracing
from conftest import sloped_plant
from ensemble_backstep import kernelsolve
from ensemble_backstep.grid import GridSpec
from ensemble_backstep.model import toy_model
plant = sloped_plant() if sys.argv[1] == "ydep" else toy_model()
kernelsolve._BAND_SEGMENTS = 256
tracer = tracing.Tracer()
tracing.install(tracer)
# Record the rows and the width of every field the traced sweep callback
# receives.
calls = []
traced_build = kernelsolve.build_backstepping_problem
def recording_build(*args, **kwargs):
    problem = traced_build(*args, **kwargs)
    callback = problem.apply_ensemble_operator
    def recording_callback(rows, field):
        calls.append((rows, field.shape[1]))
        return callback(rows, field)
    return dataclasses.replace(problem,
                               apply_ensemble_operator=recording_callback)
kernelsolve.build_backstepping_problem = recording_build
spec = GridSpec(nx=12, ny=6)
sol = kernelsolve.solve_backstepping_kernels(plant, spec)
families = spec.ny if sys.argv[1] == "ydep" else 1
bands = kernelsolve._bands(spec.tri, families)
counts = collections.Counter(span["name"] for span in tracer.spans)
def total(name, key):
    return sum(span[key] for span in tracer.spans if span["name"] == name)
print(json.dumps({"iterations": sol.iterations, "spans": counts,
                  "calls": [[rows.start, rows.stop] for rows, _ in calls],
                  "bands": [[rows.start, rows.stop] for rows in bands],
                  "widths": sorted({width for _, width in calls}),
                  "points": total("grid.corner_weights", "points"),
                  "samples": total("characteristics.trace", "samples"),
                  "curves": total("characteristics.trace", "curves")}))
"""


CLI_SCRIPT = """
import collections, json, sys
import tracing
from ensemble_backstep import cli
tracer = tracing.Tracer()
tracing.install(tracer)
code = cli.main(["simulate", "--mode", sys.argv[1], "--nx", "12", "--ny", "6",
                 "--dt", "0.02", "--t-final", "0.2", "--out", sys.argv[2]])
print(json.dumps({"code": code, "spans": collections.Counter(
    span["name"] for span in tracer.spans)}))
"""


def _run_traced(script, *args):
    """The JSON report a traced script prints last, run in a fresh
    interpreter with the bench's tracer and the test plants on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "bench"), os.path.join(REPO, "tests"),
         os.path.dirname(os.path.dirname(ensemble_backstep.__file__))])
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _traced_solve(plant):
    """Span counts, band count and sweep field widths of a traced solve at
    nx=12, ny=6, after the checks that hold for every plant."""
    report = _run_traced(SCRIPT, plant)
    assert report["iterations"] > 1
    calls, bands = report["calls"], len(report["bands"])
    assert bands >= 3
    # one span per callback call: each local sweep of a band, and the
    # band's converged rows, the bands in x order
    assert report["spans"]["kernelsolve.sweep"] == len(calls)
    assert [rows for k, rows in enumerate(calls)
            if k == 0 or rows != calls[k - 1]] == report["bands"]
    assert 2 * bands <= len(calls) <= (report["iterations"] + 1) * bands
    assert report["spans"]["kernelsolve.solve"] == 1
    # every band traces its crossing curves, of every family, in one call
    # and its edge curves in another, and assembles each once
    assert report["spans"]["characteristics.trace"] == 2 * bands
    assert report["spans"]["kernelsolve.quadrature"] == 2 * bands
    # the bench's grid.stencil_points counts the three Simpson points of
    # every traced cell segment, and characteristics.samples the segments
    assert report["points"] == 3 * report["samples"] > 0
    return report["widths"]


def test_tracer_counts_one_span_per_sweep():
    # the toy traces one crossing family and sweeps its one-dimensional
    # y-subspace
    assert _traced_solve("toy") == [1]


def test_tracer_counts_per_y_families():
    # a speed 1 + y/2 traces one crossing family per y-node (ny = 6), a
    # band of each in one call, and sweeps every y-node
    assert _traced_solve("ydep") == [6]


def _traced_simulation(mode, out_dir):
    """Span counts of a traced ``simulate`` run of 10 steps at nx=12, ny=6."""
    report = _run_traced(CLI_SCRIPT, mode, str(out_dir))
    assert report["code"] == 0
    spans = report["spans"]
    assert spans["simulator.driver"] == 1
    return spans


def test_tracer_counts_one_plant_step_span_per_step(tmp_path):
    spans = _traced_simulation("open", tmp_path)
    assert spans["simulator.step_plant"] == 10
    assert "simulator.step_target" not in spans
    assert "kernelsolve.solve" not in spans
    assert "simulator.recipe" not in spans


def test_tracer_counts_one_cascade_step_span_per_step(tmp_path):
    spans = _traced_simulation("target", tmp_path)
    assert spans["simulator.step_target"] == 10
    # every cascade step is checked for subnormal values first
    assert spans["trace.subnormal_check"] == 10
    assert "simulator.step_plant" not in spans
    assert spans["kernelsolve.solve"] == 1
    # the cascade run builds its one Lyapunov recipe from the coupling its
    # transform solved, once, through a traced name
    assert spans["simulator.recipe"] == 1
    assert spans["volterra.kappa"] == 1
    assert spans["volterra.resolvent"] == 1


def test_bench_sweep_budget_is_the_solver_budget(monkeypatch):
    """The bench gates ``ydep-kernels`` and ``kernels-default`` on the
    solver's sweep budget through its own copy of it."""
    monkeypatch.syspath_prepend(os.path.join(REPO, "bench"))
    workloads = importlib.import_module("workloads")
    assert workloads.MAX_SWEEPS == kernelsolve.MAX_SWEEPS
