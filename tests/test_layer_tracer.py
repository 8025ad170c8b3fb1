"""The benchmark's layer tracer still finds every name it wraps.

``bench/tracing.install`` replaces names the package's modules bind and
times each solver sweep through the ensemble-operator callback of
``build_backstepping_problem``.  A refactor that unbinds one of those names,
or stops calling the callback once per sweep, breaks the traced benchmark
run; these tests catch it without running the benchmark, on the shared-curve
path (the toy, swept in its one-dimensional y-subspace) and on the per-y
path (a y-dependent ensemble speed, swept on every y-node).  Traced CLI
simulations check the same for the plant and cascade steppers, the
simulation driver, the Lyapunov recipe and the coupling solve.
"""

import json
import os
import subprocess
import sys

import ensemble_backstep

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import collections, dataclasses, json, sys
import numpy as np
import tracing
from ensemble_backstep import kernelsolve
from ensemble_backstep.grid import GridSpec
from ensemble_backstep.model import PlantModel, toy_model
plant = toy_model()
if sys.argv[1] == "ydep":
    plant = PlantModel(
        name="toy-ydep", speed_v=plant.speed_v, exchange=plant.exchange,
        drive=plant.drive, readout=plant.readout,
        inflow_gain=plant.inflow_gain,
        speed_u=lambda x, y: 1.0 + 0.5 * np.asarray(y) + 0.0 * np.asarray(x))
tracer = tracing.Tracer()
tracing.install(tracer)
# Record the width of every field the traced sweep callback receives.
widths = []
traced_build = kernelsolve.build_backstepping_problem
def recording_build(*args, **kwargs):
    problem = traced_build(*args, **kwargs)
    callback = problem.apply_ensemble_operator
    def recording_callback(tri, field):
        widths.append(field.shape[1])
        return callback(tri, field)
    return dataclasses.replace(problem,
                               apply_ensemble_operator=recording_callback)
kernelsolve.build_backstepping_problem = recording_build
sol = kernelsolve.solve_backstepping_kernels(plant, GridSpec(nx=12, ny=6))
counts = collections.Counter(span["name"] for span in tracer.spans)
def total(name, key):
    return sum(span[key] for span in tracer.spans if span["name"] == name)
print(json.dumps({"iterations": sol.iterations, "spans": counts,
                  "widths": sorted(set(widths)),
                  "points": total("grid.corner_weights", "points"),
                  "samples": total("characteristics.trace", "samples")}))
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
    interpreter with the bench's tracer on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "bench"),
         os.path.dirname(os.path.dirname(ensemble_backstep.__file__))])
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _traced_solve(plant):
    """Span counts and sweep field widths of a traced solve at nx=12, ny=6,
    after the checks that hold for every plant."""
    report = _run_traced(SCRIPT, plant)
    assert report["iterations"] > 1
    assert report["spans"]["kernelsolve.sweep"] == report["iterations"]
    assert report["spans"]["kernelsolve.solve"] == 1
    # the bench's grid.stencil_points counts every traced sample once
    assert report["points"] == report["samples"] > 0
    return report["spans"], report["widths"]


def test_tracer_counts_one_span_per_sweep():
    spans, widths = _traced_solve("toy")
    # the toy traces one crossing family and one edge family
    assert spans["characteristics.trace"] == 2
    assert spans["kernelsolve.quadrature"] == 2
    # and sweeps its one-dimensional y-subspace
    assert widths == [1]


def test_tracer_counts_per_y_families():
    spans, widths = _traced_solve("ydep")
    # a speed 1 + y/2 traces one crossing family per y-node (ny = 6) and
    # one edge family
    assert spans["characteristics.trace"] == 6 + 1
    assert spans["kernelsolve.quadrature"] == 6 + 1
    # and sweeps every y-node
    assert widths == [6]


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
