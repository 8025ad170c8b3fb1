"""The benchmark's layer tracer still finds every name it wraps.

``bench/tracing.install`` replaces names the package's modules bind and
times each solver sweep through the ensemble-operator callback of
``build_backstepping_problem``.  A refactor that unbinds one of those names,
or stops calling the callback once per sweep, breaks the traced benchmark
run; these tests catch it without running the benchmark, on the shared-curve
path (the toy) and on the per-y path (a y-dependent ensemble speed).
"""

import json
import os
import subprocess
import sys

import ensemble_backstep

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import collections, json, sys
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
sol = kernelsolve.solve_backstepping_kernels(plant, GridSpec(nx=12, ny=6))
counts = collections.Counter(span["name"] for span in tracer.spans)
def total(name, key):
    return sum(span[key] for span in tracer.spans if span["name"] == name)
print(json.dumps({"iterations": sol.iterations, "spans": counts,
                  "points": total("grid.corner_weights", "points"),
                  "samples": total("characteristics.trace", "samples")}))
"""


def _traced_solve(plant):
    """Span counts of a traced solve at nx=12, ny=6, after the checks that
    hold for every plant."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "bench"),
         os.path.dirname(os.path.dirname(ensemble_backstep.__file__))])
    done = subprocess.run([sys.executable, "-c", SCRIPT, plant], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["iterations"] > 1
    assert report["spans"]["kernelsolve.sweep"] == report["iterations"]
    assert report["spans"]["kernelsolve.solve"] == 1
    # the bench's grid.stencil_points counts every traced sample once
    assert report["points"] == report["samples"] > 0
    return report["spans"]


def test_tracer_counts_one_span_per_sweep():
    spans = _traced_solve("toy")
    # the toy traces one crossing family and one edge family
    assert spans["characteristics.trace"] == 2
    assert spans["kernelsolve.quadrature"] == 2


def test_tracer_counts_per_y_families():
    spans = _traced_solve("ydep")
    # a speed 1 + y/2 traces one crossing family per y-node (ny = 6) and
    # one edge family
    assert spans["characteristics.trace"] == 6 + 1
    assert spans["kernelsolve.quadrature"] == 6 + 1
