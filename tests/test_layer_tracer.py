"""The benchmark's layer tracer still finds every name it wraps.

``bench/tracing.install`` replaces names the package's modules bind and
times each solver sweep through the ensemble-operator callback of
``build_backstepping_problem``.  A refactor that unbinds one of those names,
or stops calling the callback once per sweep, breaks the traced benchmark
run; this test catches it without running the benchmark.
"""

import json
import os
import subprocess
import sys

import ensemble_backstep

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import collections, json
import tracing
from ensemble_backstep import kernelsolve
from ensemble_backstep.grid import GridSpec
from ensemble_backstep.model import toy_model
tracer = tracing.Tracer()
tracing.install(tracer)
sol = kernelsolve.solve_backstepping_kernels(toy_model(), GridSpec(nx=12, ny=6))
counts = collections.Counter(span["name"] for span in tracer.spans)
print(json.dumps({"iterations": sol.iterations, "spans": counts}))
"""


def test_tracer_counts_one_span_per_sweep():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "bench"),
         os.path.dirname(os.path.dirname(ensemble_backstep.__file__))])
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    spans = report["spans"]
    assert report["iterations"] > 1
    assert spans["kernelsolve.sweep"] == report["iterations"]
    assert spans["kernelsolve.solve"] == 1
    # the toy traces one crossing family and one edge family
    assert spans["characteristics.trace"] == 2
    assert spans["kernelsolve.quadrature"] == 2
