"""One fresh, single-threaded interpreter: a set-up probe or one operation.

Run by the harness as ``python3 bench/child.py '<task json>'``.  The task
names the package's source directory, the workload and its seeded inputs,
and the output directory.  The child writes ``result.json`` there and exits
with the program's own exit code.

A set-up probe imports the package and samples the workload's coefficients,
then reports the time since the harness spawned it and the host speed right
after (``speed.probe_factor``).  An operation calls
``ensemble_backstep.cli.main`` (CLI workloads) or the solver (the library
workload), either under the layer tracer or under the host speed sampler.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

from workloads import Workload, run_library, setup_problem

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def main() -> int:
    task = json.loads(sys.argv[1])
    sys.path.insert(0, task["src"])
    import ensemble_backstep

    if not os.path.abspath(ensemble_backstep.__file__).startswith(task["src"] + os.sep):
        print(f"imported {ensemble_backstep.__file__}, not the package under "
              f"{task['src']}", file=sys.stderr)
        return 70
    workload = Workload(**task["workload"])
    inputs = task["inputs"]
    result = {"thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}

    if task["task"] == "setup":
        from ensemble_backstep.model import sample_coefficients

        sample_coefficients(*setup_problem(workload, inputs))
        result["setup_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - task["t_spawn"]
        import speed

        result["speed"] = speed.probe_factor()
        rc = 0
    else:
        from ensemble_backstep import cli
        from ensemble_backstep.errors import NonconvergenceError

        tracer = sampler = None
        if task["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        else:
            import speed

            sampler = speed.Sampler()
        with sampler or contextlib.nullcontext():
            if workload.kind == "library":
                try:
                    result.update(run_library(workload, inputs))
                    rc = 0
                except NonconvergenceError as exc:
                    print(f"nonconvergence: {exc}", file=sys.stderr)
                    rc = 3
            else:
                span = tracer.open("cli.main") if tracer else None
                rc = cli.main(task["argv"])
                if tracer:
                    tracer.close(span)
        if sampler:
            result.update(speed=sampler.factor(), sampler_s=sampler.spent_s)
        spec = setup_problem(workload, inputs)[1]
        result.update(nx=spec.nx, ny=spec.ny,
                      maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer:
            result["spans"] = tracer.spans
    with open(os.path.join(task["op_dir"], "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
