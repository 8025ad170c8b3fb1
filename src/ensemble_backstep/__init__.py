"""Boundary-feedback stabilization of a continuum ensemble of transport PDEs.

The package solves the kernel equations of a backstepping boundary controller
for a family of coupled first-order hyperbolic PDEs indexed by a continuous
ensemble parameter, assembles the scalar feedback law, simulates the open and
closed loop, and verifies decay and transform identities numerically.
"""

import os

# Pin BLAS/OpenMP pools to a single thread so that vector reductions have a
# fixed summation order and all outputs are bit-reproducible regardless of the
# ambient thread configuration.  This overwrites the caller's values of these
# four variables, and it takes effect only when the package is imported
# before numpy, since the pools are sized when numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"
del _var

__version__ = "0.1.0"

from . import characteristics, csvtable, errors, grid, kernelsolve, model, simulator, volterra  # noqa: E402

__all__ = [
    "characteristics",
    "cli",
    "csvtable",
    "errors",
    "grid",
    "kernelsolve",
    "model",
    "simulator",
    "volterra",
    "__version__",
]


def __getattr__(name):
    # ``cli`` is imported on first use: importing it here would make
    # ``python -m ensemble_backstep.cli`` find it already loaded and warn.
    if name == "cli":
        import importlib

        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
