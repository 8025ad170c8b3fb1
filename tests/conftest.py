"""Shared fixtures: expensive artifacts built once per session."""

import os
import time

import numpy as np
import pytest

import ensemble_backstep
from ensemble_backstep import kernelsolve, model, simulator
from ensemble_backstep.grid import GridSpec


@pytest.fixture(scope="session", autouse=True)
def package_on_subprocess_path():
    """Tests that start ``python -m ensemble_backstep.cli`` must run the
    package imported here, which pytest's ``pythonpath`` setting puts on the
    path of this process only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH",
                  os.path.dirname(os.path.dirname(ensemble_backstep.__file__)),
                  prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def toy():
    return model.toy_model()


@pytest.fixture(scope="session")
def pure_transport():
    return model.pure_transport_model()


@pytest.fixture(scope="session")
def spec_mid():
    """Mid-size grid used by most kernel-level checks."""
    return GridSpec(nx=100, ny=60)


@pytest.fixture(scope="session")
def kernels_mid(toy, spec_mid):
    return kernelsolve.solve_backstepping_kernels(toy, spec_mid, tol=1e-10)


@pytest.fixture(scope="session")
def spec_default():
    """The reference discretization every simulation default targets."""
    return GridSpec(nx=200, ny=120, dt=0.004, t_final=5.0)


@pytest.fixture(scope="session")
def kernels_default_timed(toy, spec_default):
    """Solved kernels on the default grid, with the solve wall time."""
    t0 = time.perf_counter()
    sol = kernelsolve.solve_backstepping_kernels(toy, spec_default, tol=1e-10)
    return sol, time.perf_counter() - t0


@pytest.fixture(scope="session")
def kernels_default(kernels_default_timed):
    return kernels_default_timed[0]


@pytest.fixture(scope="session")
def closed_run_default(toy, spec_default, kernels_default):
    """Closed-loop trajectory at defaults, with snapshots at t = 0 and 3."""
    t0 = time.perf_counter()
    rec = simulator.simulate(toy, spec_default, kernels=kernels_default,
                             mode="closed", snapshot_times=(0.0, 3.0))
    return rec, time.perf_counter() - t0


@pytest.fixture(scope="session")
def open_run_default(toy, spec_default):
    t0 = time.perf_counter()
    rec = simulator.simulate(toy, spec_default, mode="open")
    return rec, time.perf_counter() - t0


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20260819)
