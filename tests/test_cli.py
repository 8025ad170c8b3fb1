"""End-to-end tests of the command-line interface.

Covers config-file parsing and override precedence, output formats (exact
headers, row counts, 17-significant-digit float round trips), JSON report
schemas, every exit code, and byte-level determinism of the emitted files
across repeated runs under different BLAS/OpenMP thread settings.
"""

import dataclasses
import io
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import sloped_plant
from ensemble_backstep import cli, csvtable
from ensemble_backstep.cli import load_config_file, main
from ensemble_backstep.errors import ConfigurationError, NonconvergenceError
from ensemble_backstep.grid import GridSpec
from ensemble_backstep.kernelsolve import solve_backstepping_kernels
from ensemble_backstep.model import builtin_model, sample_coefficients
from oracles import kernel_solution_from_evaluators


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


class TestConfigFile:
    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# run setup\n"
            "nx = 12   # trailing comment\n"
            "ny = 8\n"
            "\n"
            "mode = open\n"
            "snapshot_times = 0.5, 1.0\n")
        values = load_config_file(str(path))
        assert values == {"nx": 12, "ny": 8, "mode": "open",
                          "snapshot_times": (0.5, 1.0)}

    def test_unknown_key_reports_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("# comment line\nbogus = 3\n")
        with pytest.raises(ConfigurationError) as excinfo:
            load_config_file(str(path))
        assert f"{path}:2" in str(excinfo.value)
        assert "bogus" in str(excinfo.value)
        # End to end the same file must exit 2 with a diagnostic on stderr.
        code = main(["kernels", "--config", str(path),
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{path}:2" in err

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nx 12\n")
        with pytest.raises(ConfigurationError, match=":1:"):
            load_config_file(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nx = twelve\n")
        with pytest.raises(ConfigurationError, match="bad value"):
            load_config_file(str(path))

    @pytest.mark.parametrize("args, config", [
        (["simulate", "--snapshots", "nan"], ""),
        (["simulate", "--dt", "nan"], ""),
        (["kernels", "--dt", "nan"], ""),
        (["simulate", "--t-final", "inf", "--mode", "open"], ""),
        (["kernels"], "kernel_tol = nan\n"),
        (["simulate"], "initial_condition = gaussian\nic_width = inf\n"),
        (["simulate"], "ic_amplitude = -inf\n"),
        (["simulate"], "snapshot_times = 0.5, nan\n"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, args, config):
        if config:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            args = args + ["--config", str(path)]
        assert main(args + ["--out", str(tmp_path)]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("width", ["0", "-0.1"])
    def test_nonpositive_ic_width_exits_2(self, tmp_path, capsys, width):
        # a zero width would divide by zero in the Gaussian profile and end
        # as a divergent run (exit 4)
        path = tmp_path / "run.cfg"
        path.write_text(f"initial_condition = gaussian\nic_width = {width}\n"
                        "nx = 20\nmode = open\n")
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "ic_width must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, config", [
        (["--seed", "-1"], ""),
        ([], "seed = -3\n"),
    ], ids=["option", "config-file"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, args, config):
        # numpy's generator refuses a negative seed with a ValueError
        if config:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            args = args + ["--config", str(path)]
        assert main(["verify", "--nx", "20", "--ny", "10"] + args
                    + ["--out", str(tmp_path / "out")]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_snapshot_time_exits_2(self, tmp_path, capsys):
        # it would round to the first step and write the t = 0 state
        assert main(["simulate", "--nx", "10", "--ny", "4", "--snapshots=-1",
                     "--out", str(tmp_path / "out")]) == 2
        assert "snapshot times must be non-negative" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cli_overrides_beat_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("model_name = pure-transport\nnx = 4\nny = 3\n")
        out = tmp_path / "out"
        code = main(["kernels", "--config", str(path), "--nx", "6",
                     "--out", str(out)])
        assert code == 0
        header, data = _read_csv(out / "kernels.csv")
        # nx = 6 from the command line wins: 7*8/2 = 28 triangle nodes.
        assert data.shape == (28 * 3, 5)


class TestKernelsCommand:
    def test_minimal_grid_layout_and_zero_kernels(self, tmp_path):
        code = main(["kernels", "--model", "pure-transport", "--nx", "2",
                     "--ny", "2", "--out", str(tmp_path)])
        assert code == 0
        header, data = _read_csv(tmp_path / "kernels.csv")
        assert header == "x,xi,y,k,ktilde"
        assert data.shape == (12, 5)  # 6 triangle nodes times 2 ensemble nodes
        assert data[0, 0] == 0.0 and data[0, 1] == 0.0 and data[0, 2] == 0.0
        np.testing.assert_array_equal(data[:, 3], 0.0)
        np.testing.assert_array_equal(data[:, 4], 0.0)
        # Coordinates never leave the triangle 0 <= xi <= x <= 1.
        assert np.all(data[:, 1] <= data[:, 0] + 1e-15)

    def test_report_schema(self, tmp_path):
        code = main(["kernels", "--nx", "24", "--ny", "16",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "kernels.json").read_text())
        assert set(payload) == {"iterations", "final_delta", "deltas",
                                "contraction_ratio", "residuals",
                                "analytic_max_rel_error", "y_rank"}
        assert isinstance(payload["iterations"], int)
        # one sup-norm increment per sweep, the last being final_delta
        assert len(payload["deltas"]) == payload["iterations"]
        assert payload["deltas"][-1] == payload["final_delta"]
        # the median ratio of consecutive increments: a local sweep of a row
        # contracts by far more than half
        deltas = payload["deltas"]
        assert payload["contraction_ratio"] == float(np.median(
            [b / a for a, b in zip(deltas, deltas[1:])]))
        assert 0.0 < payload["contraction_ratio"] < 0.1
        # the toy's kernels are swept in a one-dimensional y-subspace
        assert payload["y_rank"] == 1
        assert payload["iterations"] >= 1
        assert payload["final_delta"] <= 1e-10
        assert set(payload["residuals"]) == {"ensemble_equation",
                                             "scalar_equation"}
        assert payload["analytic_max_rel_error"] < 0.05

    def test_csv_floats_round_trip_bitwise(self, tmp_path):
        code = main(["kernels", "--nx", "20", "--ny", "12",
                     "--out", str(tmp_path)])
        assert code == 0
        _, data = _read_csv(tmp_path / "kernels.csv")
        spec = GridSpec(nx=20, ny=12)
        sol = solve_backstepping_kernels(builtin_model("toy"), spec,
                                         tol=1e-10)
        # 17 significant digits reproduce every double exactly, so the CSV
        # must round-trip bit for bit against an in-process solve.
        np.testing.assert_array_equal(data[:, 3], sol.k.ravel())
        np.testing.assert_array_equal(data[:, 4], np.repeat(sol.ktilde, 12))


def test_csv_kernel_column_is_k_in_a_subspace(tmp_path, monkeypatch):
    """With y-rank above 1 (the toy with a Gaussian exchange) the k column
    of kernels.csv, formed a chunk of rows at a time, is ``sol.k``, formed
    whole, bit for bit: both come from ``KernelSolution.k_rows``."""
    plant = dataclasses.replace(
        builtin_model("toy"), name="toy-gauss",
        exchange=lambda x, y, eta: x * np.exp(-(y - eta) ** 2))
    spec = GridSpec(nx=20, ny=16)
    sol = solve_backstepping_kernels(plant, spec)
    assert sol.y_rank > 1
    # one triangle node a chunk: every row is formed alone
    monkeypatch.setattr(csvtable, "_CHUNK_LINES", spec.ny)
    cli._write_kernels_csv(str(tmp_path / "kernels.csv"), sol)
    _, data = _read_csv(tmp_path / "kernels.csv")
    np.testing.assert_array_equal(data[:, 3], sol.k.ravel())


@pytest.mark.parametrize("slope", [0.0, 0.5], ids=["toy", "speed_u=1+y/2"])
def test_diagonal_rows_are_the_exact_data(slope):
    """The diagonal rows of a solved k are ``-readout / (speed_u +
    speed_v)`` bit for bit, as the solution holds them, as its rows and as
    the whole array give them, so that the boundary check of ``verify``
    measures 0 on the toy and on a speed 1 + y/2 held per y-node."""
    plant = sloped_plant(slope)
    spec = GridSpec(nx=30, ny=12)
    coeff = sample_coefficients(plant, spec)
    sol = solve_backstepping_kernels(plant, spec, coeff=coeff)
    assert sol.y_rank == (1 if slope == 0.0 else spec.ny)
    x, y = spec.x_nodes[:, None], spec.y_nodes[None, :]
    exact = -plant.readout(x, y) / (plant.speed_u(x, y) + plant.speed_v(x))
    diag = spec.tri.diagonal_flat()
    assert np.array_equal(sol.diagonal_rows, exact)
    assert np.array_equal(sol.k_rows(diag), exact)
    assert np.array_equal(sol.k[diag], exact)
    check = cli._verify_kernel_boundary(spec, coeff, sol)
    assert check["measured"]["diagonal"] == 0.0
    assert check["passed"]


def _savetxt_bytes(header, columns, newline="\n"):
    """The table as ``np.savetxt(fmt="%.17g")`` writes it."""
    buffer = io.StringIO()
    buffer.write(header)
    np.savetxt(buffer, np.column_stack(columns), fmt="%.17g", delimiter=",",
               newline=newline)
    return buffer.getvalue().encode("utf-8")


def _awkward_values(rng, shape):
    """Doubles across the whole exponent range, with signed zeros and
    subnormals."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-310, 300, shape)
    flat = values.reshape(-1)
    flat[::7] = -0.0
    flat[1::11] = 0.0
    flat[2::13] = 5e-324
    return values


def test_writers_write_savetxt_bytes(tmp_path, rng):
    """kernels.csv, the snapshot CSVs and timeseries.csv are byte for byte
    the tables that ``np.savetxt(fmt="%.17g")`` writes; an open or closed
    run's timeseries ends every line with the empty Lyapunov field."""
    spec = GridSpec(nx=6, ny=5)
    tri = spec.tri
    k = _awkward_values(rng, (tri.n_nodes, spec.ny))
    ktilde = _awkward_values(rng, tri.n_nodes)
    sol = kernel_solution_from_evaluators(
        spec, lambda x, xi, y: k, lambda x, xi: ktilde)
    cli._write_kernels_csv(str(tmp_path / "kernels.csv"), sol)
    ny = spec.ny
    expected = _savetxt_bytes("x,xi,y,k,ktilde\n", [
        np.repeat(tri.x_coord, ny), np.repeat(tri.xi_coord, ny),
        np.tile(spec.y_nodes, tri.n_nodes), k.ravel(),
        np.repeat(ktilde, ny)])
    assert (tmp_path / "kernels.csv").read_bytes() == expected

    state = SimpleNamespace(u=_awkward_values(rng, (spec.nx + 1, ny)),
                            v=_awkward_values(rng, spec.nx + 1))
    record = SimpleNamespace(snapshots=[(0.5, state)])
    paths = cli._write_snapshots(str(tmp_path), spec, record)
    assert paths == [str(tmp_path / "snap_0.5.csv")]
    expected = _savetxt_bytes("x,y,u,v\n", [
        np.repeat(spec.x_nodes, ny), np.tile(spec.y_nodes, spec.nx + 1),
        state.u.ravel(), np.repeat(state.v, ny)])
    assert (tmp_path / "snap_0.5.csv").read_bytes() == expected

    header = "t,norm_joint,norm_u,norm_v,U,V_lyapunov\n"
    series = _awkward_values(rng, (6, 40))
    for lyapunov, newline in ((series[5], "\n"), (None, ",\n")):
        record = SimpleNamespace(
            times=series[0], joint_norms=series[1], u_norms=series[2],
            v_norms=series[3], control=series[4], lyapunov=lyapunov)
        cli._write_timeseries(str(tmp_path / "timeseries.csv"), record)
        columns = list(series[:5]) + ([] if lyapunov is None else [lyapunov])
        expected = _savetxt_bytes(header, columns, newline)
        assert (tmp_path / "timeseries.csv").read_bytes() == expected


def test_writers_write_savetxt_bytes_across_chunks(tmp_path, rng,
                                                   monkeypatch):
    """The same tables with ``ny`` lines a chunk: the awkward values cross
    many chunk boundaries between the formatting thread and the sink."""
    monkeypatch.setattr(csvtable, "_CHUNK_LINES", 5)    # the tables' ny
    test_writers_write_savetxt_bytes(tmp_path, rng)


class TestSimulateCommand:
    def test_zero_initial_state_timeseries(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model_name = pure-transport\n"
            "nx = 20\nny = 4\ndt = 0.025\nt_final = 0.1\n"
            "mode = open\ninitial_condition = zero\n")
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        with open(out / "timeseries.csv", "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "t,norm_joint,norm_u,norm_v,U,V_lyapunov"
        assert len(lines) == 1 + 5  # header plus t = 0, 0.025, ..., 0.1
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 6
            assert fields[5] == ""  # Lyapunov column only filled in target mode
            assert all(float(f) == 0.0 for f in fields[1:5])
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"mode", "decay_rate", "max_norm",
                                "final_norm", "max_abs_U", "y_ranks",
                                "courant"}
        # a zero field with no inflow or drive is stepped in no y-direction
        assert summary["y_ranks"] == {"exchange": 0, "state": 0}
        assert summary["mode"] == "open"
        assert summary["decay_rate"] is None
        assert summary["max_norm"] == 0.0

    def test_closed_loop_snapshots(self, tmp_path):
        code = main(["simulate", "--nx", "30", "--ny", "8", "--dt", "0.02",
                     "--t-final", "0.2", "--mode", "closed",
                     "--snapshots", "0,0.1", "--out", str(tmp_path)])
        assert code == 0
        header, snap0 = _read_csv(tmp_path / "snap_0.csv")
        assert header == "x,y,u,v"
        assert snap0.shape == (31 * 8, 4)
        _, snap1 = _read_csv(tmp_path / "snap_0.1.csv")
        assert snap1.shape == (31 * 8, 4)
        # v is a scalar profile: constant across the 8 ensemble rows per x.
        v_blocks = snap0[:, 3].reshape(31, 8)
        assert np.all(v_blocks == v_blocks[:, :1])
        # Feedback acts from t = 0: the outlet value in the first snapshot
        # equals the first recorded control value, and it is nonzero.
        with open(tmp_path / "timeseries.csv", "r", encoding="utf-8") as fh:
            first_row = fh.read().splitlines()[1]
        u_control = float(first_row.split(",")[4])
        assert u_control != 0.0
        assert v_blocks[-1, 0] == u_control

    def test_target_mode_fills_lyapunov_column(self, tmp_path):
        code = main(["simulate", "--nx", "30", "--ny", "8", "--dt", "0.02",
                     "--t-final", "0.1", "--mode", "target",
                     "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "timeseries.csv", "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        values = [float(line.split(",")[5]) for line in lines[1:]]
        assert len(values) == 6
        assert all(v > 0.0 for v in values)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mode"] == "target"
        assert summary["y_ranks"] == {"exchange": 1, "k": 1, "state": 2}
        assert set(summary["lyapunov_recipe"]) == {"p", "delta", "m_equiv",
                                                   "M_equiv"}
        assert summary["lyapunov_recipe"]["p"] > 0.0
        # dt * max speed * nx, and the coupling's resolvent series: the
        # terms it took and the last one's sup-norm, below the series
        # tolerance
        assert summary["courant"] == 0.02 * 1.0 * 30
        assert set(summary["resolvent"]) == {"n_terms_used", "tail_bound"}
        assert summary["resolvent"]["n_terms_used"] > 1
        assert 0.0 < summary["resolvent"]["tail_bound"] <= 1e-12

    def test_unknown_mode_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--mode", "sideways",
                     "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_model_exits_2(self, tmp_path):
        assert main(["simulate", "--model", "nonsense",
                     "--out", str(tmp_path)]) == 2

    def test_cfl_violation_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--nx", "100", "--dt", "0.05",
                     "--mode", "open", "--out", str(tmp_path)]) == 2
        assert "CFL" in capsys.readouterr().err

    def test_divergent_run_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "nx = 40\nny = 4\ndt = 0.02\nt_final = 5.0\nmode = open\n"
            "initial_condition = gaussian\nic_amplitude = 1e305\n")
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 4
        assert "diverged" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged"] is True
        assert 0.0 < summary["last_finite_t"] < 5.0

    def test_kernel_nonconvergence_exits_3(self, tmp_path, monkeypatch,
                                           capsys):
        def _give_up(model, spec, tol, coeff=None):
            raise NonconvergenceError("iteration budget exhausted",
                                      final_delta=0.125)

        monkeypatch.setattr(
            "ensemble_backstep.cli.solve_backstepping_kernels", _give_up)
        for command in (["kernels"], ["simulate", "--mode", "closed"],
                        ["verify"]):
            out = tmp_path / command[0]
            code = main(command + ["--nx", "10", "--ny", "4",
                                   "--out", str(out)])
            assert code == 3
            assert "did not converge" in capsys.readouterr().err
            payload = json.loads((out / "kernels.json").read_text())
            assert payload == {"converged": False, "final_delta": 0.125}
            assert sorted(os.listdir(out)) == ["kernels.json"]


class TestVerifyCommand:
    def test_all_checks_pass(self, tmp_path, capsys):
        code = main(["verify", "--nx", "60", "--ny", "40", "--dt", "0.01",
                     "--t-final", "1.0", "--seed", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_passed"] is True
        assert set(report["checks"]) == {
            "cfl", "characteristics", "volterra_resolvent", "kernel_oracle",
            "kernel_boundary", "kernel_pde", "round_trip", "lyapunov"}
        assert all(entry["passed"] for entry in report["checks"].values())
        assert report["nx"] == 60 and report["seed"] == 3
        out = capsys.readouterr().out
        assert "all checks passed" in out

    @pytest.mark.parametrize("grid", [
        ["--nx", "40", "--ny", "16", "--dt", "0.01", "--t-final", "1.0"],
        ["--nx", "30", "--ny", "12", "--dt", "0.02", "--t-final", "1.0"]],
        ids=["ny16", "ny12"])
    def test_coarse_grids_pass(self, tmp_path, grid):
        """The kernel oracle's tolerance grows with the y-quadrature error
        on coarse y-grids, up to 0.25, so the solver passes there."""
        assert main(["verify"] + grid + ["--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        oracle = report["checks"]["kernel_oracle"]
        assert oracle["tolerance"] == 0.25
        assert oracle["passed"] is True

    @pytest.mark.parametrize("grid, factor", [
        (["--nx", "40", "--ny", "16", "--dt", "0.01", "--t-final", "1.0"],
         1.5),
        ([], 1.1)], ids=["ny16", "default"])
    def test_scaled_kernel_fails_the_oracle(self, tmp_path, monkeypatch,
                                            grid, factor):
        """A solved k scaled by 1.5 on the coarse grid, or by 1.1 at the
        defaults, where the tolerance is 0.02 * (59 / 119)**2, fails the
        kernel oracle, and verify exits 5."""
        def scaled(*args, **kwargs):
            sol = solve_backstepping_kernels(*args, **kwargs)
            return dataclasses.replace(
                sol, coords=factor * sol.coords,
                diagonal_rows=factor * sol.diagonal_rows)

        monkeypatch.setattr(cli, "solve_backstepping_kernels", scaled)
        assert main(["verify"] + grid + ["--out", str(tmp_path)]) == 5
        oracle = json.loads(
            (tmp_path / "verify.json").read_text())["checks"]["kernel_oracle"]
        assert oracle["passed"] is False
        if not grid:
            assert oracle["tolerance"] == 0.02 * (59.0 / 119.0) ** 2

    def test_cfl_failure_exits_5(self, tmp_path):
        code = main(["verify", "--nx", "60", "--ny", "40", "--dt", "0.05",
                     "--out", str(tmp_path)])
        assert code == 5
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_passed"] is False
        assert report["checks"]["cfl"]["passed"] is False
        assert report["checks"]["lyapunov"]["note"].startswith("skipped")


class TestEntryPoints:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_module_run_does_not_warn(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "ensemble_backstep.cli", "--help"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "usage:" in proc.stdout
        assert "Warning" not in proc.stderr

    def test_import_leaves_scipy_unloaded(self):
        """The package needs no scipy: the CLI and the simulators start
        without it."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, ensemble_backstep.cli; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("args", [
        ["kernels", "--nx", "20", "--ny", "8"],
        ["simulate", "--mode", "target", "--nx", "20", "--ny", "8",
         "--t-final", "0.2"]], ids=["kernels", "simulate-target"])
    def test_solve_and_simulation_leave_scipy_unloaded(self, tmp_path, args):
        """A kernel solve, and a cascade run on the kernels it solves, load
        no scipy module."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        script = ("import sys\n"
                  "from ensemble_backstep.cli import main\n"
                  f"code = main({args + ['--out', str(tmp_path)]!r})\n"
                  "print(code, sorted(m for m in sys.modules\n"
                  "                   if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"


class TestDeterminism:
    @staticmethod
    def _run_cli(args, out_dir, threads):
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-m", "ensemble_backstep.cli", *args,
             "--out", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return out_dir

    def test_byte_identical_outputs_across_thread_caps(self, tmp_path):
        sim_args = ["simulate", "--nx", "40", "--ny", "24", "--dt", "0.02",
                    "--t-final", "0.3", "--mode", "closed",
                    "--snapshots", "0.1", "--seed", "7"]
        a = self._run_cli(sim_args, tmp_path / "sim1", threads=1)
        b = self._run_cli(sim_args, tmp_path / "sim8", threads=8)
        for name in ("timeseries.csv", "summary.json", "snap_0.1.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

        ker_args = ["kernels", "--nx", "20", "--ny", "12"]
        c = self._run_cli(ker_args, tmp_path / "ker1", threads=1)
        d = self._run_cli(ker_args, tmp_path / "ker8", threads=8)
        for name in ("kernels.csv", "kernels.json"):
            assert (c / name).read_bytes() == (d / name).read_bytes(), name
