"""Tests of the benchmark's own code, on grids small enough to run in seconds.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
import speed  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The smallest grids on which every gate still holds.
TINY = {
    "kernels-default": {"nx": 100, "ny": 60},
    "target-default": {"nx": 60, "ny": 40, "dt": 0.01},
    "open-default": {"nx": 60, "ny": 40, "dt": 0.01},
    "ydep-kernels": {"nx": 20, "ny": 12},
}

# Per-layer metrics that must be positive on each workload: the layers the
# workload is there to measure.
REACHED = {
    "kernels-default": ("characteristics.trace_s", "grid.stencil_points",
                        "kernelsolve.assembly_s", "kernelsolve.sweep_s",
                        "kernelsolve.operator_nnz_computed",
                        "kernelsolve.residual_s", "cli.self_s", "cli.output_mb"),
    "target-default": ("kernelsolve.sweeps", "volterra.resolvent_terms",
                       "volterra.kappa_s", "simulator.step_target_ms",
                       "simulator.step_target_p99_ms", "simulator.driver_self_s",
                       "simulator.forward_transform_s", "simulator.recipe_s"),
    "open-default": ("simulator.step_plant_ms", "simulator.steps",
                     "simulator.driver_self_s"),
    "ydep-kernels": ("characteristics.curves", "characteristics.samples",
                     "kernelsolve.sweeps", "kernelsolve.operator_nnz_computed"),
}


@pytest.fixture(autouse=True)
def _one_probe(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)


def _run(workload, trace):
    record = harness.run_workload(workload, seed=1, seconds=0, trace=trace)
    return record, harness.summarize(record)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_grid_run_emits_every_metric(name):
    workload = dataclasses.replace(WORKLOADS[name], **TINY[name])

    record, summary = _run(workload, trace=False)
    assert summary["correct"], record
    assert summary["failed"] == 0
    assert list(summary["metrics"]) == list(harness.END_TO_END)
    assert all(m["value"] > 0 for m in summary["metrics"].values())

    record, summary = _run(workload, trace=True)
    assert summary["correct"], record
    layers = {k: m["value"] for k, m in summary["metrics"].items()}
    assert list(layers) == list(tracing.LAYER_METRICS)
    assert all(v is not None for v in layers.values())
    for metric in REACHED[name]:
        assert layers[metric] > 0, metric


def test_speed_factor_weights_each_sample_by_its_interval():
    sampler = speed.Sampler()
    # 1 s at the nominal speed, then 3 s in which the reference took twice
    # as long.
    sampler.samples = [(1.0, speed.NOMINAL_S), (4.0, 2 * speed.NOMINAL_S)]
    assert sampler.factor() == pytest.approx((1 * 1.0 + 3 * 0.5) / 4)


def test_sampler_samples_while_running_and_restores_the_signal():
    with speed.Sampler() as sampler:
        end = time.monotonic() + 0.6
        while time.monotonic() < end:
            pass
    # Two timer ticks and the closing sample.
    assert len(sampler.samples) >= 3
    assert sampler.spent_s >= sum(duration for _, duration in sampler.samples) > 0.0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_ydep_traces_one_crossing_family_per_ensemble_node():
    workload = dataclasses.replace(WORKLOADS["ydep-kernels"], **TINY["ydep-kernels"])
    _, summary = _run(workload, trace=True)
    calls = summary["metrics"]["characteristics.trace_calls"]["value"]
    assert calls == workload.ny + 1


def test_cfl_violation_counts_as_failed_without_crashing():
    workload = dataclasses.replace(WORKLOADS["open-default"], nx=60, ny=40, dt=0.1)
    record, summary = _run(workload, trace=False)
    assert [op["rc"] for op in record["ops"]] == [2] * len(record["ops"])
    assert summary["failed"] == len(record["ops"]) >= 1
    assert not summary["correct"]
    assert summary["metrics"]["wall_s"]["value"] is None


def test_missing_program_is_refused(tmp_path):
    with pytest.raises(harness.ProgramMissing):
        harness.run_workload(WORKLOADS["open-default"], 0, 0, False, root=tmp_path)


def test_benchmark_json_lists_the_metrics_and_workloads_emitted():
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


def _results(stamp, wall_s=1.0, failed=0, attempted=4):
    untraced = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}
    return {"stamp": stamp, "workloads": {"w": {"untraced": untraced}}}


def test_compare_refuses_results_from_another_machine(capsys):
    stamp = harness.env_stamp({"OMP_NUM_THREADS": "1"})
    results = _results(stamp)
    other = _results({**stamp, "cpu_model": "another CPU"})
    assert suite.compare(results, other, {"wall_s": 0.1}) == 2
    assert "cpu_model" in capsys.readouterr().err
    assert suite.compare(results, results, {"wall_s": 0.1}) == 0


def test_compare_flags_more_failures_and_worse_metrics(capsys):
    stamp = harness.env_stamp({"OMP_NUM_THREADS": "1"})
    old = _results(stamp)
    # Fewer timed operations pass, and the medians of those that do look fine.
    assert suite.compare(old, _results(stamp, wall_s=0.9, failed=1), {"wall_s": 0.1}) == 1
    assert "0/4 -> 1/4 MORE FAILED" in capsys.readouterr().out
    assert suite.compare(old, _results(stamp, wall_s=1.2), {"wall_s": 0.1}) == 1
    assert "WORSE beyond bound" in capsys.readouterr().out


def _bound(metric):
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}[metric]


def _kernels_ratio(tmp_path, rel_err=4.6e-4, res_ens=0.0306, res_scalar=8.8e-7):
    report = {"analytic_max_rel_error": rel_err, "iterations": 20,
              "residuals": {"ensemble_equation": res_ens,
                            "scalar_equation": res_scalar}}
    (tmp_path / "kernels.json").write_text(json.dumps(report))
    # The default grid: one row per triangle node and ensemble node.
    (tmp_path / "kernels.csv").write_text("h\n" + "0\n" * (201 * 202 // 2 * 120))
    verdict = workloads.gate(WORKLOADS["kernels-default"], str(tmp_path),
                             {"nx": 200, "ny": 120})
    assert verdict["passed"], verdict
    return verdict["gate_ratio"]


def _target_ratio(tmp_path, worst_growth):
    lyap = [1.0, 0.99]
    for growth in (-0.01, worst_growth, -0.02):
        lyap.append(lyap[-1] * (1.0 + growth))
    rows = "\n".join(f"{i},{v!r}" for i, v in enumerate(lyap))
    (tmp_path / "timeseries.csv").write_text(f"step,V_lyapunov\n{rows}\n")
    verdict = workloads.gate(WORKLOADS["target-default"], str(tmp_path), {})
    assert verdict["passed"], verdict
    return verdict["gate_ratio"]


def test_gate_ratio_follows_each_accuracy_figure(tmp_path):
    """A figure worsening well inside its tolerance moves the compared ratio
    beyond the bound, even when another check sets most of the ratio."""
    bound = _bound("gate_ratio")
    seed = _kernels_ratio(tmp_path)
    assert _kernels_ratio(tmp_path, rel_err=20 * 4.6e-4) / seed - 1 > bound
    assert _kernels_ratio(tmp_path, res_ens=1.1 * 0.0306) / seed - 1 > bound
    assert _kernels_ratio(tmp_path, rel_err=0.9 * 4.6e-4) <= seed
    seed = _target_ratio(tmp_path, -3.7e-3)
    assert _target_ratio(tmp_path, -3.3e-3) / seed - 1 > bound
    assert _target_ratio(tmp_path, 0.9e-3) > 10 * seed
