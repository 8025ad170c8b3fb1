"""Runs one workload: set-up probes, timed operations, gates, metrics.

Every probe and operation is a fresh interpreter (``child.py``) pinned to one
thread, and only one runs at a time.  Times are rescaled to a fixed host
speed (``speed.py``): ``wall_s`` and ``setup_s`` are the raw times (kept as
``wall_raw_s`` and ``setup_raw_s`` in the record) times the child's speed
factor, with the time the speed samples took taken out of ``wall_s``.

Each operation writes into its own temporary directory under ``.bench_run/``
at the root of the checkout, which is deleted as soon as its gate has read
the outputs.  An operation that exits non-zero or fails its gate counts as
failed and its times are left out.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
from child import THREAD_VARS
from workloads import Workload, cli_argv, gate, seeded_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"

#: Measured set-up probes per untraced run; one more runs first, unmeasured,
#: so that bytecode caches and the page cache are warm.
SETUP_PROBES = 5

#: Every run ends within this many seconds of its start.
RUN_LIMIT_S = 170.0

#: End-to-end metrics and their units, in the order BENCHMARK.json lists them.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "gate_ratio": "ratio"}


class ProgramMissing(RuntimeError):
    """The checkout holds no package source to benchmark."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    return {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}


def _spawn(task: dict, timeout: float) -> tuple[int, float, dict, str]:
    """Run one child; returns (exit code, wall seconds, result, stderr)."""
    task["t_spawn"] = _now()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(task)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=_child_env(), cwd=ROOT, timeout=max(timeout, 1.0))
        rc, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        rc, stderr = -9, f"killed after {timeout:.0f} s"
    wall = _now() - task["t_spawn"]
    try:
        with open(os.path.join(task["op_dir"], "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {}
    return rc, wall, result, stderr


def _dir_mb(path: str) -> float:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file()) / 2**20


@dataclass(frozen=True)
class _Run:
    """What every child of one run shares."""

    workload: Workload
    inputs: dict
    src: Path
    work: Path
    deadline: float

    def child(self, kind: str, traced: bool = False) -> dict:
        """One set-up probe (``kind="setup"``) or operation, gated."""
        op_dir = tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=self.work)
        try:
            out_dir = os.path.join(op_dir, "out")
            task = {"task": kind, "src": str(self.src), "op_dir": op_dir,
                    "workload": vars(self.workload), "inputs": self.inputs,
                    "trace": traced}
            if kind == "op" and self.workload.kind != "library":
                task["argv"] = cli_argv(self.workload, self.inputs, out_dir,
                                        os.path.join(op_dir, "run.cfg"))
            rc, wall, result, stderr = _spawn(task, self.deadline - _now())
            record = {"rc": rc, "wall_raw_s": wall, "traced": traced,
                      "speed": result.get("speed"),
                      "thread_env": result.get("thread_env")}
            if kind == "setup":
                record["passed"] = rc == 0 and "setup_s" in result and "speed" in result
                if record["passed"]:
                    record["setup_raw_s"] = result["setup_s"]
                    record["setup_s"] = result["setup_s"] * result["speed"]
            elif rc == 0 and result:
                if not traced:
                    record["wall_s"] = (wall - result["sampler_s"]) * result["speed"]
                record.update(gate(self.workload, out_dir, result))
                record["peak_rss_mb"] = result["maxrss_mb"]
                record["output_mb"] = _dir_mb(out_dir) if os.path.isdir(out_dir) else 0.0
                record["spans"] = result.get("spans")
            else:
                record["passed"] = False
            if not record["passed"]:
                record["stderr"] = stderr[-2000:]
            return record
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 root: Path = ROOT) -> dict:
    """Run one workload for ``seconds`` of operations; returns the record.

    Untraced runs time set-up probes and then operations until ``seconds``
    have passed (at least one).  Traced runs skip the probes and end with one
    traced operation, whose spans give the per-layer metrics.
    """
    src = root / "src"
    if not (src / "ensemble_backstep" / "__init__.py").is_file():
        raise ProgramMissing(f"no package source under {src}")
    work = root / ".bench_run"
    work.mkdir(exist_ok=True)
    start = _now()
    run = _Run(workload, seeded_inputs(workload, seed), src, work,
               start + RUN_LIMIT_S)

    probes = []
    if not trace:
        run.child("setup")
        probes = [run.child("setup") for _ in range(SETUP_PROBES)]
    ops = []
    ops_start = _now()
    while not ops or _now() - ops_start < seconds:
        longest = max(op["wall_raw_s"] for op in ops) if ops else 0.0
        reserve = 2.5 * longest if trace else 1.2 * longest
        if ops and run.deadline - _now() < reserve:
            break
        ops.append(run.child("op"))
    if trace:
        ops.append(run.child("op", traced=True))
    return {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, "inputs": run.inputs, "probes": probes, "ops": ops,
            "stamp": env_stamp(next((r["thread_env"] for r in probes + ops
                                     if r.get("thread_env")), None))}


def _median(values):
    return statistics.median(values) if values else None


def summarize(record: dict) -> dict:
    """The benchmark's result line for one run record."""
    ops = record["ops"]
    failed = sum(not op["passed"] for op in ops + record["probes"])
    timed = [op for op in ops if op["passed"] and not op["traced"]]
    if record["trace"]:
        traced = ops[-1]
        metrics = dict.fromkeys(tracing.LAYER_METRICS)
        if traced["passed"]:
            metrics.update(tracing.layer_metrics(traced["spans"]))
            metrics["cli.output_mb"] = traced["output_mb"]
            untraced = _median([op["wall_raw_s"] for op in timed])
            metrics["trace.overhead_s"] = (None if untraced is None
                                           else traced["wall_raw_s"] - untraced)
        units = tracing.LAYER_METRICS
    else:
        metrics = {
            "wall_s": _median([op["wall_s"] for op in timed]),
            "setup_s": _median([p["setup_s"] for p in record["probes"] if p["passed"]]),
            "peak_rss_mb": _median([op["peak_rss_mb"] for op in timed]),
            "gate_ratio": _median([op["gate_ratio"] for op in timed]),
        }
        units = END_TO_END
    correct = failed == 0 and all(v is not None for v in metrics.values())
    return {"correct": correct, "attempted": len(ops) + len(record["probes"]),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def figures(record: dict) -> dict:
    """Each named accuracy figure over the passing operations (low median)."""
    named: dict[str, list] = {}
    for op in record["ops"]:
        if op["passed"]:
            for key, value in op["figures"].items():
                named.setdefault(key, []).append(value)
    return {key: statistics.median_low(values) for key, values in named.items()}


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp(thread_env: dict | None) -> dict:
    """Machine, library versions and the thread variables the package pins."""
    caches = _cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "thread_env": thread_env,
    }
