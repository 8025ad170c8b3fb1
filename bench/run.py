"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints each metric by name with its unit,
the accuracy figures the gate read, and the failure count, then as its last
line one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The full record, with the environment stamp and, when
traced, every span, goes to ``.bench_run/results/``.  Exits 2 without a
result when the checkout holds no package source.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
from workloads import WORKLOADS


def write_record(record: dict, summary: dict) -> str:
    out = harness.ROOT / ".bench_run" / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / (f"{record['workload']}-seed{record['seed']}-"
                  f"trace{int(record['trace'])}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**record, "summary": summary}, fh, indent=1)
    return str(path)


def report(record: dict, summary: dict) -> None:
    """Human-readable lines: metrics, accuracy figures, failures."""
    name = record["workload"]
    for metric, entry in summary["metrics"].items():
        print(f"{name} {metric} = {entry['value']} {entry['unit']}")
    for figure, value in harness.figures(record).items():
        print(f"{name} {figure} = {value}")
    print(f"{name} ops_failed = {summary['failed']}/{summary['attempted']}")
    for op in record["ops"] + record["probes"]:
        if not op["passed"]:
            print(f"{name}: failed run (exit {op['rc']}): "
                  f"{op.get('checks') or op.get('stderr', '').strip()[-300:]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        record = harness.run_workload(WORKLOADS[args.workload], args.seed,
                                      args.seconds, bool(args.trace))
    except harness.ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    summary = harness.summarize(record)
    report(record, summary)
    print(f"record: {write_record(record, summary)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
