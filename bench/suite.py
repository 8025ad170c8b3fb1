"""Every workload in one command, and comparison of two results files.

    python3 bench/suite.py [--seed 0] [--seconds 5] [--out FILE]
    python3 bench/suite.py --compare OLD.json NEW.json

The first form runs each workload untraced and then traced, one process at a
time, prints every metric by name with its unit, and writes a results file
(default ``.bench_run/BENCH_<utc time>.json``) stamped with the machine,
the library versions and the package's thread variables.  The second form
prints each workload's failed/attempted operations and each end-to-end
metric's change against the bound BENCHMARK.json fixes for it, and exits 1
when NEW fails more, is not correct or is worse beyond a bound; it refuses
(exit 2) two files stamped differently, because their figures come from
different machines or builds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness
from run import report
from workloads import WORKLOADS


def run_suite(seed: int, seconds: float) -> dict:
    results = {"seed": seed, "seconds": seconds, "stamp": None, "workloads": {}}
    for name, workload in WORKLOADS.items():
        entry = {}
        for trace in (False, True):
            record = harness.run_workload(workload, seed, seconds, trace)
            summary = harness.summarize(record)
            report(record, summary)
            if results["stamp"] is None:
                results["stamp"] = record["stamp"]
            elif record["stamp"] != results["stamp"]:
                raise RuntimeError("environment changed during the suite")
            entry["traced" if trace else "untraced"] = {
                "inputs": record["inputs"], "figures": harness.figures(record),
                **summary}
        results["workloads"][name] = entry
    return results


def compare(old: dict, new: dict, bounds: dict) -> int:
    """Print each workload's failures and each end-to-end metric's change.

    Returns 2 if the stamps differ; 1 if NEW fails more operations than
    OLD, is not correct, or worsens a metric beyond its bound; else 0.
    """
    if old["stamp"] != new["stamp"]:
        differ = sorted(k for k in set(old["stamp"]) | set(new["stamp"])
                        if old["stamp"].get(k) != new["stamp"].get(k))
        print(f"refusing to compare: stamps differ in {', '.join(differ)}",
              file=sys.stderr)
        return 2
    worse = False
    for name in sorted(set(old["workloads"]) & set(new["workloads"])):
        before = old["workloads"][name]["untraced"]
        after = new["workloads"][name]["untraced"]
        more_failed = (after["failed"] / after["attempted"]
                       > before["failed"] / before["attempted"])
        flag = (" MORE FAILED" if more_failed
                else "" if after["correct"] else " NOT CORRECT")
        worse = worse or bool(flag)
        print(f"{name} ops_failed: {before['failed']}/{before['attempted']} -> "
              f"{after['failed']}/{after['attempted']}{flag}")
        for metric in bounds:
            a, b = before["metrics"][metric]["value"], after["metrics"][metric]["value"]
            if a is None or b is None:
                print(f"{name} {metric}: missing")
                worse = worse or b is None
                continue
            change = b / a - 1.0
            beyond = change > bounds[metric]
            worse = worse or beyond
            print(f"{name} {metric}: {a:.6g} -> {b:.6g} "
                  f"{after['metrics'][metric]['unit']} ({change:+.1%}; bound "
                  f"{bounds[metric]:.0%}) {'WORSE beyond bound' if beyond else 'within bound'}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--out", help="results file to write")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
        files = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                files.append(json.load(fh))
        return compare(*files, bounds)
    try:
        results = run_suite(args.seed, args.seconds)
    except harness.ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    out = args.out or str(harness.ROOT / ".bench_run" / time.strftime(
        "BENCH_%Y%m%dT%H%M%SZ.json", time.gmtime()))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
