#!/usr/bin/env python3
"""Smoke self-test of the benchmark: every workload, tiny inputs, both modes.

    python3 perfbench/smoke.py

Checks that each run prints exactly the metrics BENCHMARK.json names, each
a finite number, and that every operation's output check passes. It makes
no claim about speed and has no timing thresholds.
"""

import json
import math
import sys

import bootstrap
import run
import workloads


def main() -> int:
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = [f"{w['name']}: no such workload" for w in spec["workloads"]
                if w["name"] not in workloads.WORKLOADS]
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result, _ = run.run(name, seed=1, seconds=0.01, trace=bool(trace),
                                size="smoke", setup_reps=1)
            where = f"{name} --trace {trace}"
            got = set(result["metrics"])
            if got != declared[trace]:
                problems.append(f"{where}: missing {sorted(declared[trace] - got)}, "
                                f"undeclared {sorted(got - declared[trace])}")
            bad = [k for k, m in result["metrics"].items()
                   if not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{where}: non-finite {bad}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            print(f"{where}: {len(got)} metrics, {result['attempted']} ops, "
                  f"{result['failed']} failed", flush=True)
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
