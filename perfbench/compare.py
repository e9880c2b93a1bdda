#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by end-to-end metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records that ``run.py`` appended to its ``runs.jsonl``;
untraced full-size records are used. For every workload and end-to-end
metric it prints each side's median and quartiles, the share of paired
runs the change wins (runs pair by seed; ties count for neither side), and
a verdict:

- ``worse-than-bound``: the change's median is worse than the base's by
  more than the metric's bound in BENCHMARK.json;
- ``better``: the change wins at least 9 in 10 pairs and the medians
  differ by more than the base's quartile spread;
- ``unresolved``: the run-to-run spread is wider than the bound and not
  every change run beats every base run;
- ``within-bound``: none of the above.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{workload: {seed: {metric: value}}} from untraced full-size records."""
    out = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("trace") == 0 and rec.get("size") == "full":
                out[rec["workload"]][rec["seed"]] = {
                    k: m["value"] for k, m in rec["metrics"].items()}
                out[rec["workload"]][rec["seed"]]["_failed"] = rec["failed"]
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better: str, bound: float) -> tuple[str, float, float]:
    """(verdict, change-over-base win share, worsening as a share of base median)."""
    sign = 1.0 if better == "lower" else -1.0  # positive = worse
    b1, bm, b3 = quartiles(list(base.values()))
    c1, cm, c3 = quartiles(list(change.values()))
    seeds = sorted(set(base) & set(change))
    wins = sum(sign * (change[s] - base[s]) < 0 for s in seeds)
    share = wins / len(seeds) if seeds else float("nan")
    worse = sign * (cm - bm) / bm
    spread = max((b3 - b1) / bm, (c3 - c1) / cm)
    if better == "lower":
        all_better = max(change.values()) < min(base.values())
    else:
        all_better = min(change.values()) > max(base.values())
    if worse > bound:
        v = "worse-than-bound"
    elif seeds and share >= 0.9 and abs(cm - bm) > (b3 - b1):
        v = "better"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "within-bound"
    return v, share, worse


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["end_to_end"]
    base, change = load(argv[0]), load(argv[1])
    print(f"{'workload':<13} {'metric':<12} {'base median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'pairs':>5} {'wins':>5} {'worse':>7}  verdict")
    for wl in sorted(set(base) & set(change)):
        for side, runs in (("base", base[wl]), ("change", change[wl])):
            failed = sum(r["_failed"] for r in runs.values())
            if failed:
                print(f"{wl}: {failed} failed operations in the {side} runs")
        for m in metrics:
            name = m["name"]
            b = {s: r[name] for s, r in base[wl].items() if name in r}
            c = {s: r[name] for s, r in change[wl].items() if name in r}
            if not b or not c:
                continue
            v, share, worse = verdict(b, c, m["better"], m["bound"])
            cols = []
            for side in (b, c):
                q1, q2, q3 = quartiles(list(side.values()))
                cols.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}]")
            pairs = len(set(b) & set(c))
            note = "" if pairs >= 10 else "  (fewer than 10 pairs)"
            print(f"{wl:<13} {name:<12} {cols[0]:<32} {cols[1]:<32} {pairs:>5} "
                  f"{share:>5.0%} {worse:>+7.1%}  {v}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
