#!/usr/bin/env python3
"""Benchmark of the vmmecap toolkit: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout; the package is imported from
its ``src/``. ``--trace 0`` times passes of the workload for S seconds,
each followed by a sample of a fixed reference workload that scales the
times for the host's speed (see REF_SAMPLE_S), and prints the end-to-end
metrics. ``--trace 1`` times untraced passes for S/2
seconds, then one traced pass and the layer probes, and prints the
per-layer metrics. Both print, as the last line of standard output,
``{"correct", "attempted", "failed", "metrics"}``, and append a full record
with provenance to ``perfbench/results/runs.jsonl``. Metric names, units
and bounds are in ``BENCHMARK.json``; README.md beside this file explains
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import bootstrap
import numpy as np
import scipy
import vmmecap
from vmmecap.config import load_config

import probes
import workloads
from tracing import BENCH, LAYERS, Lib, Tracer

SETUP_REPS = 5  # fresh-interpreter set-ups per run; setup_s is their median
# The traced sweep ends with the probes at this share of their size, once
# each: it gives every layer a span on every workload at little cost.
TRACED_PROBE_SCALE = 0.1
RESULTS = bootstrap.HERE / "results"
# The host's speed swings by up to 1.9x, in states that last from seconds to
# minutes, and such a swing moved the median of ten runs of the same code by
# 29%. So every timed pass and set-up sits between two samples of a fixed
# reference workload that runs no vmmecap code, and `wall_s` and `setup_s`
# are raw times scaled by the reference samples beside them: seconds on a
# host on which one sample takes REF_SAMPLE_S, about its median on a 2-vCPU
# x86-64 VM. The raw times are kept in the run's record.
REF_SAMPLE_S = 0.6
REF_LOOPS = 50  # event loops in one reference sample
REF_SORTS = 24  # array sorts in one reference sample


def reference_loop() -> float:
    """A three-stage FIFO event loop on a heap: the queue kernel's kind of work."""
    rng = np.random.default_rng(0)
    events = [(t, i, 0) for i, t in enumerate(rng.random(2000).cumsum().tolist())]
    free, acc = 0.0, 0.0
    while events:
        t, i, stage = heapq.heappop(events)
        if stage < 2:
            free = max(free, t) + 0.4
            heapq.heappush(events, (free, i, stage + 1))
        else:
            acc += t
    return acc


def reference_sort() -> float:
    """Draw and sort 8 MB of floats in place: bound by cache and memory."""
    v = np.random.default_rng(0).random(1_000_000)
    v.sort()
    return float(v[-1])


def reference_s() -> float:
    """Time of one reference sample: interpreter-bound loops, then sorts.

    Of the kernels tried, the mix of the two tracked the speed of both
    simulation workloads as the host's speed changed as well as any.
    """
    t0 = time.perf_counter()
    for _ in range(REF_LOOPS):
        reference_loop()
    for _ in range(REF_SORTS):
        reference_sort()
    return time.perf_counter() - t0


def scaled(raw: list[float], refs: list[float]) -> float:
    """Mean of the raw times, scaled by the reference samples beside them.

    ``refs[i]`` and ``refs[i + 1]`` are the samples before and after
    ``raw[i]``; each time is weighed against their mean.
    """
    beside = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    return REF_SAMPLE_S * sum(raw) / sum(beside[:len(raw)])


def measure_setup(workload: str, seed: int, size: str, reps: int,
                  refs: list[float]) -> list[dict]:
    """Start the set-up child `reps` times; time each up to its ready line.

    A reference sample follows each start; `refs` must hold the one before
    the first.
    """
    out = []
    child = str(bootstrap.HERE / "setup_child.py")
    for _ in range(reps):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, child, workload, str(seed), size],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or not line:
                raise RuntimeError(f"set-up child exited with {proc.returncode}")
        refs.append(reference_s())
        rec = json.loads(line)
        rec["wall_s"] = wall
        rec["scaled_s"] = scaled([wall], refs[-2:])
        out.append(rec)
    return out


def run_pass(pass_, lib, tracer: Tracer | None = None):
    """Run every op once; returns (pass wall s, op times, outputs, errors)."""
    if pass_.before is not None:
        pass_.before()
    times, outs, errors = [], [], []
    t_pass = time.perf_counter()
    for op in pass_.ops:
        t0 = time.perf_counter()
        try:
            out = op.run(lib) if tracer is None else tracer.operation(op.name, op.run, lib)
            err = None
        except Exception:  # an op that raises is a failed op, not a failed run
            out, err = None, traceback.format_exc(limit=3)
        times.append(time.perf_counter() - t0)
        outs.append(out)
        errors.append(err)
    return time.perf_counter() - t_pass, times, outs, errors


def check_pass(pass_, outs, errors) -> list[str | None]:
    """Per-op failure reason (None when correct), run after the timed pass."""
    return [err if err is not None else op.check(out)
            for op, out, err in zip(pass_.ops, outs, errors)]


def provenance(cfg, seed: int) -> dict:
    root = bootstrap.ROOT
    sha = None  # stays None in a checkout that is not a git repository
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode())
        src.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_digest": src.hexdigest()[:16],
        "seed": seed,
        "config_digest": cfg.digest,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "vmmecap": vmmecap.__version__,
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full", setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """Run one benchmark; returns (result line, full record)."""
    sizes = workloads.SIZES[size]
    cfg = load_config()
    pass_ = workloads.WORKLOADS[workload](cfg, seed, sizes)
    reference_loop(), reference_sort()  # warm-up
    setup_refs = [reference_s()]
    setups = measure_setup(workload, seed, size, setup_reps, setup_refs)
    if any(s["config_digest"] != cfg.digest for s in setups):
        raise RuntimeError("set-up child loaded a different configuration")

    lib = Lib()
    walls, rates, op_times, reasons = [], [], [], []
    refs = setup_refs[-1:]  # the last set-up sample precedes the first pass
    budget = seconds / 2 if trace else seconds
    t_start = time.perf_counter()
    # start another pass only if it and its reference sample should end
    # within the budget
    while not walls or (time.perf_counter() - t_start + statistics.median(walls)
                        + refs[-1] <= budget):
        gc.collect()
        wall, times, outs, errors = run_pass(pass_, lib)
        walls.append(wall)
        op_times.extend(times)
        reasons.extend(check_pass(pass_, outs, errors))
        work = sum(op.work(o) for op, o in zip(pass_.ops, outs) if o is not None)
        rates.append(work / wall)
        del outs
        refs.append(reference_s())

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "size": size, "unit_of_work": pass_.unit,
              "provenance": provenance(cfg, seed),
              "passes": len(walls), "pass_wall_s": walls, "ref_s": refs,
              "setup_ref_s": setup_refs, "setup": setups}
    untraced_s = scaled(walls, refs)
    record["raw_wall_s"] = statistics.median(walls)
    record["raw_setup_s"] = statistics.median(s["wall_s"] for s in setups)
    record["work_per_s"] = statistics.median(rates)
    record["op_p50_ms"] = statistics.median(op_times) * 1e3
    if len(op_times) >= 1000:  # p99 has at least ten samples beyond it
        record["op_p99_ms"] = float(np.percentile(op_times, 99)) * 1e3
    if not trace:
        metrics = {
            "setup_s": statistics.median(s["scaled_s"] for s in setups),
            "wall_s": untraced_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        metrics = {f"setup.{k}": statistics.median(s[k] for s in setups)
                   for k in ("import_s", "config_s", "inputs_s")}
        metrics.update(probes.run_probes(lib, cfg, sizes, sizes["probe_scale"]))
        gc.collect()
        tracer = Tracer()
        traced_lib = Lib(tracer)
        before = reference_s()
        traced_wall, times, outs, errors = run_pass(pass_, traced_lib, tracer)
        traced_s = scaled([traced_wall], [before, reference_s()])
        op_times.extend(times)
        reasons.extend(check_pass(pass_, outs, errors))
        del outs
        pass_self = tracer.self_times()
        t0 = time.perf_counter()
        tracer.operation("probes", probes.run_probes, traced_lib, cfg, sizes,
                         sizes["probe_scale"] * TRACED_PROBE_SCALE, 1)
        sweep_wall = traced_wall + time.perf_counter() - t0
        sweep_self = tracer.self_times()
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sweep_self[layer]
        c = tracer.counts
        metrics["triggers.triggers_out"] = c["triggers.triggers_out"]
        metrics["triggers.useful_frac"] = (c["triggers.device_s_useful"]
                                           / c["triggers.device_s_simulated"])
        metrics["queuesim.messages"] = c["queuesim.messages"]
        metrics["queuesim.max_backlog"] = c["queuesim.max_backlog"]
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        metrics["trace.unattributed_frac"] = sweep_self[BENCH] / sweep_wall
        record["traced_pass_wall_s"] = traced_wall
        record["pass_self_s"] = pass_self
        record["span_count"] = len(tracer.spans)
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"spans-{workload}-seed{seed}.jsonl")

    failures = [r for r in reasons if r is not None]
    record["failures"] = sorted(set(failures))[:10]
    units = declared_units()
    result = {"correct": not failures, "attempted": len(reasons),
              "failed": len(failures),
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    record.update(result)
    return result, record


def declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(bootstrap.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_summary(record: dict) -> None:
    """Human-readable account of the run, on standard error."""
    err = sys.stderr
    print(f"{record['workload']} seed={record['seed']} passes={record['passes']} "
          f"ops={record['attempted']} failed={record['failed']} "
          f"work_per_s={record['work_per_s']:.6g} ({record['unit_of_work']}) "
          f"op_p50_ms={record['op_p50_ms']:.6g}", file=err)
    print(f"  raw medians: pass {record['raw_wall_s']:.4f} s, set-up "
          f"{record['raw_setup_s']:.4f} s, reference sample "
          f"{statistics.median(record['ref_s']):.4f} s (REF_SAMPLE_S {REF_SAMPLE_S} s)",
          file=err)
    for reason in record["failures"]:
        print(f"  FAIL: {reason}", file=err)
    if "pass_self_s" in record:
        wall = record["traced_pass_wall_s"]
        print(f"  traced pass {wall:.4f} s; self time by layer:", file=err)
        for layer, s in sorted(record["pass_self_s"].items(), key=lambda kv: -kv[1]):
            if s > 0:
                print(f"    {layer:<10} {s:10.4f} s  {s / wall:6.1%}", file=err)
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print_summary(record)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
