"""The package names the benchmark in ``perfbench/`` calls still exist.

``perfbench/smoke.py`` runs every workload end to end and is too slow for
this suite; these checks build what the benchmark looks up by name, and run
the two gated workloads and the layer probes once at the smoke size.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

from vmmecap import dists, queueing, workload
from vmmecap.config import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
KINDS = ("exponential", "uniform", "trunc_lognormal", "trunc_pareto",
         "geometric_count", "gpd", "constant")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield (importlib.import_module("tracing"), importlib.import_module("probes"),
               importlib.import_module("workloads"))
    finally:
        sys.path.remove(str(PERFBENCH))


def test_lib_finds_every_wrapped_function(perfbench):
    tracing, _, _ = perfbench
    lib = tracing.Lib()
    for module, names in tracing.LAYER_FUNCS.values():
        for name in names:
            assert getattr(lib, name) is getattr(module, name)
    traced = tracing.Lib(tracing.Tracer())
    assert traced.mean(dists.constant(2.0)) == 2.0


def test_config_laws_cover_every_kind(perfbench):
    _, probes, _ = perfbench
    laws = probes.config_laws(load_config())
    assert sorted(laws) == sorted(KINDS)
    for kind, law in laws.items():
        assert isinstance(law, dists.Dist) and law.kind == kind


def test_scenario_holds_the_keys_perfbench_reads():
    # perfbench/probes.py reads mtcd_per_ue in code no other test runs
    assert {"t_i_s", "service_law", "mtcd_per_ue"} <= set(load_config().scenario)


@pytest.mark.parametrize("m", [None, 3])
def test_queueing_names_the_workloads_call(m):
    # perfbench/workloads.py calls these two outside `Lib`, in checks no other
    # test runs: with the configured m and with an explicit one
    cfg = load_config()
    ti = cfg.scenario["t_i_s"]
    rates = workload.aggregate_rates(workload.htc_rates(cfg.mix, cfg.geom, ti),
                                     workload.mtc_rates(cfg.mmpp, ti), 1000, 1000)
    t_sl = queueing.weighted_sl_service_time(rates, cfg.queue.sl_times)
    total = queueing.response_at(rates.lam_total_msgs, t_sl, cfg.queue, m)[0]
    assert isinstance(total, float) and math.isfinite(total) and total > 0


@pytest.mark.parametrize("name, counted", [
    ("rates_sim", ("triggers.triggers_out",)),
    ("simulate_mtc", ("triggers.triggers_out", "queuesim.messages")),
], ids=["rates_sim", "simulate_mtc"])
def test_gated_workloads_run_traced(perfbench, name, counted):
    # as `perfbench/run.py --trace 1` runs an op: through a traced `Lib`, so
    # the tracer reads the counts off each result, then the op's own check
    tracing, _, workloads = perfbench
    pass_ = workloads.WORKLOADS[name](load_config(), 1, workloads.SIZES["smoke"])
    tracer = tracing.Tracer()
    lib = tracing.Lib(tracer)
    for op in pass_.ops:
        out = tracer.operation(op.name, op.run, lib)
        assert op.check(out) is None
    for key in counted:
        assert tracer.counts[key] > 0


def test_probes_give_finite_metrics(perfbench):
    tracing, probes, workloads = perfbench
    size = workloads.SIZES["smoke"]
    out = probes.run_probes(tracing.Lib(), load_config(), size,
                            scale=size["probe_scale"], reps=1)
    assert out and all(math.isfinite(v) for v in out.values())
