"""The package names the benchmark in ``perfbench/`` calls still exist.

``perfbench/smoke.py`` runs every workload end to end and is too slow for
this suite; these checks only build what the benchmark looks up by name.
"""

import importlib
import sys
from pathlib import Path

import pytest

from vmmecap import dists
from vmmecap.config import load_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
KINDS = ("exponential", "uniform", "trunc_lognormal", "trunc_pareto",
         "geometric_count", "gpd", "constant")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("probes")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_lib_finds_every_wrapped_function(perfbench):
    tracing, _ = perfbench
    lib = tracing.Lib()
    for module, names in tracing.LAYER_FUNCS.values():
        for name in names:
            assert getattr(lib, name) is getattr(module, name)
    traced = tracing.Lib(tracing.Tracer())
    assert traced.mean(dists.constant(2.0)) == 2.0


def test_config_laws_cover_every_kind(perfbench):
    _, probes = perfbench
    laws = probes.config_laws(load_config())
    assert sorted(laws) == sorted(KINDS)
    for kind, law in laws.items():
        assert isinstance(law, dists.Dist) and law.kind == kind


def test_scenario_holds_the_keys_perfbench_reads():
    # perfbench/probes.py reads mtcd_per_ue in code no other test runs
    assert {"t_i_s", "service_law", "mtcd_per_ue"} <= set(load_config().scenario)
