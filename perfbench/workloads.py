"""The benchmark's workloads: inputs built from a seed, operations, checks.

Each workload builds its inputs once (``build``), then runs the same pass
of operations as often as the run's time allows. An operation is one
workload point; it reaches the package only through a ``Lib`` (see
``tracing.py``), exactly as ``vmmecap.cli`` calls the library. Its check
runs after the pass, outside the timed region, against a tolerance fixed
from the acceptance criteria in ``tests/test_acceptance.py``. Why each
workload exists is in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from vmmecap import econ, queueing, workload
from vmmecap.errors import InstabilityError

SIZES = {
    # rates_sim: the check needs sampling error well under 2e-4 per point;
    # per-device spread falls steeply with T_I (README.md has the figures)
    "full": dict(rs_ti=(30.0, 60.0), rs_n_u=150, rs_n_d=2000, rs_horizon=2e4,
                 sm_n_d=20_000, sm_horizon=200.0,
                 qp_pairs=235_000, qp_horizon=8.0,
                 ps_m=10, ps_ti=6, ps_speed=6, ps_tmax=5, ps_pop=300,
                 probe_scale=1.0),
    # smoke: the smallest inputs on which the statistical checks still hold
    "smoke": dict(rs_ti=(60.0,), rs_n_u=30, rs_n_d=100, rs_horizon=2e4,
                  sm_n_d=200, sm_horizon=50.0,
                  qp_pairs=235_000, qp_horizon=2.0,
                  ps_m=3, ps_ti=2, ps_speed=1, ps_tmax=1, ps_pop=4,
                  probe_scale=0.02),
}

RMSE_TOL = 2e-4  # criterion 2
JACKSON_TOL = 0.05  # criterion 6


@dataclass
class Op:
    """One workload point: ``run(lib)`` does the work, ``check(out)`` judges it.

    ``check`` returns None when the output is correct, else the reason.
    ``work(out)`` is the op's size in the workload's unit of work.
    """

    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    work: Callable[[Any], float]


@dataclass
class Pass:
    ops: list[Op]
    unit: str  # what `Op.work` counts
    before: Callable[[], None] | None = None  # resets state a pass builds up


# ---------------------------------------------------------------------------
# rates_sim: `vmmecap rates --simulate` over a small T_I grid
# ---------------------------------------------------------------------------

def build_rates_sim(cfg, seed: int, size: dict) -> Pass:
    n_u, n_d, horizon = size["rs_n_u"], size["rs_n_d"], size["rs_horizon"]
    grid = size["rs_ti"]

    def run(lib):
        theory, sim = [], []
        for i, ti in enumerate(grid):
            theory.append((lib.htc_rates(cfg.mix, cfg.geom, ti)[0],
                           lib.mtc_rates(cfg.mmpp, ti)[0]))
            trace = lib.generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, n_u, n_d,
                                          ti, horizon, seed * 1000 + i,
                                          speed_dist=cfg.speed_dist)
            emp = lib.measured_rates(trace, n_u, n_d, horizon)
            sim.append((emp.lam_u_sr, emp.lam_s_sr))
        return np.array(theory), np.array(sim)

    def check(out):
        theory, sim = out
        rmse = np.sqrt(np.mean((theory - sim) ** 2, axis=0))
        if np.all(rmse <= RMSE_TOL):  # criterion 2
            return None
        return (f"RMSE(lam_u_sr)={rmse[0]:.3g}, RMSE(lam_s_sr)={rmse[1]:.3g} "
                f"> {RMSE_TOL:g}")

    return Pass([Op("rates_sim", run, check,
                    work=lambda out: len(grid) * (n_u + n_d) * horizon)],
                "device-seconds")


# ---------------------------------------------------------------------------
# simulate_mtc: `vmmecap simulate` at the CLI defaults, MTCD-only population
# ---------------------------------------------------------------------------

def build_simulate_mtc(cfg, seed: int, size: dict) -> Pass:
    n_d, horizon = size["sm_n_d"], size["sm_horizon"]
    ti = cfg.scenario["t_i_s"]
    law = cfg.scenario["service_law"]
    params = cfg.queue  # m = 1 by default

    def run(lib):
        trace = lib.generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 0, n_d, ti,
                                      horizon, seed, speed_dist=cfg.speed_dist)
        stats = lib.run_queue_sim(trace, params, service_law=law, seed=seed)
        emp = lib.measured_rates(trace, 0, n_d, horizon)
        return trace, stats, emp

    def check(out):
        trace, stats, emp = out
        if stats.n_messages != trace.n_messages:
            return f"n_messages {stats.n_messages} != trace {trace.n_messages}"
        t_sl = queueing.weighted_sl_service_time(emp, params.sl_times)
        ana = queueing.response_at(stats.empirical_lam_msgs, t_sl, params)[0]
        if not stats.mean_response_s <= ana:  # criterion 4
            return f"mean {stats.mean_response_s:.6g} s > analytic {ana:.6g} s"
        return None

    return Pass([Op("simulate_mtc", run, check,
                    work=lambda out: out[1].n_messages)], "messages")


# ---------------------------------------------------------------------------
# queue_pool: Poisson triggers into a dimensioned M/M/m pool near saturation
# ---------------------------------------------------------------------------

def queue_pool_rates(cfg, pairs: int):
    """Procedure rates of `pairs` UEs plus as many MTCDs at the default T_I."""
    ti = cfg.scenario["t_i_s"]
    return workload.aggregate_rates(workload.htc_rates(cfg.mix, cfg.geom, ti),
                                    workload.mtc_rates(cfg.mmpp, ti), pairs, pairs)


def build_queue_pool(cfg, seed: int, size: dict) -> Pass:
    rates = queue_pool_rates(cfg, size["qp_pairs"])
    m = queueing.dimension(rates, cfg.queue)
    if m < 2:
        raise ValueError(f"queue_pool needs a multi-server pool, dimension gave m={m}")
    params = replace(cfg.queue, m=m)
    t_sl = queueing.weighted_sl_service_time(rates, params.sl_times)
    horizon = size["qp_horizon"]

    def run(lib):
        trace = lib.poisson_triggers(rates.lam_sr, rates.lam_srr, rates.lam_hr,
                                     horizon, seed)
        return lib.run_queue_sim(trace, params, service_law="exponential",
                                 seed=seed)

    def check(stats):
        ana = queueing.response_at(stats.empirical_lam_msgs, t_sl, params)[0]
        err = abs(stats.mean_response_s - ana) / ana
        if err <= JACKSON_TOL:
            return None
        return f"mean {stats.mean_response_s:.6g} s vs M/M/{m} {ana:.6g} s: {err:.1%}"

    return Pass([Op(f"queue_pool.m{m}", run, check,
                    work=lambda stats: stats.n_messages)], "messages")


# ---------------------------------------------------------------------------
# plan_sweep: capacity / dimension / scalability sensitivity study
# ---------------------------------------------------------------------------

def _meets(cfg, lam, t_sl, m, t_max) -> bool:
    """Whether the chain meets t_max at message rate lam with m instances."""
    try:
        return queueing.response_at(lam, t_sl, cfg.queue, m)[0] <= t_max
    except InstabilityError:
        return False


def build_plan_sweep(cfg, seed: int, size: dict) -> Pass:
    rng = np.random.default_rng(seed)
    tis = np.round(rng.uniform(1.0, 30.0, size["ps_ti"]), 3)
    speeds = np.round(rng.uniform(0.5, 4.0, size["ps_speed"]), 3)  # mean, m/s
    t_maxs = np.round(rng.uniform(0.5e-3, 2e-3, size["ps_tmax"]), 7)
    pops = rng.integers(10_000, 500_000, size["ps_pop"])
    ks = range(1, size["ps_m"] + 1)
    ops: list[Op] = []
    table_inputs = {}
    per_device = {}  # (T_I, speed) -> analytic per-device rates, for the checks

    def device_rates(ti, geom):
        key = (float(ti), geom.mean_speed_mps)
        if key not in per_device:
            per_device[key] = (workload.htc_rates(cfg.mix, geom, ti),
                               workload.mtc_rates(cfg.mmpp, ti))
        return per_device[key]

    def capacity_op(k, ti, geom, t_max):
        key = (float(ti), geom.mean_speed_mps, float(t_max))

        def run(lib):
            res = lib.capacity(k, cfg.queue, cfg.mix, geom, cfg.mmpp, ti, 1.0, t_max)
            table_inputs.setdefault(key, []).append(
                (res.m, res.n_u_max, res.lam_msgs, res.t_mean_s))
            return res

        def check(res):
            # the same rate and SL-time arithmetic as `capacity` itself
            per_ue, per_mtcd = device_rates(ti, geom)
            unit = workload.aggregate_rates(per_ue, per_mtcd, 1.0, 1.0)
            t_sl = queueing.weighted_sl_service_time(unit, cfg.queue.sl_times)
            for n_u, want in ((res.n_u_max, True), (res.n_u_max + 1, False)):
                lam = workload.aggregate_rates(per_ue, per_mtcd, n_u, n_u).lam_total_msgs
                if _meets(cfg, lam, t_sl, k, t_max) != want:
                    return f"n_u={n_u} {'misses' if want else 'still meets'} T_max"
            return None

        return Op(f"capacity.m{k}", run, check, work=lambda out: 1.0)

    def table_op(key):
        def run(lib):
            return lib.scalability_table(table_inputs[key], cfg.cost, cfg.t_hat_s,
                                         cfg.gamma)

        def check(table):
            if [p.k for p in table] != list(ks) or table[0].psi != 1.0:
                return "table is not indexed k=1.. with psi(1)=1"
            if any(p.classification != econ.classify(p.psi, cfg.gamma) for p in table):
                return "classification disagrees with psi"
            return None

        return Op("scalability_table", run, check, work=lambda out: 1.0)

    def dimension_op(n, ti, t_max):
        def run(lib):
            r = lib.aggregate_rates(lib.htc_rates(cfg.mix, cfg.geom, ti),
                                    lib.mtc_rates(cfg.mmpp, ti), n, n)
            return lib.dimension(r, cfg.queue, t_max)

        def check(m):
            r = workload.aggregate_rates(*device_rates(ti, cfg.geom), n, n)
            t_sl = queueing.weighted_sl_service_time(r, cfg.queue.sl_times)
            if not _meets(cfg, r.lam_total_msgs, t_sl, m, t_max):
                return f"m={m} misses T_max"
            if m > 1 and _meets(cfg, r.lam_total_msgs, t_sl, m - 1, t_max):
                return f"m={m} is not minimal"
            return None

        return Op("dimension", run, check, work=lambda out: 1.0)

    for ti in tis:
        for v in speeds:
            geom = replace(cfg.geom, mean_speed_mps=float(v))
            for t_max in t_maxs:
                ops.extend(capacity_op(k, ti, geom, t_max) for k in ks)
                ops.append(table_op((float(ti), float(v), float(t_max))))
    for i, n in enumerate(pops):
        ops.append(dimension_op(int(n), tis[i % len(tis)], t_maxs[i % len(t_maxs)]))

    return Pass(ops, "planning points", before=table_inputs.clear)


WORKLOADS: dict[str, Callable] = {
    "rates_sim": build_rates_sim,
    "simulate_mtc": build_simulate_mtc,
    "queue_pool": build_queue_pool,
    "plan_sweep": build_plan_sweep,
}
