"""Acceptance suite: one verdict line per criterion, at the stated tolerances.

Reference magnitudes are the target operating figures this toolkit is
validated against: arrival rates at a 10 s inactivity timer, the ~900k-UE
capacity at ten instances, and the abstract's database-imposed ceiling of
~37000 procedures/s at a 1 ms budget. Three figures from the paper's body
(37000 procedures/s at ten instances, psi >= 1 up to nine instances, a
6.26 % capacity drop when speed doubles) contradict the oracle-pinned unit
tests; criterion 5 prints each next to the computed value with its
deviation, and the derivation test beside it shows why they cannot hold.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from vmmecap.config import load_config
from vmmecap.econ import scalability_table
from vmmecap.queueing import (
    capacity,
    dimension,
    erlang_c,
    mmm_response,
    response_at,
    system_response,
    weighted_sl_service_time,
)
from vmmecap.simcore import (
    generate_triggers,
    measured_rates,
    poisson_triggers,
    rmse,
    run_queue_sim,
)
from vmmecap.simcore.triggers import KIND_UE, PROC_HR
from vmmecap.workload import ProcedureRates, aggregate_rates, htc_rates, mtc_rates


@pytest.fixture(scope="module")
def cfg():
    return load_config()


def _rates(lam_sr, lam_srr, lam_hr):
    return ProcedureRates(0, 0, 0, lam_sr, lam_srr, lam_hr,
                          3 * lam_sr + 3 * lam_srr + 2 * lam_hr)


def test_criterion_1_arrival_rate_reproduction(cfg, acceptance):
    """Analytic per-UE rates at the reference timer, in under a second."""
    t0 = time.perf_counter()
    sr, _, hr = htc_rates(cfg.mix, cfg.geom, 10.0)
    elapsed = time.perf_counter() - t0
    ok_sr = abs(sr - 0.0045) <= 0.1 * 0.0045
    ok_hr = 0.0012 <= hr <= 0.0016
    ok_rt = elapsed < 1.0
    ok = ok_sr and ok_hr and ok_rt
    acceptance(
        "criterion 1 (arrival rates)", ok,
        f"lam_u_sr={sr:.6f} (target 0.0045±10%: {'ok' if ok_sr else 'out'}), "
        f"lam_u_hr={hr:.6f} (target [0.0012,0.0016]: {'ok' if ok_hr else 'out'}), "
        f"runtime={elapsed*1e3:.1f} ms",
    )
    assert ok


# Traces of 2000 MTCDs pooled for each MTC point. One such trace spreads its
# SR rate by 1-5e-4 per point (the slow modulation: a visit to a state lasts
# 6800-14800 s), as wide as the 2e-4 bound, so the check needs about 32k MTCDs
# per point (the sizing in perfbench/README.md).
MTC_TRACES = 16


def test_criterion_2_theory_vs_simulation_rates(cfg, acceptance):
    """Desk-scale sweep: 2000 UEs + 2000 MTCDs over 2e4 s, five timers, and
    15 more traces of 2000 MTCDs for the MTC rates."""
    n_u = n_d = 2000
    horizon = 2e4
    grid = [1.0, 5.0, 10.0, 20.0, 30.0]
    th_sr, th_s_sr, sim_sr, sim_s_sr = [], [], [], []
    hr_z = []  # sim - analytic HR, in per-UE standard errors
    for ti in grid:
        u_sr, _, u_hr = htc_rates(cfg.mix, cfg.geom, ti)
        # MTC theory: the exact gap law of the slotted MMPP the traces are drawn from
        s_sr, _ = mtc_rates(cfg.mmpp, ti)
        trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, n_u, n_d, ti,
                                  horizon, seed=7, speed_dist=cfg.speed_dist)
        emp = measured_rates(trace, n_u, n_d, horizon)
        mtc_sr = [emp.lam_s_sr] + [
            measured_rates(generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 0, n_d, ti,
                                             horizon, seed=7 + k, speed_dist=cfg.speed_dist),
                           0, n_d, horizon).lam_s_sr
            for k in range(1, MTC_TRACES)]
        th_sr.append(u_sr)
        th_s_sr.append(s_sr)
        sim_sr.append(emp.lam_u_sr)
        sim_s_sr.append(float(np.mean(mtc_sr)))
        hr = (trace.device_kind == KIND_UE) & (trace.procedure == PROC_HR)
        per_ue = np.bincount(trace.device_id[hr], minlength=n_u) / horizon
        hr_z.append((emp.lam_u_hr - u_hr) / (per_ue.std(ddof=1) / math.sqrt(n_u)))
    r_sr = rmse(th_sr, sim_sr)
    r_s = rmse(th_s_sr, sim_s_sr)
    hr_ok = all(abs(z) <= 4.0 for z in hr_z)
    ok = (r_sr <= 2e-4) and (r_s <= 2e-4) and hr_ok
    acceptance(
        "criterion 2 (rate validation)", ok,
        f"RMSE(lam_u_sr)={r_sr:.2e} (<=2e-4), RMSE(lam_s_sr)={r_s:.2e} (<=2e-4), "
        f"sim HR within 4 s.e. of analytic at all {len(grid)} points: {hr_ok} "
        f"(z = {', '.join(f'{z:+.2f}' for z in hr_z)})",
    )
    assert ok


def test_criterion_3_queueing_kernel_oracles(cfg, acceptance):
    c2 = erlang_c(2, 1.0)
    ok_c2 = abs(c2 - 1.0 / 3.0) < 1e-12
    ok_m1 = True
    for rho in np.arange(0.1, 0.95, 0.1):
        mu = 10136.0
        a = mmm_response(rho * mu, mu, 1)
        b = (1.0 / mu) / (1.0 - rho)  # M/M/1 in closed form
        ok_m1 &= abs(a - b) <= 1e-12 * b
    total, _ = system_response(_rates(1000.0, 1000.0, 500.0), replace(cfg.queue, m=1))
    ok_sys = abs(total - 338.7e-6) <= 0.1e-6
    ok = ok_c2 and ok_m1 and ok_sys
    acceptance(
        "criterion 3 (queueing kernel)", ok,
        f"erlang_c(2,1)={c2:.12f} (1/3 exact: {ok_c2}), "
        f"M/M/1 consistency over rho grid: {ok_m1}, "
        f"worked example T={total*1e6:.2f} us (338.7±0.1: {ok_sys})",
    )
    assert ok


def test_criterion_4_delay_curve_validation(cfg, acceptance):
    """Fig.-4-style sweep at desk scale with the deterministic service law."""
    per_ue = htc_rates(cfg.mix, cfg.geom, 10.0)
    per_mtcd = mtc_rates(cfg.mmpp, 10.0)
    grid = [30000, 60000, 90000, 120000, 180000, 270000]
    sim_ms, ana_ms = [], []
    all_below, all_within_budget, m_steps_ok = True, True, True
    for i, n_u in enumerate(grid):
        r = aggregate_rates(per_ue, per_mtcd, n_u, n_u)
        m = dimension(r, cfg.queue)
        # theory-driven step boundary: m must be minimal for this load
        t_sl = weighted_sl_service_time(r, cfg.queue.sl_times)
        if m > 1:
            try:
                below = response_at(r.lam_total_msgs, t_sl, cfg.queue, m - 1)[0]
            except Exception:
                below = float("inf")
            m_steps_ok &= below > cfg.queue.t_max_s
        trace = poisson_triggers(r.lam_sr, r.lam_srr, r.lam_hr, 30.0, seed=100 + i)
        st = run_queue_sim(trace, replace(cfg.queue, m=m), "deterministic", seed=i)
        ana = response_at(st.empirical_lam_msgs, t_sl, cfg.queue, m)[0]
        sim_ms.append(st.mean_response_s * 1e3)
        ana_ms.append(ana * 1e3)
        all_below &= st.mean_response_s <= ana
        all_within_budget &= st.mean_response_s <= cfg.queue.t_max_s
    r_delay = rmse(ana_ms, sim_ms)
    ok = all_below and (r_delay <= 0.5) and all_within_budget and m_steps_ok
    acceptance(
        "criterion 4 (delay validation)", ok,
        f"sim<=analytic at all {len(grid)} loads: {all_below}, "
        f"RMSE={r_delay:.3f} ms (<=0.5), dimensioned m keeps sim under "
        f"budget: {all_within_budget}, step boundaries minimal: {m_steps_ok}",
    )
    assert ok


_STAGES = ("fe_s", "sl_s", "db_s", "oi_s")


def _per_pair(cfg, geom):
    """Rates of one UE plus one MTCD at T_I = 10 s, and their mean SL service time."""
    unit = aggregate_rates(htc_rates(cfg.mix, geom, 10.0), mtc_rates(cfg.mmpp, 10.0), 1, 1)
    return unit, weighted_sl_service_time(unit, cfg.queue.sl_times)


def _budget_rate(t_sl, q, m=math.inf):
    """Largest message rate whose four-stage mean response meets q.t_max_s,
    found by bisection; m = inf means unlimited SL instances."""
    lo, hi = 0.0, min(q.mu_fe, q.mu_sdb, q.mu_oi, m / t_sl)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if response_at(mid, t_sl, q, m)[0] <= q.t_max_s:
            lo = mid
        else:
            hi = mid
    return lo


def _dev(value, paper):
    return f"{100.0 * (value - paper) / paper:+.1f}%"


def test_criterion_5_capacity_scalability_headline(cfg, acceptance):
    """Capacity and scalability headline, as the abstract states it.

    The abstract's 37000 procedures/s is the ceiling the system scales up to
    under the DB-imposed limit, so it is checked where `capacity` saturates
    (m -> inf), not at m = 10. The paper body's 37000/s at m = 10, psi >= 1
    up to k = 9 and 6.26 % speed-doubling drop contradict oracle-pinned unit
    tests (see the derivation test below); each is printed next to the
    computed value with its deviation, and the check asserts what the model
    implies instead.
    """
    q = cfg.queue
    t0 = time.perf_counter()
    res10 = capacity(10, q, cfg.mix, cfg.geom, cfg.mmpp, 10.0, 1.0)
    ok_nu = abs(res10.n_u_max - 9e5) <= 0.1 * 9e5

    # the m -> inf ceiling, derived without `capacity`, which must saturate on it
    unit, t_sl = _per_pair(cfg, cfg.geom)
    lam_inf = _budget_rate(t_sl, q)
    n_inf = int(lam_inf / unit.lam_total_msgs)
    ceiling = n_inf * (unit.lam_sr + unit.lam_srr + unit.lam_hr)
    ok_sat = all(abs(capacity(m, q, cfg.mix, cfg.geom, cfg.mmpp, 10.0, 1.0).n_u_max - n_inf) <= 1
                 for m in (20, 40))
    ok_procs = abs(ceiling - 37000.0) <= 0.1 * 37000.0
    parts_inf = response_at(lam_inf, t_sl, q, math.inf)[1]
    ok_sdb = max(_STAGES, key=parts_inf.get) == "db_s"

    # the knee: the first k whose largest stage delay at capacity is the SDB's
    points, binding = [], {}
    for k in range(1, 11):
        r = capacity(k, q, cfg.mix, cfg.geom, cfg.mmpp, 10.0, 1.0)
        points.append((k, r.n_u_max, r.lam_msgs, r.t_mean_s))
        parts = response_at(r.lam_msgs, t_sl, q, k)[1]
        binding[k] = max(_STAGES, key=parts.get)
    table = scalability_table(points, cfg.cost, cfg.t_hat_s, cfg.gamma)
    psi = {p.k: p.psi for p in table}
    knee = next((k for k in binding if binding[k] == "db_s"), None)
    ok_knee = knee == 10 and all(binding[k] == "sl_s" for k in range(1, 10))
    ok_psi_mid = all(p.classification != "not-scalable" for p in table[:knee])
    psi_min = min(p.psi for p in table[:knee])
    ok_psi_10 = psi[10] < 1.0

    # speed doubling at the published mobility level (25 -> 50 km/h): the
    # drop `capacity` gives against the drop the bisected model implies
    n_cap, n_model = [], []
    for v_kmh in (25.0, 50.0):
        geom_v = replace(cfg.geom, mean_speed_mps=v_kmh / 3.6)
        n_cap.append(capacity(10, q, cfg.mix, geom_v, cfg.mmpp, 10.0, 1.0).n_u_max)
        unit_v, t_sl_v = _per_pair(cfg, geom_v)
        n_model.append(int(_budget_rate(t_sl_v, q, 10) / unit_v.lam_total_msgs))
    drop_pct = 100.0 * (n_cap[0] - n_cap[1]) / n_cap[0]
    model_drop_pct = 100.0 * (n_model[0] - n_model[1]) / n_model[0]
    ok_drop = all(abs(a - b) <= 1 for a, b in zip(n_cap, n_model)) and model_drop_pct > 0
    elapsed = time.perf_counter() - t0
    ok_rt = elapsed < 10.0
    ok = (ok_nu and ok_sat and ok_procs and ok_sdb and ok_knee and ok_psi_mid and ok_psi_10
          and ok_drop and ok_rt)
    acceptance(
        "criterion 5 (capacity/scalability headline)", ok,
        f"N_U(m=10)={res10.n_u_max} (9e5±10%: {'ok' if ok_nu else 'out'}), "
        f"procedure ceiling={ceiling:.0f}/s (37000±10%: {'ok' if ok_procs else 'out'}, "
        f"{_dev(ceiling, 37000.0)}; capacity(m=20,40) on it: {ok_sat}; SDB-bound: {ok_sdb}), "
        f"procedures(m=10)={res10.procedures_per_s:.0f} vs paper 37000 "
        f"({_dev(res10.procedures_per_s, 37000.0)}, not asserted); "
        f"SDB knee at k={knee} (10, SL-bound below: {ok_knee}), "
        f"psi>=gamma={cfg.gamma:g} up to the knee: {ok_psi_mid} (min {psi_min:.4f}), "
        f"psi(9)={psi[9]:.3f} vs paper reading >=1 ({_dev(psi[9], 1.0)}, not asserted), "
        f"psi(10)={psi[10]:.4f}<1: {ok_psi_10}; "
        f"speed-doubling drop={drop_pct:.2f}% vs model-implied {model_drop_pct:.2f}% "
        f"(N_U within 1 UE, >0: {ok_drop}), paper 6.26% ({drop_pct - 6.26:+.2f} pp, "
        f"unchecked until the paper's tables are in the repo); runtime={elapsed:.1f} s",
    )
    assert ok


def test_criterion_5_paper_figures_exclude_each_other(cfg, acceptance):
    """Why criterion 5 asserts none of the three figures from the paper's body.

    The SDB alone caps the procedure rate below 37000/s at any m. At m = 10,
    with the message rate at capacity held fixed (pinned at 98060/s by
    TestCapacity), procedures/s and the capacity drop under doubled speed
    depend on one free quantity, x = per-UE HR rate / S, where S is the SR
    rate of one UE plus one MTCD (SRR = SR; 3/3/2 messages per SR/SRR/HR;
    HR linear in speed):

        procedures/s = lam (2 + x) / (6 + 2x)
        drop(v -> 2v) = 2cx / (6 + 4cx),   c = v / default mean speed

    33300 procedures/s (37000 - 10 %) needs a larger x than the largest x a
    drop of at most 7.26 % (6.26 + 1) allows, so no HR rate meets both.
    """
    q = cfg.queue
    unit, _ = _per_pair(cfg, cfg.geom)
    msgs_per_proc = unit.lam_total_msgs / (unit.lam_sr + unit.lam_srr + unit.lam_hr)
    sdb_cap = q.mu_sdb / msgs_per_proc

    lam10 = capacity(10, q, cfg.mix, cfg.geom, cfg.mmpp, 10.0, 1.0).lam_msgs
    p = 33300.0 / lam10
    x_procs = (6.0 * p - 2.0) / (1.0 - 2.0 * p)
    c = (25.0 / 3.6) / cfg.geom.mean_speed_mps
    d = 0.0726
    x_drop = 3.0 * d / (c * (1.0 - 2.0 * d))
    x_model = unit.lam_hr / unit.lam_sr
    ok_sdb = sdb_cap < 37000.0
    ok_excl = x_procs > x_drop
    ok = ok_sdb and ok_excl
    acceptance(
        "criterion 5 derivation (paper figures)", ok,
        f"mu_SDB/{msgs_per_proc:.3f} msgs per procedure={sdb_cap:.0f}/s < 37000: {ok_sdb}; "
        f"HR share x=HR/S needed for 33300/s: >={x_procs:.3f}, allowed by a drop <=7.26%: "
        f"<={x_drop:.3f} (exclusive: {ok_excl}), model x={x_model:.4f}",
    )
    assert ok


def test_criterion_6_property_suites(cfg, acceptance):
    # rate monotonicity in the timer
    srs = [htc_rates(cfg.mix, cfg.geom, ti)[0] for ti in (1, 5, 10, 20, 30)]
    mtcs = [mtc_rates(cfg.mmpp, ti)[0] for ti in (1, 5, 10, 20, 30)]
    ok_mono = all(b <= a for a, b in zip(srs, srs[1:])) and \
        all(b <= a for a, b in zip(mtcs, mtcs[1:]))

    # message-count conservation on a generated trace
    trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 150, 150, 10.0,
                              8000.0, seed=3, speed_dist=cfg.speed_dist)
    c = trace.counts()
    n_sr = c["UE_SR"] + c["MTCD_SR"]
    n_srr = c["UE_SRR"] + c["MTCD_SRR"]
    n_hr = c["UE_HR"] + c["MTCD_HR"]
    ok_cons = trace.n_messages == 3 * n_sr + 3 * n_srr + 2 * n_hr

    # Jackson consistency of the DES with the exponential law
    per_ue = htc_rates(cfg.mix, cfg.geom, 10.0)
    per_mtcd = mtc_rates(cfg.mmpp, 10.0)
    r = aggregate_rates(per_ue, per_mtcd, 60000, 60000)
    t_sl = weighted_sl_service_time(r, cfg.queue.sl_times)
    ptrace = poisson_triggers(r.lam_sr, r.lam_srr, r.lam_hr, 40.0, seed=17)
    params = replace(cfg.queue, m=1)
    st = run_queue_sim(ptrace, params, "exponential", seed=6)
    ana = response_at(st.empirical_lam_msgs, t_sl, params)[0]
    util_ok = st.utilization["sl"] <= 0.8
    ok_jackson = util_ok and abs(st.mean_response_s - ana) <= 0.05 * ana

    # Erlang-C numerical stability at scale
    c500 = erlang_c(500, 450.0)
    ok_erlang = 0.0 < c500 < 1.0 and math.isfinite(c500)

    # bit-reproducibility of seeded runs
    trace2 = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 150, 150, 10.0,
                               8000.0, seed=3, speed_dist=cfg.speed_dist)
    st2 = run_queue_sim(ptrace, params, "exponential", seed=6)
    ok_repro = np.array_equal(trace.time_s, trace2.time_s) and \
        st.mean_response_s == st2.mean_response_s

    ok = ok_mono and ok_cons and ok_jackson and ok_erlang and ok_repro
    acceptance(
        "criterion 6 (property suites)", ok,
        f"rate monotonicity: {ok_mono}, message conservation: {ok_cons}, "
        f"Jackson within 5% at util={st.utilization['sl']:.2f}: {ok_jackson} "
        f"(sim={st.mean_response_s*1e6:.1f} us vs analytic={ana*1e6:.1f} us), "
        f"erlang_c(500,450)={c500:.4f} finite: {ok_erlang}, "
        f"seeded reproducibility: {ok_repro}",
    )
    assert ok
