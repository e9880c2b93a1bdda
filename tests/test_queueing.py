"""Queueing kernel oracles, dimensioning, and capacity inversion."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmmecap.config import load_config
from vmmecap.errors import InfeasibleError, InstabilityError, ParameterError
from vmmecap.queueing import (
    SlServiceTimes,
    capacity,
    dimension,
    erlang_c,
    mmm_response,
    response_at,
    system_response,
    weighted_sl_service_time,
)
from vmmecap.workload import MSGS_PER_PROC, aggregate_rates, htc_rates, mtc_rates


@pytest.fixture(scope="module")
def cfg():
    return load_config()


MIX_1000 = aggregate_rates((0.0, 0.0, 0.0), (0.0, 0.0), 0, 0)


def _rates(lam_sr, lam_srr, lam_hr):
    """ProcedureRates with the given aggregates (per-device fields unused)."""
    from vmmecap.workload import ProcedureRates

    return ProcedureRates(0, 0, 0, lam_sr, lam_srr, lam_hr,
                          3 * lam_sr + 3 * lam_srr + 2 * lam_hr)


def _erlang_c_logspace(m, a):
    """Independent high-precision evaluation via log-space summation."""
    logs = [k * math.log(a) - math.lgamma(k + 1) for k in range(m)]
    log_top = m * math.log(a) - math.lgamma(m + 1) - math.log(1.0 - a / m)
    mx = max(max(logs), log_top)
    denom = sum(math.exp(v - mx) for v in logs) + math.exp(log_top - mx)
    return math.exp(log_top - mx) / denom


def _mm1(lam, mu):
    """M/M/1 mean response time in closed form: (1/mu) / (1 - rho)."""
    return (1.0 / mu) / (1.0 - lam / mu)


class TestMM1:
    """M/M/1 is the M/M/c kernel at c = 1."""

    def test_empty_system(self):
        assert _mm1(0.0, 100000.0) == pytest.approx(10e-6, rel=1e-12)
        assert mmm_response(0.0, 100000.0, 1) == pytest.approx(10e-6, rel=1e-12)

    def test_half_load(self):
        assert _mm1(50000.0, 100000.0) == pytest.approx(20e-6, rel=1e-12)
        assert mmm_response(50000.0, 100000.0, 1) == pytest.approx(20e-6, rel=1e-12)

    def test_instability(self):
        with pytest.raises(InstabilityError) as e:
            mmm_response(100000.0, 100000.0, 1, "SDB")
        assert e.value.stage == "SDB"


class TestErlangC:
    def test_single_server_is_rho(self):
        for rho in (0.1, 0.5, 0.9):
            assert erlang_c(1, rho) == pytest.approx(rho, rel=1e-12)

    def test_two_servers_unit_load(self):
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_zero_load(self):
        assert erlang_c(5, 0.0) == 0.0

    def test_instability(self):
        with pytest.raises(InstabilityError):
            erlang_c(2, 2.0)

    def test_large_m_stability(self):
        # must evaluate without overflow and match the log-space oracle
        c = erlang_c(500, 450.0)
        assert 0.0 < c < 1.0
        assert c == pytest.approx(_erlang_c_logspace(500, 450.0), rel=1e-9)

    def test_monotonicity(self):
        a_grid = np.linspace(0.1, 4.9, 25)
        vals = [erlang_c(5, a) for a in a_grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for a in (0.5, 2.0, 3.5):
            per_m = [erlang_c(m, a) for m in range(math.ceil(a) + 1, 12)]
            assert all(b <= x for x, b in zip(per_m, per_m[1:]))


class TestWeightedServiceTime:
    def test_reference_mix(self, cfg):
        r = _rates(1000.0, 1000.0, 500.0)
        t = weighted_sl_service_time(r, cfg.queue.sl_times)
        assert t == pytest.approx(690600e-6 / 7000.0, rel=1e-9)  # 98.657 us

    def test_only_sr(self, cfg):
        r = _rates(1000.0, 0.0, 0.0)
        st = cfg.queue.sl_times
        assert weighted_sl_service_time(r, st) == pytest.approx(sum(st.per_procedure[0]) / 3.0)

    def test_per_procedure_message_counts(self, cfg):
        # one SL time per message of each procedure, in the trace's code order
        assert tuple(map(len, cfg.queue.sl_times.per_procedure)) == MSGS_PER_PROC

    def test_uniform_times(self):
        st = SlServiceTimes(*([5e-5] * 8))
        assert weighted_sl_service_time(_rates(10, 20, 30), st) == pytest.approx(5e-5)

    def test_zero_rate(self, cfg):
        with pytest.raises(ParameterError):
            weighted_sl_service_time(_rates(0, 0, 0), cfg.queue.sl_times)


class TestMMm:
    def test_zero_load(self):
        assert mmm_response(0.0, 10000.0, 3) == pytest.approx(1e-4, rel=1e-12)

    def test_m1_equals_mm1(self):
        mu = 10136.0
        for rho in np.arange(0.1, 0.95, 0.1):
            lam = rho * mu
            assert mmm_response(lam, mu, 1) == pytest.approx(_mm1(lam, mu), rel=1e-12)

    def test_reference_point(self):
        t_sl = 690600e-6 / 7000.0
        assert mmm_response(7000.0, 1.0 / t_sl, 1) == pytest.approx(318.9e-6, abs=0.1e-6)


class TestSystemResponse:
    def test_worked_example(self, cfg):
        r = _rates(1000.0, 1000.0, 500.0)  # 7000 msgs/s
        total, parts = system_response(r, replace(cfg.queue, m=1))
        assert parts["fe_s"] == pytest.approx(8.85e-6, abs=0.01e-6)
        assert parts["sl_s"] == pytest.approx(318.9e-6, abs=0.1e-6)
        assert parts["db_s"] == pytest.approx(10.75e-6, abs=0.01e-6)
        assert parts["oi_s"] == pytest.approx(0.2e-6, abs=0.01e-6)
        assert total == pytest.approx(338.7e-6, abs=0.1e-6)

    def test_light_load_limit(self, cfg):
        r = _rates(1e-6, 1e-6, 1e-6)
        total, _ = system_response(r, replace(cfg.queue, m=1))
        q = cfg.queue
        t_sl = weighted_sl_service_time(r, q.sl_times)
        floor = 1 / q.mu_fe + t_sl + 1 / q.mu_sdb + 1 / q.mu_oi
        assert total == pytest.approx(floor, rel=1e-6)

    def test_monotone_in_lambda_and_m(self, cfg):
        t_sl = 99.277e-6
        lams = np.linspace(1000.0, 90000.0, 15)
        vals = [response_at(l, t_sl, cfg.queue, 10)[0] for l in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        per_m = [response_at(50000.0, t_sl, cfg.queue, m)[0] for m in range(6, 15)]
        assert all(b <= a + 1e-15 for a, b in zip(per_m, per_m[1:]))

    def test_names_bottleneck(self, cfg):
        r = _rates(20000.0, 20000.0, 5000.0)  # 130000 msgs/s > mu_fe
        with pytest.raises(InstabilityError) as e:
            system_response(r, replace(cfg.queue, m=50))
        assert e.value.stage == "FE"

    def test_unlimited_pool_is_the_floor(self, cfg):
        # m = inf: the SL stage is its service time, the others M/M/1
        q, t_sl = cfg.queue, 99.277e-6
        for lam in (0.0, 7000.0, 50000.0, 90000.0):
            floor = (1 / (q.mu_fe - lam) + t_sl + 1 / (q.mu_sdb - lam)
                     + 1 / (q.mu_oi - lam))
            total, parts = response_at(lam, t_sl, q, math.inf)
            assert total == pytest.approx(floor, rel=1e-12)
            assert parts["sl_s"] == pytest.approx(t_sl, rel=1e-12)
            assert parts["m"] == math.inf
            assert total <= response_at(lam, t_sl, q, 40)[0]


class TestDimension:
    def test_worked_example(self, cfg):
        assert dimension(_rates(1000.0, 1000.0, 500.0), cfg.queue) == 1

    def test_zero_load(self, cfg):
        assert dimension(_rates(0, 0, 0), cfg.queue) == 1

    @pytest.mark.parametrize("lam_sr, lam_srr, lam_hr, lam, stage", [
        (20000.0, 20000.0, 5000.0, 130000.0, "FE"),  # past mu_fe = 120000/s
        (15000.0, 15000.0, 7500.0, 105000.0, "SDB"),  # past mu_sdb = 100000/s only
    ])
    def test_saturated_stage_infeasible(self, cfg, lam_sr, lam_srr, lam_hr, lam, stage):
        r = _rates(lam_sr, lam_srr, lam_hr)
        assert r.lam_total_msgs == pytest.approx(lam)
        with pytest.raises(InfeasibleError, match=f"saturates the {stage} stage") as e:
            dimension(r, cfg.queue)
        assert e.value.stage == stage
        assert "no instance count helps" in str(e.value)

    def test_db_bound_infeasible(self, cfg):
        # 99500 msgs/s: the database term alone is 2 ms
        r = _rates(14500.0, 14500.0, 6250.0)
        assert r.lam_total_msgs == pytest.approx(99500.0)
        with pytest.raises(InfeasibleError) as e:
            dimension(r, cfg.queue)
        assert e.value.stage == "SDB"

    def test_minimality(self, cfg):
        for scale in (3.0, 8.0, 12.0):
            r = _rates(1000.0 * scale, 1000.0 * scale, 500.0 * scale)
            m = dimension(r, cfg.queue)
            t_sl = weighted_sl_service_time(r, cfg.queue.sl_times)
            assert response_at(r.lam_total_msgs, t_sl, cfg.queue, m)[0] <= cfg.queue.t_max
            if m > 1:
                try:
                    below = response_at(r.lam_total_msgs, t_sl, cfg.queue, m - 1)[0]
                except InstabilityError:
                    below = float("inf")
                assert below > cfg.queue.t_max


class TestCapacity:
    # n_u: the largest whole count of UE + MTCD pairs within the budget, by a
    # 100-step bisection of the message rate at the pair's exact rates
    @pytest.mark.parametrize("m,n_u,lam,procs", [
        (1, 90250, 9052, 3061),
        (2, 190380, 19095, 6457),
        (9, 891544, 89422, 30236),
        (10, 977666, 98060, 33157),
    ])
    def test_reference_points(self, cfg, m, n_u, lam, procs):
        res = capacity(m, cfg.queue, cfg.mix, cfg.geom, cfg.mmpp, 10.0, 1.0)
        assert res.n_u_max == pytest.approx(n_u, abs=2)
        assert res.lam_msgs == pytest.approx(lam, rel=1e-3)
        assert res.procedures_per_s == pytest.approx(procs, rel=1e-3)
        assert res.t_mean_s <= cfg.queue.t_max

    def test_mtcds_need_an_mmpp(self, cfg):
        # MTCDs without a packet law would be counted but send nothing
        with pytest.raises(ParameterError):
            capacity(1, cfg.queue, cfg.mix, cfg.geom, None, 10.0, 1.0)
        alone = capacity(1, cfg.queue, cfg.mix, cfg.geom, None, 10.0, 0.0)
        assert alone.n_d == 0 and alone.n_u_max > 90250

    def test_non_decreasing_and_saturating(self, cfg):
        caps = [capacity(m, cfg.queue, cfg.mix, cfg.geom, cfg.mmpp, 10.0, 1.0).n_u_max
                for m in (1, 2, 5, 10, 12, 20, 40)]
        assert all(b >= a for a, b in zip(caps, caps[1:]))
        # DB-bound saturation: piling on instances stops helping
        assert caps[-1] == pytest.approx(caps[-2], rel=1e-3)

    def test_boundary_tightness(self, cfg):
        res = capacity(3, cfg.queue, cfg.mix, cfg.geom, cfg.mmpp, 10.0, 1.0)
        per_pair = res.lam_msgs / res.n_u_max
        t_sl = weighted_sl_service_time(res.rates, cfg.queue.sl_times)
        above = (res.n_u_max + 2) * per_pair
        assert response_at(above, t_sl, cfg.queue, 3)[0] > cfg.queue.t_max

    def test_exact_at_budget_boundary(self, cfg):
        # a point where a rate root-finder with a 1e-6 tolerance, floored to
        # whole UEs, lands one UE short of the true maximum
        geom = replace(cfg.geom, mean_speed_mps=3.358)
        res = capacity(7, cfg.queue, cfg.mix, geom, cfg.mmpp, 19.808, 1.0, 0.92e-3)
        r = res.rates  # per-device rates ride along; same arithmetic as capacity
        per_ue, per_mtcd = (r.lam_u_sr, r.lam_u_sr, r.lam_u_hr), (r.lam_s_sr, r.lam_s_sr)
        t_sl = weighted_sl_service_time(aggregate_rates(per_ue, per_mtcd, 1.0, 1.0),
                                        cfg.queue.sl_times)

        def total(n_u):
            lam = aggregate_rates(per_ue, per_mtcd, n_u, n_u).lam_total_msgs
            return response_at(lam, t_sl, cfg.queue, 7)[0]

        assert total(res.n_u_max) <= 0.92e-3 < total(res.n_u_max + 1)


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def _total_or_inf(lam, t_sl, params, m):
    try:
        return response_at(lam, t_sl, params, m)[0]
    except InstabilityError:
        return math.inf


class TestProperties:
    @PROPERTY
    @given(m=st.integers(1, 600), rho=st.floats(0.0, 0.999),
           step=st.floats(1e-6, 0.999))
    def test_erlang_c_bounded_and_non_decreasing_in_load(self, m, rho, step):
        a1 = rho * m
        a2 = a1 + step * (m - a1)  # a1 < a2 < m
        c1, c2 = erlang_c(m, a1), erlang_c(m, a2)
        assert 0.0 <= c1 <= c2 <= 1.0

    @settings(PROPERTY, max_examples=25)
    @given(m=st.integers(1, 24), t_i=st.floats(1.0, 60.0),
           ratio=st.floats(0.0, 3.0), t_max=st.floats(0.3e-3, 2e-3))
    def test_capacity_is_the_last_ue_count_within_budget(self, cfg, m, t_i, ratio, t_max):
        res = capacity(m, cfg.queue, cfg.mix, cfg.geom, cfg.mmpp, t_i, ratio, t_max)
        # the arithmetic `capacity` does: per-device rates, mix fixed by one UE
        per_ue = htc_rates(cfg.mix, cfg.geom, t_i)
        per_mtcd = mtc_rates(cfg.mmpp, t_i) if ratio > 0 else (0.0, 0.0)
        t_sl = weighted_sl_service_time(aggregate_rates(per_ue, per_mtcd, 1.0, ratio),
                                        cfg.queue.sl_times)

        def total(n_u):
            lam = aggregate_rates(per_ue, per_mtcd, n_u, ratio * n_u).lam_total_msgs
            return _total_or_inf(lam, t_sl, cfg.queue, m)

        assert res.n_u_max > 0
        assert total(res.n_u_max) <= t_max < total(res.n_u_max + 1)

    @PROPERTY
    @given(lam_sr=st.floats(0.0, 8000.0), lam_srr=st.floats(0.0, 8000.0),
           lam_hr=st.floats(0.0, 4000.0), t_max=st.floats(0.3e-3, 2e-3))
    # a subnormal rate, whose product with a service time underflows to 0
    @example(lam_sr=0.0, lam_srr=0.0, lam_hr=5e-324, t_max=0.001953125)
    def test_dimension_is_minimal(self, cfg, lam_sr, lam_srr, lam_hr, t_max):
        r = _rates(lam_sr, lam_srr, lam_hr)
        m = dimension(r, cfg.queue, t_max)
        if r.lam_total_msgs == 0:
            assert m == 1
            return
        t_sl = weighted_sl_service_time(r, cfg.queue.sl_times)
        assert _total_or_inf(r.lam_total_msgs, t_sl, cfg.queue, m) <= t_max
        if m > 1:
            assert _total_or_inf(r.lam_total_msgs, t_sl, cfg.queue, m - 1) > t_max
