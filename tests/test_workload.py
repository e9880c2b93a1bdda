"""Analytic workload rates: frozen oracle values, limits, monotonicity."""

import math
from dataclasses import replace

import numpy as np
import pytest

from vmmecap import dists
from vmmecap.config import load_config
from vmmecap.errors import InfeasibleError
from vmmecap.mmpp import MmppParams, mmpp_packet_stream, mmpp_stationary
from vmmecap.workload import (
    CellGeometry,
    aggregate_rates,
    app_session_moments,
    cell_crossing_rate,
    htc_rates,
    mtc_rates,
    user_active_time_fraction,
)


@pytest.fixture(scope="module")
def cfg():
    return load_config()


class TestSessionMoments:
    def test_call_profile(self, cfg):
        call = next(a for a in cfg.mix.apps if a.name == "call")
        mom = app_session_moments(call, cfg.mix.link_rate_bps)
        assert mom.mean_n == 1.0
        assert mom.mean_t_on_s == pytest.approx(49.877697841726615, rel=1e-9)
        assert mom.mean_t_sd_s == pytest.approx(mom.mean_t_on_s, rel=1e-12)

    def test_web_profile(self, cfg):
        web = next(a for a in cfg.mix.apps if a.name == "web")
        mom = app_session_moments(web, cfg.mix.link_rate_bps)
        # frozen oracle values: T_on 0.23096 s, T_sd 252.53 s (reading-dominated)
        assert mom.mean_t_on_s == pytest.approx(0.23095995713857917, rel=1e-6)
        assert mom.mean_t_sd_s == pytest.approx(252.53233604802415, rel=1e-6)

    def test_video_profile(self, cfg):
        vid = next(a for a in cfg.mix.apps if a.name == "video")
        mom = app_session_moments(vid, cfg.mix.link_rate_bps)
        assert mom.mean_t_on_s == pytest.approx(137.59753571789958, rel=1e-6)
        assert mom.mean_n == pytest.approx(2.5)

    def test_single_aap_means_no_reading_terms(self, cfg):
        call = next(a for a in cfg.mix.apps if a.name == "call")
        mom = app_session_moments(call, cfg.mix.link_rate_bps)
        assert mom.mean_t_sd_s == mom.mean_t_on_s


class TestAapModels:
    @pytest.mark.parametrize("name", ["web", "video", "call", "short-video"])
    def test_sampler_matches_mean(self, cfg, name):
        # the simulator's draws and the rates' mean are one law: the sample
        # mean is within 4 standard errors of `mean_duration`
        model = next(a.model for a in cfg.mix.apps if a.name == name.removeprefix("short-"))
        if name == "short-video":  # all 20 s of media inside the 40 s burst
            model = replace(model, duration_s=dists.constant(20.0))
        link, n = cfg.mix.link_rate_bps, 50_000
        d = model.durations(link, n, np.random.default_rng(31))
        assert len(d) == n
        assert abs(d.mean() - model.mean_duration(link)) <= 4 * d.std(ddof=1) / math.sqrt(n)


class TestHtcRates:
    def test_reference_point(self, cfg):
        sr, srr, hr = htc_rates(cfg.mix, cfg.geom, 10.0)
        assert sr == pytest.approx(0.00453944411486097, rel=1e-6)
        assert srr == sr
        assert hr == pytest.approx(0.001441035643715663, rel=1e-6)

    def test_active_fraction(self, cfg):
        assert user_active_time_fraction(cfg.mix, 10.0) == pytest.approx(
            0.07186755015967457, rel=1e-6)

    def test_ti_zero_limit(self, cfg):
        # every AAP start finds the device idle
        sr, _, _ = htc_rates(cfg.mix, cfg.geom, 0.0)
        mean_n = sum(
            a.p_app * app_session_moments(a, cfg.mix.link_rate_bps).mean_n
            for a in cfg.mix.apps
        )
        assert sr == pytest.approx(mean_n / cfg.mix.mean_iast_s, rel=1e-9)

    def test_sr_decreases_hr_increases_with_ti(self, cfg):
        grid = [1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 60.0]
        srs, hrs = [], []
        for ti in grid:
            sr, _, hr = htc_rates(cfg.mix, cfg.geom, ti)
            srs.append(sr)
            hrs.append(hr)
        assert all(b <= a for a, b in zip(srs, srs[1:]))
        assert all(b >= a for a, b in zip(hrs, hrs[1:]))

    def test_hr_linear_in_speed(self, cfg):
        from dataclasses import replace

        base = htc_rates(cfg.mix, cfg.geom, 10.0)[2]
        doubled = htc_rates(cfg.mix, replace(cfg.geom, mean_speed_mps=4.2), 10.0)[2]
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    def test_infeasible_mix(self, cfg):
        from dataclasses import replace

        tight = replace(cfg.mix, mean_iast_s=100.0)  # < web session duration
        with pytest.raises(InfeasibleError):
            htc_rates(tight, cfg.geom, 10.0)


class TestCellCrossing:
    def test_reference(self):
        geom = CellGeometry(138.0, 129.0, 2.1)
        assert cell_crossing_rate(geom) == pytest.approx(
            2.1 * 534.0 / (math.pi * 17802.0), rel=1e-12)

    def test_zero_speed(self):
        assert cell_crossing_rate(CellGeometry(100.0, 100.0, 0.0)) == 0.0

    def test_linear_in_speed(self):
        a = cell_crossing_rate(CellGeometry(138.0, 129.0, 2.1))
        b = cell_crossing_rate(CellGeometry(138.0, 129.0, 4.2))
        assert b == pytest.approx(2 * a, rel=1e-12)


def _paper_rate(params, t_i):
    """The paper's per-MTCD SR rate: each state's packet share times its own
    exponential tail, blind to state switches inside a gap."""
    pi1, pi2, mean_rate = mmpp_stationary(params)
    shares = ((params.lambda1 * pi1, params.lambda1), (params.lambda2 * pi2, params.lambda2))
    return sum(w * math.exp(-lam * t_i) for w, lam in shares)


class TestMtcRates:
    TABLE = MmppParams(6.75e-5, 1.47e-4, 0.0015, 0.065)
    # fast switching: a state lasts 2-5 slots, so a gap often spans a switch
    FAST = MmppParams(0.3, 0.2, 0.5, 3.0, 0.7)

    def test_reference_point(self):
        sr, srr = mtc_rates(self.TABLE, 10.0)
        assert sr == pytest.approx(0.01169692524554546, rel=1e-12)
        assert srr == sr

    def test_ti_zero(self):
        _, _, rate = mmpp_stationary(self.TABLE)
        sr, _ = mtc_rates(self.TABLE, 0.0)
        assert sr == pytest.approx(rate, rel=1e-12)

    def test_poisson_special_case(self):
        params = MmppParams(0.2, 0.3, 0.01, 0.01)
        sr, _ = mtc_rates(params, 25.0)
        assert sr == pytest.approx(0.01 * math.exp(-0.25), rel=1e-12)

    def test_infinite_timer(self):
        # no gap outlasts an infinite timer, also in a state that sends nothing
        for params in (self.TABLE, MmppParams(1.0, 1.0, 0.0, 80.0)):
            assert mtc_rates(params, math.inf) == (0.0, 0.0)

    def test_approx_vs_exact(self):
        # (paper - exact) / exact in %: the paper's formula ignores switches
        # inside a gap, which matter more as the timer grows towards a state's
        # dwell time
        assert _paper_rate(self.TABLE, 10.0) == pytest.approx(0.01169087658844491, rel=1e-9)
        for ti, gap_pct in ((1, -0.000), (5, -0.012), (10, -0.052), (20, -0.244),
                            (30, -0.627), (60, -2.569)):
            a = _paper_rate(self.TABLE, ti)
            e, _ = mtc_rates(self.TABLE, ti)
            assert (a - e) / e * 100 == pytest.approx(gap_pct, abs=1e-3)

    @pytest.mark.parametrize("ti", [0.37, 1.0])
    def test_exact_hand_case(self, ti):
        # p = q = 1: the chain alternates a silent slot and one at rate 80, so
        # every packet is in a busy slot and its gap ends there or lasts a
        # whole silent slot more
        lam, mean_rate = 80.0, 40.0
        sr, _ = mtc_rates(MmppParams(1.0, 1.0, 0.0, lam, 1.0), ti)
        want = (1.0 - ti) * math.exp(-lam * ti) + -math.expm1(-lam * ti) / lam
        assert sr == pytest.approx(mean_rate * want, rel=1e-12)

    def test_exact_matches_a_drawn_stream(self):
        # 2e6 s of the fast chain: about 4e6 gaps, so a tail share is known to
        # 0.08-0.24 % (one binomial s.e.); the paper's formula is 7-21 % low here
        gaps = np.diff(mmpp_packet_stream(self.FAST, 2e6, np.random.default_rng(3)))
        _, _, rate = mmpp_stationary(self.FAST)
        for ti in (0.5, 1.3, 2.0):
            exact = mtc_rates(self.FAST, ti)[0] / rate
            se = math.sqrt(exact * (1.0 - exact) / len(gaps))
            assert abs(float(np.mean(gaps > ti)) - exact) <= 4.0 * se
            assert _paper_rate(self.FAST, ti) / rate < 0.95 * exact

    def test_monotone_in_ti(self):
        vals = [mtc_rates(self.TABLE, ti)[0] for ti in (0, 1, 5, 10, 20, 30, 60)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestAggregate:
    def test_reference_arithmetic(self):
        r = aggregate_rates((0.0045, 0.0045, 0.0012), (0.0117, 0.0117),
                            20000, 20000)
        assert r.lam_sr == pytest.approx(324.0)
        assert r.lam_srr == pytest.approx(324.0)
        assert r.lam_hr == pytest.approx(24.0)
        assert r.lam_total_msgs == pytest.approx(1992.0)

    def test_zero_devices(self):
        r = aggregate_rates((0.1, 0.1, 0.1), (0.2, 0.2), 0, 0)
        assert r.lam_total_msgs == 0.0

    def test_linear_in_counts(self):
        r1 = aggregate_rates((0.0045, 0.0045, 0.0012), (0.0117, 0.0117), 100, 50)
        r2 = aggregate_rates((0.0045, 0.0045, 0.0012), (0.0117, 0.0117), 200, 100)
        assert r2.lam_total_msgs == pytest.approx(2 * r1.lam_total_msgs, rel=1e-12)

    def test_mtcd_vs_ue_message_ratio(self, cfg):
        # at the reference timer, one MTCD generates several times the
        # control messages of one UE
        u_sr, u_srr, u_hr = htc_rates(cfg.mix, cfg.geom, 10.0)
        s_sr, s_srr = mtc_rates(cfg.mmpp, 10.0)
        ue_msgs = 3 * u_sr + 3 * u_srr + 2 * u_hr
        mtcd_msgs = 3 * s_sr + 3 * s_srr
        assert mtcd_msgs / ue_msgs == pytest.approx(2.3, abs=0.9)
