"""Billing arithmetic, productivity, and the scalability index."""

from dataclasses import replace

import pytest

from vmmecap.config import load_config
from vmmecap.econ import (
    classify,
    cost_per_second,
    productivity,
    scalability_table,
    tiered_egress_cost,
)
from vmmecap.errors import ParameterError

CFG = load_config()
SCHED = CFG.cost
SPM = 2_628_000.0


class TestEgress:
    def test_first_gb_free(self):
        assert tiered_egress_cost(0.5, SCHED) == 0.0
        assert tiered_egress_cost(1.0, SCHED) == 0.0

    def test_second_gb_billed(self):
        assert tiered_egress_cost(2.0, SCHED) == pytest.approx(0.090)

    def test_bracket_walk(self):
        # 11 TB: free GB, then 10 TB at 0.090 (minus the free GB), 1 TB at 0.085
        cost = tiered_egress_cost(11 * 1024.0, SCHED)
        assert cost == pytest.approx((10 * 1024 - 1) * 0.090 + 1024 * 0.085)

    def test_beyond_last_tier_extends(self):
        base = tiered_egress_cost(1.0 + (10 + 40 + 100 + 350) * 1024.0, SCHED)
        more = tiered_egress_cost(1.0 + (10 + 40 + 100 + 350) * 1024.0 + 10.0, SCHED)
        assert more - base == pytest.approx(10 * 0.050)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            tiered_egress_cost(-1.0, SCHED)


class TestCost:
    def test_fixed_charges_only(self):
        total, parts = cost_per_second(1, 0.0, 0.0, SCHED)
        expected = (
            0.025 / SPM  # balancer fee
            + (0.266 + 0.025) / 3600.0 + 10 * 0.10 / SPM  # one instance
            + 4.64 / 3600.0  # database instance
        )
        assert total == pytest.approx(expected, rel=1e-12)
        assert sum(parts.values()) == pytest.approx(total, rel=1e-12)

    def test_breakdown_sums(self):
        total, parts = cost_per_second(7, 50000.0, 5e5, SCHED)
        assert sum(parts.values()) == pytest.approx(total, rel=1e-12)

    def test_increasing_in_m(self):
        costs = [cost_per_second(m, 10000.0, 1e5, SCHED)[0] for m in range(1, 8)]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("spm", [0.0, -1.0])
    def test_seconds_per_month_must_be_positive(self, spm):
        # every monthly charge is divided by it
        with pytest.raises(ParameterError, match="seconds_per_month"):
            replace(SCHED, seconds_per_month=spm)

    def test_linear_in_lambda_within_tier(self):
        # pick rates whose monthly egress stays inside one bracket
        # second differences cancel the fixed charges and the free-GB offset,
        # so equal rate steps within one bracket cost exactly the same
        c1, c2, c3 = (cost_per_second(1, lam, 0.0, SCHED)[0]
                      for lam in (200.0, 400.0, 600.0))
        assert (c3 - c2) == pytest.approx(c2 - c1, rel=1e-9)


class TestScalability:
    def test_f_at_target(self):
        f, _ = productivity(1000.0, 1e-3, 0.01, 1e-3)
        assert f == pytest.approx(0.5)

    def test_classify(self):
        assert classify(1.0, 0.8) == "positive"
        assert classify(0.85, 0.8) == "sub-perfect"
        assert classify(0.79, 0.8) == "not-scalable"
        with pytest.raises(ParameterError):
            classify(-0.1, 0.8)

    def test_reference_scale_is_one(self):
        pts = [(1, 90283, 9052.0, 1e-3), (2, 190450, 19095.0, 1e-3)]
        table = scalability_table(pts, SCHED, CFG.t_hat_s, CFG.gamma)
        assert table[0].psi == 1.0
        assert table[0].classification == "positive"

    def test_frozen_psi_curve(self):
        # operating points from the independent capacity oracle (timer 10 s,
        # 1:1 MTCD ratio, 1 ms budget); psi under the per-instance egress
        # reading of the billing schedule
        lams = {1: 9052, 2: 19095, 3: 29151, 4: 39211, 5: 49272, 6: 59332,
                7: 69387, 8: 79429, 9: 89422, 10: 98060}
        n_us = {k: v / lams[1] * 90283 for k, v in lams.items()}
        pts = [(k, int(n_us[k]), float(lams[k]), 1e-3) for k in sorted(lams)]
        table = scalability_table(pts, SCHED, CFG.t_hat_s, CFG.gamma)
        expected = {2: 1.1829, 3: 1.2076, 8: 1.0192, 9: 0.9784, 10: 0.9396}
        got = {p.k: p.psi for p in table}
        for k, v in expected.items():
            assert got[k] == pytest.approx(v, abs=2e-3)

    def test_gamma_flag_changes_classification_only(self):
        pts = [(1, 90283, 9052.0, 1e-3), (9, 891868, 89422.0, 1e-3)]
        loose = scalability_table(pts, SCHED, CFG.t_hat_s, 0.8)
        strict = scalability_table(pts, SCHED, CFG.t_hat_s, 0.99)
        assert [p.psi for p in loose] == [p.psi for p in strict]
        assert loose[1].classification == "sub-perfect"
        assert strict[1].classification == "not-scalable"
