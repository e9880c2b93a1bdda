"""MMPP stationary math and packet-stream behavior."""

import numpy as np
import pytest

from vmmecap.errors import DegenerateChainError, ParameterError
from vmmecap.mmpp import (
    MmppParams,
    mmpp_packet_stream,
    mmpp_stationary,
)

TABLE = MmppParams(p=6.75e-5, q=1.47e-4, lambda1=0.0015, lambda2=0.065,
                   delta_t=1.0)


class TestStationary:
    def test_reference_values(self):
        pi1, pi2, rate = mmpp_stationary(TABLE)
        assert pi1 == pytest.approx(0.6853146853146853, rel=1e-12)
        assert pi2 == pytest.approx(0.3146853146853147, rel=1e-12)
        assert rate == pytest.approx(0.021482517482517484, rel=1e-12)

    def test_symmetric(self):
        pi1, pi2, _ = mmpp_stationary(MmppParams(0.3, 0.3, 1.0, 2.0))
        assert pi1 == pytest.approx(0.5)
        assert pi2 == pytest.approx(0.5)

    def test_degenerate(self):
        with pytest.raises(DegenerateChainError):
            mmpp_stationary(MmppParams(0.0, 0.0, 1.0, 2.0))

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            MmppParams(p=1.5, q=0.1, lambda1=1.0, lambda2=1.0)
        with pytest.raises(ParameterError):
            MmppParams(p=0.1, q=0.1, lambda1=-1.0, lambda2=1.0)
        with pytest.raises(ParameterError):
            MmppParams(p=0.1, q=0.1, lambda1=1.0, lambda2=1.0, delta_t=0.0)


class TestPacketStream:
    def test_empty_when_silent(self):
        pk = mmpp_packet_stream(MmppParams(0.1, 0.1, 0.0, 0.0),
                                1e4, np.random.default_rng(0))
        assert len(pk) == 0

    def test_rate_matches_stationary(self):
        horizon = 1e6
        pk = mmpp_packet_stream(TABLE, horizon, np.random.default_rng(42))
        _, _, rate = mmpp_stationary(TABLE)
        expected = rate * horizon
        # count variance = Poisson part + modulation part; the latter follows
        # from the asymptotic variance of the time spent in state 2 for an
        # alternating renewal process with mean dwells m1, m2:
        # Var(T2)/T -> 2 m1^2 m2^2 / (m1+m2)^3
        m1, m2 = TABLE.delta_t / TABLE.p, TABLE.delta_t / TABLE.q
        var_t2 = 2.0 * m1**2 * m2**2 / (m1 + m2) ** 3 * horizon
        sigma = np.sqrt(expected + (TABLE.lambda2 - TABLE.lambda1) ** 2 * var_t2)
        assert abs(len(pk) - expected) <= 3 * sigma

    def test_never_leaves_state_one(self):
        params = MmppParams(0.0, 0.5, 0.0015, 10.0)
        horizon = 2e6
        # p = 0 makes state 1 the whole stationary law, so the stream starts there
        pk = mmpp_packet_stream(params, horizon, np.random.default_rng(3))
        emp = len(pk) / horizon
        assert emp == pytest.approx(0.0015, rel=0.05)

    def test_strictly_increasing_within_horizon(self):
        pk = mmpp_packet_stream(TABLE, 2e5, np.random.default_rng(9))
        assert np.all(np.diff(pk) > 0)
        assert pk.min() >= 0.0
        assert pk.max() < 2e5

    def test_reproducible(self):
        a = mmpp_packet_stream(TABLE, 1e5, np.random.default_rng(7))
        b = mmpp_packet_stream(TABLE, 1e5, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_bad_start_state(self):
        with pytest.raises(ParameterError):
            mmpp_packet_stream(TABLE, 0.0, np.random.default_rng(0))
