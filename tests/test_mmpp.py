"""MMPP stationary math and packet-stream behavior."""

import math

import numpy as np
import pytest
from scipy import stats

from vmmecap import mmpp
from vmmecap.errors import DegenerateChainError, ParameterError
from vmmecap.mmpp import (
    MmppParams,
    gap_survival,
    mmpp_packet_stream,
    mmpp_packet_streams,
    mmpp_stationary,
    mmpp_stream_chunks,
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


class TestGapSurvival:
    def test_bounds(self):
        assert gap_survival(TABLE, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert gap_survival(TABLE, math.inf) == 0.0
        # over many slots the tail is that of the slower state, and it underflows
        assert gap_survival(TABLE, 1e6) == 0.0

    def test_continuous_across_slot_edges(self):
        # the split point 1 - frac(t / delta_t) moves to 0 as t reaches a slot
        # edge, so the law must not jump there
        params = MmppParams(0.3, 0.2, 0.5, 3.0, 0.7)
        for edge in (0.7, 1.4, 7.0):
            below, above = (gap_survival(params, edge + h) for h in (-1e-9, 1e-9))
            assert below == pytest.approx(above, rel=1e-7)

    def test_rejects_negative_gap_and_silent_stream(self):
        with pytest.raises(ParameterError):
            gap_survival(TABLE, -1.0)
        with pytest.raises(ParameterError):
            gap_survival(MmppParams(0.1, 0.1, 0.0, 0.0), 1.0)
        with pytest.raises(DegenerateChainError):
            gap_survival(MmppParams(0.0, 0.0, 1.0, 2.0), 1.0)


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

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
    def test_bad_horizon(self, horizon):
        with pytest.raises(ParameterError, match="horizon"):
            mmpp_packet_stream(TABLE, horizon, np.random.default_rng(0))
        with pytest.raises(ParameterError, match="horizon"):
            next(mmpp_stream_chunks(TABLE, horizon, 3, np.random.default_rng(0)))


class TestPopulation:
    """n streams drawn together (`mmpp_packet_streams`, `mmpp_stream_chunks`)."""

    def test_sorted_by_stream_then_strictly_by_time(self):
        times, stream = mmpp_packet_streams(TABLE, 2e4, 500, np.random.default_rng(4))
        assert len(times) > 1000
        assert np.all(np.diff(stream) >= 0)
        same = stream[1:] == stream[:-1]
        assert np.all(np.diff(times)[same] > 0)
        assert times.min() >= 0.0 and times.max() < 2e4
        assert stream.min() >= 0 and stream.max() < 500

    def test_rounds_continue_each_stream(self, monkeypatch):
        # A tiny CHUNK caps each round at an odd number of segments per
        # stream (15 // 5, 15 // 4, ...), so a stream takes many rounds, and
        # each round must start in the state after the last one's end.
        monkeypatch.setattr(mmpp, "CHUNK", 15)
        params = MmppParams(0.5, 0.7, 0.2, 3.0)
        times, stream = mmpp_packet_streams(params, 2000.0, 5, np.random.default_rng(6))
        assert np.array_equal(np.unique(stream), np.arange(5))
        assert np.all(np.diff(stream) >= 0)
        assert np.all(np.diff(times)[stream[1:] == stream[:-1]] > 0)
        _, _, rate = mmpp_stationary(params)
        assert len(times) == pytest.approx(rate * 2000.0 * 5, rel=0.05)
        # p = q = 1 switches every slot and state 1 is silent, so a stream
        # sends only in the slots of one parity
        params = MmppParams(1.0, 1.0, 0.0, 5.0)
        times, stream = mmpp_packet_streams(params, 300.0, 5, np.random.default_rng(7))
        parity = np.floor(times).astype(int) % 2
        assert len(times) > 2000
        assert all(len(np.unique(parity[stream == i])) == 1 for i in range(5))

    @pytest.mark.parametrize("p, q, rate", [
        (0.0, 0.5, 0.02),  # p = 0: the stationary law is all state 1
        (0.5, 0.0, 0.3),  # q = 0: all state 2
        (0.0, 0.0, 0.02),  # the chain never moves and starts in state 1
    ])
    def test_chains_that_never_leave_a_state(self, p, q, rate):
        params = MmppParams(p, q, 0.02, 0.3)
        times, stream = mmpp_packet_streams(params, 1e4, 200, np.random.default_rng(8))
        expected = rate * 1e4 * 200
        assert abs(len(times) - expected) <= 4 * math.sqrt(expected)

    def test_zero_rate_states(self):
        rng = np.random.default_rng(10)
        times, _ = mmpp_packet_streams(MmppParams(0.01, 0.02, 0.0, 0.0), 1e4, 50, rng)
        assert len(times) == 0
        params = MmppParams(0.01, 0.02, 0.0, 0.3)
        times, _ = mmpp_packet_streams(params, 1e4, 200, rng)
        _, _, rate = mmpp_stationary(params)
        assert len(times) == pytest.approx(rate * 1e4 * 200, rel=0.05)
        assert len(mmpp_packet_streams(TABLE, 10.0, 0, rng)[0]) == 0

    def test_arrivals_uniform_within_a_segment(self):
        # a chain that never moves is one segment per stream: its packets are
        # the order statistics of uniforms, laid out by exponential spacings
        horizon = 50.0
        times, stream = mmpp_packet_streams(MmppParams(0.0, 0.0, 0.4, 0.4), horizon, 2000,
                                            np.random.default_rng(12))
        assert stats.kstest(times / horizon, "uniform").pvalue > 1e-3
        # the k-th of n order statistics of U(0, 1) has mean k / (n + 1)
        counts = np.bincount(stream, minlength=2000)
        sel = counts[stream] == 20
        rank = (np.arange(len(times)) - np.repeat(np.cumsum(counts) - counts, counts))[sel]
        mean_by_rank = np.bincount(rank, weights=times[sel] / horizon) / np.bincount(rank)
        assert np.allclose(mean_by_rank, np.arange(1, 21) / 21, atol=0.03)

    def test_chunks_bound_the_streams_held(self, monkeypatch):
        monkeypatch.setattr(mmpp, "CHUNK", 200)
        chunks = list(mmpp_stream_chunks(TABLE, 1000.0, 50, np.random.default_rng(14)))
        # about 21.5 packets and 1.1 segments per stream: 8 streams per chunk
        assert len(chunks) == 7
        stream = np.concatenate([s for _, s in chunks])
        assert np.all(np.diff(stream) >= 0) and stream.max() < 50
