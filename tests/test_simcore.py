"""Simulator invariants: determinism, conservation, causality, and agreement
with the analytic model at small scale."""

import bisect
import csv
import heapq
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import stats  # an oracle here; the package itself imports no SciPy

from vmmecap import dists, mmpp
from vmmecap.config import load_config
from vmmecap.errors import ParameterError
from vmmecap.mmpp import MmppParams, mmpp_packet_streams, mmpp_stream_chunks
from vmmecap.queueing import response_at, weighted_sl_service_time
from vmmecap.simcore import (
    TriggerTrace,
    batch_means,
    generate_triggers,
    measured_rates,
    poisson_triggers,
    rmse,
    run_queue_sim,
)
from vmmecap.simcore import queuesim, triggers
from vmmecap.simcore.queuesim import MIN_BATCHES, WARMUP_FRACTION, SimStats
from vmmecap.simcore.triggers import (
    KIND_MTCD,
    KIND_NAMES,
    KIND_UE,
    PROC_HR,
    PROC_NAMES,
    PROC_SR,
    PROC_SRR,
    _crossing_times,
    _interval_triggers,
    _mtcd_lead_in,
    _sessions,
    _ue_chunks,
    _ue_intervals,
    _UePlan,
    population_rng,
)
from vmmecap.workload import (
    VideoModel,
    WebModel,
    aggregate_rates,
    htc_rates,
    mtc_rates,
)


@pytest.fixture(scope="module")
def cfg():
    return load_config()


@pytest.fixture(scope="module")
def small_trace(cfg):
    return generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 200, 200, 10.0,
                             10000.0, 123, speed_dist=cfg.speed_dist)


class TestTraceInvariants:
    def test_sorted_times_within_horizon(self, small_trace):
        t = small_trace.time_s
        assert np.all(np.diff(t) >= 0)
        assert t.min() >= 0.0
        assert t.max() < small_trace.horizon_s

    def test_message_count_identity(self, small_trace):
        c = small_trace.counts()
        n_sr = c["UE_SR"] + c["MTCD_SR"]
        n_srr = c["UE_SRR"] + c["MTCD_SRR"]
        n_hr = c["UE_HR"] + c["MTCD_HR"]
        assert small_trace.n_messages == 3 * n_sr + 3 * n_srr + 2 * n_hr

    def test_sr_srr_balance(self, small_trace):
        # at most one open session per device at the horizon
        c = small_trace.counts()
        assert abs((c["UE_SR"] + c["MTCD_SR"]) - (c["UE_SRR"] + c["MTCD_SRR"])) \
            <= small_trace.n_u + small_trace.n_d

    def test_per_device_causality(self, small_trace):
        # never SR while connected, never SRR/HR while disconnected; a device
        # starts connected when a session is open at 0, which then closes
        # before any SR opens one
        for dev in np.unique(small_trace.device_id)[:50]:
            sel = small_trace.device_id == dev
            procs = small_trace.procedure[sel]
            opens_closes = procs[procs != PROC_HR]
            connected = opens_closes.size == 0 or opens_closes[0] == PROC_SRR
            for p in procs:
                if p == PROC_SR:
                    assert not connected
                    connected = True
                elif p == PROC_SRR:
                    assert connected
                    connected = False
                else:
                    assert connected

    def test_no_mtcd_handover(self, small_trace):
        assert small_trace.counts()["MTCD_HR"] == 0

    def test_device_kind_follows_device_id(self, small_trace):
        kind = small_trace.device_kind
        assert np.array_equal(kind, small_trace.device_id >= small_trace.n_u)
        assert set(kind.tolist()) == {KIND_UE, KIND_MTCD}

    def test_poisson_triggers_have_no_device(self):
        trace = poisson_triggers(50.0, 40.0, 10.0, 20.0, 3)
        assert np.all(np.diff(trace.time_s) >= 0)
        assert np.all(trace.device_id == -1)
        per_proc = np.bincount(trace.procedure, minlength=3)
        assert trace.counts() == {
            **{f"UE_{p}": int(n) for p, n in zip(PROC_NAMES, per_proc)},
            **{f"MTCD_{p}": 0 for p in PROC_NAMES}}
        assert per_proc.min() > 0

    def test_deterministic(self, cfg, small_trace):
        again = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 200, 200, 10.0,
                                  10000.0, 123, speed_dist=cfg.speed_dist)
        assert np.array_equal(small_trace.time_s, again.time_s)
        assert np.array_equal(small_trace.device_id, again.device_id)
        assert np.array_equal(small_trace.procedure, again.procedure)

    def test_seed_changes_trace(self, cfg, small_trace):
        other = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 200, 200, 10.0,
                                  10000.0, 124, speed_dist=cfg.speed_dist)
        assert not np.array_equal(small_trace.time_s, other.time_s)

    @pytest.mark.parametrize("horizon", [0.0, math.inf, math.nan])
    def test_horizon_must_be_finite_and_positive(self, cfg, horizon):
        with pytest.raises(ParameterError, match="horizon"):
            generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 1, 1, 10.0, horizon, 1,
                              speed_dist=cfg.speed_dist)
        with pytest.raises(ParameterError, match="horizon"):
            poisson_triggers(1.0, 1.0, 1.0, horizon, 1)

    @pytest.mark.parametrize("rate", ["lam_sr", "lam_srr", "lam_hr"])
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
    def test_poisson_rates_must_be_finite_and_non_negative(self, monkeypatch, rate, value):
        # rejected before any draw, under the package's error naming the rate
        def no_draws(*args):
            raise AssertionError("drawing started")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        rates = {"lam_sr": 1.0, "lam_srr": 1.0, "lam_hr": 1.0, rate: value}
        with pytest.raises(ParameterError, match=f"^{rate} "):
            poisson_triggers(**rates, horizon_s=10.0, seed=1)

    @pytest.mark.parametrize("settle", [-1.0, math.nan, math.inf])
    def test_settle_must_be_finite_and_non_negative(self, cfg, monkeypatch, settle):
        # rejected before any draw: an infinite lead-in would never finish
        def no_draws(*args):
            raise AssertionError("generation started")

        monkeypatch.setattr(triggers, "population_rng", no_draws)
        with pytest.raises(ParameterError, match="settle_s"):
            generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 1, 1, 10.0, 100.0, 1,
                              speed_dist=cfg.speed_dist, settle_s=settle)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    @pytest.mark.parametrize("call", ["generate", "poisson", "queue"])
    def test_seed_must_be_a_non_negative_integer(self, cfg, monkeypatch, call, seed):
        # rejected before any draw, under the package's error naming the seed;
        # also by the deterministic law's queue, which draws nothing
        trace = TriggerTrace(np.array([0.0]), np.zeros(1, dtype=np.int32),
                             np.zeros(1, dtype=np.uint8), 1.0, 1, 0)

        def no_draws(*args):
            raise AssertionError("drawing started")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ParameterError, match="^seed "):
            if call == "generate":
                generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 1, 1, 10.0, 100.0, seed,
                                  speed_dist=cfg.speed_dist)
            elif call == "poisson":
                poisson_triggers(1.0, 1.0, 1.0, 10.0, seed)
            else:
                run_queue_sim(trace, cfg.queue, "deterministic", seed)

    def test_no_lead_in(self, cfg):
        trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 20, 20, 10.0, 2000.0, 1,
                                  speed_dist=cfg.speed_dist, settle_s=0.0)
        c = trace.counts()
        assert c["UE_SR"] > 0 and c["MTCD_SR"] > 0

    def test_csv_columns(self, small_trace, tmp_path):
        # the file `simulate --trace-out` writes
        path = tmp_path / "trace.csv"
        small_trace.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(small_trace)
        assert np.allclose([float(r["time_s"]) for r in rows], small_trace.time_s,
                           rtol=0, atol=1e-9)
        assert [r["device_kind"] for r in rows] == \
            [KIND_NAMES[k] for k in small_trace.device_kind]
        assert [r["procedure"] for r in rows] == \
            [PROC_NAMES[p] for p in small_trace.procedure]

    def test_csv_bytes_match_the_row_writer(self, small_trace, tmp_path, monkeypatch):
        # the chunked writer against the csv module, one row at a time, on a
        # trace of both kinds with a trigger of no device (id -1)
        dev = small_trace.device_id.copy()
        dev[1] = -1
        trace = TriggerTrace(small_trace.time_s, dev, small_trace.procedure,
                             small_trace.horizon_s, small_trace.n_u, small_trace.n_d)
        assert {KIND_UE, KIND_MTCD} <= set(trace.device_kind.tolist())
        monkeypatch.setattr(triggers, "CSV_ROWS", 1000)  # several blocks and a short last one
        assert len(trace) % 1000
        trace.to_csv(tmp_path / "chunked.csv")
        with open(tmp_path / "rows.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time_s", "device_id", "device_kind", "procedure"])
            for t, d, k, p in zip(trace.time_s, trace.device_id, trace.device_kind,
                                  trace.procedure):
                w.writerow([f"{t:.9f}", int(d), KIND_NAMES[k], PROC_NAMES[p]])
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _lexsorted(parts):
    """Reference for `_pack`: the joined parts in `np.lexsort((device, time))` order."""
    t, d, p = (np.concatenate(c) for c in zip(*parts))
    order = np.lexsort((d, t))
    return t[order], d[order], p[order]


class TestPack:
    """`_pack` gives the order of a stable sort by time, then device."""

    def check(self, parts):
        want = _lexsorted(parts)
        trace = triggers._pack(list(parts), 100.0, 0, 0)
        _assert_same((trace.time_s, trace.device_id, trace.procedure), want)

    def packed_parts(self, monkeypatch):
        """Record the parts every `_pack` call in the test receives."""
        seen, pack = [], triggers._pack

        def record(parts, *args):
            seen.append([tuple(c.copy() for c in part) for part in parts])
            return pack(parts, *args)

        monkeypatch.setattr(triggers, "_pack", record)
        return seen

    @pytest.mark.parametrize("n_dev", [1, 3])
    def test_runs_of_equal_times(self, n_dev):
        # runs of 2, 3 and 1000 equal times, split over two parts, among
        # distinct times; the procedure column numbers each trigger's position
        rng = np.random.default_rng(n_dev)
        t = np.concatenate([[5.0] * 2, [7.0] * 3, [9.0] * 1000, rng.uniform(0, 20, 500)])
        rng.shuffle(t)
        d = rng.integers(0, n_dev, t.size)
        p = (np.arange(t.size) % 251).astype(np.uint8)
        cut = t.size // 3
        self.check([(t[:cut], d[:cut], p[:cut]), (t[cut:], d[cut:], p[cut:])])

    def test_one_long_run(self):
        # a run of 1e5 equal times is sorted over its members only, not pair by pair
        rng = np.random.default_rng(4)
        d = rng.integers(0, 40, 100_000)
        self.check([(np.zeros(d.size), d, rng.integers(0, 3, d.size).astype(np.uint8))])

    def test_empty_parts(self):
        empty = (np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8))
        self.check([empty])
        self.check([empty, (np.array([2.0, 1.0, 2.0]), np.array([4, 3, 1]),
                            np.array([0, 1, 2], dtype=np.uint8)), empty])

    @pytest.mark.parametrize("t_i", [0.0, np.inf])
    def test_generated_trace(self, cfg, monkeypatch, t_i):
        seen = self.packed_parts(monkeypatch)
        trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 20, 200, t_i, 2000.0, 5,
                                  speed_dist=cfg.speed_dist)
        _assert_same((trace.time_s, trace.device_id, trace.procedure), _lexsorted(seen[0]))
        # at T_I = 0 each MTCD packet is an SR and an SRR at one time, SR first
        tie = (np.diff(trace.time_s) == 0) & (np.diff(trace.device_id) == 0)
        assert tie.any() == (t_i == 0.0)
        assert np.all(trace.procedure[:-1][tie] == PROC_SR)
        assert np.all(trace.procedure[1:][tie] == PROC_SRR)

    def test_poisson_trace(self, monkeypatch):
        seen = self.packed_parts(monkeypatch)
        trace = poisson_triggers(50.0, 40.0, 10.0, 200.0, 6)
        _assert_same((trace.time_s, trace.device_id, trace.procedure), _lexsorted(seen[0]))


def _refuse_to_sort(parts):
    raise AssertionError("the trace was sorted")


class TestDeferredSort:
    """A packed trace sorts on its first column read, once; counting never sorts."""

    def make(self, cfg, shape):
        if shape == "generated":  # `small_trace`'s, built afresh: the fixture is read sorted
            return generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 200, 200, 10.0,
                                     10000.0, 123, speed_dist=cfg.speed_dist)
        if shape == "poisson":  # ids -1
            return poisson_triggers(50.0, 40.0, 10.0, 20.0, 3)
        return generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 0, 0, 10.0, 100.0, 1,
                                 speed_dist=cfg.speed_dist)

    @pytest.mark.parametrize("shape", ["generated", "poisson", "empty"])
    def test_counting_never_sorts(self, cfg, monkeypatch, shape):
        done = self.make(cfg, shape)
        done.time_s
        monkeypatch.setattr(triggers, "_sort_parts", _refuse_to_sort)
        trace = self.make(cfg, shape)
        assert len(trace) == len(done)
        assert trace.counts() == done.counts()
        assert trace.n_messages == done.n_messages
        assert measured_rates(trace, trace.n_u, trace.n_d, trace.horizon_s) == \
            measured_rates(done, done.n_u, done.n_d, done.horizon_s)
        assert (len(trace) > 0) == (shape != "empty")
        with pytest.raises(AssertionError, match="sorted"):
            trace.time_s

    def test_columns_sort_once(self, cfg, monkeypatch):
        sorts = []
        sort = triggers._sort_parts
        monkeypatch.setattr(triggers, "_sort_parts", lambda parts: sorts.append(1) or sort(parts))
        trace = self.make(cfg, "generated")
        n, c = len(trace), trace.counts()
        assert sorts == []
        t, d, p, k = trace.time_s, trace.device_id, trace.procedure, trace.device_kind
        assert len(sorts) == 1
        assert trace.time_s is t and trace.device_id is d and trace.procedure is p
        assert np.all(np.diff(t) >= 0) and np.array_equal(k, d >= trace.n_u)
        assert (len(trace), trace.counts()) == (n, c)
        assert len(sorts) == 1

    def test_first_reads_in_threads_sort_once(self, monkeypatch):
        # a read beside the first waits for its sort and sees its columns; a
        # count beside it sees every trigger
        sorts = []
        sort = triggers._sort_parts
        monkeypatch.setattr(triggers, "_sort_parts", lambda parts: sorts.append(1) or sort(parts))
        trace = poisson_triggers(5000.0, 4000.0, 1000.0, 20.0, 3)  # 200k triggers
        want = trace.counts()
        n = 2 * (os.cpu_count() or 1) + 2
        start, seen, counted = threading.Barrier(2 * n), [], []

        def read():
            start.wait(timeout=30)
            seen.append(trace.time_s)

        def count():
            start.wait(timeout=30)
            counted.append(trace.counts())

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=f) for _ in range(n) for f in (read, count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert len(sorts) == 1 and len(seen) == n
        assert all(t is seen[0] for t in seen) and len(seen[0]) == len(trace)
        assert counted == [want] * n

    def test_sort_drops_the_parts(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(0.0, 10.0, 1000)
        held = weakref.ref(t)
        trace = triggers._pack([(t, rng.integers(0, 9, t.size).astype(np.int32),
                                 np.zeros(t.size, dtype=np.uint8))], 10.0, 9, 0)
        del t
        assert held() is not None
        trace.time_s
        assert held() is None

    @pytest.mark.parametrize("t_i, n_d, horizon, bound", [(10.0, 1000, 200.0, 29),
                                                          (0.0, 200, 2000.0, 50)])
    def test_sort_memory_per_trigger(self, cfg, t_i, n_d, horizon, bound):
        # The sort's traced peak: the joined times and ids, the order, and a
        # sorted copy of the times; at T_I = 0, half the triggers are SR/SRR
        # pairs at one time, and their repair adds its index arrays. The
        # bounds were set against the packer that sorted on the spot, read
        # the same way on the same traces: 28.2 B per trigger at T_I = 10 s
        # (4.5k triggers) and 49.0 B at T_I = 0 (17.7k).
        trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 20, n_d, t_i, horizon, 5,
                                  speed_dist=cfg.speed_dist)
        tracemalloc.start()
        try:
            trace.time_s
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(trace) <= bound


def _axis_crossings(x0, v, size, t_a, t_b):
    """Reference: times in (t_a, t_b] when the coordinate hits a whole multiple of `size`.

    One scalar step per integer k; `_crossing_times` must give the same
    times bit for bit.
    """
    if v == 0.0:
        return []
    k1 = (x0 + v * t_a) / size
    k2 = (x0 + v * t_b) / size
    out = []
    for k in range(math.ceil(min(k1, k2) - 1e-12), math.floor(max(k1, k2) + 1e-12) + 1):
        t = (size * k - x0) / v
        if t_a < t <= t_b:
            out.append(t)
    return out


def _reference_crossing_times(windows, x0, y0, vx, vy, cell):
    out = []
    for t_a, t_b in windows:
        out.extend(_axis_crossings(x0, vx, cell[0], t_a, t_b))
        out.extend(_axis_crossings(y0, vy, cell[1], t_a, t_b))
    return sorted(out)


CELL = (138.0, 129.0)  # width, height, m


class TestCrossingTimes:
    def check(self, windows, x0, y0, vx, vy):
        """One device's motion in every window; the hits must be the reference's."""
        w = np.array(windows, dtype=float).reshape(-1, 2)
        motion = (np.full(len(w), c) for c in (x0, y0, vx, vy))
        got, win = _crossing_times(w[:, 0], w[:, 1], *motion, CELL)
        want = _reference_crossing_times(windows, x0, y0, vx, vy, CELL)
        assert np.sort(got).tolist() == want
        assert np.all((w[win, 0] < got) & (got <= w[win, 1]))
        return want

    def test_random_windows_and_headings(self):
        rng = np.random.default_rng(5)
        total = 0
        for _ in range(300):
            n = int(rng.integers(1, 8))
            starts = np.sort(rng.uniform(-3000.0, 20000.0, n))
            windows = list(zip(starts.tolist(), (starts + rng.exponential(300.0, n)).tolist()))
            speed, heading = rng.uniform(0.0, 8.4), rng.uniform(0.0, 2 * math.pi)
            total += len(self.check(windows, rng.uniform(0.0, 138.0), rng.uniform(0.0, 129.0),
                                    speed * math.cos(heading), speed * math.sin(heading)))
        assert total > 1000

    def test_each_window_its_own_motion(self):
        rng = np.random.default_rng(6)
        n = 400
        t_a = rng.uniform(-3000.0, 20000.0, n)
        t_b = t_a + rng.exponential(300.0, n)
        x0, y0 = rng.uniform(0.0, 138.0, n), rng.uniform(0.0, 129.0, n)
        speed, heading = rng.uniform(0.0, 8.4, n), rng.uniform(0.0, 2 * math.pi, n)
        speed[::7] = 0.0  # some devices stand still
        vx, vy = speed * np.cos(heading), speed * np.sin(heading)
        got, win = _crossing_times(t_a, t_b, x0, y0, vx, vy, CELL)
        assert len(got) > 1000
        order = np.lexsort((got, win))
        got, win = got[order], win[order]
        for i in range(n):
            want = _reference_crossing_times([(t_a[i], t_b[i])], x0[i], y0[i], vx[i], vy[i],
                                             CELL)
            assert got[win == i].tolist() == want

    def test_still_on_one_axis(self):
        windows = [(-500.0, 10.0), (40.0, 900.0)]
        assert self.check(windows, 100.0, 200.0, 0.0, 2.5)
        assert self.check(windows, 100.0, 200.0, -3.0, 0.0)
        assert self.check(windows, 100.0, 200.0, 0.0, 0.0) == []

    def test_motion_along_one_axis(self):
        # cos(pi/2) leaves a residual ~1e-16 m/s across the other axis
        windows = [(0.0, 5000.0)]
        for heading in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
            assert self.check(windows, 70.0, 60.0, 3.0 * math.cos(heading),
                              3.0 * math.sin(heading))
        # x runs from 70 to 15070 m and meets every multiple of 138 m on the way
        assert len(self.check(windows, 70.0, 60.0, 3.0, 0.0)) == 15070 // 138

    def test_window_end_on_grid_line(self):
        # x = 1 m/s * t reaches the line at 138 m exactly at t = 138 s, which
        # closes the first window (kept) and opens the second (excluded)
        times = self.check([(100.0, 138.0), (138.0, 200.0)], 0.0, 10.0, 1.0, 0.0)
        assert times == [138.0]

    def test_no_windows(self):
        assert self.check([], 10.0, 10.0, 1.0, 1.0) == []


_UNIT = dists.uniform(0.0, 1.0)  # picks an app or an encoding rate


def _block_draws(rng, block=64):
    """Reference draws of one device: ``draw(law)`` is the law's next draw from
    `rng` and ``draw(law, k)`` the sum of its next k, taken a block at a time."""
    buffers = {}

    def draw(law, k=1):
        buf = buffers.setdefault(id(law), [])
        while len(buf) < k:
            buf.extend(dists.sample(law, rng, size=block).tolist())
        taken = buf[:k]
        del buf[:k]
        return taken[0] if k == 1 else sum(taken)

    return draw


def _reference_aap_duration(model, link_rate_bps, draw):
    """Reference: one AAP's duration, one draw at a time."""
    if isinstance(model, WebModel):
        k = int(round(draw(model.n_embedded)))
        total = draw(model.main_obj_bytes) + draw(model.embedded_obj_bytes, k)
        return total * 8.0 / link_rate_bps + draw(model.parsing_time_s)
    if isinstance(model, VideoModel):
        choices = model.encoding_rate_choices
        enc = draw(choices[int(draw(_UNIT) * len(choices))])
        dur = draw(model.duration_s)
        burst = min(dur, model.burst_media_s)
        return (burst * enc / link_rate_bps
                + max(dur - model.burst_media_s, 0.0) / model.throttle_factor)
    return draw(model.holding_time_s)


def _reference_ue_timeline(rng, plan, horizon_s, settle_s):
    """Reference: one UE's AAPs (starts, ends) and motion from its own stream,
    drawn session by session and AAP by AAP as the per-device generator did."""
    x0, y0 = rng.uniform(0.0, plan.cell[0]), rng.uniform(0.0, plan.cell[1])
    heading = rng.uniform(0.0, 2.0 * math.pi)
    draw = _block_draws(rng)
    speed = draw(plan.speed)
    apps, starts, ends = plan.mix.apps, [], []
    t_end = -settle_s  # a session "just ended"; the device starts idle
    while t_end < horizon_s:
        ai = min(bisect.bisect_right(plan.cum_p.tolist(), draw(_UNIT)), len(apps) - 1)
        t_cur = t_end + draw(plan.standby[ai])
        if t_cur >= horizon_s:
            break
        for j in range(max(1, int(round(draw(apps[ai].n_aap))))):
            if j:
                t_cur += draw(apps[ai].reading_time_s)
            starts.append(t_cur)
            t_cur += _reference_aap_duration(apps[ai].model, plan.mix.link_rate_bps, draw)
            ends.append(t_cur)
        t_end = t_cur
    return starts, ends, (x0, y0, speed * math.cos(heading), speed * math.sin(heading))


def _reference_ue_triggers(starts, ends, motion, t_i, horizon_s):
    """Reference: one UE's (times, procs) and its sessions' (open, close) windows.

    The per-UE state machine of the per-device generator, walked over the
    UE's activity intervals: an SR when an interval starts while idle, an SRR
    when the timer runs out after a gap longer than `t_i` or after the last
    interval, an HR at each cell-edge crossing while connected. `motion` is
    the start position, the velocity and the cell size. Triggers outside
    [0, horizon) are then dropped.
    """
    times, procs, windows = [], [], []
    connected, win_start, t_end = False, None, None

    def close_window(at):
        nonlocal connected, win_start
        times.append(at)
        procs.append(PROC_SRR)
        windows.append((win_start, at))
        connected, win_start = False, None

    for s, e in zip(starts, ends):
        if connected and s - t_end > t_i:
            close_window(t_end + t_i)
        if not connected:
            times.append(s)
            procs.append(PROC_SR)
            connected, win_start = True, s
        t_end = e
    if connected:
        close_window(t_end + t_i)
    hr = _reference_crossing_times([(a, min(b, horizon_s)) for a, b in windows], *motion)
    times = np.array(times + hr)
    procs = np.array(procs + [PROC_HR] * len(hr), dtype=np.uint8)
    order = np.argsort(times, kind="stable")
    times, procs = times[order], procs[order]
    keep = (times >= 0.0) & (times < horizon_s)
    return times[keep], procs[keep], windows


def _reference_ue_population(start, end, dev, motion, n, t_i, horizon_s):
    """(times, devices, procs) and (open, close, device) of `_reference_ue_triggers`
    over devices 0..n-1, each device's share of the intervals and motion."""
    times, devs, procs, wins = [], [], [], []
    for d in range(n):
        sel = dev == d
        t, p, w = _reference_ue_triggers(start[sel], end[sel],
                                         [m[d] for m in motion[:4]] + [motion[4]],
                                         t_i, horizon_s)
        times.append(t)
        devs.append(np.full(len(t), d))
        procs.append(p)
        wins += [(a, b, d) for a, b in w]
    wins = np.array(wins, dtype=float).reshape(-1, 3)
    return ((np.concatenate(times), np.concatenate(devs), np.concatenate(procs)),
            (wins[:, 0], wins[:, 1], wins[:, 2].astype(np.int64)))


def _random_motion(rng, n):
    """Start positions in a cell and velocities of n devices, every fifth standing still."""
    speed, heading = rng.uniform(0.0, 8.4, n), rng.uniform(0.0, 2 * math.pi, n)
    speed[::5] = 0.0
    return (rng.uniform(0.0, CELL[0], n), rng.uniform(0.0, CELL[1], n),
            speed * np.cos(heading), speed * np.sin(heading), CELL)


def _random_timelines(rng, n, lead_s, horizon_s):
    """Sorted activity intervals of n UEs over [-lead, horizon + 50): short and
    long gaps, zero-length intervals, some UEs empty, some only in the lead-in."""
    start, end, dev = [], [], []
    for d in range(n):
        t = -lead_s + rng.uniform(0.0, lead_s + horizon_s) * rng.choice([0.01, 0.2, 1.0])
        for _ in range(rng.poisson(8.0)):
            t += rng.choice([rng.exponential(2.0), rng.exponential(30.0), rng.exponential(200.0)])
            if t >= horizon_s + 50.0:
                break
            start.append(t)
            t += rng.exponential(20.0) * (rng.random() < 0.8)
            end.append(t)
            dev.append(d)
    return np.array(start), np.array(end), np.array(dev, dtype=np.int64)


class TestUeTriggers:
    """The interval-based builder against the per-UE state machine, on the same timelines."""

    def check(self, start, end, dev, motion, n, t_i, horizon_s):
        t, d, p = _interval_triggers(start, end, dev, t_i, horizon_s, motion)
        order = np.lexsort((t, d))  # stable: SR, then SRR, then HR at one instant
        got = (t[order], d[order], p[order])
        want, want_windows = _reference_ue_population(start, end, dev, motion, n, t_i,
                                                      horizon_s)
        _assert_same(got, want)
        _assert_same(_sessions(start, end, dev, t_i), want_windows)
        return got

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("t_i", [0.0, 2.5, 10.0, np.inf])
    def test_random_timelines(self, seed, t_i):
        rng = np.random.default_rng(seed)
        start, end, dev = _random_timelines(rng, 60, 300.0, 1000.0)
        t, d, p = self.check(start, end, dev, _random_motion(rng, 60), 60, t_i, 1000.0)
        assert np.count_nonzero(p == PROC_SR) > 0
        assert np.count_nonzero(p == PROC_HR) > 0

    HAND = {  # device -> activity intervals, horizon 100 s, timer 10 s
        0: [(-5.0, 3.0)],  # a session over 0 that opens before it: its SRR and HR only
        1: [(-50.0, -45.0)],  # only in the lead-in
        2: [(0.0, 5.0), (15.0, 20.0), (30.5, 31.0)],  # gaps of exactly 10 s, then 10.5 s
        3: [(-8.0, 2.0), (20.0, 20.0), (95.0, 130.0)],  # zero length; the last over the horizon
        4: [(90.0, 100.0)],  # its SRR at 110 is past the horizon
    }

    def hand_built(self):
        cells = sorted((d, a, b) for d, ivs in self.HAND.items() for a, b in ivs)
        d, a, b = (np.array(c) for c in zip(*cells))
        motion = tuple(np.full(5, v) for v in (130.0, 60.0, 2.0, 0.0)) + (CELL,)
        return a, b, d.astype(np.int64), motion

    def test_hand_built(self):
        start, end, dev, motion = self.hand_built()
        t, d, p = self.check(start, end, dev, motion, 5, 10.0, 100.0)
        # x = 130 + 2 t reaches the cell edge at 138 m at 4 s and the next, at
        # 276 m, at 73 s (and the one at 0 m at -65 s)
        assert list(zip(d.tolist(), t.tolist(), p.tolist())) == [
            (0, 4.0, PROC_HR), (0, 13.0, PROC_SRR),
            (2, 0.0, PROC_SR), (2, 4.0, PROC_HR), (2, 30.0, PROC_SRR), (2, 30.5, PROC_SR),
            (2, 41.0, PROC_SRR),
            (3, 4.0, PROC_HR), (3, 12.0, PROC_SRR), (3, 20.0, PROC_SR), (3, 30.0, PROC_SRR),
            (3, 95.0, PROC_SR),
            (4, 90.0, PROC_SR)]

    def test_hand_built_timer_zero_and_infinite(self):
        start, end, dev, motion = self.hand_built()
        t, d, p = self.check(start, end, dev, motion, 5, 0.0, 100.0)
        assert p.tolist().count(PROC_SR) == 6  # every interval starting in [0, 100) opens one
        # t_i = inf: a device's first interval opens its only session, which
        # never closes, so devices 0, 1 and 3, which open theirs before 0,
        # have its HRs alone
        t, d, p = self.check(start, end, dev, motion, 5, np.inf, 100.0)
        assert list(zip(d.tolist(), t.tolist(), p.tolist())) == [
            (0, 4.0, PROC_HR), (0, 73.0, PROC_HR), (1, 4.0, PROC_HR), (1, 73.0, PROC_HR),
            (2, 0.0, PROC_SR), (2, 4.0, PROC_HR), (2, 73.0, PROC_HR),
            (3, 4.0, PROC_HR), (3, 73.0, PROC_HR), (4, 90.0, PROC_SR)]

    def test_no_intervals(self):
        empty = np.empty(0)
        got = self.check(empty, empty, np.empty(0, dtype=np.int64),
                         _random_motion(np.random.default_rng(0), 3), 3, 10.0, 100.0)
        assert all(len(a) == 0 for a in got)

    def test_trace_over_several_chunks(self, cfg, monkeypatch):
        monkeypatch.setattr(triggers, "CHUNK", 256)  # three UEs a chunk
        n, t_i, horizon, settle = 40, 10.0, 3000.0, 1000.0
        trace = generate_triggers(cfg.mix, cfg.geom, None, n, 0, t_i, horizon, 3,
                                  speed_dist=cfg.speed_dist, settle_s=settle)
        plan = _UePlan.build(cfg.mix, cfg.geom, cfg.speed_dist)
        chunks = list(_ue_chunks(plan, n, horizon, settle, population_rng(3, KIND_UE)))
        assert len(chunks) > 3
        want = []
        for lo, (start, end, dev), motion in chunks:
            m = len(motion[0])
            assert np.all(start < horizon) and np.all(end >= start)
            assert np.all(np.diff(dev) >= 0) and set(dev.tolist()) <= set(range(m))
            assert np.all(np.diff(start)[dev[1:] == dev[:-1]] >= 0)
            (t, d, p), _ = _reference_ue_population(start, end, dev, motion, m, t_i, horizon)
            want.append((t, d + lo, p))
        got = _by_device(trace, KIND_UE)
        assert len(got[0]) > 0
        _assert_same(got, [np.concatenate(c) for c in zip(*want)])


class TestUeLaw:
    def test_rounds_continue_each_timeline(self, cfg):
        # at two sessions a round every UE takes many rounds; its AAPs must
        # still come device by device, in order, with the law of one round
        plan = _UePlan.build(cfg.mix, cfg.geom, cfg.speed_dist)
        n, horizon = 300, 4000.0
        counts = []
        for per_round in (2, 40):
            start, end, dev = _ue_intervals(plan, n, horizon, 1000.0, per_round,
                                            np.random.default_rng(per_round))
            same = dev[1:] == dev[:-1]
            assert np.all(np.diff(dev) >= 0)
            assert np.all(start[1:][same] >= end[:-1][same] - 1e-6)
            assert np.all((start < horizon) & (end >= start))
            counts.append(np.bincount(dev, minlength=n))
        a, b = counts
        se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(n)
        assert a.mean() > 10 and abs(a.mean() - b.mean()) <= 4 * se

    def test_ue_triggers_independent_of_mtcds(self, cfg):
        args = (cfg.mix, cfg.geom, cfg.mmpp)
        alone = generate_triggers(*args, 30, 0, 10.0, 2000.0, 8, speed_dist=cfg.speed_dist)
        mixed = generate_triggers(*args, 30, 25, 10.0, 2000.0, 8, speed_dist=cfg.speed_dist)
        assert len(alone) > 0 and np.any(mixed.device_kind == KIND_MTCD)
        _assert_same(_by_device(mixed, KIND_UE), _by_device(alone, KIND_UE))

    def test_rates_match_the_reference_generator(self, cfg):
        # per-UE SR, SRR and HR counts of the population sampler and of the
        # per-device reference generator, which draws one UE at a time from
        # a stream of its own, must agree in mean within 4 standard errors
        n, t_i, horizon = 2000, 10.0, 4000.0
        trace = generate_triggers(cfg.mix, cfg.geom, None, n, 0, t_i, horizon, 21,
                                  speed_dist=cfg.speed_dist)
        plan = _UePlan.build(cfg.mix, cfg.geom, cfg.speed_dist)
        ref = np.zeros((3, n))
        for d in range(n):
            starts, ends, motion = _reference_ue_timeline(np.random.default_rng([21, d]), plan,
                                                          horizon, 3000.0)
            _, _, p = _interval_triggers(np.array(starts), np.array(ends),
                                         np.zeros(len(starts), dtype=np.int64), t_i, horizon,
                                         tuple(np.array([v]) for v in motion) + (plan.cell,))
            ref[:, d] = np.bincount(p, minlength=3)
        new = np.zeros((3, n))
        np.add.at(new, (trace.procedure, trace.device_id), 1)
        for proc in (PROC_SR, PROC_SRR, PROC_HR):
            a, b = new[proc], ref[proc]
            se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(n)
            assert a.mean() > 1.0
            assert abs(a.mean() - b.mean()) <= 4 * se, PROC_NAMES[proc]


class TestMtcdLeadIn:
    def test_lead_in_is_whole_slots_covering_the_timer(self, cfg):
        assert _mtcd_lead_in(cfg.mmpp, 7.5, 3000.0) == 8.0
        assert _mtcd_lead_in(cfg.mmpp, 10.0, 3000.0) == 10.0
        assert _mtcd_lead_in(cfg.mmpp, 0.0, 3000.0) == 0.0
        assert _mtcd_lead_in(cfg.mmpp, 2999.5, 3000.0) == 3000.0
        # 0.9000000000000001 / 0.1 rounds down to 9, and 9 slots fall short
        t_i = 0.9000000000000001
        assert _mtcd_lead_in(replace(cfg.mmpp, delta_t=0.1), t_i, 3000.0) >= t_i
        for t_i in (3000.0, 5000.0, np.inf):
            assert _mtcd_lead_in(cfg.mmpp, t_i, 3000.0) == 3000.0

    @pytest.mark.parametrize("t_i", [-1.0, np.nan])
    def test_bad_timer(self, cfg, t_i):
        with pytest.raises(ParameterError):
            generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 0, 2, t_i, 100.0, 1,
                              speed_dist=cfg.speed_dist)

    @pytest.mark.parametrize("t_i", [60.0, np.inf])
    def test_timer_past_settle_keeps_settle(self, cfg, t_i):
        trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 0, 40, t_i, 500.0, 5,
                                  speed_dist=cfg.speed_dist, settle_s=50.0)
        assert len(trace) > 0
        # 40 MTCDs fit in one chunk, so the trace's packets are these
        pk, dev = mmpp_packet_streams(cfg.mmpp, 550.0, 40, population_rng(5, KIND_MTCD))
        want = _reference_population(pk - 50.0, dev, 40, t_i, 500.0)
        _assert_same(_by_device(trace), want)
        assert np.all(trace.device_kind == KIND_MTCD)

    def test_short_lead_in_keeps_the_trigger_law(self, cfg):
        # Only the triggers in [0, t_i) can see the lead-in: the SRRs there
        # close sessions opened before 0, and an SR there needs the packets
        # up to t_i before it.
        t_i, horizon, n = 7.5, 15.0, 20_000

        def per_device(seed, lead_s):
            n_sr, n_srr = np.zeros(n), np.zeros(n)
            rng = population_rng(seed, KIND_MTCD)
            for pk, dev in mmpp_stream_chunks(cfg.mmpp, lead_s + horizon, n, rng):
                t, d, p = _interval_triggers(pk - lead_s, pk - lead_s, dev, t_i, horizon)
                n_sr += np.bincount(d[(p == PROC_SR) & (t < t_i)], minlength=n)
                n_srr += np.bincount(d[(p == PROC_SRR) & (t < t_i)], minlength=n)
            return n_sr, n_srr

        lead_s = _mtcd_lead_in(cfg.mmpp, t_i, 3000.0)
        assert lead_s == 8.0
        for long, short in zip(per_device(1, 3000.0), per_device(2, lead_s)):
            se = math.hypot(long.std(ddof=1), short.std(ddof=1)) / math.sqrt(n)
            assert long.mean() > 0.05
            assert abs(long.mean() - short.mean()) <= 4 * se


def _reference_mtcd_triggers(pk, t_i, horizon_s):
    """Reference: one MTCD's (times, procs) from its own packets, device by
    device: the per-device generator's triggers, clipped to [0, horizon)."""
    if len(pk) == 0:
        return np.empty(0), np.empty(0, dtype=np.uint8)
    gaps = np.diff(pk)
    sr_times = pk[np.concatenate(([True], gaps > t_i))]  # first packet finds it idle
    srr_times = pk[np.concatenate((gaps > t_i, [True]))] + t_i  # timer runs out after these
    times = np.concatenate((sr_times, srr_times))
    procs = np.concatenate((np.zeros(len(sr_times), dtype=np.uint8),
                            np.full(len(srr_times), PROC_SRR, dtype=np.uint8)))
    order = np.argsort(times, kind="stable")
    times, procs = times[order], procs[order]
    keep = (times >= 0.0) & (times < horizon_s)
    return times[keep], procs[keep]


def _reference_population(pk, dev, n, t_i, horizon_s):
    """(times, devices, procs) of `_reference_mtcd_triggers` over devices 0..n-1."""
    times, devs, procs = [], [], []
    for d in range(n):
        t, p = _reference_mtcd_triggers(pk[dev == d], t_i, horizon_s)
        times.append(t)
        devs.append(np.full(len(t), d))
        procs.append(p)
    return np.concatenate(times), np.concatenate(devs), np.concatenate(procs)


def _assert_same(got, want):
    for name, a, b in zip(("times", "devices", "procs"), got, want):
        assert np.array_equal(a, b), name


def _by_device(trace, kind=KIND_MTCD, shift=0):
    """(times, devices, procs) of one kind's triggers, device by device in time
    order; the sort is stable, so ties keep the trace's own order."""
    sel = trace.device_kind == kind
    t, d, p = trace.time_s[sel], trace.device_id[sel] - shift, trace.procedure[sel]
    order = np.lexsort((t, d))
    return t[order], d[order], p[order]


def _random_packets(rng, n, lead_s, horizon_s):
    """Sorted packet times of n devices over [-lead, horizon): bursts of short
    gaps between long ones, some devices empty, some only in the lead-in."""
    pk, dev = [], []
    for d in range(n):
        t0 = -lead_s + rng.uniform(0.0, lead_s + horizon_s) * rng.choice([0.01, 0.2, 1.0])
        k = rng.poisson(6.0)
        gaps = np.where(rng.random(k) < 0.6, rng.exponential(2.0, k), rng.exponential(40.0, k))
        t = t0 + np.cumsum(gaps)
        t = t[t < horizon_s]
        pk.append(t)
        dev.append(np.full(len(t), d))
    return np.concatenate(pk), np.concatenate(dev)


class TestMtcdTriggers:
    """The population's masks against the per-device reference, on the same packets."""

    def check(self, pk, dev, n, t_i, horizon_s):
        t, d, p = _interval_triggers(pk, pk, dev, t_i, horizon_s)
        order = np.lexsort((t, d))  # stable: an SR stays ahead of an SRR at its time
        got = (t[order], d[order], p[order])
        _assert_same(got, _reference_population(pk, dev, n, t_i, horizon_s))
        return got

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("t_i", [0.0, 2.5, 10.0, np.inf])
    def test_random_arrays(self, seed, t_i):
        rng = np.random.default_rng(seed)
        pk, dev = _random_packets(rng, 80, 10.0, 100.0)
        got = self.check(pk, dev, 80, t_i, 100.0)
        assert len(got[0]) > 0

    HAND = {  # device -> packet times, lead-in 10 s, horizon 100 s
        1: [-9.0, -5.0],  # only lead-in packets; their session's SRR at 5 is kept
        2: [-5.0, 3.0, 20.0, 95.0],  # the SRR at 13 closes a lead-in session
        3: [0.0, 90.0],  # an SR at 0; the SRR at 100 is past the horizon
        5: [-10.0],  # an SRR exactly at 0
        6: [-2.0, 8.0, 90.0 - 1e-9],  # the last SRR just inside the horizon
    }  # devices 0 and 4 send nothing

    def hand_built(self):
        pk = np.concatenate([self.HAND[d] for d in sorted(self.HAND)])
        dev = np.concatenate([np.full(len(self.HAND[d]), d) for d in sorted(self.HAND)])
        return pk, dev

    def test_hand_built(self):
        t, d, p = self.check(*self.hand_built(), 7, 10.0, 100.0)
        assert d.tolist() == [1, 2, 2, 2, 2, 3, 3, 3, 5, 6, 6, 6]
        assert t.tolist() == [5.0, 13.0, 20.0, 30.0, 95.0, 0.0, 10.0, 90.0, 0.0,
                              18.0, 90.0 - 1e-9, 100.0 - 1e-9]
        assert p.tolist() == [PROC_SRR, PROC_SRR, PROC_SR, PROC_SRR, PROC_SR, PROC_SR, PROC_SRR,
                              PROC_SR, PROC_SRR, PROC_SRR, PROC_SR, PROC_SRR]

    def test_hand_built_timer_zero_and_infinite(self):
        # t_i = 0: every packet opens and closes its own session at one instant
        t, d, p = self.check(*self.hand_built(), 7, 0.0, 100.0)
        assert p.tolist() == [PROC_SR, PROC_SRR] * 7
        assert np.array_equal(t[::2], t[1::2])
        # t_i = inf: a device's first packet opens its only session, so only a
        # device whose first packet is in the horizon has a trigger, an SR
        t, d, p = self.check(*self.hand_built(), 7, np.inf, 100.0)
        assert (d.tolist(), t.tolist(), p.tolist()) == ([3], [0.0], [PROC_SR])

    def test_no_packets(self):
        got = self.check(np.empty(0), np.empty(0, dtype=np.int64), 3, 10.0, 100.0)
        assert all(len(a) == 0 for a in got)

    def test_trace_over_several_chunks(self, cfg, monkeypatch):
        monkeypatch.setattr(mmpp, "CHUNK", 64)
        n, t_i, horizon = 300, 10.0, 2000.0
        trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 0, n, t_i, horizon, 3,
                                  speed_dist=cfg.speed_dist)
        rng = population_rng(3, KIND_MTCD)
        chunks = list(mmpp_stream_chunks(cfg.mmpp, 10.0 + horizon, n, rng))
        assert len(chunks) > 3
        pk, dev = (np.concatenate(c) for c in zip(*chunks))
        want = _reference_population(pk - 10.0, dev, n, t_i, horizon)
        got = _by_device(trace)
        assert len(got[0]) > 0
        _assert_same(got, want)

    def test_mtcds_independent_of_ues(self, cfg):
        args = (cfg.mix, cfg.geom, cfg.mmpp)
        alone = generate_triggers(*args, 0, 30, 10.0, 1000.0, 8, speed_dist=cfg.speed_dist)
        mixed = generate_triggers(*args, 3, 30, 10.0, 1000.0, 8, speed_dist=cfg.speed_dist)
        assert len(alone) > 0 and np.any(mixed.device_kind == KIND_UE)
        _assert_same(_by_device(mixed, shift=3), _by_device(alone))
        # the MTCD stream is not the UE stream
        first = population_rng(8, KIND_MTCD).random(4)
        assert not np.array_equal(first, population_rng(8, KIND_UE).random(4))

    @pytest.mark.parametrize("p, q, lambda1, lambda2", [
        (0.0, 0.01, 0.05, 0.5),  # never leaves state 1
        (0.01, 0.0, 0.05, 0.5),  # never leaves state 2
        (0.01, 0.02, 0.0, 0.5),  # a silent state
        (0.01, 0.02, 0.0, 0.0),  # no packets at all
    ])
    def test_degenerate_chains(self, cfg, p, q, lambda1, lambda2):
        params = MmppParams(p, q, lambda1, lambda2)
        trace = generate_triggers(cfg.mix, cfg.geom, params, 0, 50, 10.0, 500.0, 2,
                                  speed_dist=cfg.speed_dist)
        pk, dev = mmpp_packet_streams(params, 510.0, 50, population_rng(2, KIND_MTCD))
        want = _reference_population(pk - 10.0, dev, 50, 10.0, 500.0)
        _assert_same(_by_device(trace), want)
        assert (len(trace) > 0) == (lambda1 + lambda2 > 0)


def _reference_sessions(start, end, dev, t_i):
    """`_sessions` by boolean masks: a mask of the intervals that open a
    session, rolled by one for those that close one."""
    sr = np.ones(len(start), dtype=bool)
    sr[1:] = (dev[1:] != dev[:-1]) | (start[1:] - end[:-1] > t_i)
    srr = np.roll(sr, -1)  # the next interval opens a session (the last wraps to the first)
    return start[sr], end[srr] + t_i, dev[sr]


class TestSessions:
    """`_sessions` at its edges, and against the mask formula on generated chunks."""

    @staticmethod
    def check(start, end, dev, t_i, want):
        got = _sessions(np.array(start, dtype=float), np.array(end, dtype=float),
                        np.array(dev, dtype=np.int32), t_i)
        for g, w, dtype in zip(got, want, (np.float64, np.float64, np.int32)):
            assert g.dtype == dtype
            assert g.tolist() == list(w)

    def test_no_intervals(self):
        self.check([], [], [], 10.0, ([], [], []))

    def test_one_interval(self):
        self.check([3.0], [5.0], [7], 10.0, ([3.0], [15.0], [7]))

    def test_one_device_one_session(self):
        # gaps of 10 s exactly do not open a session
        self.check([0.0, 15.0, 30.0], [5.0, 20.0, 31.0], [2, 2, 2], 10.0, ([0.0], [41.0], [2]))

    def test_every_interval_its_own_session(self):
        self.check([0.0, 20.0, 20.0, 40.0], [5.0, 20.0, 25.0, 41.0], [0, 0, 1, 1], 10.0,
                   ([0.0, 20.0, 20.0, 40.0], [15.0, 30.0, 35.0, 51.0], [0, 0, 1, 1]))

    def test_device_boundary_at_last_interval(self):
        # the last device has one interval, closer in time than the timer
        self.check([0.0, 4.0, 6.0], [1.0, 5.0, 6.0], [0, 0, 3], 10.0,
                   ([0.0, 6.0], [15.0, 16.0], [0, 3]))

    @pytest.mark.parametrize("t_i", [0.0, 30.0, np.inf])
    def test_mtcd_chunks_match_masks(self, cfg, t_i):
        rng = population_rng(5, KIND_MTCD)
        for pk, stream in mmpp_stream_chunks(cfg.mmpp, 4000.0, 1500, rng):  # two chunks
            dev = stream.astype(np.int32)
            got, want = _sessions(pk, pk, dev, t_i), _reference_sessions(pk, pk, dev, t_i)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("t_i", [0.0, 30.0, np.inf])
    def test_ue_chunks_match_masks(self, cfg, t_i):
        plan = _UePlan.build(cfg.mix, cfg.geom, cfg.speed_dist)
        for _, (start, end, dev), _ in _ue_chunks(plan, 150, 4000.0, 1000.0,  # two chunks
                                                  population_rng(5, KIND_UE)):
            got, want = _sessions(start, end, dev, t_i), _reference_sessions(start, end, dev, t_i)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)


class TestTwoPopulations:
    """A trace of both kinds builds its MTCDs on a worker thread, its UEs on the caller's."""

    def generate(self, cfg, n_u, n_d, t_i=30.0):
        return generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, n_u, n_d, t_i, 2000.0, 9,
                                 speed_dist=cfg.speed_dist)

    @pytest.mark.parametrize("t_i", [0.0, 30.0, np.inf])
    def test_merge_of_one_population_traces(self, cfg, t_i):
        n_u, n_d = 20, 200
        both = self.generate(cfg, n_u, n_d, t_i)
        ues = self.generate(cfg, n_u, 0, t_i)
        mtcds = self.generate(cfg, 0, n_d, t_i)
        assert len(ues) > 0 and len(mtcds) > 0
        want = _lexsorted([(ues.time_s, ues.device_id, ues.procedure),
                           (mtcds.time_s, mtcds.device_id + n_u, mtcds.procedure)])
        _assert_same((both.time_s, both.device_id, both.procedure), want)
        assert both.device_id.dtype == np.int32

    @pytest.mark.parametrize("n_u, n_d", [(5, 20), (5, 0), (0, 20)])
    def test_threads_of_each_population(self, cfg, monkeypatch, n_u, n_d):
        # only a trace of both kinds starts a worker, and it draws the MTCDs
        seen = {}

        def record(kind, fn):
            def wrapped(*args):
                seen[kind] = threading.get_ident()
                return fn(*args)
            return wrapped

        monkeypatch.setattr(triggers, "_ue_chunks", record(KIND_UE, triggers._ue_chunks))
        monkeypatch.setattr(triggers, "mmpp_stream_chunks",
                            record(KIND_MTCD, triggers.mmpp_stream_chunks))
        self.generate(cfg, n_u, n_d)
        assert set(seen) == {k for k, n in ((KIND_UE, n_u), (KIND_MTCD, n_d)) if n}
        main = threading.get_ident()
        assert seen.get(KIND_UE, main) == main
        assert (seen.get(KIND_MTCD) == main) == (n_u == 0)

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    @pytest.mark.parametrize("failing", ["_ue_chunks", "mmpp_stream_chunks"])
    def test_error_on_either_thread(self, cfg, monkeypatch, failing):
        # the error surfaces once, from the call, and no thread outlives it
        def fail(*args):
            raise RuntimeError(f"{failing} failed")
            yield

        monkeypatch.setattr(triggers, failing, fail)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^{failing} failed$"):
            self.generate(cfg, 5, 20)
        assert threading.active_count() == threads

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_error_on_both_threads(self, cfg, monkeypatch):
        # the calling thread's error wins, and only after the worker is joined
        def fail(name):
            def failing(*args):
                raise RuntimeError(f"{name} failed")
                yield
            return failing

        for name in ("_ue_chunks", "mmpp_stream_chunks"):
            monkeypatch.setattr(triggers, name, fail(name))
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="^_ue_chunks failed$"):
            self.generate(cfg, 5, 20)
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_trace(self, cfg):
        threads = threading.active_count()
        assert len(self.generate(cfg, 5, 20)) > 0
        assert threading.active_count() == threads

    def test_device_ids_must_fit_int32(self, cfg, monkeypatch):
        # raised before any work: a population that starts reaches population_rng
        class Started(Exception):
            pass

        def started(seed, kind):
            raise Started

        monkeypatch.setattr(triggers, "population_rng", started)
        for n_u, n_d in ((2**31 - 1, 1), (1, 2**31 - 1), (0, 2**31)):
            with pytest.raises(ParameterError, match="int32"):
                self.generate(cfg, n_u, n_d)
        with pytest.raises(Started):
            self.generate(cfg, 2**31 - 2, 1)


class TestMeasuredRates:
    def test_matches_theory_at_small_scale(self, cfg, small_trace):
        emp = measured_rates(small_trace, 200, 200, 10000.0)
        u_sr, _, u_hr = htc_rates(cfg.mix, cfg.geom, 10.0)
        s_sr, _ = mtc_rates(cfg.mmpp, 10.0)
        assert emp.lam_u_sr == pytest.approx(u_sr, rel=0.10)
        assert emp.lam_s_sr == pytest.approx(s_sr, rel=0.10)
        assert emp.lam_u_hr == pytest.approx(u_hr, rel=0.10)

    def test_trivial_counting(self):
        trace = TriggerTrace(
            np.array([1.0, 2.0, 3.0]),
            np.array([0, 0, 1], dtype=np.int64),
            np.array([PROC_SR, PROC_SRR, PROC_SR], dtype=np.uint8),
            10.0, 2, 0,
        )
        emp = measured_rates(trace, 2, 0, 10.0)
        assert emp.lam_u_sr == pytest.approx(2 / (2 * 10.0))


class TestShortHorizon:
    """A trace of a few timer lengths keeps the model's rates: a session open
    at 0 keeps its SRR and HRs in the horizon."""

    @staticmethod
    def per_device(trace, n):
        counts = np.zeros((3, n))
        np.add.at(counts, (trace.procedure, trace.device_id), 1)
        return counts

    def test_ue_rates_match_the_model(self, cfg):
        n, t_i, horizon = 20_000, 10.0, 60.0
        trace = generate_triggers(cfg.mix, cfg.geom, None, n, 0, t_i, horizon, 31,
                                  speed_dist=cfg.speed_dist)
        counts = self.per_device(trace, n)
        for proc, rate in zip((PROC_SR, PROC_SRR, PROC_HR), htc_rates(cfg.mix, cfg.geom, t_i)):
            c = counts[proc]
            assert c.mean() > 0.05
            assert abs(c.mean() - rate * horizon) <= 4 * c.std(ddof=1) / math.sqrt(n), \
                PROC_NAMES[proc]

    def test_mtcd_srr_matches_sr(self, cfg):
        # the shape of perfbench's simulate_mtc: 20k MTCDs over 200 s
        n, horizon = 20_000, 200.0
        trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 0, n, cfg.scenario["t_i_s"],
                                  horizon, 111, speed_dist=cfg.speed_dist)
        counts = self.per_device(trace, n)
        diff = counts[PROC_SRR] - counts[PROC_SR]
        assert counts[PROC_SR].mean() > 0.5
        assert abs(diff.mean()) <= 4 * diff.std(ddof=1) / math.sqrt(n)


class TestCallOnlyScenario:
    def test_one_sr_per_session_no_srr_without_timer(self, cfg):
        call = next(a for a in cfg.mix.apps if a.name == "call")
        mix = replace(cfg.mix, apps=(replace(call, p_app=1.0),))
        geom = replace(cfg.geom, mean_speed_mps=0.0)
        trace = generate_triggers(mix, geom, None, 5, 0, np.inf, 30000.0, 5,
                                  speed_dist=dists.constant(0.0), settle_s=0.0)
        c = trace.counts()
        assert c["UE_SRR"] == 0
        assert c["UE_HR"] == 0
        assert c["UE_SR"] == 5  # the timer never fires -> one SR total per device


def _reference_queue_sim(trace, params, service_law, seed):
    """Reference: the same chain driven by one heap of every pending event.

    Each event is (time, seq, next stage, proc, msg_idx, fe_arrival, service
    times); every stage is a heap of server-free times. A message draws its
    four service times when it reaches the FE. `run_queue_sim` must give the
    same `SimStats` field for field. A stage's busy sum adds its service
    times in the order their messages reach the FE under the exponential
    law; under the deterministic law it is their exact sum, rounded once
    (`math.fsum`).
    """
    st = params.sl_times
    t_fe, t_db, t_oi = 1.0 / params.mu_fe, 1.0 / params.mu_sdb, 1.0 / params.mu_oi
    means = {proc: [(t_fe, t_sl, t_db, t_oi) for t_sl in sl]
             for proc, sl in ((PROC_SR, (st.t_sr1, st.t_sr2, st.t_sr3)),
                              (PROC_SRR, (st.t_srr1, st.t_srr2, st.t_srr3)),
                              (PROC_HR, (st.t_hr1, st.t_hr2)))}
    m = params.m
    rng = np.random.default_rng(seed)
    exp = service_law == "exponential"

    events = [(t + params.prop_delay_s, i, 0, int(proc), 0, 0.0, None)
              for i, (t, proc) in enumerate(zip(trace.time_s, trace.procedure))]
    heapq.heapify(events)
    seq = len(events)
    free = [[-np.inf], [-np.inf] * m, [-np.inf], [-np.inf]]
    busy = [0.0] * 4
    served = [[], [], [], []]  # every service time, by stage
    responses = []
    t_first, t_last = np.inf, -np.inf
    in_chain = []
    backlog = max_backlog = 0
    while events:
        t, sq, stage, proc, msg_idx, fe_arr, svc = heapq.heappop(events)
        if stage == 0:
            while in_chain and in_chain[0] < (t, sq):
                heapq.heappop(in_chain)
                backlog -= 1
            backlog += 1
            max_backlog = max(max_backlog, backlog)
            t_first = min(t_first, t)
            fe_arr = t
            svc = means[proc][msg_idx]
            if exp:
                svc = [rng.exponential(s) for s in svc]
                busy = [b + s for b, s in zip(busy, svc)]
        for i in range(stage, 4):
            if i == 3:
                heapq.heappush(in_chain, (t, sq))
            s = svc[i]
            t = max(t, free[i][0]) + s
            heapq.heapreplace(free[i], t)
            served[i].append(s)
            if len(free[i]) > 1:
                heapq.heappush(events, (t, sq, i + 1, proc, msg_idx, fe_arr, svc))
                break
        else:
            responses.append(t - fe_arr)
            t_last = max(t_last, t)
            if msg_idx + 1 < len(means[proc]):
                heapq.heappush(events, (t + params.t_im_s, seq, 0, proc, msg_idx + 1, 0.0,
                                        None))
                seq += 1

    span = max(t_last - t_first, 0.0)
    if not exp:
        busy = [math.fsum(x) for x in served]
    util = {s: (b / span if span > 0 else 0.0) for s, b in zip(("fe", "sl", "db", "oi"), busy)}
    util["sl"] = util["sl"] / m
    resp = np.asarray(responses)
    kept = resp[int(len(resp) * WARMUP_FRACTION):]
    if len(kept) >= 2 * MIN_BATCHES:
        mean, half = batch_means(kept, MIN_BATCHES)
        valid = True
    else:
        mean = float(kept.mean()) if len(kept) else float("nan")
        half, valid = float("nan"), False
    return SimStats(mean, half, len(responses), util,
                    len(responses) / trace.horizon_s, max_backlog, valid)


def _tie_trace(params, law, seed):
    """Two triggers at the same instant, on which a follow-up lands exactly.

    With no propagation delay, an SR at 0 has the chain to itself, so its
    first message takes the kernel's first four service draws (FE, SL, SDB,
    OI; replayed here from the same seed) and its follow-up reaches the FE at
    `f`, when the two triggers at `f` do. A trigger also reaches the FE when
    the SR's message leaves the pool, which ties with that pool departure
    when m > 1. Every tie is broken by seq: the triggers before the
    follow-up, the pool departure before the trigger. The triggers at `f`
    are SRs, whose first message has another SL time than the follow-up, so
    the order shows in the results.
    """
    means = (1.0 / params.mu_fe, params.sl_times.t_sr1, 1.0 / params.mu_sdb,
             1.0 / params.mu_oi)
    if law == "exponential":
        rng = np.random.default_rng(seed)
        means = [rng.exponential(s) for s in means]
    d_fe, d_sl, d_db, d_oi = means
    left_pool = 0.0 + d_fe + d_sl
    f = left_pool + d_db + d_oi + params.t_im_s
    times = [0.0, left_pool, f, f, f + 0.5e-3]
    procs = [PROC_SR, PROC_HR, PROC_SR, PROC_SR, PROC_SRR]  # SR: first message differs
    return TriggerTrace(np.array(times), np.arange(5, dtype=np.int64),
                        np.array(procs, dtype=np.uint8), 1.0, 5, 0)


def _idle_tie_trace(params, law, seed):
    """An HR trigger that reaches the FE exactly when an SR's last message
    leaves the SDB.

    With no propagation delay, an SR at 0 has the chain to itself, so its
    three messages take the kernel's first service draws (replayed here from
    the same seed) and never wait. The HR arrives at the third message's SDB
    departure `x`, when `free_db == x` and nothing else is in the chain. That
    message's seq is larger than the HR's, so it is still inside: the HR sees
    a backlog of 2, and no other message sees more than 1.
    """
    t_fe, t_db, t_oi = 1.0 / params.mu_fe, 1.0 / params.mu_sdb, 1.0 / params.mu_oi
    st = params.sl_times
    means = [s for t_sl in (st.t_sr1, st.t_sr2, st.t_sr3) for s in (t_fe, t_sl, t_db, t_oi)]
    if law == "exponential":
        rng = np.random.default_rng(seed)
        means = [rng.exponential(s) for s in means]
    x = 0.0
    for k, s in enumerate(means[:-1]):  # up to the last message's SDB departure
        x = x + s
        if k % 4 == 3:  # an OI departure: the next message reaches the FE
            x = x + params.t_im_s
    return TriggerTrace(np.array([0.0, x]), np.arange(2, dtype=np.int64),
                        np.array([PROC_SR, PROC_HR], dtype=np.uint8), 1.0, 2, 0)


class TestQueueSim:
    @pytest.mark.parametrize("law", ["deterministic", "exponential"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("shape", ["generated", "overloaded", "ties", "mtcd_burst",
                                       "idle_tie"])
    def test_matches_reference_kernel(self, cfg, shape, m, law):
        params = replace(cfg.queue, m=m)
        if shape == "generated":
            trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 50, 50, 10.0,
                                      3000.0, 7, speed_dist=cfg.speed_dist)
        elif shape == "overloaded":  # about 110 % of two SL servers
            trace = poisson_triggers(3500.0, 3500.0, 1500.0, 0.5, 17)
        elif shape == "mtcd_burst":  # `simulate_mtc`'s bursty MMPP input at 1/10 scale
            trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 0, 2000, 10.0,
                                      200.0, 7, speed_dist=cfg.speed_dist)
        elif shape == "ties":
            params = replace(params, prop_delay_s=0.0)
            trace = _tie_trace(params, law, seed=9)
        else:
            params = replace(params, prop_delay_s=0.0)
            trace = _idle_tie_trace(params, law, seed=9)
        got = run_queue_sim(trace, params, law, seed=9)
        want = _reference_queue_sim(trace, params, law, seed=9)
        assert got.n_messages == trace.n_messages
        if shape in ("ties", "idle_tie"):
            assert not got.valid  # too few messages for batches: the mean is plain
        if shape == "idle_tie":
            assert got.max_backlog == 2
        for f in fields(SimStats):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a == b or (a != a and b != b), f.name  # NaN != NaN

    def test_empty_trace(self, cfg):
        trace = TriggerTrace(np.empty(0), np.empty(0, dtype=np.int64),
                             np.empty(0, dtype=np.uint8), 10.0, 0, 0)
        st = run_queue_sim(trace, cfg.queue)
        assert st.n_messages == 0
        assert not st.valid

    def test_single_sr_deterministic_walk(self, cfg):
        trace = TriggerTrace(np.array([0.0]), np.array([0], dtype=np.int64),
                             np.array([PROC_SR], dtype=np.uint8), 1.0, 1, 0)
        params = replace(cfg.queue, m=1)
        st = run_queue_sim(trace, params, "deterministic")
        assert st.n_messages == 3
        q, t = params, params.sl_times
        base = 1 / q.mu_fe + 1 / q.mu_sdb + 1 / q.mu_oi
        # an isolated job never waits: response = sum of the four services
        expected = sorted([base + t.t_sr1, base + t.t_sr2, base + t.t_sr3])
        # recover per-message responses from the batch-less path
        assert st.mean_response_s == pytest.approx(np.mean(expected), rel=1e-12)
        assert st.max_backlog == 1

    def test_pool_overtaking_walk(self, cfg):
        # m = 2: an SR at t = 0 and an HR at 1 us. The HR's first message
        # waits for the FE, then takes the second SL server and leaves the
        # pool after 94 us, before the SR's first message (127.4 us), so it
        # must reach the SDB first and never wait there.
        trace = TriggerTrace(np.array([0.0, 1e-6]), np.array([0, 1], dtype=np.int64),
                             np.array([PROC_SR, PROC_HR], dtype=np.uint8), 1.0, 2, 0)
        params = replace(cfg.queue, m=2)
        st = run_queue_sim(trace, params, "deterministic")
        q, t = params, params.sl_times
        t_fe = 1 / q.mu_fe
        base = t_fe + 1 / q.mu_sdb + 1 / q.mu_oi
        expected = [
            base + t.t_sr1,  # SR message 1: no wait anywhere
            (t_fe - 1e-6) + base + t.t_hr1,  # HR message 1: waits for the FE only
            base + t.t_hr2,  # the second and third messages are 25 us apart
            base + t.t_sr2,
            base + t.t_sr3,
        ]
        assert st.n_messages == 5
        assert st.mean_response_s == pytest.approx(np.mean(expected), rel=1e-12)
        assert st.max_backlog == 2

    def test_golden_deterministic(self, cfg):
        # Every field recorded from the four-branch kernel that the
        # single-heap kernel replaced; under the deterministic law the results
        # must stay bit-identical. The m = 1 trace is generated, so a change
        # to trace generation changes these figures too (recorded again after
        # UE draws moved to per-device blocks, after the MTCD lead-in shrank
        # to one timer length, after MTCDs moved to one population stream,
        # after UEs did, after handovers moved to wrap-around cells and the
        # trace's clip to t = 0, and after truncated lognormals moved from the
        # inverse CDF to rejection draws). The two half-widths were recorded again
        # when the t quantile moved from SciPy's stdtrit to the package's own:
        # at df = 19 it is 1 ulp higher, and each half-width scaled with it.
        # The two message rates were recorded again when the rate moved from
        # the span of the run (first FE arrival to last OI departure) to the
        # trace's horizon. The two utilization dicts were recorded again when
        # the busy sums moved from one addition per message to the exact sum
        # of count times service time per message type, rounded once; they
        # moved by less than 1e-12 relative.
        small = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 50, 50, 10.0,
                                  3000.0, 7, speed_dist=cfg.speed_dist)
        st = run_queue_sim(small, replace(cfg.queue, m=1), "deterministic", seed=3)
        assert (st.mean_response_s, st.ci_halfwidth_s) == (
            0.00011777007894697403, 6.905929058848727e-08)
        assert (st.n_messages, len(small), st.max_backlog) == (12241, 4154, 1)
        assert st.utilization == {
            "fe": 3.4004826083438676e-05, "sl": 0.00040496212652429313,
            "db": 4.080579130012641e-05, "oi": 8.161158260025281e-07}
        assert st.empirical_lam_msgs == 4.080333333333333  # 12241 messages / 3000 s
        assert st.valid

        # m = 3 pool at about 75 % load, where messages queue and overtake
        pool = poisson_triggers(3500.0, 3500.0, 1500.0, 0.5, 17)
        st = run_queue_sim(pool, replace(cfg.queue, m=3), "deterministic", seed=5)
        assert (st.mean_response_s, st.ci_halfwidth_s) == (
            0.00015801191006490766, 7.99625192858154e-06)
        assert (st.n_messages, len(pool), st.max_backlog) == (12098, 4275, 16)
        assert st.utilization == {
            "fe": 0.19011940698562574, "sl": 0.7517182432096107,
            "db": 0.2281432883827509, "oi": 0.004562865767655018}
        assert st.empirical_lam_msgs == 24196.0  # 12098 messages / 0.5 s
        assert st.valid

    def test_golden_exponential(self, cfg):
        # The m = 1 fields were recorded when a message drew its SDB and OI
        # times on reaching the SDB; with one server in every stage a message
        # walks through all four at once, so drawing all four on reaching the
        # FE takes the same numbers. The m = 3 fields were recorded after the
        # draws moved to the FE: a pool lets other messages reach the FE
        # between a message's FE and SDB draws, so its seeded values moved.
        small = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 50, 50, 10.0,
                                  3000.0, 7, speed_dist=cfg.speed_dist)
        st = run_queue_sim(small, replace(cfg.queue, m=1), "exponential", seed=3)
        assert (st.mean_response_s, st.ci_halfwidth_s) == (
            0.00011711722298086483, 1.3631859692831364e-06)
        assert (st.n_messages, len(small), st.max_backlog) == (12241, 4154, 2)
        assert st.utilization == {
            "fe": 3.392462431764418e-05, "sl": 0.0004008785056596127,
            "db": 4.151246385334725e-05, "oi": 8.195098662106121e-07}
        assert st.empirical_lam_msgs == 4.080333333333333
        assert st.valid

        pool = poisson_triggers(3500.0, 3500.0, 1500.0, 0.5, 17)
        st = run_queue_sim(pool, replace(cfg.queue, m=3), "exponential", seed=5)
        assert (st.mean_response_s, st.ci_halfwidth_s) == (
            0.00023297453455075435, 4.113734369894969e-05)
        assert (st.n_messages, len(pool), st.max_backlog) == (12098, 4275, 37)
        assert st.utilization == {
            "fe": 0.18768849544374636, "sl": 0.7545620418927524,
            "db": 0.2286880986468375, "oi": 0.00452741579921051}
        assert st.empirical_lam_msgs == 24196.0
        assert st.valid

    @pytest.mark.parametrize("law", ["deterministic", "exponential"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_memory_per_message(self, cfg, m, law):
        # The kernel reads the trace a chunk at a time: its traced peak is the
        # responses (a double per message) and one chunk of the trace as
        # lists. 1000 MTCDs over 200 s at T_I = 10 s send about 13k messages
        # over three chunks, and read 14.3-14.5 B per message at m = 1 and 3
        # under the deterministic law, 16.3 B under the exponential law. The
        # bound of 24 B dates from before chunked reading, when the whole
        # trace's times were one float list (22 B per message); the test
        # below holds m = 1 to 18 B.
        trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 0, 1000, 10.0, 200.0, 5,
                                  speed_dist=cfg.speed_dist)
        trace.time_s  # the trace sorts on this first read, outside the kernel's window
        params = replace(cfg.queue, m=m)
        tracemalloc.start()
        try:
            st = run_queue_sim(trace, params, law, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.n_messages > 10000
        assert peak / st.n_messages <= 24

    def test_reproducible(self, cfg, small_trace):
        a = run_queue_sim(small_trace, cfg.queue, "exponential", seed=11)
        b = run_queue_sim(small_trace, cfg.queue, "exponential", seed=11)
        assert a.mean_response_s == b.mean_response_s
        assert a.ci_halfwidth_s == b.ci_halfwidth_s

    def test_jackson_consistency(self, cfg):
        # Poisson arrivals + exponential services: the chain is the analytic
        # Jackson network, so measured delay must match the formula
        per_ue = htc_rates(cfg.mix, cfg.geom, 10.0)
        per_mtcd = mtc_rates(cfg.mmpp, 10.0)
        r = aggregate_rates(per_ue, per_mtcd, 50000, 50000)
        t_sl = weighted_sl_service_time(r, cfg.queue.sl_times)
        trace = poisson_triggers(r.lam_sr, r.lam_srr, r.lam_hr, 40.0, 21)
        params = replace(cfg.queue, m=1)
        st = run_queue_sim(trace, params, "exponential", seed=4)
        ana = response_at(st.empirical_lam_msgs, t_sl, params)[0]
        assert st.utilization["sl"] <= 0.8
        assert st.mean_response_s == pytest.approx(ana, rel=0.05)

    def test_deterministic_below_exponential(self, cfg):
        trace = poisson_triggers(1000.0, 1000.0, 300.0, 60.0, 8)
        params = replace(cfg.queue, m=1)
        det = run_queue_sim(trace, params, "deterministic", seed=1)
        exp = run_queue_sim(trace, params, "exponential", seed=1)
        assert det.mean_response_s < exp.mean_response_s

    def test_utilizations_in_range(self, cfg, small_trace):
        st = run_queue_sim(small_trace, cfg.queue)
        for v in st.utilization.values():
            assert 0.0 <= v <= 1.0

    def test_bad_service_law(self, cfg, small_trace):
        with pytest.raises(ParameterError):
            run_queue_sim(small_trace, cfg.queue, "gamma")

    @pytest.mark.parametrize("times", [[2.0, 1.0], [1.0, np.inf]])
    def test_unsorted_or_infinite_trace(self, cfg, times):
        # the first messages are read in trace order, never re-sorted
        trace = TriggerTrace(np.array(times), np.zeros(2, dtype=np.int64),
                             np.zeros(2, dtype=np.uint8), 10.0, 1, 0)
        with pytest.raises(ParameterError):
            run_queue_sim(trace, cfg.queue)

    @pytest.mark.parametrize("procs, named", [
        (np.array([0, 3], dtype=np.uint8), "code 3 "),
        (np.array([2, -1], dtype=np.int64), "code -1 "),  # not read as an HR
        (np.array([0.0, 1.0]), "float64"),
    ])
    def test_procedure_codes_outside_the_three(self, cfg, monkeypatch, procs, named):
        # rejected before any work, under the package's error naming the code
        def no_work(*args):
            raise AssertionError("the kernel started")

        monkeypatch.setattr(queuesim, "_Kernel", no_work)
        trace = TriggerTrace(np.array([1.0, 2.0]), np.zeros(2, dtype=np.int64), procs,
                             10.0, 1, 0)
        with pytest.raises(ParameterError, match=named):
            run_queue_sim(trace, cfg.queue)


def _assert_same_stats(got, want):
    for f in fields(SimStats):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a == b or (a != a and b != b), f.name  # NaN != NaN


def _one_part(trace, params, law, seed, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(queuesim, "MIN_PART_TRIGGERS", len(trace) + 1)
        return run_queue_sim(trace, params, law, seed=seed)


def _force_parts(monkeypatch, n_parts):
    """Cut every trace of at least n_parts triggers into n_parts parts. Returns
    a function that lists the response counts at which the parent took over
    a child's run, one per part taken over."""
    monkeypatch.setattr(queuesim, "MIN_PART_TRIGGERS", 1)
    monkeypatch.setattr(queuesim, "_cpus", lambda: n_parts)
    reads = []
    read = queuesim._read

    def spy(f, n, into=None):
        reads.append(n)
        return read(f, n, into)

    # a take-over reads two stretches of the pipe, the first the responses
    # before the snapshot: 8 bytes each
    monkeypatch.setattr(queuesim, "_read", spy)
    return lambda: [n // 8 for n in reads[0::2]]


def _no_children():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # not even one waiting to be reaped
        os.waitpid(-1, os.WNOHANG)


class TestQueueSimChunks:
    @pytest.mark.parametrize("law", ["deterministic", "exponential"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_trace_over_several_chunks(self, cfg, monkeypatch, m, law):
        trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 50, 50, 10.0, 3000.0, 7,
                                  speed_dist=cfg.speed_dist)
        params = replace(cfg.queue, m=m)
        monkeypatch.setattr(queuesim, "CHUNK", len(trace))
        want = _one_part(trace, params, law, 9, monkeypatch)
        monkeypatch.setattr(queuesim, "CHUNK", 61)  # 69 chunks, the last one short
        assert len(trace) % 61
        _assert_same_stats(_one_part(trace, params, law, 9, monkeypatch), want)

    @pytest.mark.parametrize("law", ["deterministic", "exponential"])
    def test_memory_over_several_chunks(self, cfg, law):
        # Only a chunk of the trace is held as lists: the traced peak is the
        # responses and one chunk, 14.5 B per message at this size under the
        # deterministic law and 16.3 B under the exponential law (22 B before
        # chunks).
        trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 0, 1000, 10.0, 200.0, 5,
                                  speed_dist=cfg.speed_dist)
        assert len(trace) > 2 * queuesim.CHUNK
        trace.time_s  # the trace sorts on this first read, outside the kernel's window
        tracemalloc.start()
        try:
            st = run_queue_sim(trace, replace(cfg.queue, m=1), law, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / st.n_messages <= 18


class TestTimePartitions:
    @pytest.mark.parametrize("n_parts", [2, 3])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("shape", ["generated", "mtcd_burst", "overloaded"])
    def test_matches_one_part(self, cfg, monkeypatch, shape, m, n_parts):
        params = replace(cfg.queue, m=m)
        if shape == "generated":
            trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 50, 50, 10.0,
                                      3000.0, 7, speed_dist=cfg.speed_dist)
        elif shape == "mtcd_burst":
            trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 0, 2000, 10.0,
                                      200.0, 7, speed_dist=cfg.speed_dist)
        else:  # about 110 % of two SL servers
            trace = poisson_triggers(3500.0, 3500.0, 1500.0, 0.5, 17)
        want = _one_part(trace, params, "deterministic", 9, monkeypatch)
        taken = _force_parts(monkeypatch, n_parts)
        _assert_same_stats(run_queue_sim(trace, params, "deterministic", seed=9), want)
        if shape != "overloaded":
            assert len(taken()) == n_parts - 1
        elif m == 1:  # the chain never empties: no snapshot agrees, the parent runs every part
            assert taken() == []
        _no_children()

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("shape", ["ties", "idle_tie"])
    def test_a_cut_before_every_trigger(self, cfg, monkeypatch, shape, m):
        # one part per trigger: a cut falls between the two triggers at one
        # instant, and on the trigger a follow-up lands on
        params = replace(cfg.queue, m=m, prop_delay_s=0.0)
        make = _tie_trace if shape == "ties" else _idle_tie_trace
        trace = make(params, "deterministic", 9)
        want = _reference_queue_sim(trace, params, "deterministic", 9)
        _force_parts(monkeypatch, len(trace))
        _assert_same_stats(run_queue_sim(trace, params, "deterministic", seed=9), want)

    @pytest.mark.parametrize("m", [1, 3])
    def test_a_cut_that_follow_ups_cross(self, cfg, monkeypatch, m):
        # SRs 1 ms apart: at the cut, the follow-ups of the 30-odd SRs before
        # it are still to come, so the two runs cannot agree at once. The
        # part is shorter than SNAP_WINDOW round trips: a window of 4 (60 ms)
        # puts the snapshot inside it.
        n = 400
        trace = TriggerTrace(np.arange(n) * 1e-3, np.arange(n, dtype=np.int32),
                             np.full(n, PROC_SR, dtype=np.uint8), 0.5, n, 0)
        params = replace(cfg.queue, m=m)
        want = _one_part(trace, params, "deterministic", 9, monkeypatch)
        taken = _force_parts(monkeypatch, 2)
        monkeypatch.setattr(queuesim, "SNAP_WINDOW", 4)
        _assert_same_stats(run_queue_sim(trace, params, "deterministic", seed=9), want)
        assert len(taken()) == 1 and taken()[0] > 0  # taken over past the cut

    @pytest.mark.parametrize("m", [1, 3])
    def test_a_cut_while_the_oi_is_busy(self, cfg, monkeypatch, m):
        # A 0.5 ms OI. An HR's second message leaves the SDB at about 15.72
        # ms and holds the OI until about 16.22 ms; the SR after the cut
        # arrives at 15.8 ms and finds the chain idle and no follow-up due,
        # but its first message reaches the OI before the OI is free. With no
        # window the cold run snapshots that SR, where the runs disagree.
        params = replace(cfg.queue, m=m, mu_oi=2000.0, prop_delay_s=0.0)
        trace = TriggerTrace(np.array([0.0, 15.8e-3]), np.arange(2, dtype=np.int32),
                             np.array([PROC_HR, PROC_SR], dtype=np.uint8), 1.0, 2, 0)
        want = _reference_queue_sim(trace, params, "deterministic", 9)
        taken = _force_parts(monkeypatch, 2)
        monkeypatch.setattr(queuesim, "SNAP_WINDOW", 0)
        _assert_same_stats(run_queue_sim(trace, params, "deterministic", seed=9), want)
        assert taken() == []

    @pytest.mark.parametrize("m", [1, 3])
    def test_a_cut_inside_a_burst(self, cfg, monkeypatch, m):
        # 40 SRs at one instant, then the cut 10 us later, before any of them
        # has left the chain: no follow-up is due yet, but the chain is busy.
        # The runs agree from the 34th trigger after the cut at m = 1 (the
        # 25th at m = 3); a window of 5 round trips (75 ms) ends at the 39th.
        t = np.concatenate((np.zeros(40), 1e-5 + np.arange(40) * 2e-3))
        trace = TriggerTrace(t, np.arange(80, dtype=np.int32),
                             np.full(80, PROC_SR, dtype=np.uint8), 0.2, 80, 0)
        params = replace(cfg.queue, m=m)
        want = _one_part(trace, params, "deterministic", 9, monkeypatch)
        taken = _force_parts(monkeypatch, 2)
        monkeypatch.setattr(queuesim, "SNAP_WINDOW", 5)
        _assert_same_stats(run_queue_sim(trace, params, "deterministic", seed=9), want)
        assert len(taken()) == 1 and taken()[0] > 0

    @staticmethod
    def _backlog_trace():
        """40 SRs 0.1 s apart, then one at 4.0 s, 20 at 4.001 s and 19 more
        5 ms apart: cut in two, the second part starts idle at 4.0 s and its
        largest backlog is the burst of 20 at 4.001 s."""
        t = np.concatenate((np.arange(40) * 0.1, [4.0], np.full(20, 4.001),
                            4.01 + np.arange(19) * 5e-3))
        return TriggerTrace(t, np.arange(80, dtype=np.int32),
                            np.full(80, PROC_SR, dtype=np.uint8), 4.2, 80, 0)

    def test_largest_backlog_after_the_snapshot(self, cfg, monkeypatch):
        # With no window the cold run snapshots the part's first trigger, where
        # both runs are idle: taken over at once, the burst is the child's.
        trace = self._backlog_trace()
        params = replace(cfg.queue, m=1)
        want = _one_part(trace, params, "deterministic", 9, monkeypatch)
        assert want.max_backlog == 20
        taken = _force_parts(monkeypatch, 2)
        monkeypatch.setattr(queuesim, "SNAP_WINDOW", 0)
        _assert_same_stats(run_queue_sim(trace, params, "deterministic", seed=9), want)
        assert taken() == [0]

    def test_largest_backlog_before_the_snapshot(self, cfg, monkeypatch):
        # A window of 2 round trips (30 ms) puts the snapshot past the burst:
        # the parent's own run meets it, and the child's backlog before the
        # snapshot is not counted twice or lost.
        trace = self._backlog_trace()
        params = replace(cfg.queue, m=1)
        want = _one_part(trace, params, "deterministic", 9, monkeypatch)
        taken = _force_parts(monkeypatch, 2)
        monkeypatch.setattr(queuesim, "SNAP_WINDOW", 2)
        _assert_same_stats(run_queue_sim(trace, params, "deterministic", seed=9), want)
        assert len(taken()) == 1 and taken()[0] > 21  # past the 21 SRs' first messages

    @pytest.mark.parametrize("m", [1, 3])
    def test_a_part_that_couples_early(self, cfg, monkeypatch, m):
        # 40 SRs 0.1 s apart, then after a lull 40 more 20 ms apart: the part
        # after the cut finds both runs idle with nothing due, so they agree
        # from its first trigger. The snapshot still comes past the window of
        # 32 round trips (0.48 s), and the child's run is taken over there.
        t = np.concatenate((np.arange(40) * 0.1, 10.0 + np.arange(40) * 20e-3))
        trace = TriggerTrace(t, np.arange(80, dtype=np.int32),
                             np.full(80, PROC_SR, dtype=np.uint8), 11.0, 80, 0)
        params = replace(cfg.queue, m=m)
        want = _one_part(trace, params, "deterministic", 9, monkeypatch)
        taken = _force_parts(monkeypatch, 2)
        _assert_same_stats(run_queue_sim(trace, params, "deterministic", seed=9), want)
        assert len(taken()) == 1 and taken()[0] >= 24  # past the window's 24 triggers

    def test_error_in_a_child(self, cfg, monkeypatch):
        trace = poisson_triggers(1000.0, 1000.0, 300.0, 2.0, 8)

        def fail(kern, a, b, out):
            raise ValueError(f"part from {a} failed")

        _force_parts(monkeypatch, 3)
        monkeypatch.setattr(queuesim, "_cold_part", fail)
        with pytest.raises(ValueError, match="part from"):
            run_queue_sim(trace, cfg.queue, "deterministic")
        _no_children()

    def test_error_in_the_parent(self, cfg, monkeypatch):
        trace = poisson_triggers(1000.0, 1000.0, 300.0, 2.0, 8)

        def fail(*args):
            raise RuntimeError("join failed")

        _force_parts(monkeypatch, 3)
        monkeypatch.setattr(queuesim, "_join", fail)
        with pytest.raises(RuntimeError, match="join failed"):
            run_queue_sim(trace, cfg.queue, "deterministic")
        _no_children()

    @pytest.mark.parametrize("m", [1, 3])
    def test_exponential_law_runs_one_part(self, cfg, monkeypatch, m):
        trace = generate_triggers(cfg.mix, cfg.geom, cfg.mmpp, 0, 2000, 10.0, 200.0, 7,
                                  speed_dist=cfg.speed_dist)
        params = replace(cfg.queue, m=m)
        _force_parts(monkeypatch, 4)

        def refuse(*args):
            raise AssertionError("the exponential law forked a part")

        monkeypatch.setattr(os, "fork", refuse)
        _assert_same_stats(run_queue_sim(trace, params, "exponential", seed=9),
                           _reference_queue_sim(trace, params, "exponential", 9))

    def test_part_count(self, cfg, monkeypatch):
        trace = poisson_triggers(1000.0, 1000.0, 300.0, 10.0, 8)
        n = len(trace)

        def parts(law="deterministic"):
            return queuesim._n_parts(queuesim._Kernel(trace, cfg.queue, law, 0))

        monkeypatch.setattr(queuesim, "MIN_PART_TRIGGERS", n // 3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4}, raising=False)
        assert parts() == 3  # no more parts than MIN_PART_TRIGGERS allows
        assert parts("exponential") == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3}, raising=False)
        assert parts() == 2  # one per CPU this process may run on
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert parts() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert parts() == 1  # no fork while another thread runs
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert parts() == 2  # the machine's count where affinity is unknown
        monkeypatch.delattr(os, "fork", raising=False)
        assert parts() == 1


class TestStats:
    def test_batch_means_iid(self):
        rng = np.random.default_rng(0)
        x = rng.exponential(2.0, 40000)
        mean, half = batch_means(x, 20)
        assert mean == pytest.approx(2.0, abs=3 * half)
        assert half < 0.1

    @pytest.mark.parametrize("n_batches", [2, 5, 20, 50, 3, 101])
    def test_batch_means_t_quantile(self, n_batches):
        n = 1003  # no multiple of any batch count here, so a tail is dropped
        x = np.random.default_rng(n_batches).exponential(2.0, n)
        means = x[:n // n_batches * n_batches].reshape(n_batches, -1).mean(axis=1)
        se = means.std(ddof=1) / math.sqrt(n_batches)
        mean, half = batch_means(x, n_batches)
        assert mean == pytest.approx(means.mean(), rel=1e-14)
        assert half == pytest.approx(stats.t.ppf(0.975, n_batches - 1) * se, rel=1e-14)

    def test_batch_means_too_few(self):
        with pytest.raises(ParameterError):
            batch_means([1.0, 2.0, 3.0], 20)

    def test_rmse_identities(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0
        assert rmse([1, 2, 3], [1.5, 2.5, 3.5]) == pytest.approx(0.5)
        with pytest.raises(ParameterError):
            rmse([1, 2], [1, 2, 3])
