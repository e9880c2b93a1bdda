"""Scenario generator: per-device procedure triggers over a finite horizon.

A device is a sorted list of activity intervals, and one rule turns
intervals into triggers (`_sessions`, `_interval_triggers`): an interval
opens a session with a service request (SR) when it is its device's first
or follows a gap longer than the inactivity timer; the timer releases the
session (SRR) that long after the interval before such a gap and after the
device's last one. A UE's intervals are its application activity periods
(AAPs), and every cell crossing while a session is open is a handover (HR);
an MTCD's are its MMPP packets, of zero length, and it does not move.

All UEs of a trace draw from one random stream and all MTCDs from another
(`population_rng`), a chunk of devices at a time, so the memory in use does
not grow with the population. UEs are drawn in rounds over the devices whose
timeline has not yet reached the horizon: a block of sessions each, with one
vectorised call per law across all of them (`_ue_intervals`). MTCD packets
come from one MMPP pass (`mmpp.mmpp_stream_chunks`). The two populations
share nothing: a trace of both builds its MTCDs on a worker thread while the
calling thread builds its UEs; NumPy releases the GIL in its bulk work, and
the parts join in the same order as when built one after the other, so the
trace is the same.

A trace keeps its parts unsorted (`_pack`) until something reads it in time
order: the first read of a column sorts them, once (`_sort_parts`). Counts
need no order, so a trace that is only counted, as `rates --simulate`'s
are, is never sorted.

Devices are warmed up over a lead-in interval before time zero: `settle_s`
for a UE, one timer length for an MTCD (`_mtcd_lead_in`). Triggers before
time zero are dropped. A session still open at zero keeps its SRR and HRs
in the horizon, so every SRR/HR follows a matching SR, in the lead-in or
in the horizon.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .. import dists
from ..dists import Dist
from ..errors import ParameterError
from ..mmpp import MmppParams, mmpp_stream_chunks
from ..workload import MSGS_PER_PROC, CellGeometry, TrafficMix, app_session_moments, standby_dist

PROC_SR, PROC_SRR, PROC_HR = 0, 1, 2
KIND_UE, KIND_MTCD = 0, 1
PROC_NAMES = ("SR", "SRR", "HR")
KIND_NAMES = ("UE", "MTCD")

CHUNK = 1 << 13  # expected UE activity periods (AAPs) in the sessions one round draws
MAX_DEVICES = 2**31 - 1  # device ids are int32
CSV_ROWS = 1 << 14  # trace rows formatted per write of `to_csv`
_SORTING = threading.Lock()  # held while a trace sorts its parts or hands them out


class TriggerTrace:
    """Column-oriented trigger trace, sorted by time.

    UEs are numbered 0..n_u-1 and MTCDs from n_u on; a trigger of no device
    has id -1 and counts as a UE's. Ids are int32, so a trigger takes 13 bytes.

    The constructor takes columns already sorted. A trace that `_pack`
    builds holds its parts unsorted instead, and sorts them the first time a
    column is read (`time_s`, `device_id`, `procedure`), then drops them.
    `len`, `counts` and `n_messages` need no order and read the parts as
    they are, so a trace that is only counted is never sorted. A trigger's
    device kind is `device_id >= n_u`.
    """

    __slots__ = ("_columns", "_parts", "horizon_s", "n_u", "n_d")

    def __init__(self, time_s: np.ndarray, device_id: np.ndarray, procedure: np.ndarray,
                 horizon_s: float, n_u: int, n_d: int):
        self._columns = (time_s, device_id, procedure)  # procedure 0 = SR, 1 = SRR, 2 = HR
        self._parts = None  # the unsorted (times, devices, procs) parts of a packed trace
        self.horizon_s, self.n_u, self.n_d = horizon_s, n_u, n_d

    def _sorted(self) -> tuple:
        with _SORTING:  # so that a read beside the first waits for its sort
            if self._parts is not None:
                parts, self._parts = self._parts, None
                self._columns = _sort_parts(parts)
        return self._columns

    @property
    def time_s(self) -> np.ndarray:
        return self._sorted()[0]

    @property
    def device_id(self) -> np.ndarray:
        return self._sorted()[1]

    @property
    def procedure(self) -> np.ndarray:
        return self._sorted()[2]

    def _held(self) -> list:
        """The (times, devices, procs) the trace holds, in no particular order."""
        with _SORTING:  # not halfway through a sort, which empties the parts
            return [self._columns] if self._parts is None else list(self._parts)

    def __len__(self) -> int:
        return sum(len(t) for t, _, _ in self._held())

    def _tally(self) -> np.ndarray:
        """Trigger counts by device kind * 3 + procedure: one bincount per part, summed."""
        return sum((np.bincount((d >= self.n_u).astype(np.uint8) * 3 + p, minlength=6)
                    for _, d, p in self._held()), np.zeros(6, dtype=np.int64))

    def counts(self) -> dict:
        """Per (device kind, procedure) trigger counts."""
        c = self._tally()
        return {f"{kname}_{pname}": int(c[3 * kind + proc])
                for kind, kname in enumerate(KIND_NAMES)
                for proc, pname in enumerate(PROC_NAMES)}

    @property
    def n_messages(self) -> int:
        c = self._tally()
        return int(np.dot(c[:3] + c[3:], MSGS_PER_PROC))

    def to_csv(self, path) -> None:
        """Write the trace as CSV: time to 9 decimals, device id, kind and procedure.

        The rows are the csv module's (no field needs quotes, lines end in
        CRLF), formatted CSV_ROWS at a time with one f-string per row.
        """
        ends = np.array([f",{k},{p}\r\n" for k in KIND_NAMES for p in PROC_NAMES])
        with open(path, "w", newline="") as fh:
            fh.write("time_s,device_id,device_kind,procedure\r\n")
            for lo in range(0, len(self), CSV_ROWS):
                part = slice(lo, lo + CSV_ROWS)
                kind_proc = (self.device_id[part] >= self.n_u) * 3 + self.procedure[part]
                fh.write("".join([f"{t:.9f},{d}{e}" for t, d, e in zip(
                    self.time_s[part].tolist(), self.device_id[part].tolist(),
                    ends[kind_proc].tolist())]))


def check_seed(seed) -> None:
    """Raise ParameterError unless `seed` is an integer >= 0, as NumPy's seeding needs."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")


def population_rng(seed: int, kind: int) -> np.random.Generator:
    """The one random stream all devices of `kind` in a trace draw from.

    Its seed sequence carries the kind as spawn key, so the UE and MTCD
    streams differ, and neither depends on the other population's size.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(kind,)))


# ---------------------------------------------------------------------------
# UE activity: sessions of AAPs, drawn for a population at once
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _UePlan:
    """What every UE of a trace shares, worked out once per trace."""

    mix: TrafficMix
    cum_p: np.ndarray  # cumulative app probabilities
    standby: tuple[Dist, ...]  # per app: the gap between sessions
    aaps_per_session: float  # expected, over the mix
    speed: Dist
    cell: tuple  # (width, height) of a cell, m

    @staticmethod
    def build(mix: TrafficMix, geom: CellGeometry, speed_dist: Dist) -> "_UePlan":
        moments = [app_session_moments(app, mix.link_rate_bps) for app in mix.apps]
        return _UePlan(mix, np.cumsum([a.p_app for a in mix.apps]),
                       tuple(standby_dist(mix, a, m) for a, m in zip(mix.apps, moments)),
                       sum(a.p_app * max(1.0, m.mean_n) for a, m in zip(mix.apps, moments)),
                       speed_dist, (geom.cell_width_m, geom.cell_height_m))


def _ue_intervals(plan: _UePlan, n: int, horizon_s: float, settle_s: float,
                  per_round: int, rng):
    """(start, end, device) of the AAPs of `n` UEs that start before the horizon.

    Sorted by device, then time. Each UE starts idle at -settle_s. A round
    draws a block of `per_round` sessions for every UE whose timeline has not
    reached the horizon, one call per law across all of them; AAPs are drawn
    only for the sessions whose standby gaps alone leave them short of it.
    """
    t_end = np.full(n, -settle_s)  # where each UE's timeline has reached
    active = np.arange(n)
    apps = plan.mix.apps
    rounds = []
    while active.size:
        na = active.size
        k = max(1, min(per_round, int(CHUNK // (na * plan.aaps_per_session))))
        app = np.minimum(np.searchsorted(plan.cum_p, rng.random((na, k)), side="right"),
                         len(apps) - 1)
        standby, n_aap = np.empty((na, k)), np.empty((na, k))
        for a, spec in enumerate(apps):
            sel = app == a
            standby[sel] = dists.sample(plan.standby[a], rng, np.count_nonzero(sel))
            n_aap[sel] = dists.sample(spec.n_aap, rng, np.count_nonzero(sel))
        live = t_end[active, None] + np.cumsum(standby, axis=1) < horizon_s
        row = np.broadcast_to(np.arange(na)[:, None], live.shape)[live]
        app, standby = app[live], standby[live]
        n_aap = np.maximum(np.rint(n_aap[live]), 1).astype(np.int64)

        # AAPs: a duration each, and the gap before it (a session's first
        # takes the standby gap, the others a reading gap)
        aap_app = np.repeat(app, n_aap)
        dur = np.empty(aap_app.size)
        gap = np.zeros(aap_app.size)
        for a, spec in enumerate(apps):
            sel = np.flatnonzero(aap_app == a)
            dur[sel] = spec.model.durations(plan.mix.link_rate_bps, sel.size, rng)
            if spec.reading_time_s is not None:
                gap[sel] = dists.sample(spec.reading_time_s, rng, sel.size)
        gap[np.cumsum(n_aap) - n_aap] = standby

        # AAP starts: one cumsum over the round, less its value before each
        # UE's first AAP, plus where the UE's timeline had reached
        aap_row = np.repeat(row, n_aap)
        per_ue = np.bincount(aap_row, minlength=na)
        has = per_ue > 0
        head = (np.cumsum(per_ue) - per_ue)[has]  # each UE's first AAP
        off = t_end[active]
        off[has] += gap[head]
        gap[1:] += dur[:-1]  # from here on, the step from one AAP's start to the next
        start = np.cumsum(gap)
        off[has] -= start[head]
        start += off[aap_row]
        end = start + dur
        t_end[active[has]] = end[head + per_ue[has] - 1]
        keep = start < horizon_s
        rounds.append((active[aap_row[keep]], start[keep], end[keep]))
        # a UE is done once a session starts past the horizon or an AAP ends there
        active = active[live[:, -1] & (t_end[active] < horizon_s)]
    dev, start, end = (np.concatenate(c) for c in zip(*rounds))
    order = np.argsort(dev, kind="stable")  # later rounds continue UEs of earlier ones
    return start[order], end[order], dev[order]


def _ue_chunks(plan: _UePlan, n: int, horizon_s: float, settle_s: float, rng):
    """Yield (first device, (start, end, device), motion) for `n` UEs, a chunk at a time.

    A chunk's first round draws its UEs' sessions for about CHUNK expected
    AAPs; its devices are numbered from 0. `motion` is each device's start
    position in its cell and velocity, and the cell size.
    """
    sessions = (settle_s + horizon_s) / plan.mix.mean_iast_s  # expected, per UE
    per_round = math.ceil(sessions + 3.0 * math.sqrt(sessions))
    size = max(1, int(CHUNK // (per_round * plan.aaps_per_session)))
    w, h = plan.cell
    for lo in range(0, n, size):
        m = min(size, n - lo)
        x0, y0 = rng.uniform(0.0, w, m), rng.uniform(0.0, h, m)
        heading = rng.uniform(0.0, 2.0 * math.pi, m)
        speed = dists.sample(plan.speed, rng, m)
        motion = (x0, y0, speed * np.cos(heading), speed * np.sin(heading), plan.cell)
        yield lo, _ue_intervals(plan, m, horizon_s, settle_s, per_round, rng), motion


# ---------------------------------------------------------------------------
# mobility: cell-edge crossings of straight-line motion
# ---------------------------------------------------------------------------

def _crossing_times(t_a, t_b, x0, y0, vx, vy, cell):
    """(times, windows) of the cell-edge crossings in the windows (t_a, t_b], unsorted.

    Window i's device starts at (x0[i], y0[i]) and moves at (vx[i], vy[i])
    over a plane tiled by cells of size `cell` (width, height), the
    unbounded tessellation of the fluid-flow model. It crosses an edge
    whenever x0 + vx*t = k*width or y0 + vy*t = k*height, for an integer k.
    Each axis solves every window at once.
    """
    times, wins = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for x, v, size in ((x0, vx, cell[0]), (y0, vy, cell[1])):
        moving = np.flatnonzero(v != 0.0)
        x, v, a, b = (c[moving] for c in (x, v, t_a, t_b))
        # x + v t = size*k  <=>  k = (x + v t)/size
        k1 = (x + v * a) / size
        k2 = (x + v * b) / size
        k_lo = np.ceil(np.minimum(k1, k2) - 1e-12)
        n_k = np.maximum(np.floor(np.maximum(k1, k2) + 1e-12) - k_lo + 1, 0).astype(np.int64)
        row = np.repeat(np.arange(n_k.size), n_k)
        k = k_lo[row] + (np.arange(row.size) - np.repeat(np.cumsum(n_k) - n_k, n_k))
        t = (size * k - x[row]) / v[row]
        hit = (a[row] < t) & (t <= b[row])
        times.append(t[hit])
        wins.append(moving[row[hit]])
    return np.concatenate(times), np.concatenate(wins)


# ---------------------------------------------------------------------------
# triggers from activity intervals
# ---------------------------------------------------------------------------

def _sessions(start, end, dev, t_i: float):
    """(open, close, device) of the sessions of intervals sorted by device, then start.

    An interval opens a session when it is its device's first or comes more
    than `t_i` after the one before; the session closes `t_i` after the
    interval before the next such gap, or after the device's last one.
    """
    # interval i + 1 opens a session and interval i closes one; gathers by
    # index, not by mask, since few intervals open one (none if there are none)
    cut = np.flatnonzero((dev[1:] != dev[:-1]) | (start[1:] - end[:-1] > t_i))
    first = np.concatenate(([0], cut + 1))[:len(start)]
    last = np.append(cut, len(start) - 1)[:len(start)]
    return start.take(first), end.take(last) + t_i, dev.take(first)


def _interval_triggers(start, end, dev, t_i: float, horizon_s: float, motion=None):
    """(times, devices, procs) of the triggers of intervals sorted by device, then start.

    Each session (`_sessions`) is an SR at its open and an SRR at its close;
    with `motion` (`_ue_chunks`), every cell-edge crossing while it is open
    is an HR. Triggers outside [0, horizon) are dropped, so a session open
    at 0 keeps its SRR and HRs in the horizon. The SRs come first, then the
    SRRs, then the HRs, so a stable sort by time puts an SR first at a tie:
    a session of zero length opens before it closes.
    """
    sr_t, srr_t, sess_d = _sessions(start, end, dev, t_i)
    keep = (sr_t >= 0.0) & (sr_t < horizon_s)
    rel = (srr_t >= 0.0) & (srr_t < horizon_s)
    times, devs = [sr_t[keep], srr_t[rel]], [sess_d[keep], sess_d[rel]]
    if motion is not None:
        x0, y0, vx, vy, cell = motion
        w = np.flatnonzero((srr_t >= 0.0) & (sr_t < horizon_s))  # open at some time in the horizon
        d = sess_d[w]
        hr, win = _crossing_times(sr_t[w], np.minimum(srr_t[w], horizon_s),
                                  x0[d], y0[d], vx[d], vy[d], cell)
        ok = (hr >= 0.0) & (hr < horizon_s)
        times.append(hr[ok])
        devs.append(d[win[ok]])
    return (np.concatenate(times), np.concatenate(devs),
            np.repeat(np.array([PROC_SR, PROC_SRR, PROC_HR], dtype=np.uint8)[:len(times)],
                      [len(t) for t in times]))


def _mtcd_lead_in(mmpp: MmppParams, t_i: float, settle_s: float) -> float:
    """An MTCD's lead-in: the fewest whole MMPP slots covering `t_i`, at most `settle_s`.

    The packet stream starts in the stationary state, so the modulating
    chain is stationary at every slot boundary, and from a boundary on the
    stream depends on the past only through the state there. A lead-in of
    whole slots therefore gives the packets in [-lead, horizon) the law they
    have under any longer lead-in of whole slots. Triggers in [0, horizon)
    depend only on the packets from -t_i on: a packet is an SR when none came
    within `t_i` before it, and a packet at q is followed by an SRR at
    q + t_i, which is in the horizon only for q >= -t_i. So a lead-in of at
    least `t_i` leaves the law of the trace unchanged. (When `settle_s` is
    not a whole number of slots, the two lead-ins also place the slot grid
    at different phases, which the model leaves free.)
    """
    if t_i >= settle_s:  # also t_i = inf, on which math.ceil raises
        return settle_s
    n = math.ceil(t_i / mmpp.delta_t)
    if n * mmpp.delta_t < t_i:  # t_i / delta_t rounded down
        n += 1
    return min(settle_s, n * mmpp.delta_t)


def generate_triggers(
    mix: TrafficMix,
    geom: CellGeometry,
    mmpp: MmppParams | None,
    n_u: int,
    n_d: int,
    t_i: float,
    horizon_s: float,
    seed: int,
    speed_dist: Dist,
    settle_s: float = 3000.0,
) -> TriggerTrace:
    """Generate the full scenario trace, sorted by time."""
    if not 0 < horizon_s < math.inf:
        raise ParameterError(f"horizon must be finite and > 0, got {horizon_s}")
    if not 0 <= settle_s < math.inf:
        raise ParameterError(f"settle_s must be finite and >= 0, got {settle_s}")
    if not (n_u >= 0 and n_d >= 0):
        raise ParameterError("device counts must be >= 0")
    if not t_i >= 0:
        raise ParameterError(f"inactivity timer must be >= 0, got {t_i}")
    if n_d > 0 and mmpp is None:
        raise ParameterError("MTCDs requested but no MMPP parameters given")
    if n_u + n_d > MAX_DEVICES:
        raise ParameterError(f"at most {MAX_DEVICES} devices fit int32 ids, "
                             f"got {n_u} UEs + {n_d} MTCDs")
    check_seed(seed)

    def ue_parts():
        plan = _UePlan.build(mix, geom, speed_dist)
        rng = population_rng(seed, KIND_UE)
        for lo, (start, end, dev), motion in _ue_chunks(plan, n_u, horizon_s, settle_s, rng):
            t, d, p = _interval_triggers(start, end, dev.astype(np.int32), t_i, horizon_s,
                                         motion)
            d += lo
            yield t, d, p

    def mtcd_parts():
        lead_s = _mtcd_lead_in(mmpp, t_i, settle_s)
        rng = population_rng(seed, KIND_MTCD)
        for pk, stream in mmpp_stream_chunks(mmpp, lead_s + horizon_s, n_d, rng):
            pk -= lead_s
            dev = stream.astype(np.int32)
            dev += n_u
            yield _interval_triggers(pk, pk, dev, t_i, horizon_s)

    # the (times, devices, procs) of each chunk of devices, UEs first
    parts = [(np.empty(0), np.empty(0, dtype=np.int32), np.empty(0, dtype=np.uint8))]
    if n_u and n_d:
        from concurrent.futures import ThreadPoolExecutor  # here: one kind never pays for it

        # leaving the block joins the worker, also when the UEs raise;
        # result() raises the worker's error
        with ThreadPoolExecutor(max_workers=1) as pool:
            mtcds = pool.submit(list, mtcd_parts())
            parts.extend(ue_parts())
        parts += mtcds.result()
        del mtcds  # so that the trace's sort frees each column's parts once joined
    elif n_u:
        parts.extend(ue_parts())
    elif n_d:
        parts.extend(mtcd_parts())
    return _pack(parts, horizon_s, n_u, n_d)


def _pack(parts: list, horizon_s: float, n_u: int, n_d: int) -> TriggerTrace:
    """The trace of (times, devices, procs) parts, sorted on its first column read.

    The trace takes `parts` over; `_sort_parts` empties it.
    """
    trace = TriggerTrace(None, None, None, horizon_s, n_u, n_d)
    trace._parts = parts
    return trace


def _sort_parts(parts: list) -> tuple:
    """(times, devices, procs) of the parts, stably sorted by time.

    Equal times keep the order their parts were built in: an unstable sort
    on time, then each run of equal times put back in input order
    (`_repair_ties`). `parts` is emptied, and each column's parts are
    dropped once joined, so few full-size copies coexist.
    """
    all_t, all_d, all_p = (list(c) for c in zip(*parts))
    parts.clear()
    time_s = np.concatenate(all_t)
    del all_t
    order = np.argsort(time_s)
    time_s = time_s[order]
    _repair_ties(order, time_s)
    dev_id = np.concatenate(all_d)[order]
    del all_d
    return time_s, dev_id, np.concatenate(all_p)[order]


def _repair_ties(order: np.ndarray, time_s: np.ndarray) -> None:
    """Put each run of equal times in input order, in place.

    `order` sorts the input by time, and `time_s` is already in that order.
    A run of two, the common one (an MTCD's SR and SRR at T_I = 0), is one
    vectorised min/max; longer runs are sorted by a `lexsort` over their
    members only, so no run costs more than its own sort.
    """
    tie = np.flatnonzero(time_s[1:] == time_s[:-1])  # time_s[i] == time_s[i + 1]
    chained = np.diff(tie) == 1  # a tie that shares a member with the next
    pair = np.ones(tie.size, dtype=bool)
    pair[1:] &= ~chained
    pair[:-1] &= ~chained
    i = tie[pair]
    a, b = order[i], order[i + 1]
    order[i], order[i + 1] = np.minimum(a, b), np.maximum(a, b)
    long_run = tie[~pair]
    # every member of a run of three or more, once each; not np.union1d, whose
    # np.unique imports numpy.ma (about 1 MB and 14 ms) on a process's first sort
    at = np.sort(np.concatenate((long_run, long_run + 1)))
    at = at[np.diff(at, prepend=-1) != 0]
    sub = order[at]
    order[at] = sub[np.lexsort((sub, time_s[at]))]


def poisson_triggers(
    lam_sr: float,
    lam_srr: float,
    lam_hr: float,
    horizon_s: float,
    seed: int,
) -> TriggerTrace:
    """Memoryless trigger streams at given aggregate procedure rates.

    Used for queueing-chain validation where the analytic model's Poisson
    arrival assumption should hold by construction.
    """
    if not 0 < horizon_s < math.inf:
        raise ParameterError(f"horizon must be finite and > 0, got {horizon_s}")
    rates = {"lam_sr": lam_sr, "lam_srr": lam_srr, "lam_hr": lam_hr}
    for name, lam in rates.items():
        if not 0 <= lam < math.inf:
            raise ParameterError(f"{name} must be finite and >= 0, got {lam}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    parts = []
    for lam, code in zip(rates.values(), (PROC_SR, PROC_SRR, PROC_HR)):
        n = rng.poisson(lam * horizon_s)
        parts.append((rng.uniform(0.0, horizon_s, n), np.full(n, -1, dtype=np.int32),
                      np.full(n, code, dtype=np.uint8)))
    return _pack(parts, horizon_s, 0, 0)
