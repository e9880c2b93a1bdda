"""Scenario generator: per-device procedure triggers over a finite horizon.

UEs run the session/AAP state machine (service request on activity start
while idle, release when the inactivity timer fires, handover at every cell
crossing while holding signaling state); MTCDs replay their MMPP packet
stream against the same timer logic, without mobility. Each UE owns an
independent random stream derived from the master seed (`device_rng`), so
UE traces are reproducible and insensitive to device ordering and to the
population. A UE takes its draws from that stream in blocks of BLOCK per law
(`device_draws`), one vectorised call per block instead of one call per draw.
The MTCDs of a trace share one stream (`mtcd_rng`), separate from every
UE's: one vectorised MMPP pass draws the whole population's packets, a chunk
of devices at a time, each state segment's arrivals placed in order by
exponential spacings (`mmpp.mmpp_stream_chunks`), and device-boundary masks
over the sorted packets give the SR and SRR triggers (`_mtcd_triggers`).

Devices are warmed up over a lead-in interval before time zero: `settle_s`
for a UE, one timer length for an MTCD (`_mtcd_lead_in`). Triggers from the
lead-in are dropped, as are any release/handover triggers that would
precede a device's first in-horizon service request, keeping the trace
causally consistent (SRR/HR only after a matching SR).
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass

import numpy as np

from .. import dists
from ..dists import Dist
from ..errors import ParameterError
from ..mmpp import MmppParams, mmpp_stream_chunks
from ..workload import (
    MSGS_PER_PROC,
    AppProfile,
    CallModel,
    CellGeometry,
    TrafficMix,
    VideoModel,
    WebModel,
    app_session_moments,
    standby_dist,
)

PROC_SR, PROC_SRR, PROC_HR = 0, 1, 2
KIND_UE, KIND_MTCD = 0, 1
PROC_NAMES = ("SR", "SRR", "HR")
KIND_NAMES = ("UE", "MTCD")


@dataclass(frozen=True)
class TriggerTrace:
    """Column-oriented trigger trace, sorted by time."""

    time_s: np.ndarray
    device_id: np.ndarray
    device_kind: np.ndarray  # 0 = UE, 1 = MTCD
    procedure: np.ndarray  # 0 = SR, 1 = SRR, 2 = HR
    horizon_s: float
    n_u: int
    n_d: int

    def __len__(self) -> int:
        return len(self.time_s)

    def counts(self) -> dict:
        """Per (device kind, procedure) trigger counts."""
        out = {}
        for kind, kname in enumerate(KIND_NAMES):
            sel = self.device_kind == kind
            for proc, pname in enumerate(PROC_NAMES):
                out[f"{kname}_{pname}"] = int(np.sum(sel & (self.procedure == proc)))
        return out

    @property
    def n_messages(self) -> int:
        return int(np.array(MSGS_PER_PROC)[self.procedure].sum())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time_s", "device_id", "device_kind", "procedure"])
            for t, d, k, p in zip(self.time_s, self.device_id,
                                  self.device_kind, self.procedure):
                w.writerow([f"{t:.9f}", int(d), KIND_NAMES[k], PROC_NAMES[p]])


def device_rng(seed: int, device_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, device_index])


BLOCK = 64  # draws of one law taken from a device's stream at a time
_UNIT = dists.uniform(0.0, 1.0)  # picks an app or an encoding rate


def device_draws(rng: np.random.Generator):
    """One device's draw function, taking draws from `rng` in blocks of BLOCK per law.

    ``draw(law)`` returns the law's next draw and ``draw(law, k)`` the sum of
    its next ``k``; a law's block is refilled from the stream when used up.
    A law is known by identity, so it must stay alive while draws are taken.
    """
    blocks = {}  # id(law) -> [block as a list, position of the next draw]

    def draw(law: Dist, k: int = 1) -> float:
        st = blocks.get(id(law))
        if st is not None:
            pos = st[1]
            end = pos + k
            if end <= BLOCK:
                st[1] = end
                return st[0][pos] if k == 1 else sum(st[0][pos:end])
        st = blocks.setdefault(id(law), [[], BLOCK])  # a new law starts with its block used up
        taken = st[0][st[1]:]
        while len(taken) < k:
            block = dists.sample(law, rng, size=BLOCK).tolist()
            used = min(k - len(taken), BLOCK)
            taken += block[:used]
            st[0], st[1] = block, used
        return sum(taken)

    return draw


# ---------------------------------------------------------------------------
# per-AAP duration sampling (simulation-side counterpart of the analytic means)
# ---------------------------------------------------------------------------

def sample_aap_duration(model, link_rate_bps: float, draw) -> float:
    """One AAP's duration, its draws taken with `draw` (see `device_draws`)."""
    if isinstance(model, WebModel):
        k = int(round(draw(model.n_embedded)))
        total = draw(model.main_obj_bytes) + draw(model.embedded_obj_bytes, k)
        return total * 8.0 / link_rate_bps + draw(model.parsing_time_s)
    if isinstance(model, VideoModel):
        choices = model.encoding_rate_choices
        enc = draw(choices[int(draw(_UNIT) * len(choices))])
        dur = draw(model.duration_s)
        burst = min(dur, model.burst_media_s)
        return burst * enc / link_rate_bps + max(dur - model.burst_media_s, 0.0) / model.throttle_factor
    if isinstance(model, CallModel):
        return draw(model.holding_time_s)
    raise ParameterError(f"unknown AAP model {type(model).__name__}")


# ---------------------------------------------------------------------------
# mobility: cell-crossing times of reflected straight-line motion
# ---------------------------------------------------------------------------

def _grid_lines(geom: CellGeometry):
    """Per axis (x, then y): the grid's span and its interior lines.

    Only interior lines count: bouncing at the outer edge keeps the device
    in its cell, so no handover is generated there.
    """
    return ((geom.grid_cols * geom.cell_width_m,
             np.arange(1, geom.grid_cols) * geom.cell_width_m),
            (geom.grid_rows * geom.cell_height_m,
             np.arange(1, geom.grid_rows) * geom.cell_height_m))


def _crossing_times(windows, x0, y0, vx, vy, lines) -> np.ndarray:
    """Sorted times in the active windows (t_a, t_b] at which a grid line is hit.

    Reflection in [0, span] unfolds to straight motion with period 2*span:
    the device is at line g whenever x0 + v*t = +-g (mod 2*span). Each axis
    solves every (window, target) pair at once; `lines` is `_grid_lines`.
    """
    out = []
    t_a = np.array([w[0] for w in windows], dtype=float)[:, None]
    t_b = np.array([w[1] for w in windows], dtype=float)[:, None]
    for x, v, (span, g) in ((x0, vx, lines[0]), (y0, vy, lines[1])):
        if v == 0.0 or not len(g):
            continue
        period = 2.0 * span
        target = np.concatenate((g, -g))
        # x + v t = target + period*k  <=>  k = (x + v t - target)/period
        k1 = (x + v * t_a - target) / period
        k2 = (x + v * t_b - target) / period
        k_lo = np.ceil(np.minimum(k1, k2) - 1e-12).ravel()
        n_k = np.floor(np.maximum(k1, k2) + 1e-12).ravel() - k_lo + 1
        n_k = np.maximum(n_k, 0).astype(np.int64)
        pair = np.repeat(np.arange(n_k.size), n_k)
        k = k_lo[pair] + (np.arange(pair.size) - np.repeat(np.cumsum(n_k) - n_k, n_k))
        t = (np.broadcast_to(target, k1.shape).ravel()[pair] + period * k - x) / v
        row = pair // len(target)
        out.append(t[(t_a[row, 0] < t) & (t <= t_b[row, 0])])
    return np.sort(np.concatenate(out)) if out else np.empty(0)


# ---------------------------------------------------------------------------
# per-device generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _UePlan:
    """What every UE of a trace shares, worked out once per trace."""

    apps: tuple[AppProfile, ...]
    cum_p: list[float]  # cumulative app probabilities
    standby: tuple[Dist, ...]  # per app: the gap between sessions
    link_rate_bps: float
    speed: Dist
    lines: tuple  # `_grid_lines` of the geometry

    @staticmethod
    def build(mix: TrafficMix, geom: CellGeometry, speed_dist: Dist) -> "_UePlan":
        standby = tuple(standby_dist(mix, app, app_session_moments(app, mix.link_rate_bps))
                        for app in mix.apps)
        cum_p = np.cumsum([a.p_app for a in mix.apps]).tolist()
        return _UePlan(mix.apps, cum_p, standby, mix.link_rate_bps, speed_dist,
                       _grid_lines(geom))


def _ue_events(rng, plan: _UePlan, t_i: float, horizon_s: float, settle_s: float):
    """(times, procs) for one UE, lead-in included and later clipped."""
    (span_x, _), (span_y, _) = plan.lines
    x0 = rng.uniform(0.0, span_x)
    y0 = rng.uniform(0.0, span_y)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    draw = device_draws(rng)
    speed = draw(plan.speed)
    vx, vy = speed * math.cos(heading), speed * math.sin(heading)

    times, procs = [], []
    windows = []  # connected intervals, for handover generation
    t_end = -settle_s  # a session "just ended"; device starts disconnected
    connected = False
    win_start = None

    def close_window(at):
        nonlocal connected, win_start
        times.append(at)
        procs.append(PROC_SRR)
        windows.append((win_start, at))
        connected = False
        win_start = None

    last_app = len(plan.apps) - 1
    while t_end < horizon_s:
        ai = min(bisect.bisect_right(plan.cum_p, draw(_UNIT)), last_app)
        app: AppProfile = plan.apps[ai]
        t_sst = draw(plan.standby[ai])
        if connected and t_sst > t_i:
            close_window(t_end + t_i)
        t_start = t_end + t_sst
        if t_start >= horizon_s:
            break
        n = max(1, int(round(draw(app.n_aap))))
        t_cur = t_start
        for j in range(n):
            if not connected:
                times.append(t_cur)
                procs.append(PROC_SR)
                connected = True
                win_start = t_cur
            t_cur += sample_aap_duration(app.model, plan.link_rate_bps, draw)
            if j < n - 1:
                d = draw(app.reading_time_s)
                if d > t_i:
                    close_window(t_cur + t_i)
                t_cur += d
        t_end = t_cur
    if connected:
        # timer pending past the horizon: the window runs to the horizon
        windows.append((win_start, min(t_end + t_i, horizon_s)))

    hr = _crossing_times(windows, x0, y0, vx, vy, plan.lines)
    return (np.concatenate((times, hr)),
            np.concatenate((np.asarray(procs, dtype=np.uint8),
                            np.full(len(hr), PROC_HR, dtype=np.uint8))))


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


def mtcd_rng(seed: int) -> np.random.Generator:
    """The one random stream all MTCDs of a trace draw from.

    Its seed sequence carries a spawn key, so it is never a UE's
    `device_rng(seed, dev)` and does not depend on the number of UEs.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(KIND_MTCD,)))


def _mtcd_triggers(pk, stream, t_i: float, horizon_s: float):
    """(times, streams, procs) of the MTCD triggers from packets sorted by stream, then time.

    A packet is an SR when it is its device's first or comes more than `t_i`
    after the one before; the timer runs out `t_i` after the packet before
    each SR and after a device's last packet (SRR). Triggers outside
    [0, horizon) are dropped, as is an SRR before its device's first kept SR.
    All SRs come before all SRRs, so a stable sort by device and time puts an
    SR first at a tie, as `_clip_device` orders one device's triggers.
    """
    if len(pk) == 0:
        return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
    sr = np.ones(len(pk), dtype=bool)
    sr[1:] = (stream[1:] != stream[:-1]) | (np.diff(pk) > t_i)
    srr = np.append(sr[1:], True)  # the next packet opens a session, or there is none
    sr_t, sr_d = pk[sr], stream[sr]
    keep = (sr_t >= 0.0) & (sr_t < horizon_s)
    sr_t, sr_d = sr_t[keep], sr_d[keep]
    srr_t, srr_d = pk[srr] + t_i, stream[srr]
    # each SRR's device's first kept SR, or inf if it has none (the appended
    # device -1 stands past the last SR)
    at = np.searchsorted(sr_d, srr_d)
    first_sr = np.where(np.append(sr_d, -1)[at] == srr_d, np.append(sr_t, np.inf)[at], np.inf)
    keep = (srr_t >= first_sr) & (srr_t < horizon_s)
    srr_t, srr_d = srr_t[keep], srr_d[keep]
    return (np.concatenate((sr_t, srr_t)), np.concatenate((sr_d, srr_d)),
            np.concatenate((np.full(len(sr_t), PROC_SR, dtype=np.uint8),
                            np.full(len(srr_t), PROC_SRR, dtype=np.uint8))))


def _clip_device(times, procs, horizon_s):
    """Drop lead-in triggers and any SRR/HR preceding the first kept SR."""
    if len(times) == 0:
        return times, procs
    order = np.argsort(times, kind="stable")
    times, procs = times[order], procs[order]
    keep = (times >= 0.0) & (times < horizon_s)
    times, procs = times[keep], procs[keep]
    sr_pos = np.flatnonzero(procs == PROC_SR)
    if len(sr_pos) == 0:
        return times[:0], procs[:0]
    return times[sr_pos[0]:], procs[sr_pos[0]:]


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
    if n_u < 0 or n_d < 0:
        raise ParameterError("device counts must be >= 0")
    if not t_i >= 0:
        raise ParameterError(f"inactivity timer must be >= 0, got {t_i}")
    if n_d > 0 and mmpp is None:
        raise ParameterError("MTCDs requested but no MMPP parameters given")

    plan = _UePlan.build(mix, geom, speed_dist) if n_u else None
    all_t, all_p, all_d, all_k = [], [], [], []
    for dev in range(n_u):
        rng = device_rng(seed, dev)
        t, p = _ue_events(rng, plan, t_i, horizon_s, settle_s)
        t, p = _clip_device(t, p, horizon_s)
        all_t.append(t)
        all_p.append(p)
        all_d.append(np.full(len(t), dev, dtype=np.int64))
        all_k.append(np.zeros(len(t), dtype=np.uint8))
    if n_d:
        lead_s = _mtcd_lead_in(mmpp, t_i, settle_s)
        for pk, stream in mmpp_stream_chunks(mmpp, lead_s + horizon_s, n_d, mtcd_rng(seed)):
            t, d, p = _mtcd_triggers(pk - lead_s, stream, t_i, horizon_s)
            all_t.append(t)
            all_p.append(p)
            all_d.append(d + n_u)
            all_k.append(np.full(len(t), KIND_MTCD, dtype=np.uint8))

    if all_t:
        time_s = np.concatenate(all_t)
        proc = np.concatenate(all_p)
        dev_id = np.concatenate(all_d)
        kind = np.concatenate(all_k)
    else:
        time_s = np.empty(0)
        proc = np.empty(0, dtype=np.uint8)
        dev_id = np.empty(0, dtype=np.int64)
        kind = np.empty(0, dtype=np.uint8)
    order = np.lexsort((dev_id, time_s))
    return TriggerTrace(time_s[order], dev_id[order], kind[order], proc[order],
                        horizon_s, n_u, n_d)


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
    rng = np.random.default_rng(seed)
    parts, procs = [], []
    for lam, code in ((lam_sr, PROC_SR), (lam_srr, PROC_SRR), (lam_hr, PROC_HR)):
        if lam < 0:
            raise ParameterError("rates must be >= 0")
        n = rng.poisson(lam * horizon_s)
        t = np.sort(rng.uniform(0.0, horizon_s, n))
        parts.append(t)
        procs.append(np.full(n, code, dtype=np.uint8))
    time_s = np.concatenate(parts)
    proc = np.concatenate(procs)
    order = np.argsort(time_s, kind="stable")
    n_tot = len(time_s)
    return TriggerTrace(time_s[order], np.zeros(n_tot, dtype=np.int64),
                        np.zeros(n_tot, dtype=np.uint8), proc[order],
                        horizon_s, 0, 0)
