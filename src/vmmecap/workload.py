"""Analytic signaling-procedure arrival rates.

Per-UE rates come from the session/activity model (service requests when an
application activity period starts while the device is idle, releases when
the inactivity timer fires, handovers at cell crossings while active);
per-MTCD rates come from the MMPP packet process. Everything here is a pure
function of the traffic mix, the cell geometry, and the inactivity timer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import dists
from .dists import Dist
from .errors import FieldError, InfeasibleError, ParameterError
from .mmpp import MmppParams, gap_survival, mmpp_stationary

MSGS_PER_PROC = (3, 3, 2)  # messages of one SR, SRR and HR procedure, in that order


# ---------------------------------------------------------------------------
# traffic-mix types
# ---------------------------------------------------------------------------

# An AAP (application activity period) model owns its duration law, the mean
# for the analytic side (`mean_duration`) and the sampler for the simulator
# (`durations`); `type` is its name in the configuration.

@dataclass(frozen=True)
class WebModel:
    """Page download: main object, then embedded objects, sequentially at link
    rate, then one parsing time per page."""

    type: ClassVar[str] = "web"

    main_obj_bytes: Dist
    embedded_obj_bytes: Dist
    n_embedded: Dist
    parsing_time_s: Dist

    def mean_duration(self, link_rate_bps: float) -> float:
        """Mean duration of one AAP, in seconds."""
        n_emb = dists.mean(self.n_embedded)
        xfer_bytes = dists.mean(self.main_obj_bytes) + n_emb * dists.mean(self.embedded_obj_bytes)
        return xfer_bytes * 8.0 / link_rate_bps + dists.mean(self.parsing_time_s)

    def durations(self, link_rate_bps: float, n: int, rng) -> np.ndarray:
        """Durations of `n` AAPs, in seconds; the embedded-object count rounds
        to a whole number."""
        k = np.rint(dists.sample(self.n_embedded, rng, n)).astype(np.int64)
        total = dists.sample(self.main_obj_bytes, rng, n)
        # each AAP's sum of k embedded objects, by cumsum differences (k may be 0)
        emb = np.zeros(k.sum() + 1)
        np.cumsum(dists.sample(self.embedded_obj_bytes, rng, k.sum()), out=emb[1:])
        last = np.cumsum(k)
        total += emb[last] - emb[last - k]
        return total * 8.0 / link_rate_bps + dists.sample(self.parsing_time_s, rng, n)


@dataclass(frozen=True)
class VideoModel:
    """Two-phase streaming: the first `burst_media_s` of media at link rate,
    the rest delivered at `throttle_factor` times its playback rate. An AAP
    picks one encoding-rate law uniformly and draws its rate from it."""

    type: ClassVar[str] = "video"

    duration_s: Dist
    encoding_rate_choices: tuple[Dist, ...]  # bit/s, picked uniformly per AAP
    burst_media_s: float
    throttle_factor: float

    def __post_init__(self):
        if not self.encoding_rate_choices:
            raise ParameterError("video model needs at least one encoding-rate choice")
        if not self.burst_media_s >= 0:
            raise FieldError("burst_media_s", ">= 0", self.burst_media_s)
        if not self.throttle_factor > 0:
            raise FieldError("throttle_factor", "> 0", self.throttle_factor)

    def mean_duration(self, link_rate_bps: float) -> float:
        """Mean duration of one AAP, in seconds."""
        enc = float(np.mean([dists.mean(d) for d in self.encoding_rate_choices]))
        # E[min(D, B)] of media goes at link rate, the rest is throttled; the
        # encoding rate is drawn apart from the duration
        served_in_burst = dists.expected_truncated(self.duration_s, self.burst_media_s)
        burst_dl = served_in_burst * enc / link_rate_bps
        return burst_dl + (dists.mean(self.duration_s) - served_in_burst) / self.throttle_factor

    def durations(self, link_rate_bps: float, n: int, rng) -> np.ndarray:
        """Durations of `n` AAPs, in seconds."""
        choices = self.encoding_rate_choices
        pick = (rng.random(n) * len(choices)).astype(np.int64)
        enc = np.stack([dists.sample(law, rng, n) for law in choices])[pick, np.arange(n)]
        dur = dists.sample(self.duration_s, rng, n)
        burst = np.minimum(dur, self.burst_media_s)
        return (burst * enc / link_rate_bps
                + np.maximum(dur - self.burst_media_s, 0.0) / self.throttle_factor)


@dataclass(frozen=True)
class CallModel:
    """Conversational app: the AAP lasts the call holding time."""

    type: ClassVar[str] = "call"

    holding_time_s: Dist

    def mean_duration(self, link_rate_bps: float) -> float:
        """Mean duration of one AAP, in seconds."""
        return dists.mean(self.holding_time_s)

    def durations(self, link_rate_bps: float, n: int, rng) -> np.ndarray:
        """Durations of `n` AAPs, in seconds."""
        return dists.sample(self.holding_time_s, rng, n)


AAP_MODELS = {c.type: c for c in (WebModel, VideoModel, CallModel)}  # by config name


@dataclass(frozen=True)
class AppProfile:
    name: str
    p_app: float
    n_aap: Dist  # AAPs per session (count >= 1)
    reading_time_s: Dist | None  # gap between consecutive AAPs; None only if n_aap is 1
    model: WebModel | VideoModel | CallModel

    def __post_init__(self):
        if not (0 <= self.p_app <= 1):
            raise FieldError("p_app", "in [0, 1]", self.p_app)
        # without a reading time a session is one AAP: max(1, round(n_aap)) is 1
        if self.reading_time_s is None and (dists.mean(self.n_aap) > 1 + 1e-9
                                            or dists.tail_prob(self.n_aap, 1.5) > 0):
            raise FieldError("reading_time_s", "given when n_aap can exceed 1", None)


@dataclass(frozen=True)
class TrafficMix:
    apps: tuple[AppProfile, ...]
    mean_iast_s: float  # mean inter-arrival session time
    link_rate_bps: float

    def __post_init__(self):
        if not self.apps:
            raise ParameterError("traffic mix is empty")
        total = sum(a.p_app for a in self.apps)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"app probabilities must sum to 1, got {total}")
        for name in ("mean_iast_s", "link_rate_bps"):
            if not getattr(self, name) > 0:
                raise FieldError(name, "> 0", getattr(self, name))

    @property
    def session_rate(self) -> float:
        """Session arrivals per device per second."""
        return 1.0 / self.mean_iast_s


@dataclass(frozen=True)
class CellGeometry:
    cell_width_m: float
    cell_height_m: float
    mean_speed_mps: float

    def __post_init__(self):
        for name in ("cell_width_m", "cell_height_m"):
            if not getattr(self, name) > 0:
                raise FieldError(name, "> 0", getattr(self, name))
        if not self.mean_speed_mps >= 0:
            raise FieldError("mean_speed_mps", ">= 0", self.mean_speed_mps)


@dataclass(frozen=True)
class ProcedureRates:
    """Per-device and aggregate procedure/message rates."""

    lam_u_sr: float
    lam_u_hr: float
    lam_s_sr: float
    lam_sr: float
    lam_srr: float
    lam_hr: float
    lam_total_msgs: float


# ---------------------------------------------------------------------------
# session moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionMoments:
    mean_n: float  # AAPs per session
    mean_t_on_s: float  # one AAP duration
    mean_t_sd_s: float  # whole session duration


def app_session_moments(app: AppProfile, link_rate_bps: float) -> SessionMoments:
    mean_n = dists.mean(app.n_aap)
    mean_t_on = app.model.mean_duration(link_rate_bps)
    mean_d = dists.mean(app.reading_time_s) if app.reading_time_s is not None else 0.0
    mean_t_sd = mean_n * mean_t_on + (mean_n - 1.0) * mean_d
    return SessionMoments(mean_n, mean_t_on, mean_t_sd)


# ---------------------------------------------------------------------------
# per-UE rates
# ---------------------------------------------------------------------------

def cell_crossing_rate(geom: CellGeometry) -> float:
    """Fluid-flow crossing rate: v * perimeter / (pi * area), crossings/s."""
    w, h = geom.cell_width_m, geom.cell_height_m
    return geom.mean_speed_mps * (2.0 * (w + h)) / (math.pi * (w * h))


def standby_dist(mix: TrafficMix, app: AppProfile, moments: SessionMoments) -> Dist:
    """The exponential gap between two sessions of `app`: the mean IAST less one session."""
    mean_sst = mix.mean_iast_s - moments.mean_t_sd_s
    if mean_sst <= 0:
        raise InfeasibleError(
            f"app {app.name!r}: mean session duration {moments.mean_t_sd_s:.3g} s "
            f">= mean IAST {mix.mean_iast_s:.3g} s, standby time would be negative"
        )
    return dists.exponential(mean_sst)


def user_active_time_fraction(mix: TrafficMix, t_i: float) -> float:
    """Fraction of time a UE holds signaling state (connected), in [0, 1].

    Active time per session is the on-air time plus the parts of each gap
    (readings, standby) the inactivity timer keeps the connection open for.
    """
    lam_sess = mix.session_rate
    p_ua = 0.0
    for app in mix.apps:
        mom = app_session_moments(app, mix.link_rate_bps)
        sst = standby_dist(mix, app, mom)
        active = mom.mean_n * mom.mean_t_on_s
        if app.reading_time_s is not None:
            active += (mom.mean_n - 1.0) * dists.expected_truncated(app.reading_time_s, t_i)
        active += dists.expected_truncated(sst, t_i)
        p_ua += app.p_app * lam_sess * active
    return min(p_ua, 1.0)


def htc_rates(mix: TrafficMix, geom: CellGeometry, t_i: float) -> tuple[float, float, float]:
    """(lam_u_sr, lam_u_srr, lam_u_hr) per UE, procedures/s.

    An SR fires when an AAP starts after a gap the timer released (a reading
    longer than t_i, or the standby gap); the matching release makes the SRR
    rate identical. Handovers occur at cell crossings while connected.
    """
    if not t_i >= 0:
        raise ParameterError(f"inactivity timer must be >= 0, got {t_i}")
    lam_sess = mix.session_rate
    lam_sr = 0.0
    for app in mix.apps:
        mom = app_session_moments(app, mix.link_rate_bps)
        sst = standby_dist(mix, app, mom)
        term = dists.tail_prob(sst, t_i)
        if app.reading_time_s is not None:
            term += (mom.mean_n - 1.0) * dists.tail_prob(app.reading_time_s, t_i)
        lam_sr += app.p_app * lam_sess * term
    lam_hr = cell_crossing_rate(geom) * user_active_time_fraction(mix, t_i)
    return lam_sr, lam_sr, lam_hr


# ---------------------------------------------------------------------------
# per-MTCD rates
# ---------------------------------------------------------------------------

def mtc_rates(params: MmppParams, t_i: float) -> tuple[float, float]:
    """(lam_s_sr, lam_s_srr) per MTCD, procedures/s.

    A packet triggers an SR iff the preceding inter-packet gap exceeded the
    inactivity timer, so both rates are the mean packet rate times
    P(gap > t_i), the gap tail under the slotted chain's Palm law
    (`mmpp.gap_survival`).
    """
    if not t_i >= 0:
        raise ParameterError(f"inactivity timer must be >= 0, got {t_i}")
    mean_rate = mmpp_stationary(params)[2]
    if mean_rate == 0:  # a silent stream has no gaps
        return 0.0, 0.0
    lam = gap_survival(params, t_i) * mean_rate
    return lam, lam


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def aggregate_rates(
    per_ue: tuple[float, float, float],
    per_mtcd: tuple[float, float],
    n_u: float,
    n_d: float,
) -> ProcedureRates:
    """Scale per-device rates to fleet totals; MTCDs are stationary (no HR)."""
    if not (n_u >= 0 and n_d >= 0):
        raise ParameterError("device counts must be >= 0")
    lam_u_sr, lam_u_srr, lam_u_hr = per_ue
    lam_s_sr, lam_s_srr = per_mtcd
    lam_sr = n_u * lam_u_sr + n_d * lam_s_sr
    lam_srr = n_u * lam_u_srr + n_d * lam_s_srr
    lam_hr = n_u * lam_u_hr
    n_sr, n_srr, n_hr = MSGS_PER_PROC
    return ProcedureRates(
        lam_u_sr=lam_u_sr,
        lam_u_hr=lam_u_hr,
        lam_s_sr=lam_s_sr,
        lam_sr=lam_sr,
        lam_srr=lam_srr,
        lam_hr=lam_hr,
        lam_total_msgs=n_sr * lam_sr + n_srr * lam_srr + n_hr * lam_hr,
    )
