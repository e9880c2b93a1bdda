"""Open Jackson-network response-time model of the vMME chain.

Four M/M/c stages in series, listed once in `stages`: front end (FE, c = 1),
service-logic pool (SL, c = m, message-mix-weighted service time), state
database (SDB, c = 1) and output interface (OI, c = 1); c = inf, an unlimited
pool, has no wait. Mean response time is the sum of the per-stage means;
the inter-message round trip shapes arrival timing only and is excluded
from the processing-time budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FieldError, InfeasibleError, InstabilityError, ParameterError
from .mmpp import MmppParams
from .workload import (
    CellGeometry,
    ProcedureRates,
    TrafficMix,
    aggregate_rates,
    htc_rates,
    mtc_rates,
)


@dataclass(frozen=True)
class SlServiceTimes:
    """Per-message service-logic processing times, seconds."""

    t_sr1: float
    t_sr2: float
    t_sr3: float
    t_srr1: float
    t_srr2: float
    t_srr3: float
    t_hr1: float
    t_hr2: float

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if not v > 0:
                raise FieldError(name, "> 0", v)

    @property
    def per_procedure(self) -> tuple[tuple[float, ...], ...]:
        """The per-message times of SR, SRR and HR, indexed by the trace's procedure codes."""
        return ((self.t_sr1, self.t_sr2, self.t_sr3), (self.t_srr1, self.t_srr2, self.t_srr3),
                (self.t_hr1, self.t_hr2))


@dataclass(frozen=True)
class QueueParams:
    """Service rates and timing constants of the vMME chain."""

    mu_fe: float  # front-end, jobs/s
    mu_sdb: float  # state database, jobs/s
    mu_oi: float  # output interface, jobs/s
    sl_times: SlServiceTimes
    m: int  # service-logic instances
    t_im_s: float  # round trip to the next inbound message
    t_max_s: float  # processing-delay budget

    def __post_init__(self):
        for name in ("mu_fe", "mu_sdb", "mu_oi", "t_max_s"):
            if not getattr(self, name) > 0:
                raise FieldError(name, "> 0", getattr(self, name))
        if not self.t_im_s >= 0:
            raise FieldError("t_im_s", ">= 0", self.t_im_s)
        if not (isinstance(self.m, int) and self.m >= 1):
            raise FieldError("m", "an integer >= 1", self.m)


def erlang_c(m: int, a: float) -> float:
    """Probability of waiting in an M/M/m queue with offered load a = lam/mu.

    Uses the Erlang-B recurrence, which is stable for large m (no factorials).
    """
    if not (isinstance(m, int) and m >= 1):
        raise ParameterError(f"m must be an integer >= 1, got {m}")
    if not a >= 0:
        raise ParameterError(f"offered load must be >= 0, got {a}")
    if a >= m:
        raise InstabilityError("SL", a, float(m))
    b = 1.0
    for k in range(1, m + 1):
        b = a * b / (k + a * b)
    return m * b / (m - a * (1.0 - b))


def weighted_sl_service_time(rates: ProcedureRates, times: SlServiceTimes) -> float:
    """Mean per-message SL processing time under the current procedure mix, s."""
    lam = rates.lam_total_msgs
    if not lam > 0:
        raise ParameterError("total message rate is zero: service-time mix undefined")
    # every rate scaled by one power of two, which is exact, so that subnormal
    # rates times the service times do not underflow to a zero mean
    k = -math.frexp(lam)[1]
    per_proc = zip((rates.lam_sr, rates.lam_srr, rates.lam_hr), times.per_procedure)
    return sum(math.ldexp(r, k) * sum(t) for r, t in per_proc) / math.ldexp(lam, k)


class Stage(NamedTuple):
    """A stage: breakdown key, name in errors, server count, rate per server (1/s)."""
    key: str
    label: str
    servers: float
    mu: float


def stages(params: QueueParams, t_sl: float, m: float | None = None) -> tuple[Stage, ...]:
    """The chain's stages in order, the SL pool with mean service time `t_sl`
    and `m` servers (default `params.m`; `math.inf` for an unlimited pool)."""
    m = params.m if m is None else m
    return (Stage("fe", "FE", 1, params.mu_fe),
            Stage("sl", "SL", m, 1.0 / t_sl),
            Stage("db", "SDB", 1, params.mu_sdb),
            Stage("oi", "OI", 1, params.mu_oi))


def mmm_response(lam: float, mu: float, c: float, stage: str = "SL") -> float:
    """Mean response time (wait + service) of an M/M/c queue, seconds; with
    c = inf nothing waits."""
    if not (lam >= 0 and mu > 0):
        raise ParameterError(f"need lam >= 0 and mu > 0, got lam={lam}, mu={mu}")
    if c == math.inf:
        return 1.0 / mu
    a = lam / mu
    if a >= c:
        raise InstabilityError(stage, lam, c * mu)
    return 1.0 / mu + erlang_c(c, a) / (c * mu - lam)


def response_at(lam: float, t_sl: float, params: QueueParams, m: float | None = None):
    """(total response s, per-stage breakdown) at message rate `lam` with mean
    SL service time `t_sl` already fixed; `m = math.inf` is an unlimited pool."""
    m = params.m if m is None else m
    parts = {f"{s.key}_s": mmm_response(lam, s.mu, s.servers, s.label)
             for s in stages(params, t_sl, m)}
    return sum(parts.values()), parts


def system_response(rates: ProcedureRates, params: QueueParams):
    """(total mean response s, per-stage breakdown) for the whole chain."""
    t_sl = weighted_sl_service_time(rates, params.sl_times)
    return response_at(rates.lam_total_msgs, t_sl, params)


def _meets(lam: float, t_sl: float, params: QueueParams, m: float, t_max: float) -> bool:
    """Whether the chain with `m` SL instances is stable at `lam` and meets `t_max`."""
    try:
        return response_at(lam, t_sl, params, m)[0] <= t_max
    except InstabilityError:
        return False


def dimension(rates: ProcedureRates, params: QueueParams, t_max: float | None = None) -> int:
    """Smallest SL instance count whose total response meets the budget."""
    t_max = params.t_max_s if t_max is None else t_max
    if not t_max > 0:  # as QueueParams checks t_max_s
        raise ParameterError(f"t_max must be > 0, got {t_max}")
    lam = rates.lam_total_msgs
    if lam == 0:
        return 1
    t_sl = weighted_sl_service_time(rates, params.sl_times)
    try:
        floor, parts = response_at(lam, t_sl, params, math.inf)
    except InstabilityError as e:
        raise InfeasibleError(
            f"message rate {lam:g}/s saturates the {e.stage} stage "
            f"(capacity {e.capacity:g}/s); no instance count helps", stage=e.stage) from None
    if floor > t_max:
        binding = max(stages(params, t_sl), key=lambda s: parts[f"{s.key}_s"]).label
        raise InfeasibleError(
            f"even with unlimited instances the response floor is "
            f"{floor*1e6:.1f} us > budget {t_max*1e6:.1f} us ({binding}-bound)",
            stage=binding)
    m = max(1, math.ceil(lam * t_sl))
    while not _meets(lam, t_sl, params, m, t_max):
        m += 1
    return m


@dataclass(frozen=True)
class CapacityResult:
    n_u_max: int
    n_d: int
    m: int
    lam_msgs: float  # messages/s at capacity
    procedures_per_s: float
    t_mean_s: float


def capacity(
    m: int,
    params: QueueParams,
    mix: TrafficMix,
    geom: CellGeometry,
    mmpp: MmppParams | None,
    t_i: float,
    mtcd_per_ue: float = 1.0,
    t_max: float | None = None,
) -> CapacityResult:
    """Largest UE count (with N_D = ratio * N_U) whose response meets the budget.

    The message rate is linear in N_U and the response monotone in the rate,
    so a bisection on the whole UE count finds the boundary exactly.
    """
    if not (isinstance(m, int) and m >= 1):
        raise ParameterError(f"m must be an integer >= 1, got {m}")
    if not 0 <= mtcd_per_ue < math.inf:
        raise ParameterError(f"mtcd_per_ue must be finite and >= 0, got {mtcd_per_ue}")
    t_max = params.t_max_s if t_max is None else t_max
    if not t_max > 0:  # as QueueParams checks t_max_s
        raise ParameterError(f"t_max must be > 0, got {t_max}")
    per_ue = htc_rates(mix, geom, t_i)
    if mtcd_per_ue > 0 and mmpp is None:
        raise ParameterError("MTCDs requested but no MMPP parameters given")
    per_mtcd = mtc_rates(mmpp, t_i) if mtcd_per_ue > 0 else (0.0, 0.0)

    unit = aggregate_rates(per_ue, per_mtcd, 1.0, mtcd_per_ue)
    msgs_per_ue = unit.lam_total_msgs
    if msgs_per_ue == 0:
        raise InfeasibleError("the configured mix generates no signaling at all")
    procs_per_ue = unit.lam_sr + unit.lam_srr + unit.lam_hr
    t_sl = weighted_sl_service_time(unit, params.sl_times)  # mix-invariant in n_u

    # lo meets the budget (no UEs trivially does); hi does not, or is unstable:
    # two UEs past the first stage's saturation rate
    lam_max = min(s.servers * s.mu for s in stages(params, t_sl, m))
    lo, hi = 0, int(lam_max / msgs_per_ue) + 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        # summed as aggregate_rates sums it: msgs_per_ue * mid can differ in the
        # last bit and move the boundary by one UE
        lam = aggregate_rates(per_ue, per_mtcd, mid, mtcd_per_ue * mid).lam_total_msgs
        if _meets(lam, t_sl, params, m, t_max):
            lo = mid
        else:
            hi = mid
    n_u = lo
    r = aggregate_rates(per_ue, per_mtcd, n_u, mtcd_per_ue * n_u)
    t_mean = response_at(r.lam_total_msgs, t_sl, params, m)[0] if n_u > 0 else 0.0
    return CapacityResult(
        n_u_max=n_u,
        n_d=int(round(mtcd_per_ue * n_u)),
        m=m,
        lam_msgs=r.lam_total_msgs,
        procedures_per_s=n_u * procs_per_ue,
        t_mean_s=t_mean,
    )
