"""Running-cost model and the scalability metric.

Costs follow a public-cloud billing schedule (hourly instance fees, storage,
tiered egress, per-transaction database charges, load-balancer fees), all
normalized to dollars per second. Productivity is delay-discounted
throughput per dollar; the scalability index is its ratio to the
single-instance reference, with the usual gamma = 0.8 cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldError, ParameterError

GB = 1e9  # billing gigabyte (decimal)


@dataclass(frozen=True)
class CostSchedule:
    """Billing constants; the reference values are in `defaults.paper_defaults`."""

    ci_type_usd_per_h: float  # one SL/FE compute instance
    ci_storage_gb: float
    ci_storage_usd_per_gb_month: float
    ci_optimized_access_usd_per_h: float
    egress_tiers_gb_usd: tuple[tuple[float, float], ...]  # (bracket width in GB, $/GB)
    db_type_usd_per_h: float
    db_storage_usd_per_gb_month: float
    db_usd_per_million_tx: float
    lb_fee_usd_per_month: float
    lb_usd_per_gb: float
    i_size_bytes: float  # mean inbound message
    o_size_bytes: float  # mean outbound message
    per_user_state_bytes: float
    seconds_per_month: float

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if name == "egress_tiers_gb_usd":
                continue
            if v < 0:
                raise FieldError(name, ">= 0", v)
        if not self.seconds_per_month > 0:  # every monthly charge divides by it
            raise FieldError("seconds_per_month", "> 0", self.seconds_per_month)
        tiers = self.egress_tiers_gb_usd
        if not tiers or any(w <= 0 or usd < 0 for w, usd in tiers):
            raise FieldError("egress_tiers_gb_usd",
                             "one or more brackets of width > 0 and price >= 0", tiers)


def tiered_egress_cost(monthly_gb: float, sched: CostSchedule) -> float:
    """Dollars per month for a given egress volume, walking the brackets.

    Volume beyond the last bracket is billed at the last bracket's rate.
    """
    if monthly_gb < 0:
        raise ParameterError(f"egress volume must be >= 0, got {monthly_gb}")
    rem = monthly_gb
    cost = 0.0
    for width, rate in sched.egress_tiers_gb_usd:
        take = min(rem, width)
        cost += take * rate
        rem -= take
        if rem <= 0:
            break
    if rem > 0:
        cost += rem * rate
    return cost


def cost_per_second(
    m: int,
    lam_msgs: float,
    n_u: float,
    sched: CostSchedule,
) -> tuple[float, dict]:
    """Total running cost in $/s and its itemized breakdown.

    Total = balancer + m * per-compute-instance + database. Each of the m
    compute instances has its own egress meter, and each meter is billed on
    the whole outbound volume (lam_msgs * o_size_bytes), so egress costs m
    times the tiered cost of that volume.
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    if lam_msgs < 0 or n_u < 0:
        raise ParameterError("lam_msgs and n_u must be >= 0")
    spm = sched.seconds_per_month

    out_gb_month = lam_msgs * sched.o_size_bytes * spm / GB
    in_gb_month = lam_msgs * sched.i_size_bytes * spm / GB

    ci_fixed = (
        sched.ci_type_usd_per_h / 3600.0
        + sched.ci_optimized_access_usd_per_h / 3600.0
        + sched.ci_storage_gb * sched.ci_storage_usd_per_gb_month / spm
    )
    egress = m * tiered_egress_cost(out_gb_month, sched) / spm

    db = (
        sched.db_type_usd_per_h / 3600.0
        + sched.db_storage_usd_per_gb_month * (n_u * sched.per_user_state_bytes / GB) / spm
        + sched.db_usd_per_million_tx * lam_msgs / 1e6
    )
    lb = sched.lb_fee_usd_per_month / spm + sched.lb_usd_per_gb * in_gb_month / spm

    breakdown = {
        "lb_usd_per_s": lb,
        "ci_fixed_usd_per_s": m * ci_fixed,
        "ci_egress_usd_per_s": egress,
        "db_usd_per_s": db,
    }
    total = sum(breakdown.values())
    return total, breakdown


@dataclass(frozen=True)
class ScalabilityPoint:
    k: int
    n_u: int
    lam_msgs: float
    t_mean_s: float
    cost_usd_per_s: float
    f: float
    productivity: float
    psi: float
    classification: str


def classify(psi: float, gamma: float) -> str:
    if psi < 0:
        raise ParameterError(f"psi must be >= 0, got {psi}")
    if psi >= 1.0:
        return "positive"
    if psi >= gamma:
        return "sub-perfect"
    return "not-scalable"


def productivity(lam_msgs: float, t_mean_s: float, cost_usd_per_s: float,
                 t_hat_s: float) -> tuple[float, float]:
    """(f, F): delay discount f = 1/(1 + T/T_hat) and throughput-per-dollar F."""
    if cost_usd_per_s <= 0:
        raise ParameterError("cost must be > 0")
    if t_hat_s <= 0:
        raise ParameterError("t_hat must be > 0")
    f = 1.0 / (1.0 + t_mean_s / t_hat_s)
    return f, lam_msgs * f / cost_usd_per_s


def scalability_table(
    points: list[tuple[int, int, float, float]],
    sched: CostSchedule,
    t_hat_s: float,
    gamma: float,
) -> list[ScalabilityPoint]:
    """Build the psi(k) table from (k, n_u, lam_msgs, t_mean_s) operating points.

    Each point should be the system dimensioned at scale k and loaded to its
    delay-budget capacity; k=1 (or the smallest k given) is the reference.
    A point that the schedule bills at 0 $/s raises ParameterError.
    """
    out = []
    f_ref = None
    for k, n_u, lam, t_mean in points:
        cost, _ = cost_per_second(k, lam, n_u, sched)
        if not cost > 0:  # whether it bills depends on the sizes and the load
            raise ParameterError(f"the schedule bills nothing at k = {k} "
                                 f"({n_u} UEs, {lam:g} msgs/s), so productivity is undefined")
        f, big_f = productivity(lam, t_mean, cost, t_hat_s)
        if f_ref is None:
            f_ref = big_f
        psi = big_f / f_ref
        out.append(ScalabilityPoint(
            k=k, n_u=n_u, lam_msgs=lam, t_mean_s=t_mean,
            cost_usd_per_s=cost, f=f, productivity=big_f, psi=psi,
            classification=classify(psi, gamma),
        ))
    return out
