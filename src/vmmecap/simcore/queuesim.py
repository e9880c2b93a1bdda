"""Event-driven simulation of the FE -> SL pool -> SDB -> OI chain.

Each trigger spawns its procedure's message sequence. The first message
reaches the front end one propagation delay after the trigger; each later
message arrives one inter-message round trip after the previous message
finishes vMME processing (closed loop). All four stages are FCFS; the SL
pool shares one queue across its m servers.

Every stage is a heap of server-free times (one entry per server), and one
step serves a message at any stage: start when the earliest server frees
up, finish one service time later (the Lindley recursion; for the pool,
the Kiefer-Wolfowitz one). A stage must see its arrivals in time order.
A single FCFS server keeps the order it receives, so a message popped
from the event heap walks on through the following stages at once. Only
a stage with more than one server can let a later message overtake, so a
message re-enters the event heap after the pool and nowhere else.

Response time per message covers the four stages only — the propagation
delay and inter-message gap shape arrival timing but are not vMME
processing time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..queueing import QueueParams
from .triggers import PROC_HR, PROC_SR, PROC_SRR, TriggerTrace
from .stats import batch_means

_STAGES = ("fe", "sl", "db", "oi")
WARMUP_FRACTION = 0.10  # leading share of responses dropped before batch means
MIN_BATCHES = 20


@dataclass(frozen=True)
class SimStats:
    mean_response_s: float
    ci_halfwidth_s: float
    n_messages: int
    n_triggers: int
    utilization: dict  # stage -> busy fraction over the measured span
    empirical_lam_msgs: float
    per_procedure_counts: dict
    max_backlog: int
    n_batches: int
    warmup_fraction: float
    seed: int
    valid: bool  # False when the trace was too small for batch statistics


def run_queue_sim(
    trace: TriggerTrace,
    params: QueueParams,
    service_law: str = "deterministic",
    seed: int = 0,
) -> SimStats:
    """Replay a trigger trace through the queueing chain and measure delays."""
    if service_law not in ("deterministic", "exponential"):
        raise ParameterError(f"service_law must be deterministic or exponential, "
                             f"got {service_law!r}")
    st = params.sl_times
    t_fe, t_db, t_oi = 1.0 / params.mu_fe, 1.0 / params.mu_sdb, 1.0 / params.mu_oi_effective
    # per procedure, each message's mean service time at each of the four stages
    means = {proc: [(t_fe, t_sl, t_db, t_oi) for t_sl in sl]
             for proc, sl in ((PROC_SR, (st.t_sr1, st.t_sr2, st.t_sr3)),
                              (PROC_SRR, (st.t_srr1, st.t_srr2, st.t_srr3)),
                              (PROC_HR, (st.t_hr1, st.t_hr2)))}
    m = params.m
    rng = np.random.default_rng(seed)
    exp = service_law == "exponential"

    # event: (time, seq, next stage, proc, msg_idx, fe_arrival); seq breaks ties
    events = [(t + params.prop_delay, i, 0, int(proc), 0, 0.0)
              for i, (t, proc) in enumerate(zip(trace.time_s, trace.procedure))]
    heapq.heapify(events)
    seq = len(events)

    free = [[-np.inf], [-np.inf] * m, [-np.inf], [-np.inf]]  # server-free times
    busy = [0.0] * 4
    responses: list[float] = []
    t_first = np.inf
    t_last = -np.inf
    in_chain: list = []  # (OI arrival, seq) per message, popped once an FE arrival passes it
    backlog = max_backlog = 0  # messages inside the chain

    while events:
        t, sq, stage, proc, msg_idx, fe_arr = heapq.heappop(events)
        if stage == 0:
            while in_chain and in_chain[0] < (t, sq):
                heapq.heappop(in_chain)
                backlog -= 1
            backlog += 1
            max_backlog = max(max_backlog, backlog)
            t_first = min(t_first, t)
            fe_arr = t
        for i in range(stage, 4):
            if i == 3:
                heapq.heappush(in_chain, (t, sq))
            s = means[proc][msg_idx][i]
            if exp:
                s = rng.exponential(s)
            t = max(t, free[i][0]) + s
            heapq.heapreplace(free[i], t)
            busy[i] += s
            if len(free[i]) > 1:  # a pool may reorder messages: back to the heap
                heapq.heappush(events, (t, sq, i + 1, proc, msg_idx, fe_arr))
                break
        else:
            responses.append(t - fe_arr)
            t_last = max(t_last, t)
            if msg_idx + 1 < len(means[proc]):
                heapq.heappush(events, (t + params.t_im, seq, 0, proc, msg_idx + 1, 0.0))
                seq += 1

    n_msgs = len(responses)
    counts = {
        "SR": int(np.sum(trace.procedure == PROC_SR)),
        "SRR": int(np.sum(trace.procedure == PROC_SRR)),
        "HR": int(np.sum(trace.procedure == PROC_HR)),
    }
    span = max(t_last - t_first, 0.0)
    util = {s: (b / span if span > 0 else 0.0) for s, b in zip(_STAGES, busy)}
    util["sl"] = util["sl"] / m

    resp = np.asarray(responses)
    kept = resp[int(len(resp) * WARMUP_FRACTION):]
    if len(kept) >= 2 * MIN_BATCHES:
        mean, half, n_b = batch_means(kept, MIN_BATCHES)
        valid = True
    else:
        mean = float(kept.mean()) if len(kept) else float("nan")
        half = float("nan")
        n_b = 0
        valid = False
    return SimStats(
        mean_response_s=mean,
        ci_halfwidth_s=half,
        n_messages=n_msgs,
        n_triggers=len(trace),
        utilization=util,
        empirical_lam_msgs=(n_msgs / span if span > 0 else 0.0),
        per_procedure_counts=counts,
        max_backlog=max_backlog,
        n_batches=n_b,
        warmup_fraction=WARMUP_FRACTION,
        seed=seed,
        valid=valid,
    )
