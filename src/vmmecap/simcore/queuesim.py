"""Event-driven simulation of the FE -> SL pool -> SDB -> OI chain.

Each trigger spawns its procedure's message sequence. The first message
reaches the front end one propagation delay after the trigger; each later
message arrives one inter-message round trip after the previous message
finishes vMME processing (closed loop). All four stages are FCFS; the SL
pool shares one queue across its m servers.

A stage serves a message by the Lindley recursion: start when the earliest
server frees up, finish one service time later (for the pool, the
Kiefer-Wolfowitz recursion over a heap of m server-free times). FE, SDB and
OI are single servers and hold one float each. A stage must see its
arrivals in time order, so messages are served in the order of their
(time, seq) events, taken from three sources that are each already in that
order:

- first messages, read in order from the sorted trace;
- follow-up messages, made at an OI departure plus the round trip. The OI
  serves in time order, so they are made in time order and a FIFO holds
  them;
- pool departures. Only a pool of more than one server can let a later
  message overtake, so only such a pool sends its departures back to the
  event sources, through a heap; with m = 1 that heap stays empty and a
  message walks through all four stages at once.

Response time per message covers the four stages only — the propagation
delay and inter-message gap shape arrival timing but are not vMME
processing time.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..queueing import QueueParams, stages
from .triggers import PROC_HR, PROC_SR, PROC_SRR, TriggerTrace
from .stats import batch_means

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
    if not np.all(np.isfinite(trace.time_s)) or np.any(np.diff(trace.time_s) < 0):
        raise ParameterError("trigger times must be finite and sorted")
    st = params.sl_times
    chain = stages(params, st.t_sr1)  # in the loop's order; its SL rate goes unused
    # per procedure, each message's mean service time at each of the four stages
    means = {proc: [tuple(t_sl if s.key == "sl" else 1.0 / s.mu for s in chain)
                    for t_sl in sl]
             for proc, sl in ((PROC_SR, (st.t_sr1, st.t_sr2, st.t_sr3)),
                              (PROC_SRR, (st.t_srr1, st.t_srr2, st.t_srr3)),
                              (PROC_HR, (st.t_hr1, st.t_hr2)))}
    m = params.m
    pooled = m > 1
    rng = np.random.default_rng(seed)
    exp = service_law == "exponential"
    draw = rng.exponential

    # first messages in trace order, then a sentinel; a trigger's seq is its index
    arrivals = (trace.time_s + params.prop_delay).tolist() + [math.inf]
    procs = trace.procedure.tolist() + [0]
    i = 0
    t_trig = arrivals[0]
    seq = len(trace)  # follow-ups are numbered after every trigger
    follow: deque = deque()  # (FE arrival, seq, proc, msg_idx)
    departed: list = []  # pool departures: (time, seq, proc, msg_idx, fe_arrival)

    free_fe = free_db = free_oi = -math.inf  # server-free times
    pool = [-math.inf] * m
    busy_fe = busy_sl = busy_db = busy_oi = 0.0
    responses: list[float] = []
    # (OI arrival, seq) per message inside the chain. OI arrivals are SDB
    # departures, which strictly increase (every service takes time), so the
    # FIFO stays sorted.
    in_chain: deque = deque()
    backlog = max_backlog = 0  # messages inside the chain

    while True:
        # the next FE arrival: a trigger wins a tie, its seq being the smaller
        if follow and follow[0][0] < t_trig:
            t, sq, proc, msg_idx = follow[0]
        else:
            t, sq, proc, msg_idx = t_trig, i, procs[i], 0
        if departed and departed[0][:2] < (t, sq):
            t, sq, proc, msg_idx, fe_arr = heapq.heappop(departed)
            svc = means[proc][msg_idx]
        else:
            if t == math.inf:
                break
            if msg_idx:
                follow.popleft()
            else:
                i += 1
                t_trig = arrivals[i]
            while in_chain and in_chain[0] < (t, sq):
                in_chain.popleft()
                backlog -= 1
            backlog += 1
            if backlog > max_backlog:
                max_backlog = backlog
            fe_arr = t
            svc = means[proc][msg_idx]
            s = draw(svc[0]) if exp else svc[0]
            t = (free_fe if free_fe > t else t) + s
            free_fe = t
            busy_fe += s
            s = draw(svc[1]) if exp else svc[1]
            t = (pool[0] if pool[0] > t else t) + s
            heapq.heapreplace(pool, t)
            busy_sl += s
            if pooled:  # a pool may reorder messages: back to the event sources
                heapq.heappush(departed, (t, sq, proc, msg_idx, fe_arr))
                continue
        s = draw(svc[2]) if exp else svc[2]
        t = (free_db if free_db > t else t) + s
        free_db = t
        busy_db += s
        in_chain.append((t, sq))
        s = draw(svc[3]) if exp else svc[3]
        t = (free_oi if free_oi > t else t) + s
        free_oi = t
        busy_oi += s
        responses.append(t - fe_arr)
        if msg_idx + 1 < len(means[proc]):
            follow.append((t + params.t_im, seq, proc, msg_idx + 1))
            seq += 1

    n_msgs = len(responses)
    # the first FE arrival is the first trigger's, and OI departures never decrease
    span = max(free_oi - arrivals[0], 0.0)
    util = {s.key: (b / span / s.servers if span > 0 else 0.0)
            for s, b in zip(chain, (busy_fe, busy_sl, busy_db, busy_oi))}

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
        max_backlog=max_backlog,
        n_batches=n_b,
        warmup_fraction=WARMUP_FRACTION,
        seed=seed,
        valid=valid,
    )
