"""Event-driven simulation of the FE -> SL pool -> SDB -> OI chain.

Each trigger spawns its procedure's message sequence. The first message
reaches the front end one propagation delay after the trigger; each later
message arrives one inter-message round trip after the previous message
finishes vMME processing (closed loop). All four stages are FCFS; the SL
pool shares one queue across its m servers.

The eight (procedure, message) pairs are numbered as message types. Each
type carries its mean service time at the four stages and the type of the
message after it, so the loop follows a procedure by one list index per
message; the trace's procedures become first-message types in one NumPy
gather.

A stage serves a message by the Lindley recursion: start when the earliest
server frees up, finish one service time later. Every single server (FE,
SDB, OI, and the SL stage when m = 1) holds one float, its free time; a pool
of m > 1 is a heap of m server-free times (the Kiefer-Wolfowitz recursion).
A stage must see its arrivals in time order, so messages are served in the
order of their (time, seq) events, taken from three sources that are each
already in that order:

- first messages, read in order from the sorted trace; a trigger's seq is
  its index;
- follow-up messages, made at an OI departure plus the round trip. The OI
  serves in time order, so they are made in time order and a FIFO of
  (FE arrival, type) holds them, its head's time kept in a float. They are
  numbered after every trigger in the order they are made, which is the
  order they leave the FIFO, so a follow-up's seq is a count of pops;
- pool departures. Only a pool of more than one server can let a later
  message overtake, so only such a pool sends its departures back to the
  event sources, through a heap; with m = 1 that heap stays empty and a
  message walks through all four stages at once.

The backlog a message finds counts the messages that reached the FE before
it and have not yet left the SDB. When the SDB freed up strictly before
the arrival and no message waits in the pool's departure heap, every
earlier message has left the SDB, so the backlog is the arrival alone and
the FIFO of SDB departures is dropped unread. At a tie (`free_db == t`)
the seqs decide, so the FIFO is walked.

Response time per message covers the four stages only — the propagation
delay and inter-message gap shape arrival timing but are not vMME
processing time. Responses are kept as doubles in an `array`, 8 bytes
each.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..queueing import QueueParams, stages
from .triggers import TriggerTrace
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
    warmup_fraction: float
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
    # message types: per (procedure, message), the mean service time at each
    # of the four stages and the next message's type (-1 after the last)
    svcs, nexts, first = [], [], []
    for sl in st.per_procedure:  # by procedure code
        first.append(len(svcs))
        for k, t_sl in enumerate(sl):
            svcs.append(tuple(t_sl if s.key == "sl" else 1.0 / s.mu for s in chain))
            nexts.append(len(svcs) if k + 1 < len(sl) else -1)
    m = params.m
    pooled = m > 1
    rng = np.random.default_rng(seed)
    exp = service_law == "exponential"
    draw = rng.exponential
    t_im = params.t_im
    inf = math.inf  # a local: the loop reads it for every message

    # first messages in trace order, then a sentinel; a trigger's seq is its index
    n_trig = len(trace)
    arrivals = (trace.time_s + params.prop_delay).tolist() + [inf]
    firsts = np.array(first)[trace.procedure].tolist()
    i = 0
    t_trig = arrivals[0]
    follow: deque = deque()  # (FE arrival, type)
    t_fol = inf  # the head's FE arrival
    sq_fol = n_trig  # the head's seq: follow-ups leave in the order they were made
    departed: list = []  # pool departures: (time, seq, type, fe_arrival)

    free_fe = free_sl = free_db = free_oi = -inf  # single servers' free times
    pool = [-inf] * m
    busy_fe = busy_sl = busy_db = busy_oi = 0.0
    responses = array("d")
    respond = responses.append
    # (OI arrival, seq) per message inside the chain. OI arrivals are SDB
    # departures, which strictly increase (every service takes time), so the
    # FIFO stays sorted.
    in_chain: deque = deque()
    backlog = max_backlog = 0  # messages inside the chain

    while True:
        # the next FE arrival: a trigger wins a tie, its seq being the smaller
        if t_fol < t_trig:
            t, sq = t_fol, sq_fol
        else:
            t, sq = t_trig, i
        if departed and departed[0] < (t, sq):  # seqs are unique: (time, seq) decides
            t, sq, typ, fe_arr = heapq.heappop(departed)
            s_db, s_oi = svcs[typ][2:]
        else:
            if t == inf:
                break
            if sq < n_trig:
                typ = firsts[i]
                i += 1
                t_trig = arrivals[i]
            else:
                typ = follow.popleft()[1]
                sq_fol += 1
                t_fol = follow[0][0] if follow else inf
            if free_db < t and not departed:
                # every earlier message has left the SDB: the chain holds this one
                in_chain.clear()
                backlog = 1
            else:
                while in_chain and in_chain[0] < (t, sq):
                    in_chain.popleft()
                    backlog -= 1
                backlog += 1
            if backlog > max_backlog:
                max_backlog = backlog
            fe_arr = t
            s_fe, s_sl, s_db, s_oi = svcs[typ]
            if exp:
                s_fe = draw(s_fe)
                s_sl = draw(s_sl)
            t = (free_fe if free_fe > t else t) + s_fe
            free_fe = t
            busy_fe += s_fe
            busy_sl += s_sl
            if pooled:  # a pool may reorder messages: back to the event sources
                t = (pool[0] if pool[0] > t else t) + s_sl
                heapq.heapreplace(pool, t)
                heapq.heappush(departed, (t, sq, typ, fe_arr))
                continue
            t = (free_sl if free_sl > t else t) + s_sl
            free_sl = t
        if exp:
            s_db = draw(s_db)
            s_oi = draw(s_oi)
        t = (free_db if free_db > t else t) + s_db
        free_db = t
        busy_db += s_db
        in_chain.append((t, sq))
        t = (free_oi if free_oi > t else t) + s_oi
        free_oi = t
        busy_oi += s_oi
        respond(t - fe_arr)
        typ = nexts[typ]
        if typ >= 0:
            t += t_im
            if not follow:
                t_fol = t
            follow.append((t, typ))

    n_msgs = len(responses)
    # the first FE arrival is the first trigger's, and OI departures never decrease
    span = max(free_oi - arrivals[0], 0.0)
    util = {s.key: (b / span / s.servers if span > 0 else 0.0)
            for s, b in zip(chain, (busy_fe, busy_sl, busy_db, busy_oi))}

    resp = np.frombuffer(responses)
    kept = resp[int(len(resp) * WARMUP_FRACTION):]
    if len(kept) >= 2 * MIN_BATCHES:
        mean, half = batch_means(kept, MIN_BATCHES)
        valid = True
    else:
        mean = float(kept.mean()) if len(kept) else float("nan")
        half = float("nan")
        valid = False
    return SimStats(
        mean_response_s=mean,
        ci_halfwidth_s=half,
        n_messages=n_msgs,
        n_triggers=len(trace),
        utilization=util,
        empirical_lam_msgs=(n_msgs / span if span > 0 else 0.0),
        max_backlog=max_backlog,
        warmup_fraction=WARMUP_FRACTION,
        valid=valid,
    )
