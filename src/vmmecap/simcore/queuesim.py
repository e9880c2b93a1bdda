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

Under the exponential law a service time is its mean times a unit
exponential. A message draws its four (FE, SL, SDB, OI) when it reaches the
FE, and a pool departure carries its SDB and OI times in the heap. The unit
draws come in blocks of DRAW_BLOCK, a multiple of four, from
`rng.standard_exponential`, used in the order the scalar calls
`rng.exponential(mean)` would make them, which NumPy computes as the mean
times one such draw: the same numbers at a fraction of the cost per draw.
The loop adds each of these service times to its stage's busy sum as it
draws it. Under the deterministic law it adds nothing: a stage's busy time
is the sum over message types of the type's message count times its
service time (the utilization law; Denning & Buzen 1978, "The operational
analysis of queueing network models"), exact and rounded once. Every
trigger sends one message of each type of its procedure, so the counts are
the trace's procedure counts.

The loop is resumable: it takes a `_Chain`, the state of every server and
message, and leaves it where it stopped. It takes a chunk of CHUNK triggers
at a time, turned into Python lists only then, and stops where it would
take the trigger after the chunk, whose arrival ends the chunk's list as a
sentinel: every follow-up and departure before that trigger is done.
Reading that trigger's type past the chunk's end stops the loop, so no
test is made per trigger.

Under the deterministic law a long trace is cut into parts of equal
trigger counts, one per CPU this process may run on (`os.sched_getaffinity`)
and none shorter than MIN_PART_TRIGGERS (time-division simulation with
fix-up; Heidelberger & Stone 1990, Lin & Lazowska 1991). Each part after
the first runs from an empty chain in a forked child, which reads the
trace from the memory it shares with its parent. Past a window of
SNAP_WINDOW round trips (or SNAP_STEPS triggers) it records one snapshot,
at the first trigger that finds the chain idle (the test above): the
follow-up FIFO, the OI's free time and the response count. The parent runs
the first part, then carries the true chain into each later part up to the
snapshot, and compares: idle there too, the same FIFO, and an OI free time
equal or, in both runs, before that arrival. Runs that agree at an idle
trigger take the same steps from there on, so one snapshot past the window
finds every pair of runs that agreed earlier. Where they agree, the parent
keeps its own responses before that trigger and the child's after it, and
takes over the child's end state; else it runs the part itself. The result
is the same, field for field, for every number of parts; one part takes
the same path with no child. The exponential law runs in one part, because
its draws follow event order.
"""

from __future__ import annotations

import heapq
import math
import os
import pickle  # already loaded by NumPy
import threading
from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..queueing import QueueParams, stages
from .triggers import PROC_HR, PROC_SR, TriggerTrace, check_seed
from .stats import batch_means

WARMUP_FRACTION = 0.10  # leading share of responses dropped before batch means
MIN_BATCHES = 20
DRAW_BLOCK = 256  # unit exponentials drawn at once; a block costs about 8 KB as floats
CHUNK = 1 << 11  # triggers turned into Python lists at a time
MIN_PART_TRIGGERS = 1 << 13  # the fewest triggers worth a process of their own
SNAP_WINDOW = 32  # a cold part runs this many round trips before its snapshot
SNAP_STEPS = 4096  # ... or this many triggers, and seeks an idle one among as many more
PIPE_BLOCK = 1 << 20  # bytes read from a child's pipe at a time

# the chain state a cold part hands to the parent at its end
_CARRIED = ("free_fe", "free_sl", "free_db", "free_oi", "pool", "departed", "follow",
            "sq_fol", "in_chain", "backlog")


@dataclass(frozen=True)
class SimStats:
    mean_response_s: float
    ci_halfwidth_s: float
    n_messages: int
    utilization: dict  # stage -> busy time (`_Kernel.busy_sums`) / servers / measured span
    empirical_lam_msgs: float  # messages per second of the trace's horizon
    max_backlog: int
    valid: bool  # False when the trace was too small for batch statistics


class _Chain:
    """Where every server and message of the chain stands between two loop calls."""

    __slots__ = _CARRIED + ("max_backlog", "busy", "units", "u", "responses")

    def __init__(self, m: int, n_trig: int):
        self.free_fe = self.free_sl = self.free_db = self.free_oi = -math.inf
        self.pool = [-math.inf] * m  # used when m > 1
        self.departed = []  # pool departures: (time, seq, type, fe_arrival, SDB time, OI time)
        self.follow = deque()  # (FE arrival, type)
        # The FIFO head's seq. Follow-ups are numbered after the sentinel past
        # the last trigger, whose seq is n_trig.
        self.sq_fol = n_trig + 1
        # (OI arrival, seq) per message inside the chain. OI arrivals are SDB
        # departures, which strictly increase (every service takes time), so
        # the FIFO stays sorted.
        self.in_chain = deque()
        self.backlog = self.max_backlog = 0  # messages inside the chain
        self.busy = (0.0, 0.0, 0.0, 0.0)  # exponential law only
        # a block of unit exponentials, used from units[u] on; none at first
        self.units, self.u = [], DRAW_BLOCK
        self.responses = array("d")


class _Kernel:
    """A trace and the chain's constants: what every part of a run shares."""

    def __init__(self, trace: TriggerTrace, params: QueueParams, service_law: str,
                 seed: int):
        st = params.sl_times
        chain = stages(params, st.t_sr1)  # in the loop's order; its SL rate goes unused
        # message types: per (procedure, message), the mean service time at each
        # of the four stages, the next message's type (-1 after the last) and
        # the number of messages, one per trigger of the procedure. Counted
        # before the run, so that `bincount`'s 8-byte copy of the codes is gone
        # before the responses grow.
        per_proc = np.bincount(trace.procedure, minlength=3).tolist()
        svcs, nexts, first, msgs = [], [], [], []
        for n, sl in zip(per_proc, st.per_procedure):  # by procedure code
            first.append(len(svcs))
            for k, t_sl in enumerate(sl):
                svcs.append(tuple(t_sl if s.key == "sl" else 1.0 / s.mu for s in chain))
                nexts.append(len(svcs) if k + 1 < len(sl) else -1)
                msgs.append(n)
        self.stages, self.svcs, self.nexts, self.msgs = chain, svcs, nexts, msgs
        self.first_of = np.array(first)
        self.m, self.t_im, self.prop_delay = params.m, params.t_im_s, params.prop_delay_s
        self.exp = service_law == "exponential"
        self.draw = np.random.default_rng(seed).standard_exponential
        self.time_s, self.procedure, self.n_trig = trace.time_s, trace.procedure, len(trace)

    def arrivals(self, lo: int, hi: int) -> list:
        """FE arrivals of triggers lo .. hi - 1; inf stands for the one past the last."""
        out = (self.time_s[lo:hi] + self.prop_delay).tolist()
        if hi > self.n_trig:
            out.append(math.inf)
        return out

    def run(self, c: _Chain, a: int, b: int) -> None:
        """Take triggers [a, b) and every event before trigger b's, a chunk at a time."""
        for lo in range(a, b, CHUNK):
            hi = min(lo + CHUNK, b)
            self.advance(c, self.arrivals(lo, hi + 1),
                         self.first_of[self.procedure[lo:hi]].tolist(), lo)

    def advance(self, c: _Chain, arrivals: list, firsts: list, base: int) -> None:
        """Take the triggers from `base` on whose first-message types are `firsts`,
        and every event before the next trigger, whose arrival ends `arrivals`."""
        svcs, nexts, n_trig, t_im = self.svcs, self.nexts, self.n_trig, self.t_im
        pooled, exp, draw, block = self.m > 1, self.exp, self.draw, DRAW_BLOCK
        free_fe, free_sl, free_db, free_oi = c.free_fe, c.free_sl, c.free_db, c.free_oi
        pool, departed, follow, in_chain = c.pool, c.departed, c.follow, c.in_chain
        sq_fol, backlog, max_backlog = c.sq_fol, c.backlog, c.max_backlog
        busy_fe, busy_sl, busy_db, busy_oi = c.busy
        units, u = c.units, c.u
        respond = c.responses.append
        inf = math.inf  # a local: the loop reads it for every message
        t_fol = follow[0][0] if follow else inf  # the head's FE arrival
        k = 0
        t_trig = arrivals[0]
        try:
            while True:
                # the next FE arrival: a trigger wins a tie, its seq being the smaller
                if t_fol < t_trig:
                    t, sq = t_fol, sq_fol
                else:
                    t, sq = t_trig, base + k
                if departed and departed[0] < (t, sq):  # seqs are unique: (time, seq) decides
                    t, sq, typ, fe_arr, s_db, s_oi = heapq.heappop(departed)
                else:
                    if sq <= n_trig:
                        typ = firsts[k]  # raises at the sentinel, before any change
                        k += 1
                        t_trig = arrivals[k]
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
                    if exp:  # four draws a message, so a block is used up exactly
                        if u == block:
                            units, u = draw(block).tolist(), 0
                        s_fe *= units[u]
                        s_sl *= units[u + 1]
                        s_db *= units[u + 2]
                        s_oi *= units[u + 3]
                        u += 4
                        busy_fe += s_fe
                        busy_sl += s_sl
                        busy_db += s_db
                        busy_oi += s_oi
                    t = (free_fe if free_fe > t else t) + s_fe
                    free_fe = t
                    if pooled:  # a pool may reorder messages: back to the event sources
                        t = (pool[0] if pool[0] > t else t) + s_sl
                        heapq.heapreplace(pool, t)
                        heapq.heappush(departed, (t, sq, typ, fe_arr, s_db, s_oi))
                        continue
                    t = (free_sl if free_sl > t else t) + s_sl
                    free_sl = t
                t = (free_db if free_db > t else t) + s_db
                free_db = t
                in_chain.append((t, sq))
                t = (free_oi if free_oi > t else t) + s_oi
                free_oi = t
                respond(t - fe_arr)
                typ = nexts[typ]
                if typ >= 0:
                    t += t_im
                    if not follow:
                        t_fol = t
                    follow.append((t, typ))
        except IndexError:
            if k < len(firsts):  # not the sentinel
                raise
        c.free_fe, c.free_sl, c.free_db, c.free_oi = free_fe, free_sl, free_db, free_oi
        c.sq_fol, c.backlog, c.max_backlog = sq_fol, backlog, max_backlog
        c.busy = (busy_fe, busy_sl, busy_db, busy_oi)
        c.units, c.u = units, u

    def busy_sums(self, c: _Chain) -> tuple:
        """The four stages' busy sums. The exponential law's are the loop's; under
        the deterministic law each is the sum over message types of the type's
        message count times its service time, rounded once."""
        if self.exp:
            return c.busy
        return tuple(_exact_sum(self.msgs, col) for col in zip(*self.svcs))


def _exact_sum(counts: list, values: tuple) -> float:
    """counts[0] * values[0] + counts[1] * values[1] + ..., exact, then rounded
    once: integer arithmetic over each double's exact ratio, and Python's
    int / int is correctly rounded."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return sum(n * a * (den // d) for n, (a, d) in zip(counts, ratios)) / den


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _n_parts(kern: _Kernel) -> int:
    # A forked child has only the thread that forked it, and any lock another
    # thread held stays locked in it, so a process with threads runs one part.
    if kern.exp or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_cpus(), kern.n_trig // MIN_PART_TRIGGERS))


def _idle_state(kern: _Kernel, c: _Chain, j: int) -> tuple | None:
    """If trigger j's arrival finds the chain idle, all of the chain's state that
    still acts on what follows: the follow-up FIFO and when the OI can next serve.
    Every other server is free by then."""
    t = kern.arrivals(j, j + 1)[0]
    if c.free_db < t and not c.departed:
        return tuple(c.follow), max(c.free_oi, t)
    return None


def _cold_part(kern: _Kernel, a: int, b: int, out) -> None:
    """Run part [a, b) from an empty chain and write it to the binary file `out`.

    The run takes the part's first SNAP_WINDOW round trips, or its first
    SNAP_STEPS triggers if they end sooner, then steps one trigger at a time,
    for at most SNAP_STEPS triggers, to the first whose arrival finds the
    chain idle, and snapshots it there. Written: a pickle of (snapshot,
    response count, largest backlog from the snapshot on, end state), the
    snapshot being (trigger, response count, `_idle_state` or None if no
    trigger was idle); then the responses.
    """
    c = _Chain(kern.m, kern.n_trig)
    hi = min(a + SNAP_STEPS, b)
    j = a + int(np.searchsorted(kern.time_s[a:hi], kern.time_s[a] + SNAP_WINDOW * kern.t_im))
    kern.run(c, a, j)
    state, hi = None, min(j + SNAP_STEPS, b)
    while j < hi and (state := _idle_state(kern, c, j)) is None:
        kern.run(c, j, j + 1)
        j += 1
    snap = (j, len(c.responses), state)
    c.max_backlog = 0
    kern.run(c, j, b)
    pickle.dump((snap, len(c.responses), c.max_backlog,
                 tuple(getattr(c, name) for name in _CARRIED)), out)
    out.write(c.responses)


def _read(f, n: int, into: array | None = None) -> None:
    """Read n bytes of `f`, a block at a time, onto the end of `into` (or drop them)."""
    while n:
        block = f.read(min(n, PIPE_BLOCK))
        if not block:
            raise EOFError("a part's process ended before its output")
        if into is not None:
            into.frombytes(block)
        n -= len(block)


def _join(kern: _Kernel, c: _Chain, a: int, b: int, f) -> None:
    """Carry the true chain `c` through part [a, b): up to the snapshot of the
    cold run that `f` reads and, if the two runs agree there, take the cold
    run's rest; else to the part's end."""
    got = pickle.load(f)
    if isinstance(got, BaseException):
        raise got
    (j, n, state), n_resp, top, end = got
    kern.run(c, a, j)
    if state is not None and _idle_state(kern, c, j) == state:
        _read(f, 8 * n)
        _read(f, 8 * (n_resp - n), c.responses)
        c.max_backlog = max(c.max_backlog, top)
        for name, value in zip(_CARRIED, end):
            setattr(c, name, value)
    else:
        kern.run(c, j, b)


def _run_parts(kern: _Kernel, c: _Chain, n_parts: int) -> None:
    """Run the trace in `n_parts` parts, the first here and each other in a
    forked child; one part forks nothing.

    A child reads the trace from the memory it shares with this process and
    writes its part to a pipe, or the error it raised. No child outlives
    this call: each is waited for, and killed first if this process raises.
    """
    import signal

    bounds = [p * kern.n_trig // n_parts for p in range(n_parts + 1)]
    children = []  # (pid, read end of its pipe)
    done = False
    try:
        for p in range(1, n_parts):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: write the part, then leave without cleaning up
                try:
                    os.close(r)
                    for _, f in children:  # so that no pipe has a reader but the parent
                        f.close()
                    with os.fdopen(w, "wb") as out:
                        try:
                            _cold_part(kern, bounds[p], bounds[p + 1], out)
                        except BaseException as e:  # the parent raises it
                            pickle.dump(e, out)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        kern.run(c, 0, bounds[1])
        for p, (pid, f) in enumerate(children, 1):
            _join(kern, c, bounds[p], bounds[p + 1], f)
        done = True
    finally:
        for pid, f in children:
            f.close()  # a child still writing gets a broken pipe and leaves
            if not done:
                os.kill(pid, signal.SIGKILL)
        for pid, _ in children:
            os.waitpid(pid, 0)


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
    codes = trace.procedure
    if codes.dtype.kind not in "iu":
        raise ParameterError(f"procedure codes must be integers, got {codes.dtype}")
    for code in (codes.min(initial=PROC_SR), codes.max(initial=PROC_SR)):
        if not PROC_SR <= code <= PROC_HR:
            raise ParameterError(f"procedure code {code} is none of 0 (SR), 1 (SRR), 2 (HR)")
    check_seed(seed)
    kern = _Kernel(trace, params, service_law, seed)
    c = _Chain(params.m, kern.n_trig)
    _run_parts(kern, c, _n_parts(kern))

    n_msgs = len(c.responses)
    # the first FE arrival is the first trigger's, and OI departures never decrease
    span = max(c.free_oi - kern.arrivals(0, 1)[0], 0.0)
    util = {s.key: (b / span / s.servers if span > 0 else 0.0)
            for s, b in zip(kern.stages, kern.busy_sums(c))}

    resp = np.frombuffer(c.responses)
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
        utilization=util,
        empirical_lam_msgs=n_msgs / trace.horizon_s,
        max_backlog=c.max_backlog,
        valid=valid,
    )
