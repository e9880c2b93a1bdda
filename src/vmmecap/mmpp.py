"""Two-state slotted Markov-modulated Poisson process for MTC traffic.

State 1 is the low-rate state, state 2 the high-rate one. The chain moves
once per slot of length `delta_t`; within a slot packets arrive Poisson at
the state's rate and are placed uniformly over the slot. Dwell times are
geometric in slots, so a stream is generated segment by segment (one
segment per visit to a state) instead of slot by slot: same law, far fewer
random draws. A segment's Poisson count of packets is placed in sorted order
by normalised exponential spacings: the order statistics of n uniforms are
the partial sums of n + 1 unit exponentials over their total (Devroye 1986,
*Non-Uniform Random Variate Generation*, V.2), so no sort is needed.

`gap_survival` is the exact tail of the gap that follows a typical packet,
from the same slot and switch rules, in closed form.

`mmpp_packet_streams` draws n independent streams together from one
generator, in rounds: each round draws a block of segments for every stream
that has not yet reached the horizon. `mmpp_stream_chunks` hands a
population's streams out a chunk at a time, so the memory in use does not
grow with the population. The trace generator draws all of a trace's MTCDs
this way, from one random stream shared by the population; the UEs share
another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChainError, FieldError, ParameterError

CHUNK = 1 << 16  # expected packets plus state segments held at once


@dataclass(frozen=True)
class MmppParams:
    """2-state MMPP: per-slot switch probabilities and per-state packet rates."""

    p: float  # per-slot transition probability state 1 -> 2
    q: float  # per-slot transition probability state 2 -> 1
    lambda1: float  # packets/s in state 1
    lambda2: float  # packets/s in state 2
    delta_t: float = 1.0  # slot length, s

    def __post_init__(self):
        for name in ("p", "q"):
            if not 0 <= getattr(self, name) <= 1:
                raise FieldError(name, "in [0, 1]", getattr(self, name))
        for name in ("lambda1", "lambda2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise FieldError(name, "finite and >= 0", getattr(self, name))
        if not self.delta_t > 0:
            raise FieldError("delta_t", "> 0", self.delta_t)


def mmpp_stationary(params: MmppParams) -> tuple[float, float, float]:
    """(pi1, pi2, mean packet rate in packets/s) of the modulating chain."""
    p, q = params.p, params.q
    if p + q == 0:
        raise DegenerateChainError(
            "p = q = 0: the chain never moves, stationary split is undefined"
        )
    pi1 = q / (p + q)
    pi2 = p / (p + q)
    return pi1, pi2, pi1 * params.lambda1 + pi2 * params.lambda2


def _slot_integral(m: np.ndarray, e: np.ndarray, c: np.ndarray, a: float) -> np.ndarray:
    """Per row s, the sum over j of m[s, j] times the integral of exp(e[s, j] + c[s, j] u)
    over u in [0, a], in closed form.

    A term with c > 0 is integrated from its far end, so no exponent is
    positive: a * exp(e + max(c, 0) a) * expm1(x) / x at x = -|c| a.
    """
    x = -np.abs(c) * a
    safe = np.where(x == 0, 1.0, x)
    mean_exp = np.where(x == 0, 1.0, np.expm1(safe) / safe)
    return (m * np.exp(e + np.maximum(c, 0.0) * a) * a * mean_exp).sum(axis=1)


def gap_survival(params: MmppParams, t: float) -> float:
    """P(the gap after a typical packet exceeds `t` seconds), exactly.

    Under the Palm law a typical packet is in state s with probability
    pi_s lambda_s / mean rate, at a uniform place u in [0, 1) of its slot.
    The gap must first clear the rest of that slot, e^{-lambda_s (1 - u)
    delta_t}. Past the slot's end, its survival over k whole slots and a part
    f of the next is switch @ (D @ switch)^k applied to the per-state factors
    e^{-lambda f}, with D = diag(e^{-lambda delta_t}): the slotted form of the
    MMPP inter-arrival law (Fischer & Meier-Hellstern 1993, "The
    Markov-modulated Poisson process (MMPP) cookbook"). With
    t / delta_t = n + phi, k is n - 1 for u < 1 - phi and n from there on
    (k = -1: the gap ends inside the packet's own slot). Each piece is then a
    sum of e^{c u} terms, integrated in closed form. The stream must not be
    silent; P is 0 at t = inf.
    """
    pi1, pi2, mean_rate = mmpp_stationary(params)
    if not t >= 0:
        raise ParameterError(f"gap length must be >= 0, got {t}")
    if mean_rate == 0:
        raise ParameterError("a silent stream has no packets, so no gap law")
    if t == math.inf:
        return 0.0
    d = params.delta_t
    lam = np.array([params.lambda1, params.lambda2])
    share = np.array([pi1, pi2]) * lam / mean_rate  # a typical packet's state
    switch = np.array([[1.0 - params.p, params.p], [params.q, 1.0 - params.q]])
    stay = np.diag(np.exp(-lam * d))  # no packet over one whole slot, by state
    n, phi = divmod(t / d, 1.0)
    c = (lam[:, None] - lam[None, :]) * d  # e^{c u}: this slot's rest, then the next's start
    if n == 0:  # u < 1 - phi: the gap ends inside the packet's own slot
        within = (1.0 - phi) * np.exp(-lam * t)
        m = switch
    else:
        m = switch @ np.linalg.matrix_power(stay @ switch, int(n) - 1)
        within = _slot_integral(m, -lam[:, None] * d - lam[None, :] * (phi * d), c, 1.0 - phi)
        m = m @ stay @ switch
    beyond = _slot_integral(m, -lam[:, None] * (phi * d), c, phi)  # u >= 1 - phi
    return float(share @ (within + beyond))


def _state1_share(params: MmppParams) -> float:
    """The stationary share of state 1; 1 for a chain that never moves, which starts there."""
    return mmpp_stationary(params)[0] if params.p + params.q > 0 else 1.0


def _slots(params: MmppParams, horizon_s: float) -> int:
    if not 0 < horizon_s < math.inf:
        raise ParameterError(f"horizon must be finite and > 0, got {horizon_s}")
    return math.ceil(horizon_s / params.delta_t)


def _expected_segments(params: MmppParams, n_slots: int) -> float:
    """Mean number of state visits of one stream over `n_slots` slots.

    The start state is stationary, so each of the n_slots - 1 slot boundaries
    is a switch with probability pi1 p + pi2 q = 2pq / (p + q).
    """
    p, q = params.p, params.q
    return 1.0 + (n_slots - 1) * (2.0 * p * q / (p + q) if p + q > 0 else 0.0)


def mmpp_packet_streams(
    params: MmppParams,
    horizon_s: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(times, stream index) of the packets of `n` independent streams in [0, horizon).

    Each stream starts in the stationary state (in state 1 if p = q = 0).
    The packets are sorted by stream and then by time, and the times of one
    stream are strictly increasing.
    """
    n_slots = _slots(params, horizon_s)
    if n == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    leave = np.array([params.p, params.q])  # per-slot switch probability, by state
    per_slot = np.array([params.lambda1, params.lambda2]) * params.delta_t
    state = (rng.random(n) >= _state1_share(params)).astype(np.intp)  # 0 is state 1

    # state segments, in rounds: a block of `per_round` (the mean count plus
    # three of its Poisson sd) per unfinished stream, at most CHUNK in all
    segs = _expected_segments(params, n_slots)
    per_round = math.ceil(segs + 3.0 * math.sqrt(segs))
    pos = np.zeros(n, dtype=np.int64)  # slots each stream has covered
    active = np.arange(n)
    rounds = []
    while active.size:
        k = max(1, min(per_round, CHUNK // active.size))
        seg_state = (state[active, None] + np.arange(k)) & 1
        pr = leave[seg_state]
        dwell = np.where(pr > 0, rng.geometric(np.where(pr > 0, pr, 1.0)), n_slots)
        end = np.minimum(pos[active, None] + np.cumsum(np.minimum(dwell, n_slots), axis=1),
                         n_slots)
        start = np.concatenate((pos[active, None], end[:, :-1]), axis=1)
        used = start < end  # the segments that begin before the horizon
        rows = np.broadcast_to(active[:, None], used.shape)
        rounds.append((rows[used], start[used], end[used] - start[used], seg_state[used]))
        pos[active] = end[:, -1]
        state[active] = (state[active] + k) & 1
        active = active[end[:, -1] < n_slots]
    stream, start, length, seg_state = (np.concatenate(c) for c in zip(*rounds))
    if len(rounds) > 1:  # later rounds continue streams of earlier ones
        order = np.argsort(stream, kind="stable")
        stream, start, length, seg_state = (a[order] for a in (stream, start, length, seg_state))

    # Poisson packet counts, placed by exponential spacings within each segment
    count = rng.poisson(per_slot[seg_state] * length)
    has = count > 0
    stream, start, length, count = stream[has], start[has], length[has], count[has]
    seg = np.repeat(np.arange(len(count)), count)
    sums = np.concatenate(([0.0], np.cumsum(rng.standard_exponential(count.sum() + len(count)))))
    first = np.cumsum(count + 1) - (count + 1)  # a segment's first spacing
    base = sums[first]
    total = sums[first + count + 1] - base
    pos_in = np.arange(1, len(seg) + 1)
    pos_in += seg  # a packet's spacing sum, past the one each earlier segment ends with
    times = sums[pos_in]  # in place from here, to hold few per-packet arrays at once
    del pos_in, sums
    times -= base[seg]
    times /= total[seg]
    times *= length[seg]
    times += start[seg]
    times *= params.delta_t
    keep = times < horizon_s
    times, stream = times[keep], stream[seg][keep]
    # enforce strictly increasing times within a stream (float ties are
    # astronomically rare, but downstream event ordering assumes strictness)
    while True:
        tie = np.flatnonzero((np.diff(times) <= 0) & (stream[1:] == stream[:-1]))
        if not tie.size:
            return times, stream
        times[tie + 1] = np.nextafter(times[tie], np.inf)


def mmpp_stream_chunks(params: MmppParams, horizon_s: float, n: int,
                       rng: np.random.Generator):
    """Yield `mmpp_packet_streams` for `n` streams, a chunk of streams at a time.

    A chunk holds about CHUNK expected packets and state segments; stream
    indices run over all n streams.
    """
    n_slots = _slots(params, horizon_s)
    pi1 = _state1_share(params)
    rate = pi1 * params.lambda1 + (1.0 - pi1) * params.lambda2
    per_stream = rate * n_slots * params.delta_t + _expected_segments(params, n_slots)
    size = max(1, int(CHUNK // per_stream))
    for lo in range(0, n, size):
        times, stream = mmpp_packet_streams(params, horizon_s, min(size, n - lo), rng)
        yield times, stream + lo


def mmpp_packet_stream(
    params: MmppParams,
    horizon_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Packet arrival times of one stream in [0, horizon), strictly increasing, as float64.

    The start state is drawn from the stationary distribution, so the stream
    starts in steady state.
    """
    return mmpp_packet_streams(params, horizon_s, 1, rng)[0]
