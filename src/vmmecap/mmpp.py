"""Two-state slotted Markov-modulated Poisson process for MTC traffic.

State 1 is the low-rate state, state 2 the high-rate one. The chain moves
once per slot of length `delta_t`; within a slot packets arrive Poisson at
the state's rate and are placed uniformly over the slot. Dwell times are
geometric in slots, so the stream is generated segment-by-segment instead
of slot-by-slot (same law, far fewer random draws).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChainError, ParameterError


@dataclass(frozen=True)
class MmppParams:
    """2-state MMPP: per-slot switch probabilities and per-state packet rates."""

    p: float  # per-slot transition probability state 1 -> 2
    q: float  # per-slot transition probability state 2 -> 1
    lambda1: float  # packets/s in state 1
    lambda2: float  # packets/s in state 2
    delta_t: float = 1.0  # slot length, s

    def __post_init__(self):
        if not (0 <= self.p <= 1 and 0 <= self.q <= 1):
            raise ParameterError(f"transition probabilities must be in [0,1]: p={self.p}, q={self.q}")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ParameterError("packet rates must be >= 0")
        if not self.delta_t > 0:
            raise ParameterError(f"slot length must be > 0, got {self.delta_t}")


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


def mmpp_packet_stream(
    params: MmppParams,
    horizon_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Packet arrival times in [0, horizon), strictly increasing, as float64.

    The start state is drawn from the stationary distribution, so the stream
    starts in steady state.
    """
    if not horizon_s > 0:
        raise ParameterError(f"horizon must be > 0, got {horizon_s}")
    p, q = params.p, params.q
    rates = {1: params.lambda1, 2: params.lambda2}
    switch = {1: p, 2: q}
    if p + q == 0:
        state = 1
    else:
        pi1, _, _ = mmpp_stationary(params)
        state = 1 if rng.random() < pi1 else 2

    n_slots_total = int(np.ceil(horizon_s / params.delta_t))
    chunks = []
    t_slot = 0  # current position, in whole slots
    while t_slot < n_slots_total:
        pr = switch[state]
        # dwell in the current state, in slots (geometric, support >= 1)
        dwell = int(rng.geometric(pr)) if pr > 0 else n_slots_total - t_slot
        dwell = min(dwell, n_slots_total - t_slot)
        lam = rates[state]
        seg_len = dwell * params.delta_t
        if lam > 0:
            n_pkt = rng.poisson(lam * seg_len)
            if n_pkt:
                times = t_slot * params.delta_t + np.sort(rng.random(n_pkt)) * seg_len
                chunks.append(times)
        t_slot += dwell
        state = 2 if state == 1 else 1

    if not chunks:
        return np.empty(0)
    out = np.concatenate(chunks)
    out = out[out < horizon_s]
    # enforce strictly increasing times (float ties are astronomically rare,
    # but downstream event ordering assumes strictness)
    for i in np.flatnonzero(np.diff(out) <= 0):
        out[i + 1] = np.nextafter(out[i], np.inf)
    return out
