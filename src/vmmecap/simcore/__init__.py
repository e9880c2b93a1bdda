"""Discrete-event validation layer: trigger generation, queue simulation, stats."""

from .queuesim import SimStats, run_queue_sim
from .stats import batch_means, measured_rates, rmse
from .triggers import TriggerTrace, generate_triggers, poisson_triggers

__all__ = [
    "SimStats",
    "TriggerTrace",
    "batch_means",
    "generate_triggers",
    "measured_rates",
    "poisson_triggers",
    "rmse",
    "run_queue_sim",
]
