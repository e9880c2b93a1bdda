"""Estimators and theory-vs-simulation comparison helpers."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import stdtrit

from ..errors import ParameterError
from ..workload import ProcedureRates, aggregate_rates


def batch_means(samples, n_batches: int = 20):
    """(mean, 95% CI half-width, batches used) from correlated output samples.

    Splits the series into equal batches and treats batch averages as
    approximately independent; the half-width uses the Student t quantile.
    """
    x = np.asarray(samples, dtype=float)
    if n_batches < 2:
        raise ParameterError(f"need at least 2 batches, got {n_batches}")
    if len(x) < 2 * n_batches:
        raise ParameterError(
            f"need at least {2*n_batches} samples for {n_batches} batches, got {len(x)}"
        )
    usable = (len(x) // n_batches) * n_batches
    means = x[:usable].reshape(n_batches, -1).mean(axis=1)
    grand = float(means.mean())
    se = float(means.std(ddof=1)) / math.sqrt(n_batches)
    tq = float(stdtrit(n_batches - 1, 0.975))
    return grand, tq * se, n_batches


def measured_rates(trace, n_u: int, n_d: int, horizon_s: float) -> ProcedureRates:
    """Empirical per-device and aggregate rates from a trigger trace."""
    if horizon_s <= 0:
        raise ParameterError(f"horizon must be > 0, got {horizon_s}")
    c = trace.counts()

    def per(count, n):
        return count / (n * horizon_s) if n > 0 else 0.0

    per_ue = (per(c["UE_SR"], n_u), per(c["UE_SRR"], n_u), per(c["UE_HR"], n_u))
    per_mtcd = (per(c["MTCD_SR"], n_d), per(c["MTCD_SRR"], n_d))
    return aggregate_rates(per_ue, per_mtcd, n_u, n_d)


def rmse(theory, observed) -> float:
    a = np.asarray(theory, dtype=float)
    b = np.asarray(observed, dtype=float)
    if a.shape != b.shape:
        raise ParameterError(f"grid mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def compare(theory: dict, observed: dict) -> dict:
    """Per-quantity RMSE between two dicts of equally shaped sweeps."""
    if set(theory) != set(observed):
        raise ParameterError(
            f"quantity mismatch: {sorted(theory)} vs {sorted(observed)}"
        )
    return {key: rmse(theory[key], observed[key]) for key in sorted(theory)}
