"""Estimators and theory-vs-simulation comparison helpers."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError
from ..workload import ProcedureRates, aggregate_rates


def batch_means(samples, n_batches: int = 20):
    """(mean, 95% CI half-width) from correlated output samples.

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
    return grand, _t_quantile(0.975, n_batches - 1) * se


def _t_upper(t: float, df: int) -> float:
    """P(T > t) for t >= 0 under Student's t with integer df >= 1.

    The finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4
    (even df) in theta = atan(t / sqrt(df)), summed innermost term first and
    rearranged so that P(T > t) is not taken as 1 minus a number near 1.
    The series is in cos^2 theta = df / (df + t^2), whose rounding costs
    about df/4 ulp, so the result loses precision as df grows into the
    thousands.
    """
    r = df + t * t
    c2 = df / r  # cos^2 theta
    odd = df % 2
    rest = 0.0  # the series less its leading 1
    for k in reversed(range(2 if odd else 1, df - 1 if odd else df - 2, 2)):
        rest = (1.0 + rest) * (k / (k + 1)) * c2
    if odd:  # pi P = (pi/2 - theta) - sin theta cos theta (1 + rest)
        sin_cos = t * math.sqrt(df) / r if df > 1 else 0.0
        return (math.atan2(math.sqrt(df), t) - sin_cos * (1.0 + rest)) / math.pi
    # 2 P = 1 - sin theta (1 + rest), with 1 - sin theta = cos^2 theta / (1 + sin theta)
    s = t / math.sqrt(r)
    return 0.5 * (c2 / (1.0 + s) - s * rest)


def _t_quantile(p: float, df: int) -> float:
    """Student t quantile for 1/2 < p < 1 and integer df >= 1.

    Newton steps on P(T > t) = 1 - p from t = 0. The CDF is concave on
    t >= 0, so the steps climb to the root without overshooting it.
    """
    log_c = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    t = 0.0
    for _ in range(100):
        density = math.exp(log_c - (df + 1) / 2 * math.log1p(t * t / df))
        step = (_t_upper(t, df) - (1.0 - p)) / density
        t += step
        if abs(step) <= 1e-12 * t:
            break
    return t


def measured_rates(trace, n_u: int, n_d: int, horizon_s: float) -> ProcedureRates:
    """Empirical per-device and aggregate rates from a trigger trace."""
    if not 0 < horizon_s < math.inf:
        raise ParameterError(f"horizon must be finite and > 0, got {horizon_s}")
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
