"""Random-variate generation and analytic moments for the traffic-model laws.

Every law is described by a :class:`Dist` record (kind + named parameters).
Sampling of the truncated laws uses inverse-CDF restricted to the quantile
range [F(lo), F(hi)], so draws are exact and cost one uniform each; each
truncated law computes that range once, when it is built.
`tail_prob` and `expected_truncated` are closed-form for all kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ParameterError

KINDS = (
    "exponential",
    "uniform",
    "trunc_lognormal",
    "trunc_pareto",
    "geometric_count",
    "gpd",
    "constant",
)


@dataclass(frozen=True)
class Dist:
    """One distribution specification: kind plus named parameters.

    Units (seconds, bytes, counts, bit/s) are carried by the calling context.
    """

    kind: str
    params: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        _validate(self)
        object.__setattr__(self, "_cdf_range", _cdf_range(self))

    def __getitem__(self, key: str) -> float:
        return self.params[key]

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}

    @staticmethod
    def from_dict(d: Mapping) -> "Dist":
        d = dict(d)
        try:
            kind = d.pop("kind")
        except KeyError:
            raise ParameterError(f"distribution spec missing 'kind': {d!r}")
        return Dist(kind, d)


def exponential(mean: float) -> Dist:
    return Dist("exponential", {"mean": mean})


def uniform(lo: float, hi: float) -> Dist:
    return Dist("uniform", {"lo": lo, "hi": hi})


def trunc_lognormal(mu: float, sigma: float, lo: float, hi: float) -> Dist:
    return Dist("trunc_lognormal", {"mu": mu, "sigma": sigma, "lo": lo, "hi": hi})


def trunc_pareto(shape: float, lo: float, hi: float) -> Dist:
    return Dist("trunc_pareto", {"shape": shape, "lo": lo, "hi": hi})


def geometric_count(p_continue: float) -> Dist:
    """Count on {1, 2, ...} with P(N=n) = (1-p)*p^(n-1); mean 1/(1-p)."""
    return Dist("geometric_count", {"p_continue": p_continue})


def gpd(shape: float, scale: float, loc: float = 0.0) -> Dist:
    """Generalized Pareto (shape k, scale s, location m); bounded support for k<0."""
    return Dist("gpd", {"shape": shape, "scale": scale, "loc": loc})


def constant(value: float) -> Dist:
    return Dist("constant", {"value": value})


def _validate(d: Dist) -> None:
    if d.kind not in KINDS:
        raise ParameterError(f"unknown distribution kind {d.kind!r}")
    p = d.params
    try:
        if d.kind == "exponential":
            if not p["mean"] > 0:
                raise ParameterError(f"exponential mean must be > 0, got {p['mean']}")
        elif d.kind == "uniform":
            if not (0 <= p["lo"] < p["hi"]):
                raise ParameterError(f"uniform needs 0 <= lo < hi, got {p['lo']}, {p['hi']}")
        elif d.kind == "trunc_lognormal":
            if not p["sigma"] > 0:
                raise ParameterError(f"lognormal sigma must be > 0, got {p['sigma']}")
            if not (0 < p["lo"] < p["hi"]):
                raise ParameterError(f"truncation needs 0 < lo < hi, got {p['lo']}, {p['hi']}")
        elif d.kind == "trunc_pareto":
            if not p["shape"] > 0:
                raise ParameterError(f"pareto shape must be > 0, got {p['shape']}")
            if not (0 < p["lo"] < p["hi"]):
                raise ParameterError(f"truncation needs 0 < lo < hi, got {p['lo']}, {p['hi']}")
        elif d.kind == "geometric_count":
            if not (0 <= p["p_continue"] < 1):
                raise ParameterError(f"p_continue must be in [0, 1), got {p['p_continue']}")
        elif d.kind == "gpd":
            if not p["scale"] > 0:
                raise ParameterError(f"gpd scale must be > 0, got {p['scale']}")
            if not p.get("loc", 0.0) >= 0:
                raise ParameterError(f"gpd location must be >= 0, got {p['loc']}")
            if not p["shape"] < 1:
                raise ParameterError(f"gpd shape must be < 1 for a finite mean, got {p['shape']}")
        elif d.kind == "constant":
            if not p["value"] >= 0:
                raise ParameterError(f"constant must be >= 0, got {p['value']}")
    except KeyError as e:
        raise ParameterError(f"{d.kind} spec missing parameter {e}")


# ---------------------------------------------------------------------------
# helpers for the truncated laws
# ---------------------------------------------------------------------------

def _lognorm_cdf(x, mu, sigma):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = ndtr((np.log(x[pos]) - mu) / sigma)
    return out if out.ndim else float(out)


def _pareto_cdf(x, shape, lo):
    # unbounded Pareto with scale lo
    x = np.asarray(x, dtype=float)
    return np.where(x <= lo, 0.0, 1.0 - (lo / np.maximum(x, lo)) ** shape)


def _cdf_range(d: Dist):
    """(F(lo), F(hi)) of a truncated law's untruncated parent; None for the others."""
    p = d.params
    if d.kind == "trunc_lognormal":
        mu, s = p["mu"], p["sigma"]
        return _lognorm_cdf(p["lo"], mu, s), _lognorm_cdf(p["hi"], mu, s)
    if d.kind == "trunc_pareto":
        return 0.0, 1.0 - (p["lo"] / p["hi"]) ** p["shape"]
    return None


def mean(d: Dist) -> float:
    """Analytic mean of the law (all kinds have one in closed form)."""
    p = d.params
    if d.kind == "exponential":
        return p["mean"]
    if d.kind == "uniform":
        return 0.5 * (p["lo"] + p["hi"])
    if d.kind == "constant":
        return p["value"]
    if d.kind == "geometric_count":
        return 1.0 / (1.0 - p["p_continue"])
    if d.kind == "gpd":
        return p.get("loc", 0.0) + p["scale"] / (1.0 - p["shape"])
    if d.kind == "trunc_lognormal":
        mu, s, lo, hi = p["mu"], p["sigma"], p["lo"], p["hi"]
        a = (math.log(lo) - mu) / s
        b = (math.log(hi) - mu) / s
        den = ndtr(b) - ndtr(a)
        num = ndtr(b - s) - ndtr(a - s)
        return math.exp(mu + 0.5 * s * s) * num / den
    if d.kind == "trunc_pareto":
        a, lo, hi = p["shape"], p["lo"], p["hi"]
        c = 1.0 - (lo / hi) ** a
        if abs(a - 1.0) < 1e-12:
            return lo / c * math.log(hi / lo)
        return a * lo**a / c * (lo ** (1 - a) - hi ** (1 - a)) / (a - 1.0)
    raise ParameterError(d.kind)


def sample(d: Dist, rng: np.random.Generator, size=None):
    """Draw variates; scalar when size is None, else an ndarray."""
    p = d.params
    scalar = size is None
    n = 1 if scalar else size
    if d.kind == "exponential":
        out = rng.exponential(p["mean"], n)
    elif d.kind == "uniform":
        out = rng.uniform(p["lo"], p["hi"], n)
    elif d.kind == "constant":
        out = np.full(n, p["value"])
    elif d.kind == "geometric_count":
        pc = p["p_continue"]
        if pc == 0.0:
            out = np.ones(n)
        else:
            u = rng.random(n)
            out = np.ceil(np.log1p(-u) / math.log(pc))
            out = np.maximum(out, 1.0)
    elif d.kind == "gpd":
        k, s, m = p["shape"], p["scale"], p.get("loc", 0.0)
        u = rng.random(n)
        if abs(k) < 1e-12:
            out = m + s * (-np.log1p(-u))
        else:
            out = m + s / k * ((1.0 - u) ** (-k) - 1.0)
    elif d.kind == "trunc_lognormal":
        mu, s, lo, hi = p["mu"], p["sigma"], p["lo"], p["hi"]
        flo, fhi = d._cdf_range
        u = flo + rng.random(n) * (fhi - flo)
        out = np.exp(mu + s * ndtri(u))
        out = np.minimum(np.maximum(out, lo, out=out), hi, out=out)  # np.clip, cheaper
    elif d.kind == "trunc_pareto":
        a, lo, hi = p["shape"], p["lo"], p["hi"]
        fhi = d._cdf_range[1]
        u = rng.random(n) * fhi
        out = lo * (1.0 - u) ** (-1.0 / a)
        out = np.minimum(np.maximum(out, lo, out=out), hi, out=out)  # np.clip, cheaper
    else:
        raise ParameterError(d.kind)
    return float(out[0]) if scalar else out


def tail_prob(d: Dist, t: float) -> float:
    """P(X > t), closed form for every kind."""
    if t < 0:
        return 1.0
    p = d.params
    if d.kind == "exponential":
        return math.exp(-t / p["mean"])
    if d.kind == "uniform":
        lo, hi = p["lo"], p["hi"]
        return min(1.0, max(0.0, (hi - t) / (hi - lo))) if t > lo else 1.0
    if d.kind == "constant":
        return 1.0 if t < p["value"] else 0.0
    if d.kind == "geometric_count":
        return p["p_continue"] ** math.floor(t)
    if d.kind == "gpd":
        k, s, m = p["shape"], p["scale"], p.get("loc", 0.0)
        if t <= m:
            return 1.0
        z = (t - m) / s
        if abs(k) < 1e-12:
            return math.exp(-z)
        base = 1.0 + k * z
        if base <= 0:
            return 0.0  # beyond the bounded support (k < 0)
        return base ** (-1.0 / k)
    if d.kind == "trunc_lognormal":
        mu, s, lo, hi = p["mu"], p["sigma"], p["lo"], p["hi"]
        if t <= lo:
            return 1.0
        if t >= hi:
            return 0.0
        flo, fhi = d._cdf_range
        return float((fhi - _lognorm_cdf(t, mu, s)) / (fhi - flo))
    if d.kind == "trunc_pareto":
        a, lo, hi = p["shape"], p["lo"], p["hi"]
        if t <= lo:
            return 1.0
        if t >= hi:
            return 0.0
        flo, fhi = d._cdf_range
        return float((fhi - _pareto_cdf(t, a, lo)) / (fhi - flo))
    raise ParameterError(d.kind)


def expected_truncated(d: Dist, t_cap: float) -> float:
    """E[min(X, t_cap)] = t_cap*P(X > t_cap) + integral of x f(x) up to t_cap."""
    if t_cap <= 0:
        return 0.0
    p = d.params
    if d.kind == "exponential":
        return p["mean"] * (1.0 - math.exp(-t_cap / p["mean"]))
    if d.kind == "constant":
        return min(p["value"], t_cap)
    if d.kind == "uniform":
        lo, hi = p["lo"], p["hi"]
        if t_cap <= lo:
            return t_cap
        if t_cap >= hi:
            return 0.5 * (lo + hi)
        # integral of the survival function piecewise
        return lo + (t_cap - lo) - 0.5 * (t_cap - lo) ** 2 / (hi - lo)
    if d.kind == "geometric_count":
        pc = p["p_continue"]
        j = math.floor(t_cap)
        if pc == 0.0:
            return min(t_cap, 1.0)
        whole = (1.0 - pc**j) / (1.0 - pc)
        return whole + (t_cap - j) * pc**j
    if d.kind == "gpd":
        k, s, m = p["shape"], p["scale"], p.get("loc", 0.0)
        if t_cap <= m:
            return t_cap
        z = t_cap - m
        if abs(k) < 1e-12:
            return m + s * (1.0 - math.exp(-z / s))
        if k < 0:
            z = min(z, s / (-k))
        return m + s / (k - 1.0) * ((1.0 + k * z / s) ** ((k - 1.0) / k) - 1.0)
    if d.kind == "trunc_lognormal":
        mu, s, lo, hi = p["mu"], p["sigma"], p["lo"], p["hi"]
        if t_cap <= lo:
            return t_cap
        if t_cap >= hi:
            return mean(d)
        flo, fhi = d._cdf_range
        den = fhi - flo
        a = (math.log(lo) - mu) / s
        bt = (math.log(t_cap) - mu) / s
        partial = math.exp(mu + 0.5 * s * s) * (ndtr(bt - s) - ndtr(a - s)) / den
        return t_cap * tail_prob(d, t_cap) + partial
    if d.kind == "trunc_pareto":
        a, lo, hi = p["shape"], p["lo"], p["hi"]
        if t_cap <= lo:
            return t_cap
        if t_cap >= hi:
            return mean(d)
        c = 1.0 - (lo / hi) ** a
        if abs(a - 1.0) < 1e-12:
            partial = lo / c * math.log(t_cap / lo)
        else:
            partial = a * lo**a / c * (lo ** (1 - a) - t_cap ** (1 - a)) / (a - 1.0)
        return t_cap * tail_prob(d, t_cap) + partial
    raise ParameterError(d.kind)


def solve_trunc_pareto_lo(shape: float, hi: float, target_mean: float) -> float:
    """Find the lower bound so the truncated Pareto hits a target mean.

    Used when only (mean, shape) of a truncated Pareto are known: fix the
    upper support and solve for the lower bound numerically.
    """
    from scipy.optimize import brentq

    f = lambda lo: mean(trunc_pareto(shape, lo, hi)) - target_mean
    lo_min, lo_max = hi * 1e-9, hi * (1 - 1e-9)
    if f(lo_min) > 0 or f(lo_max) < 0:
        raise ParameterError(
            f"no lower bound in (0, {hi}) gives truncated-Pareto mean {target_mean}"
        )
    return float(brentq(f, lo_min, lo_max, xtol=1e-12, rtol=1e-14))
