"""Random-variate generation and analytic moments for the traffic-model laws.

Every law is a small frozen dataclass, one class per kind, on the base
:class:`Dist`. Its fields are the law's parameters, checked when it is built,
and it carries its own mean, draw, tail and E[min(X, t)] formulas; the module
functions below call into it. A truncated law computes its mass on [lo, hi]
once, when it is built. A truncated Pareto is drawn by its inverse CDF, at one
uniform a draw; a truncated lognormal draws its log, a truncated normal, by
exact rejection from the proposal that accepts most for its interval
(`_rejection_rule`), at most a few proposals a draw. Both work in blocks of
SAMPLE_BLOCK variates. `tail_prob` and `expected_truncated` are closed-form
for all kinds. The normal CDF comes from `math.erfc`, so the module needs no
SciPy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import ClassVar, Mapping

import numpy as np

from .errors import FieldError, ParameterError


class Dist:
    """Base of the laws; `kind` names a law in configuration files.

    Units (seconds, bytes, counts, bit/s) are carried by the calling context.
    """

    kind: ClassVar[str]

    @staticmethod
    def from_dict(d: Mapping) -> "Dist":
        if not isinstance(d, Mapping):
            raise ParameterError(f"distribution spec must be a mapping, got {d!r}")
        d = dict(d)
        try:
            kind = d.pop("kind")
        except KeyError:
            raise ParameterError(f"distribution spec missing 'kind': {d!r}")
        if kind not in _BY_KIND:
            raise ParameterError(f"unknown distribution kind {kind!r}")
        cls = _BY_KIND[kind]
        for f in fields(cls):  # each parameter given is a number; a missing one fails below
            v = d.get(f.name, 0.0)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise FieldError(f.name, "a number", v)
        try:
            return cls(**d)
        except TypeError as e:  # an unknown or missing parameter name
            raise ParameterError(f"{kind} spec: {e}") from None


@dataclass(frozen=True)
class Exponential(Dist):
    kind = "exponential"
    mean: float

    def __post_init__(self):
        if not self.mean > 0:
            raise ParameterError(f"exponential mean must be > 0, got {self.mean}")

    def _mean(self):
        return self.mean

    def _draw(self, rng, n):
        return rng.exponential(self.mean, n)

    def _tail(self, t):
        return math.exp(-t / self.mean)

    def _emin(self, t):
        return self.mean * (1.0 - math.exp(-t / self.mean))


@dataclass(frozen=True)
class Uniform(Dist):
    kind = "uniform"
    lo: float
    hi: float

    def __post_init__(self):
        if not (0 <= self.lo < self.hi):
            raise ParameterError(f"uniform needs 0 <= lo < hi, got {self.lo}, {self.hi}")

    def _mean(self):
        return 0.5 * (self.lo + self.hi)

    def _draw(self, rng, n):
        return rng.uniform(self.lo, self.hi, n)

    def _tail(self, t):
        lo, hi = self.lo, self.hi
        return min(1.0, max(0.0, (hi - t) / (hi - lo))) if t > lo else 1.0

    def _emin(self, t):
        lo, hi = self.lo, self.hi
        if t <= lo:
            return t
        if t >= hi:
            return self._mean()
        # integral of the survival function piecewise
        return lo + (t - lo) - 0.5 * (t - lo) ** 2 / (hi - lo)


@dataclass(frozen=True)
class Constant(Dist):
    kind = "constant"
    value: float

    def __post_init__(self):
        if not self.value >= 0:
            raise ParameterError(f"constant must be >= 0, got {self.value}")

    def _mean(self):
        return self.value

    def _draw(self, rng, n):
        return np.full(n, self.value)

    def _tail(self, t):
        return 1.0 if t < self.value else 0.0

    def _emin(self, t):
        return min(self.value, t)


@dataclass(frozen=True)
class GeometricCount(Dist):
    """Count on {1, 2, ...} with P(N=n) = (1-p)*p^(n-1); mean 1/(1-p)."""

    kind = "geometric_count"
    p_continue: float

    def __post_init__(self):
        if not (0 <= self.p_continue < 1):
            raise ParameterError(f"p_continue must be in [0, 1), got {self.p_continue}")

    def _mean(self):
        return 1.0 / (1.0 - self.p_continue)

    def _draw(self, rng, n):
        pc = self.p_continue
        if pc == 0.0:
            return np.ones(n)
        u = rng.random(n)
        return np.maximum(np.ceil(np.log1p(-u) / math.log(pc)), 1.0)

    def _tail(self, t):
        return self.p_continue ** math.floor(t)

    def _emin(self, t):
        pc = self.p_continue
        j = math.floor(t)
        whole = (1.0 - pc**j) / (1.0 - pc)
        return whole + (t - j) * pc**j


# Below this |shape| the GPD's powers (1 + k z) ** (c / k) lose about eps/|k|
# of their precision, so they are taken through log1p and expm1 instead.
_SMALL_SHAPE = 1e-4


@dataclass(frozen=True)
class Gpd(Dist):
    """Generalized Pareto (shape k, scale s, location m); bounded support for k<0."""

    kind = "gpd"
    shape: float
    scale: float
    loc: float = 0.0

    def __post_init__(self):
        if not self.scale > 0:
            raise ParameterError(f"gpd scale must be > 0, got {self.scale}")
        if not self.loc >= 0:
            raise ParameterError(f"gpd location must be >= 0, got {self.loc}")
        if not self.shape < 1:
            raise ParameterError(f"gpd shape must be < 1 for a finite mean, got {self.shape}")

    def _mean(self):
        return self.loc + self.scale / (1.0 - self.shape)

    def _draw(self, rng, n):
        k, s, m = self.shape, self.scale, self.loc
        u = rng.random(n)
        if abs(k) < 1e-12:
            return m + s * (-np.log1p(-u))
        if abs(k) < _SMALL_SHAPE:
            return m + s / k * np.expm1(-k * np.log1p(-u))
        return m + s / k * ((1.0 - u) ** (-k) - 1.0)

    def _tail(self, t):
        k, s, m = self.shape, self.scale, self.loc
        if t <= m:
            return 1.0
        z = (t - m) / s
        if abs(k) < 1e-12:
            return math.exp(-z)
        base = 1.0 + k * z
        if base <= 0:
            return 0.0  # beyond the bounded support (k < 0)
        if abs(k) < _SMALL_SHAPE:
            return math.exp(-math.log1p(k * z) / k)
        return base ** (-1.0 / k)

    def _emin(self, t):
        k, s, m = self.shape, self.scale, self.loc
        if t <= m:
            return t
        z = t - m
        if abs(k) < 1e-12:
            return m + s * (1.0 - math.exp(-z / s))
        if k < 0:
            z = min(z, s / (-k))
        base = 1.0 + k * z / s
        if base <= 0:
            return self._mean()  # at the end of the bounded support (k < 0)
        if abs(k) < _SMALL_SHAPE:
            return m + s / (k - 1.0) * math.expm1((k - 1.0) / k * math.log1p(k * z / s))
        return m + s / (k - 1.0) * (base ** ((k - 1.0) / k) - 1.0)


SAMPLE_BLOCK = 1 << 14  # variates per generator call or formula pass, 128 KB each


class _Truncated(Dist):
    """A parent law restricted to [lo, hi]; its mass there is computed once.

    A subclass gives `_between(x, y)`, the parent law's mass on [x, y],
    `_partial(t)`, the integral of x f(x) over [lo, t] under the truncated
    law, and its own `_draw`.
    """

    def __post_init__(self):
        if not (0 < self.lo < self.hi):
            raise ParameterError(f"truncation needs 0 < lo < hi, got {self.lo}, {self.hi}")
        mass = self._between(self.lo, self.hi)
        if not mass > 0:
            raise ParameterError(f"{self.kind} on [{self.lo}, {self.hi}] has no probability mass")
        object.__setattr__(self, "_mass", mass)

    def _mean(self):
        return self._partial(self.hi)

    def _tail(self, t):
        if t <= self.lo:
            return 1.0
        if t >= self.hi:
            return 0.0
        return self._between(t, self.hi) / self._mass

    def _emin(self, t):
        if t <= self.lo:
            return t
        if t >= self.hi:
            return self._mean()
        return t * self._tail(t) + self._partial(t)


_SQRT1_2 = 0.70710678118654752440
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _ndtr(a: float) -> float:
    """Standard normal CDF of a scalar (NaN for NaN)."""
    return 0.5 * math.erfc(-a * _SQRT1_2)


def _ndtr_between(a: float, b: float) -> float:
    """Phi(b) - Phi(a) for a <= b; from the upper tails when a > 0, so that an
    interval far above the mean keeps its mass instead of cancelling to 0."""
    if a > 0:
        return _ndtr(-a) - _ndtr(-b)
    return _ndtr(b) - _ndtr(a)


def _rejection_rule(a: float, b: float, mass: float) -> tuple:
    """(acceptance rate, proposal, a, b, c, sign) for the standard normal on [a, b].

    Of Robert's proposals (1995, Statistics and Computing 5:121-125) it picks
    the one that accepts most: the standard normal itself (rate `mass`), a
    uniform on [a, b] accepted with exp((c - z^2)/2), c the least z^2 on
    [a, b], or, for an interval in one tail, a translated exponential of
    rate c from the bound nearer 0, accepted with exp(-(z - c)^2/2). An
    interval below 0 is drawn as its mirror image, then negated (`sign`).
    """
    a, b, sign = (-b, -a, -1.0) if b < 0 else (a, b, 1.0)
    log_mass = math.log(mass)
    c = a * a if a > 0 else 0.0
    rules = [(log_mass, "normal", 0.0),
             (_LOG_SQRT_2PI + log_mass - math.log(b - a) + c / 2, "uniform", c)]
    if a > 0:
        rate = 0.5 * (a + math.sqrt(a * a + 4.0))  # Robert's optimal rate
        rules.append((_LOG_SQRT_2PI + log_mass + math.log(rate) + rate * (a - rate / 2),
                      "exponential", rate))
    log_accept, proposal, c = max(rules)
    return math.exp(log_accept), proposal, a, b, c, sign


@dataclass(frozen=True)
class TruncLognormal(_Truncated):
    """exp(mu + sigma Z) on [lo, hi]: Z standard normal on [_z(lo), _z(hi)], drawn by rejection."""

    kind = "trunc_lognormal"
    mu: float
    sigma: float
    lo: float
    hi: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ParameterError(f"lognormal sigma must be > 0, got {self.sigma}")
        super().__post_init__()
        object.__setattr__(self, "_rule", _rejection_rule(self._z(self.lo), self._z(self.hi),
                                                          self._mass))

    def _z(self, x):
        return (math.log(x) - self.mu) / self.sigma

    def _between(self, x, y):
        return _ndtr_between(self._z(x), self._z(y))

    def _partial(self, t):
        s = self.sigma
        shifted = _ndtr_between(self._z(self.lo) - s, self._z(t) - s)
        return math.exp(self.mu + 0.5 * s * s) * shifted / self._mass

    def _draw(self, rng, n):
        accept, proposal, a, b, c, sign = self._rule
        z, got = np.empty(n), 0
        while got < n:
            m = min(SAMPLE_BLOCK, math.ceil((n - got) / accept) + 16)  # 16 spare proposals
            if proposal == "normal":
                x = rng.standard_normal(m)
                ok = (x >= a) & (x <= b)
            elif proposal == "uniform":
                x = rng.uniform(a, b, m)
                ok = rng.random(m) <= np.exp(0.5 * (c - x * x))
            else:
                x = rng.standard_exponential(m) / c + a
                ok = (rng.random(m) <= np.exp(-0.5 * (x - c) ** 2)) & (x <= b)
            x = x[ok][:n - got]
            z[got:got + x.size] = x
            got += x.size
        z *= sign * self.sigma
        z += self.mu
        np.exp(z, out=z)
        return np.minimum(np.maximum(z, self.lo, out=z), self.hi, out=z)  # np.clip, cheaper


@dataclass(frozen=True)
class TruncPareto(_Truncated):
    kind = "trunc_pareto"
    shape: float
    lo: float
    hi: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ParameterError(f"pareto shape must be > 0, got {self.shape}")
        super().__post_init__()

    def _between(self, x, y):
        # unbounded Pareto with scale lo
        return (self.lo / x) ** self.shape - (self.lo / y) ** self.shape

    def _partial(self, t):
        a, lo, c = self.shape, self.lo, self._mass
        if abs(a - 1.0) < 1e-12:
            return lo / c * math.log(t / lo)
        return a * lo**a / c * (lo ** (1 - a) - t ** (1 - a)) / (a - 1.0)

    def _draw(self, rng, n):
        # the inverse CDF on [0, mass), in blocks: full-size temporaries come
        # as fresh pages from malloc on every call, which cost more than the math
        u = rng.random(n)
        u *= self._mass
        for i in range(0, n, SAMPLE_BLOCK):
            block = u[i:i + SAMPLE_BLOCK]
            block[:] = self.lo * (1.0 - block) ** (-1.0 / self.shape)
        return np.minimum(np.maximum(u, self.lo, out=u), self.hi, out=u)  # np.clip, cheaper


_BY_KIND = {c.kind: c for c in (Exponential, Uniform, TruncLognormal, TruncPareto,
                                GeometricCount, Gpd, Constant)}

# the public constructors, one per kind
exponential, uniform, constant = Exponential, Uniform, Constant
trunc_lognormal, trunc_pareto = TruncLognormal, TruncPareto
geometric_count, gpd = GeometricCount, Gpd


def mean(d: Dist) -> float:
    """Analytic mean of the law (all kinds have one in closed form)."""
    return d._mean()


def sample(d: Dist, rng: np.random.Generator, size=None):
    """Draw variates; scalar when size is None, else an ndarray."""
    return float(d._draw(rng, 1)[0]) if size is None else d._draw(rng, size)


def tail_prob(d: Dist, t: float) -> float:
    """P(X > t), closed form for every kind."""
    return 1.0 if t < 0 else d._tail(t)


def expected_truncated(d: Dist, t_cap: float) -> float:
    """E[min(X, t_cap)] = t_cap*P(X > t_cap) + integral of x f(x) up to t_cap."""
    return 0.0 if t_cap <= 0 else d._emin(t_cap)
