"""Random-variate generation and analytic moments for the traffic-model laws.

Every law is a small frozen dataclass, one class per kind, on the base
:class:`Dist`. Its fields are the law's parameters, checked when it is built,
and it carries its own mean, draw, tail and E[min(X, t)] formulas; the module
functions below call into it. Sampling of the truncated laws uses inverse-CDF
restricted to the quantile range [F(lo), F(hi)], so draws are exact and cost
one uniform each; each truncated law computes that range once, when it is
built. `tail_prob` and `expected_truncated` are closed-form for all kinds.
The normal CDF is a scalar port of Cephes `ndtr`; SciPy is imported only
by `load_ndtri`, which a truncated lognormal's draws call.
"""

from __future__ import annotations

import functools
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
        if pc == 0.0:
            return min(t, 1.0)
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


class _Truncated(Dist):
    """A parent law restricted to [lo, hi]; F(lo) and F(hi) are computed once.

    A subclass gives the parent's CDF `_cdf`, its quantile `_quantile`, and
    `_partial(t)`, the integral of x f(x) over [lo, t] under the truncated law.
    """

    def __post_init__(self):
        if not (0 < self.lo < self.hi):
            raise ParameterError(f"truncation needs 0 < lo < hi, got {self.lo}, {self.hi}")
        flo, fhi = self._cdf(self.lo), self._cdf(self.hi)
        if not fhi > flo:
            raise ParameterError(f"{self.kind} on [{self.lo}, {self.hi}] has no probability "
                                 f"mass: F(lo) = {flo}, F(hi) = {fhi}")
        object.__setattr__(self, "_flo", flo)
        object.__setattr__(self, "_fhi", fhi)

    def _draw(self, rng, n):
        u = self._flo + rng.random(n) * (self._fhi - self._flo)
        out = self._quantile(u)
        return np.minimum(np.maximum(out, self.lo, out=out), self.hi, out=out)  # np.clip, cheaper

    def _tail(self, t):
        if t <= self.lo:
            return 1.0
        if t >= self.hi:
            return 0.0
        return float((self._fhi - self._cdf(t)) / (self._fhi - self._flo))

    def _emin(self, t):
        if t <= self.lo:
            return t
        if t >= self.hi:
            return self._mean()
        return t * self._tail(t) + self._partial(t)


# Cephes ndtr.c (Moshier), the code behind scipy.special.ndtr: erf's rational
# function on |x| < 1, erfc's on [1, 8) and [8, inf), with the same
# coefficients and Horner order, so ndtr below equals SciPy's bit for bit
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_SQRT1_2 = 0.70710678118654752440


def _polevl(x, coef):
    y = coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _p1evl(x, coef):
    """_polevl with a leading coefficient of 1 left out of `coef`."""
    y = x + coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _erf(x):
    """erf(x) for |x| < 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(x):
    """erfc(x) for x >= 0."""
    if x < 1.0:
        return 1.0 - _erf(x)
    if -x * x < -_MAXLOG:
        return 0.0  # exp underflows
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _p1evl(x, _ERFC_Q)
    else:
        p, q = _polevl(x, _ERFC_R), _p1evl(x, _ERFC_S)
    return math.exp(-x * x) * p / q


def _ndtr(a: float) -> float:
    """Standard normal CDF of a scalar (NaN for NaN)."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


@functools.cache
def load_ndtri():
    """SciPy's normal quantile `ndtri`, imported on the first call: scipy.special
    costs about 0.3 s and 24 MB, and only a truncated lognormal's draws need it."""
    from scipy.special import ndtri
    return ndtri


@dataclass(frozen=True)
class TruncLognormal(_Truncated):
    kind = "trunc_lognormal"
    mu: float
    sigma: float
    lo: float
    hi: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ParameterError(f"lognormal sigma must be > 0, got {self.sigma}")
        super().__post_init__()

    def _cdf(self, x):
        # NumPy's log on an array, whose last bit can differ from math.log's;
        # F(lo) and F(hi) set every seeded draw
        return _ndtr(float((np.log(np.array([x], dtype=float))[0] - self.mu) / self.sigma))

    def _quantile(self, u):
        return np.exp(self.mu + self.sigma * load_ndtri()(u))

    def _mean(self):
        mu, s = self.mu, self.sigma
        a = (math.log(self.lo) - mu) / s
        b = (math.log(self.hi) - mu) / s
        # its own _ndtr(b) - _ndtr(a), which can differ from _fhi - _flo in the last bit
        return math.exp(mu + 0.5 * s * s) * (_ndtr(b - s) - _ndtr(a - s)) / (_ndtr(b) - _ndtr(a))

    def _partial(self, t):
        mu, s = self.mu, self.sigma
        a = (math.log(self.lo) - mu) / s
        bt = (math.log(t) - mu) / s
        return math.exp(mu + 0.5 * s * s) * (_ndtr(bt - s) - _ndtr(a - s)) / (self._fhi - self._flo)


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

    def _cdf(self, x):
        # unbounded Pareto with scale lo
        return 1.0 - (self.lo / x) ** self.shape

    def _quantile(self, u):
        return self.lo * (1.0 - u) ** (-1.0 / self.shape)

    def _mean(self):
        return self._partial(self.hi)

    def _partial(self, t):
        a, lo, c = self.shape, self.lo, self._fhi
        if abs(a - 1.0) < 1e-12:
            return lo / c * math.log(t / lo)
        return a * lo**a / c * (lo ** (1 - a) - t ** (1 - a)) / (a - 1.0)


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
