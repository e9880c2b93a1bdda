"""Random-variate generation and analytic moments for the traffic-model laws.

Every law is a small frozen dataclass, one class per kind, on the base
:class:`Dist`. Its fields are the law's parameters, checked when it is built,
and it carries its own mean, draw, tail and E[min(X, t)] formulas; the module
functions below call into it. Sampling of the truncated laws uses inverse-CDF
restricted to the quantile range [F(lo), F(hi)], so draws are exact and cost
one uniform each; each truncated law computes that range once, when it is
built. `tail_prob` and `expected_truncated` are closed-form for all kinds.
The normal CDF comes from `math.erfc` and its quantile from Wichura's AS241,
so the module needs no SciPy.
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


QUANTILE_BLOCK = 1 << 14  # draws per quantile evaluation, 128 KB per temporary


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

    def _mean(self):
        return self._partial(self.hi)

    def _draw(self, rng, n):
        u = rng.random(n)
        u *= self._fhi - self._flo
        u += self._flo
        # The quantile's temporaries are block-sized: full-size ones come as
        # fresh pages from malloc on every call, which cost more than the math.
        for lo in range(0, n, QUANTILE_BLOCK):
            block = u[lo:lo + QUANTILE_BLOCK]
            block[:] = self._quantile(block)
        return np.minimum(np.maximum(u, self.lo, out=u), self.hi, out=u)  # np.clip, cheaper

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


_SQRT1_2 = 0.70710678118654752440

# Wichura's AS241 (Applied Statistics 37, 1988), the rational functions behind
# statistics.NormalDist.inv_cdf, highest power first with the denominators'
# trailing 1.0 left out: the central one in r = 0.180625 - q^2 for
# |q| = |p - 1/2| <= 0.425, the tail ones in s = sqrt(-log(min(p, 1 - p)))
# shifted by 1.6 for s <= 5 and by 5 beyond
_CENTRAL = ((2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
             4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
             1.3314166789178437745e2, 3.3871328727963666080e0),
            (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
             2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
             4.2313330701600911252e1))
_NEAR = ((7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
          1.2704582524523683826e0, 3.6478483247632045981e0, 5.7694972214606914055e0,
          4.6303378461565452959e0, 1.4234371107496835773e0),
         (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
          1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
          2.0531916266377588219e0))
_FAR = ((2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
         2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
         5.4637849111641143699e0, 6.6579046435011037772e0),
        (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
         7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
         5.9983220655588793769e-1))


def _ndtr(a: float) -> float:
    """Standard normal CDF of a scalar (NaN for NaN)."""
    return 0.5 * math.erfc(-a * _SQRT1_2)


def _rational(r: np.ndarray, coef) -> np.ndarray:
    """num(r) / den(r) for one of the AS241 pairs, by in-place Horner steps."""
    num, den = (c[0] * r for c in coef)
    for c in coef[0][1:-1]:
        num += c
        num *= r
    num += coef[0][-1]
    for c in coef[1][1:]:
        den += c
        den *= r
    den += 1.0
    num /= den
    return num


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of an array by AS241: -inf at 0, +inf at 1."""
    # each full-size temporary costs fresh pages, so r is built in place
    q = p - 0.5
    r = q * q
    np.subtract(0.180625, r, out=r)
    x = _rational(r, _CENTRAL)
    x *= q
    tail = np.flatnonzero(r < 0.0)  # |q| > 0.425
    if tail.size:
        pt = p[tail]
        with np.errstate(divide="ignore"):  # log(0) at p = 0 and p = 1
            s = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        xt = np.full_like(s, np.inf)
        near, far = s <= 5.0, (s > 5.0) & (s < np.inf)
        xt[near] = _rational(s[near] - 1.6, _NEAR)
        xt[far] = _rational(s[far] - 5.0, _FAR)
        x[tail] = np.copysign(xt, q[tail])
    return x


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
        return _ndtr((math.log(x) - self.mu) / self.sigma)

    def _quantile(self, u):
        return np.exp(self.mu + self.sigma * _ndtri(u))

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
