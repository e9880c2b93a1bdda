"""Distribution oracles and properties.

Frozen reference values were computed beforehand with an independent
high-precision script (scipy-based closed forms and brentq root finds).
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr

from vmmecap import dists
from vmmecap.config import load_config
from vmmecap.defaults import paper_defaults
from vmmecap.dists import Dist
from vmmecap.errors import ParameterError

RNG = lambda s=0: np.random.default_rng(s)

# Table-style reference laws used throughout
MAIN_OBJ = dists.trunc_lognormal(15.098, 4.390e-5, 100.0, 6e6)
EMB_OBJ = dists.trunc_lognormal(6.17, 2.36, 50.0, 2e6)
EMB_COUNT = Dist.from_dict(paper_defaults()["traffic"]["apps"][0]["model"]["n_embedded"])
HOLD = dists.gpd(-0.39, 69.33, 0.0)


class TestMeans:
    def test_trunc_lognormal_main_object(self):
        # frozen oracle: 3605604.509184314
        assert dists.mean(MAIN_OBJ) == pytest.approx(3605604.509184314, rel=1e-9)

    def test_trunc_lognormal_embedded_object(self):
        assert dists.mean(EMB_OBJ) == pytest.approx(8199.721977836578, rel=1e-9)

    def test_trunc_pareto_embedded_count(self):
        assert dists.mean(EMB_COUNT) == pytest.approx(22.0, rel=1e-9)

    def test_default_embedded_count_mean(self):
        # the law is given only by shape 1.1 and mean 22 (hi fixed at 550);
        # the defaults hold the solved lower bound as a literal
        law = load_config().mix.apps[0].model.n_embedded
        assert (law.shape, law.hi) == (1.1, 550.0)
        assert dists.mean(law) == pytest.approx(22.0, rel=1e-12)

    def test_gpd_mean(self):
        assert dists.mean(HOLD) == pytest.approx(69.33 / 1.39, rel=1e-12)

    def test_geometric_means(self):
        assert dists.mean(dists.geometric_count(0.6)) == pytest.approx(2.5)
        # p honored; the implied mean is 9.346, not the rounded 9.312
        assert dists.mean(dists.geometric_count(0.893)) == pytest.approx(1 / 0.107)

    def test_simple_means(self):
        assert dists.mean(dists.exponential(30.0)) == 30.0
        assert dists.mean(dists.uniform(0.0, 4.2)) == pytest.approx(2.1)
        assert dists.mean(dists.constant(1.5e6)) == 1.5e6


class TestTailProb:
    def test_exponential(self):
        assert dists.tail_prob(dists.exponential(30.0), 10.0) == pytest.approx(
            math.exp(-1 / 3), rel=1e-12)

    def test_at_zero_is_one(self):
        for d in (MAIN_OBJ, EMB_OBJ, EMB_COUNT, HOLD, dists.exponential(2.0),
                  dists.uniform(1.0, 2.0), dists.constant(5.0)):
            assert dists.tail_prob(d, 0.0) == 1.0

    def test_constant(self):
        assert dists.tail_prob(dists.constant(5.0), 10.0) == 0.0
        assert dists.tail_prob(dists.constant(5.0), 4.0) == 1.0

    def test_gpd_bounded_support(self):
        # shape < 0 -> support ends at s/(-k)
        edge = 69.33 / 0.39
        assert dists.tail_prob(HOLD, edge + 1.0) == 0.0
        assert dists.tail_prob(HOLD, edge - 1.0) > 0.0

    def test_geometric_floor(self):
        d = dists.geometric_count(0.6)
        assert dists.tail_prob(d, 0.5) == 1.0  # N >= 1 always
        assert dists.tail_prob(d, 1.0) == pytest.approx(0.6)
        assert dists.tail_prob(d, 2.7) == pytest.approx(0.36)

    def test_non_increasing(self):
        grid = np.linspace(0.0, 600.0, 200)
        for d in (MAIN_OBJ, EMB_COUNT, HOLD, dists.exponential(30.0),
                  dists.uniform(1.0, 9.0), dists.geometric_count(0.893)):
            vals = [dists.tail_prob(d, t) for t in grid]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 1.0 for v in vals)


class TestExpectedTruncated:
    def test_exponential_closed_form(self):
        assert dists.expected_truncated(dists.exponential(30.0), 10.0) == pytest.approx(
            30.0 * (1 - math.exp(-1 / 3)), rel=1e-12)

    def test_trivial(self):
        assert dists.expected_truncated(dists.constant(5.0), 10.0) == 5.0
        assert dists.expected_truncated(MAIN_OBJ, 0.0) == 0.0

    def test_converges_to_mean(self):
        d = dists.exponential(7.0)
        assert dists.expected_truncated(d, 50 * 7.0) == pytest.approx(7.0, rel=1e-6)

    def test_monotone_and_bounded(self):
        for d in (MAIN_OBJ, EMB_OBJ, EMB_COUNT, HOLD, dists.exponential(30.0),
                  dists.uniform(2.0, 9.0), dists.geometric_count(0.6)):
            mu = dists.mean(d)
            grid = np.linspace(0.0, 3.0 * mu, 50)
            vals = [dists.expected_truncated(d, t) for t in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            for t, v in zip(grid, vals):
                assert v <= min(mu, t) + 1e-9 * max(mu, 1.0)

    def test_matches_numeric_survival_integral(self):
        # E[min(X,t)] equals the integral of the tail from 0 to t
        for d in (EMB_OBJ, EMB_COUNT, HOLD, dists.uniform(2.0, 9.0)):
            t_cap = 1.7 * dists.mean(d)
            grid = np.linspace(0.0, t_cap, 20001)
            tail = np.array([dists.tail_prob(d, t) for t in grid])
            numeric = np.trapezoid(tail, grid)
            assert dists.expected_truncated(d, t_cap) == pytest.approx(numeric, rel=2e-4)


class TestSampling:
    N = 10**6

    def _check_mean(self, d, rel_slack=0.0):
        x = dists.sample(d, RNG(1234), size=self.N)
        mu = dists.mean(d)
        se = x.std(ddof=1) / math.sqrt(self.N)
        assert abs(x.mean() - mu) <= 3 * se + rel_slack * mu

    def test_sample_means_match_analytic(self):
        for d in (dists.exponential(30.0), dists.uniform(0.0, 4.2),
                  dists.geometric_count(0.6), dists.geometric_count(0.893),
                  HOLD, EMB_OBJ, EMB_COUNT):
            self._check_mean(d)

    def test_near_degenerate_lognormal(self):
        # sigma ~ 0: every sample is essentially e^mu
        x = dists.sample(MAIN_OBJ, RNG(7), size=1000)
        assert np.allclose(x, math.exp(15.098), rtol=1e-3)

    def test_constant(self):
        assert dists.sample(dists.constant(1.5e6), RNG(0)) == 1.5e6

    def test_truncation_respected(self):
        for d in (MAIN_OBJ, EMB_OBJ, EMB_COUNT):
            x = dists.sample(d, RNG(5), size=20000)
            assert x.min() >= d.lo - 1e-9
            assert x.max() <= d.hi + 1e-9

    def test_geometric_integers_ge_one(self):
        x = dists.sample(dists.geometric_count(0.893), RNG(2), size=20000)
        assert np.all(x >= 1)
        assert np.all(x == np.round(x))

    def test_gpd_within_support(self):
        x = dists.sample(HOLD, RNG(3), size=20000)
        assert x.min() >= 0.0
        assert x.max() <= 69.33 / 0.39

    def test_reproducible(self):
        a = dists.sample(EMB_OBJ, RNG(99), size=100)
        b = dists.sample(EMB_OBJ, RNG(99), size=100)
        assert np.array_equal(a, b)

    def test_empirical_tail_matches_closed_form(self):
        for d in (EMB_COUNT, HOLD, dists.uniform(1.0, 9.0)):
            x = dists.sample(d, RNG(11), size=200000)
            for t in (0.3 * dists.mean(d), dists.mean(d)):
                emp = float(np.mean(x > t))
                assert emp == pytest.approx(dists.tail_prob(d, t), abs=5e-3)


class TestGpdEdges:
    @pytest.mark.parametrize("k", [1e-12, -1e-9, 1e-7, -1e-5])
    def test_near_zero_shape(self, k):
        # second-order expansions in k of the tail, E[min(X, z)] and the
        # quantile at scale 1, each exact to O(k^2) here
        d = dists.gpd(k, 1.0)
        z = 1.5
        assert dists.tail_prob(d, z) == pytest.approx(math.exp(-z + k * z * z / 2), rel=1e-9)
        emin = 1 - math.exp(-z) + k / 2 * (2 - math.exp(-z) * (z * z + 2 * z + 2))
        assert dists.expected_truncated(d, z) == pytest.approx(emin, rel=1e-9)
        log_s = np.log1p(-RNG(4).random(64))  # log survival of each draw
        want = -log_s + k * log_s**2 / 2
        assert np.allclose(dists.sample(d, RNG(4), size=64), want, rtol=1e-7, atol=0)

    def test_truncated_mean_past_bounded_support(self):
        # z clamped to the end s/(-k) rounds 1 + k z/s just below 0
        d = dists.gpd(-1.3677775441368198, 56.098050164504585, 1.9750067041033992)
        got = dists.expected_truncated(d, 100.0)
        assert type(got) is float and got == dists.mean(d)


class TestTruncatedBounds:
    """A truncated Pareto keeps its mass on [lo, hi] from its construction;
    its draws must be bit-identical to the inverse-CDF formula that
    recomputed it per draw, over the whole array at once, also when the draw
    spans several of the formula's blocks."""

    SIZES = (64, 2 * dists.SAMPLE_BLOCK + 3)

    def test_trunc_pareto_block(self):
        for d in (EMB_COUNT, dists.trunc_pareto(2.5, 1.0, 40.0)):
            a, lo, hi = d.shape, d.lo, d.hi
            for n in self.SIZES:
                u = RNG(22).random(n) * (1.0 - (lo / hi) ** a)
                want = np.clip(lo * (1.0 - u) ** (-1.0 / a), lo, hi)
                assert np.array_equal(dists.sample(d, RNG(22), size=n), want)
            assert dists.sample(d, RNG(22)) == want[0]


def _log_scale_law(mu, sigma, a, b):
    """The truncated lognormal whose log is N(mu, sigma^2) on [mu + sigma a, mu + sigma b]."""
    return dists.trunc_lognormal(mu, sigma, math.exp(mu + sigma * a), math.exp(mu + sigma * b))


class _CountingRng:
    """A Generator that counts the variates its proposal methods return."""

    PROPOSALS = ("standard_normal", "uniform", "standard_exponential")

    def __init__(self, seed):
        self.rng, self.proposals = RNG(seed), 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)
        if name not in self.PROPOSALS:
            return method

        def counted(*args, **kwargs):
            x = method(*args, **kwargs)
            self.proposals += np.size(x)
            return x
        return counted


class TestTruncLognormalSampler:
    """The rejection sampler of a truncated lognormal, on the default laws
    (normal proposals) and on laws that reach each other proposal."""

    LAWS = {
        "main_object": (MAIN_OBJ, "normal"),
        "embedded_object": (EMB_OBJ, "normal"),
        "video_duration": (dists.trunc_lognormal(5.102108, 0.7, 1e-3, 1e6), "normal"),
        "far_upper_tail": (_log_scale_law(1.0, 0.5, 8.0, math.inf), "exponential"),
        "far_lower_tail": (_log_scale_law(1.0, 0.5, -40.0, -6.0), "exponential"),
        "narrow_far_out": (_log_scale_law(2.0, 1.5, 6.0, 6.05), "uniform"),
        "narrow_at_mode": (_log_scale_law(-1.0, 2.0, -0.05, 0.05), "uniform"),
        "no_upper_bound": (_log_scale_law(0.0, 1.0, 0.5, math.inf), "exponential"),
    }
    N = 50_000

    @pytest.fixture(params=sorted(LAWS))
    def law(self, request):
        d, proposal = self.LAWS[request.param]
        assert d._rule[1] == proposal
        return d

    def test_log_matches_truncnorm(self, law):
        x = dists.sample(law, RNG(41), size=self.N)
        a, b = law._z(law.lo), law._z(law.hi)
        assert stats.kstest((np.log(x) - law.mu) / law.sigma,
                            stats.truncnorm(a, b).cdf).pvalue > 1e-3

    def test_within_bounds(self, law):
        x = dists.sample(law, RNG(42), size=self.N)
        assert law.lo <= x.min() and x.max() <= law.hi

    def test_block_mean_within_four_standard_errors(self, law):
        x = dists.sample(law, RNG(43), size=self.N)
        se = x.std(ddof=1) / math.sqrt(self.N)
        assert abs(x.mean() - dists.mean(law)) <= 4 * se + 1e-12 * dists.mean(law)

    @pytest.mark.parametrize("n", [1000, 3 * dists.SAMPLE_BLOCK + 1])
    def test_few_proposals_per_draw(self, law, n):
        rng = _CountingRng(44)
        assert dists.sample(law, rng, size=n).size == n
        assert rng.proposals <= 4 * n

    def test_tail_against_truncnorm(self, law):
        # a tail far above the mean keeps its mass: it is not 1 - 1
        a, b = law._z(law.lo), law._z(law.hi)
        for z in np.linspace(max(a, -9.0), min(b, 12.0), 7)[1:-1]:
            t = math.exp(law.mu + law.sigma * z)
            assert dists.tail_prob(law, t) == pytest.approx(
                stats.truncnorm(a, b).sf(law._z(t)), rel=1e-9)


class TestNormalCdf:
    """`_ndtr` (from math.erfc) within a relative 1e-12 of scipy.special.ndtr
    wherever the CDF is a normal double, and equal at the special values.
    Below that, ndtr cuts to 0 from a = -37.7 on and erfc keeps subnormals."""

    @staticmethod
    def assert_close(a):
        want = ndtr(a)
        got = np.array([dists._ndtr(float(x)) for x in a])
        normal = want >= 2.2e-308
        assert np.all(np.abs(got - want)[normal] <= 1e-12 * want[normal])

    def test_close_to_scipy_on_a_grid(self):
        rng = RNG(31)
        self.assert_close(np.concatenate([rng.normal(0.0, 3.0, 50_000),
                                          rng.uniform(-40.0, 40.0, 50_000),
                                          rng.uniform(-1.5, 1.5, 20_000)]))

    # the body, the far tail and the last normal doubles
    @pytest.mark.parametrize("edge", [1.0, math.sqrt(2), 8 * math.sqrt(2), 37.5, 38.5])
    def test_branch_edges(self, edge):
        for a in (edge, -edge):
            self.assert_close(np.array([np.nextafter(a, -np.inf), a, np.nextafter(a, np.inf)]))

    @pytest.mark.parametrize("a", [0.0, -0.0, math.inf, -math.inf])
    def test_special_values(self, a):
        assert dists._ndtr(a) == ndtr(a)

    def test_nan(self):
        assert math.isnan(dists._ndtr(math.nan))


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ParameterError):
            dists.exponential(0.0)
        with pytest.raises(ParameterError):
            dists.uniform(5.0, 5.0)
        with pytest.raises(ParameterError):
            dists.trunc_lognormal(1.0, -1.0, 1.0, 2.0)
        with pytest.raises(ParameterError):
            dists.trunc_pareto(1.1, 10.0, 5.0)
        with pytest.raises(ParameterError):
            dists.geometric_count(1.0)
        with pytest.raises(ParameterError):
            dists.gpd(1.5, 2.0)  # infinite mean
        with pytest.raises(ParameterError):
            dists.constant(-1.0)
        with pytest.raises(ParameterError):
            Dist.from_dict({"kind": "nonsense"})

    def test_from_dict_round_trip(self):
        d = Dist.from_dict({"kind": "uniform", "lo": 1.0, "hi": 2.0})
        assert (d.kind, d.lo, d.hi) == ("uniform", 1.0, 2.0)
        assert d == dists.uniform(1.0, 2.0)
        # an int is a number: YAML reads `lo: 0` as one
        assert Dist.from_dict({"kind": "uniform", "lo": 0, "hi": 4}) == dists.uniform(0.0, 4.0)
        with pytest.raises(ParameterError):
            Dist.from_dict({"lo": 1.0, "hi": 2.0})

    def test_from_dict_parameter_names_checked(self):
        with pytest.raises(ParameterError, match="hi"):
            Dist.from_dict({"kind": "uniform", "lo": 1.0})  # missing
        with pytest.raises(ParameterError, match="location"):
            Dist.from_dict({"kind": "gpd", "shape": 0.1, "scale": 2.0, "location": 1.0})

    @pytest.mark.parametrize("spec, name", [
        ({"kind": "constant", "value": True}, "value"),
        ({"kind": "uniform", "lo": 0, "hi": "x"}, "hi"),
        ({"kind": "gpd", "shape": 0.1, "scale": 2.0, "loc": None}, "loc"),
        ({"kind": "exponential", "mean": [1.0]}, "mean"),
    ])
    def test_from_dict_parameters_are_numbers(self, spec, name):
        with pytest.raises(ParameterError, match=rf"^{name} must be a number, got ") as e:
            Dist.from_dict(spec)
        assert e.value.field == name

    def test_truncation_without_mass_rejected(self):
        # F(lo) = F(hi) = 0 in double precision: e^8 lies 160 sigmas above hi
        with pytest.raises(ParameterError, match="no probability mass"):
            dists.trunc_lognormal(mu=8, sigma=0.05, lo=1, hi=100)
        # (lo/hi)^shape rounds to 1, so F(hi) = 0
        with pytest.raises(ParameterError, match="no probability mass"):
            dists.trunc_pareto(1e-17, 1.0, 2.0)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# Random laws of each kind. The lognormal's lower bound lies from -3 to 8
# sigmas from mu and its width is 0.05 to 4 sigmas, so [lo, hi] always has
# mass and the sampler meets each of its proposals. Two limits serve the
# 4-SE check of a sample mean, which estimates the SE from the sample: the
# GPD shape stays below 1/3, so the third moment is finite, and a geometric
# count continues with p = 0 or p >= 1e-3, so a 1e5 block sees counts above 1.
LAWS = {
    "exponential": st.builds(dists.exponential, _floats(1e-2, 1e3)),
    "uniform": st.builds(lambda lo, w: dists.uniform(lo, lo + w),
                         _floats(0.0, 100.0), _floats(1e-2, 100.0)),
    "trunc_lognormal": st.builds(
        lambda mu, s, z, w: dists.trunc_lognormal(
            mu, s, math.exp(mu + s * z), math.exp(mu + s * (z + w))),
        _floats(-2.0, 8.0), _floats(0.1, 2.0), _floats(-3.0, 8.0), _floats(0.05, 4.0)),
    "trunc_pareto": st.builds(lambda a, lo, r: dists.trunc_pareto(a, lo, lo * r),
                              st.one_of(st.just(1.0), _floats(0.2, 3.0)),
                              _floats(0.1, 10.0), _floats(1.5, 1000.0)),
    "geometric_count": st.builds(dists.geometric_count,
                                 st.one_of(st.just(0.0), _floats(1e-3, 0.95))),
    "gpd": st.builds(dists.gpd, st.one_of(st.just(0.0), _floats(-1.5, 0.3)),
                     _floats(0.1, 100.0), _floats(0.0, 10.0)),
    "constant": st.builds(dists.constant, _floats(0.0, 100.0)),
}
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def _kinks(d):
    """Points where E[min(X, t)] has no derivative (besides the integers of a count)."""
    pts = [getattr(d, name) for name in ("lo", "hi", "value", "loc") if hasattr(d, name)]
    if d.kind == "gpd" and d.shape < 0:
        pts.append(d.loc + d.scale / -d.shape)  # end of the bounded support
    return pts


@pytest.mark.parametrize("kind", sorted(LAWS))
class TestProperties:
    @PROPERTY
    @given(data=st.data())
    def test_slope_of_truncated_mean_is_tail(self, kind, data):
        d = data.draw(LAWS[kind])
        scale = max(dists.mean(d), 1e-3)
        t = scale * data.draw(_floats(0.01, 3.0))
        h = 1e-6 * scale
        assume(all(abs(t - k) > 100 * h for k in _kinks(d)))
        if kind == "geometric_count":
            assume(abs(t - round(t)) > 100 * h)
        slope = (dists.expected_truncated(d, t + h) - dists.expected_truncated(d, t - h)) / (2 * h)
        assert slope == pytest.approx(dists.tail_prob(d, t), abs=1e-5)

    @PROPERTY
    @given(data=st.data())
    def test_tail_bounded_and_non_increasing(self, kind, data):
        d = data.draw(LAWS[kind])
        scale = max(dists.mean(d), 1e-3)
        t = st.one_of(_floats(-scale, 5.0 * scale), st.sampled_from(_kinks(d) or [0.0]))
        t1, t2 = sorted((data.draw(t), data.draw(t)))
        assert 0.0 <= dists.tail_prob(d, t2) <= dists.tail_prob(d, t1) <= 1.0

    @settings(PROPERTY, max_examples=15)
    @given(data=st.data())
    def test_block_mean_within_four_standard_errors(self, kind, data):
        d = data.draw(LAWS[kind])
        n = 10**5
        x = dists.sample(d, RNG(data.draw(st.integers(0, 2**32 - 1))), size=n)
        mu = dists.mean(d)
        se = x.std(ddof=1) / math.sqrt(n)
        # the 1e-12 is float summation error, for laws with no variance
        assert abs(x.mean() - mu) <= 4 * se + 1e-12 * abs(mu)

    @PROPERTY
    @given(data=st.data())
    def test_from_dict_of_own_fields(self, kind, data):
        d = data.draw(LAWS[kind])
        spec = {"kind": d.kind, **{f.name: getattr(d, f.name) for f in fields(d)}}
        assert Dist.from_dict(spec) == d
