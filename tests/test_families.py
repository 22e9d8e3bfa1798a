"""Families: densities, scores, Fisher information, sufficiency kernels.

Score and Fisher formulas are checked against finite differences of the log
density and against empirical score variance before anything downstream
trusts them.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from clonekit import (
    Bernoulli,
    ConfigurationError,
    GaussianLocation,
    Poisson,
    chi2_cdf,
    get_family,
    stream,
)
from clonekit import families
from clonekit.gaussian import _adaptive_simpson

ALL = [
    (Bernoulli(), (0.2, 0.5, 0.8)),
    (Poisson(), (0.5, 2.0, 7.0)),
    (GaussianLocation(1.0), (-1.0, 0.0, 2.5)),
]


def chi2_gof(counts, expected):
    """Chi-square goodness-of-fit p-value with cells pooled to expected >= 5."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    order = np.argsort(expected)
    c_sorted, e_sorted = counts[order], expected[order]
    pooled_c, pooled_e = [], []
    acc_c = acc_e = 0.0
    for c, e in zip(c_sorted, e_sorted):
        acc_c += c
        acc_e += e
        if acc_e >= 5.0:
            pooled_c.append(acc_c)
            pooled_e.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0:
        pooled_c[-1] += acc_c
        pooled_e[-1] += acc_e
    stat = sum((c - e) ** 2 / e for c, e in zip(pooled_c, pooled_e))
    dof = len(pooled_c) - 1
    return 1.0 - chi2_cdf(max(dof, 1), stat)


class TestDensity:
    def test_examples(self):
        assert Bernoulli().density(0.5, 1) == pytest.approx(0.5)
        assert Poisson().density(1.0, 0) == pytest.approx(math.exp(-1))
        assert GaussianLocation(1.0).density(0.0, 0.0) == pytest.approx(
            1 / math.sqrt(2 * math.pi)
        )

    def test_outside_support_is_zero_not_error(self):
        assert Bernoulli().density(0.3, 2) == 0.0
        assert Poisson().density(1.0, -1) == 0.0
        assert Poisson().density(1.0, 2.5) == 0.0

    def test_normalization(self):
        assert Bernoulli().density(0.37, np.arange(2)).sum() == pytest.approx(1.0)
        ks = np.arange(200)
        assert Poisson().density(7.0, ks).sum() == pytest.approx(1.0, abs=1e-8)
        g = GaussianLocation(2.0)
        total = _adaptive_simpson(lambda x: g.density(0.5, x), -30, 31, 1e-10)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            Bernoulli().density(0.0, 1)
        with pytest.raises(ValueError):
            Poisson().density(-1.0, 1)


class TestScore:
    def test_examples(self):
        assert Bernoulli().score(0.5, 1) == pytest.approx(2.0)
        assert Poisson().score(1.0, 2) == pytest.approx(1.0)
        assert GaussianLocation(1.0).score(0.0, 0.0) == 0.0

    @pytest.mark.parametrize("family,thetas", ALL)
    def test_finite_difference(self, family, thetas):
        step = 1e-5
        for theta in thetas:
            outcomes = (
                (0, 1) if family.name == "bernoulli"
                else (0, 1, 3, 8) if family.name == "poisson"
                else (theta - 1.3, theta, theta + 0.4)
            )
            for w in outcomes:
                fd = (
                    family.log_density(theta + step, w)
                    - family.log_density(theta - step, w)
                ) / (2 * step)
                sc = family.score(theta, w)
                assert sc == pytest.approx(fd, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("family,thetas", ALL)
    def test_zero_mean(self, family, thetas):
        n = 100_000
        for theta in thetas:
            rng = stream(17, "score-mean", family.name, str(theta))
            draws = family.sample(theta, n, rng)
            scores = family.score(theta, draws)
            se = scores.std() / math.sqrt(n)
            assert abs(scores.mean()) < 4 * se


class TestFisher:
    def test_closed_forms(self):
        # Bernoulli(1/2): enumeration of score^2 over {0, 1} gives 4
        b = Bernoulli()
        enum = sum(b.score(0.5, w) ** 2 * b.density(0.5, w) for w in (0, 1))
        assert b.fisher(0.5) == pytest.approx(enum) == pytest.approx(4.0)
        assert Poisson().fisher(2.0) == pytest.approx(0.5)
        assert GaussianLocation(2.0).fisher(0.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("family,thetas", ALL)
    def test_equals_score_variance(self, family, thetas):
        theta = thetas[1]
        rng = stream(23, "fisher-var", family.name)
        scores = family.score(theta, family.sample(theta, 100_000, rng))
        # MC error of the variance estimate: spread of score^2 plus the
        # squared-mean term (dominant when the score is two-valued)
        n = scores.size
        tol = 4 * np.square(scores).std() / math.sqrt(n) + 20 * family.fisher(theta) / n
        assert abs(scores.var() - family.fisher(theta)) < tol

    def test_gaussian_sigma_outside_the_float_range(self):
        # sigma^2 underflows, is subnormal (1 / sigma^2 = inf) or overflows
        for sigma in (1e-170, 1e-160, 1e160):
            with pytest.raises(ConfigurationError, match="sigma"):
                GaussianLocation(sigma)
        for sigma in (7.5e-155, 1.3e154):  # the ends of the usable range
            assert math.isfinite(GaussianLocation(sigma).fisher(0.0))

    @pytest.mark.parametrize("family", [Bernoulli(), Poisson()])
    def test_infinite_information_refused(self, family):
        # 1e-320 is inside the domain, but 1 / theta is inf
        with pytest.raises(ConfigurationError, match="theta=1e-320"):
            family.fisher(1e-320)
        assert family.fisher(1e-300) == pytest.approx(1e300)


class TestSampling:
    def test_bernoulli_mean(self):
        draws = Bernoulli().sample(0.3, 100_000, stream(5, "bmean"))
        assert abs(draws.mean() - 0.3) < 4 * math.sqrt(0.21 / 100_000)

    def test_poisson_variance(self):
        draws = Poisson().sample(4.0, 100_000, stream(5, "pvar"))
        se = np.square(draws - draws.mean()).std() / math.sqrt(draws.size)
        assert abs(draws.var() - 4.0) < 4 * se

    @pytest.mark.parametrize("family,thetas", ALL)
    def test_mgf_of_score_finite(self, family, thetas):
        # exponential moments of the score stay finite on the working range
        theta = thetas[1]
        draws = family.sample(theta, 100_000, stream(6, "mgf", family.name))
        scores = family.score(theta, draws)
        for h in (-2.0, -1.0, 1.0, 2.0):
            assert np.isfinite(np.exp(h * scores).mean())

    @pytest.mark.parametrize("family,thetas", ALL)
    def test_scaled_sum_mgf_bound(self, family, thetas):
        # E exp(h * score sum) stays below exp(h^2 J) for moderate n
        theta, h, n, reps = thetas[1], 1.0, 64, 20_000
        vals = np.empty(reps)
        for i in range(reps):
            rng = stream(31, "mgfsum", family.name, i)
            data = family.sample(theta, n, rng)
            stat = float(data.sum())
            vals[i] = math.exp(h * family.score_from_stat(theta, n, stat))
        bound = math.exp(h * h * family.fisher(theta))
        assert vals.mean() <= bound * 1.05


class TestSufficientStatistic:
    @pytest.mark.parametrize("family,thetas", ALL)
    def test_affine_score_relation(self, family, thetas):
        theta = thetas[1]
        rng = stream(7, "affine", family.name)
        data = family.sample(theta, 40, rng)
        via_stat = family.score_from_stat(theta, 40, float(data.sum()))
        direct = family.score(theta, data).sum() / math.sqrt(40)
        assert via_stat == pytest.approx(direct, rel=1e-12, abs=1e-12)


class TestStatLaw:
    def test_bernoulli_vs_scipy(self):
        law = Bernoulli().stat_pmf(0.37, 25)
        ref = stats.binom.pmf(np.arange(26), 25, 0.37)
        assert np.abs(law.mass - ref).sum() < 1e-12

    def test_poisson_vs_scipy(self):
        law = Poisson().stat_pmf(1.3, 8)
        ref = stats.poisson.pmf(law.support, 8 * 1.3)
        assert np.abs(law.mass - ref).sum() < 1e-10

    @pytest.mark.parametrize(
        "family,theta,n", [(Bernoulli(), 0.3, 40), (Poisson(), 2.0, 15)],
        ids=["bernoulli", "poisson"],
    )
    def test_sample_stat_follows_stat_law(self, family, theta, n):
        reps = 20_000
        draws = family.sample_stat(theta, n, reps, stream(9, "sstat", family.name))
        law = family.stat_pmf(theta, n)
        counts = np.bincount(draws, minlength=law.support.size)
        assert counts.size == law.support.size  # no draw beyond the support
        assert chi2_gof(counts, law.mass * reps) > 1e-3

    def test_sample_stat_gaussian_moments(self):
        fam, theta, n, reps = GaussianLocation(1.5), 0.4, 30, 40_000
        draws = fam.sample_stat(theta, n, reps, stream(9, "sstat-g"))
        var = n * 1.5**2
        assert abs(draws.mean() - n * theta) < 4 * math.sqrt(var / reps)
        assert draws.var() == pytest.approx(var, rel=0.03)

    def test_poisson_large_mean_no_false_truncation_alarm(self):
        # at lam = 25 600, 1 - sum(pmf) is ~1e-11 of rounding error while the
        # true tail beyond the support is ~1e-44
        law = Poisson().stat_pmf(2.0, 12800)
        assert law.mass.sum() == pytest.approx(1.0, abs=1e-12)
        mean = float(law.support @ law.mass)
        assert mean == pytest.approx(25600.0, rel=1e-12)


class TestClipping:
    def test_policy(self):
        assert Bernoulli().clip_theta(0.0001, 10) == pytest.approx(0.1)
        assert Bernoulli().clip_theta(0.9999, 10) == pytest.approx(0.9)
        assert Poisson().clip_theta(0.0, 10) == pytest.approx(0.1)
        assert Poisson().clip_theta(50.0, 10) == 50.0
        assert GaussianLocation(1.0).clip_theta(-77.0, 10) == -77.0


class TestConditionalResample:
    def test_bernoulli_uniform_arrangements(self):
        fam = Bernoulli()
        rng = stream(11, "arr")
        counts = {}
        for _ in range(30_000):
            out = fam.conditional_resample(3, 2, rng)
            assert out.sum() == 2
            counts[tuple(out)] = counts.get(tuple(out), 0) + 1
        assert len(counts) == 3
        p = chi2_gof(list(counts.values()), [10_000] * 3)
        assert p > 0.01

    def test_gaussian_bridge_mean_pinned(self):
        fam = GaussianLocation(1.0)
        for _ in range(20):
            out = fam.conditional_resample(2, 4.0, stream(12, "bridge"))
            assert out.mean() == pytest.approx(2.0, abs=1e-12)

    def test_poisson_total_pinned(self):
        for n, t in ((5, 11), (800, 1_600), (3, 0)):
            out = Poisson().conditional_resample(n, t, stream(13, "ptot", n))
            assert out.sum() == t and np.all(out >= 0)
            assert out.dtype == np.int64 and out.shape == (n,)

    def test_law_invariance_bernoulli(self):
        # resampling on the own statistic: count preserved per draw, and the
        # per-position marginal stays Bernoulli(theta)
        fam, theta, n, reps = Bernoulli(), 0.3, 20, 20_000
        first = np.empty(reps)
        for i in range(reps):
            rng = stream(14, "inv-b", i)
            data = fam.sample(theta, n, rng)
            out = fam.conditional_resample(n, int(data.sum()), rng)
            assert out.sum() == data.sum()
            first[i] = out[0]
        se = math.sqrt(theta * (1 - theta) / reps)
        assert abs(first.mean() - theta) < 4 * se

    def test_law_invariance_poisson(self):
        fam, theta, n, reps = Poisson(), 2.0, 6, 20_000
        first = np.empty(reps, dtype=np.int64)
        for i in range(reps):
            rng = stream(15, "inv-p", i)
            data = fam.sample(theta, n, rng)
            out = fam.conditional_resample(n, int(data.sum()), rng)
            assert out.sum() == data.sum()
            first[i] = out[0]
        hi = int(stats.poisson.ppf(1 - 1e-6, theta)) + 1
        counts = np.bincount(np.minimum(first, hi), minlength=hi + 1)
        expected = stats.poisson.pmf(np.arange(hi + 1), theta)
        expected[hi] += 1 - expected.sum()
        assert chi2_gof(counts, expected * reps) > 0.01

    def test_law_invariance_gaussian(self):
        fam, theta, n, reps = GaussianLocation(1.0), 0.5, 8, 20_000
        first = np.empty(reps)
        for i in range(reps):
            rng = stream(16, "inv-g", i)
            data = fam.sample(theta, n, rng)
            out = fam.conditional_resample(n, float(data.sum()), rng)
            assert out.sum() == pytest.approx(data.sum(), rel=1e-9)
            first[i] = out[0]
        assert abs(first.mean() - theta) < 4 / math.sqrt(reps)
        assert abs(first.var() - 1.0) < 4 * math.sqrt(2.0 / reps)
        ks = stats.kstest(first, lambda x: stats.norm.cdf(x, loc=theta))
        assert ks.pvalue > 0.01

    @pytest.mark.parametrize("chunk", [1 << 20, 3], ids=["one-draw", "chunked"])
    def test_poisson_joint_law_enumerated(self, monkeypatch, chunk):
        # every count vector of t = 4 in n = 3 cells against the multinomial
        # pmf, with the picks drawn at once and in chunks of 3 and 1
        monkeypatch.setattr(families, "_PICKS_CHUNK", chunk)
        fam, n, t, reps = Poisson(), 3, 4, 30_000
        rng = stream(17, "joint", chunk)
        vectors = [v for v in itertools.product(range(t + 1), repeat=n) if sum(v) == t]
        assert len(vectors) == 15
        index = {v: k for k, v in enumerate(vectors)}
        counts = np.zeros(len(vectors))
        for _ in range(reps):
            out = fam.conditional_resample(n, t, rng)
            assert out.dtype == np.int64 and out.sum() == t
            counts[index[tuple(out.tolist())]] += 1
        pmf = np.array([math.factorial(t) / math.prod(map(math.factorial, v)) / n**t
                        for v in vectors])
        assert pmf.sum() == pytest.approx(1.0)
        assert chi2_gof(counts, pmf * reps) > 0.01

    def test_clipping_warns_not_raises(self, caplog):
        fam = Bernoulli()
        with caplog.at_level("WARNING"):
            t, _ = fam.round_stat(-5, 4, stream(18, "clip"))
        assert t == 0
        assert "clipped" in caplog.text
        t, _ = fam.round_stat(99, 4, stream(18, "clip2"))
        assert t == 4

    def test_rejects_unrounded_or_out_of_range_count(self):
        # the resampler takes the count `round_stat` produced; it neither
        # rounds nor clips again
        rng = stream(18, "reject")
        for fam, bad in [(Bernoulli(), 2.0), (Bernoulli(), 2.5), (Bernoulli(), -1),
                         (Bernoulli(), 5), (Poisson(), np.float64(3.0)),
                         (Poisson(), math.nan), (Poisson(), np.int64(-1))]:
            with pytest.raises(ValueError, match="integer count"):
                fam.conditional_resample(4, bad, rng)
        out = Poisson().conditional_resample(4, np.int64(3), rng)
        assert out.sum() == 3 and out.dtype == np.int64

    def test_randomized_rounding_mean_preserving(self):
        fam = Bernoulli()
        rng = stream(19, "round")
        draws = [fam.round_stat(2.3, 10, rng)[0] for _ in range(20_000)]
        assert abs(np.mean(draws) - 2.3) < 4 * 0.46 / math.sqrt(20_000)
        assert set(draws) == {2, 3}
        t, clipped = fam.round_stat(4.0, 10, rng)
        assert t == 4 and not clipped


class TestRegistry:
    def test_ids(self):
        assert get_family("bernoulli").name == "bernoulli"
        assert get_family("poisson").name == "poisson"
        assert get_family("gauss-loc", sigma=2.0).sigma == 2.0

    def test_unknown(self):
        with pytest.raises(ValueError):
            get_family("cauchy")
