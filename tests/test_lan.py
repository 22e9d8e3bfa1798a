"""LAN diagnostics: expansion residuals, smoothed scores, quantile coupling.

The Gaussian location family anchors everything at machine precision; the
discrete families carry the actual convergence content.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats

from clonekit import (
    Bernoulli,
    ConfigurationError,
    GaussianLocation,
    Poisson,
    dqm_residual,
    lan_residual_rate,
    loglik_ratio,
    quantile_coupling,
    score_process,
    stream,
)
from clonekit.cloner import smoothed_score


class TestScoreProcess:
    def test_gaussian_zero(self):
        v = score_process(GaussianLocation(1.0), 0.0, np.array([1.0, -1.0]))
        assert v == 0.0

    def test_bernoulli_hand_value(self):
        # (S - n theta) / (theta (1-theta) sqrt(n)) = (4 - 2) * 4 / 2 = 4
        v = score_process(Bernoulli(), 0.5, np.array([1, 1, 1, 1]))
        assert v == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "family,theta",
        [(Bernoulli(), 0.5), (Poisson(), 2.0), (GaussianLocation(1.0), 0.3)],
    )
    def test_variance_approaches_fisher(self, family, theta):
        reps, n = 20_000, 40
        vals = np.empty(reps)
        for i in range(reps):
            rng = stream(3, "spvar", family.name, i)
            vals[i] = score_process(family, theta, family.sample(theta, n, rng))
        j = family.fisher(theta)
        se = np.square(vals).std() / math.sqrt(reps)
        assert abs(vals.var() - j) < 4 * se + 20 * j / reps


class TestLoglikRatio:
    def test_zero_shift(self):
        exact, quadratic = loglik_ratio(Bernoulli(), 0.4, 0.0, np.array([1, 0, 1]))
        assert exact == 0.0 and quadratic == 0.0

    def test_gaussian_exact(self):
        fam = GaussianLocation(1.3)
        rng = stream(4, "gexact")
        for h in (0.5, -1.7, 2.0):
            data = fam.sample(0.2, 400, rng)
            exact, quadratic = loglik_ratio(fam, 0.2, h, data)
            assert abs(exact - quadratic) < 1e-10

    def test_likelihood_ratio_integrates_to_one(self):
        for family, theta in (
            (Bernoulli(), 0.5), (Poisson(), 2.0), (GaussianLocation(1.0), 0.3),
        ):
            reps, n, h = 20_000, 50, 1.0
            zs = np.empty(reps)
            for i in range(reps):
                rng = stream(11, "ez", family.name, i)
                data = family.sample(theta, n, rng)
                zs[i] = math.exp(loglik_ratio(family, theta, h, data)[0])
            se = zs.std() / math.sqrt(reps)
            assert abs(zs.mean() - 1.0) < 4 * se

    @pytest.mark.parametrize(
        "family,theta",
        [(Bernoulli(), 0.3), (Poisson(), 2.0), (GaussianLocation(1.3), 0.2)],
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_statistic_form_matches_data_form(self, family, theta):
        # the exponential-family form reproduces the sum of log densities
        for n in (5, 100, 2000):
            for i, h in enumerate((-0.5, 0.5, 1.5)):
                data = family.sample(theta, n, stream(12, "stat-lr", family.name, n, i))
                shifted = theta + h / math.sqrt(n)
                by_stat = family.loglr_from_stat(theta, shifted, n, data.sum())
                by_data = loglik_ratio(family, theta, h, data)[0]
                assert abs(by_stat - by_data) < 1e-9

    def test_out_of_domain_shift(self):
        with pytest.raises(ValueError):
            loglik_ratio(Bernoulli(), 0.9, 2.0, np.array([1, 0, 1, 1]))


def _wilson_interval(successes, trials, z=1.959963984540054):
    """95% Wilson score interval of a binomial proportion."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


class TestResidualRate:
    def test_gaussian_all_zero(self):
        probs = lan_residual_rate(GaussianLocation(1.0), 0.0, 1.0, (25, 100), 0.1)
        assert probs == (0.0, 0.0)

    def test_gaussian_zero_at_threshold_zero(self):
        # the expansion is exact, so no residual exceeds even 0 (sampling
        # used to score rounding noise there)
        probs = lan_residual_rate(GaussianLocation(1.3), 0.2, 1.0, (25, 100, 400), 0.0)
        assert probs == (0.0, 0.0, 0.0)

    def test_bernoulli_decreasing(self):
        probs = lan_residual_rate(Bernoulli(), 0.5, 1.0, (25, 100, 400), 0.1)
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_poisson_decreasing(self):
        probs = lan_residual_rate(Poisson(), 2.0, 1.0, (25, 100, 400), 0.1)
        assert probs[0] > probs[-1]

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("theta", [0.3, 0.5])
    def test_matches_sequence_enumeration(self, n, theta):
        # every one of the 2^n sequences scored by the data form of
        # `loglik_ratio`, which reads neither `stat_pmf` nor `loglr_from_stat`
        fam = Bernoulli()
        seqs = np.array(list(itertools.product((0, 1), repeat=n)))
        prob = theta ** seqs.sum(axis=1) * (1 - theta) ** (n - seqs.sum(axis=1))
        for h in (-0.5, 0.5, 1.0):
            residual = np.array([abs(np.subtract(*loglik_ratio(fam, theta, h, seq)))
                                 for seq in seqs])
            for threshold in (0.0, 0.05, 0.1, 0.3):
                # no residual sits on the threshold, where rounding could decide
                assert np.abs(residual - threshold).min() > 1e-9
                want = float(prob[residual > threshold].sum())
                (got,) = lan_residual_rate(fam, theta, h, (n,), threshold)
                assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("family,theta", [(Bernoulli(), 0.5), (Poisson(), 1.0)],
                             ids=["bernoulli", "poisson"])
    def test_monte_carlo_inside_wilson_interval(self, family, theta):
        # sampled statistics scored as the Monte Carlo route used to score them
        reps, h, threshold = 100_000, 1.0, 0.1
        n_grid = (25, 100, 400)
        probs = lan_residual_rate(family, theta, h, n_grid, threshold)
        j = family.fisher(theta)
        for i, (n, p) in enumerate(zip(n_grid, probs)):
            stat = family.sample_stat(theta, n, reps, stream(13, "lan-mc", family.name, i))
            exact = family.loglr_from_stat(theta, theta + h / math.sqrt(n), n, stat)
            quad = h * family.score_from_stat(theta, n, stat) - 0.5 * h * h * j
            hits = int(np.count_nonzero(np.abs(exact - quad) > threshold))
            lo, hi = _wilson_interval(hits, reps)
            assert lo <= p <= hi

    def test_domain_checked(self):
        with pytest.raises(ConfigurationError):
            lan_residual_rate(Bernoulli(), 0.9, 2.0, (4,), 0.1)
        # the continuous family's parameter too, before its 0 is returned
        with pytest.raises(ConfigurationError):
            lan_residual_rate(GaussianLocation(1.0), math.nan, 1.0, (4,), 0.1)

    def test_threshold_checked(self):
        # no residual falls below a negative threshold: the probability would read 1
        for threshold in (-1.0, -1e-300, math.nan):
            with pytest.raises(ConfigurationError, match="threshold must be nonnegative"):
                lan_residual_rate(Bernoulli(), 0.5, 1.0, (25,), threshold)
        (prob,) = lan_residual_rate(Bernoulli(), 0.5, 1.0, (25,), 0.0)
        assert 0.0 <= prob <= 1.0


class TestSmoothedScore:
    """The cloner's smoothed score, on arrays of statistic draws."""

    def test_epsilon_zero_deterministic(self):
        fam = Bernoulli()
        data = np.array([1, 0, 1, 1])
        n = data.size
        out = smoothed_score(fam, 0.5, n, n, 0.0, float(data.sum()), None)[0]
        expected = score_process(fam, 0.5, data) / fam.fisher(0.5)
        assert out == expected

    def test_gaussian_law_exact(self):
        fam = GaussianLocation(1.0)
        reps, n = 20_000, 30
        s2 = fam.sample_stat(0.0, n, reps, stream(8, "sm-g"))
        vals = smoothed_score(fam, 0.0, n, n, 0.0, s2, None)[0]
        ks = stats.kstest(vals, stats.norm.cdf)
        assert ks.pvalue > 0.01

    def test_bernoulli_smoothed_law(self):
        fam, theta, eps, n, reps = Bernoulli(), 0.5, 0.01, 400, 10_000
        rng = stream(9, "sm-b")
        s2 = fam.sample_stat(theta, n, reps, rng)
        vals = smoothed_score(fam, theta, n, n, eps, s2, rng.standard_normal(reps))[0]
        scale = math.sqrt(1 / fam.fisher(theta) + eps)
        ks = stats.kstest(vals, lambda x: stats.norm.cdf(x, scale=scale))
        assert ks.pvalue > 0.01


class TestDqm:
    def test_zero_step(self):
        assert dqm_residual(Bernoulli(), 0.5, [0.0]) == (0.0,)

    def test_bernoulli_rate(self):
        hs = (0.01, 0.001)
        res = dqm_residual(Bernoulli(), 0.5, hs)
        # defect is quartic in h, so the defect over h^2 drops ~100x
        assert (res[0] / hs[0] ** 2) / (res[1] / hs[1] ** 2) > 10
        assert res[0] > 0

    def test_poisson_rate(self):
        hs = (0.02, 0.002)
        res = dqm_residual(Poisson(), 2.0, hs)
        assert (res[0] / hs[0] ** 2) / (res[1] / hs[1] ** 2) > 10

    def test_gaussian_small(self):
        (res,) = dqm_residual(GaussianLocation(1.0), 0.0, [0.01])
        assert res / 0.01**2 < 1e-4
        # closed form: defect = 2(1 - e^{-u}) + 2u(1 - 2 e^{-u}), u = h^2/8
        u = 0.01**2 / 8
        exact = 2 * (1 - math.exp(-u)) + 2 * u * (1 - 2 * math.exp(-u))
        assert res == pytest.approx(exact, rel=1e-4, abs=1e-14)

    @pytest.mark.parametrize("h", [0.5, 0.1, 0.01])
    def test_gaussian_closed_form_vs_quad(self, h):
        sigma, theta = 1.3, 0.2

        def density(t, x):
            z = (x - t) / sigma
            return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2 * math.pi))

        def defect(x):
            score = (x - theta) / sigma**2
            root0 = math.sqrt(density(theta, x))
            dev = math.sqrt(density(theta + h, x)) - root0 - 0.5 * h * score * root0
            return dev * dev

        lo, hi = theta - 20 * sigma, theta + 20 * sigma
        ref = integrate.quad(defect, lo, hi, points=[theta], epsabs=0.0,
                             epsrel=1e-10, limit=200)[0]
        (res,) = dqm_residual(GaussianLocation(sigma), theta, [h])
        assert res == pytest.approx(ref, rel=1e-6)


class TestQuantileCoupling:
    def test_gaussian_exact(self):
        rep = quantile_coupling(GaussianLocation(1.0), 0.0, (16, 256), 0.2)
        assert rep.deviation_measure == (0.0, 0.0)
        assert rep.sup_deviation == (0.0, 0.0)

    def test_bernoulli_nonincreasing(self):
        rep = quantile_coupling(Bernoulli(), 0.5, (16, 64, 256, 1024), 0.2)
        assert all(b <= a for a, b in zip(rep.deviation_measure, rep.deviation_measure[1:]))
        assert rep.deviation_measure[0] > rep.deviation_measure[-1]

    def test_poisson_root_n_trend(self):
        n_grid = (16, 64, 256, 1024)
        rep = quantile_coupling(Poisson(), 1.0, n_grid, 0.2)
        assert all(b <= a for a, b in zip(rep.deviation_measure, rep.deviation_measure[1:]))
        slope = np.polyfit(np.log(n_grid), np.log(rep.sup_deviation), 1)[0]
        assert -0.7 <= slope <= -0.3

    def test_pushforward_matches_statistic_law(self):
        # the measure of levels mapped to each score atom equals its pmf
        fam, theta, n, res = Bernoulli(), 0.3, 5, 20_001
        rep = quantile_coupling(fam, theta, (n,), 0.2, resolution=res)
        law = fam.stat_pmf(theta, n)
        levels = (np.arange(res) + 0.5) / res
        cdf = np.cumsum(law.mass)
        idx = np.minimum(np.searchsorted(cdf, levels, side="left"), n)
        grid_mass = np.bincount(idx, minlength=n + 1) / res
        assert np.abs(grid_mass - law.mass).max() <= 1.0 / res + 1e-12
        assert len(rep.deviation_measure) == len(rep.sup_deviation) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            quantile_coupling(Bernoulli(), 0.5, (16,), 0.0)
        with pytest.raises(ValueError):
            quantile_coupling(Bernoulli(), 0.5, (16,), 0.1, resolution=2)

    def test_nan_epsilon_dev_rejected(self):
        # NaN used to pass through and measure no deviation at all
        with pytest.raises(ConfigurationError, match="epsilon_dev"):
            quantile_coupling(Bernoulli(), 0.5, (16,), math.nan)
