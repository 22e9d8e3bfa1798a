"""Gaussian core: chi-square CDF, crossing radius, and L1 distance routes.

Frozen expected values were computed with independent oracles before the
implementation: scipy.integrate.quad of |density difference|, the erf closed
form of the 1-dof chi-square CDF, and a 10^6-sample Monte Carlo for m = 3.
"""

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from clonekit import (
    ConfigurationError,
    GaussianShift,
    amplifier_loss_mc,
    chi2_cdf,
    crossing_radius_sq,
    stream,
    tv_isotropic,
    tv_monte_carlo,
    tv_quadrature,
)
from clonekit import gaussian
from clonekit.gaussian import _BLOCK

# independent-oracle values (quadrature / erf / MC agreed before the build)
TV_2_1 = 0.3321281500
TV_4_1 = 0.6453491377
TV_2_3 = 0.6225444391
TV_RATIO_REF = 0.3561675455  # r = 2/0.95, m = 1


def _side_streams(rng):
    """The p- and q-side streams that `tv_monte_carlo` derives from ``rng``."""
    w = int(rng.integers(1 << 63))
    return stream(w, "tv-mc", 0), stream(w, "tv-mc", 1)


class TestChi2Cdf:
    def test_two_dof_closed_form(self):
        # 1 - exp(-t/2) at t = 2 ln 2 is exactly 1/2
        assert chi2_cdf(2, 2 * math.log(2)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_mass_at_zero(self):
        assert chi2_cdf(1, 0.0) == 0.0

    def test_one_dof_vs_erf(self):
        # P(chi2_1 <= t) = erf(sqrt(t/2))
        for t in (0.1, 0.5, 1.386294, 3.0, 9.0):
            assert chi2_cdf(1, t) == pytest.approx(math.erf(math.sqrt(t / 2)), abs=1e-12)

    def test_spec_point(self):
        assert chi2_cdf(1, 1.386294) == pytest.approx(0.7609680474, abs=1e-9)

    def test_monotone_and_limits(self):
        ts = np.linspace(0, 60, 200)
        for m in (1, 2, 5, 10):
            vals = [chi2_cdf(m, t) for t in ts]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert chi2_cdf(m, 400.0) > 1 - 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi2_cdf(0, 1.0)
        with pytest.raises(ValueError):
            chi2_cdf(2, -0.5)

    def test_matches_monte_carlo_ball(self):
        rng = stream(42, "chi2-mc")
        n = 100_000
        for m, t in ((1, 1.0), (3, 4.0), (6, 5.0)):
            z = rng.standard_normal((n, m))
            hits = (np.sum(z * z, axis=1) <= t).astype(float)
            se = hits.std() / math.sqrt(n)
            assert abs(hits.mean() - chi2_cdf(m, t)) < 4 * se


class TestCrossingRadius:
    def test_known_values(self):
        assert crossing_radius_sq(2, 1) == pytest.approx(2 * math.log(2), rel=1e-14)
        assert crossing_radius_sq(2, 2) == pytest.approx(4 * math.log(2), rel=1e-14)

    def test_densities_cross_there(self):
        for r, m in ((2.0, 1), (3.5, 2), (1.2, 4)):
            t = crossing_radius_sq(r, m)
            d1 = (2 * math.pi) ** (-m / 2) * math.exp(-t / 2)
            dr = (2 * math.pi * r) ** (-m / 2) * math.exp(-t / (2 * r))
            assert d1 == pytest.approx(dr, rel=1e-12)

    def test_r_to_one_limit(self):
        # r ln r / (r-1) -> 1
        assert crossing_radius_sq(1 + 1e-9, 1) == pytest.approx(1.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            crossing_radius_sq(1.0, 1)
        with pytest.raises(ValueError):
            crossing_radius_sq(0.5, 2)


class TestTvIsotropic:
    def test_identical(self):
        assert tv_isotropic(1, 5) == 0.0

    def test_frozen_oracles(self):
        assert tv_isotropic(2, 1) == pytest.approx(TV_2_1, abs=2e-10)
        assert tv_isotropic(4, 1) == pytest.approx(TV_4_1, abs=2e-10)
        assert tv_isotropic(2, 3) == pytest.approx(TV_2_3, abs=2e-10)
        assert tv_isotropic(2 / 0.95, 1) == pytest.approx(TV_RATIO_REF, abs=2e-10)

    def test_m2_exact(self):
        # 2 [ (1 - 1/4) - (1 - 1/2) ] = 1/2 via the exponential chi-square CDF
        assert tv_isotropic(2, 2) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_grid(self):
        for m in (1, 2, 3):
            vals = [tv_isotropic(r, m) for r in (1, 1.5, 2, 4, 8)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            tv_isotropic(0.9, 1)

    def test_non_finite_r(self):
        # NaN used to slip through as max(0.0, nan) = 0.0
        with pytest.raises(ConfigurationError, match="requires r >= 1"):
            tv_isotropic(math.nan, 1)
        for m in (1, 3):
            assert tv_isotropic(math.inf, m) == 2.0
        assert tv_isotropic(1e300, 1) == 2.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_huge_r_reaches_two(self, m):
        # r ln(r) overflowed the crossing radius past r ~ 3e305, and the
        # closed form read 0 there
        vals = [tv_isotropic(r, m) for r in (1e300, 1e305, 3e305, 1e306, 1.7e308)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v <= 2.0 for v in vals)
        assert vals[-1] >= 2.0 - 1e-12

    @given(
        r=st.floats(min_value=1.0, max_value=30.0),
        m=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_range_and_zero_iff(self, r, m):
        value = tv_isotropic(r, m)
        assert 0.0 <= value <= 2.0
        if r == 1.0:
            assert value == 0.0
        elif r > 1.0 + 1e-6:  # below float resolution the difference underflows
            assert value > 0.0


class TestTvNumeric:
    def test_identical_pair(self):
        p = GaussianShift([0.3], [[1.7]])
        assert tv_quadrature(p, p) == pytest.approx(0.0, abs=1e-9)
        assert tv_monte_carlo(p, p, 1000, stream(0, "same")) == (0.0, 0.0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_identical_pair_exact_zero_random_spd(self, m):
        rng = stream(0, "same-spd", m)
        for i in range(100):
            root = rng.standard_normal((m, m))
            cov = root @ root.T + 0.1 * np.eye(m)
            p = GaussianShift(rng.standard_normal(m), cov)
            assert tv_monte_carlo(p, p, 2_000, stream(0, "same", m, i)) == (0.0, 0.0)

    def test_quadrature_identical_pair_exact_zero_random_spd(self):
        # solve_triangular(L, L) is not always exactly the identity at m = 2
        rng = stream(0, "same-spd-quad")
        for _ in range(100):
            root = rng.standard_normal((2, 2))
            p = GaussianShift(rng.standard_normal(2), root @ root.T + 0.1 * np.eye(2))
            assert tv_quadrature(p, p) == 0.0

    def test_quadrature_matches_closed_form_1d(self):
        # exact at m = 1: the crossings cut the line into fixed-sign intervals
        p = GaussianShift([0.0], [[1.0]])
        for r in (2.0, 4.0):
            q = GaussianShift([0.0], [[r]])
            assert tv_quadrature(p, q) == pytest.approx(tv_isotropic(r, 1), abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("r", [1e300, 1e306, 1e308])
    def test_quadrature_huge_covariance_either_order(self, r, m):
        # b^2 - 4ac of the crossing quadratic overflowed once r ln r passed
        # 1.8e308, so the pair with the huge covariance first read 0, and
        # quadrature error pushed m = 2 above 2
        wide = GaussianShift(np.zeros(m), r * np.eye(m))
        unit = GaussianShift(np.zeros(m), np.eye(m))
        for p, q in ((wide, unit), (unit, wide)):
            value = tv_quadrature(p, q)
            assert abs(value - tv_isotropic(r, m)) <= 1e-6
            assert value <= 2.0

    def test_quadrature_matches_closed_form_2d(self):
        p = GaussianShift([0, 0], np.eye(2))
        q = GaussianShift([0, 0], 2 * np.eye(2))
        assert tv_quadrature(p, q) == pytest.approx(0.5, abs=1e-6)

    def test_offset_exceeds_centered(self):
        p = GaussianShift([0.0], [[1.0]])
        q = GaussianShift([1.0], [[2.0]])
        assert tv_quadrature(p, q) > TV_2_1 + 1e-3

    def test_offset_monotone_2d(self):
        # distance to the wider Gaussian grows with the offset norm
        p = GaussianShift([0, 0], np.eye(2))
        direction = np.array([1.0, 1.0]) / math.sqrt(2)
        values = [
            tv_quadrature(p, GaussianShift(x * direction, 2 * np.eye(2)))
            for x in (0.0, 0.5, 1.0, 2.0)
        ]
        assert values[0] == pytest.approx(0.5, abs=1e-6)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monte_carlo_within_error_bars(self):
        p = GaussianShift([0, 0, 0], np.eye(3))
        q = GaussianShift([0, 0, 0], 2 * np.eye(3))
        value, se = tv_monte_carlo(p, q, 100_000, stream(5, "mc3"))
        assert se > 0
        assert abs(value - TV_2_3) < 4 * se

    def test_sigma_independence_1d(self):
        for s2 in (0.25, 1.0, 9.0):
            p = GaussianShift([0.0], [[2 * s2]])
            q = GaussianShift([0.0], [[s2]])
            assert tv_quadrature(p, q) == pytest.approx(TV_2_1, abs=1e-5)

    def test_sigma_independence_2d(self):
        rng = stream(9, "spd")
        for _ in range(2):
            a = rng.standard_normal((2, 2))
            cov = a @ a.T + 0.4 * np.eye(2)
            h = rng.standard_normal(2)
            p = GaussianShift(h, 2 * cov)
            q = GaussianShift(h, cov)
            assert tv_quadrature(p, q) == pytest.approx(0.5, abs=1e-5)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("r", [2, 4])
    def test_monte_carlo_matches_sample_space_reference(self, m, r):
        # the whitened-frame estimator against the sample-space formula on
        # the same draws: each side on its child stream, four log densities
        def reference(p, q, budget, rng):
            p_rng, q_rng = _side_streams(rng)
            xs = p.sample(budget, p_rng)
            a = np.maximum(0.0, 1.0 - np.exp(q.log_density(xs) - p.log_density(xs)))
            ys = q.sample(budget, q_rng)
            b = np.maximum(0.0, 1.0 - np.exp(p.log_density(ys) - q.log_density(ys)))
            return a.mean() + b.mean(), math.sqrt(a.var() / budget + b.var() / budget)

        rng = stream(11, "whitened-pairs", m, r)
        s, t = (g @ g.T + 0.3 * np.eye(m) for g in rng.standard_normal((2, m, m)))
        p = GaussianShift(rng.standard_normal(m), r * s)
        q = GaussianShift(rng.standard_normal(m), t)
        value, se = reference(p, q, 100_000, stream(12, "whitened-mc", m, r))
        res_value, res_se = tv_monte_carlo(p, q, 100_000, stream(12, "whitened-mc", m, r))
        assert res_value == pytest.approx(value, rel=1e-12)
        assert res_se == pytest.approx(se, rel=1e-12)

    @pytest.mark.parametrize("p,q", [
        (GaussianShift([0.0], [[1.0]]), GaussianShift([1.0], [[1.0]])),
        (GaussianShift([0, 0], np.eye(2)), GaussianShift([1.0, 0.5], np.eye(2))),
        (GaussianShift([0.3, -0.2], [[2.0, 0.6], [0.6, 1.0]]),
         GaussianShift([1.1, 0.4], [[2.0, 0.6], [0.6, 1.0]])),
    ], ids=["m1", "m2-identity", "m2-shared"])
    def test_quadrature_equal_covariance_exact(self, p, q):
        # equal covariances: the L1 distance is 4 Phi(delta/2) - 2 in the
        # Mahalanobis distance delta of the means
        d = q.mean - p.mean
        delta = math.sqrt(d @ np.linalg.solve(p.cov, d))
        exact = 4.0 * ndtr(0.5 * delta) - 2.0
        assert tv_quadrature(p, q) == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("s0", [0.02, 5.0])
    def test_quadrature_2d_reduces_to_marginal(self, s0):
        # q differs from N(0, I) along one rotated axis only, so the L1
        # distance is that of the 1-d marginals; s0 = 0.02 puts a narrow
        # density on the outer coordinate of the 2-d quadrature
        a = 0.7
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        p = GaussianShift([0, 0], np.eye(2))
        q = GaussianShift(rot @ [3.0, 0.0], rot @ np.diag([s0 * s0, 1.0]) @ rot.T)
        marginal = tv_quadrature(GaussianShift([0.0], [[1.0]]),
                                 GaussianShift([3.0], [[s0 * s0]]))
        assert tv_quadrature(p, q) == pytest.approx(marginal, abs=1e-6)

    @pytest.mark.parametrize("m", [1, 2])
    def test_quadrature_matches_monte_carlo_general_pairs(self, m):
        # shifted means and covariances that are not proportional
        rng = stream(13, "general-pairs", m)
        for i in range(20):
            s, t = (g @ g.T + 0.2 * np.eye(m) for g in rng.standard_normal((2, m, m)))
            p = GaussianShift(rng.standard_normal(m), s)
            q = GaussianShift(rng.standard_normal(m), t)
            quad = tv_quadrature(p, q)
            mc, se = tv_monte_carlo(p, q, 20_000, stream(14, "general-mc", m, i))
            assert abs(quad - mc) < 4 * se

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("budget", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_blocked_monte_carlo_equals_one_shot(self, m, budget):
        # one (budget, m) draw per side, each from its child stream, through
        # the same per-coordinate ops: drawing in blocks continues the stream,
        # so the shortfalls agree exactly.  The moments are merged block by
        # block rather than summed in numpy's one pairwise pass, so the two
        # agree to rounding
        def one_shot(p, q, z):
            a_mat = np.column_stack(
                [solve_triangular(q._chol, c, lower=True) for c in p._chol.T]
            )
            b = solve_triangular(q._chol, p.mean - q.mean, lower=True)
            log_det = np.sum(np.log(np.diag(p._chol))) - np.sum(np.log(np.diag(q._chol)))
            gap = np.zeros(budget)
            for i in range(m):
                w = z[:, i] * a_mat[i, i]
                for j in range(i):
                    w += z[:, j] * a_mat[i, j]
                w += b[i]
                gap += np.square(z[:, i])
                gap -= np.square(w)
            gap *= 0.5
            gap += log_det
            return np.maximum(1.0 - np.exp(gap), 0.0)

        rng = stream(15, "blocked-pairs", m)
        s, t = (g @ g.T + 0.3 * np.eye(m) for g in rng.standard_normal((2, m, m)))
        p = GaussianShift(rng.standard_normal(m), 2 * s)
        q = GaussianShift(rng.standard_normal(m), t)
        p_rng, q_rng = _side_streams(stream(16, "blocked-mc", m, budget))
        a = one_shot(p, q, p_rng.standard_normal((budget, m)))
        b = one_shot(q, p, q_rng.standard_normal((budget, m)))
        value, se = tv_monte_carlo(p, q, budget, stream(16, "blocked-mc", m, budget))
        assert value == pytest.approx(float(a.mean() + b.mean()), rel=1e-13)
        assert se == pytest.approx(math.sqrt(a.var() / budget + b.var() / budget), rel=1e-13)

    @pytest.mark.parametrize("m", [2, 3])
    def test_whitening_solves_take_vector_right_hand_sides(self, monkeypatch, m):
        # a matrix right-hand side reaches level-3 BLAS, which leaves a BLAS
        # worker thread spinning through the Monte Carlo pass after it
        seen = []

        def vector_only(a, b, *args, **kwargs):
            seen.append(np.ndim(b))
            return solve_triangular(a, b, *args, **kwargs)

        monkeypatch.setattr(gaussian, "solve_triangular", vector_only)
        rng = stream(17, "vector-solves", m)
        s, t = (g @ g.T + 0.3 * np.eye(m) for g in rng.standard_normal((2, m, m)))
        p = GaussianShift(rng.standard_normal(m), s)
        q = GaussianShift(rng.standard_normal(m), t)
        tv_monte_carlo(p, q, 100, stream(18, "vector-solves"))
        p.log_density(q.sample(100, stream(20, "vector-solves")))
        if m == 2:
            tv_quadrature(p, q)
        for method in ("auto", "monte_carlo"):
            amplifier_loss_mc(2.0, s, [np.zeros(m)], 100, stream(19, "vector-solves"), method)
        assert seen and set(seen) == {1}

    def test_errors(self):
        p = GaussianShift([0.0], [[1.0]])
        q3 = GaussianShift([0, 0, 0], np.eye(3))
        with pytest.raises(ValueError):
            tv_quadrature(p, q3)
        with pytest.raises(ValueError):
            tv_monte_carlo(p, q3, 100, stream(0, "err"))
        with pytest.raises(ValueError):
            tv_quadrature(q3, q3)
        for budget in (0, -5):
            with pytest.raises(ValueError):
                tv_monte_carlo(p, p, budget, stream(0, "err"))
        # no rng: the cap is checked before anything is allocated or drawn
        with pytest.raises(ValueError, match="over the cap"):
            tv_monte_carlo(p, p, gaussian._BUDGET_CAP + 1, None)
        wide = GaussianShift(np.zeros(gaussian._DIM_CAP + 1), np.eye(gaussian._DIM_CAP + 1))
        with pytest.raises(ValueError, match="m = 257 is over the cap"):
            tv_monte_carlo(wide, wide, 100, None)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_monte_carlo_holds_one_buffer(self, m):
        # no budget-sized buffer: each side holds one block of m draws and
        # three block-sized scratch rows, and merges its moments block by
        # block, so the peak does not grow with the budget (one float per
        # draw of a side would be 8 MB here)
        budget = 1_000_000
        p = GaussianShift(np.zeros(m), 2.0 * np.eye(m))
        q = GaussianShift(np.full(m, 0.5), np.eye(m))
        tracemalloc.start()
        try:
            tv_monte_carlo(p, q, budget, stream(22, "one-buffer", m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (m + 4) * 8 * _BLOCK


class TestMonteCarloSides:
    """The p side runs in the calling thread and the q side on a helper."""

    @staticmethod
    def _pair(m):
        rng = stream(23, "two-sides", m)
        s, t = (g @ g.T + 0.3 * np.eye(m) for g in rng.standard_normal((2, m, m)))
        return (GaussianShift(rng.standard_normal(m), 2 * s),
                GaussianShift(rng.standard_normal(m), t))

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("budget", [1, 3 * _BLOCK + 5])
    def test_threaded_equals_sides_in_turn(self, m, budget):
        # each side is a function of its own stream, so running the q side on
        # another thread changes no bit
        p, q = self._pair(m)
        p_rng, q_rng = _side_streams(stream(24, "two-sides", m))
        mean_a, var_a = gaussian._shortfall(p, q, p_rng, budget)
        mean_b, var_b = gaussian._shortfall(q, p, q_rng, budget)
        expected = (float(mean_a + mean_b), math.sqrt(var_a / budget + var_b / budget))
        assert tv_monte_carlo(p, q, budget, stream(24, "two-sides", m)) == expected

    @pytest.mark.parametrize("side", ["p", "q"])
    def test_side_error_propagates_and_helper_is_joined(self, monkeypatch, side):
        p, q = self._pair(2)
        failing_law = p if side == "p" else q
        shortfall = gaussian._shortfall

        def failing(a, b, rng, budget):
            if a is failing_law:
                raise RuntimeError(f"{side} side failed")
            return shortfall(a, b, rng, budget)

        monkeypatch.setattr(gaussian, "_shortfall", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{side} side failed"):
            tv_monte_carlo(p, q, 10 * _BLOCK, stream(25, "side-error"))
        assert threading.active_count() == before

    def test_rng_advance_does_not_depend_on_budget(self):
        # the caller's generator gives one integer, whatever the budget
        p, q = self._pair(1)
        small, large = stream(26, "advance"), stream(26, "advance")
        tv_monte_carlo(p, q, 1, small)
        tv_monte_carlo(p, q, 100_000, large)
        assert small.integers(1 << 63, size=4).tolist() == large.integers(
            1 << 63, size=4
        ).tolist()


class TestDataTypes:
    def test_gaussian_shift_validation(self):
        with pytest.raises(ValueError):
            GaussianShift([0, 0], [[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ConfigurationError, match="not positive definite"):
            GaussianShift([0, 0], [[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("mean,cov", [
        ([0.0], [[math.inf]]), ([0.0], [[math.nan]]), ([math.nan], [[1.0]]),
        ([0.0, 0.0], [[1.0, math.nan], [math.nan, 1.0]]),
        ([0.0, math.inf], np.eye(2)),
    ])
    def test_gaussian_shift_rejects_non_finite_entries(self, mean, cov):
        # an infinite covariance used to reach scipy's Cholesky as a ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="must be finite"):
                GaussianShift(mean, cov)

    def test_gaussian_shift_needs_a_dimension(self):
        with pytest.raises(ConfigurationError, match="dimension m must be at least 1"):
            GaussianShift(np.zeros(0), np.eye(0))

    def test_log_density_formula(self):
        g = GaussianShift([1.0], [[4.0]])
        x = 2.0
        expected = -0.5 * ((x - 1.0) ** 2) / 4.0 - 0.5 * math.log(2 * math.pi * 4.0)
        assert g.log_density(np.array([x])) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_log_density_matches_scipy(self, m):
        rng = stream(21, "log-density", m)
        a = rng.standard_normal((m, m))
        g = GaussianShift(rng.standard_normal(m), a @ a.T + 0.3 * np.eye(m))
        xs = g.mean + 3.0 * rng.standard_normal((50, m))
        expected = multivariate_normal(g.mean, g.cov).logpdf(xs)
        assert np.allclose(g.log_density(xs), expected, rtol=1e-12, atol=0.0)
        assert g.log_density(xs[0]) == pytest.approx(expected[0], rel=1e-12)

    def test_sample_moments(self):
        g = GaussianShift([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]])
        xs = g.sample(200_000, stream(8, "gs"))
        assert np.abs(xs.mean(axis=0) - g.mean).max() < 0.02
        assert np.abs(np.cov(xs.T) - g.cov).max() < 0.03
