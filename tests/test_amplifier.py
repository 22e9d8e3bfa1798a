"""Amplifier loss: shift and covariance invariance across evaluation routes."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from clonekit import (
    GaussianShift,
    amplifier,
    amplifier_loss_mc,
    stream,
    tv_isotropic,
    tv_monte_carlo,
)
from clonekit.gaussian import _whitened

TV_2_1 = 0.3321281500


class TestAmplifierLoss:
    def test_r_one_zeros(self):
        rep = amplifier_loss_mc(1.0, np.eye(1), [[0.0], [2.0]], 100, stream(0, "l"))
        assert rep.sup_value == 0.0

    @pytest.mark.parametrize("method,m", [
        ("quadrature", 1), ("quadrature", 2), ("monte_carlo", 3),
    ])
    def test_r_one_is_exactly_zero_on_every_route(self, method, m):
        # r = 1 has no shortcut: each route scores the identical pair as 0
        rng = stream(0, "r1-cov", m)
        for k in range(20):
            root = rng.standard_normal((m, m))
            sigma = root @ root.T + 0.1 * np.eye(m)
            rep = amplifier_loss_mc(
                1.0, sigma, [np.zeros(m), np.full(m, 3.0)], 100,
                stream(0, "r1", m, k), method=method,
            )
            assert rep.per_h == ((0.0, 0.0), (0.0, 0.0))

    def test_shift_invariance_quadrature(self):
        rep = amplifier_loss_mc(2.0, np.eye(1), [[0.0], [1.0], [5.0]], 0, stream(0, "q"))
        values = [value for value, _ in rep.per_h]
        for value in values:
            assert value == pytest.approx(TV_2_1, abs=1e-5)
        assert max(values) - min(values) < 2e-6

    def test_sigma_invariance(self):
        rep = amplifier_loss_mc(2.0, 4 * np.eye(1), [[0.0], [1.0]], 0, stream(0, "s"))
        for value, _ in rep.per_h:
            assert value == pytest.approx(TV_2_1, abs=1e-5)

    def test_monte_carlo_agrees(self):
        rep = amplifier_loss_mc(
            2.0, np.eye(1), [[0.0], [1.0]], 200_000, stream(6, "mc"),
            method="monte_carlo",
        )
        closed = tv_isotropic(2, 1)
        for value, se in rep.per_h:
            assert se > 0
            assert abs(value - closed) < 4 * se
        # shift independence holds within the combined MC error
        values = [value for value, _ in rep.per_h]
        assert max(values) - min(values) < 3 * sum(se for _, se in rep.per_h)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            amplifier_loss_mc(2.0, np.eye(1), [], 10, stream(0, "e"))

    def test_huge_r_reads_two(self):
        # the quadrature route read 0 here while b^2 - 4ac overflowed
        rep = amplifier_loss_mc(1e306, np.eye(1), [[0.0], [1.0]], 0, stream(0, "huge"))
        assert rep.method == "quadrature"
        assert rep.sup_value == pytest.approx(2.0, abs=1e-6) and rep.sup_value <= 2.0


def _grid(m, shifts):
    return [np.full(m, 1.5 * (k + 1)) for k in range(shifts)]


class TestOnePairPerCall:
    """The common mean cancels, so one route call serves the whole grid."""

    @pytest.mark.parametrize("method,m", [("quadrature", 2), ("monte_carlo", 2)])
    @pytest.mark.parametrize("shifts", [1, 3, 5])
    def test_one_route_call_per_invocation(self, monkeypatch, method, m, shifts):
        calls = []
        for name in ("tv_quadrature", "tv_monte_carlo"):
            route = getattr(amplifier, name)

            def counted(*args, _route=route, _name=name):
                calls.append(_name)
                return _route(*args)

            monkeypatch.setattr(amplifier, name, counted)
        rep = amplifier_loss_mc(2.0, 2.0 * np.eye(m), _grid(m, shifts), 500,
                                stream(1, "count", shifts), method=method)
        assert calls == ["tv_" + method]
        assert len(rep.per_h) == shifts

    @pytest.mark.parametrize("m", [1, 2])
    def test_monte_carlo_reports_the_mean_zero_pair(self, m):
        # a nonzero first shift, and a covariance that is not the identity
        rng = stream(2, "direct-sigma", m)
        root = rng.standard_normal((m, m))
        sigma = root @ root.T + 0.3 * np.eye(m)
        r, budget = 2.0, 3_000
        want = tv_monte_carlo(GaussianShift(np.zeros(m), r * sigma),
                              GaussianShift(np.zeros(m), sigma), budget,
                              stream(3, "direct", m))
        rep = amplifier_loss_mc(r, sigma, _grid(m, 3), budget, stream(3, "direct", m),
                                method="monte_carlo")
        assert want[1] > 0.0
        assert rep.per_h == (want,) * 3
        assert (rep.sup_value, rep.sup_std_error) == want

    @pytest.mark.parametrize("method,draws", [("quadrature", 0), ("monte_carlo", 1)])
    @pytest.mark.parametrize("shifts", [1, 3, 5])
    def test_rng_advance_does_not_depend_on_the_grid(self, method, draws, shifts):
        rng, twin = stream(4, "advance"), stream(4, "advance")
        amplifier_loss_mc(2.0, np.eye(1), _grid(1, shifts), 500, rng, method=method)
        for _ in range(draws):
            twin.integers(1 << 63)
        assert rng.random(8).tolist() == twin.random(8).tolist()


class TestWhitenedFrame:
    @pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
    def test_every_pair_whitens_to_the_isotropic_pair(self, monkeypatch, r):
        # In the target's whitened frame the amplified law is A z + b with
        # A = L_q^{-1} L_p = sqrt(r) I and b = 0, whatever sigma: the one
        # pair the loss scores per call is the isotropic pair, on either
        # route, and the grid's shifts enter no arithmetic.  The
        # triangular solve rounds A to a few ulps times the condition number
        # of the solved factor (at most 2.5 ulps times it on 6 000 such
        # sigma at each r); sqrt(4) = 2 scales the factor exactly.
        pairs = []

        def record(p, q, *args):
            pairs.append((p, q))
            return 0.0, 0.0

        monkeypatch.setattr(amplifier, "tv_quadrature", record)
        monkeypatch.setattr(amplifier, "tv_monte_carlo", record)
        rng = stream(0, "whitened", str(r))
        for m in (1, 2, 3):
            for _ in range(100):
                root = rng.standard_normal((m, m))
                sigma = root @ root.T + 0.1 * np.eye(m)
                grid = [np.zeros(m)] + [3.0 * rng.standard_normal(m) for _ in range(2)]
                amplifier_loss_mc(r, sigma, grid, 1, rng)
        assert len(pairs) == 3 * 100
        ulp = np.finfo(float).eps
        for amplified, target in pairs:
            # the p side's frame (A = sqrt(r) I), then the q side's (A = I / sqrt(r))
            for p, q, scale in ((amplified, target, math.sqrt(r)),
                                (target, amplified, 1.0 / math.sqrt(r))):
                a_mat = _whitened(q, p)
                tol = 4.0 * ulp * np.linalg.cond(q._chol) * scale
                np.testing.assert_allclose(a_mat, scale * np.eye(p.dim), rtol=0, atol=tol)
                if r == 4.0:
                    assert np.array_equal(a_mat, scale * np.eye(p.dim))
                b = solve_triangular(q._chol, p.mean - q.mean, lower=True)
                assert not b.any()
