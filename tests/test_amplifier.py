"""Amplifier loss: shift and covariance invariance across evaluation routes."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from clonekit import amplifier, amplifier_loss_mc, stream, tv_isotropic
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


class TestWhitenedFrame:
    @pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
    def test_every_pair_whitens_to_the_isotropic_pair(self, monkeypatch, r):
        # In the target's whitened frame the amplified law is A z + b with
        # A = L_q^{-1} L_p = sqrt(r) I and b = 0, whatever sigma and h: every
        # pair the loss scores is the isotropic pair, on either route.  The
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
        assert len(pairs) == 3 * 100 * 3
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
