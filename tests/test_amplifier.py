"""Amplifier loss: shift and covariance invariance across evaluation routes."""

import numpy as np
import pytest

from clonekit import amplifier_loss_mc, stream, tv_isotropic

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
