"""Amplifier and rotation embedding: exactness, moments, loss invariance."""

import math

import numpy as np
import pytest

from clonekit import (
    GaussianShift,
    amplifier_loss_mc,
    amplify,
    build_rotation,
    expand_to_clones,
    gaussian_clone,
    stream,
    tv_isotropic,
)

TV_2_1 = 0.3321281500


class TestAmplify:
    def test_fixed_point(self):
        assert np.all(amplify(np.zeros(3), 7.3) == 0.0)

    def test_scalar_multiply(self):
        assert amplify(np.array([1.0, 2.0]), 4) == pytest.approx([2.0, 4.0])

    def test_domain(self):
        with pytest.raises(ValueError):
            amplify(np.array([1.0]), 0.99)

    def test_pushforward_moments(self):
        rng = stream(1, "amp-law")
        x = 1.0 + rng.standard_normal(100_000)
        y = amplify(x, 2.0)
        # mean -> sqrt(2), var -> 2; 4 sigma MC tolerances
        assert abs(y.mean() - math.sqrt(2)) < 4 * math.sqrt(2 / 100_000)
        assert abs(y.var() - 2.0) < 4 * 2.0 * math.sqrt(2 / 100_000)


class TestRotation:
    def test_r_one(self):
        assert np.allclose(build_rotation(1), [[1.0]])

    def test_r_two_hadamard(self):
        s = 1 / math.sqrt(2)
        assert np.allclose(build_rotation(2), [[s, s], [s, -s]], atol=1e-15)

    @pytest.mark.parametrize("r", range(1, 17))
    def test_orthogonal_first_row(self, r):
        o = build_rotation(r)
        assert np.abs(o @ o.T - np.eye(r)).max() < 1e-12
        assert np.abs(o[0] - 1 / math.sqrt(r)).max() < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            build_rotation(0)


class TestExpandToClones:
    def test_r_one_identity(self):
        y = np.array([1.5, -2.0])
        out = expand_to_clones(y, 1, np.eye(2), stream(0, "e1"))
        assert out.shape == (1, 2)
        assert out[0] == pytest.approx(y)

    def test_forced_noise_arithmetic(self):
        # with the fresh draw forced to zero, both clones are y / sqrt(2)
        y = np.array([3.0])
        out = expand_to_clones(y, 2, np.eye(1), stream(0, "e2"), noise=np.zeros((1, 1)))
        assert out == pytest.approx(np.array([[3 / math.sqrt(2)], [3 / math.sqrt(2)]]))

    def test_batch_matches_per_row_calls(self):
        # one batched call draws the noise in batch order, so it equals one
        # call per input on the same stream, and the closed-form reflection
        # equals the explicit rotation matrix
        sigma = np.array([[2.0, 0.6], [0.6, 1.0]])
        y = stream(7, "batch-y").standard_normal((4, 5, 2))
        batched = expand_to_clones(y, 3, sigma, stream(7, "batch-noise"))
        assert batched.shape == (4, 5, 3, 2)
        rng = stream(7, "batch-noise")
        chol = np.linalg.cholesky(sigma)
        o = build_rotation(3)
        for idx in np.ndindex(4, 5):
            noise = rng.standard_normal((2, 2)) @ chol.T
            explicit = o.T @ np.vstack([y[idx][None, :], noise])
            assert np.abs(batched[idx] - explicit).max() < 1e-12

    def test_batched_forced_noise_and_r_one(self):
        y = np.array([[3.0], [-1.0]])
        out = expand_to_clones(y, 2, np.eye(1), stream(0, "e3"), noise=np.zeros((2, 1, 1)))
        assert out.shape == (2, 2, 1)
        assert out[:, :, 0] == pytest.approx(y / math.sqrt(2) * np.ones((2, 2)))
        assert np.array_equal(expand_to_clones(y, 1, np.eye(1), stream(0, "e4")), y[:, None, :])
        # an integer-valued float clone count is accepted, as build_rotation does
        assert np.array_equal(expand_to_clones(y, 2.0, np.eye(1), stream(0, "e5")),
                              expand_to_clones(y, 2, np.eye(1), stream(0, "e5")))

    def test_exactness_moments(self):
        # exact N(sqrt(r) h, sigma) input -> clones i.i.d. N(h, sigma)
        rng = stream(2, "exact")
        h, r, reps = 0.7, 2, 100_000
        y = math.sqrt(r) * h + rng.standard_normal(reps)
        clones = expand_to_clones(y[:, None], r, np.eye(1), rng)[..., 0]
        se = 1 / math.sqrt(reps)
        assert np.abs(clones.mean(axis=0) - h).max() < 4 * se
        assert np.abs(clones.var(axis=0) - 1.0).max() < 4 * math.sqrt(2) * se
        cross = np.cov(clones.T)[0, 1]
        assert abs(cross) < 4 * se


class TestGaussianClone:
    def test_r_one(self):
        x = np.array([2.0])
        out = gaussian_clone(x, 1, np.eye(1), stream(0, "g1"))
        assert np.allclose(out, [[2.0]])

    def test_clone_means(self):
        rng = stream(3, "g-mean")
        reps, r = 100_000, 2
        x = 3.0 + rng.standard_normal(reps)
        clones = gaussian_clone(x[:, None], r, np.eye(1), rng)[..., 0]
        se = math.sqrt(1.5 / reps)
        assert np.abs(clones.mean(axis=0) - 3.0).max() < 4 * se
        # per-clone variance 2 - 1/r: rotate diag(r, 1) back by the orthogonal map
        var_se = 4 * 1.5 * math.sqrt(2 / reps)
        assert np.abs(clones.var(axis=0) - 1.5).max() < var_se

    def test_rotated_first_coordinate_recovers_amplified_input(self):
        rng = stream(4, "g-rot")
        o = build_rotation(3)
        x = np.array([0.4])
        clones = gaussian_clone(x, 3, np.eye(1), rng)
        recovered = (o @ clones)[0, 0]
        assert recovered == pytest.approx(math.sqrt(3) * 0.4, rel=1e-12)

    def test_cloning_loss_equals_amplification_loss(self):
        # empirical L1 on the rotated first coordinate: the only coordinate
        # where the clone law and the true product law differ
        rng = stream(5, "cd")
        h, s2, r, reps = 1.0, 1.0, 2, 200_000
        o = build_rotation(r)
        x = h + math.sqrt(s2) * rng.standard_normal(reps)
        clones = gaussian_clone(x[:, None], r, s2 * np.eye(1), rng)
        firsts = (o @ clones)[:, 0, 0]
        p = GaussianShift([math.sqrt(r) * h], [[r * s2]])   # law of the projection
        q = GaussianShift([math.sqrt(r) * h], [[s2]])       # projection of the target
        a = np.maximum(0.0, 1.0 - np.exp(q.log_density(firsts[:, None]) - p.log_density(firsts[:, None])))
        ys = q.sample(reps, rng)
        b = np.maximum(0.0, 1.0 - np.exp(p.log_density(ys) - q.log_density(ys)))
        est = a.mean() + b.mean()
        se = math.sqrt(a.var() / reps + b.var() / reps)
        assert abs(est - TV_2_1) < 4 * se


class TestAmplifierLoss:
    def test_r_one_zeros(self):
        rep = amplifier_loss_mc(1.0, np.eye(1), [[0.0], [2.0]], 100, stream(0, "l"))
        assert rep.sup_value == 0.0

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
