"""Cloner pipeline: estimation grid, gain arithmetic, loss measurement."""

import copy
import hashlib
import math

import numpy as np
import pytest

from clonekit import (
    Bernoulli,
    ConfigurationError,
    ClonerConfig,
    GaussianLocation,
    GaussianShift,
    Poisson,
    clone,
    clone_loss_discrete,
    estimate_theta,
    local_minimax_probe,
    score_process,
    stream,
    tv_isotropic,
)
from clonekit import cloner
from clonekit.cloner import (
    _replicate_atoms,
    _rounding_atoms,
    _stat_targets,
    smoothed_score,
)

TV_2_1 = 0.3321281500  # || N(0, 1) - N(0, 2) ||_1, independent oracle


class TestConfig:
    def test_splits(self):
        cfg = ClonerConfig(n=100, r=2.0, delta=0.05, epsilon=0.01, seed=1)
        assert cfg.n1 == 5 and cfg.n2 == 95 and cfg.rn == 200

    def test_ceiling_keeps_stage_one_alive(self):
        cfg = ClonerConfig(n=10, r=1.0, delta=0.001, epsilon=0.0, seed=1)
        assert cfg.n1 == 1 and cfg.n2 == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            ClonerConfig(n=10, r=1.37, delta=0.1, epsilon=0.0, seed=1)  # rn not integer
        with pytest.raises(ValueError):
            ClonerConfig(n=10, r=0.5, delta=0.1, epsilon=0.0, seed=1)
        with pytest.raises(ValueError):
            ClonerConfig(n=10, r=2.0, delta=1.0, epsilon=0.0, seed=1)
        with pytest.raises(ValueError):
            ClonerConfig(n=2, r=2.0, delta=0.9, epsilon=0.0, seed=1)  # n2 = 0

    @pytest.mark.parametrize("field,value", [
        ("epsilon", math.nan), ("r", math.nan), ("r", math.inf), ("delta", math.nan),
    ])
    def test_non_finite_rejected(self, field, value):
        # epsilon = NaN used to run unsmoothed, with the epsilon = 0 loss
        kwargs = dict(n=10, r=2.0, delta=0.1, epsilon=0.01, seed=1)
        with pytest.raises(ConfigurationError, match=field):
            ClonerConfig(**{**kwargs, field: value})


class TestEstimateTheta:
    def test_bernoulli_on_grid(self):
        data = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0])
        assert estimate_theta(Bernoulli(), data) == pytest.approx(2 / 3)

    def test_poisson_on_grid(self):
        est = estimate_theta(Poisson(), np.array([2, 2, 2, 2]))
        assert est == pytest.approx(2.0)

    def test_grid_membership(self):
        for i in range(30):
            rng = stream(2, "grid", i)
            data = Bernoulli().sample(0.37, 50, rng)
            est = estimate_theta(Bernoulli(), data)
            step = 1 / math.sqrt(50)
            assert est / step == pytest.approx(round(est / step), abs=1e-9)
            assert 0.0 < est < 1.0

    def test_boundary_sample_stays_interior(self):
        est = estimate_theta(Bernoulli(), np.zeros(9, dtype=int))
        assert est == pytest.approx(1 / 3)
        est = estimate_theta(Bernoulli(), np.ones(9, dtype=int))
        assert est == pytest.approx(2 / 3)
        est = estimate_theta(Poisson(), np.zeros(4, dtype=int))
        assert est == pytest.approx(0.5)

    def test_non_finite_sample_mean_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="mean"):
                estimate_theta(GaussianLocation(1.0), np.array([0.0, bad]))

    def test_tie_rounds_toward_floor(self):
        # mean 0.25 with n = 4 sits exactly between grid points 0 and 0.5
        est = estimate_theta(GaussianLocation(1.0), np.array([0.25, 0.25, 0.25, 0.25]))
        assert est == 0.0

    def test_root_n_consistency(self):
        for n1 in (100, 400):
            exceed = 0
            reps = 10_000
            for i in range(reps):
                rng = stream(3, "cons", n1, i)
                data = Bernoulli().sample(0.3, n1, rng)
                est = estimate_theta(Bernoulli(), data)
                if math.sqrt(n1) * abs(est - 0.3) > 3:
                    exceed += 1
            # MLE tail 2 Phi(-2.5 / sqrt(.21)) plus grid slack: ~ 5e-8
            assert exceed / reps < 1e-3


class TestClonePipeline:
    def test_frozen_estimate_r1_is_resampling_fixed_point(self):
        for family, theta in ((Bernoulli(), 0.3), (Poisson(), 2.0)):
            cfg = ClonerConfig(n=24, r=1.0, delta=0.05, epsilon=0.0, seed=4)
            for i in range(50):
                rng = stream(5, "fix", family.name, i)
                data = family.sample(theta, cfg.n, rng)
                rec = clone(family, data, cfg, rng, theta_hat=theta)
                assert rec.output.sum() == data.sum()
                assert not rec.clipped

    def test_frozen_estimate_r1_gaussian(self):
        fam = GaussianLocation(1.0)
        cfg = ClonerConfig(n=16, r=1.0, delta=0.1, epsilon=0.0, seed=4)
        rng = stream(6, "fixg")
        data = fam.sample(0.5, cfg.n, rng)
        rec = clone(fam, data, cfg, rng, theta_hat=0.5)
        assert rec.output.mean() == pytest.approx(data.mean(), rel=1e-12)

    def test_record_arithmetic_consistency(self):
        fam = Bernoulli()
        cfg = ClonerConfig(n=400, r=2.0, delta=0.05, epsilon=0.01, seed=7)
        rng = stream(7, "arith")
        data = fam.sample(0.3, cfg.n, rng)
        rec = clone(fam, data, cfg, rng)
        assert rec.output.size == cfg.rn
        # the target solves the affine score relation at the estimate
        assert rec.target_stat == pytest.approx(
            cfg.rn * rec.theta_hat + math.sqrt(cfg.rn) * rec.amplified, rel=1e-10
        )
        assert abs(rec.output.sum() - rec.target_stat) <= 1.0

    def test_gain_centers_amplified_score(self):
        # frozen estimate at theta + h/sqrt(n): X mean is -sqrt(rn/n2) h
        fam, theta, h, reps = Bernoulli(), 0.5, 1.0, 10_000
        cfg = ClonerConfig(n=256, r=2.0, delta=0.25, epsilon=0.0, seed=8)
        frozen = theta + h / math.sqrt(cfg.n)
        xs = np.empty(reps)
        for i in range(reps):
            rng = stream(8, "gain", i)
            data = fam.sample(theta, cfg.n, rng)
            xs[i] = clone(fam, data, cfg, rng, theta_hat=frozen).amplified
        expected = -math.sqrt(cfg.rn / cfg.n) * h  # frozen mode scores on all n
        se = xs.std() / math.sqrt(reps)
        assert abs(xs.mean() - expected) < 4 * se

    def test_gaussian_output_mean_pinned_to_target(self):
        fam = GaussianLocation(1.0)
        cfg = ClonerConfig(n=400, r=2.0, delta=0.05, epsilon=0.01, seed=22)
        rng = stream(22, "gmean")
        data = fam.sample(1.0, cfg.n, rng)
        rec = clone(fam, data, cfg, rng)
        # the bridge construction pins the output mean at the real target
        assert rec.output.mean() == pytest.approx(rec.target_stat / cfg.rn, rel=1e-12)
        assert rec.output.size == cfg.rn

    def test_cloning_loss_equals_amplification_loss(self):
        # frozen at 0 with epsilon = 0, the target is exactly r S: the output
        # sum is N(rn theta, r^2 n sigma^2) where rn i.i.d. draws would sum to
        # N(rn theta, rn sigma^2), so the loss is the amplifier's at r = 2, m = 1
        fam, theta, reps = GaussianLocation(1.5), 0.7, 20_000
        cfg = ClonerConfig(n=2, r=2.0, delta=0.5, epsilon=0.0, seed=5)
        stats, sums = np.empty(reps), np.empty(reps)
        for i in range(reps):
            rng = stream(cfg.seed, "clone-amp", i)
            data = fam.sample(theta, cfg.n, rng)
            stats[i] = data.sum()
            sums[i] = clone(fam, data, cfg, rng, theta_hat=0.0).output.sum()
        assert np.abs(sums - cfg.r * stats).max() < 1e-12
        mean = cfg.rn * theta
        p = GaussianShift([mean], [[cfg.r * cfg.rn * fam.sigma**2]])  # output sum
        q = GaussianShift([mean], [[cfg.rn * fam.sigma**2]])          # target sum
        xs = sums[:, None]
        a = np.maximum(0.0, 1.0 - np.exp(q.log_density(xs) - p.log_density(xs)))
        ys = q.sample(reps, stream(cfg.seed, "clone-amp-target"))
        b = np.maximum(0.0, 1.0 - np.exp(p.log_density(ys) - q.log_density(ys)))
        se = math.sqrt(a.var() / reps + b.var() / reps)
        assert abs(a.mean() + b.mean() - TV_2_1) < 4 * se

    def test_length_check(self):
        cfg = ClonerConfig(n=10, r=2.0, delta=0.2, epsilon=0.0, seed=9)
        with pytest.raises(ValueError):
            clone(Bernoulli(), np.ones(9, dtype=int), cfg, stream(0, "len"))


def _reference_clone(family, data, cfg, rng, theta_hat=None):
    """`clone` written out through the public LAN and family steps.

    Estimation, smoothed score, gain, inversion of `score_from_stat`,
    randomized rounding, conditional resampling: the pipeline step by step,
    drawing from ``rng`` in the same order as `clone`.
    """
    if theta_hat is None:
        that = estimate_theta(family, data[: cfg.n1])
        score_data = data[cfg.n1:]
    else:
        that, score_data = theta_hat, data
    smoothed = score_process(family, that, score_data) / family.fisher(that)
    if cfg.epsilon > 0.0:
        smoothed += math.sqrt(cfg.epsilon) * rng.standard_normal()
    amplified = math.sqrt(cfg.rn / score_data.size) * smoothed
    # the rn-outcome score sum is J * amplified; invert score_from_stat
    score_sum = family.fisher(that) * amplified
    target = (cfg.rn * family.mean(that)
              + math.sqrt(cfg.rn) * score_sum / family.fisher(that))
    resample_target = target
    if family.discrete:
        resample_target = family.round_stat(target, cfg.rn, rng)[0]
    output = family.conditional_resample(that, cfg.rn, resample_target, rng)
    return smoothed, amplified, target, output


class TestCloneMatchesReference:
    """`clone`'s single-pass target against the step-by-step pipeline."""

    @pytest.mark.parametrize("family,theta", [
        (Bernoulli(), 0.3), (Poisson(), 2.0), (GaussianLocation(1.0), 0.0),
    ], ids=lambda v: getattr(v, "name", None))
    @pytest.mark.parametrize("frozen", [False, True], ids=["estimated", "frozen"])
    def test_outputs_identical_and_targets_agree(self, family, theta, frozen):
        if frozen:
            cfg = ClonerConfig(n=20, r=1.0, delta=0.05, epsilon=0.0, seed=40)
        else:
            cfg = ClonerConfig(n=400, r=2.0, delta=0.05, epsilon=0.01, seed=41)
        frozen_theta = theta if frozen else None
        for i in range(2_000):
            data = family.sample(theta, cfg.n, stream(cfg.seed, "ref-data", family.name, i))
            rec = clone(family, data, cfg, stream(cfg.seed, "ref", family.name, i),
                        theta_hat=frozen_theta)
            smoothed, amplified, target, output = _reference_clone(
                family, data, cfg, stream(cfg.seed, "ref", family.name, i), frozen_theta,
            )
            assert rec.output.dtype == output.dtype
            assert rec.output.tobytes() == output.tobytes()
            assert rec.target_stat == pytest.approx(target, rel=1e-12, abs=0.0)
            assert rec.smoothed_value == pytest.approx(smoothed, rel=1e-12, abs=0.0)
            assert rec.amplified == pytest.approx(amplified, rel=1e-12, abs=0.0)


class TestByteIdentity:
    """Outputs that a faster `stream` or `clone` must leave unchanged."""

    def test_bernoulli_outputs_pinned(self):
        # 150 calls at criterion 6's fixed point and 150 at n = 400, r = 2;
        # integer outputs only, so the digest holds on every platform
        fam, digest = Bernoulli(), hashlib.sha256()
        for cfg, frozen in (
            (ClonerConfig(n=20, r=1.0, delta=0.05, epsilon=0.0, seed=23), True),
            (ClonerConfig(n=400, r=2.0, delta=0.05, epsilon=0.01, seed=23), False),
        ):
            for i in range(150):
                rng = stream(cfg.seed, "byte-identity", cfg.n, i)
                data = fam.sample(0.3, cfg.n, rng)
                rec = clone(fam, data, cfg, rng, theta_hat=0.3 if frozen else None)
                digest.update(rec.output.astype("<i8").tobytes())
        assert digest.hexdigest() == (
            "455613d7159be5327bfac5b1a3b29b6e816544f6c5feaf8d7231cd80164aa354"
        )

    def test_gaussian_bridge_matches_formula_bitwise(self):
        fam = GaussianLocation(1.7)
        for i, (n, target) in enumerate([(2, 4.0), (16, -3.25), (800, 123.456),
                                         (801, 1e-3)]):
            out = fam.conditional_resample(0.0, n, target, stream(24, "bridge", i))
            z = fam.sigma * stream(24, "bridge", i).standard_normal(n)
            assert out.tobytes() == (target / n + (z - z.mean())).tobytes()


class TestCloneLoss:
    def test_fixed_point_loss_shrinks_with_reps(self):
        cfg = ClonerConfig(n=20, r=1.0, delta=0.05, epsilon=0.0, seed=10)
        small = clone_loss_discrete(Bernoulli(), 0.3, cfg, reps=500, theta_hat=0.3)
        large = clone_loss_discrete(Bernoulli(), 0.3, cfg, reps=20_000, theta_hat=0.3)
        assert large.loss < small.loss
        assert large.loss < 0.05  # plug-in sampling error only

    def test_bernoulli_loss_near_reference(self):
        cfg = ClonerConfig(n=400, r=2.0, delta=0.05, epsilon=0.01, seed=11)
        rep = clone_loss_discrete(Bernoulli(), 0.3, cfg, reps=4000)
        ref = tv_isotropic(2 / 0.95, 1)
        assert abs(rep.loss - ref) < 0.08
        assert rep.ci_low < rep.loss < rep.ci_high
        assert rep.clip_rate < 0.01

    def test_rerun_gives_identical_report(self):
        cfg = ClonerConfig(n=64, r=2.0, delta=0.1, epsilon=0.01, seed=12)
        a = clone_loss_discrete(Bernoulli(), 0.4, cfg, reps=400)
        b = clone_loss_discrete(Bernoulli(), 0.4, cfg, reps=400)
        assert a == b

    def test_continuous_family_rejected(self):
        cfg = ClonerConfig(n=16, r=1.0, delta=0.1, epsilon=0.0, seed=13)
        with pytest.raises(ValueError):
            clone_loss_discrete(GaussianLocation(1.0), 0.0, cfg, reps=100)

    def test_insensitive_to_small_epsilon(self):
        # smoothing below 0.01 moves the loss within the confidence slack
        losses = []
        for eps in (0.01, 0.001):
            cfg = ClonerConfig(n=400, r=2.0, delta=0.05, epsilon=eps, seed=20)
            losses.append(clone_loss_discrete(Bernoulli(), 0.3, cfg, reps=4000))
        slack = sum((rep.ci_high - rep.ci_low) / 2 for rep in losses)
        assert abs(losses[0].loss - losses[1].loss) < slack

    def test_clip_alarm_logged(self, caplog):
        # oversized smoothing noise at tiny n pushes targets out of range
        cfg = ClonerConfig(n=2, r=1.0, delta=0.5, epsilon=5.0, seed=21)
        with caplog.at_level("WARNING", logger="clonekit.cloner"):
            rep = clone_loss_discrete(Bernoulli(), 0.5, cfg, reps=500, theta_hat=0.5)
        assert rep.clip_rate > 0.05
        assert "clip rate" in caplog.text

    def test_rao_blackwell_beats_plugin_variance(self):
        # paired streams: same replicate targets, RB pmf vs sampled counts
        fam, theta = Bernoulli(), 0.3
        rb_losses, plug_losses = [], []
        for trial in range(24):
            cfg = ClonerConfig(n=100, r=2.0, delta=0.05, epsilon=0.01,
                               seed=1000 + trial)
            reps = 500
            rep = clone_loss_discrete(fam, theta, cfg, reps=reps, bootstrap=0)
            rb_losses.append(rep.loss)
            atoms, weights, _ = _replicate_atoms(fam, theta, cfg, reps)
            target = fam.stat_pmf(theta, cfg.rn)
            rng = stream(cfg.seed, "plugin")
            pick = (rng.random(reps) < weights[:, 1]).astype(int)
            counts = atoms[np.arange(reps), pick]
            pmf = np.bincount(counts, minlength=cfg.rn + 1) / reps
            target_vec = np.zeros(max(cfg.rn + 1, target.support.max() + 1))
            target_vec[target.support] = target.mass
            pmf_padded = np.zeros_like(target_vec)
            pmf_padded[: cfg.rn + 1] = pmf
            plug_losses.append(np.abs(pmf_padded - target_vec).sum())
        assert np.var(rb_losses) < np.var(plug_losses)


class _FixedRng:
    """Stands in for a Generator with a fixed uniform draw."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


# (theta, cfg, frozen): estimated; exact-integer targets (r = 1, epsilon = 0,
# frozen estimate); targets clipped at the bounds (oversized noise, tiny n)
_AGREEMENT_CASES = [
    (0.3, ClonerConfig(n=400, r=2.0, delta=0.05, epsilon=0.01, seed=30), False),
    (0.3, ClonerConfig(n=24, r=1.0, delta=0.05, epsilon=0.0, seed=31), True),
    (0.5, ClonerConfig(n=2, r=1.0, delta=0.5, epsilon=5.0, seed=32), True),
    (0.5, ClonerConfig(n=3, r=2.0, delta=0.4, epsilon=5.0, seed=33), False),
]


class TestStatisticLevelAgreement:
    """The array pipeline of the loss reproduces the scalar one of `clone`."""

    @pytest.mark.parametrize("family", [Bernoulli(), Poisson()], ids=lambda f: f.name)
    @pytest.mark.parametrize("theta,cfg,frozen", _AGREEMENT_CASES)
    def test_targets_and_atoms_match_scalar_rule(self, family, theta, cfg, frozen):
        theta = 2.0 * theta if family.name == "poisson" else theta
        reps = 300
        s1, s2 = np.empty(reps, dtype=np.int64), np.empty(reps, dtype=np.int64)
        z = stream(cfg.seed, "agree-z", family.name).standard_normal(reps)
        scalar = np.empty(reps)
        for i in range(reps):
            data = family.sample(theta, cfg.n, stream(cfg.seed, "agree", family.name, i))
            if frozen:
                that, score_data = theta, data
            else:
                that = estimate_theta(family, data[: cfg.n1])
                score_data = data[cfg.n1:]
            s1[i], s2[i] = data[: cfg.n1].sum(), score_data.sum()
            scalar[i] = smoothed_score(
                family, that, score_data.size, cfg.rn, cfg.epsilon,
                float(score_data.sum()), float(z[i]) if cfg.epsilon > 0 else None,
            )[2]
        target = _stat_targets(family, cfg, None if frozen else s1, s2,
                               z if cfg.epsilon > 0 else None,
                               theta if frozen else None)
        np.testing.assert_allclose(target, scalar, rtol=1e-12, atol=0.0)

        atoms, weights, clipped = _rounding_atoms(family, cfg.rn, target)
        for t, (k0, k1), (w0, w1), clip in zip(scalar, atoms, weights, clipped):
            # u just below 1 keeps the floor, u = 0 takes the ceiling
            low, low_clip = family.round_stat(t, cfg.rn, _FixedRng(u=1.0 - 1e-16))
            high, high_clip = family.round_stat(t, cfg.rn, _FixedRng(u=0.0))
            assert w0 + w1 == 1.0 and w0 > 0.0
            assert k0 == low
            if w1 > 0.0:
                assert k1 == high
                assert w1 == pytest.approx(t - math.floor(t), rel=1e-12, abs=1e-12)
            else:
                assert high == low
            assert clip == (low_clip or (w1 > 0.0 and high_clip))
        if cfg.epsilon == 0.0:
            # r = 1 at the frozen truth: every target is the integer S2
            assert np.all(weights[:, 1] == 0.0) and np.all(atoms[:, 0] == s2)
        if cfg.epsilon == 5.0:
            assert clipped.any()

    @staticmethod
    def _samples(family, n1, rng):
        """Estimation samples of size n1 that reach every branch of the snap."""
        # discrete: every sum up to n1 (Bernoulli) or 3 n1 (Poisson), so the
        # clip margins, the half-grid ties and n1 = 1 with no interior point
        if isinstance(family, Bernoulli):
            return [np.r_[np.ones(k, dtype=int), np.zeros(n1 - k, dtype=int)]
                    for k in range(n1 + 1)]
        if isinstance(family, Poisson):
            return [np.r_[k, np.zeros(n1 - 1, dtype=int)] for k in range(3 * n1 + 1)]
        step = 1.0 / math.sqrt(n1)
        # exact half-grid ties on both sides of zero, a -0.0 snap index
        # (means in (-step / 2, 0)), then random means
        means = [(k + 0.5) * step for k in range(-3, 3)] + [-0.4 * step, -0.0, 0.0]
        samples = [np.full(n1, mu) for mu in means]
        samples += [rng.normal(rng.uniform(-2.0, 2.0), 1.0, n1) for _ in range(40)]
        return samples

    def test_grid_estimate_matches_scalar(self):
        # `estimate_theta` on a sample and the array snap of `_stat_targets`
        # on its sum agree bit for bit, signed zeros included
        rng = stream(21, "grid-scalar")
        for fam in (Bernoulli(), Poisson(), GaussianLocation(1.0)):
            for n1 in (1, 2, 4, 5, 9, 50, 400):
                samples = self._samples(fam, n1, rng)
                snapped = np.array([estimate_theta(fam, d) for d in samples])
                s1 = np.array([d.sum() for d in samples])
                grid = cloner._grid_estimate(fam, s1 / n1, n1)
                np.testing.assert_array_equal(snapped, grid)
                assert np.array_equal(np.signbit(snapped), np.signbit(grid))
                cfg = ClonerConfig(n=4 * n1, r=1.0, delta=0.25, epsilon=0.0, seed=1)
                assert cfg.n1 == n1
                # r = 1, epsilon = 0 and S2 = n2 theta_hat: the target is rn theta_hat
                target = _stat_targets(fam, cfg, s1, snapped * cfg.n2, None)
                np.testing.assert_array_equal(target, snapped * cfg.rn)


class TestSequenceVsCountLevel:
    def test_brute_force_enumeration(self):
        # n = 2, rn = 4: the output sequence law is uniform given the count,
        # so the sequence-level L1 against the product law collapses exactly
        # to the count-level L1
        fam, theta = Bernoulli(), 0.3
        cfg = ClonerConfig(n=2, r=2.0, delta=0.5, epsilon=0.01, seed=14)
        rep_atoms, rep_weights, _ = _replicate_atoms(fam, theta, cfg, 4000)
        out_pmf = np.zeros(5)
        for (k0, k1), (w0, w1) in zip(rep_atoms, rep_weights):
            out_pmf[k0] += w0
            out_pmf[k1] += w1
        out_pmf /= out_pmf.sum()
        target = fam.stat_pmf(theta, 4)
        count_l1 = np.abs(out_pmf - target.mass).sum()
        seq_l1 = 0.0
        for bits in range(16):
            seq = [(bits >> i) & 1 for i in range(4)]
            k = sum(seq)
            comb = math.comb(4, k)
            seq_l1 += abs(out_pmf[k] / comb - theta**k * (1 - theta) ** (4 - k))
        assert seq_l1 == pytest.approx(count_l1, abs=1e-12)


class TestBootstrapMatchesPerResampleLoop:
    # Bernoulli at an interior theta, then three configs whose clipping puts
    # both atoms of a replicate in one cell
    @pytest.mark.parametrize("family,theta,n,epsilon,shared", [
        (Bernoulli(), 0.3, 100, 0.01, False),
        (Bernoulli(), 0.02, 40, 0.5, True),
        (Bernoulli(), 0.97, 30, 0.5, True),
        (Poisson(), 0.05, 20, 0.5, True),
    ], ids=["bernoulli", "bernoulli-low-clipped", "bernoulli-high-clipped",
            "poisson-clipped"])
    def test_losses_bit_identical(self, monkeypatch, family, theta, n, epsilon, shared):
        def per_resample(index, weights, target_vec, reps, bootstrap, rng):
            losses = np.empty(bootstrap)
            for b in range(bootstrap):
                mult = np.bincount(rng.integers(0, reps, reps), minlength=reps)
                pmf = np.bincount(index, weights=(weights * mult[:, None]).ravel(),
                                  minlength=target_vec.size) / reps
                losses[b] = np.abs(pmf - target_vec).sum()
            return losses

        calls, quantiled = [], []
        bootstrap_ci, quantile = cloner._bootstrap_ci, np.quantile

        def recording_ci(index, weights, target_vec, reps, bootstrap, rng):
            calls.append((index, weights, target_vec, reps, bootstrap, copy.deepcopy(rng)))
            return bootstrap_ci(index, weights, target_vec, reps, bootstrap, rng)

        def recording_quantile(a, q, *args, **kwargs):
            quantiled.append(np.array(a))
            return quantile(a, q, *args, **kwargs)

        monkeypatch.setattr(cloner, "_bootstrap_ci", recording_ci)
        monkeypatch.setattr(np, "quantile", recording_quantile)
        cfg = ClonerConfig(n=n, r=2.0, delta=0.05, epsilon=epsilon, seed=3)
        rep = clone_loss_discrete(family, theta, cfg, reps=2000)
        monkeypatch.undo()
        (call,) = calls
        index = call[0].reshape(-1, 2)
        assert (index[:, 0] == index[:, 1]).any() == shared
        expected = per_resample(*call)
        assert quantiled[0].tobytes() == expected.tobytes()
        assert (rep.ci_low, rep.ci_high) == (
            float(np.quantile(expected, 0.025)), float(np.quantile(expected, 0.975))
        )


class TestMinimaxProbe:
    def test_single_point_grid_matches_direct_loss(self):
        cfg = ClonerConfig(n=64, r=2.0, delta=0.1, epsilon=0.01, seed=15)
        probe = local_minimax_probe(Bernoulli(), 0.3, 0.0, [0.0], cfg, reps=300)
        direct = clone_loss_discrete(Bernoulli(), 0.3, cfg, reps=300, label="h0")
        assert probe.sup_loss == direct.loss

    def test_sup_dominates_center(self):
        cfg = ClonerConfig(n=64, r=2.0, delta=0.1, epsilon=0.01, seed=16)
        probe = local_minimax_probe(
            Bernoulli(), 0.3, 2.0, [-2.0, 0.0, 2.0], cfg, reps=300
        )
        center = probe.losses[1].loss
        assert probe.sup_loss >= center
        assert len(probe.losses) == 3

    def test_out_of_range_grid(self):
        cfg = ClonerConfig(n=64, r=2.0, delta=0.1, epsilon=0.01, seed=17)
        with pytest.raises(ValueError):
            local_minimax_probe(Bernoulli(), 0.3, 1.0, [2.0], cfg, reps=10)

    def test_nan_radius_and_empty_grid(self):
        cfg = ClonerConfig(n=64, r=2.0, delta=0.1, epsilon=0.01, seed=17)
        with pytest.raises(ConfigurationError, match="radius a"):
            local_minimax_probe(Bernoulli(), 0.3, math.nan, [0.0], cfg, reps=10)
        with pytest.raises(ConfigurationError, match="empty shift grid"):
            local_minimax_probe(Bernoulli(), 0.3, 1.0, [], cfg, reps=10)
