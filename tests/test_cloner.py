"""Cloner pipeline: estimation grid, gain arithmetic, loss measurement."""

import copy
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import chdtrc, ndtr

from clonekit import (
    Bernoulli,
    ConfigurationError,
    ClonerConfig,
    GaussianLocation,
    GaussianShift,
    Poisson,
    clone,
    clone_loss_discrete,
    clone_loss_exact,
    estimate_theta,
    local_minimax_probe,
    stream,
    tv_isotropic,
)
from clonekit import cloner
from clonekit.cloner import (
    _count_law,
    _replicate_atoms,
    _rounding_atoms,
    _smoothed_tent,
    mixture_pmf,
    smoothed_score,
)
from clonekit.lawdist import EmpiricalLaw

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
        ("epsilon", math.inf),
    ])
    def test_non_finite_rejected(self, field, value):
        # epsilon = NaN used to run unsmoothed, with the epsilon = 0 loss;
        # epsilon = inf overflowed sizing the exact law's band
        kwargs = dict(n=10, r=2.0, delta=0.1, epsilon=0.01, seed=1)
        with pytest.raises(ConfigurationError, match=field):
            ClonerConfig(**{**kwargs, field: value})

    def test_overflowing_rn_rejected(self):
        # r * n = inf used to escape as OverflowError from round()
        with pytest.raises(ConfigurationError, match="clone ratio r"):
            ClonerConfig(n=400, r=1e308, delta=0.05, epsilon=0.01, seed=1)

    @pytest.mark.parametrize("n", [400.5, 400.0])
    def test_non_integer_n_rejected(self, n):
        # 400.5 gave n2 = 379.5 and 400.0 gave n2 = 380.0, and
        # `clone_loss_exact` then died with TypeError in math.gcd
        with pytest.raises(ConfigurationError, match="n must be an integer"):
            ClonerConfig(n=n, r=2.0, delta=0.05, epsilon=0.01, seed=1)

    def test_numpy_integer_n_accepted(self):
        cfg = ClonerConfig(n=np.int64(400), r=2.0, delta=0.05, epsilon=0.01, seed=1)
        assert (cfg.n2, cfg.rn) == (380, 800)


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
    score_sum = family.score_from_stat(that, score_data.size, float(score_data.sum()))
    smoothed = score_sum / family.fisher(that)
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
    output = family.conditional_resample(cfg.rn, resample_target, rng)
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
            out = fam.conditional_resample(n, target, stream(24, "bridge", i))
            z = fam.sigma * stream(24, "bridge", i).standard_normal(n)
            assert out.tobytes() == (target / n + (z - z.mean())).tobytes()


class TestCloneLoss:
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
            rep = clone_loss_discrete(Bernoulli(), 0.5, cfg, reps=500)
        assert rep.clip_rate > 0.05
        assert "clip rate" in caplog.text

    def test_rao_blackwell_beats_plugin_variance(self):
        # paired replicates: each one's RB two-atom pmf vs a count sampled
        # from it.  Both mixtures are unbiased for the exact output law, so
        # their expected summed squared error against it is their summed
        # cell variance, which RB lowers; the L1 of a mixture has no such
        # guarantee
        fam, theta, reps = Bernoulli(), 0.3, 500
        rb_sse = plug_sse = 0.0
        for trial in range(24):
            cfg = ClonerConfig(n=100, r=2.0, delta=0.05, epsilon=0.01,
                               seed=1000 + trial)
            exact, _ = _count_law(fam, theta, cfg.n2, cfg.rn, cfg.epsilon)
            exact_vec = np.zeros(cfg.rn + 1)
            exact_vec[exact.support] = exact.mass
            atoms, weights, _ = _replicate_atoms(fam, theta, cfg, reps)
            rb = mixture_pmf(atoms.ravel(), weights.ravel(), cfg.rn + 1, reps)
            rng = stream(cfg.seed, "plugin")
            pick = (rng.random(reps) < weights[:, 1]).astype(int)
            counts = atoms[np.arange(reps), pick]
            plug = np.bincount(counts, minlength=cfg.rn + 1) / reps
            rb_sse += np.sum((rb - exact_vec) ** 2)
            plug_sse += np.sum((plug - exact_vec) ** 2)
        assert rb_sse < plug_sse

    @pytest.mark.parametrize("family", [Bernoulli(), Poisson()], ids=lambda f: f.name)
    # one split: S2 sums the n2 draws left after the estimation stage
    @pytest.mark.parametrize("split", ["estimated"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_replicate_atoms_draw_s2_then_z(self, family, split, epsilon):
        # the stream gives all S2, then all Z, scored at the truth
        theta = 0.3 if family.name == "bernoulli" else 2.0
        cfg = ClonerConfig(n=400, r=2.0, delta=0.05, epsilon=epsilon, seed=34)
        reps = 500
        rng = stream(cfg.seed, "clone-loss", family.name, "", cfg.n)
        s2 = family.sample_stat(theta, cfg.n2, reps, rng)
        z = rng.standard_normal(reps) if epsilon > 0.0 else None
        target = smoothed_score(family, theta, cfg.n2, cfg.rn, epsilon, s2, z)[2]
        want = _rounding_atoms(family, cfg.rn, target)
        got = _replicate_atoms(family, theta, cfg, reps)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


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
        s2 = np.empty(reps, dtype=np.int64)
        z = stream(cfg.seed, "agree-z", family.name).standard_normal(reps)
        scalar = np.empty(reps)
        for i in range(reps):
            data = family.sample(theta, cfg.n, stream(cfg.seed, "agree", family.name, i))
            if frozen:
                that, score_data = theta, data
            else:
                that = estimate_theta(family, data[: cfg.n1])
                score_data = data[cfg.n1:]
            s2[i] = score_data.sum()
            scalar[i] = smoothed_score(
                family, that, score_data.size, cfg.rn, cfg.epsilon,
                float(score_data.sum()), float(z[i]) if cfg.epsilon > 0 else None,
            )[2]
        # the estimate cancels, so the array rule scores at the truth
        target = smoothed_score(family, theta, cfg.n if frozen else cfg.n2, cfg.rn,
                                cfg.epsilon, s2, z if cfg.epsilon > 0 else None)[2]
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
        # `estimate_theta` on samples that reach every branch of the snap,
        # pinned bit for bit (signed zeros included) to the values it and the
        # array snap of the loss route agreed on before that snap was removed
        rng = stream(21, "grid-scalar")
        digest = hashlib.sha256()
        for fam in (Bernoulli(), Poisson(), GaussianLocation(1.0)):
            for n1 in (1, 2, 4, 5, 9, 50, 400):
                snapped = np.array([estimate_theta(fam, d)
                                    for d in self._samples(fam, n1, rng)])
                digest.update(snapped.astype("<f8").tobytes())
        assert digest.hexdigest() == (
            "0bbc5d3184aab58eab9e52d924928617289763cf6b25105507a2ef96183d6742"
        )


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


class TestTargetIgnoresEstimate:
    """The statistic target of `smoothed_score` does not depend on the estimate.

    ``rn mean(theta_hat) + (rn / n2) (S2 - n2 mean(theta_hat))`` cancels to
    ``(rn / n2) S2``, which is what makes the exact count law a sum over
    the law of S2 alone.
    """

    @pytest.mark.parametrize("family,theta,estimates", [
        (Bernoulli(), 0.3, (0.02, 0.3, 0.5, 0.97)),
        (Poisson(), 2.0, (0.1, 2.0, 7.5, 40.0)),
        (GaussianLocation(1.3), 0.4, (-3.0, 0.0, 0.4, 5.0)),
    ], ids=lambda v: getattr(v, "name", ""))
    def test_target_is_the_same_for_every_estimate(self, family, theta, estimates):
        n2, rn, eps = 1520, 3200, 0.01
        rng = stream(40, "target-ignores-estimate", family.name)
        s2 = family.sample_stat(theta, n2, 500, rng).astype(float)
        z = rng.standard_normal(500)
        free = rn / n2 * s2 + rn * math.sqrt(eps / n2) * z
        for that in estimates:
            target = smoothed_score(family, that, n2, rn, eps, s2, z)[2]
            np.testing.assert_allclose(target, free, rtol=1e-11, atol=0.0)


def _law_on(law, cells):
    """The pmf of ``law``, whose support is consecutive, read on the integer ``cells``."""
    lo_k = law.support[0]
    out = np.zeros(len(cells))
    inside = (cells >= lo_k) & (cells <= law.support[-1])
    out[inside] = law.mass[cells[inside] - lo_k]
    return out


def _pearson_pvalue(counts, expected):
    """Pearson chi-square p-value, cells expecting fewer than 5 pooled into one."""
    keep = expected >= 5.0
    stat = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep])
                 + (counts[~keep].sum() - expected[~keep].sum()) ** 2
                 / max(expected[~keep].sum(), 1e-9))
    return float(chdtrc(int(keep.sum()), stat))


def _per_row_count_law(family, theta, n2, rn, epsilon, rows=256):
    """`_count_law` at epsilon > 0 with one `_smoothed_tent` row per S2 value.

    Each row is placed and weighted at its own `smoothed_score` centre, with
    no rows shared, and clipped into `Family.stat_bounds` cell by cell; the
    rows are added ``rows`` at a time, so large n stays small in memory.
    Returns the law on its cells and the clip rate.
    """
    s_law = family.stat_pmf(theta, n2)
    keep = s_law.mass >= cloner._MASS_FLOOR
    mass = s_law.mass[keep]
    centre = smoothed_score(family, theta, n2, rn, epsilon,
                            s_law.support[keep].astype(float), None)[2]
    sd = rn * math.sqrt(epsilon / n2)
    half = math.ceil(cloner._BAND_SD * sd) + 1
    start = np.floor(centre).astype(np.int64) - half
    lo, hi = family.stat_bounds(rn)
    first = int(min(max(lo, start.min()), hi))
    last = int(max(min(hi, start.max() + 2 * half + 1), lo))
    pmf = np.zeros(last - first + 1)
    for at in range(0, centre.size, rows):
        cells = start[at:at + rows, None] + np.arange(2 * half + 2)
        weights = (_smoothed_tent(centre[at:at + rows, None] - cells, sd)
                   * mass[at:at + rows, None])
        index = np.clip(cells, lo, hi).astype(np.int64) - first
        pmf += np.bincount(index.ravel(), weights.ravel(), minlength=pmf.size)
    outside = ndtr((lo - centre) / sd) + ndtr((centre - hi) / sd)
    return EmpiricalLaw(np.arange(first, first + pmf.size), pmf), float(mass @ outside)


class TestExactCountLaw:
    """`_count_law` and `clone_loss_exact` against independent references."""

    # (family, theta, n2, rn, epsilon, S2 period >= kept rows); the "frozen"
    # cases score all n draws, n2 = n
    @pytest.mark.parametrize("family,theta,n2,rn,epsilon,unshared", [
        # criterion 4's configs at n = 400: period 19, 149 and 460 rows
        (Bernoulli(), 0.3, 380, 800, 0.01, False),
        (Poisson(), 2.0, 380, 800, 0.01, False),
        # n = 101: gcd(rn, n2) = gcd(202, 95) = 1, period 95, every row its own
        (Bernoulli(), 0.3, 95, 202, 0.01, True),
        # period 1, targets pushed past both ends
        (Bernoulli(), 0.5, 2, 2, 5.0, False),
        (Poisson(), 0.5, 2, 2, 5.0, False),
        (Bernoulli(), 0.5, 1, 6, 5.0, False),
        (Poisson(), 0.5, 1, 6, 5.0, False),
        # n = 400, period 1
        (Poisson(), 2.0, 400, 800, 0.01, False),
    ], ids=["bernoulli-400", "poisson-400", "bernoulli-101", "bernoulli-clip-frozen",
            "poisson-clip-frozen", "bernoulli-clip", "poisson-clip", "poisson-400-frozen"])
    def test_shared_rows_match_per_row_weights(self, family, theta, n2, rn, epsilon,
                                               unshared):
        rows = int((family.stat_pmf(theta, n2).mass >= cloner._MASS_FLOOR).sum())
        assert (n2 // math.gcd(rn, n2) >= rows) == unshared
        law, clip_rate = _count_law(family, theta, n2, rn, epsilon)
        reference, reference_clip = _per_row_count_law(family, theta, n2, rn, epsilon)
        cells = np.arange(min(law.support[0], reference.support[0]),
                          max(law.support[-1], reference.support[-1]) + 1)
        np.testing.assert_allclose(_law_on(law, cells), _law_on(reference, cells),
                                   rtol=0, atol=1e-15)
        assert math.isclose(clip_rate, reference_clip, rel_tol=1e-12, abs_tol=0.0)

    # (family, theta, cfg): every value its own representative (gcd 1); the
    # gate's Poisson n = 1600 (period 19, step 40, n_q = 6 phases of a
    # 202-cell band); targets pushed past both ends
    @pytest.mark.parametrize("family,theta,cfg", [
        (Bernoulli(), 0.3, ClonerConfig(n=101, r=2.0, delta=0.05, epsilon=0.01, seed=1)),
        (Poisson(), 2.0, ClonerConfig(n=1600, r=2.0, delta=0.05, epsilon=0.01, seed=1)),
        (Bernoulli(), 0.5, ClonerConfig(n=3, r=2.0, delta=0.4, epsilon=5.0, seed=44)),
    ], ids=["bernoulli-101", "poisson-1600", "bernoulli-clip"])
    @pytest.mark.parametrize("block_cells", [1, 64])
    def test_blocking_does_not_change_the_law(self, monkeypatch, family, theta, cfg,
                                              block_cells):
        law, clip_rate = _count_law(family, theta, cfg.n2, cfg.rn, cfg.epsilon)
        monkeypatch.setattr(cloner, "_BLOCK_CELLS", block_cells)
        blocked, blocked_clip = _count_law(family, theta, cfg.n2, cfg.rn, cfg.epsilon)
        np.testing.assert_array_equal(blocked.support, law.support)
        np.testing.assert_allclose(blocked.mass, law.mass, rtol=0, atol=1e-15)
        assert math.isclose(blocked_clip, clip_rate, rel_tol=1e-12, abs_tol=0.0)

    # the gate's split and smoothing at n = 102 400: 7 072 kept values in 19
    # residue classes of up to 373 teeth, each band 1 580 cells
    _LARGE_N = (Poisson(), 2.0,
                ClonerConfig(n=102_400, r=2.0, delta=0.05, epsilon=0.01, seed=1))

    def test_large_n_matches_per_row_weights(self):
        family, theta, cfg = self._LARGE_N
        law, clip_rate = _count_law(family, theta, cfg.n2, cfg.rn, cfg.epsilon)
        reference, reference_clip = _per_row_count_law(family, theta, cfg.n2, cfg.rn,
                                                       cfg.epsilon)
        cells = np.arange(min(law.support[0], reference.support[0]),
                          max(law.support[-1], reference.support[-1]) + 1)
        np.testing.assert_allclose(_law_on(law, cells), _law_on(reference, cells),
                                   rtol=0, atol=1e-15)
        assert math.isclose(clip_rate, reference_clip, rel_tol=1e-12, abs_tol=0.0)

    # tracemalloc peak of one `_count_law` call at `_LARGE_N`, its statistic
    # law built beforehand and handed back by `stat_pmf` (building it peaks at
    # 6.6 MB over 200 767 cells, which would hide the assembly), after one
    # warm-up call, under the chunked gather-clip-scatter assembly that the
    # polyphase product replaced (numpy 2.4.6, Python 3.11.7): 1 865 137
    # bytes, the same on three calls.
    _LARGE_N_PEAK_BYTES = 1_865_137

    def test_large_n_peak_memory(self, monkeypatch):
        _, theta, cfg = self._LARGE_N
        family = Poisson()
        s_law = family.stat_pmf(theta, cfg.n2)
        monkeypatch.setattr(family, "stat_pmf", lambda theta, n: s_law)
        _count_law(family, theta, cfg.n2, cfg.rn, cfg.epsilon)
        tracemalloc.start()
        try:
            _count_law(family, theta, cfg.n2, cfg.rn, cfg.epsilon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * self._LARGE_N_PEAK_BYTES

    @pytest.mark.parametrize("family,theta", [(Bernoulli(), 0.3), (Poisson(), 0.7)],
                             ids=["bernoulli", "poisson"])
    def test_epsilon_zero_law_is_the_tent_enumeration(self, family, theta):
        # rn / n2 = 5 / 3: every third S2 value lands on an integer target
        cfg = ClonerConfig(n=30, r=1.5, delta=0.1, epsilon=0.0, seed=1)
        assert (cfg.rn, cfg.n2) == (45, 27)
        law, clip_rate = _count_law(family, theta, cfg.n2, cfg.rn, cfg.epsilon)
        s_law = family.stat_pmf(theta, cfg.n2)
        expected = {}
        for s, p in zip(s_law.support.tolist(), s_law.mass.tolist()):
            t = Fraction(cfg.rn * s, cfg.n2)
            for k in range(math.floor(t), math.floor(t) + 2):
                expected[k] = expected.get(k, 0.0) + p * float(max(0, 1 - abs(t - k)))
        cells = np.arange(min(law.support[0], min(expected)),
                          max(law.support[-1], max(expected)) + 1)
        reference = np.array([expected.get(k, 0.0) for k in cells.tolist()])
        np.testing.assert_allclose(_law_on(law, cells), reference, rtol=0, atol=1e-15)
        assert clip_rate == 0.0

    @pytest.mark.parametrize("family,theta,n", [
        (Bernoulli(), 0.3, 20), (Bernoulli(), 0.3, 400), (Poisson(), 2.0, 50),
        (Poisson(), 2.0, 400),
    ])
    def test_fixed_point_loss_is_zero(self, family, theta, n):
        # criterion 6's fixed point: all n draws scored, r = 1, epsilon = 0;
        # every target is its own statistic, so the law is that of S
        law, clip_rate = _count_law(family, theta, n, n, 0.0)
        target = family.stat_pmf(theta, n)
        cells = np.arange(min(law.support[0], target.support[0]),
                          max(law.support[-1], target.support[-1]) + 1)
        assert np.abs(_law_on(law, cells) - _law_on(target, cells)).sum() < 1e-15
        assert clip_rate == 0.0

    @pytest.mark.parametrize("sd", [0.05, 0.7, 8.2, 40.0])
    def test_cell_weights_match_quadrature(self, sd):
        centre = 3.37
        cells = np.arange(-4, 12)
        x = centre - cells
        weights = _smoothed_tent(x[None, :], sd)[0]

        def smoothed(x):  # integral of tent(u) times the density of x + sd Z at u
            def integrand(u):
                return (1.0 - abs(u)) * math.exp(-0.5 * ((u - x) / sd) ** 2) / (
                    sd * math.sqrt(2.0 * math.pi))
            kinks = sorted({-1.0, 0.0, 1.0, min(max(x, -1.0), 1.0)})
            return sum(quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                       for a, b in zip(kinks, kinks[1:]))

        reference = np.array([smoothed(v) for v in x])
        np.testing.assert_allclose(weights, reference, rtol=0, atol=1e-12)

    # the gate's split and smoothing, estimate included; then a smoothing
    # that dominates the spread of the target, so an error in it shows
    @pytest.mark.parametrize("epsilon", [0.01, 0.5])
    @pytest.mark.parametrize("family,theta", [(Bernoulli(), 0.3), (Poisson(), 2.0)],
                             ids=["bernoulli", "poisson"])
    def test_law_agrees_with_the_monte_carlo_mixture(self, family, theta, epsilon):
        # A replicate puts weight w_k in [0, 1] on cell k with E w_k = p_k, so
        # Var w_k <= p_k (1 - p_k): each cell of the Rao-Blackwellized
        # mixture varies at most as a multinomial cell does, and the Pearson
        # statistic has mean at most its cell count.  A p-value floor of 1e-6
        # on a chi-square with that many degrees of freedom is then a bound
        # that a correct law misses with probability of order 1e-6.
        cfg = ClonerConfig(n=100, r=2.0, delta=0.05, epsilon=epsilon, seed=41)
        reps = 400_000
        atoms, weights, _ = _replicate_atoms(family, theta, cfg, reps)
        law, _ = _count_law(family, theta, cfg.n2, cfg.rn, cfg.epsilon)
        first = min(law.support[0], atoms.min())
        size = max(law.support[-1], atoms.max()) + 1 - first
        mc = mixture_pmf((atoms - first).ravel(), weights.ravel(), size, reps)
        exact = _law_on(law, np.arange(first, first + size))
        assert _pearson_pvalue(mc * reps, exact * reps) > 1e-6

    @pytest.mark.parametrize("family,theta", [(Bernoulli(), 0.4), (Poisson(), 1.5)],
                             ids=["bernoulli", "poisson"])
    def test_law_agrees_with_materialized_clones(self, family, theta):
        # output counts of `clone` itself, estimation stage included
        cfg = ClonerConfig(n=12, r=2.0, delta=0.25, epsilon=0.05, seed=42)
        calls = 10_000
        rng = stream(cfg.seed, "exact-vs-clone", family.name)
        counts = np.array([
            clone(family, family.sample(theta, cfg.n, rng), cfg, rng).output.sum()
            for _ in range(calls)
        ])
        law, _ = _count_law(family, theta, cfg.n2, cfg.rn, cfg.epsilon)
        cells = np.arange(min(law.support[0], counts.min()),
                          max(law.support[-1], counts.max()) + 1)
        observed = np.bincount(counts - cells[0], minlength=cells.size).astype(float)
        assert _pearson_pvalue(observed, _law_on(law, cells) * calls) > 1e-6

    # (theta, cfg, r = 1): targets pushed past both ends by the noise, n2 = 1
    @pytest.mark.parametrize("family", [Bernoulli(), Poisson()], ids=lambda f: f.name)
    @pytest.mark.parametrize("theta,cfg,same_size", [
        (0.5, ClonerConfig(n=2, r=1.0, delta=0.5, epsilon=5.0, seed=43), True),
        (0.5, ClonerConfig(n=3, r=2.0, delta=0.4, epsilon=5.0, seed=44), False),
    ])
    def test_clip_rate_agrees_with_monte_carlo(self, family, theta, cfg, same_size):
        assert (cfg.rn == cfg.n) == same_size and cfg.n2 == 1
        exact = clone_loss_exact(family, theta, cfg).clip_rate
        reps = 20_000
        mc = clone_loss_discrete(family, theta, cfg, reps=reps, bootstrap=0).clip_rate
        assert exact > 0.05
        assert abs(mc - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / reps)

    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    def test_span_over_the_cap_refused(self, epsilon):
        # n2 = 1 and rn = 2e6: the kept S2 values 0 .. 6 put targets 2e6
        # cells apart, 1.2e7 cells at epsilon = 0 and 1.44e7 with the bands
        cfg = ClonerConfig(n=2, r=1e6, delta=0.5, epsilon=epsilon, seed=1)
        with pytest.raises(ConfigurationError, match="cells, over the cap"):
            _count_law(Poisson(), 0.01, cfg.n2, cfg.rn, cfg.epsilon)

    def test_clip_alarm_logged(self, caplog):
        cfg = ClonerConfig(n=2, r=1.0, delta=0.5, epsilon=5.0, seed=21)
        with caplog.at_level("WARNING", logger="clonekit.cloner"):
            clone_loss_exact(Bernoulli(), 0.5, cfg)
        assert "clone_loss_exact: clip rate" in caplog.text

    def test_subnormal_epsilon_matches_a_tiny_one(self):
        # the tent's sd is about 2e-159: m * m overflows, and exp takes it to 0
        losses = [
            clone_loss_exact(Bernoulli(), 0.3, ClonerConfig(
                n=100, r=2.0, delta=0.05, epsilon=epsilon, seed=1,
            )).loss
            for epsilon in (1e-320, 1e-300)
        ]
        assert losses[0] == losses[1]

    def test_continuous_family_rejected(self):
        cfg = ClonerConfig(n=16, r=1.0, delta=0.1, epsilon=0.0, seed=13)
        with pytest.raises(ConfigurationError, match="discrete family"):
            clone_loss_exact(GaussianLocation(1.0), 0.0, cfg)


class TestMinimaxProbe:
    def test_single_point_grid_matches_direct_loss(self):
        cfg = ClonerConfig(n=64, r=2.0, delta=0.1, epsilon=0.01, seed=15)
        probe = local_minimax_probe(Bernoulli(), 0.3, 0.0, [0.0], cfg)
        direct = clone_loss_exact(Bernoulli(), 0.3, cfg)
        assert probe.sup_loss == direct.loss

    def test_sup_dominates_center(self):
        cfg = ClonerConfig(n=64, r=2.0, delta=0.1, epsilon=0.01, seed=16)
        probe = local_minimax_probe(Bernoulli(), 0.3, 2.0, [-2.0, 0.0, 2.0], cfg)
        center = probe.losses[1].loss
        assert probe.sup_loss >= center
        assert len(probe.losses) == 3

    def test_without_reps_each_loss_is_exact(self):
        cfg = ClonerConfig(n=64, r=2.0, delta=0.1, epsilon=0.01, seed=15)
        probe = local_minimax_probe(Bernoulli(), 0.3, 1.0, [-1.0, 0.0, 1.0], cfg)
        assert probe.losses == tuple(
            clone_loss_exact(Bernoulli(), 0.3 + h / 8.0, cfg) for h in (-1.0, 0.0, 1.0)
        )

    def test_out_of_range_grid(self):
        cfg = ClonerConfig(n=64, r=2.0, delta=0.1, epsilon=0.01, seed=17)
        with pytest.raises(ValueError):
            local_minimax_probe(Bernoulli(), 0.3, 1.0, [2.0], cfg)

    def test_nan_radius_and_empty_grid(self):
        cfg = ClonerConfig(n=64, r=2.0, delta=0.1, epsilon=0.01, seed=17)
        with pytest.raises(ConfigurationError, match="radius a"):
            local_minimax_probe(Bernoulli(), 0.3, math.nan, [0.0], cfg)
        with pytest.raises(ConfigurationError, match="empty shift grid"):
            local_minimax_probe(Bernoulli(), 0.3, 1.0, [], cfg)
