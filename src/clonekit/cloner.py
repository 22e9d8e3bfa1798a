"""The two-stage (n, rn) cloner and its loss measurement.

Pipeline, given n i.i.d. draws from an unknown member of a smooth family:

  1. estimate the parameter from the first ``n1 = ceil(delta n)`` draws and
     snap it to the ``1/sqrt(n1)`` grid (`estimate_theta`);
  2. form the noise-smoothed, inverse-Fisher-scaled score of the remaining
     ``n2`` draws at the estimate, and amplify it with gain
     ``sqrt(r n / n2)`` (the integrality-robust version of
     ``sqrt(r / (1 - delta))``);
  3. invert the amplified value through the affine score/statistic relation
     into a statistic target for ``rn`` outcomes, randomize-round it, and
     draw the output sample from the exact conditional law given that
     statistic.

Output and target share the conditional law given the statistic, so for the
discrete families the sequence-level L1 distance to the true rn-fold product
equals the distance between the statistic laws.  `clone_loss_discrete`
measures it at the statistic level: stage 1 reads only the sum S1 of the n1
estimation draws and stages 2-3 only the sum S2 of the n2 scoring draws, so
each replicate is drawn as (S1, S2, Z) from the statistic laws and the
smoothing noise, all replicates at once, and the output count law averages
their Rao-Blackwellized rounding pmfs.  `clone`, which materializes the
output, and the statistic-level loss share one target formula
(`smoothed_score`), evaluated on one replicate's floats or on arrays of
replicates.  The loss then runs in three named stages: `_rounding_atoms`
(each replicate's two-atom rounding pmf), `mixture_pmf` (their average, the
output count law) and `pmf_l1` (its distance to the exact target law).  As n
grows (at fixed delta and epsilon) the loss approaches the Gaussian amplifier
constant at gain ratio ``r / (1 - delta)``.

The loss reports hold only what the call computed: `CloneLossReport` the
loss, its bootstrap CI and the clip rate, and `MinimaxProbeReport` one such
report per shift in the caller's grid order and their supremum.  Sample
sizes, replicate counts and the shift grid stay with the caller.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .errors import ConfigurationError
from .families import Family
from .streams import stream

logger = logging.getLogger(__name__)

_CLIP_ALARM = 0.05


@dataclass(frozen=True)
class ClonerConfig:
    """Pipeline parameters: sample size, clone ratio, split, smoothing, seed."""

    n: int
    r: float
    delta: float
    epsilon: float
    seed: int

    def __post_init__(self) -> None:
        if not self.n >= 2:
            raise ConfigurationError("n must be at least 2")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError("delta must lie in (0, 1)")
        if not self.epsilon >= 0.0:
            raise ConfigurationError(f"epsilon must be nonnegative, got {self.epsilon}")
        if not 1.0 <= self.r < math.inf:
            raise ConfigurationError(f"clone ratio r must lie in [1, inf), got {self.r}")
        rn = self.r * self.n
        if abs(rn - round(rn)) > 1e-9:
            raise ConfigurationError(f"r * n = {rn} is not an integer")
        if self.n1 < 1 or self.n2 < 1:
            raise ConfigurationError("both pipeline stages need at least one sample")

    @property
    def n1(self) -> int:
        return math.ceil(self.delta * self.n)

    @property
    def n2(self) -> int:
        return self.n - self.n1

    @property
    def rn(self) -> int:
        return round(self.r * self.n)


class CloneRunRecord(NamedTuple):
    """What one `clone` call computed, and its rn-fold output sample.

    Immutable; a named tuple because `clone` builds one per call and a tuple
    is about half the cost of a frozen dataclass to build.
    """

    theta_hat: float
    smoothed_value: float
    amplified: float
    target_stat: float
    output: np.ndarray
    clipped: bool


def _grid_estimate(family: Family, mean, n: int):
    """The snap of `estimate_theta`, elementwise on sample means over n draws."""
    mle = family.clip_theta(mean, n)
    step = 1.0 / math.sqrt(n)
    lo, hi = family.param_lo, family.param_hi
    k_min = math.floor(lo / step) + 1 if math.isfinite(lo) else -math.inf
    k_max = math.ceil(hi / step) - 1 if math.isfinite(hi) else math.inf
    if k_min > k_max:
        # no grid point is strictly interior (n = 1 on a bounded domain):
        # keep the clipped estimate rather than leave the domain
        return mle
    # + 0.0 turns ceil's -0.0 into the integer grid index 0
    k = np.ceil(mle / step - 0.5) + 0.0
    return np.minimum(np.maximum(k, k_min), k_max) * step


def estimate_theta(family: Family, data: np.ndarray) -> float:
    """Grid-snapped maximum likelihood estimate.

    The MLE is the sample mean for every built-in; it is clipped into the
    interior margin, then rounded to the nearest multiple of
    ``1 / sqrt(len(data))`` with half-ties toward the floor (deterministic
    across platforms), and finally kept strictly inside the domain so the
    Fisher information stays bounded.
    """
    data = np.asarray(data, dtype=float)
    n = data.size
    if n == 0:
        raise ConfigurationError("empty estimation sample")
    return float(_grid_estimate(family, data.mean(), n))


def smoothed_score(family: Family, theta_hat, n2: int, rn: int, epsilon: float,
                   s2, z):
    """The smoothed score of step 2, its amplification and step 3's real target.

    ``s2`` is the sum of the ``n2`` scoring draws and ``z`` the smoothing
    noise (None when epsilon = 0).  Returns the smoothed score (J^{-1} times
    the normalized score, plus ``sqrt(epsilon) z``), its amplification by
    the gain ``sqrt(rn / n2)``, and the statistic target for ``rn`` outcomes
    whose inverse-Fisher-scaled score is the amplified value.  The Fisher
    scalings of the score and of its inversion cancel, so only the family
    mean enters.  Works on Python floats (`clone`) and on arrays of
    replicates (`_stat_targets`).
    """
    mean = family.mean(theta_hat)
    smoothed = (s2 - n2 * mean) / math.sqrt(n2)
    if z is not None:
        smoothed = smoothed + math.sqrt(epsilon) * z
    amplified = math.sqrt(rn / n2) * smoothed
    return smoothed, amplified, rn * mean + math.sqrt(rn) * amplified


def clone(
    family: Family,
    data: np.ndarray,
    cfg: ClonerConfig,
    rng: np.random.Generator,
    theta_hat: float | None = None,
) -> CloneRunRecord:
    """Run the full pipeline and materialize the rn-fold output sample.

    ``theta_hat`` freezes the estimate (test hook); with it the estimation
    split is unnecessary and the whole sample feeds the score stage, so with
    r = 1 and epsilon = 0 the pipeline reduces to resampling the data on its
    own statistic and is exactly law-preserving.
    """
    data = np.asarray(data)
    if data.size != cfg.n:
        raise ConfigurationError(f"expected {cfg.n} samples, got {data.size}")
    if theta_hat is None:
        that = estimate_theta(family, data[: cfg.n1])
        score_data = data[cfg.n1:]
    else:
        family.require_in_domain(theta_hat)
        that = float(theta_hat)
        score_data = data
    rn, n2 = cfg.rn, score_data.size
    z = rng.standard_normal() if cfg.epsilon > 0.0 else None
    smoothed, amplified, target = smoothed_score(
        family, that, n2, rn, cfg.epsilon, float(score_data.sum()), z
    )
    clipped = False
    resample_target = target
    if family.discrete:
        # the one rounding and clipping of the target; the resampler takes the count
        resample_target, clipped = family.round_stat(target, rn, rng)
    output = family.conditional_resample(that, rn, resample_target, rng)
    return CloneRunRecord(
        theta_hat=that,
        smoothed_value=smoothed,
        amplified=amplified,
        target_stat=target,
        output=output,
        clipped=clipped,
    )


@dataclass(frozen=True)
class CloneLossReport:
    """L1 distance between output and target statistic laws, with CI."""

    loss: float
    ci_low: float
    ci_high: float
    clip_rate: float


def _stat_targets(family: Family, cfg: ClonerConfig, s1, s2, z,
                  theta_hat: float | None = None) -> np.ndarray:
    """Real statistic targets of replicates with sums ``s1``, ``s2`` and noise ``z``.

    The array form of `estimate_theta` on the n1 estimation draws (sum
    ``s1``) followed by `smoothed_score` on the scoring draws (sum ``s2``;
    ``z`` is None when epsilon = 0).
    """
    if theta_hat is None:
        that = _grid_estimate(family, s1 / cfg.n1, cfg.n1)
        n2 = cfg.n2
    else:
        that, n2 = theta_hat, cfg.n
    return smoothed_score(family, that, n2, cfg.rn, cfg.epsilon, s2, z)[2]


def _rounding_atoms(family: Family, rn: int, target: np.ndarray) -> tuple[
    np.ndarray, np.ndarray, np.ndarray
]:
    """Output-count pmf of `Family.round_stat` given each real target.

    Returns the two clipped atoms ``floor``, ``floor + 1`` and their weights,
    both of shape (reps, 2), and whether clipping moved an atom of positive
    weight.  A target within 1e-9 (relative) of an integer is that integer.
    """
    nearest = np.round(target)
    exact = np.abs(target - nearest) < 1e-9 * np.maximum(1.0, np.abs(target))
    k0 = np.where(exact, nearest, np.floor(target))
    w1 = np.where(exact, 0.0, target - k0)
    atoms = np.stack([k0, k0 + 1.0], axis=1)
    weights = np.stack([1.0 - w1, w1], axis=1)
    kept = np.clip(atoms, *family.stat_bounds(rn))
    clipped = ((kept != atoms) & (weights > 0.0)).any(axis=1)
    return kept.astype(np.int64), weights, clipped


def _replicate_atoms(family: Family, theta: float, cfg: ClonerConfig, reps: int,
                     label: str = "", theta_hat: float | None = None):
    """Rounding pmfs of ``reps`` replicates drawn at the statistic level.

    One stream per call, keyed by ``(seed, "clone-loss", family, label, n)``,
    drawn in a fixed order: all S1, then all S2, then all Z.
    """
    rng = stream(cfg.seed, "clone-loss", family.name, label, cfg.n)
    frozen = theta_hat is not None
    s1 = None if frozen else family.sample_stat(theta, cfg.n1, reps, rng)
    s2 = family.sample_stat(theta, cfg.n if frozen else cfg.n2, reps, rng)
    z = rng.standard_normal(reps) if cfg.epsilon > 0.0 else None
    target = _stat_targets(family, cfg, s1, s2, z, theta_hat)
    return _rounding_atoms(family, cfg.rn, target)


def clone_loss_discrete(
    family: Family,
    theta: float,
    cfg: ClonerConfig,
    reps: int,
    bootstrap: int = 200,
    label: str = "",
    theta_hat: float | None = None,
) -> CloneLossReport:
    """Exact-count-law L1 loss of the cloner, Rao-Blackwellized over rounding.

    Each replicate draws S1 ~ law of S over n1 draws, S2 ~ law of S over n2
    draws and, for epsilon > 0, Z ~ N(0, 1), all replicates of the call at
    once on one stream keyed by ``(seed, "clone-loss", family, label, n)``,
    so replicates at different n draw from different streams.  Each
    replicate contributes its two-atom rounding pmf instead of a sampled
    count, which strictly reduces the variance of the plug-in estimate.  The
    confidence interval is Efron's bootstrap over replicates: each resample
    reweights them by an exact Multinomial(reps, 1/reps) count vector.
    ``bootstrap = 0`` skips it and reports a NaN interval; a percentile
    interval needs at least 2 resamples.

    ``theta_hat`` freezes the estimation stage as in `clone`: no S1 is
    drawn and S2 sums all n draws.
    """
    if not family.discrete:
        raise ConfigurationError(f"count-law loss needs a discrete family, got {family.name}")
    if reps < 2:
        raise ConfigurationError("reps must be at least 2")
    if bootstrap != 0 and bootstrap < 2:
        raise ConfigurationError(
            f"bootstrap must be 0 (no interval) or at least 2, got {bootstrap}"
        )
    family.require_in_domain(theta)
    atoms, weights, clipped = _replicate_atoms(family, theta, cfg, reps, label, theta_hat)

    target_law = family.stat_pmf(theta, cfg.rn)
    lo_k = int(min(atoms.min(), target_law.support.min()))
    hi_k = int(max(atoms.max(), target_law.support.max()))
    target_vec = np.zeros(hi_k - lo_k + 1)
    target_vec[target_law.support - lo_k] = target_law.mass
    index = (atoms - lo_k).ravel()
    loss = pmf_l1(mixture_pmf(index, weights.ravel(), target_vec.size, reps), target_vec)

    ci_low, ci_high = _bootstrap_ci(
        index, weights, target_vec, reps, bootstrap,
        stream(cfg.seed, "clone-loss-boot", family.name, label),
    )
    clip_rate = float(clipped.mean())
    if clip_rate > _CLIP_ALARM:
        logger.warning(
            "clone_loss_discrete: clip rate %.2f%% above alarm threshold",
            100.0 * clip_rate,
        )
    return CloneLossReport(
        loss=loss, ci_low=ci_low, ci_high=ci_high, clip_rate=clip_rate
    )


def mixture_pmf(index, weights, cells: int, reps: int) -> np.ndarray:
    """Count law on ``cells`` cells of the weighted atoms (total weight ``reps``)."""
    return np.bincount(index, weights=weights, minlength=cells) / reps


def pmf_l1(p: np.ndarray, q: np.ndarray) -> float:
    """Sum of |p(k) - q(k)| over two pmfs on the same cells; in [0, 2]."""
    return float(np.abs(p - q).sum())


def _bootstrap_ci(index, weights, target_vec, reps, bootstrap, rng):
    """Efron's 95% percentile interval of the loss over ``bootstrap`` resamples.

    A resample weights replicate i by its count among ``reps`` uniform picks.
    The weighted atoms are one sparse (cells, reps) matrix, each row in atom
    order, so a resample is one product that sums each cell in `np.bincount`'s
    order: the losses equal a per-resample `mixture_pmf` and `pmf_l1` bit for bit.
    """
    if bootstrap == 0:
        return math.nan, math.nan
    order = np.argsort(index, kind="stable")
    row_ptr = np.concatenate(([0], np.cumsum(np.bincount(index, minlength=target_vec.size))))
    atoms = sparse.csr_matrix((weights.ravel()[order], order // 2, row_ptr),
                              shape=(target_vec.size, reps))
    losses = np.empty(bootstrap)
    for b in range(bootstrap):
        mult = np.bincount(rng.integers(0, reps, reps), minlength=reps)
        losses[b] = np.abs(atoms @ mult / reps - target_vec).sum()
    return float(np.quantile(losses, 0.025)), float(np.quantile(losses, 0.975))


@dataclass(frozen=True)
class MinimaxProbeReport:
    """Per-shift loss of the pipeline in a shrinking neighbourhood, in grid order."""

    losses: tuple[CloneLossReport, ...]
    sup_loss: float


def local_minimax_probe(
    family: Family,
    theta: float,
    a: float,
    h_grid,
    cfg: ClonerConfig,
    reps: int,
) -> MinimaxProbeReport:
    """Loss at every parameter ``theta + h / sqrt(n)`` with |h| <= a, and the sup.

    The supremum over a grid can only grow when the grid grows, matching the
    monotone bounded-shift behaviour of the limit experiment.
    """
    if not a >= 0:
        raise ConfigurationError(f"neighbourhood radius a must be nonnegative, got {a}")
    hs = tuple(float(h) for h in h_grid)
    if not hs:
        raise ConfigurationError("empty shift grid h_grid")
    reports = []
    for i, h in enumerate(hs):
        if abs(h) > a + 1e-12:
            raise ConfigurationError(f"grid point {h} outside |h| <= {a}")
        shifted = theta + h / math.sqrt(cfg.n)
        family.require_in_domain(shifted)
        reports.append(
            clone_loss_discrete(family, shifted, cfg, reps, label=f"h{i}")
        )
    return MinimaxProbeReport(
        losses=tuple(reports), sup_loss=max(rep.loss for rep in reports)
    )
