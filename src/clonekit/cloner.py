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
equals the distance between the statistic laws.  `clone`, which
materializes the output, and the statistic-level losses share one target
formula (`smoothed_score`), evaluated on one replicate's floats or on
arrays of them.

The estimate cancels from that target: ``rn mean(theta_hat) + (rn / n2)
(S2 - n2 mean(theta_hat))`` is ``(rn / n2) S2``, so the target is ``(rn /
n2) S2 + rn sqrt(epsilon / n2) Z`` whatever ``theta_hat`` is, and the
resampler takes no parameter (S is sufficient).  For the built-in families
the pipeline therefore checks the central limit behaviour of a scaled S2
plus smoothing, not the local estimation the general reduction needs;
``delta`` acts only through the gain ``rn / n2``.

The output count law has two routes:

- `clone_loss_exact` computes it with no sampling.  By the cancellation it
  is a one-dimensional sum over the exact law of S2 of the smoothed rounding
  weights ``E[tent(T - k)]``, in closed form (`_count_law`).  S2 values
  ``n2 / gcd(rn, n2)`` apart have targets exactly ``rn / gcd(rn, n2)``
  cells apart, so one row of weights per residue serves all of them, and
  each residue class adds up as that row convolved with a comb of its
  masses: a polyphase filter, one small matrix product per class, with
  the cells past the statistic bounds folded into the end cells once.
- `clone_loss_discrete` estimates it by Monte Carlo.  No CLI experiment
  takes it: it is the reference that the exact route is tested against,
  and the acceptance gate's loss route.  Stages 2-3 read only the sum S2
  of the n2 scoring draws, and by the cancellation stage 1 changes nothing,
  so each replicate is drawn as (S2, Z) from the statistic law and the
  smoothing noise, all replicates at once, and scored at the truth.  It
  runs in three named stages: `_rounding_atoms` (each replicate's
  Rao-Blackwellized two-atom rounding pmf), `mixture_pmf` (their average,
  the output count law) and `pmf_l1` (its distance to the exact target
  law), with a bootstrap CI.

Neither route takes an estimate.  `clone` keeps it: it runs the pipeline
as written, and its record reports it.

As n grows (at fixed delta and epsilon) the loss approaches the Gaussian
amplifier constant at gain ratio ``rn / n2 (1 + epsilon J)``, close to the
``r / (1 - delta)`` of the acceptance gate.

The loss reports hold only what the call computed: `CloneLossReport` the
loss, its CI (bootstrap, or the exact value twice) and the clip rate, and
`MinimaxProbeReport` one such report per shift in the caller's grid order
and their supremum.  Sample sizes, replicate counts and the shift grid stay
with the caller.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from .errors import ConfigurationError
from .families import SNAP_TOL, Family
from .lawdist import EmpiricalLaw
from .streams import stream

logger = logging.getLogger(__name__)

_CLIP_ALARM = 0.05

# replicates (and bootstrap resamples) per `clone_loss_discrete` call: a
# replicate holds about 100 bytes of arrays, so the cap keeps a call near
# 1 GB
_REPS_CAP = 10**7
_BOOTSTRAP_CAP = 10**6

# the exact route bands each statistic value to this many standard
# deviations of the smoothing noise (the normal tail beyond is below 1e-32),
# drops statistic mass below `_MASS_FLOOR`, and assembles the law in blocks
# of representatives whose products hold about `_BLOCK_CELLS` cell weights
_BAND_SD = 12.0
_MASS_FLOOR = 1e-17
_BLOCK_CELLS = 1 << 14
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ClonerConfig:
    """Pipeline parameters: sample size, clone ratio, split, smoothing, seed."""

    n: int
    r: float
    delta: float
    epsilon: float
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise ConfigurationError(f"n must be an integer, got {self.n!r}")
        if not self.n >= 2:
            raise ConfigurationError("n must be at least 2")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError("delta must lie in (0, 1)")
        if not 0.0 <= self.epsilon < math.inf:
            raise ConfigurationError(
                f"epsilon must be nonnegative and finite, got {self.epsilon}"
            )
        if not 1.0 <= self.r < math.inf:
            raise ConfigurationError(f"clone ratio r must lie in [1, inf), got {self.r}")
        rn = self.r * self.n
        if not math.isfinite(rn):
            raise ConfigurationError(f"clone ratio r = {self.r} makes r * n = {rn}")
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


def estimate_theta(family: Family, data: np.ndarray) -> float:
    """Grid-snapped maximum likelihood estimate.

    The MLE is the sample mean for every built-in; it is clipped into the
    interior margin, then rounded to the nearest multiple of
    ``1 / sqrt(len(data))`` with half-ties toward the floor (deterministic
    across platforms), and finally kept strictly inside the domain so the
    Fisher information stays bounded.  The mean is summed in the sample's
    own dtype, so int data is not copied to float first.
    """
    data = np.asarray(data)
    n = data.size
    if n == 0:
        raise ConfigurationError("empty estimation sample")
    mean = float(data.sum()) / n
    if not math.isfinite(mean):
        raise ConfigurationError(f"estimation sample mean is {mean}")
    mle = family.clip_theta(mean, n)
    step = 1.0 / math.sqrt(n)
    lo, hi = family.param_lo, family.param_hi
    k_min = math.floor(lo / step) + 1 if math.isfinite(lo) else -math.inf
    k_max = math.ceil(hi / step) - 1 if math.isfinite(hi) else math.inf
    if k_min > k_max:
        # no grid point is strictly interior (n = 1 on a bounded domain):
        # keep the clipped estimate rather than leave the domain
        return mle
    return min(max(math.ceil(mle / step - 0.5), k_min), k_max) * step


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
    replicates or statistic values (`_replicate_atoms`, `_count_law`).
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
    output = family.conditional_resample(rn, resample_target, rng)
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


def _rounding_atoms(family: Family, rn: int, target: np.ndarray) -> tuple[
    np.ndarray, np.ndarray, np.ndarray
]:
    """Output-count pmf of `Family.round_stat` given each real target.

    Returns the two clipped atoms ``floor``, ``floor + 1`` and their weights,
    both of shape (reps, 2), and whether clipping moved an atom of positive
    weight.  A target is snapped as `Family.round_stat` snaps it.
    """
    target = _snapped(target)
    k0 = np.floor(target)
    w1 = target - k0
    atoms = np.stack([k0, k0 + 1.0], axis=1)
    weights = np.stack([1.0 - w1, w1], axis=1)
    kept = np.clip(atoms, *family.stat_bounds(rn))
    clipped = ((kept != atoms) & (weights > 0.0)).any(axis=1)
    return kept.astype(np.int64), weights, clipped


def _snapped(target: np.ndarray) -> np.ndarray:
    """Targets with each one within `SNAP_TOL` (relative) of an integer set to it."""
    nearest = np.round(target)
    exact = np.abs(target - nearest) < SNAP_TOL * np.maximum(1.0, np.abs(target))
    return np.where(exact, nearest, target)


def _replicate_atoms(family: Family, theta: float, cfg: ClonerConfig, reps: int):
    """Rounding pmfs of ``reps`` replicates drawn at the statistic level.

    One stream per call, keyed by ``(seed, "clone-loss", family, "", n)``,
    drawn in a fixed order: all S2 over ``cfg.n2`` draws, then all Z.  The
    targets are `smoothed_score`'s at the truth, since the estimate cancels
    from them (the module docstring).
    """
    # the empty slot, where a per-shift label used to go, keeps every
    # draw at each seed where it was
    rng = stream(cfg.seed, "clone-loss", family.name, "", cfg.n)
    s2 = family.sample_stat(theta, cfg.n2, reps, rng)
    z = rng.standard_normal(reps) if cfg.epsilon > 0.0 else None
    target = smoothed_score(family, theta, cfg.n2, cfg.rn, cfg.epsilon, s2, z)[2]
    return _rounding_atoms(family, cfg.rn, target)


def clone_loss_discrete(
    family: Family,
    theta: float,
    cfg: ClonerConfig,
    reps: int,
    bootstrap: int = 200,
) -> CloneLossReport:
    """Monte Carlo L1 loss of the cloner, Rao-Blackwellized over rounding.

    The reference route: `clone_loss_exact` gives the same loss with no
    sampling, and is tested against this one.  The L1 of a plug-in mixture
    is biased upward, more so at large n where the law spreads over more
    cells.  Over 40 seeds at 20 000 replicates and criterion 4's configs
    (r = 2, delta = 0.05, epsilon = 0.01), the mean bias was +0.0023,
    +0.0018 and +0.0039 for Bernoulli theta = 0.3 at n = 100, 400 and 1600,
    and +0.0021, +0.0034 and +0.0094 for Poisson theta = 2 (each within
    about 0.001 of the truth, by the seeds' spread); the percentile
    interval held the exact loss in as few as 5 of 40 runs (Poisson,
    n = 1600).

    Each replicate draws S2 ~ law of S over n2 draws and then, for epsilon
    > 0, Z ~ N(0, 1), all replicates of the call at once on one stream keyed
    by ``(seed, "clone-loss", family, "", n)``, so replicates at different
    n draw from different streams.  Each replicate contributes its two-atom
    rounding pmf instead of a sampled count, which strictly reduces the
    variance of the plug-in estimate.  The confidence interval is Efron's
    bootstrap over replicates: each resample reweights them by an exact
    Multinomial(reps, 1/reps) count vector.  ``bootstrap = 0`` skips it and
    reports a NaN interval; a percentile interval needs at least 2
    resamples.
    """
    _require_discrete(family)
    check_replicates(reps, bootstrap)
    family.require_in_domain(theta)
    target_law = family.stat_pmf(theta, cfg.rn)  # refuses an oversized law before any draw
    atoms, weights, clipped = _replicate_atoms(family, theta, cfg, reps)
    lo_k = int(min(atoms.min(), target_law.support.min()))
    hi_k = int(max(atoms.max(), target_law.support.max()))
    target_vec = _on_cells(target_law, lo_k, hi_k)
    index = (atoms - lo_k).ravel()
    loss = pmf_l1(mixture_pmf(index, weights.ravel(), target_vec.size, reps), target_vec)

    ci_low, ci_high = _bootstrap_ci(
        index, weights, target_vec, reps, bootstrap,
        stream(cfg.seed, "clone-loss-boot", family.name, ""),  # the same slot
    )
    return _loss_report("clone_loss_discrete", loss, ci_low, ci_high,
                        float(clipped.mean()))


def check_replicates(reps: int, bootstrap: int = 0, least: int = 2) -> None:
    """Refuse a replicate or resample count outside what a Monte Carlo call runs.

    Checked before anything is drawn or allocated.  ``least`` is the
    fewest replicates the caller can use.  The CLI checks the reps (and
    bootstrap) keys of clone-sim, minimax-probe and lan-diag here too,
    although their exact routes draw nothing.
    """
    if reps < least:
        raise ConfigurationError(f"reps must be at least {least}, got {reps}")
    if reps > _REPS_CAP:
        raise ConfigurationError(f"reps {reps} is over the cap of {_REPS_CAP} replicates")
    if bootstrap != 0 and bootstrap < 2:
        raise ConfigurationError(
            f"bootstrap must be 0 (no interval) or at least 2, got {bootstrap}"
        )
    if bootstrap > _BOOTSTRAP_CAP:
        raise ConfigurationError(
            f"bootstrap {bootstrap} is over the cap of {_BOOTSTRAP_CAP} resamples"
        )


def _require_discrete(family: Family) -> None:
    if not family.discrete:
        raise ConfigurationError(f"count-law loss needs a discrete family, got {family.name}")


def _on_cells(law, lo_k: int, hi_k: int) -> np.ndarray:
    """``law`` as a pmf vector on the cells ``lo_k .. hi_k``."""
    vec = np.zeros(hi_k - lo_k + 1)
    vec[law.support - lo_k] = law.mass
    return vec


def _loss_report(route: str, loss: float, ci_low: float, ci_high: float,
                 clip_rate: float) -> CloneLossReport:
    if clip_rate > _CLIP_ALARM:
        logger.warning(
            "%s: clip rate %.2f%% above alarm threshold", route, 100.0 * clip_rate
        )
    return CloneLossReport(
        loss=loss, ci_low=ci_low, ci_high=ci_high, clip_rate=clip_rate
    )


def clone_loss_exact(family: Family, theta: float, cfg: ClonerConfig) -> CloneLossReport:
    """The loss of `clone_loss_discrete` from the exact output count law.

    No sampling: the law is `_count_law`, so the value is exact up to the
    truncation that function states, and ``ci_low = ci_high = loss``.  The
    clip rate is the exact chance that the real target falls outside
    `Family.stat_bounds`, the quantity whose replicate fraction the Monte
    Carlo route reports.
    """
    _require_discrete(family)
    target_law = family.stat_pmf(theta, cfg.rn)  # refuses an oversized law first
    law, clip_rate = _count_law(family, theta, cfg.n2, cfg.rn, cfg.epsilon)
    lo = int(min(law.support[0], target_law.support[0]))
    hi = int(max(law.support[-1], target_law.support[-1]))
    loss = pmf_l1(_on_cells(law, lo, hi), _on_cells(target_law, lo, hi))
    return _loss_report("clone_loss_exact", loss, loss, loss, clip_rate)


def _count_law(family: Family, theta: float, n2: int, rn: int,
               epsilon: float) -> tuple[EmpiricalLaw, float]:
    """Exact law of the output count, on consecutive cells, and the clip rate.

    ``n2`` is the number of scoring draws whose sum S2 the target reads,
    ``rn`` the output size and ``epsilon`` the smoothing; the law depends on
    nothing else (no seed: nothing is drawn).  At ``n2 = rn`` and epsilon =
    0 the target is S2 itself and the law is the statistic law over n2
    draws, the resampling fixed point.

    The statistic target does not depend on the estimate (the module
    docstring), so it is ``T = c(S2) + sd Z`` with ``c`` the target of
    `smoothed_score` at ``z = 0`` and ``sd = rn sqrt(epsilon / n2)``, and the
    rounded count has ``P(K = k) = sum_s P(S2 = s) E[tent(c(s) - k + sd Z)]``
    (`_smoothed_tent`); at epsilon = 0 that is the tent at `_snapped` centres,
    clipped when past the bounds.  Cells outside `Family.stat_bounds` fold
    into the end cells, as `Family.round_stat` clips.  Truncation: statistic
    values of mass below `_MASS_FLOOR` are dropped, and each value reaches
    `_BAND_SD` noise standard deviations (plus one cell) to each side, so
    the law misses at most the dropped mass plus 1e-32 per value.

    Since ``c(s) = (rn / n2) s``, values ``period = n2 / gcd(rn, n2)`` apart
    have centres exactly ``step = rn / gcd(rn, n2)`` cells apart and the
    same weight row, shifted.  So only the first kept value ``s`` of each
    residue modulo ``period`` (keyed by value, so the kept support need not
    be consecutive) is scored by `smoothed_score` and weighted, and the
    value ``s + a period`` (tooth ``a``) reuses that row ``a step`` cells
    on: an integer shift, with no rounding.  With ``period`` at least the
    kept count, each value is its own representative.

    A class then adds up as its row convolved with a comb that holds the
    mass of tooth ``a`` ``a step`` cells on (zero where the kept support
    has a gap), assembled as a polyphase filter: with ``inner = min(step,
    width)`` and the row cut into ``n_q = ceil(width / inner)`` phases
    ``row[q step + s]``, ``s < inner`` (zero past the band), cell ``k step
    + s`` past the representative's first cell gets ``sum_q comb[k - q]
    row[q step + s]``, one ``(teeth x n_q) @ (n_q x inner)`` product over a
    sliding window of the comb.  These are the products of one placed row
    per value, added in another order.  They are scattered once onto an
    extended range that holds every cell written, and the cells past
    `Family.stat_bounds` are then summed into the end cells.
    Representatives go in blocks whose product holds about
    ``_BLOCK_CELLS`` cells (one representative at least), so memory stays
    flat when every value is its own representative.  A band or a law span
    over `Family.require_cells`' cap is refused before it is allocated.
    """
    s_law = family.stat_pmf(theta, n2)
    keep = s_law.mass >= _MASS_FLOOR
    mass = s_law.mass[keep]
    s2 = s_law.support[keep]
    lo, hi = family.stat_bounds(rn)
    sd = rn * math.sqrt(epsilon / n2)
    half = math.ceil(_BAND_SD * sd) + 1
    width = 2 * half + 2
    family.require_cells(width, rn)  # one row's band, before it is allocated
    # one representative per residue of S2 modulo `period`
    gcd = math.gcd(rn, n2)
    period, step = n2 // gcd, rn // gcd
    _, first, rep = np.unique(s2 % period, return_index=True, return_inverse=True)
    centre = smoothed_score(family, theta, n2, rn, epsilon,
                            s2[first].astype(float), None)[2]
    centre = _snapped(centre) if sd == 0.0 else centre
    rep_base = np.floor(centre).astype(np.int64) - half  # first cell of each
    teeth = (s2 - s2[first[rep]]) // period  # S2 = s2[first[rep]] + teeth period
    shift = teeth * step
    base = rep_base[rep] + shift  # each value's first cell
    lo_k = int(max(lo, base.min()))
    hi_k = int(min(hi, base.max() + width - 1))
    family.require_cells(hi_k - lo_k + 1, rn)  # the law's span
    inner = min(step, width)
    n_q = -(-width // inner)
    span = int(teeth.max()) + n_q  # teeth k that a representative reaches
    comb = np.zeros((centre.size, span + n_q - 1))  # n_q - 1 zeros at each end
    comb[rep, teeth + n_q - 1] = mass
    # windows[r, k, j] = comb[r, k + j - (n_q - 1)], so the phases go reversed
    windows = np.lib.stride_tricks.sliding_window_view(comb, n_q, axis=1)
    offsets = np.arange(span)[:, None] * step + np.arange(inner)
    # an extended range that holds every cell written, zeros included
    ext_lo = int(rep_base.min())
    ext = np.zeros(int(rep_base.max()) - ext_lo + (span - 1) * step + inner)
    reps = max(1, _BLOCK_CELLS // (span * inner))
    for start in range(0, centre.size, reps):
        owners = slice(start, start + reps)
        rows = _smoothed_tent(
            centre[owners, None] - (rep_base[owners, None] + np.arange(width)), sd)
        phases = np.zeros((rows.shape[0], n_q * inner))
        phases[:, :width] = rows
        weights = windows[owners] @ phases.reshape(-1, n_q, inner)[:, ::-1]
        index = (rep_base[owners, None, None] - ext_lo) + offsets
        ext += mixture_pmf(index.ravel(), weights.ravel(), ext.size, 1)
    # fold the cells past the statistic bounds into the end cells; the
    # cells past the bands hold zeros, so folding them changes nothing
    law = ext[lo_k - ext_lo:hi_k - ext_lo + 1].copy()
    law[0] += ext[:lo_k - ext_lo].sum()
    law[-1] += ext[hi_k - ext_lo + 1:].sum()
    row_centre = centre[rep] + shift
    outside = ((row_centre < lo) | (row_centre > hi) if sd == 0.0  # round_stat's clip
               else ndtr((lo - row_centre) / sd) + ndtr((row_centre - hi) / sd))
    return EmpiricalLaw(np.arange(lo_k, lo_k + law.size), law), float(mass @ outside)


def _smoothed_tent(x: np.ndarray, sd: float) -> np.ndarray:
    """``E[tent(x + sd Z)]``, rows of offsets ``x`` one cell apart (decreasing).

    The tent is the second difference of ``m^+``, so the weight is the
    second difference of ``R(m) = E[(m + sd Z)^+] = m Phi(m/sd) + sd
    phi(m/sd)``.  Split as ``R(m) = m^+ + R(-|m|)``, that is the tent itself
    plus the second difference of the bounded ``R(-|m|)``, with no linear
    part for rounding to cancel.  Each row shares its ``R`` values between
    neighbouring cells.  At ``sd = 0`` the weight is the tent itself.
    """
    tent = np.maximum(1.0 - np.abs(x), 0.0)
    if sd == 0.0:
        return tent
    edges = np.concatenate((x[:, :1] + 1.0, x, x[:, -1:] - 1.0), axis=1)
    m = -np.abs(edges) / sd
    # at a tiny sd, m * m can overflow; its exp is then 0, as it should be
    with np.errstate(over="ignore"):
        tail = sd * (m * ndtr(m) + _INV_SQRT_2PI * np.exp(-0.5 * m * m))
    return tent + tail[:, :-2] - 2.0 * tail[:, 1:-1] + tail[:, 2:]


def mixture_pmf(index, weights, cells: int, reps: int) -> np.ndarray:
    """Count law on ``cells`` cells of the weighted atoms (total weight ``reps``)."""
    return np.bincount(index, weights=weights, minlength=cells) / reps


def pmf_l1(p: np.ndarray, q: np.ndarray) -> float:
    """Sum of |p(k) - q(k)| over two pmfs on the same cells; in [0, 2]."""
    return float(np.abs(p - q).sum())


def _bootstrap_ci(index, weights, target_vec, reps, bootstrap, rng):
    """Efron's 95% percentile interval of the loss over ``bootstrap`` resamples.

    A resample weights replicate i by its count among ``reps`` uniform picks,
    and its loss is that reweighted `mixture_pmf`'s `pmf_l1` to the target.
    """
    if bootstrap == 0:
        return math.nan, math.nan
    losses = np.empty(bootstrap)
    for b in range(bootstrap):
        mult = np.bincount(rng.integers(0, reps, reps), minlength=reps)
        pmf = mixture_pmf(index, (weights * mult[:, None]).ravel(), target_vec.size, reps)
        losses[b] = pmf_l1(pmf, target_vec)
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
) -> MinimaxProbeReport:
    """Loss at every parameter ``theta + h / sqrt(n)`` with |h| <= a, and the sup.

    Each loss is `clone_loss_exact`'s.  The supremum over a grid can only
    grow when the grid grows, matching the monotone bounded-shift behaviour
    of the limit experiment.
    """
    if not a >= 0:
        raise ConfigurationError(f"neighbourhood radius a must be nonnegative, got {a}")
    hs = tuple(float(h) for h in h_grid)
    if not hs:
        raise ConfigurationError("empty shift grid h_grid")
    reports = []
    for h in hs:
        if abs(h) > a + 1e-12:
            raise ConfigurationError(f"grid point {h} outside |h| <= {a}")
        shifted = theta + h / math.sqrt(cfg.n)
        family.require_in_domain(shifted)
        reports.append(clone_loss_exact(family, shifted, cfg))
    return MinimaxProbeReport(
        losses=tuple(reports), sup_loss=max(rep.loss for rep in reports)
    )
