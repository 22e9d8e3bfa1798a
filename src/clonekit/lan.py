"""Local-asymptotic-normality diagnostics.

For a smooth family, the log likelihood ratio between theta + h/sqrt(n) and
theta over n i.i.d. draws is approximated by the quadratic form

    ``h * score_sum - h^2 J / 2``,

where ``score_sum`` is the normalized score process and J the Fisher
information.  The routines here measure how fast that approximation takes
hold: exceedance probabilities of the expansion residual, the quadratic-mean
differentiability defect, the law of the noise-smoothed normalized score, and
a one-dimensional quantile coupling of the score process with its Gaussian
limit.

Results hold only what their call computed: `loglik_ratio` returns the pair
``(exact, quadratic)``, `dqm_residual` one defect per step size, and the
per-sample-size reports one value per entry of the caller's ``n_grid``, in
its order.

For the Gaussian location family every quantity is exact (zero residual,
zero coupling deviation); those are the machine-precision anchors of the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ConfigurationError
from .families import Family
from .streams import stream

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class ExceedanceReport:
    """Residual exceedance probabilities per sample size, with 95% Wilson CIs."""

    exceed_prob: tuple[float, ...]
    wilson_low: tuple[float, ...]
    wilson_high: tuple[float, ...]


@dataclass(frozen=True)
class CouplingReport:
    """Quantile coupling of the score process with its N(0, J) limit.

    ``deviation_measure[i]`` is the Lebesgue measure of quantile levels where
    the coupled variables differ by at least ``epsilon_dev`` at the i-th
    sample size; ``sup_deviation`` is the largest gap seen on the probe grid,
    the carrier of the root-n convergence trend.
    """

    deviation_measure: tuple[float, ...]
    sup_deviation: tuple[float, ...]


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval; keeps coverage for probabilities near 0."""
    if trials <= 0:
        raise ConfigurationError("trials must be positive")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def score_process(family: Family, theta: float, data: np.ndarray) -> float:
    """Normalized score sum ``sum_i score(theta, w_i) / sqrt(n)``.

    Exact affine evaluation through the sufficient statistic.
    """
    data = np.asarray(data, dtype=float)
    n = data.size
    if n == 0:
        raise ConfigurationError("empty sample")
    return family.score_from_stat(theta, n, family.suff_stat(data))


def loglik_ratio(
    family: Family, theta: float, h: float, data: np.ndarray
) -> tuple[float, float]:
    """``(exact, quadratic)`` log likelihood ratio at shift h / sqrt(n).

    Their difference is the LAN expansion residual.
    """
    data = np.asarray(data, dtype=float)
    n = data.size
    shifted = theta + h / math.sqrt(n)
    family.require_in_domain(theta)
    family.require_in_domain(shifted)
    exact = float(np.sum(family.log_density(shifted, data) - family.log_density(theta, data)))
    j = family.fisher(theta)
    quad = h * score_process(family, theta, data) - 0.5 * h * h * j
    return exact, quad


def lan_residual_rate(
    family: Family,
    theta: float,
    h: float,
    n_grid,
    threshold: float,
    reps: int,
    seed: int,
) -> ExceedanceReport:
    """Monte Carlo residual exceedance probability per sample size in ``n_grid``.

    The exact and the quadratic log likelihood ratio are both functions of
    the statistic S (`Family.loglr_from_stat`, `Family.score_from_stat`), so
    each replicate is one draw of S: per n, ``reps`` draws on the stream
    keyed by ``(seed, "lan-residual", family, n index)``.

    The per-n trend is reported, not enforced: single runs can wiggle, the
    monotone decrease is asserted by the calling tests at their chosen reps.
    """
    if reps < 1:
        raise ConfigurationError(f"reps must be at least 1, got {reps}")
    n_grid = _sample_sizes(n_grid)
    j = family.fisher(theta)
    probs, lows, highs = [], [], []
    for gi, n in enumerate(n_grid):
        rng = stream(seed, "lan-residual", family.name, gi)
        stat = family.sample_stat(theta, n, reps, rng)
        exact = family.loglr_from_stat(theta, theta + h / math.sqrt(n), n, stat)
        quad = h * family.score_from_stat(theta, n, stat) - 0.5 * h * h * j
        exceed = int(np.count_nonzero(np.abs(exact - quad) > threshold))
        lo, hi = wilson_interval(exceed, reps)
        probs.append(exceed / reps)
        lows.append(lo)
        highs.append(hi)
    return ExceedanceReport(
        exceed_prob=tuple(probs), wilson_low=tuple(lows), wilson_high=tuple(highs)
    )


def smoothed_score(
    family: Family,
    theta: float,
    data: np.ndarray,
    epsilon: float,
    rng: np.random.Generator | None = None,
) -> float:
    """J^{-1} times the score process, plus N(0, epsilon) noise.

    epsilon = 0 is exactly the rescaled score; positive epsilon makes the law
    absolutely continuous, which is what the cloning pipeline needs before
    inverting back to a statistic target.
    """
    if not epsilon >= 0:
        raise ConfigurationError(f"epsilon must be nonnegative, got {epsilon}")
    base = score_process(family, theta, data) / family.fisher(theta)
    if epsilon == 0.0:
        return base
    if rng is None:
        raise ConfigurationError("positive epsilon requires an rng")
    return base + math.sqrt(epsilon) * rng.standard_normal()


def dqm_residual(family: Family, theta: float, h_grid) -> tuple[float, ...]:
    """Quadratic-mean differentiability defect for each step size in ``h_grid``.

    Integrates ``(sqrt(p_{theta+h}) - sqrt(p_theta) - (h/2) score sqrt(p_theta))^2``
    over the outcome space: a sum over the support of the wider one-draw law
    for discrete families, a closed form for the Gaussian location family
    (`_dqm_gaussian`).  The defect divided by h^2 must vanish as h -> 0.
    """
    residuals = []
    for h in map(float, h_grid):
        if h == 0.0:
            residuals.append(0.0)
            continue
        family.require_in_domain(theta + h)
        if family.discrete:
            residuals.append(_dqm_discrete(family, theta, h))
        else:
            residuals.append(_dqm_gaussian(family.sigma, h))
    return tuple(residuals)


def _dqm_discrete(family: Family, theta: float, h: float) -> float:
    # the one-draw statistic law at the larger parameter covers both tails
    support = family.stat_pmf(max(theta, theta + h), 1).support
    p0 = family.density(theta, support)
    p1 = family.density(theta + h, support)
    sc = family.score(theta, support)
    dev = np.sqrt(p1) - np.sqrt(p0) - 0.5 * h * sc * np.sqrt(p0)
    return float(np.sum(dev * dev))


def _dqm_gaussian(sigma: float, h: float) -> float:
    """``2 (1 + u - e^{-u} - 2 u e^{-u})`` with ``u = h^2 / (8 sigma^2)``.

    Expanding the square leaves ``2 + h^2/(4 sigma^2)`` minus twice the
    Bhattacharyya coefficient ``e^{-u}`` minus ``(h^2/(2 sigma^2)) e^{-u}``.
    The defect is ``3 u^2 + O(u^3)``, so ``1 - e^{-u}`` comes from `expm1`.
    """
    u = h * h / (8.0 * sigma * sigma)
    e = -math.expm1(-u)
    return 2.0 * (e - u + 2.0 * u * e)


def quantile_coupling(
    family: Family,
    theta: float,
    n_grid,
    epsilon_dev: float,
    resolution: int = 4001,
) -> CouplingReport:
    """Couple the score process with its Gaussian limit by inverse CDFs.

    Both variables are realized on the unit interval with Lebesgue measure:
    the score process through the exact quantile function of its law (via the
    statistic pmf for discrete families), the limit as ``sqrt(J)`` times the
    normal quantile.  By construction the pushforwards are the exact laws;
    the report carries the measure of levels where the two differ by at least
    ``epsilon_dev`` and the largest observed gap, per sample size in
    ``n_grid``.
    """
    if not epsilon_dev > 0:
        raise ConfigurationError(f"epsilon_dev must be positive, got {epsilon_dev}")
    if resolution < 3:
        raise ConfigurationError("resolution too small")
    n_grid = _sample_sizes(n_grid)
    j = family.fisher(theta)
    levels = (np.arange(resolution) + 0.5) / resolution
    limit_q = math.sqrt(j) * ndtri(levels)
    measures, sups = [], []
    for n in n_grid:
        if family.discrete:
            law = family.stat_pmf(theta, n)
            xs = family.score_from_stat(theta, n, law.support.astype(float))
            cdf = np.cumsum(law.mass)
            idx = np.minimum(np.searchsorted(cdf, levels, side="left"), xs.size - 1)
            score_q = xs[idx]
        else:
            # continuous built-in: the score law is exactly the limit
            score_q = limit_q
        gap = np.abs(score_q - limit_q)
        measures.append(float(np.mean(gap >= epsilon_dev)))
        sups.append(float(gap.max()))
    return CouplingReport(deviation_measure=tuple(measures), sup_deviation=tuple(sups))


def _sample_sizes(n_grid) -> tuple[int, ...]:
    n_grid = tuple(int(n) for n in n_grid)
    if any(n < 1 for n in n_grid):
        raise ConfigurationError(f"sample sizes must be at least 1, got {n_grid}")
    return n_grid
