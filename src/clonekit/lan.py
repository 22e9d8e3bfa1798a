"""Local-asymptotic-normality diagnostics.

For a smooth family, the log likelihood ratio between theta + h/sqrt(n) and
theta over n i.i.d. draws is approximated by the quadratic form

    ``h * score_sum - h^2 J / 2``,

where ``score_sum`` is the normalized score process and J the Fisher
information.  The routines here measure how fast that approximation takes
hold: the exceedance probability of the expansion residual (an exact sum
over the statistic law), the quadratic-mean differentiability defect, and a
one-dimensional quantile coupling of the score process with its Gaussian
limit.  The noise-smoothed score that the cloner amplifies is
`clonekit.cloner.smoothed_score`.

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

# coupling levels: each holds a few float arrays of that length, so the cap
# keeps a call under about half a GB
_RESOLUTION_CAP = 10**7


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
    family: Family, theta: float, h: float, n_grid, threshold: float
) -> tuple[float, ...]:
    """Residual exceedance probability for each sample size in ``n_grid``.

    The exact and the quadratic log likelihood ratio are both affine in the
    statistic S (`Family.loglr_from_stat`, `Family.score_from_stat`), so
    ``P(|exact - quadratic| > threshold)`` is the sum of ``P(S = s)`` over
    the support of `Family.stat_pmf` where the residual exceeds the
    threshold: exact, with no sampling.  For the continuous built-in, the
    Gaussian location family, the expansion is exact and every probability
    is 0.
    """
    if not threshold >= 0:
        raise ConfigurationError(f"threshold must be nonnegative, got {threshold}")
    n_grid = _sample_sizes(n_grid)
    family.require_in_domain(theta)
    j = family.fisher(theta)
    probs = []
    for n in n_grid:
        shifted = theta + h / math.sqrt(n)
        family.require_in_domain(shifted)
        if not family.discrete:
            probs.append(0.0)
            continue
        law = family.stat_pmf(theta, n)
        stat = law.support.astype(float)
        exact = family.loglr_from_stat(theta, shifted, n, stat)
        quad = h * family.score_from_stat(theta, n, stat) - 0.5 * h * h * j
        probs.append(float(law.mass[np.abs(exact - quad) > threshold].sum()))
    return tuple(probs)


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
    if resolution > _RESOLUTION_CAP:
        raise ConfigurationError(
            f"resolution {resolution} is over the cap of {_RESOLUTION_CAP} levels"
        )
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
