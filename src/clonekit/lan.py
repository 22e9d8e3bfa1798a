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

For the Gaussian location family every quantity is exact (zero residual,
zero coupling deviation); those are the machine-precision anchors of the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .families import Family
from .gaussian import _adaptive_simpson
from .streams import stream

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class LanResidualReport:
    """Exact vs quadratic log likelihood ratio for one dataset."""

    exact_loglr: float
    quadratic: float

    @property
    def residual(self) -> float:
        return self.exact_loglr - self.quadratic


@dataclass(frozen=True)
class ExceedanceReport:
    """Residual exceedance probabilities over an n-grid, with 95% Wilson CIs."""

    n_grid: tuple[int, ...]
    threshold: float
    exceed_prob: tuple[float, ...]
    wilson_low: tuple[float, ...]
    wilson_high: tuple[float, ...]
    reps: int

    @property
    def nonincreasing(self) -> bool:
        return all(b <= a for a, b in zip(self.exceed_prob, self.exceed_prob[1:]))


@dataclass(frozen=True)
class CouplingReport:
    """Quantile coupling of the score process with its N(0, J) limit.

    ``deviation_measure[i]`` is the Lebesgue measure of quantile levels where
    the coupled variables differ by at least ``epsilon_dev`` at n_grid[i];
    ``sup_deviation`` is the largest gap seen on the probe grid, the carrier
    of the root-n convergence trend.
    """

    n_grid: tuple[int, ...]
    epsilon_dev: float
    resolution: int
    deviation_measure: tuple[float, ...]
    sup_deviation: tuple[float, ...]


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval; keeps coverage for probabilities near 0."""
    if trials <= 0:
        raise ValueError("trials must be positive")
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
        raise ValueError("empty sample")
    return family.score_from_stat(theta, n, family.suff_stat(data))


def loglik_ratio(
    family: Family, theta: float, h: float, data: np.ndarray
) -> LanResidualReport:
    """Exact and quadratic log likelihood ratio at shift h / sqrt(n)."""
    data = np.asarray(data, dtype=float)
    n = data.size
    shifted = theta + h / math.sqrt(n)
    family.require_in_domain(theta)
    family.require_in_domain(shifted)
    exact = float(np.sum(family.log_density(shifted, data) - family.log_density(theta, data)))
    j = family.fisher(theta)
    quad = h * score_process(family, theta, data) - 0.5 * h * h * j
    return LanResidualReport(exact_loglr=exact, quadratic=quad)


def lan_residual_rate(
    family: Family,
    theta: float,
    h: float,
    n_grid,
    threshold: float,
    reps: int,
    seed: int,
) -> ExceedanceReport:
    """Monte Carlo residual exceedance probability per sample size.

    The exact and the quadratic log likelihood ratio are both functions of
    the statistic S (`Family.loglr_from_stat`, `Family.score_from_stat`), so
    each replicate is one draw of S: per n, ``reps`` draws on the stream
    keyed by ``(seed, "lan-residual", family, n index)``.

    The per-n trend is reported, not enforced: single runs can wiggle, the
    monotone decrease is asserted by the calling tests at their chosen reps.
    """
    n_grid = tuple(int(n) for n in n_grid)
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
        n_grid=n_grid,
        threshold=threshold,
        exceed_prob=tuple(probs),
        wilson_low=tuple(lows),
        wilson_high=tuple(highs),
        reps=reps,
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
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    base = score_process(family, theta, data) / family.fisher(theta)
    if epsilon == 0.0:
        return base
    if rng is None:
        raise ValueError("positive epsilon requires an rng")
    return base + math.sqrt(epsilon) * rng.standard_normal()


@dataclass(frozen=True)
class DqmReport:
    h_grid: tuple[float, ...]
    residual: tuple[float, ...]
    normalized: tuple[float, ...]  # residual / h^2


def dqm_residual(family: Family, theta: float, h_grid) -> DqmReport:
    """Quadratic-mean differentiability defect per step size.

    Integrates ``(sqrt(p_{theta+h}) - sqrt(p_theta) - (h/2) score sqrt(p_theta))^2``
    over the outcome space: a sum for discrete families, adaptive quadrature
    for the Gaussian (tolerance 1e-10, tightened with the h^4 scale of the
    defect so small steps stay resolved).  The normalized defect must vanish
    as h -> 0.
    """
    hs = tuple(float(h) for h in h_grid)
    residuals = []
    for h in hs:
        if h == 0.0:
            residuals.append(0.0)
            continue
        family.require_in_domain(theta + h)
        if family.discrete:
            residuals.append(_dqm_discrete(family, theta, h))
        else:
            residuals.append(_dqm_continuous(family, theta, h))
    normalized = tuple(res / (h * h) if h != 0.0 else 0.0 for res, h in zip(residuals, hs))
    return DqmReport(h_grid=hs, residual=tuple(residuals), normalized=normalized)


def _dqm_discrete(family: Family, theta: float, h: float) -> float:
    if family.name == "bernoulli":
        support = np.arange(2)
    else:
        # cover both parameters far into the tails
        top = max(theta, theta + h)
        support = np.arange(int(25 + 20 * top + 12 * math.sqrt(top)))
    p0 = family.density(theta, support)
    p1 = family.density(theta + h, support)
    sc = family.score(theta, support)
    dev = np.sqrt(p1) - np.sqrt(p0) - 0.5 * h * sc * np.sqrt(p0)
    return float(np.sum(dev * dev))


def _dqm_continuous(family: Family, theta: float, h: float) -> float:
    sigma = family.sigma
    lo = theta - 14.0 * sigma + min(0.0, h)
    hi = theta + 14.0 * sigma + max(0.0, h)

    def f(x: float) -> float:
        p0 = family.density(theta, x)
        p1 = family.density(theta + h, x)
        sc = family.score(theta, x)
        dev = math.sqrt(p1) - math.sqrt(p0) - 0.5 * h * sc * math.sqrt(p0)
        return dev * dev

    # the defect integral itself is Theta(h^4); keep the tolerance below it
    tol = 1e-10 * min(1.0, h * h * h * h)
    return _adaptive_simpson(f, lo, hi, max(tol, 1e-18))


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
    ``epsilon_dev`` and the largest observed gap, per sample size.
    """
    if epsilon_dev <= 0:
        raise ValueError("epsilon_dev must be positive")
    if resolution < 3:
        raise ValueError("resolution too small")
    n_grid = tuple(int(n) for n in n_grid)
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
    return CouplingReport(
        n_grid=n_grid,
        epsilon_dev=epsilon_dev,
        resolution=resolution,
        deviation_measure=tuple(measures),
        sup_deviation=tuple(sups),
    )
