"""Smooth one-parameter families with exact sufficient-statistic kernels.

Each family exposes density, sampler, score, Fisher information, the law of
the sufficient statistic ``S = sum_i omega_i``, and an exact conditional
resampler: a draw from the law of the sample given ``S``.  For the three
built-ins the score is affine in the outcome,

    ``score(theta, w) = c(theta) (w - mean(theta))``  with  ``c = fisher``,

so the normalized score sum is a bijective affine function of S
(`Family.score_from_stat`) and conditioning on the score equals
conditioning on S, which is exactly samplable (arrangements for Bernoulli,
uniform picks for Poisson, a mean bridge for the Gaussian).  S is
sufficient, so the law given S is the same at every parameter and the
resampler takes none.  Resampling a dataset on its own statistic leaves
the joint law invariant.

The built-ins are exponential families, density proportional to
``exp(eta(theta) w - A(theta))``, so every likelihood ratio is a function of
S as well (`Family.loglr_from_stat`), and the law of S can be sampled
directly (`Family.sample_stat`) without drawing the n outcomes.

Parameter handling near the boundary: estimates and user inputs are clipped
to ``[lo + 1/n, hi - 1/n]`` intersected with the domain so that scores and
inverse Fisher information stay bounded on the working range.
"""

from __future__ import annotations

import logging
import math

import numpy as np
from scipy.special import gammaln, pdtrc

from .errors import ConfigurationError, NumericalError
from .lawdist import EmpiricalLaw

logger = logging.getLogger(__name__)

_POISSON_TAIL = 1e-11

# support cells of one `stat_pmf` law: a few float arrays of this length,
# under half a GB at the cap, refused before any is allocated
_STAT_CELLS_CAP = 10**7

# picks per draw in `Poisson.conditional_resample`: 8 MiB of int64
_PICKS_CHUNK = 1 << 20

# a real statistic target within this (relative) distance of an integer is
# that integer, so floating-point residue keeps exact-integer targets exact
SNAP_TOL = 1e-9


class Family:
    """Interface shared by the built-in one-parameter families."""

    name: str = ""
    param_lo: float = -math.inf
    param_hi: float = math.inf
    discrete: bool = False

    # -- parameter domain ------------------------------------------------

    def in_domain(self, theta: float) -> bool:
        return self.param_lo < theta < self.param_hi

    def require_in_domain(self, theta: float) -> None:
        if not self.in_domain(theta):
            raise ConfigurationError(
                f"{self.name}: theta={theta} outside ({self.param_lo}, {self.param_hi})"
            )

    def clip_theta(self, theta: float, n: int) -> float:
        """Clip into the interior margin [lo + 1/n, hi - 1/n] (where finite).

        On bounded domains the margin is capped at a third of the width so
        the interval stays nonempty for tiny n.  Takes and returns a float.
        """
        lo, hi = self.param_lo, self.param_hi
        margin = 1.0 / n
        if math.isfinite(lo) and math.isfinite(hi):
            margin = min(margin, (hi - lo) / 3.0)
        if math.isfinite(lo):
            theta = max(theta, lo + margin)
        if math.isfinite(hi):
            theta = min(theta, hi - margin)
        return theta

    # -- single-outcome quantities ----------------------------------------

    def mean(self, theta: float) -> float:
        raise NotImplementedError

    def log_density(self, theta: float, omega):
        raise NotImplementedError

    def density(self, theta: float, omega):
        return np.exp(self.log_density(theta, omega))

    def score(self, theta: float, omega):
        """d/dtheta log density; zero-mean under the family itself."""
        self.require_in_domain(theta)
        out = self.fisher(theta) * (np.asarray(omega, dtype=float) - self.mean(theta))
        return out if out.ndim else float(out)

    def fisher(self, theta: float) -> float:
        raise NotImplementedError

    def sample(self, theta: float, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    # -- exponential-family form ------------------------------------------

    def natural_param(self, theta: float) -> float:
        """eta(theta) in the density ``exp(eta(theta) w - A(theta))``."""
        raise NotImplementedError

    def log_partition(self, theta: float) -> float:
        """A(theta) in the density ``exp(eta(theta) w - A(theta))``."""
        raise NotImplementedError

    def loglr_from_stat(self, theta: float, shifted: float, n: int, stat):
        """Log likelihood ratio of ``shifted`` against ``theta`` over n draws.

        ``(eta(shifted) - eta(theta)) S - n (A(shifted) - A(theta))``, a
        function of the statistic S alone; elementwise on arrays of S.
        """
        self.require_in_domain(theta)
        self.require_in_domain(shifted)
        d_eta = self.natural_param(shifted) - self.natural_param(theta)
        d_a = self.log_partition(shifted) - self.log_partition(theta)
        return d_eta * stat - n * d_a

    # -- sufficient statistic ---------------------------------------------

    def sample_stat(
        self, theta: float, n: int, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``size`` independent draws of S over samples of size n."""
        raise NotImplementedError

    def score_from_stat(self, theta: float, n: int, stat: float) -> float:
        """Normalized score sum as an affine function of S; elementwise on arrays."""
        return self.fisher(theta) * (stat - n * self.mean(theta)) / math.sqrt(n)

    def stat_bounds(self, n: int) -> tuple[float, float]:
        """Achievable range of S for a sample of size n."""
        return (-math.inf, math.inf)

    def stat_pmf(self, theta: float, n: int) -> EmpiricalLaw:
        """Exact law of S under n i.i.d. draws (discrete families only)."""
        raise NotImplementedError(f"{self.name} has no discrete statistic law")

    def conditional_resample(
        self, n: int, target_stat: float | int, rng: np.random.Generator,
    ) -> np.ndarray:
        """A sample of size n from the law given S = ``target_stat``.

        S is sufficient, so that law is the same at every parameter.
        Discrete families take the integer count, already rounded and
        clipped by `round_stat`; continuous ones take the real target.
        """
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------

    def _finite_fisher(self, theta: float, info: float) -> float:
        """``info``, the Fisher information at theta, unless it overflowed."""
        if not math.isfinite(info):
            raise ConfigurationError(
                f"{self.name}: theta={theta} gives infinite Fisher information"
            )
        return info

    def require_cells(self, cells: int, n: int) -> None:
        """Refuse a law of the statistic over n draws on over `_STAT_CELLS_CAP` cells.

        Checked before the cells are allocated: here by `stat_pmf`, and by
        `clonekit.cloner`'s exact count law for its bands.
        """
        if cells > _STAT_CELLS_CAP:
            raise ConfigurationError(
                f"{self.name}: the statistic law for n={n} has {cells} cells, "
                f"over the cap of {_STAT_CELLS_CAP}"
            )

    def _require_count(self, target_stat, n: int) -> int:
        """``target_stat`` as an int, if it is an integer inside `stat_bounds(n)`."""
        lo, hi = self.stat_bounds(n)
        if not isinstance(target_stat, (int, np.integer)) or not lo <= target_stat <= hi:
            raise ConfigurationError(
                f"{self.name}: statistic {target_stat!r} is not an integer count "
                f"in [{lo}, {hi}] for n={n}"
            )
        return int(target_stat)

    def round_stat(
        self, target: float, n: int, rng: np.random.Generator
    ) -> tuple[int, bool]:
        """Randomized rounding of a real statistic target, then clipping.

        ``floor(s) + Bernoulli(frac(s))`` keeps the expectation, avoiding the
        half-integer bias a deterministic rule would inject into count laws.
        A target within `SNAP_TOL` (relative) of an integer is that integer,
        with no draw.  Returns the integer target and whether clipping was
        applied.
        """
        lo, hi = self.stat_bounds(n)
        nearest = round(target)
        if abs(target - nearest) < SNAP_TOL * max(1.0, abs(target)):
            t = int(nearest)
        else:
            fl = math.floor(target)
            t = int(fl) + (1 if rng.random() < target - fl else 0)
        clipped = False
        if t < lo:
            t, clipped = int(lo), True
        elif t > hi:
            t, clipped = int(hi), True
        if clipped:
            logger.warning(
                "%s: statistic target %.3f clipped into [%s, %s] for n=%d",
                self.name, target, lo, hi, n,
            )
        return t, clipped

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class Bernoulli(Family):
    """Coin flips with success probability theta in (0, 1)."""

    name = "bernoulli"
    param_lo = 0.0
    param_hi = 1.0
    discrete = True

    def mean(self, theta: float) -> float:
        return theta

    def fisher(self, theta: float) -> float:
        """``1 / (theta (1 - theta))``, finite for theta from about 5.6e-309."""
        self.require_in_domain(theta)
        return self._finite_fisher(theta, 1.0 / (theta * (1.0 - theta)))

    def log_density(self, theta: float, omega):
        self.require_in_domain(theta)
        w = np.asarray(omega, dtype=float)
        out = np.where(w == 1.0, math.log(theta),
                       np.where(w == 0.0, math.log1p(-theta), -math.inf))
        return out if out.ndim else float(out)

    def natural_param(self, theta):
        return math.log(theta) - math.log1p(-theta)

    def log_partition(self, theta):
        return -math.log1p(-theta)

    def sample(self, theta, n, rng):
        self.require_in_domain(theta)
        return (rng.random(n) < theta).astype(np.int64)

    def sample_stat(self, theta, n, size, rng):
        self.require_in_domain(theta)
        return rng.binomial(n, theta, size)

    def stat_bounds(self, n):
        return (0, n)

    def stat_pmf(self, theta, n):
        self.require_in_domain(theta)
        self.require_cells(n + 1, n)
        k = np.arange(n + 1)
        logp = (
            gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
            + k * math.log(theta) + (n - k) * math.log1p(-theta)
        )
        p = np.exp(logp)
        return EmpiricalLaw(k, p / p.sum())

    def conditional_resample(self, n, target_stat, rng):
        t = self._require_count(target_stat, n)
        out = np.zeros(n, dtype=np.int64)
        out[:t] = 1
        rng.shuffle(out)
        return out


class Poisson(Family):
    """Counts with intensity theta > 0."""

    name = "poisson"
    param_lo = 0.0
    param_hi = math.inf
    discrete = True

    def mean(self, theta: float) -> float:
        return theta

    def fisher(self, theta: float) -> float:
        """``1 / theta``, finite for theta from about 5.6e-309."""
        self.require_in_domain(theta)
        return self._finite_fisher(theta, 1.0 / theta)

    def log_density(self, theta: float, omega):
        self.require_in_domain(theta)
        w = np.asarray(omega, dtype=float)
        valid = (w >= 0) & (w == np.floor(w))
        safe = np.where(valid, w, 0.0)
        out = np.where(valid, safe * math.log(theta) - theta - gammaln(safe + 1.0),
                       -math.inf)
        return out if out.ndim else float(out)

    def natural_param(self, theta):
        return math.log(theta)

    def log_partition(self, theta):
        return theta

    def sample(self, theta, n, rng):
        self.require_in_domain(theta)
        return rng.poisson(theta, n)

    def sample_stat(self, theta, n, size, rng):
        self.require_in_domain(theta)
        return rng.poisson(n * theta, size)

    def stat_bounds(self, n):
        return (0, math.inf)

    def stat_pmf(self, theta, n):
        self.require_in_domain(theta)
        lam = n * theta
        bound = lam + 14.0 * math.sqrt(lam) + 30.0
        self.require_cells(bound + 1.0, n)  # before int(), which fails on inf
        hi = int(bound)
        k = np.arange(hi + 1)
        logp = k * math.log(lam) - lam - gammaln(k + 1.0)
        p = np.exp(logp)
        # the true mass beyond hi; 1 - p.sum() would measure rounding error
        tail = pdtrc(hi, lam)
        if tail > _POISSON_TAIL:
            raise NumericalError(f"statistic law truncation left mass {tail}")
        return EmpiricalLaw(k, p / p.sum())

    def conditional_resample(self, n, target_stat, rng):
        """Cell counts given the total t: exactly Multinomial(t, 1/n each).

        Drawn as the counts of t uniform picks among the n cells
        (``bincount``): a fixed ~6 us plus O(t).  ``rng.multinomial`` draws
        one binomial per cell instead, O(n).  Best-of times in microseconds,
        multinomial / picks, on a 2-vCPU VM with numpy 2.4.6:

        ====  =========  =========  =========  ==========  ==========
        n     t = n/2    t = 2n     t = 8n     t = 28n     t = 32n
        ====  =========  =========  =========  ==========  ==========
        20    3.0 / 6.2  3.5 / 6.4  4.4 / 7.7  7.4 / 10.5  5.1 / 12.0
        100   7.6 / 7.4  11 / 8     17 / 18    29 / 22     16 / 25
        800   42 / 9     60 / 16    95 / 41    203 / 129   108 / 149
        1600  81 / 11    118 / 24   189 / 72   423 / 254   213 / 310
        ====  =========  =========  =========  ==========  ==========

        The picks win from about 100 cells up at cell means t/n below 30,
        where the clone calls of the benchmarks run (rn = 800, t about
        1600); multinomial wins on fewer cells or larger means, which no
        benchmark reaches, so only the picks are kept.

        The statistic has no upper bound, so the picks are drawn and counted
        at most `_PICKS_CHUNK` at a time: memory stays within 8 MiB of picks
        plus the n counts however large t is, and time grows as t (about
        11 ms per million picks).
        """
        t = self._require_count(target_stat, n)
        counts = np.bincount(rng.integers(0, n, min(t, _PICKS_CHUNK)), minlength=n)
        for done in range(_PICKS_CHUNK, t, _PICKS_CHUNK):
            size = min(_PICKS_CHUNK, t - done)
            counts += np.bincount(rng.integers(0, n, size), minlength=n)
        return counts.astype(np.int64, copy=False)


class GaussianLocation(Family):
    """Normal with unknown location and known scale sigma, 7.5e-155 to 1.3e154."""

    name = "gauss-loc"
    param_lo = -math.inf
    param_hi = math.inf
    discrete = False

    def __init__(self, sigma: float = 1.0):
        var = sigma * sigma  # sigma**2 would raise OverflowError past the range
        if not (sigma > 0 and 0.0 < var < math.inf and 1.0 / var < math.inf):
            raise ConfigurationError(
                f"sigma must lie in about 7.5e-155 to 1.3e154, where sigma^2 and "
                f"1/sigma^2 are positive and finite, got {sigma}"
            )
        self.sigma = float(sigma)

    def mean(self, theta: float) -> float:
        return theta

    def fisher(self, theta: float) -> float:
        return 1.0 / self.sigma**2

    def log_density(self, theta: float, omega):
        w = np.asarray(omega, dtype=float)
        out = (
            -0.5 * ((w - theta) / self.sigma) ** 2
            - math.log(self.sigma)
            - 0.5 * math.log(2.0 * math.pi)
        )
        return out if out.ndim else float(out)

    def natural_param(self, theta):
        return theta / self.sigma**2

    def log_partition(self, theta):
        return 0.5 * theta * theta / self.sigma**2

    def sample(self, theta, n, rng):
        return theta + self.sigma * rng.standard_normal(n)

    def sample_stat(self, theta, n, size, rng):
        return n * theta + self.sigma * math.sqrt(n) * rng.standard_normal(size)

    def conditional_resample(self, n, target_stat, rng):
        # bridge: fresh noise recentered so the sample mean is pinned; in
        # place, and bit-identical to target_stat / n + (z - z.mean())
        z = self.sigma * rng.standard_normal(n)
        z -= z.mean()
        z += target_stat / n
        return z

    def __repr__(self) -> str:  # pragma: no cover
        return f"GaussianLocation(sigma={self.sigma})"


_REGISTRY = {
    "bernoulli": Bernoulli,
    "poisson": Poisson,
    "gauss-loc": GaussianLocation,
}


def get_family(family_id: str, **kwargs) -> Family:
    """Family by CLI id: bernoulli, poisson, or gauss-loc."""
    try:
        cls = _REGISTRY[family_id]
    except KeyError:
        raise ConfigurationError(f"unknown family {family_id!r}; "
                         f"choose from {sorted(_REGISTRY)}") from None
    return cls(**kwargs)
