"""Gaussian shift experiments and the L1 loss constant.

The central quantity is the L1 distance between a standard normal and its
variance-scaled version,

    ``|| N(0, 1_m) - N(0, r 1_m) ||_1 = 2 [ F_m(t*) - F_m(t*/r) ]``,

where ``F_m`` is the chi-square CDF with ``m`` degrees of freedom and
``t* = m r ln(r) / (r - 1)`` is the squared radius at which the two densities
cross.  This constant is the worst-case loss of the optimal gain-``sqrt(r)``
amplifier of a Gaussian shift family, and it does not depend on the shift
covariance; both facts are exercised by the numeric routines here.

Three independent evaluation routes are provided: the chi-square closed form
(`tv_isotropic`), deterministic quadrature and unbiased Monte Carlo for
arbitrary Gaussian pairs (`tv_numeric`), and a ball-indicator Monte Carlo
estimate for the isotropic mean-zero case (`tv_ball_indicator`).  The Monte
Carlo route evaluates each density ratio in its sampling law's whitened
frame, elementwise in the same standard-normal draws that
`GaussianShift.sample` would use, with no per-sample triangular solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammainc

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"
MONTE_CARLO = "monte_carlo"
BALL_INDICATOR = "ball_indicator"
_METHODS = frozenset({CLOSED_FORM, QUADRATURE, MONTE_CARLO, BALL_INDICATOR})

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class TvResult:
    """An L1 distance between two probability densities, in [0, 2].

    ``std_error`` is zero for deterministic methods.  ``crossing_radius_sq``
    is populated by the isotropic closed form (the squared radius of the ball
    on which the narrower density dominates).
    """

    value: float
    method: str
    std_error: float = 0.0
    crossing_radius_sq: float | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not -1e-12 <= self.value <= 2.0 + 1e-9:
            raise ValueError(f"L1 distance {self.value} outside [0, 2]")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.method in (CLOSED_FORM, QUADRATURE) and self.std_error != 0.0:
            raise ValueError("deterministic methods report std_error = 0")


@dataclass(frozen=True)
class GaussianShift:
    """N(mean, cov) with symmetric positive definite covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        m = mean.shape[0]
        if cov.shape != (m, m):
            raise ValueError(f"cov shape {cov.shape} does not match dim {m}")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise ValueError("covariance is not symmetric within 1e-12")
        # factorization doubles as the positive-definiteness check
        object.__setattr__(self, "_chol", np.linalg.cholesky(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Log density at ``x``, shape (m,) or (n, m); returns scalar or (n,)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        dev = np.atleast_2d(x) - self.mean
        z = solve_triangular(self._chol, dev.T, lower=True).T
        quad = np.sum(np.square(z), axis=-1)
        logdet = 2.0 * np.sum(np.log(np.diag(self._chol)))
        out = -0.5 * (quad + logdet + self.dim * _LOG_2PI)
        return float(out[0]) if single else out

    def density(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.log_density(x))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self._chol.T


def chi2_cdf(m: int, t: float) -> float:
    """Chi-square CDF with ``m`` degrees of freedom at ``t``.

    The regularized lower incomplete gamma P(m/2, t/2), from
    ``scipy.special.gammainc``.
    """
    if m < 1 or int(m) != m:
        raise ValueError(f"degrees of freedom must be a positive integer, got {m}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return float(gammainc(0.5 * m, 0.5 * t))


def crossing_radius_sq(r: float, m: int) -> float:
    """Squared radius where the N(0, 1_m) and N(0, r 1_m) densities are equal.

    Solving ``(2 pi)^{-m/2} e^{-t/2} = (2 pi r)^{-m/2} e^{-t/(2r)}`` gives
    ``t* = m r ln(r) / (r - 1)``.  Only defined for r > 1; r = 1 is the
    degenerate zero-loss case handled by callers.
    """
    if m < 1 or int(m) != m:
        raise ValueError(f"dimension must be a positive integer, got {m}")
    if r <= 1.0:
        raise ValueError(f"crossing radius requires r > 1, got {r}")
    return m * r * math.log(r) / (r - 1.0)


def tv_isotropic(r: float, m: int) -> TvResult:
    """Closed-form L1 distance between N(0, 1_m) and N(0, r 1_m), r >= 1.

    Zero iff r = 1, strictly increasing in r, and independent of any common
    covariance factor (whitening reduces the general pair N(0, S), N(0, r S)
    to this case).
    """
    if m < 1 or int(m) != m:
        raise ValueError(f"dimension must be a positive integer, got {m}")
    if r < 1.0:
        raise ValueError(f"isotropic closed form requires r >= 1, got {r}")
    if r == 1.0:
        return TvResult(0.0, CLOSED_FORM, crossing_radius_sq=float(m))
    t_star = crossing_radius_sq(r, m)
    # the difference underflows to a signed epsilon for r barely above 1
    value = max(0.0, 2.0 * (chi2_cdf(m, t_star) - chi2_cdf(m, t_star / r)))
    return TvResult(value, CLOSED_FORM, crossing_radius_sq=t_star)


def whiten(cov: np.ndarray) -> np.ndarray:
    """Matrix W with W cov W^T = 1, from the inverse lower Cholesky factor."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    chol = np.linalg.cholesky(cov)
    m = cov.shape[0]
    # forward substitution against the identity; deterministic
    return np.linalg.solve(chol, np.eye(m))


def tv_numeric(
    p: GaussianShift,
    q: GaussianShift,
    method: str,
    budget: int = 100_000,
    rng: np.random.Generator | None = None,
    tol: float = 1e-6,
) -> TvResult:
    """Numeric L1 distance between two Gaussians of the same dimension.

    ``quadrature`` (m <= 2 only) whitens by ``p.cov`` and adaptively refines
    a Simpson rule to absolute tolerance ``tol``; integration boxes extend 12
    standard deviations beyond both means, where the neglected mass is far
    below tolerance.  ``monte_carlo`` uses the unbiased two-sided identity

        ``int |p - q| = E_p[(1 - q/p)^+] + E_q[(1 - p/q)^+]``

    with ``budget`` samples per expectation, the p side drawn first, and
    reports the standard error.  Each expectation is evaluated in its
    sampling law's whitened frame from the same standard-normal draws that
    `GaussianShift.sample` would use, so the value equals the sample-space
    formula on the same stream up to rounding.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if method == QUADRATURE:
        if p.dim > 2:
            raise ValueError("quadrature supports m <= 2 only")
        return TvResult(_tv_quadrature(p, q, tol), QUADRATURE)
    if method == MONTE_CARLO:
        if rng is None:
            raise ValueError("monte_carlo requires an rng")
        if budget < 1:
            raise ValueError("budget must be positive")
        value, se = _tv_monte_carlo(p, q, budget, rng)
        return TvResult(value, MONTE_CARLO, std_error=se)
    raise ValueError(f"tv_numeric supports quadrature or monte_carlo, got {method!r}")


def tv_ball_indicator(
    r: float, m: int, budget: int, rng: np.random.Generator
) -> TvResult:
    """Monte Carlo L1 distance for the isotropic mean-zero pair.

    Uses ``2 [ P(||Z||^2 <= t*) - P(||sqrt(r) Z'||^2 <= t*) ]`` with the known
    crossing radius; retained as a third route for the r >= 1 isotropic case.
    """
    if r < 1.0:
        raise ValueError(f"ball indicator requires r >= 1, got {r}")
    if r == 1.0:
        return TvResult(0.0, BALL_INDICATOR, crossing_radius_sq=float(m))
    t_star = crossing_radius_sq(r, m)
    z1 = rng.standard_normal((budget, m))
    z2 = rng.standard_normal((budget, m))
    a = (np.sum(z1 * z1, axis=1) <= t_star).astype(float)
    b = (r * np.sum(z2 * z2, axis=1) <= t_star).astype(float)
    value = 2.0 * (a.mean() - b.mean())
    se = 2.0 * math.sqrt(a.var() / budget + b.var() / budget)
    return TvResult(max(value, 0.0), BALL_INDICATOR, std_error=se,
                    crossing_radius_sq=t_star)


def _tv_monte_carlo(
    p: GaussianShift, q: GaussianShift, budget: int, rng: np.random.Generator
) -> tuple[float, float]:
    a = _shortfall(p, q, rng.standard_normal((budget, p.dim)))
    b = _shortfall(q, p, rng.standard_normal((budget, q.dim)))
    value = float(a.mean() + b.mean())
    se = math.sqrt(a.var() / budget + b.var() / budget)
    return value, se


def _shortfall(p: GaussianShift, q: GaussianShift, z: np.ndarray) -> np.ndarray:
    """``(1 - q/p)^+`` at the draws ``x = mean_p + L_p z`` of p, from ``z``.

    In p's whitened frame ``L_q^{-1}(x - mean_q) = A z + b`` with
    ``A = L_q^{-1} L_p`` (lower triangular) and ``b = L_q^{-1}(mean_p -
    mean_q)``, so ``log q(x) - log p(x) = (|z|^2 - |A z + b|^2) / 2 + log det
    L_p - log det L_q``.  The m x m solves are the only ones; the per-draw
    work is elementwise, one coordinate at a time.  Equal covariance factors
    give ``A = I`` exactly, which the solve would only round to, so an
    identical pair scores exactly zero.
    """
    if np.array_equal(p._chol, q._chol):
        a_mat = np.eye(p.dim)
    else:
        a_mat = solve_triangular(q._chol, p._chol, lower=True)
    b = solve_triangular(q._chol, p.mean - q.mean, lower=True)
    log_det = np.sum(np.log(np.diag(p._chol))) - np.sum(np.log(np.diag(q._chol)))
    cols = z.T
    gap = np.zeros(z.shape[0])  # |z|^2 - |A z + b|^2, one coordinate at a time
    w = np.empty_like(gap)
    term = np.empty_like(gap)
    for i in range(p.dim):
        np.multiply(cols[i], a_mat[i, i], out=w)
        for j in range(i):
            w += np.multiply(cols[j], a_mat[i, j], out=term)
        w += b[i]
        gap += np.square(cols[i], out=term)
        gap -= np.square(w, out=w)
    # gap becomes log(q/p), then the shortfall, in place
    gap *= 0.5
    gap += log_det
    np.exp(gap, out=gap)
    np.subtract(1.0, gap, out=gap)
    return np.maximum(gap, 0.0, out=gap)


def _tv_quadrature(p: GaussianShift, q: GaussianShift, tol: float) -> float:
    w = whiten(p.cov)
    mu = w @ (q.mean - p.mean)
    cov = w @ q.cov @ w.T
    m = p.dim
    if m == 1:
        s = math.sqrt(cov[0, 0])
        c = float(mu[0])
        lo = min(-12.0, c - 12.0 * s)
        hi = max(12.0, c + 12.0 * s)

        def f(y: float) -> float:
            return abs(
                math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
                - math.exp(-0.5 * ((y - c) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
            )

        return _adaptive_simpson(f, lo, hi, tol)

    # m == 2: iterated integral with scalar closed-form densities
    sx = math.sqrt(cov[0, 0])
    sy = math.sqrt(cov[1, 1])
    lo_x = min(-12.0, mu[0] - 12.0 * sx)
    hi_x = max(12.0, mu[0] + 12.0 * sx)
    lo_y = min(-12.0, mu[1] - 12.0 * sy)
    hi_y = max(12.0, mu[1] + 12.0 * sy)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    ia, ib, ic = cov[1, 1] / det, cov[0, 0] / det, -cov[0, 1] / det
    qnorm = 1.0 / (2.0 * math.pi * math.sqrt(det))
    mx, my = float(mu[0]), float(mu[1])
    two_pi_inv = 1.0 / (2.0 * math.pi)
    inner_tol = tol * 0.45 / (hi_x - lo_x)

    def g(x: float) -> float:
        dx = x - mx
        px = math.exp(-0.5 * x * x) * two_pi_inv

        def f(y: float) -> float:
            dy = y - my
            q = qnorm * math.exp(-0.5 * (ia * dx * dx + 2.0 * ic * dx * dy + ib * dy * dy))
            return abs(px * math.exp(-0.5 * y * y) - q)

        return _adaptive_simpson(f, lo_y, hi_y, inner_tol)

    return _adaptive_simpson(g, lo_x, hi_x, tol * 0.45)


def _adaptive_simpson(f, lo: float, hi: float, tol: float) -> float:
    """Adaptive Simpson quadrature with Richardson correction."""
    mid = 0.5 * (lo + hi)
    flo, fmid, fhi = f(lo), f(mid), f(hi)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    return _simpson_step(f, lo, hi, flo, fmid, fhi, whole, tol, depth=48)


def _simpson_step(f, lo, hi, flo, fmid, fhi, whole, tol, depth):
    mid = 0.5 * (lo + hi)
    lm = 0.5 * (lo + mid)
    rm = 0.5 * (mid + hi)
    flm, frm = f(lm), f(rm)
    left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
    right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * tol
    return (
        _simpson_step(f, lo, mid, flo, flm, fmid, left, half, depth - 1)
        + _simpson_step(f, mid, hi, fmid, frm, fhi, right, half, depth - 1)
    )
