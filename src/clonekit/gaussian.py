"""Gaussian shift experiments and the L1 loss constant.

The central quantity is the L1 distance between a standard normal and its
variance-scaled version,

    ``|| N(0, 1_m) - N(0, r 1_m) ||_1 = 2 [ F_m(t*) - F_m(t*/r) ]``,

where ``F_m`` is the chi-square CDF with ``m`` degrees of freedom and
``t* = m r ln(r) / (r - 1)`` is the squared radius at which the two densities
cross.  This constant is the worst-case loss of the optimal gain-``sqrt(r)``
amplifier of a Gaussian shift family, and it does not depend on the shift
covariance; both facts are exercised by the numeric routines here.

Three evaluation routes are provided, one function each: the chi-square
closed form (`tv_isotropic`), deterministic quadrature for arbitrary
Gaussian pairs with m <= 2 (`tv_quadrature`), and unbiased Monte Carlo for
arbitrary Gaussian pairs (`tv_monte_carlo`).  The closed form and quadrature
return a float; the Monte Carlo route returns ``(value, std_error)``.  The
quadrature route sums normal-CDF masses between exact density crossings.  The
Monte Carlo route evaluates each density ratio in its sampling law's whitened
frame, elementwise in the same standard-normal draws that
`GaussianShift.sample` would use, in cache-sized blocks.  Its whitening
matrices come from vector solves: a matrix right-hand side reaches BLAS
``trsm``, which wakes a BLAS thread that then spins through the whole pass.
The two sides are independent, so they run at once: the p side in the
calling thread and the q side in one helper thread, each on its own child
stream keyed by one integer drawn from the caller's generator, which thus
advances by the same amount whatever the budget.  Each side merges its
blocks' means and centred sums of squares in block order (Chan, Golub and
LeVeque), so a call holds only two sides' block scratch, and no number
depends on how the threads are scheduled.  The budget is capped at 10^8
draws per side (`_BUDGET_CAP`) and the dimension at m = 256 (`_DIM_CAP`), so
an oversized config is a `ConfigurationError`, not a run of minutes or a
failed allocation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammainc, ndtr

from . import streams
from .errors import ConfigurationError

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Monte Carlo draws per block: a block and its scratch stay in cache
_BLOCK = 1 << 14
# Monte Carlo draws per side: bounds the time of a call (about 9 s at m = 3
# on 2 vCPUs); its memory does not grow with the budget
_BUDGET_CAP = 10**8
# Monte Carlo dimension: each side holds a block of `_BLOCK` x m draws, so two
# 32 MiB blocks are live here
_DIM_CAP = 256


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
        if m < 1:
            raise ConfigurationError(f"dimension m must be at least 1, got {m}")
        if cov.shape != (m, m):
            raise ConfigurationError(f"cov shape {cov.shape} does not match dim {m}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ConfigurationError("mean and covariance entries must be finite")
        scale = max(1.0, float(np.abs(cov).max()))
        if np.abs(cov - cov.T).max() > 1e-12 * scale:
            raise ConfigurationError("covariance is not symmetric within 1e-12")
        try:  # factorization doubles as the positive-definiteness check
            object.__setattr__(self, "_chol", np.linalg.cholesky(cov))
        except np.linalg.LinAlgError:
            raise ConfigurationError("covariance is not positive definite") from None

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Log density at ``x``, shape (m,) or (n, m); returns scalar or (n,).

        ``z = L^{-1}(x - mean)`` by forward substitution, one coordinate at a
        time, as in `_shortfall`: a matrix right-hand side would reach BLAS.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        z = np.atleast_2d(x) - self.mean
        for i in range(self.dim):
            for j in range(i):
                z[:, i] -= self._chol[i, j] * z[:, j]
            z[:, i] /= self._chol[i, i]
        quad = np.sum(np.square(z), axis=-1)
        logdet = 2.0 * np.sum(np.log(np.diag(self._chol)))
        out = -0.5 * (quad + logdet + self.dim * _LOG_2PI)
        return float(out[0]) if single else out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self._chol.T


def chi2_cdf(m: int, t: float) -> float:
    """Chi-square CDF with ``m`` degrees of freedom at ``t``.

    The regularized lower incomplete gamma P(m/2, t/2), from
    ``scipy.special.gammainc``.
    """
    if m < 1 or int(m) != m:
        raise ConfigurationError(f"degrees of freedom must be a positive integer, got {m}")
    if not t >= 0:
        raise ConfigurationError(f"t must be nonnegative, got {t}")
    return float(gammainc(0.5 * m, 0.5 * t))


def crossing_radius_sq(r: float, m: int) -> float:
    """Squared radius where the N(0, 1_m) and N(0, r 1_m) densities are equal.

    Solving ``(2 pi)^{-m/2} e^{-t/2} = (2 pi r)^{-m/2} e^{-t/(2r)}`` gives
    ``t* = m r ln(r) / (r - 1)``.  Only defined for r > 1; r = 1 is the
    degenerate zero-loss case handled by callers.
    """
    if m < 1 or int(m) != m:
        raise ConfigurationError(f"dimension m must be a positive integer, got {m}")
    if not r > 1.0:
        raise ConfigurationError(f"crossing radius requires r > 1, got {r}")
    # r / (r - 1) first: r ln(r) overflows for r past about 3e305
    return m * math.log(r) * (r / (r - 1.0))


def tv_isotropic(r: float, m: int) -> float:
    """Closed-form L1 distance between N(0, 1_m) and N(0, r 1_m), r >= 1.

    Zero iff r = 1, strictly increasing in r to its limit 2 at r = inf, and
    independent of any common covariance factor (whitening reduces the
    general pair N(0, S), N(0, r S) to this case).
    """
    if m < 1 or int(m) != m:
        raise ConfigurationError(f"dimension m must be a positive integer, got {m}")
    if not r >= 1.0:
        raise ConfigurationError(f"isotropic closed form requires r >= 1, got {r}")
    if r == 1.0:
        return 0.0
    if r == math.inf:
        return 2.0
    t_star = crossing_radius_sq(r, m)
    # the difference underflows to a signed epsilon for r barely above 1
    return max(0.0, 2.0 * (chi2_cdf(m, t_star) - chi2_cdf(m, t_star / r)))


def check_dimension(route: str, m: int) -> None:
    """Refuse a dimension m that ``route`` (a `tv_<route>` function) cannot take.

    The routes check here themselves; a caller that has yet to build the
    m x m pair checks here first, so an oversized m allocates nothing.
    """
    if route == "quadrature" and m > 2:
        raise ConfigurationError("quadrature supports m <= 2 only")
    if route == "monte_carlo" and m > _DIM_CAP:
        raise ConfigurationError(
            f"Monte Carlo dimension m = {m} is over the cap of {_DIM_CAP}"
        )


def tv_quadrature(p: GaussianShift, q: GaussianShift, tol: float = 1e-6) -> float:
    """``int |p - q|`` for two Gaussians of the same dimension m <= 2.

    Exact up to rounding at m = 1, and within absolute tolerance ``tol`` at
    m = 2.  The integral is taken in p's whitened frame, rotated to q's
    principal axes, where p is N(0, 1_m) and q is N(c, diag(s^2)), both
    product densities.  At m = 1 the value is `_l1_kernel` with unit
    weights.  At m = 2 the inner integral over the second coordinate is that
    kernel, weighted by the two first-coordinate densities, and the outer one
    is adaptive quadrature on a box 12 standard deviations beyond both
    first-coordinate means, in pieces that share the tolerance.  The value
    is capped at 2, which rounding and quadrature error could pass.
    """
    if p.dim != q.dim:
        raise ConfigurationError(f"dimension mismatch: {p.dim} vs {q.dim}")
    check_dimension("quadrature", p.dim)
    shift = solve_triangular(p._chol, q.mean - p.mean, lower=True)
    root = _whitened(p, q)
    var, axes = np.linalg.eigh(root @ root.T)
    c = (axes.T @ shift).tolist()
    s = np.sqrt(var).tolist()
    if p.dim == 1:
        return min(_l1_kernel(0.0, 0.0, c[0], s[0]), 2.0)
    log_s0 = math.log(s[0])

    def f(x: float) -> float:
        z = (x - c[0]) / s[0]
        return _l1_kernel(-0.5 * x * x, -0.5 * z * z - log_s0, c[1], s[1]) / _SQRT_2PI

    # pieces on the scale of the narrower first-coordinate density, so quad
    # cannot step over it, then out to 12 sd beyond the wider one's mean; an
    # end less than one narrow sd past the last cut would be a sliver piece
    (sd, mean), (wide_sd, wide_mean) = sorted(((1.0, 0.0), (s[0], c[0])))
    cuts = [mean + k * sd for k in (-12.0, -4.0, 0.0, 4.0, 12.0)]
    lo, hi = wide_mean - 12.0 * wide_sd, wide_mean + 12.0 * wide_sd
    if lo < cuts[0] - sd:
        cuts.insert(0, lo)
    if hi > cuts[-1] + sd:
        cuts.append(hi)
    share = tol / (len(cuts) - 1)
    return min(sum(_adaptive_simpson(f, u, v, share) for u, v in zip(cuts, cuts[1:])), 2.0)


def tv_monte_carlo(
    p: GaussianShift, q: GaussianShift, budget: int, rng: np.random.Generator
) -> tuple[float, float]:
    """``(value, std_error)`` of the L1 distance between two Gaussians.

    Uses the unbiased two-sided identity

        ``int |p - q| = E_p[(1 - q/p)^+] + E_q[(1 - p/q)^+]``

    with ``budget`` samples per expectation.  The two expectations run on
    two threads, each on its own child stream of one integer drawn from
    ``rng`` (see `_tv_monte_carlo`), so ``rng`` advances by one draw
    whatever the budget.  Each expectation is evaluated in its sampling
    law's whitened frame from the same standard-normal draws that
    `GaussianShift.sample` would use on its child stream, so the value
    equals the sample-space formula on those streams up to rounding.
    For nearly disjoint pairs (value above about 1.9999) the shortfall is a
    rare event that a modest budget seldom samples, and the reported
    ``std_error`` then understates the error by orders of magnitude; compare
    there against quadrature or with an absolute floor.

    Memory is each side's block scratch, whatever the budget: a side's
    mean and variance are merged block by block.  ``budget`` is capped at
    `_BUDGET_CAP` draws per side and the dimension at `_DIM_CAP`, checked
    before anything is allocated or drawn.
    """
    if p.dim != q.dim:
        raise ConfigurationError(f"dimension mismatch: {p.dim} vs {q.dim}")
    check_dimension("monte_carlo", p.dim)
    if budget < 1:
        raise ConfigurationError(f"budget must be positive, got {budget}")
    if budget > _BUDGET_CAP:
        raise ConfigurationError(
            f"budget {budget} is over the cap of {_BUDGET_CAP} draws per side"
        )
    return _tv_monte_carlo(p, q, budget, rng)


def _tv_monte_carlo(
    p: GaussianShift, q: GaussianShift, budget: int, rng: np.random.Generator
) -> tuple[float, float]:
    """`tv_monte_carlo` without its checks.

    Draws one integer ``w`` from ``rng`` and scores the p side on
    ``stream(w, "tv-mc", 0)`` in the calling thread while a helper thread
    scores the q side on ``stream(w, "tv-mc", 1)``.  Each side is a pure
    function of its own stream, so the result does not depend on the
    scheduling.  Both streams are built before the helper starts, and the
    helper calls only `_shortfall`: `perfbench/tracer.py` wraps `stream`, and
    its span stack is single-threaded.  An exception on either side is
    raised here once the helper has been joined.  The tracer hooks this name
    and reads ``budget`` positionally.
    """
    w = int(rng.integers(1 << 63))
    p_rng, q_rng = streams.stream(w, "tv-mc", 0), streams.stream(w, "tv-mc", 1)
    q_side: list = [None]

    def score_q() -> None:
        try:
            q_side[0] = _shortfall(q, p, q_rng, budget)
        except BaseException as exc:  # raised again in the calling thread
            q_side[0] = exc

    helper = threading.Thread(target=score_q, name="tv-mc-q")
    helper.start()
    try:
        mean_a, var_a = _shortfall(p, q, p_rng, budget)
    finally:
        helper.join()
    if isinstance(q_side[0], BaseException):
        raise q_side[0]
    mean_b, var_b = q_side[0]
    value = float(mean_a + mean_b)
    se = math.sqrt(var_a / budget + var_b / budget)
    return value, se


def _whitened(p: GaussianShift, q: GaussianShift) -> np.ndarray:
    """``L_p^{-1} L_q`` by vector solves, one per column (see the module notes).

    Equal factors give the identity exactly, which the solve would only round
    to, so an identical pair scores exactly zero.
    """
    if np.array_equal(p._chol, q._chol):
        return np.eye(p.dim)
    return np.column_stack([solve_triangular(p._chol, c, lower=True) for c in q._chol.T])


def _shortfall(
    p: GaussianShift, q: GaussianShift, rng: np.random.Generator, budget: int
) -> tuple[float, float]:
    """Mean and variance of ``(1 - q/p)^+`` over ``budget`` draws of p.

    Each draw is ``x = mean_p + L_p z``.  In p's whitened frame
    ``L_q^{-1}(x - mean_q) = A z + b`` with ``A = L_q^{-1} L_p`` (lower
    triangular) and ``b = L_q^{-1}(mean_p - mean_q)``, so ``log q(x) - log
    p(x) = (|z|^2 - |A z + b|^2) / 2 + log det L_p - log det L_q``.  The m x m
    solves are the only ones; the per-draw work is elementwise, one
    coordinate at a time, per block of `_BLOCK`.  Each block's mean and
    centred sum of squares are merged into the running ones in block order
    (Chan, Golub and LeVeque), so no budget-sized buffer is held.  The
    variance divides by ``budget``, as ``ndarray.var`` does.
    """
    a_mat = _whitened(q, p)
    b = solve_triangular(q._chol, p.mean - q.mean, lower=True)
    log_det = np.sum(np.log(np.diag(p._chol))) - np.sum(np.log(np.diag(q._chol)))
    draws = np.empty((min(budget, _BLOCK), p.dim))
    gaps, w, term = np.empty((3, len(draws)))
    mean = m2 = 0.0
    for start in range(0, budget, _BLOCK):
        z = rng.standard_normal(out=draws[:budget - start])
        k = len(z)
        gap, w_k, term_k = gaps[:k], w[:k], term[:k]
        gap.fill(0.0)  # |z|^2 - |A z + b|^2, one coordinate at a time
        for i in range(p.dim):
            np.multiply(z[:, i], a_mat[i, i], out=w_k)
            for j in range(i):
                w_k += np.multiply(z[:, j], a_mat[i, j], out=term_k)
            w_k += b[i]
            gap += np.square(z[:, i], out=term_k)
            gap -= np.square(w_k, out=w_k)
        # gap becomes log(q/p), then the shortfall, in place
        gap *= 0.5
        gap += log_det
        np.exp(gap, out=gap)
        np.subtract(1.0, gap, out=gap)
        np.maximum(gap, 0.0, out=gap)
        block_mean = np.add.reduce(gap) / k
        np.subtract(gap, block_mean, out=term_k)
        block_m2 = np.add.reduce(np.square(term_k, out=term_k))
        delta = block_mean - mean
        mean += delta * (k / (start + k))
        m2 += block_m2 + delta * delta * (start * k / (start + k))
    return float(mean), float(m2 / budget)


def _l1_kernel(log_a: float, log_b: float, c: float, s: float) -> float:
    """``int |a phi(y) - b phi((y - c) / s) / s| dy`` for weights ``a, b > 0``.

    The weights come as logarithms, so a weight that underflows is a zero
    term, not a NaN.  ``log(a phi(y)) - log(b phi((y - c) / s) / s)`` is the
    quadratic ``A y^2 + B y + C``; the integrand keeps its sign between the
    real roots, so the integral is a sum of ``|a dPhi(y) - b dPhi((y - c) /
    s)|`` over the intervals they cut.
    """
    a_coef = 0.5 * (1.0 / (s * s) - 1.0)
    b_coef = -c / (s * s)
    c_coef = 0.5 * (c / s) ** 2 + log_a - log_b + math.log(s)
    # scaled by a power of two, exact away from subnormals, so b^2 and 4ac
    # stay below 5: unscaled they overflow once r ln r passes 1e308
    k = math.frexp(max(abs(b_coef), math.sqrt(abs(a_coef)) * math.sqrt(abs(c_coef))))[1]
    a_coef, b_coef, c_coef = (math.ldexp(v, -k) for v in (a_coef, b_coef, c_coef))
    if a_coef == 0.0:
        roots = [-c_coef / b_coef] if b_coef else []
    elif (disc := b_coef * b_coef - 4.0 * a_coef * c_coef) > 0.0:
        # the stable pair: no cancellation when one root is far out
        half = -0.5 * (b_coef + math.copysign(math.sqrt(disc), b_coef))
        roots = sorted((half / a_coef, c_coef / half))
    else:
        roots = []
    cuts = [-math.inf, *roots, math.inf]
    a, b = math.exp(log_a), math.exp(log_b)
    return sum(
        abs(a * _normal_mass(u, v) - b * _normal_mass((u - c) / s, (v - c) / s))
        for u, v in zip(cuts, cuts[1:])
    )


def _normal_mass(u: float, v: float) -> float:
    """Standard normal mass of (u, v), from the nearer tail."""
    return float(ndtr(-u) - ndtr(-v)) if u > 0.0 else float(ndtr(v) - ndtr(u))


def _adaptive_simpson(f, lo: float, hi: float, tol: float) -> float:
    """``int_lo^hi f`` to absolute tolerance ``tol``, by `scipy.integrate.quad`.

    Adaptive Gauss-Kronrod; the name stays because `perfbench/tracer.py`
    times the quadrature layer and counts integrand calls through it.
    """
    from scipy.integrate import quad  # loading it at package import costs ~40 ms

    return quad(f, lo, hi, epsabs=tol, epsrel=0.0)[0]
