"""Worst-case loss of the optimal Gaussian-shift amplifier.

An r-amplifier maps N(h, S) close to N(sqrt(r) h, S); the optimal one is the
pure scale map ``x -> sqrt(r) x``, whose output N(sqrt(r) h, r S) misses the
target only through the excess covariance, with worst-case L1 loss
``tv_isotropic(r, m)`` independently of h and S.  `amplifier_loss_mc` scores
that closed-form output law over a grid of shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .gaussian import GaussianShift, tv_monte_carlo, tv_quadrature


@dataclass(frozen=True)
class AmplifierLossReport:
    """Loss at each shift of the caller's grid, in its order, and the worst one.

    ``per_h`` holds ``(value, std_error)`` pairs; ``method`` is the route the
    values came from (``"quadrature"`` or ``"monte_carlo"``).
    """

    per_h: tuple[tuple[float, float], ...]
    sup_value: float
    sup_std_error: float
    method: str


def amplifier_loss_mc(
    r: float,
    sigma: np.ndarray,
    h_grid,
    budget: int,
    rng: np.random.Generator,
    method: str = "auto",
) -> AmplifierLossReport:
    """Worst-case amplifier loss over a grid of shifts.

    The amplified law at shift h is N(sqrt(r) h, r sigma) in closed form, so
    each grid point costs one L1 distance against the target
    N(sqrt(r) h, sigma), with no simulation of the map itself.  All per-h
    values agree up to evaluation error: the loss is shift-invariant.

    ``method`` is ``"quadrature"`` (`tv_quadrature`, m <= 2),
    ``"monte_carlo"`` (`tv_monte_carlo` with ``budget`` and ``rng``), or
    ``"auto"``, which picks quadrature for m <= 2 and Monte Carlo above.
    """
    if not r >= 1.0:
        raise ConfigurationError(f"amplification factor must be >= 1, got {r}")
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    m = sigma.shape[0]
    grid = [np.atleast_1d(np.asarray(h, dtype=float)) for h in h_grid]
    if not grid:
        raise ConfigurationError("empty shift grid")
    if method == "auto":
        method = "quadrature" if m <= 2 else "monte_carlo"
    if method not in ("quadrature", "monte_carlo"):
        raise ConfigurationError(
            f"method must be auto, quadrature or monte_carlo, got {method!r}"
        )
    results = []
    for h in grid:
        if h.shape != (m,):
            raise ConfigurationError(f"shift shape {h.shape} does not match dim {m}")
        amplified = GaussianShift(math.sqrt(r) * h, r * sigma)
        target = GaussianShift(math.sqrt(r) * h, sigma)
        if method == "quadrature":
            results.append((tv_quadrature(amplified, target), 0.0))
        else:
            results.append(tv_monte_carlo(amplified, target, budget, rng))
    sup_value, sup_std_error = max(results, key=lambda pair: pair[0])
    return AmplifierLossReport(
        per_h=tuple(results),
        sup_value=sup_value,
        sup_std_error=sup_std_error,
        method=method,
    )
