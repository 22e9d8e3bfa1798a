"""Worst-case loss of the optimal Gaussian-shift amplifier.

An r-amplifier maps N(h, S) close to N(sqrt(r) h, S); the optimal one is the
pure scale map ``x -> sqrt(r) x``, whose output N(sqrt(r) h, r S) misses the
target only through the excess covariance, with worst-case L1 loss
``tv_isotropic(r, m)`` independently of h and S.  Output and target share
the mean sqrt(r) h, and L1 is invariant under translation, so
`amplifier_loss_mc` scores the mean-zero pair once per call and reports that
one evaluation at every shift of the caller's grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .gaussian import GaussianShift, tv_monte_carlo, tv_quadrature


@dataclass(frozen=True)
class AmplifierLossReport:
    """Loss at each shift of the caller's grid, in its order, and the worst one.

    ``per_h`` holds ``(value, std_error)`` pairs, all the one evaluation of
    the mean-zero pair, as is the sup; ``method`` is the route it came from
    (``"quadrature"`` or ``"monte_carlo"``).
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

    The amplified law at shift h is N(sqrt(r) h, r sigma) in closed form and
    the target is N(sqrt(r) h, sigma).  Their common mean cancels from the
    L1 distance, so one route call scores N(0, r sigma) against N(0, sigma),
    and its ``(value, std_error)`` is reported at every shift and as the sup.
    The grid is only checked: nonempty, with each shift of dimension m.

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
    for h in grid:
        if h.shape != (m,):
            raise ConfigurationError(f"shift shape {h.shape} does not match dim {m}")
    with np.errstate(over="ignore"):  # GaussianShift refuses an inf entry
        amplified = GaussianShift(np.zeros(m), r * sigma)
    target = GaussianShift(np.zeros(m), sigma)
    if method == "quadrature":
        value, se = tv_quadrature(amplified, target), 0.0
    else:
        value, se = tv_monte_carlo(amplified, target, budget, rng)
    return AmplifierLossReport(
        per_h=((value, se),) * len(grid), sup_value=value, sup_std_error=se,
        method=method,
    )
