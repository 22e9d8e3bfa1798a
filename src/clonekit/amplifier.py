"""The optimal Gaussian-shift amplifier and its cloning embedding.

An r-amplifier maps N(h, S) close to N(sqrt(r) h, S); the optimal one is the
pure scale map ``x -> sqrt(r) x`` (`amplify`), whose output N(sqrt(r) h, r S)
misses the target only through the excess covariance, with worst-case L1 loss
``tv_isotropic(r, m)`` independently of h and S.

One-to-r cloning reduces to amplification through an orthogonal matrix whose
first row is constant ``1/sqrt(r)`` (`build_rotation`, a Householder
reflection): stacking an amplified value with r-1 fresh N(0, S) draws and
reflecting back (`expand_to_clones`) turns an exact N(sqrt(r) h, S) input into
exactly i.i.d. N(h, S) clones, so the cloning loss equals the amplification
loss.  `expand_to_clones` and `gaussian_clone` take a leading batch axis:
inputs of shape ``(..., m)`` give clones of shape ``(..., r, m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianShift, tv_monte_carlo, tv_quadrature


def amplify(x: np.ndarray, r: float) -> np.ndarray:
    """Scale map ``sqrt(r) x``; sends N(h, S) to N(sqrt(r) h, r S)."""
    if r < 1.0:
        raise ValueError(f"amplification factor must be >= 1, got {r}")
    return math.sqrt(r) * np.asarray(x, dtype=float)


def _reflection_vector(r: int) -> np.ndarray:
    """``v = e1 - u`` with u the constant unit vector of length r (zero at r = 1)."""
    if r < 1 or int(r) != r:
        raise ValueError(f"clone count must be a positive integer, got {r}")
    v = np.full(int(r), -1.0 / math.sqrt(r))
    v[0] += 1.0
    return v


def build_rotation(r: int) -> np.ndarray:
    """Householder reflection (r x r array) with constant first row 1/sqrt(r).

    The reflection through ``v = e1 - u`` (u the constant unit vector) swaps
    e1 and u; being symmetric, its first row equals u.  Deterministic and
    O(r^2), with no orthogonalization drift.
    """
    v = _reflection_vector(r)
    if r == 1:
        return np.eye(1)
    return np.eye(len(v)) - np.outer(v, v) * (2.0 / (v @ v))


def expand_to_clones(
    y: np.ndarray,
    r: int,
    sigma: np.ndarray,
    rng: np.random.Generator,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Markov embedding of amplified values into r clone slots.

    ``y`` has shape ``(m,)`` or ``(..., m)``; the result has shape ``(r, m)``
    or ``(..., r, m)``.  Each value is stacked over r-1 i.i.d. N(0, sigma)
    draws and reflected back by `build_rotation`, applied in closed form.  If
    ``y`` is exactly N(sqrt(r) h, sigma), the output rows are exactly i.i.d.
    N(h, sigma).  The fresh draws come in batch order, so a batched call
    equals one call per input on the same stream.  ``noise`` overrides them
    (shape ``(..., r-1, m)``), for deterministic tests.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    v = _reflection_vector(r)
    r = len(v)
    m = y.shape[-1]
    shift = GaussianShift(np.zeros(m), sigma)  # validates SPD, once per call
    if r == 1:
        return y[..., None, :].copy()
    batch = y.shape[:-1]
    if noise is None:
        noise = shift.sample(math.prod(batch) * (r - 1), rng)
    noise = np.asarray(noise, dtype=float).reshape(*batch, r - 1, m)
    stacked = np.concatenate([y[..., None, :], noise], axis=-2)
    # the reflection is symmetric: it is its own transpose and inverse
    coef = (v @ stacked) * (2.0 / (v @ v))
    return stacked - v[:, None] * coef[..., None, :]


def gaussian_clone(
    x: np.ndarray, r: int, sigma: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Optimal 1-to-r cloner: amplify, then embed into clone slots.

    ``x`` of shape ``(m,)`` or ``(..., m)`` gives ``(r, m)`` or ``(..., r, m)``.
    """
    return expand_to_clones(amplify(x, r), r, sigma, rng)


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
    if r < 1.0:
        raise ValueError(f"amplification factor must be >= 1, got {r}")
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    m = sigma.shape[0]
    grid = [np.atleast_1d(np.asarray(h, dtype=float)) for h in h_grid]
    if not grid:
        raise ValueError("empty shift grid")
    if method == "auto":
        method = "quadrature" if m <= 2 else "monte_carlo"
    if method not in ("quadrature", "monte_carlo"):
        raise ValueError(
            f"method must be auto, quadrature or monte_carlo, got {method!r}"
        )
    # the route's own checks, made here too because r = 1 never calls it
    if method == "quadrature" and m > 2:
        raise ValueError("quadrature supports m <= 2 only")
    if method == "monte_carlo" and budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    results = []
    for h in grid:
        if h.shape != (m,):
            raise ValueError(f"shift shape {h.shape} does not match dim {m}")
        if r == 1.0:
            results.append((0.0, 0.0))
            continue
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
