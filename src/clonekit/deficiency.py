"""Linear-programming oracle for one-sided deficiency of finite experiments.

Given two experiments with a common parameter list, written as row-stochastic
matrices P (p x K_in) and Q (p x K_out), the deficiency is

    ``inf over column-stochastic L of  max over rows  || L P_t - Q_t ||_1``,

realized exactly as a linear program in equality form: each deviation
``(L P_t - Q_t)_y`` is one equality row that splits it into two nonnegative
slacks, ``e+ - e-``, and the weighted sum of ``e+ + e-`` over each
parameter's rows is bounded by the objective.  Since ``e+ + e- >= |dev|``,
with equality at ``e+- = max(+-dev, 0)``, the optimum is that of bounding
``|dev|`` by one slack through two inequality rows, with half the deviation
rows for the interior-point method to factorize.  This is the finite,
computable form of the randomization criterion, used as an independent route
to the Gaussian amplifier loss: discretizations of shifted Gaussian pairs are
built with exact CDF cell masses (`discretize_gaussian_pair`), and the LP
value is monotone in the shift bound and converges to the closed-form
constant as the bound grows.

The LP is exact but solved on a band.  The optimal kernel is sparse, about
two nonzeros per input cell near the map of source means onto target means,
so `lp_deficiency` starts from the kernel entries within 3 target standard
deviations of that fitted line (`_starting_band`) and solves the restricted
LP with HiGHS's interior-point method through ``scipy.optimize.linprog``;
crossover makes the solution and its duals basic.  The duals price every
excluded entry: if none has a negative reduced cost they are feasible for the
full LP, which certifies the restricted optimum as the full optimum by LP
duality; otherwise those entries join the LP and it is solved again (column
generation, Gilmore & Gomory 1961).  The mask only grows, so the worst case
is the full LP.  The width of 3 sds was chosen by a sweep: the 201-edge
Gaussian LPs of criteria 1 and 3 certify in one pricing round down to 2.5
sds but need a second round at 2.0, which costs more than the narrower band
saves, and 3 keeps a margin above that.

Two size caps of 40 000 keep instances at desk scale: one on the full
kernel, ``k_in * k_out``, and one on the deviation rows, ``p * k_out`` for p
parameters (counted before the mirror halving below).  `check_lp_size`
applies both, so a caller with several LPs to solve can check them all first.

Symmetric Gaussian pairs (a lattice and a shift list symmetric about 0) are
invariant under the reflection R: x -> -x, h -> -h, which maps input cell j
to ``Rj = k_in - 1 - j``, output cell y to ``Ry`` and shift t to ``p-1-t``.
The LP's constraints are invariant too, so averaging an optimal kernel with
its mirror image gives an optimal kernel with ``L[y, j] = L[Ry, Rj]``.
When `lp_deficiency` finds both experiments mirrored and ``k_in`` even, it
solves the LP over those kernels only: the columns ``j < k_in / 2``, the
shifts ``t <= p-1-t`` and, in a self-mirrored middle shift, half its rows.
That halves the kernel variables and the rows; the same build with no
mirror term is the LP for every other input (`_solve_on_mask`).  The
returned kernel is always the full ``k_out x k_in`` matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import ndtr

from .errors import ConfigurationError, NumericalError

MODE_MEAN_SHIFT = "mean-shift"        # source N(h, s2)        -> target N(sqrt(r) h, s2)
MODE_VARIANCE_EXCESS = "variance-excess"  # source N(sqrt(r) h, r s2) -> target N(sqrt(r) h, s2)
_MODES = (MODE_MEAN_SHIFT, MODE_VARIANCE_EXCESS)

STATUS_OPTIMAL = "optimal"
STATUS_ITERATION_LIMIT = "iteration_limit"

_KERNEL_VARIABLE_CAP = 40_000
_DEVIATION_ROW_CAP = 40_000  # p * k_out, before the mirror halving
_BOUNDARY_MASS_LIMIT = 1e-5
# Half-width of the starting band, in target-row sds.  Swept over 2.0, 2.5,
# 3.0, 3.5 and 4.5 on the 201-edge Gaussian LPs of criteria 1 and 3: one
# pricing round from 2.5 up, two at 2.0.  3.0 solves them in about 0.7x
# the time of 4.5 with a third fewer kernel variables.
_BAND_SDS = 3.0
_PRICING_TOL = 1e-9    # excluded entries priced below -_PRICING_TOL join the LP
_MIRROR_TOL = 1e-14    # largest mismatch of an experiment and its mirror image
_SOLVER_OPTIONS = {"primal_feasibility_tolerance": 1e-9,
                   "dual_feasibility_tolerance": 1e-9}


@dataclass(frozen=True)
class FiniteExperiment:
    """Parameter-indexed pmf rows over a finite outcome set."""

    params: tuple
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.atleast_2d(np.asarray(self.probs, dtype=float))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "params", tuple(self.params))
        if probs.shape[0] != len(self.params):
            raise ConfigurationError("one pmf row per parameter required")
        if not np.all(np.isfinite(probs)):
            raise ConfigurationError("non-finite cell mass")
        if np.any(probs < -1e-15):
            raise ConfigurationError("negative cell mass")
        rowsums = probs.sum(axis=1)
        if np.abs(rowsums - 1.0).max() > 1e-12:
            raise ConfigurationError("pmf rows must sum to 1 within 1e-12")

    @property
    def n_outcomes(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class DeficiencyResult:
    """Optimum of the deficiency LP and how the solver reached it.

    ``value`` is HiGHS's objective.  ``kernel`` is the LP solution clipped at
    0 and renormalized, so `kernel_objective` scores it slightly above
    ``value``: 3.64e-9 to 4.49e-9 on the five 201-edge Gaussian LPs of
    criteria 1 and 3, which is
    above the 1e-9 pricing tolerance but far inside the 1e-8 agreement of
    the frozen optima.  ``kernel_vars`` counts the kernel variables of the
    final LP, not its slacks: under the reflection reduction each stands for
    an entry and its mirror image, which halves the count.
    """

    value: float
    kernel: np.ndarray     # column-stochastic (k_out x k_in): column j is a pmf
    lp_status: str
    kernel_vars: int       # kernel variables in the final LP
    pricing_rounds: int    # LP solves, one per pricing round
    # HiGHS iterations summed over the solves.  scipy's ``nit`` is the simplex
    # count when HiGHS cleaned up the crossover basis with simplex, else the
    # interior-point count, and linprog does not expose the other one.
    simplex_or_ipm_iters: int
    crossover_iters: int

    def __post_init__(self) -> None:
        if not self.value >= -1e-9:
            raise NumericalError(f"deficiency must be nonnegative, got {self.value}")


def gaussian_cell_masses(mean: float, sd: float, edges: np.ndarray) -> np.ndarray:
    """Exact N(mean, sd^2) masses of the cells between consecutive edges.

    CDF differences, not density-times-width: this removes the quadratic
    discretization bias when cells are compared against closed forms.  Tail
    mass beyond the end edges must be below 1e-5 and is folded into the end
    cells before renormalizing.
    """
    z = (edges - mean) / sd
    cdf = ndtr(z)
    masses = np.diff(cdf)
    outside = cdf[0] + (1.0 - cdf[-1])
    if outside > _BOUNDARY_MASS_LIMIT:
        raise ConfigurationError(
            f"grid too narrow: boundary mass {outside:.2e} for mean={mean}, sd={sd}"
        )
    masses[0] += cdf[0]
    masses[-1] += 1.0 - cdf[-1]
    return masses / masses.sum()


@dataclass(frozen=True)
class GridSpec:
    """Uniform 1-d lattice of cell edges; count is the number of edges."""

    lo: float
    hi: float
    count: int

    def edges(self) -> np.ndarray:
        if self.count < 3 or self.hi <= self.lo:
            raise ConfigurationError("grid needs hi > lo and at least 3 edges")
        return np.linspace(self.lo, self.hi, self.count)


def symmetric_shifts(a: float, step: float) -> list[float]:
    """The shifts ``i * step`` with ``|i * step| <= a`` (1e-9 slack in a / step).

    Symmetric about 0, so on a symmetric lattice `lp_deficiency` solves the
    mirror-reduced LP.  A list longer than `_DEVIATION_ROW_CAP` is refused
    before it is built: every LP on it would be over that cap.
    """
    if not step > 0:
        raise ConfigurationError(f"h_step must be positive, got {step}")
    count = int(math.floor(a / step + 1e-9))
    if 2 * count + 1 > _DEVIATION_ROW_CAP:
        raise ConfigurationError(
            f"a = {a} at h_step = {step} gives {2 * count + 1} shifts, "
            f"over the deviation-row cap of {_DEVIATION_ROW_CAP}"
        )
    return [i * step for i in range(-count, count + 1)]


def discretize_gaussian_pair(
    h_list,
    sigma: float,
    r: float,
    grid: GridSpec,
    mode: str = MODE_MEAN_SHIFT,
) -> tuple[FiniteExperiment, FiniteExperiment]:
    """Source/target experiments for the amplification problem on a lattice.

    ``mean-shift`` poses the amplifier task itself: turn N(h, s2) into
    N(sqrt(r) h, s2).  ``variance-excess`` poses the equivalent scaled form
    whose continuum-optimal kernel is the identity: the source already has
    the amplified mean and carries excess covariance r s2.
    """
    if mode not in _MODES:
        raise ConfigurationError(f"unknown mode {mode!r}; choose from {_MODES}")
    if not sigma > 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    if not r >= 1.0:
        raise ConfigurationError("r must be >= 1")
    hs = [float(h) for h in h_list]
    if not hs:
        raise ConfigurationError("empty shift list")
    edges = grid.edges()
    sq = math.sqrt(r)
    if mode == MODE_MEAN_SHIFT:
        src = [(h, sigma) for h in hs]
    else:
        src = [(sq * h, sq * sigma) for h in hs]
    tgt = [(sq * h, sigma) for h in hs]
    source = FiniteExperiment(
        params=tuple(hs),
        probs=np.vstack([gaussian_cell_masses(m, s, edges) for m, s in src]),
    )
    target = FiniteExperiment(
        params=tuple(hs),
        probs=np.vstack([gaussian_cell_masses(m, s, edges) for m, s in tgt]),
    )
    return source, target


def kernel_objective(
    kernel: np.ndarray, source: FiniteExperiment, target: FiniteExperiment
) -> float:
    """max over parameters of || L P_t - Q_t ||_1 for a column-stochastic L."""
    out = source.probs @ kernel.T
    return float(np.abs(out - target.probs).sum(axis=1).max())


def identity_objective(source: FiniteExperiment, target: FiniteExperiment) -> float:
    """Objective of the identity kernel (source and target on one lattice)."""
    if source.n_outcomes != target.n_outcomes:
        raise ConfigurationError("identity kernel needs matching outcome counts")
    return float(np.abs(source.probs - target.probs).sum(axis=1).max())


def lp_deficiency(
    source: FiniteExperiment, target: FiniteExperiment
) -> DeficiencyResult:
    """Optimal kernel and value of the one-sided deficiency LP.

    Minimizes t subject to column-stochastic L and, for every parameter,
    each deviation split into two nonnegative slacks whose summed total is
    at most t.  The kernel starts on `_starting_band` and grows by pricing
    (see `_priced_solve`) until the dual certificate proves the restricted
    optimum optimal for the full LP.  When both experiments are mirror
    images of themselves (`_mirrored`) and ``k_in`` is even, the LP is solved
    over the reflection-symmetric kernels only, with half the kernel
    variables.  `check_lp_size` runs before any solve.  Always feasible
    (route everything to any fixed target row), so a failed solve is a
    numerical error, not an infeasibility.
    """
    if source.params != target.params:
        raise ConfigurationError("source and target must share the parameter list")
    k_in = source.n_outcomes
    k_out = target.n_outcomes
    check_lp_size(len(source.params), k_in, k_out)
    mask = _starting_band(source.probs, target.probs)
    mirror = k_in % 2 == 0 and _mirrored(source.probs) and _mirrored(target.probs)
    if mirror:
        mask = mask[: k_in // 2]
    return _priced_solve(source.probs, target.probs, mask, mirror)[0]


def check_lp_size(n_params: int, k_in: int, k_out: int) -> None:
    """Reject an LP over `_KERNEL_VARIABLE_CAP` or `_DEVIATION_ROW_CAP`.

    The kernel has ``k_in * k_out`` entries and the LP one deviation row per
    parameter and output cell, ``n_params * k_out``, before the mirror halving.
    """
    if k_in * k_out > _KERNEL_VARIABLE_CAP:
        raise ConfigurationError(
            f"kernel would need {k_in * k_out} variables, cap is {_KERNEL_VARIABLE_CAP}"
        )
    if n_params * k_out > _DEVIATION_ROW_CAP:
        raise ConfigurationError(
            f"{n_params} shifts x {k_out} target cells would need "
            f"{n_params * k_out} deviation rows, cap is {_DEVIATION_ROW_CAP}"
        )


def _mirrored(probs: np.ndarray) -> bool:
    """Whether row ``p-1-t`` is row ``t`` reversed, for every t.

    The reflection x -> -x, h -> -h of a symmetric lattice and shift list.
    `_MIRROR_TOL` absorbs the rounding of the CDF differences, which mirror
    each other only to about 1e-15.
    """
    return bool(np.abs(probs[::-1, ::-1] - probs).max() <= _MIRROR_TOL)


def _starting_band(probs_in: np.ndarray, probs_out: np.ndarray) -> np.ndarray:
    """Kernel entries ``(j, y)`` near the fitted map of input to output cells.

    The centre line is the least-squares fit of each target row's mean
    output index against its source row's mean input index (slope sqrt(r)
    for mean-shift, 1 for variance-excess); with one parameter, or source
    means that do not vary, it is the diagonal scaled by ``k_out / k_in``.
    It is clipped into the output range so that no input column is left
    empty, and the half-width is `_BAND_SDS` target standard deviations.
    """
    k_in, k_out = probs_in.shape[1], probs_out.shape[1]
    cols = np.arange(k_in)
    outs = np.arange(k_out)
    mean_in = probs_in @ cols
    mean_out = probs_out @ outs
    if np.ptp(mean_in) > 1e-6:
        slope, intercept = np.polyfit(mean_in, mean_out, 1)
        centre = intercept + slope * cols
    else:
        centre = cols * (k_out / k_in)
    centre = np.clip(centre, 0, k_out - 1)
    sd_out = np.sqrt(((outs - mean_out[:, None]) ** 2 * probs_out).sum(axis=1))
    half_width = max(1.0, _BAND_SDS * sd_out.max())
    return np.abs(outs - centre[:, None]) <= half_width


def _priced_solve(
    probs_in: np.ndarray, probs_out: np.ndarray, mask: np.ndarray,
    mirror: bool = False,
) -> tuple[DeficiencyResult, np.ndarray]:
    """Column generation from ``mask``; returns the final mask too.

    ``mask[j, y]`` marks the kernel entries ``L[y, j]`` that start in the LP.
    Without ``mirror`` it is ``k_in x k_out``.  With ``mirror`` it covers the
    columns ``j < k_in / 2`` only, and each entry also stands for its mirror
    image ``L[Ry, Rj]`` (see `_solve_on_mask`).

    Each round solves the LP over the kernel entries in the mask and prices
    every excluded entry with the basic duals: ``lam[t, y]`` of the
    deviation rows, the first equality rows, and ``mu_j`` of the column-sum
    rows after them.  The reduced cost of ``L[y, j]`` is ``-(g[j, y] +
    mu_j)`` with ``g[j, y] = sum_t P_t[j] lam[t, y]``, the duals of dropped
    rows taken as 0; under ``mirror`` the entry also feeds row ``Ry`` through
    ``P_t[Rj]``, which adds ``g[Rj, Ry]``.  When none is below
    ``-_PRICING_TOL`` the duals are feasible for the LP over every entry, so
    the restricted optimum is its optimum.  Under ``mirror`` that LP ranges
    over the reflection-symmetric kernels, and averaging any kernel with its
    mirror image keeps it feasible without raising its objective, so that
    optimum is the full one.  Otherwise the negative entries join the mask.
    The mask only grows, so the loop ends, at worst on every entry.  A solve
    that hits the iteration limit ends the loop uncertified.
    """
    p, k_in = probs_in.shape
    k_out = probs_out.shape[1]
    rows = _row_map(p, k_out, mirror)
    kept = rows[1] > 0
    n_e = int(kept.sum())
    mask = mask.copy()
    rounds = iters = crossover_iters = 0
    while True:
        res = _solve_on_mask(probs_in, probs_out, mask, rows, mirror)
        rounds += 1
        iters += int(res.nit)
        crossover_iters += int(res.crossover_nit)
        if res.status == 1:
            status = STATUS_ITERATION_LIMIT
            break
        if res.status != 0:
            raise NumericalError(f"LP solver failed: {res.message}")
        marginals = res.eqlin.marginals
        dual = np.zeros((p, k_out))
        dual[kept] = marginals[:n_e]
        gain = probs_in.T @ dual
        if mirror:
            gain += gain[::-1, ::-1]
        reduced = -(gain[: mask.shape[0]] + marginals[n_e:, None])
        entering = ~mask & (reduced < -_PRICING_TOL)
        if not entering.any():
            status = STATUS_OPTIMAL
            break
        mask |= entering
    # the mask is the one just solved on, so its entries match the variables
    js, ys = np.nonzero(mask)
    kernel = np.zeros((k_out, k_in))
    kernel[ys, js] = res.x[: js.size]
    if mirror:
        kernel[k_out - 1 - ys, k_in - 1 - js] = res.x[: js.size]
    # clean the tiny negative / normalization residue left by the solver
    kernel = np.maximum(kernel, 0.0)
    kernel /= kernel.sum(axis=0, keepdims=True)
    result = DeficiencyResult(
        value=float(res.fun),
        kernel=kernel,
        lp_status=status,
        kernel_vars=int(mask.sum()),
        pricing_rounds=rounds,
        simplex_or_ipm_iters=iters,
        crossover_iters=crossover_iters,
    )
    return result, mask


def _row_map(p: int, k_out: int, mirror: bool):
    """Where each deviation ``(L P_t - Q_t)_y`` goes in the LP.

    Returns ``(row, weight)``, each ``p x k_out``: the equality row that
    splits ``(L P_t - Q_t)_y`` into the slacks ``e+[t, y] - e-[t, y]``, and
    the weight of those slacks in shift t's sum row.  The kept rows are
    numbered in order of ``(t, y)``.  Without ``mirror`` every row is kept
    with weight 1.  With it, the shifts past the middle are dropped (row -1,
    weight 0): each is the mirror image of a kept one.  The self-mirrored
    middle shift keeps the rows ``y < Ry`` with weight 2, standing for y and
    Ry, and a middle row ``y == Ry`` with weight 1.
    """
    t = np.arange(p)[:, None]
    y = np.arange(k_out)
    weight = np.ones((p, k_out))
    if mirror:
        rt, ry = p - 1 - t, k_out - 1 - y
        weight = np.where(t < rt, 1.0, (t == rt) * (2.0 * (y < ry) + (y == ry)))
    kept = weight > 0
    row = np.where(kept, np.cumsum(kept).reshape(p, k_out) - 1, -1)
    return row, weight


def _solve_on_mask(
    probs_in: np.ndarray, probs_out: np.ndarray, mask: np.ndarray, rows,
    mirror: bool,
):
    """HiGHS IPM solve of the LP over the kernel entries in ``mask``.

    Variables are the masked ``L[y, j]`` (ordered by input j), the slacks
    ``e+`` and then ``e-``, one each per kept deviation row of ``rows``
    (`_row_map`), and the objective t.  The first equality rows set
    ``(L P_t)_y - e+[t, y] + e-[t, y] = Q_t[y]``, one per kept deviation;
    the rest make each masked input column sum to 1.  The variable
    ``L[y, j]`` adds ``P_t[j]`` to row ``(t, y)``; under ``mirror`` it also
    stands for ``L[Ry, Rj]`` and adds ``P_t[Rj]`` to row ``(t, Ry)``.
    Contributions to dropped rows are left out.  The inequality rows bound
    each kept shift's weighted sum of ``e+ + e-`` by t; that sum is at least
    the shift's L1 deviation, with equality when one slack of each pair is 0.
    """
    row, weight = rows
    p, k_in = probs_in.shape
    k_out = probs_out.shape[1]
    kept = weight > 0
    js, ys = np.nonzero(mask)
    n_l = js.size
    n_e = int(kept.sum())
    n_shifts = int(kept.any(axis=1).sum())
    n_var = n_l + 2 * n_e + 1

    # (L P_t)_y = sum_j P_t[j] L[y, j]
    kernel_vals = probs_in[:, js]
    kernel_rows = row[:, ys]
    if mirror:
        kernel_vals = np.hstack([kernel_vals, probs_in[:, k_in - 1 - js]])
        kernel_rows = np.hstack([kernel_rows, row[:, k_out - 1 - ys]])
    kernel_cols = np.tile(np.arange(n_l), p * (1 + mirror))
    kernel_vals, kernel_rows = kernel_vals.ravel(), kernel_rows.ravel()
    keep = (kernel_vals != 0.0) & (kernel_rows >= 0)
    dev_rows = np.arange(n_e)
    slack_cols = n_l + np.arange(2 * n_e)      # e+ then e-
    entries = np.concatenate([kernel_rows[keep], dev_rows, dev_rows, n_e + js])
    cols = np.concatenate([kernel_cols[keep], slack_cols, np.arange(n_l)])
    vals = np.concatenate([
        kernel_vals[keep], -np.ones(n_e), np.ones(n_e), np.ones(n_l),
    ])
    a_eq = sparse.csr_matrix(
        (vals, (entries, cols)), shape=(n_e + mask.shape[0], n_var)
    )
    b_eq = np.concatenate([probs_out[kept], np.ones(mask.shape[0])])

    slack_t = np.tile(np.nonzero(kept)[0], 2)
    a_ub = sparse.csr_matrix(
        (np.concatenate([np.tile(weight[kept], 2), -np.ones(n_shifts)]),
         (np.concatenate([slack_t, np.arange(n_shifts)]),
          np.concatenate([slack_cols, np.full(n_shifts, n_var - 1)]))),
        shape=(n_shifts, n_var),
    )

    cost = np.zeros(n_var)
    cost[-1] = 1.0
    return linprog(
        cost, A_ub=a_ub, b_ub=np.zeros(n_shifts), A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None), method="highs-ipm", options=_SOLVER_OPTIONS,
    )
