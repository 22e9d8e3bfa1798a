"""In-memory span tracer that wraps clonekit functions by name.

Every hook in `HOOKS` names a function as ``module:attribute.path`` and the
layer its time is charged to.  `Tracer.install` replaces each attribute with
a wrapper that records one span per call (layer, start, end, parent span,
operation id) and bumps the layer's counters; `Tracer.uninstall` puts the
originals back.  A hook whose attribute does not exist (the function was
renamed or deleted) is listed in `Tracer.unhooked` and its metrics are left
out of the report; the run goes on.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans, so the self times of all layers plus the time not
covered by any top-level span add up to the traced wall time.

Wrappers call the original with the same arguments and return its result
unchanged; they draw no random numbers, so traced and untraced runs produce
identical outputs.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np


def _len_result(args, kwargs, result):
    return len(result)


def _reps(args, kwargs, result):
    return args[3] if len(args) > 3 else kwargs["reps"]


def _clipped_reps(args, kwargs, result):
    return result.clip_rate * _reps(args, kwargs, result)


def _mc_budget(args, kwargs, result):
    # two expectations (or two balls), one draw per budget unit each
    return 2 * (args[2] if len(args) > 2 else kwargs["budget"])


def _lp_size(matrix):
    if matrix is None:
        return 0, 0
    nnz = getattr(matrix, "nnz", None)
    if nnz is None:
        nnz = int(np.count_nonzero(matrix))
    return matrix.shape[0], nnz


def _lp_vars(args, kwargs, result):
    return len(args[0] if args else kwargs["c"])


def _lp_rows(args, kwargs, result):
    return _lp_size(kwargs.get("A_ub"))[0] + _lp_size(kwargs.get("A_eq"))[0]


def _lp_nnz(args, kwargs, result):
    return _lp_size(kwargs.get("A_ub"))[1] + _lp_size(kwargs.get("A_eq"))[1]


def _lp_iters(args, kwargs, result):
    return int(getattr(result, "nit", 0))


def _one(args, kwargs, result):
    return 1


# counter name -> how much one call adds
_STREAM = {"streams.created": _one}
_SAMPLE = {"families.draws": _len_result}
_RESAMPLE = {"families.resampled": _len_result}
_MC = {"gaussian.mc_samples": _mc_budget}

# (target, layer, counters); a layer's time is reported as "<layer>_s"
HOOKS: tuple[tuple[str, str, dict], ...] = (
    ("clonekit.cli:resolve_config", "cli.config", {}),
    ("clonekit.cli:emit_report", "cli.report", {}),
    ("clonekit.deficiency:discretize_gaussian_pair", "deficiency.discretize", {}),
    ("clonekit.deficiency:lp_deficiency", "deficiency.build", {}),
    ("clonekit.deficiency:linprog", "deficiency.solve", {
        "deficiency.lp_vars": _lp_vars, "deficiency.lp_rows": _lp_rows,
        "deficiency.lp_nnz": _lp_nnz, "deficiency.solver_iters": _lp_iters,
    }),
    ("clonekit.streams:stream", "streams.setup", _STREAM),
    ("clonekit.cloner:stream", "streams.setup", _STREAM),
    ("clonekit.lan:stream", "streams.setup", _STREAM),
    ("clonekit.cli:stream", "streams.setup", _STREAM),
    ("clonekit:stream", "streams.setup", _STREAM),
    ("clonekit.families:Bernoulli.sample", "families.sample", _SAMPLE),
    ("clonekit.families:Poisson.sample", "families.sample", _SAMPLE),
    ("clonekit.families:GaussianLocation.sample", "families.sample", _SAMPLE),
    ("clonekit.families:Bernoulli.stat_pmf", "families.stat_pmf", {}),
    ("clonekit.families:Poisson.stat_pmf", "families.stat_pmf", {}),
    ("clonekit.families:Bernoulli.conditional_resample", "families.resample",
     _RESAMPLE),
    ("clonekit.families:Poisson.conditional_resample", "families.resample", _RESAMPLE),
    ("clonekit.families:GaussianLocation.conditional_resample", "families.resample",
     _RESAMPLE),
    ("clonekit.families:Family.round_stat", "cloner.rounding", {}),
    ("clonekit.cloner:_rounding_atoms", "cloner.rounding", {}),
    ("clonekit.cloner:clone_loss_discrete", "cloner.self", {
        "cloner.replicates": _reps, "cloner.clipped": _clipped_reps,
    }),
    ("clonekit.cloner:_loss_replicates", "cloner.self", {}),
    ("clonekit.cloner:local_minimax_probe", "cloner.self", {}),
    ("clonekit.cloner:estimate_theta", "cloner.estimate", {}),
    ("clonekit.cloner:_bootstrap_ci", "cloner.bootstrap", {}),
    ("clonekit.cloner:clone", "cloner.clone", {}),
    ("clonekit:clone", "cloner.clone", {}),
    ("clonekit.cloner:smoothed_score", "lan.smoothed_score", {}),
    ("clonekit.lan:smoothed_score", "lan.smoothed_score", {}),
    ("clonekit.lan:lan_residual_rate", "lan.residual", {}),
    ("clonekit.lan:loglik_ratio", "lan.loglik", {"lan.loglik_calls": _one}),
    ("clonekit.lan:quantile_coupling", "lan.coupling", {}),
    ("clonekit.lawdist:EmpiricalLaw.__init__", "lawdist.law_build",
     {"lawdist.laws_built": _one}),
    ("clonekit.lawdist:mixture_pmf", "lawdist.mixture", {}),
    ("clonekit.cloner:mixture_pmf", "lawdist.mixture", {}),
    ("clonekit.lawdist:pmf_l1", "lawdist.l1", {}),
    ("clonekit.cloner:pmf_l1", "lawdist.l1", {}),
    ("clonekit.gaussian:_adaptive_simpson", "gaussian.quadrature", {}),
    ("clonekit.lan:_adaptive_simpson", "gaussian.quadrature", {}),
    ("clonekit.gaussian:_tv_monte_carlo", "gaussian.mc", _MC),
    ("clonekit.gaussian:tv_ball_indicator", "gaussian.mc", _MC),
    ("clonekit.gaussian:tv_isotropic", "gaussian.closed_form", {}),
    ("clonekit.gaussian:chi2_cdf", "gaussian.closed_form", {}),
    ("clonekit.amplifier:amplifier_loss_mc", "amplifier.loss", {}),
)

# integrand calls are counted by wrapping the integrand handed to the hook
_INTEGRAND_COUNTER = "gaussian.integrand_evals"
_INTEGRAND_LAYER = "gaussian.quadrature"


def _resolve(target: str):
    """(owner, attribute name) for ``module:a.b.c``, or None if absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # classes: patch only attributes the class defines itself
    present = name in vars(owner) if isinstance(owner, type) else hasattr(owner, name)
    return (owner, name) if present else None


class Tracer:
    """Records spans and counters for the hooks in `HOOKS`."""

    def __init__(self) -> None:
        self.layers = sorted({layer for _, layer, _ in HOOKS})
        counter_names = {name for _, _, counters in HOOKS for name in counters}
        self.op = -1
        self.unhooked: list[str] = []
        self.hooked_layers: set[str] = set()
        self._hooked_counters: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []
        self._self_time = [0.0] * len(self.layers)
        self._counts = dict.fromkeys(counter_names | {_INTEGRAND_COUNTER}, 0.0)
        self._top_level = 0.0
        # open spans: [span index, child time so far, layer index]
        self._open: list[list] = []
        self.span_layer = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for target, layer, counters in HOOKS:
            found = _resolve(target)
            if found is None:
                self.unhooked.append(target)
                continue
            owner, name = found
            # the class's own entry, so a staticmethod is restored as one
            original = vars(owner)[name] if isinstance(owner, type) else getattr(
                owner, name
            )
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, counters))
            self.hooked_layers.add(layer)
            self._hooked_counters.update(counters)
            if layer == _INTEGRAND_LAYER:
                self._hooked_counters.add(_INTEGRAND_COUNTER)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrap(self, fn, layer: str, counters: dict):
        layer_id = self.layers.index(layer)
        counts = self._counts
        enter, leave = self._enter, self._leave
        counted_integrand = layer == _INTEGRAND_LAYER

        def wrapper(*args, **kwargs):
            if counted_integrand:
                integrand = args[0]

                def counted(x):
                    counts[_INTEGRAND_COUNTER] += 1
                    return integrand(x)

                args = (counted,) + args[1:]
            frame = enter(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            for name, amount in counters.items():
                counts[name] += amount(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer_id: int) -> list:
        index = len(self.span_start)
        self.span_layer.append(layer_id)
        self.span_parent.append(self._open[-1][0] if self._open else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        frame = [index, 0.0, layer_id]
        self._open.append(frame)
        self.span_start.append(perf_counter())
        return frame

    def _leave(self, frame: list) -> None:
        end = perf_counter()
        index, child_time, layer_id = frame
        self._open.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self._self_time[layer_id] += duration - child_time
        if self._open:
            self._open[-1][1] += duration
        else:
            self._top_level += duration

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per hooked layer, in seconds."""
        return {
            layer: self._self_time[i]
            for i, layer in enumerate(self.layers)
            if layer in self.hooked_layers
        }

    def counts(self) -> dict[str, float]:
        """Counter totals, for counters carried by at least one hooked call."""
        return {k: v for k, v in self._counts.items() if k in self._hooked_counters}

    @property
    def top_level_s(self) -> float:
        """Total duration of spans that have no parent span."""
        return self._top_level

    def write(self, path) -> None:
        """Save every span and the per-layer totals as an ``.npz`` file."""
        np.savez(
            path,
            layers=np.array(self.layers),
            span_layer=np.frombuffer(self.span_layer, dtype=np.int32),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int64),
            span_op=np.frombuffer(self.span_op, dtype=np.int64),
            span_start=np.frombuffer(self.span_start, dtype=np.float64),
            span_end=np.frombuffer(self.span_end, dtype=np.float64),
            self_time=np.array(self._self_time),
            unhooked=np.array(self.unhooked, dtype=str),
        )
