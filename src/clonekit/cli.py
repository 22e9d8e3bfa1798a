"""Reproducible experiment harness.

Usage: ``clonekit <experiment> [--config FILE] [--seed N] [--workers N]
[--out PATH] [--format csv|json]``.

The config file is INI-style with one section per experiment id; command-line
flags override file values, file values override built-in defaults.  `_KEYS`
gives every key its default text and parser; `resolve_config` parses each key
once, before any run, and runners read the parsed ``cfg.values``.  Reports
echo the raw text, ``cfg.params``.  All randomness flows through
counter-based streams keyed by the seed and the experiment's own path, so
identical (config, seed) pairs produce byte-identical CSV on one platform.
``--workers`` is accepted and echoed in JSON reports, but every experiment
runs in one process, so it cannot change a number.  The Monte Carlo L1 route
(`gaussian.tv_monte_carlo`) scores its two sides on two threads whatever
``--workers`` says, and no number depends on that either.

Exit codes: 0 success, 2 configuration error (`ConfigurationError`, from
`_param` or the library's checks), 3 numerical failure (`NumericalError`);
neither writes a report.  Any other exception is a bug and exits 1 with a
traceback.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import amplifier, cloner, deficiency, gaussian, lan
from .errors import ConfigurationError, NumericalError
from .families import GaussianLocation, get_family
from .streams import stream


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _list(convert):  # comma- or semicolon-separated items
    return lambda s: [convert(t) for t in s.replace(";", ",").split(",") if t.strip()]


def _coords(text: str) -> list[float]:
    return [_real(c) for c in text.split()]


def _matrix(text: str) -> np.ndarray:
    """Semicolon-separated rows of space-separated entries; '1.0' is 1x1."""
    return np.array([_coords(row) for row in text.split(";") if row.strip()], dtype=float)


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not a boolean; use one of {', '.join(states)}")
    return states[text.lower()]


# experiment -> key -> (default text, parser); reports echo the text
_FAMILY = {"family": ("bernoulli", str), "family_sigma": ("1.0", _real)}
_PIPELINE = {"r": ("2.0", _real), "delta": ("0.05", _real), "epsilon": ("0.01", _real)}
_KEYS: dict[str, dict[str, tuple]] = {
    "tv": {
        "r": ("2.0", _real), "m": ("1", int),
        "routes": ("closed_form", _list(str.strip)), "budget": ("100000", int),
    },
    "amp-loss": {
        "r": ("2.0", _real), "sigma": ("1.0", _matrix), "budget": ("100000", int),
        "h_grid": ("0, 1, 3", _list(_coords)), "method": ("auto", str),
    },
    "deficiency": {
        "r": ("2.0", _real), "sigma": ("1.0", _real), "h_step": ("0.5", _real),
        "a_list": ("0.5, 1, 2, 4", _list(_real)), "grid_lo": ("-10", _real),
        "grid_hi": ("10", _real), "grid_count": ("201", int),
        "mode": ("mean-shift", str), "report_identity": ("true", _boolean),
    },
    "clone-sim": {
        **_FAMILY, "theta": ("0.3", _real), **_PIPELINE, "reps": ("1000", int),
        "n_grid": ("100, 400, 1600", _list(int)), "bootstrap": ("200", int),
    },
    "minimax-probe": {
        **_FAMILY, "theta": ("0.3", _real), **_PIPELINE, "a": ("2.0", _real),
        "h_grid": ("-2, -1, 0, 1, 2", _list(_real)), "n": ("400", int),
        "reps": ("1000", int),
    },
    "lan-diag": {
        **_FAMILY, "theta": ("0.5", _real), "h": ("1.0", _real), "reps": ("1000", int),
        "threshold": ("0.1", _real), "n_grid": ("25, 100, 400", _list(int)),
    },
    "coupling": {
        **_FAMILY, "theta": ("0.5", _real), "n_grid": ("16, 64, 256, 1024", _list(int)),
        "epsilon_dev": ("0.2", _real), "resolution": ("4001", int),
    },
}
EXPERIMENTS = tuple(_KEYS)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict  # each key's text, as the report echoes it
    seed: int
    workers: int
    out: str | None
    fmt: str
    values: dict = field(default_factory=dict)  # each key's parsed value


def _param(params: dict, key: str, convert):
    """``params[key]`` through ``convert``; a value it rejects is named by key."""
    text = params[key]
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigurationError(f"{key} = {text!r}: {exc}") from None


def _family_from(v: dict):
    if v["family"] == "gauss-loc":
        return GaussianLocation(sigma=v["family_sigma"])
    return get_family(v["family"])


def _cloner_config(v: dict, n: int, seed: int) -> cloner.ClonerConfig:
    return cloner.ClonerConfig(n=n, seed=seed, **{key: v[key] for key in _PIPELINE})


def resolve_config(
    experiment: str,
    config_path: str | None,
    seed: int | None,
    workers: int | None,
    out: str | None,
    fmt: str | None,
) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    keys = _KEYS[experiment]
    params = {key: text for key, (text, _) in keys.items()}
    file_seed = file_workers = file_out = file_fmt = None
    if config_path is not None:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(config_path)
            section = dict(parser[experiment]) if parser.has_section(experiment) else {}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"config file {config_path!r}: {exc}") from None
        if not read:
            raise ConfigurationError(f"config file {config_path!r} not readable")
        for key, value in section.items():
            if key == "seed":
                file_seed = _param(section, key, int)
            elif key == "workers":
                file_workers = _param(section, key, int)
            elif key == "out":
                file_out = value
            elif key == "format":
                file_fmt = value
            elif key in params:
                params[key] = value
            else:
                raise ConfigurationError(
                    f"unknown key {key!r} for experiment {experiment!r}"
                )
    fmt_final = fmt or file_fmt or "csv"
    if fmt_final not in ("csv", "json"):
        raise ConfigurationError(f"format must be csv or json, got {fmt_final!r}")
    return ExperimentConfig(
        experiment=experiment,
        params=params,
        seed=seed if seed is not None else (file_seed if file_seed is not None else 1234),
        workers=workers if workers is not None else (file_workers or os.cpu_count() or 1),
        out=out or file_out,
        fmt=fmt_final,
        values={key: _param(params, key, parse) for key, (_, parse) in keys.items()},
    )


# ---------------------------------------------------------------------------
# runners: each reads cfg.values and returns its rows

def _run_tv(cfg: ExperimentConfig):
    v = cfg.values
    r, m = v["r"], v["m"]
    closed = gaussian.tv_isotropic(r, m)  # names a bad r or m before GaussianShift can
    numeric = [route for route in v["routes"] if route != "closed_form"]
    for route in numeric:
        if route not in ("quadrature", "monte_carlo"):
            raise ConfigurationError(
                f"unknown tv route {route!r}; "
                "choose from closed_form, quadrature, monte_carlo"
            )
        gaussian.check_dimension(route, m)
    if numeric:  # only the numeric routes need the m x m pair
        unit = gaussian.GaussianShift(np.zeros(m), np.eye(m))
        scaled = gaussian.GaussianShift(np.zeros(m), r * np.eye(m))
    rows = []
    for route in v["routes"]:
        if route == "closed_form":
            value, se = closed, 0.0
        elif route == "quadrature":
            value, se = gaussian.tv_quadrature(unit, scaled), 0.0
        else:
            value, se = gaussian.tv_monte_carlo(
                unit, scaled, v["budget"], stream(cfg.seed, "tv", route)
            )
        rows.append({"r": r, "m": m, "method": route, "value": value, "std_error": se})
    return rows


def _run_amp_loss(cfg: ExperimentConfig):
    v = cfg.values
    hs = [pt + [0.0] * (len(v["sigma"]) - len(pt)) for pt in v["h_grid"]]  # zero-padded
    report = amplifier.amplifier_loss_mc(
        v["r"], v["sigma"], hs, v["budget"],
        stream(cfg.seed, "amp-loss"), method=v["method"],
    )
    rows = [
        {
            "h": " ".join(f"{c:g}" for c in h),
            "value": value, "std_error": se, "method": report.method,
        }
        for h, (value, se) in zip(hs, report.per_h)
    ]
    rows.append({
        "h": "sup", "value": report.sup_value,
        "std_error": report.sup_std_error, "method": report.method,
    })
    return rows


def _run_deficiency(cfg: ExperimentConfig):
    v = cfg.values
    grid = deficiency.GridSpec(v["grid_lo"], v["grid_hi"], v["grid_count"])
    closed = gaussian.tv_isotropic(v["r"], 1)
    cells = max(grid.count - 1, 0)  # too few edges fail in discretize_gaussian_pair
    shift_lists = [deficiency.symmetric_shifts(a, v["h_step"]) for a in v["a_list"]]
    for hs in shift_lists:  # size-check every LP before the first solve
        deficiency.check_lp_size(len(hs), cells, cells)
    rows = []
    for a, hs in zip(v["a_list"], shift_lists):
        source, target = deficiency.discretize_gaussian_pair(
            hs, v["sigma"], v["r"], grid, v["mode"]
        )
        result = deficiency.lp_deficiency(source, target)
        row = {
            "a": a, "mode": v["mode"], "n_shifts": len(hs),
            "lp_value": result.value, "lp_status": result.lp_status,
            "closed_form": closed,
        }
        if v["report_identity"]:
            row["identity_value"] = deficiency.identity_objective(source, target)
        rows.append(row)
    return rows


def _run_clone_sim(cfg: ExperimentConfig):
    v = cfg.values
    # reps and bootstrap are checked but unused: the exact route draws no
    # replicates, and the reps column echoes the key
    cloner.check_replicates(v["reps"], v["bootstrap"])
    family = _family_from(v)
    rows = []
    for n in v["n_grid"]:
        run_cfg = _cloner_config(v, n, cfg.seed)
        rep = cloner.clone_loss_exact(family, v["theta"], run_cfg)
        rows.append({
            "family": family.name, "theta": v["theta"], "n": n, "rn": run_cfg.rn,
            "loss": rep.loss, "ci_low": rep.ci_low, "ci_high": rep.ci_high,
            "clip_rate": rep.clip_rate, "reps": v["reps"],
            "reference": gaussian.tv_isotropic(v["r"] / (1.0 - v["delta"]), 1),
        })
    return rows


def _run_minimax_probe(cfg: ExperimentConfig):
    v = cfg.values
    cloner.check_replicates(v["reps"])  # checked but unused, as in clone-sim
    run_cfg = _cloner_config(v, v["n"], cfg.seed)
    report = cloner.local_minimax_probe(
        _family_from(v), v["theta"], v["a"], v["h_grid"], run_cfg,
    )
    rows = [
        {
            "h": h, "theta_shifted": v["theta"] + h / math.sqrt(run_cfg.n),
            "loss": rep.loss, "ci_low": rep.ci_low, "ci_high": rep.ci_high,
        }
        for h, rep in zip(v["h_grid"], report.losses)
    ]
    rows.append({
        "h": "sup", "theta_shifted": v["theta"],
        "loss": report.sup_loss, "ci_low": math.nan, "ci_high": math.nan,
    })
    return rows


def _run_lan_diag(cfg: ExperimentConfig):
    v = cfg.values
    # reps is checked but unused, as in clone-sim: the probability is exact,
    # so both wilson columns hold it and the reps column echoes the key
    cloner.check_replicates(v["reps"], least=1)
    probs = lan.lan_residual_rate(
        _family_from(v), v["theta"], v["h"], v["n_grid"], v["threshold"],
    )
    rows = [
        {
            "n": n, "threshold": v["threshold"], "exceed_prob": prob,
            "wilson_low": prob, "wilson_high": prob, "reps": v["reps"],
        }
        for n, prob in zip(v["n_grid"], probs)
    ]
    return rows


def _run_coupling(cfg: ExperimentConfig):
    v = cfg.values
    report = lan.quantile_coupling(
        _family_from(v), v["theta"], v["n_grid"], v["epsilon_dev"], v["resolution"],
    )
    rows = [
        {
            "n": n, "epsilon_dev": v["epsilon_dev"], "deviation_measure": meas,
            "sup_deviation": sup, "resolution": v["resolution"],
        }
        for n, meas, sup in zip(
            v["n_grid"], report.deviation_measure, report.sup_deviation
        )
    ]
    return rows


_RUNNERS = {
    "tv": _run_tv,
    "amp-loss": _run_amp_loss,
    "deficiency": _run_deficiency,
    "clone-sim": _run_clone_sim,
    "minimax-probe": _run_minimax_probe,
    "lan-diag": _run_lan_diag,
    "coupling": _run_coupling,
}


# ---------------------------------------------------------------------------
# reporting

def _fmt_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _version_string() -> str:
    try:  # in the package's own directory, not the caller's
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    try:
        from importlib.metadata import version
        return version("clonekit")
    except Exception:
        return "unknown"


def emit_report(rows: list[dict], cfg: ExperimentConfig, wall_clock: float) -> str:
    """Render the report and write it to cfg.out (or stdout).  Returns text."""
    if not rows:
        raise ConfigurationError("no results to report")
    if cfg.fmt == "csv":
        text = _render_csv(rows, cfg)
    else:
        text = _render_json(rows, cfg, wall_clock)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {cfg.out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return text


def _config_echo(cfg: ExperimentConfig) -> dict:
    return {
        **cfg.params, "experiment": cfg.experiment, "seed": cfg.seed,
        "workers": cfg.workers, "format": cfg.fmt,
    }


def _render_csv(rows: list[dict], cfg: ExperimentConfig) -> str:
    columns = list(rows[0].keys())
    lines = [
        "# clonekit report, schema 1",
        f"# experiment = {cfg.experiment}",
        f"# columns: {', '.join(columns)}",
    ]
    for key, value in sorted(_config_echo(cfg).items()):
        if key not in ("workers",):  # workers cannot change numbers
            lines.append(f"# config {key} = {value}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_value(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def _render_json(rows: list[dict], cfg: ExperimentConfig, wall_clock: float) -> str:
    doc = {
        "schema": 1,
        "experiment": cfg.experiment,
        "config": _config_echo(cfg),
        "version": _version_string(),
        "wall_clock_s": wall_clock,
        # JSON has no NaN or infinity: a non-finite value is written as null
        "results": [
            {key: None if isinstance(value, float) and not math.isfinite(value)
             else value for key, value in row.items()}
            for row in rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def run_experiment(cfg: ExperimentConfig) -> int:
    started = time.monotonic()
    rows = _RUNNERS[cfg.experiment](cfg)
    emit_report(rows, cfg, wall_clock=time.monotonic() - started)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="clonekit",
        description="Numerical experiments on asymptotic cloning of "
                    "classical state families.",
    )
    parser.add_argument("experiment", help=f"one of: {', '.join(EXPERIMENTS)}")
    parser.add_argument("--config", help="INI file with a section per experiment")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", default=None, help="report path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(
            args.experiment, args.config, args.seed, args.workers,
            args.out, args.format,
        )
        return run_experiment(cfg)
    except ConfigurationError as exc:
        print(f"clonekit: configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"clonekit: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
