"""Reproducible experiment harness.

Usage: ``clonekit <experiment> [--config FILE] [--seed N] [--workers N]
[--out PATH] [--format csv|json]``.

The config file is INI-style with one section per experiment id; command-line
flags override file values, file values override built-in defaults.  Every
report embeds the fully resolved configuration, and all randomness flows
through counter-based streams keyed by the seed and the experiment's own
path, so identical (config, seed) pairs produce byte-identical CSV on one
platform.  ``--workers`` is accepted and echoed in JSON reports, but every
experiment runs in one process, so it cannot change a number.

Exit codes: 0 success, 2 configuration error (`ConfigurationError`, from
`_param` or the library's checks), 3 numerical failure (a partial report is
still written); any other exception is a bug and exits 1 with a traceback.
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
from dataclasses import dataclass

import numpy as np

from . import amplifier, cloner, deficiency, gaussian, lan
from .errors import ConfigurationError, NumericalError
from .families import GaussianLocation, get_family
from .streams import stream

EXPERIMENTS = (
    "tv", "amp-loss", "deficiency", "clone-sim",
    "minimax-probe", "lan-diag", "coupling",
)

_DEFAULTS: dict[str, dict[str, str]] = {
    "tv": {
        "r": "2.0", "m": "1", "routes": "closed_form", "budget": "100000",
    },
    "amp-loss": {
        "r": "2.0", "sigma": "1.0", "h_grid": "0, 1, 3",
        "budget": "100000", "method": "auto",
    },
    "deficiency": {
        "r": "2.0", "sigma": "1.0", "a_list": "0.5, 1, 2, 4", "h_step": "0.5",
        "grid_lo": "-10", "grid_hi": "10", "grid_count": "201",
        "mode": "mean-shift", "report_identity": "true",
    },
    "clone-sim": {
        "family": "bernoulli", "theta": "0.3", "family_sigma": "1.0",
        "r": "2.0", "delta": "0.05", "epsilon": "0.01",
        "n_grid": "100, 400, 1600", "reps": "1000", "bootstrap": "200",
    },
    "minimax-probe": {
        "family": "bernoulli", "theta": "0.3", "family_sigma": "1.0",
        "a": "2.0", "h_grid": "-2, -1, 0, 1, 2", "n": "400",
        "r": "2.0", "delta": "0.05", "epsilon": "0.01", "reps": "1000",
    },
    "lan-diag": {
        "family": "bernoulli", "theta": "0.5", "family_sigma": "1.0",
        "h": "1.0", "threshold": "0.1", "n_grid": "25, 100, 400",
        "reps": "1000",
    },
    "coupling": {
        "family": "bernoulli", "theta": "0.5", "family_sigma": "1.0",
        "n_grid": "16, 64, 256, 1024", "epsilon_dev": "0.2",
        "resolution": "4001",
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict
    seed: int
    workers: int
    out: str | None
    fmt: str


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _param(params: dict, key: str, convert=_real):
    """``params[key]`` through ``convert``; a value it rejects is named by key."""
    text = params[key]
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigurationError(f"{key} = {text!r}: {exc}") from None


def _parse_floats(text: str) -> list[float]:
    return [_real(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _parse_points(text: str) -> list[list[float]]:
    """Comma-separated points, space-separated coordinates."""
    return [[_real(c) for c in tok.split()] for tok in text.split(",") if tok.strip()]


def _parse_matrix(text: str) -> np.ndarray:
    """Semicolon-separated rows, space-separated entries; '1.0' is 1x1."""
    rows = [[_real(c) for c in part.split()] for part in text.split(";") if part.strip()]
    return np.array(rows, dtype=float)


def _family_from(params: dict):
    fid = params["family"]
    if fid == "gauss-loc":
        return GaussianLocation(sigma=_param(params, "family_sigma"))
    return get_family(fid)


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
    params = dict(_DEFAULTS[experiment])
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
    )


# ---------------------------------------------------------------------------
# runners: each returns (rows, numerical_ok)

def _run_tv(cfg: ExperimentConfig):
    p = cfg.params
    r = _param(p, "r")
    m = _param(p, "m", int)
    budget = _param(p, "budget", int)
    closed = gaussian.tv_isotropic(r, m)  # names a bad r or m before GaussianShift can
    unit = gaussian.GaussianShift(np.zeros(m), np.eye(m))
    scaled = gaussian.GaussianShift(np.zeros(m), r * np.eye(m))
    rows = []
    for route in [s.strip() for s in p["routes"].split(",") if s.strip()]:
        if route == "closed_form":
            value, se = closed, 0.0
        elif route == "quadrature":
            value, se = gaussian.tv_quadrature(unit, scaled), 0.0
        elif route == "monte_carlo":
            value, se = gaussian.tv_monte_carlo(
                unit, scaled, budget, stream(cfg.seed, "tv", route)
            )
        else:
            raise ConfigurationError(
                f"unknown tv route {route!r}; "
                "choose from closed_form, quadrature, monte_carlo"
            )
        rows.append({
            "r": r, "m": m, "method": route, "value": value, "std_error": se,
        })
    return rows, True


def _run_amp_loss(cfg: ExperimentConfig):
    p = cfg.params
    r = _param(p, "r")
    sigma = _param(p, "sigma", _parse_matrix)
    m = sigma.shape[0]
    pts = _param(p, "h_grid", _parse_points)
    hs = [pt if len(pt) == m else pt + [0.0] * (m - len(pt)) for pt in pts]
    report = amplifier.amplifier_loss_mc(
        r, sigma, hs, _param(p, "budget", int),
        stream(cfg.seed, "amp-loss"), method=p["method"],
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
    return rows, True


def _run_deficiency(cfg: ExperimentConfig):
    p = cfg.params
    r = _param(p, "r")
    sigma = _param(p, "sigma")
    grid = deficiency.GridSpec(
        _param(p, "grid_lo"), _param(p, "grid_hi"), _param(p, "grid_count", int)
    )
    step = _param(p, "h_step")
    if step <= 0:
        raise ConfigurationError(f"h_step must be positive, got {step}")
    mode = p["mode"]
    closed = gaussian.tv_isotropic(r, 1)
    rows = []
    ok = True
    for a in _param(p, "a_list", _parse_floats):
        count = int(math.floor(a / step + 1e-9))
        hs = [i * step for i in range(-count, count + 1)]
        source, target = deficiency.discretize_gaussian_pair(hs, sigma, r, grid, mode)
        result = deficiency.lp_deficiency(source, target)
        ok = ok and result.lp_status == deficiency.STATUS_OPTIMAL
        row = {
            "a": a, "mode": mode, "n_shifts": len(hs),
            "lp_value": result.value, "lp_status": result.lp_status,
            "closed_form": closed,
        }
        if p["report_identity"].lower() in ("true", "1", "yes"):
            row["identity_value"] = deficiency.identity_objective(source, target)
        rows.append(row)
    return rows, ok


def _run_clone_sim(cfg: ExperimentConfig):
    p = cfg.params
    family = _family_from(p)
    theta = _param(p, "theta")
    r = _param(p, "r")
    delta = _param(p, "delta")
    reps = _param(p, "reps", int)
    rows = []
    for n in _param(p, "n_grid", _parse_ints):
        run_cfg = cloner.ClonerConfig(
            n=n, r=r, delta=delta, epsilon=_param(p, "epsilon"), seed=cfg.seed
        )
        rep = cloner.clone_loss_discrete(
            family, theta, run_cfg, reps, bootstrap=_param(p, "bootstrap", int),
        )
        rows.append({
            "family": family.name, "theta": theta, "n": n, "rn": run_cfg.rn,
            "loss": rep.loss, "ci_low": rep.ci_low, "ci_high": rep.ci_high,
            "clip_rate": rep.clip_rate, "reps": reps,
            "reference": gaussian.tv_isotropic(r / (1.0 - delta), 1),
        })
    return rows, True


def _run_minimax_probe(cfg: ExperimentConfig):
    p = cfg.params
    family = _family_from(p)
    theta = _param(p, "theta")
    run_cfg = cloner.ClonerConfig(
        n=_param(p, "n", int), r=_param(p, "r"), delta=_param(p, "delta"),
        epsilon=_param(p, "epsilon"), seed=cfg.seed,
    )
    hs = _param(p, "h_grid", _parse_floats)
    report = cloner.local_minimax_probe(
        family, theta, _param(p, "a"), hs, run_cfg, _param(p, "reps", int),
    )
    rows = [
        {
            "h": h, "theta_shifted": theta + h / math.sqrt(run_cfg.n),
            "loss": rep.loss, "ci_low": rep.ci_low, "ci_high": rep.ci_high,
        }
        for h, rep in zip(hs, report.losses)
    ]
    rows.append({
        "h": "sup", "theta_shifted": theta,
        "loss": report.sup_loss, "ci_low": math.nan, "ci_high": math.nan,
    })
    return rows, True


def _run_lan_diag(cfg: ExperimentConfig):
    p = cfg.params
    family = _family_from(p)
    n_grid = _param(p, "n_grid", _parse_ints)
    threshold = _param(p, "threshold")
    reps = _param(p, "reps", int)
    report = lan.lan_residual_rate(
        family, _param(p, "theta"), _param(p, "h"), n_grid, threshold, reps, cfg.seed,
    )
    rows = [
        {
            "n": n, "threshold": threshold, "exceed_prob": prob,
            "wilson_low": lo, "wilson_high": hi, "reps": reps,
        }
        for n, prob, lo, hi in zip(
            n_grid, report.exceed_prob, report.wilson_low, report.wilson_high
        )
    ]
    return rows, True


def _run_coupling(cfg: ExperimentConfig):
    p = cfg.params
    family = _family_from(p)
    n_grid = _param(p, "n_grid", _parse_ints)
    epsilon_dev = _param(p, "epsilon_dev")
    resolution = _param(p, "resolution", int)
    report = lan.quantile_coupling(
        family, _param(p, "theta"), n_grid, epsilon_dev, resolution,
    )
    rows = [
        {
            "n": n, "epsilon_dev": epsilon_dev,
            "deviation_measure": meas, "sup_deviation": sup,
            "resolution": resolution,
        }
        for n, meas, sup in zip(n_grid, report.deviation_measure, report.sup_deviation)
    ]
    return rows, True


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
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
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


def emit_report(
    rows: list[dict],
    cfg: ExperimentConfig,
    partial: bool,
    wall_clock: float,
) -> str:
    """Render the report and write it to cfg.out (or stdout).  Returns text."""
    if not rows:
        raise ConfigurationError("no results to report")
    if cfg.fmt == "csv":
        text = _render_csv(rows, cfg, partial)
    else:
        text = _render_json(rows, cfg, partial, wall_clock)
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
    echo = dict(sorted(cfg.params.items()))
    echo.update({
        "experiment": cfg.experiment, "seed": cfg.seed,
        "workers": cfg.workers, "format": cfg.fmt,
    })
    return echo


def _render_csv(rows: list[dict], cfg: ExperimentConfig, partial: bool) -> str:
    columns = list(rows[0].keys())
    lines = [
        "# clonekit report, schema 1",
        f"# experiment = {cfg.experiment}",
        f"# columns: {', '.join(columns)}",
    ]
    for key, value in sorted(_config_echo(cfg).items()):
        if key not in ("workers",):  # workers cannot change numbers
            lines.append(f"# config {key} = {value}")
    if partial:
        lines.append("# PARTIAL: numerical failure, see lp_status")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_value(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def _render_json(
    rows: list[dict], cfg: ExperimentConfig, partial: bool, wall_clock: float
) -> str:
    doc = {
        "schema": 1,
        "experiment": cfg.experiment,
        "config": _config_echo(cfg),
        "version": _version_string(),
        "partial": partial,
        "wall_clock_s": wall_clock,
        "results": rows,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_experiment(cfg: ExperimentConfig) -> int:
    started = time.monotonic()
    rows, ok = _RUNNERS[cfg.experiment](cfg)
    emit_report(rows, cfg, partial=not ok, wall_clock=time.monotonic() - started)
    return 0 if ok else 3


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
