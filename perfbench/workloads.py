"""The four benchmark workloads, their inputs and their output checks.

A workload is a list of `Op` units.  Each unit is timed as a whole and then
checked; a unit of ``size`` k stands for k operations, where an operation is
one CLI experiment invocation or one `clonekit.clone` call.  An operation
fails if it raises, exits non-zero, reports a non-``optimal`` LP status or
misses its check.

Checks follow the pass conditions of ``tests/test_acceptance.py`` for
criteria 1, 2, 4, 5, 6 and 7.  The gate runs them on one pinned seed; here
they run on every workload seed, so each statistical slack is widened until a
correct program fails a run with probability below about 1e-6 on any seed:

- Monte Carlo agreement at 6 standard errors instead of 3 (criteria 1, 2);
- every 95% bootstrap half-width in criterion 4's slack counted three times
  over, and two half-widths of slack added to its final tolerance;
- the chi-square p-value of criterion 6's fixed point above 1e-6 instead of
  0.01.

Deterministic conditions keep the gate's tolerances.  Each check note says
whether the gate's own thresholds held as well.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import chdtrc

import clonekit
import clonekit.cli

# Frozen constants, copied from tests/test_acceptance.py (ORACLE,
# ORACLE_REF_DELTA): loss constants agreed by quadrature, erf closed forms
# and Monte Carlo to 1e-8 before the implementation existed.
ORACLE = {(2, 1): 0.3321281500, (4, 1): 0.6453491377,
          (2, 2): 0.5, (2, 3): 0.6225444391}
ORACLE_REF_DELTA = 0.3561675455  # r = 2 / 0.95, m = 1

# LP optima of `lp_deficiency` at commit e20b67c: mean-shift, r = 2,
# sigma = 1, 201 edges on [-10, 10], h_step 0.5, for a = 0.5, 1, 2 (3, 5
# and 9 shifts); and criterion 1's variance-excess witness LP.  Any exact
# reformulation of the LP must reproduce them.
LP_OPTIMA = {0.5: 0.1375749552540298, 1.0: 0.18664441233202286,
             2.0: 0.2416618944158342}
LP_WITNESS_OPTIMUM = 0.22604172432012057
LP_TOL = 1e-8

MC_Z = 6.0          # gate: 3
CI_WIDEN = 3.0      # gate: 1
GOF_ALPHA = 1e-6    # gate: 0.01


@dataclass
class Op:
    """A timed unit of work: ``run(mark)`` then ``check(result, state)``.

    ``mark(i)`` tags the i-th operation of the unit for the tracer; ``check``
    returns (failed operations, note); ``digest`` gives the output bytes that
    must not change between passes or under tracing.
    """

    name: str
    size: int
    run: Callable
    check: Callable
    digest: Callable


@dataclass
class Plan:
    """A workload's ops, the check that needs every op of a pass, and
    whether the inputs depend on the seed."""

    ops: list[Op]
    finish: Callable[[dict], tuple[int, str]] = field(
        default=lambda state: (0, "")
    )
    uses_seed: bool = True


def op_seed(seed: int, name: str) -> int:
    """Per-operation CLI seed derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> list[dict]:
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(body)]


def _gate_note(strict: bool) -> str:
    return "gate thresholds: " + ("held" if strict else "missed")


def cli_op(name: str, experiment: str, params: dict, seed: int,
           workdir: Path, check: Callable[[list[dict]], tuple[bool, str]]) -> Op:
    """One CLI invocation, configured by an INI file written now."""
    ini = workdir / f"{name}.ini"
    ini.write_text(
        f"[{experiment}]\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
    )
    argv = [experiment, "--config", str(ini), "--seed", str(op_seed(seed, name)),
            "--workers", "1", "--format", "csv"]

    def run(mark):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = clonekit.cli.main(argv)
        return code, out.getvalue()

    def verify(result, state):
        code, text = result
        if code != 0:
            return 1, f"exit code {code}"
        ok, note = check(parse_csv(text))
        return (0 if ok else 1), note

    return Op(name, 1, run, verify, lambda result: result[1].encode())


# ---------------------------------------------------------------------------
# lp-oracle: deterministic, ignores the seed

def _check_lp_sequence(rows):
    values = [row["lp_value"] for row in rows]
    ok = [row["a"] for row in rows] == list(LP_OPTIMA)
    ok = ok and [row["n_shifts"] for row in rows] == [3.0, 5.0, 9.0]
    ok = ok and all(row["lp_status"] == "optimal" for row in rows)
    ok = ok and all(abs(v - LP_OPTIMA[row["a"]]) <= LP_TOL
                    for v, row in zip(values, rows))
    closed = rows[0]["closed_form"] if rows else math.nan
    ok = ok and abs(closed - ORACLE[(2, 1)]) < 1e-8
    ok = ok and all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    ok = ok and all(v <= closed + 0.02 for v in values)
    return ok, f"lp_values={values}"


def _check_lp_witness(rows):
    (row,) = rows
    witness, lp = row["identity_value"], row["lp_value"]
    ok = row["lp_status"] == "optimal" and row["n_shifts"] == 5.0
    ok = ok and abs(witness - ORACLE[(2, 1)]) <= 0.02
    ok = ok and lp <= witness + 1e-9
    ok = ok and abs(lp - LP_WITNESS_OPTIMUM) <= LP_TOL
    return ok, f"witness={witness} lp={lp}"


def lp_oracle(seed: int, workdir: Path) -> Plan:
    r = 2.0
    span = 6 * math.sqrt(r) + 2 * math.sqrt(r) * math.sqrt(r)
    grid = {"r": r, "sigma": 1.0, "grid_count": 201, "report_identity": "true"}
    return Plan([
        cli_op("lp-sequence", "deficiency", {
            **grid, "mode": "mean-shift", "a_list": "0.5, 1, 2", "h_step": 0.5,
            "grid_lo": -10.0, "grid_hi": 10.0,
        }, seed, workdir, _check_lp_sequence),
        cli_op("lp-witness", "deficiency", {
            **grid, "mode": "variance-excess", "a_list": "2", "h_step": 1.0,
            "grid_lo": repr(-span), "grid_hi": repr(span),
        }, seed, workdir, _check_lp_witness),
    ], uses_seed=False)


# ---------------------------------------------------------------------------
# count-law: criterion 4 and 5 at gate configuration

def _convergence_check(final_tol):
    def check(rows):
        ref = rows[0]["reference"]
        devs = [abs(row["loss"] - ref) for row in rows]
        hws = [(row["ci_high"] - row["ci_low"]) / 2 for row in rows]

        def passes(widen):
            ok = devs[-1] <= final_tol + (widen - 1.0) * hws[-1]
            return ok and all(
                devs[k + 1] <= devs[k] + widen * (hws[k] + hws[k + 1])
                for k in range(len(devs) - 1)
            )

        ok = abs(ref - ORACLE_REF_DELTA) < 1e-8
        ok = ok and [row["n"] for row in rows] == [100.0, 400.0, 1600.0]
        ok = ok and all(row["reps"] == 20_000 for row in rows)
        ok = ok and passes(CI_WIDEN)
        devs_txt = [round(d, 4) for d in devs]
        return ok, f"devs={devs_txt} tol={final_tol}; {_gate_note(passes(1.0))}"

    return check


def _check_minimax(rows):
    per_h = {row["h"]: row["loss"] for row in rows}
    sup, center = per_h["sup"], per_h[0.0]
    bound = ORACLE[(2, 1)] - 0.07
    ok = len(per_h) == 6 and sup >= bound and sup >= center
    return ok, f"sup={sup:.4f} bound={bound:.4f}"


def count_law(seed: int, workdir: Path) -> Plan:
    pipeline = {"r": 2.0, "delta": 0.05, "epsilon": 0.01}
    ops = [
        cli_op(f"clone-sim-{family}", "clone-sim", {
            "family": family, "theta": theta, **pipeline,
            "n_grid": "100, 400, 1600", "reps": 20_000, "bootstrap": 200,
        }, seed, workdir, _convergence_check(tol))
        for family, theta, tol in (("bernoulli", 0.3, 0.05), ("poisson", 2.0, 0.07))
    ]
    ops.append(cli_op("minimax-probe", "minimax-probe", {
        "family": "bernoulli", "theta": 0.3, "a": 2.0,
        "h_grid": "-2, -1, 0, 1, 2", "n": 1600, **pipeline, "reps": 10_000,
    }, seed, workdir, _check_minimax))
    return Plan(ops)


# ---------------------------------------------------------------------------
# sample-path: `clone` on fresh streams

FIXED_POINT_CALLS = 100_000
FIXED_POINT_THETA, FIXED_POINT_N = 0.3, 20
CLONE_CALLS = 5_000
CLONE_N = 400
CLONE_FAMILIES = (
    (clonekit.Bernoulli(), 0.3),
    (clonekit.Poisson(), 2.0),
    (clonekit.GaussianLocation(1.0), 0.0),
)
BATCH = 1_000


def _clone_batch(name, family, theta, cfg, key, start, stop, seed, frozen):
    def run(mark):
        out = []
        for k, i in enumerate(range(start, stop)):
            if mark is not None:
                mark(k)
            rng = clonekit.stream(seed, key, i)
            data = family.sample(theta, cfg.n, rng)
            rec = clonekit.clone(
                family, data, cfg, rng, theta_hat=theta if frozen else None
            )
            out.append((data, rec))
        return out

    def verify(result, state):
        lo, hi = family.stat_bounds(cfg.rn)
        kind = "i" if family.discrete else "f"
        shaped = np.array([rec.output.shape == (cfg.rn,)
                           and rec.output.dtype.kind == kind for _, rec in result])
        outs = np.stack([rec.output if ok else np.zeros(cfg.rn, rec.output.dtype)
                         for ok, (_, rec) in zip(shaped, result)])
        stats = outs.sum(axis=1)
        ok = shaped & (lo <= stats) & (stats <= hi)
        if family.discrete:
            ok &= outs.min(axis=1) >= 0
        else:
            targets = np.array([rec.target_stat for _, rec in result])
            ok &= np.isfinite(outs).all(axis=1)
            ok &= np.abs(stats - targets) <= 1e-9 * (np.abs(targets) + cfg.rn)
        if frozen:
            ok &= stats == np.array([data.sum() for data, _ in result])
            state.setdefault("fixed_point_counts", []).extend(stats.tolist())
        return int((~ok).sum()), ""

    def digest(result):
        return b"".join(rec.output.tobytes() for _, rec in result)

    return Op(name, stop - start, run, verify, digest)


def _binomial_pmf(n, p):
    return np.array([math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)])


def _fixed_point_gof(state):
    """Criterion 6: the fixed-point output counts follow Binomial(n, theta)."""
    counts = np.asarray(state.get("fixed_point_counts", []))
    if counts.size != FIXED_POINT_CALLS:
        return 1, f"fixed point: {counts.size} of {FIXED_POINT_CALLS} counts"
    expected = _binomial_pmf(FIXED_POINT_N, FIXED_POINT_THETA) * counts.size
    observed = np.bincount(counts, minlength=FIXED_POINT_N + 1).astype(float)
    keep = expected >= 5.0
    stat = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep])
                 + (observed[~keep].sum() - expected[~keep].sum()) ** 2
                 / max(expected[~keep].sum(), 1e-9))
    p_value = float(chdtrc(int(keep.sum()), stat))
    note = f"fixed point GOF p={p_value:.4f}; {_gate_note(p_value > 0.01)}"
    return (0 if p_value > GOF_ALPHA else 1), note


def sample_path(seed: int, workdir: Path) -> Plan:
    ops = []
    fixed_cfg = clonekit.ClonerConfig(
        n=FIXED_POINT_N, r=1.0, delta=0.05, epsilon=0.0, seed=seed
    )
    bern = clonekit.Bernoulli()
    for start in range(0, FIXED_POINT_CALLS, BATCH):
        ops.append(_clone_batch(
            "clone-fixed-point", bern, FIXED_POINT_THETA, fixed_cfg,
            "perfbench-fixed-point", start, start + BATCH, seed, frozen=True,
        ))
    cfg = clonekit.ClonerConfig(n=CLONE_N, r=2.0, delta=0.05, epsilon=0.01, seed=seed)
    for family, theta in CLONE_FAMILIES:
        for start in range(0, CLONE_CALLS, BATCH):
            ops.append(_clone_batch(
                f"clone-{family.name}", family, theta, cfg,
                f"perfbench-clone-{family.name}", start, start + BATCH, seed,
                frozen=False,
            ))
    return Plan(ops, _fixed_point_gof)


# ---------------------------------------------------------------------------
# diagnostics: lan-diag, tv, amp-loss, coupling

def _check_lan_diag(rows):
    probs = [row["exceed_prob"] for row in rows]
    ok = len(rows) == 3 and all(b < a for a, b in zip(probs, probs[1:]))
    ok = ok and all(rows[k]["wilson_low"] > rows[k + 1]["wilson_high"]
                    for k in range(len(rows) - 1))
    return ok, f"exceedance={probs}"


def _check_tv(r, m):
    def check(rows):
        by_method = {row["method"]: row for row in rows}
        closed = by_method["closed_form"]["value"]
        ok = abs(closed - ORACLE[(r, m)]) < 1e-8
        if "quadrature" in by_method:
            gap = abs(closed - by_method["quadrature"]["value"])
            ok = ok and gap <= 1e-4
            return ok, f"(r={r},m={m}) |closed-quadrature|={gap:.2e}"
        mc = by_method["monte_carlo"]
        gap = abs(closed - mc["value"])
        strict = gap <= max(1e-4, 3 * mc["std_error"])
        ok = ok and gap <= max(1e-4, MC_Z * mc["std_error"])
        return ok, f"(r={r},m={m}) |closed-mc|={gap:.2e}; {_gate_note(strict)}"

    return check


def _check_amp_loss(m):
    def check(rows):
        ref = ORACLE[(2, m)]
        z = max(abs(row["value"] - ref) / row["std_error"] for row in rows)
        ok = len(rows) == 4 and all(row["method"] == "monte_carlo" for row in rows)
        ok = ok and z <= MC_Z
        return ok, f"worst {z:.2f} se; {_gate_note(z <= 3.0)}"

    return check


def _check_coupling(rows):
    measure = [row["deviation_measure"] for row in rows]
    ns = [row["n"] for row in rows]
    sups = [row["sup_deviation"] for row in rows]
    slope = float(np.polyfit(np.log(ns), np.log(sups), 1)[0])
    ok = len(rows) == 4 and all(b <= a for a, b in zip(measure, measure[1:]))
    ok = ok and -0.7 <= slope <= -0.3
    return ok, f"slope={slope:.3f}"


def _matrix_text(cov: np.ndarray) -> str:
    return "; ".join(" ".join(repr(float(v)) for v in row) for row in cov)


def diagnostics(seed: int, workdir: Path) -> Plan:
    ops = []
    for family, theta in (("bernoulli", 0.5), ("poisson", 1.0)):
        ops.append(cli_op(f"lan-diag-{family}", "lan-diag", {
            "family": family, "theta": theta, "h": 1.0, "threshold": 0.1,
            "n_grid": "25, 100, 400", "reps": 10_000,
        }, seed, workdir, _check_lan_diag))
    for r, m, routes in ((2, 1, "closed_form, quadrature"),
                         (4, 1, "closed_form, quadrature"),
                         (2, 2, "closed_form, quadrature"),
                         (2, 3, "closed_form, monte_carlo")):
        ops.append(cli_op(f"tv-r{r}-m{m}", "tv", {
            "r": float(r), "m": m, "routes": routes, "budget": 1_000_000,
        }, seed, workdir, _check_tv(r, m)))
    amp = {"r": 2.0, "budget": 1_000_000, "method": "monte_carlo"}
    for s2 in (0.25, 1.0, 9.0):
        ops.append(cli_op(f"amp-loss-s{s2}", "amp-loss", {
            **amp, "sigma": s2, "h_grid": "0, 1, 3",
        }, seed, workdir, _check_amp_loss(1)))
    # criterion 2's random SPD covariances, drawn from the workload seed
    spd_rng = np.random.default_rng(seed)
    for k in range(2):
        a = spd_rng.standard_normal((2, 2))
        cov = a @ a.T + 0.4 * np.eye(2)
        ops.append(cli_op(f"amp-loss-spd{k}", "amp-loss", {
            **amp, "sigma": _matrix_text(cov), "h_grid": "0 0, 1 0, 3 0",
        }, seed, workdir, _check_amp_loss(2)))
    for family, theta in (("bernoulli", 0.5), ("poisson", 1.0)):
        ops.append(cli_op(f"coupling-{family}", "coupling", {
            "family": family, "theta": theta, "n_grid": "16, 64, 256, 1024",
            "epsilon_dev": 0.2, "resolution": 4001,
        }, seed, workdir, _check_coupling))
    return Plan(ops)


WORKLOADS = {
    "lp-oracle": lp_oracle,
    "count-law": count_law,
    "sample-path": sample_path,
    "diagnostics": diagnostics,
}
