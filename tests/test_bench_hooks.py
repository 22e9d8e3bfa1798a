"""Every per-layer benchmark metric keeps a live hook in the library.

`perfbench/tracer.py` reports a layer's self time, or a counter, only while
at least one of its hook targets exists.  A deleted or renamed target does
not fail a traced run: the metric just drops out of the report.  The first
test resolves each target the way the tracer does, without installing
anything, and checks that every per-layer metric listed in `BENCHMARK.json`
still has one.  The second installs the tracer and runs every CLI experiment
and one `clone` call under it, so a result type that loses an attribute a
counter reads fails here rather than in a traced benchmark run.  The third
checks that the count-law loss alone, with no `clone`, charges time to each
of its stage layers.  The fourth checks that the Monte Carlo L1 route, which
scores one side on a helper thread, reaches every hooked function from the
main thread only: the tracer's span stack is single-threaded.  The last
freezes the set of targets that resolve to nothing, so a rename that
silently unhooks part of a layer fails here.
"""

import importlib.util
import json
import math
import threading
from pathlib import Path

import clonekit
import clonekit.cli

ROOT = Path(__file__).resolve().parents[1]

# per-layer metrics that perfbench/run.py derives from a hook counter
_FROM_COUNTER = {"cloner.clip_rate": "cloner.clipped"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _live_metrics(tracer) -> set[str]:
    """Layer times and counters carried by at least one resolvable hook."""
    live = set()
    for target, layer, counters in tracer.HOOKS:
        if tracer._resolve(target) is None:
            continue
        live.add(f"{layer}_s")
        live.update(counters)
        if layer == tracer._INTEGRAND_LAYER:
            live.add(tracer._INTEGRAND_COUNTER)
    return live


def test_every_per_layer_metric_has_a_live_hook():
    live = _live_metrics(_load_tracer())
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [
        m["name"] for m in listed
        # fail_rate and trace.* come from the runs themselves, not from hooks
        if m["name"] != "fail_rate" and not m["name"].startswith("trace.")
        and _FROM_COUNTER.get(m["name"], m["name"]) not in live
    ]
    assert missing == [], f"per-layer metrics with no live hook: {missing}"


# one small section per CLI experiment, each reaching its hooked layers
_TINY_CONFIG = """\
[tv]
m = 2
routes = closed_form, quadrature, monte_carlo
budget = 1000
[amp-loss]
h_grid = 0, 1
budget = 1000
method = monte_carlo
[deficiency]
a_list = 0.5
grid_lo = -8
grid_hi = 8
grid_count = 81
[clone-sim]
n_grid = 64
reps = 50
bootstrap = 10
[minimax-probe]
n = 64
reps = 20
h_grid = -1, 0, 1
a = 1
[lan-diag]
n_grid = 25, 100
reps = 200
[coupling]
n_grid = 16, 64
resolution = 101
"""


def test_traced_runs_succeed_and_counters_are_finite(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(_TINY_CONFIG)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        codes = {
            experiment: clonekit.cli.main([
                experiment, "--config", str(ini), "--seed", "3",
                "--out", str(tmp_path / f"{experiment}.csv"),
            ])
            for experiment in clonekit.cli.EXPERIMENTS
        }
        family = clonekit.Bernoulli()
        cfg = clonekit.ClonerConfig(n=20, r=2.0, delta=0.1, epsilon=0.01, seed=3)
        rng = clonekit.stream(3, "traced-clone")
        clonekit.clone(family, family.sample(0.3, cfg.n, rng), cfg, rng)
    finally:
        tracer.uninstall()
    assert codes == dict.fromkeys(clonekit.cli.EXPERIMENTS, 0)
    counts = tracer.counts()
    assert "cloner.clipped" in counts
    # tv at budget 1000 and amp-loss's one pair for its two shifts, two
    # sides each: the hook reads the budget as the third positional argument
    assert counts["gaussian.mc_samples"] == 4000
    bad = {name: v for name, v in counts.items() if not math.isfinite(v)}
    assert bad == {}, f"non-finite counters: {bad}"


def test_count_law_stages_carry_self_time():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        cfg = clonekit.ClonerConfig(n=64, r=2.0, delta=0.1, epsilon=0.01, seed=3)
        clonekit.cloner.clone_loss_discrete(
            clonekit.Bernoulli(), 0.3, cfg, reps=200, bootstrap=10
        )
    finally:
        tracer.uninstall()
    times = tracer.self_times()
    stages = ("lan.smoothed_score", "lawdist.mixture", "lawdist.l1", "cloner.rounding")
    idle = [layer for layer in stages if not times.get(layer, 0.0) > 0.0]
    assert idle == [], f"count-law stages with no self time: {idle}"


def test_monte_carlo_reaches_hooks_only_on_the_main_thread():
    # the tracer keeps one span stack, so a hooked function called from the
    # Monte Carlo route's helper thread would corrupt it: record the thread
    # of every call to every live hook target during one call
    tracer = _load_tracer()
    calls, saved = [], []

    def recorder(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return original(*args, **kwargs)
        return wrapper

    for target, _, _ in tracer.HOOKS:
        found = tracer._resolve(target)
        if found is None:
            continue
        owner, name = found
        original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        saved.append((owner, name, original))
        setattr(owner, name, recorder(name, original))
    try:
        p = clonekit.GaussianShift([0.0, 0.0], [[2.0, 0.3], [0.3, 1.0]])
        q = clonekit.GaussianShift([0.5, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        clonekit.tv_monte_carlo(p, q, 50_000, clonekit.stream(3, "hook-threads"))
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
    assert {"_tv_monte_carlo", "stream"} <= {name for name, _ in calls}
    off_main = [name for name, thread in calls if thread is not threading.main_thread()]
    assert off_main == [], f"hooked calls off the main thread: {off_main}"


# targets that name nothing in the library, each left for ROADMAP item 1a
# (a benchmark change) to drop from `perfbench/tracer.py` or re-point
_UNRESOLVED = {
    "clonekit.cloner:_loss_replicates",  # item 1a
    "clonekit.lan:smoothed_score",  # item 1a
    "clonekit.lan:_adaptive_simpson",  # item 1a
    "clonekit.lan:stream",  # item 1a: the exact residual rate draws nothing
    "clonekit.lawdist:mixture_pmf",  # item 1a
    "clonekit.lawdist:pmf_l1",  # item 1a
    "clonekit.gaussian:tv_ball_indicator",  # item 1a
}


def test_unresolved_hook_targets_are_the_known_ones():
    tracer = _load_tracer()
    unresolved = {target for target, _, _ in tracer.HOOKS
                  if tracer._resolve(target) is None}
    assert unresolved == _UNRESOLVED
