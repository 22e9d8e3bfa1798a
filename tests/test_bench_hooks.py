"""Every per-layer benchmark metric keeps a live hook in the library.

`perfbench/tracer.py` reports a layer's self time, or a counter, only while
at least one of its hook targets exists.  A deleted or renamed target does
not fail a traced run: the metric just drops out of the report.  This test
resolves each target the way the tracer does, without installing anything,
and checks that every per-layer metric listed in `BENCHMARK.json` still has
one.
"""

import importlib.util
import json
from pathlib import Path

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
