"""clonekit benchmark: one workload per run, untraced or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py`` and listed in ``BENCHMARK.json``.
With ``--trace 0`` the run measures the end-to-end metrics: it repeats the
workload's fixed work (a pass) while another pass fits in ``--seconds`` (at
least once) and reports the median pass, then times five fresh-interpreter
set-ups.  With ``--trace 1`` it runs one untraced and one traced pass and
reports the per-layer metrics; the two passes must produce identical outputs.
The last line of standard output is the JSON result; the lines before it
record the machine, the check notes and the sample counts.
"""

import os

# Pin the load before numpy loads BLAS: one process, BLAS/OpenMP pools capped
# at the CPUs this process may use.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _commit() -> str:
    """HEAD of a git checkout, read from its files; "unknown" elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int, workload: str, seed_used: bool) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seed_used": seed_used,
        "nproc": NPROC,
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": _commit(),
    }


class PassResult:
    """Wall and CPU time of one pass, its failures and its output digest."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.digest = hashlib.sha256()


def run_pass(plan, tracer=None) -> PassResult:
    """Run every op of the plan once; only the ops themselves are timed."""
    result = PassResult()
    state: dict = {}
    mark = None
    for op in plan.ops:
        first_op = result.attempted
        if tracer is not None:
            tracer.op = first_op

            def mark(k, first_op=first_op):
                tracer.op = first_op + k

        cpu0 = _cpu_now()
        t0 = time.perf_counter()
        try:
            out = op.run(mark)
            raised = None
        except Exception as exc:  # an operation that raises counts as failed
            raised = exc
        t1 = time.perf_counter()
        result.cpu += _cpu_now() - cpu0
        result.wall += t1 - t0
        result.attempted += op.size
        if raised is not None:
            result.failed += op.size
            result.notes.append(f"{op.name}: raised {raised!r}")
            continue
        try:
            failed, note = op.check(out, state)
            result.digest.update(op.digest(out))
        except Exception as exc:  # a malformed output fails its check
            failed, note = op.size, f"check raised {exc!r}"
        result.failed += min(failed, op.size)
        if note or failed:
            result.notes.append(f"{op.name}: {'FAIL' if failed else 'ok'} {note}")
    failed, note = plan.finish(state)
    result.failed = min(result.failed + failed, result.attempted)
    if note or failed:
        result.notes.append(f"pass: {'FAIL' if failed else 'ok'} {note}")
    return result


def measure_setup() -> list[float]:
    """Seconds from launching a fresh interpreter to a warmed-up clonekit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "warmup.py")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(t1 - t0)
    return times


def end_to_end(plan, seconds: float) -> tuple[dict, list[PassResult], dict]:
    started = time.perf_counter()
    passes = [run_pass(plan)]
    # the peak of one pass, whatever the number of passes that fit
    peak = _peak_rss_mib()
    last = time.perf_counter() - started
    while time.perf_counter() - started + last <= seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(plan))
        last = time.perf_counter() - t0
    setups = measure_setup()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mib": peak,
    }
    samples = {
        "pass_wall_s": [p.wall for p in passes],
        "setup_s": setups,
    }
    return metrics, passes, samples


def per_layer(plan, workload: str) -> tuple[dict, list[PassResult], dict]:
    from tracer import Tracer

    base = run_pass(plan)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(plan, tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}.npz")

    counts = tracer.counts()
    replicates = counts.get("cloner.replicates", 0)
    metrics = {f"{layer}_s": t for layer, t in tracer.self_times().items()}
    metrics.update(counts)
    clipped = metrics.pop("cloner.clipped", None)
    if clipped is not None:
        metrics["cloner.clip_rate"] = clipped / replicates if replicates else 0.0
    passes = [base, traced]
    attempted = sum(p.attempted for p in passes)
    metrics["fail_rate"] = sum(p.failed for p in passes) / attempted
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.overhead_s"] = traced.wall - base.wall
    metrics["trace.unattributed_s"] = traced.wall - tracer.top_level_s
    samples = {"spans": len(tracer.span_start), "unhooked": tracer.unhooked}
    if metrics["trace.unattributed_s"] < -1e-6:
        raise RuntimeError("spans outside the timed operations")
    return metrics, passes, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if not (SRC / "clonekit" / "__init__.py").is_file():
        print(f"perfbench: no clonekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from warmup import warm_up
    from workloads import WORKLOADS

    warm_up()
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, passes, samples = per_layer(plan, args.workload)
            listed = spec["per_layer"]
        else:
            metrics, passes, samples = end_to_end(plan, args.seconds)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in listed}
    unlisted = set(metrics) - set(units)
    if unlisted:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unlisted)}")
    identical = len({p.digest.hexdigest() for p in passes}) == 1
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    samples["absent"] = [name for name in units if name not in metrics]

    env = _environment(args.seed, args.workload, plan.uses_seed)
    print(json.dumps({"environment": env}))
    for note in dict.fromkeys(n for p in passes for n in p.notes):
        print(f"check: {note}")
    print(json.dumps({"samples": samples, "outputs_identical": identical}))
    print(json.dumps({
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
