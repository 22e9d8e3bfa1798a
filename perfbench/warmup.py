"""Set-up probe: a fresh interpreter that imports clonekit and warms it.

Run as ``python3 perfbench/warmup.py`` from the repository root, it prints
``ready`` once clonekit, its CLI and HiGHS are loaded and a first stream has
drawn; the benchmark times that from process start.  `warm_up` is the same
warm-up, run in the benchmark process before anything is timed.
"""

import sys
from pathlib import Path


def warm_up() -> None:
    import clonekit
    import clonekit.cli  # noqa: F401  (the CLI module is not imported by clonekit)

    source, target = clonekit.discretize_gaussian_pair(
        [0.0], 1.0, 2.0, clonekit.GridSpec(-10.0, 10.0, 5)
    )
    clonekit.lp_deficiency(source, target)
    clonekit.stream(0, "perfbench-warm-up").random()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    warm_up()
    print("ready", flush=True)
