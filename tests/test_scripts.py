"""Each script under scripts/ runs to completion on small arguments."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args,header", [
    ("loss_constant_table.py", ["--budget", "1000"], "lp-witness"),
    ("deficiency_sweep.py", ["--a-grid", "0.5", "--grid-count", "81"], "lp_value"),
    ("convergence_study.py", ["--n-grid", "100", "--reps", "200"], "ci_high"),
])
def test_script_main_runs(monkeypatch, capsys, script, args, header):
    spec = importlib.util.spec_from_file_location(script[:-3], SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [script, *args])
    module.main()
    lines = capsys.readouterr().out.splitlines()
    table = [ln for ln in lines if not ln.startswith("#")]
    assert header in table[0].split()
    assert len(table) > 1
    if script == "deficiency_sweep.py":
        # every LP of the sweep certifies on its starting band in one round
        columns = table[0].split()
        for line in table[1:]:
            row = dict(zip(columns, line.split()))
            assert row["status"] == "optimal" and row["rounds"] == "1", line
