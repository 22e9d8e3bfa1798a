"""Each script under scripts/ runs to completion on small arguments."""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

from clonekit.cli import main as cli_main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(monkeypatch, capsys, script, args):
    """The script's output table: header line first, comment lines dropped."""
    spec = importlib.util.spec_from_file_location(script[:-3], SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [script, *args])
    module.main()
    lines = capsys.readouterr().out.splitlines()
    return [ln for ln in lines if not ln.startswith("#")]


@pytest.mark.parametrize("script,args,header", [
    ("loss_constant_table.py", ["--budget", "1000"], "lp-witness"),
    ("deficiency_sweep.py", ["--a-grid", "0.5", "--grid-count", "81"], "lp_value"),
    ("convergence_study.py", ["--n-grid", "100", "--reps", "200"], "ci_high"),
])
def test_script_main_runs(monkeypatch, capsys, script, args, header):
    table = _run_script(monkeypatch, capsys, script, args)
    assert header in table[0].split()
    assert len(table) > 1
    if script == "deficiency_sweep.py":
        # every LP of the sweep certifies on its starting band in one round
        columns = table[0].split()
        for line in table[1:]:
            row = dict(zip(columns, line.split()))
            assert row["status"] == "optimal" and row["rounds"] == "1", line


def test_deficiency_sweep_solves_the_cli_lp(monkeypatch, capsys, tmp_path):
    # a = 2 is not a multiple of the step: the shifts are -1.8 ... 1.8, not
    # -2 ... 1.9, so the LP is the CLI's and the mirror-reduced one
    table = _run_script(monkeypatch, capsys, "deficiency_sweep.py",
                        ["--a-grid", "2", "--h-step", "0.3", "--grid-count", "81"])
    (line,) = table[1:]
    script_row = dict(zip(table[0].split(), line.split()))
    ini = tmp_path / "cfg.ini"
    ini.write_text("[deficiency]\na_list = 2\nh_step = 0.3\ngrid_count = 81\n")
    out = tmp_path / "deficiency.csv"
    assert cli_main(["deficiency", "--config", str(ini), "--out", str(out)]) == 0
    data = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    (cli_row,) = csv.DictReader(data)
    assert script_row["shifts"] == cli_row["n_shifts"] == "13"
    assert float(script_row["lp_value"]) == pytest.approx(float(cli_row["lp_value"]),
                                                          abs=5e-7)
