"""Harness: config resolution, report formats, determinism, exit codes."""

import json
import math
import shutil
import subprocess
import tracemalloc

import pytest

import clonekit
from clonekit import ConfigurationError, NumericalError
from clonekit.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    emit_report,
    main,
    resolve_config,
)
from clonekit.cli import _version_string

TV_2_1 = 0.3321281500


def run_cli(args):
    return main(args)


class TestConfigResolution:
    def test_unknown_experiment_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli(["frobnicate", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "configuration error" in capsys.readouterr().err

    def test_defaults(self):
        cfg = resolve_config("tv", None, None, None, None, None)
        assert cfg.seed == 1234 and cfg.fmt == "csv"
        assert cfg.params["r"] == "2.0"

    def test_file_and_flag_precedence(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[tv]\nr = 3.0\nseed = 77\nformat = json\n")
        cfg = resolve_config("tv", str(ini), None, None, None, None)
        assert cfg.params["r"] == "3.0" and cfg.seed == 77 and cfg.fmt == "json"
        # flags win over the file
        cfg = resolve_config("tv", str(ini), 5, None, None, "csv")
        assert cfg.seed == 5 and cfg.fmt == "csv"

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[tv]\nbogus = 1\n")
        with pytest.raises(ConfigurationError):
            resolve_config("tv", str(ini), None, None, None, None)

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            resolve_config("tv", "/nonexistent.ini", None, None, None, None)


class TestKeyTable:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_default_parses(self, experiment):
        cfg = resolve_config(experiment, None, None, None, None, None)
        assert cfg.values.keys() == cfg.params.keys()

    def test_table_and_runners_name_the_experiments(self):
        import clonekit.cli as climod

        assert set(EXPERIMENTS) == set(climod._KEYS) == set(climod._RUNNERS)

    @pytest.mark.parametrize("text,value", [
        ("true", True), ("Yes", True), ("on", True), ("1", True),
        ("false", False), ("no", False), ("off", False), ("0", False),
    ])
    def test_boolean_words(self, tmp_path, text, value):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[deficiency]\nreport_identity = {text}\n")
        cfg = resolve_config("deficiency", str(ini), None, None, None, None)
        assert cfg.values["report_identity"] is value
        assert cfg.params["report_identity"] == text


class TestTvExperiment:
    def test_single_row_value(self, tmp_path):
        out = tmp_path / "tv.csv"
        assert run_cli(["tv", "--out", str(out), "--seed", "1"]) == 0
        lines = out.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert comments[0] == "# clonekit report, schema 1"
        assert len(data) == 2  # header + one row
        value = float(data[1].split(",")[3])
        assert abs(value - TV_2_1) < 1e-9

    def test_closed_form_needs_no_matrix(self, tmp_path):
        # m = 100000 would be a 75 GiB identity pair; the closed form builds none
        ini = tmp_path / "cfg.ini"
        ini.write_text("[tv]\nm = 100000\nroutes = closed_form\n")
        out = tmp_path / "tv.csv"
        tracemalloc.start()
        try:
            code = run_cli(["tv", "--config", str(ini), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        from clonekit import tv_isotropic

        row = out.read_text().splitlines()[-1].split(",")
        assert float(row[3]) == tv_isotropic(2, 100000)
        assert peak < 4 * 2**20

    def test_seventeen_digit_floats_round_trip(self, tmp_path):
        out = tmp_path / "tv.csv"
        run_cli(["tv", "--out", str(out)])
        row = out.read_text().splitlines()[-1].split(",")
        from clonekit import tv_isotropic

        assert float(row[3]) == tv_isotropic(2, 1)


class TestDeterminism:
    def test_tv_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["tv", "--seed", "9", "--out", str(a)])
        run_cli(["tv", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_clone_sim_byte_identical_across_workers(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[clone-sim]\nn_grid = 64\nreps = 200\nbootstrap = 50\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["clone-sim", "--config", str(ini), "--seed", "3"]
        run_cli(args + ["--workers", "1", "--out", str(a)])
        run_cli(args + ["--workers", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        assert "loss" in a.read_text()


class TestJsonFormat:
    def test_schema_and_echo(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli([
            "coupling", "--seed", "2", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["experiment"] == "coupling"
        assert doc["config"]["seed"] == 2
        assert doc["config"]["epsilon_dev"] == "0.2"
        assert "wall_clock_s" in doc and "version" in doc
        assert len(doc["results"]) == 4

    def test_no_partial_key(self, tmp_path):
        # a report is written only for a run that finished
        out = tmp_path / "r.json"
        assert run_cli(["tv", "--format", "json", "--out", str(out)]) == 0
        assert "partial" not in json.loads(out.read_text())

    def test_every_experiment_writes_strict_json(self, tmp_path):
        # bare NaN or Infinity is not JSON: a non-finite value is written null
        ini = tmp_path / "tiny.ini"
        ini.write_text(
            "[tv]\nroutes = closed_form, quadrature\n"
            "[amp-loss]\nh_grid = 0\n"
            "[deficiency]\na_list = 0.5\ngrid_lo = -8\ngrid_hi = 8\ngrid_count = 41\n"
            "[clone-sim]\nn_grid = 64\n"
            "[minimax-probe]\nn = 64\nh_grid = -1, 1\na = 1\n"
            "[lan-diag]\nn_grid = 25\n"
            "[coupling]\nn_grid = 16\nresolution = 101\n"
        )

        def refuse(name):
            raise ValueError(f"bare {name} in a JSON report")

        for experiment in EXPERIMENTS:
            out = tmp_path / f"{experiment}.json"
            assert run_cli([experiment, "--config", str(ini), "--format", "json",
                            "--out", str(out)]) == 0
            doc = json.loads(out.read_text(), parse_constant=refuse)
            assert doc["results"]
            if experiment == "minimax-probe":
                sup = doc["results"][-1]
                assert sup["h"] == "sup" and sup["ci_low"] is sup["ci_high"] is None

    @pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
    def test_version_ignores_the_callers_repository(self, tmp_path, monkeypatch):
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, capture_output=True, text=True, check=True,
            ).stdout.strip()

        git("init", "-q")
        (tmp_path / "f").write_text("x")
        git("add", "f")
        git("commit", "-q", "-m", "x")
        head = git("rev-parse", "--short", "HEAD")
        monkeypatch.chdir(tmp_path)
        assert head not in _version_string()


class TestEmitReport:
    def _cfg(self, tmp_path, fmt="csv"):
        return ExperimentConfig(
            experiment="tv", params={}, seed=1, workers=1,
            out=str(tmp_path / f"out.{fmt}"), fmt=fmt,
        )

    def test_empty_results_guard(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_report([], self._cfg(tmp_path), wall_clock=0.0)

    def test_csv_shape(self, tmp_path):
        cfg = self._cfg(tmp_path)
        text = emit_report(
            [{"metric": "a", "value": 1.5}, {"metric": "b", "value": 2.5},
             {"metric": "c", "value": 0.125}],
            cfg, wall_clock=0.0,
        )
        data = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert data[0] == "metric,value"
        assert len(data) == 4

    def test_json_round_trip(self, tmp_path):
        cfg = self._cfg(tmp_path, fmt="json")
        rows = [{"metric": "a", "value": 0.1 + 0.2}]
        text = emit_report(rows, cfg, wall_clock=0.5)
        assert json.loads(text)["results"] == rows

    def test_unwritable_path_exits_2(self, capsys):
        code = run_cli(["tv", "--out", "/nonexistent-dir/x.csv"])
        assert code == 2

    def test_iteration_limit_exits_3_without_report(self, tmp_path, monkeypatch):
        # an LP stopped at its iteration limit takes the one numerical path
        import clonekit.cli as climod

        def stopped_runner(cfg):
            raise NumericalError("iteration limit")

        monkeypatch.setitem(climod._RUNNERS, "deficiency", stopped_runner)
        out = tmp_path / "d.csv"
        code = run_cli(["deficiency", "--out", str(out)])
        assert code == 3
        assert not out.exists()

    def test_library_configuration_error_exits_2_without_report(self, tmp_path, capsys):
        # 250 edges give 249 x 249 kernel variables, over the LP size cap
        ini = tmp_path / "cfg.ini"
        ini.write_text("[deficiency]\ngrid_count = 250\n")
        out = tmp_path / "d.csv"
        code = run_cli(["deficiency", "--config", str(ini), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "configuration error" in capsys.readouterr().err

    def test_library_bug_is_not_a_configuration_error(self, tmp_path, monkeypatch):
        # only ConfigurationError means bad input; a plain ValueError is a bug
        import clonekit.cli as climod

        def buggy_runner(cfg):
            return max([])  # a bug: "max() arg is an empty sequence"

        monkeypatch.setitem(climod._RUNNERS, "deficiency", buggy_runner)
        out = tmp_path / "d.csv"
        with pytest.raises(ValueError, match="empty") as info:
            run_cli(["deficiency", "--out", str(out)])
        assert not isinstance(info.value, ConfigurationError)
        assert not out.exists()

    def test_numerical_error_exits_3(self, tmp_path, monkeypatch, capsys):
        import clonekit.cli as climod

        def failing_runner(cfg):
            raise NumericalError("solver gave up")

        monkeypatch.setitem(climod._RUNNERS, "deficiency", failing_runner)
        out = tmp_path / "d.csv"
        code = run_cli(["deficiency", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        assert "numerical failure" in capsys.readouterr().err

    def test_poisson_truncation_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        import clonekit.families as families

        # every tail mass reads 1, so each Poisson statistic law fails
        monkeypatch.setattr(families, "pdtrc", lambda k, lam: 1.0)
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            "[clone-sim]\nfamily = poisson\ntheta = 2\nn_grid = 100\n"
            "reps = 10\nbootstrap = 10\n"
        )
        out = tmp_path / "c.csv"
        code = run_cli(["clone-sim", "--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert not out.exists()
        assert "numerical failure" in err
        assert "Traceback" not in err


# size keys past their caps: each exits 2 before its arrays are allocated
_OVERSIZED = [
    ("clone-sim", "reps = 100000000000", "reps 100000000000 is over the cap"),
    ("clone-sim", "bootstrap = 100000000000", "bootstrap 100000000000 is over the cap"),
    ("minimax-probe", "reps = 100000000000", "reps 100000000000 is over the cap"),
    ("lan-diag", "reps = 100000000000", "reps 100000000000 is over the cap"),
    ("coupling", "resolution = 100000000000", "resolution 100000000000 is over the cap"),
    ("clone-sim", "n_grid = 100000000000", "cells, over the cap"),
    ("coupling", "n_grid = 100000000000", "cells, over the cap"),
    # the exact count law's smoothing band, 4.9e8 cells wide at n = 100
    ("clone-sim", "epsilon = 1e12", "cells, over the cap"),
    # refused before the m x m pair is built
    ("tv", "m = 100000\nroutes = monte_carlo", "m = 100000 is over the cap"),
    ("tv", "m = 100000\nroutes = quadrature", "m <= 2"),
]
_OVERSIZED_IDS = [
    "clone-sim-reps", "clone-sim-bootstrap", "minimax-probe-reps", "lan-diag-reps",
    "coupling-resolution", "clone-sim-n", "coupling-n", "clone-sim-epsilon",
    "tv-mc-m", "tv-quadrature-m",
]


class TestInvalidInput:
    # each case also names what the message must say: the key, where one is at fault
    @pytest.mark.parametrize("experiment,section,says", [
        ("lan-diag", "n_grid = 0, 25", "sample sizes"),
        ("coupling", "n_grid = 0, 16", "sample sizes"),
        ("amp-loss", "r = 1.0\nmethod = closed_form", "method"),
        ("amp-loss", "r = 2.0\nmethod = closed_form", "method"),
        ("tv", "routes = monte_carlo\nbudget = 0", "budget"),
        ("tv", "routes = monte_carlo\nbudget = -5", "budget"),
        ("tv", "routes = quadrature\nm = 3", "m <= 2"),
        ("amp-loss", "r = 1.0\nsigma = 1 0 0; 0 1 0; 0 0 1\nmethod = quadrature",
         "m <= 2"),
        ("amp-loss", "r = 1.0\nmethod = monte_carlo\nbudget = 0", "budget"),
        ("amp-loss", "r = 0.5", "amplification factor"),
        ("tv", "r = 2.0\nr = 3.0", "option 'r'"),
        ("tv", "r", "parsing errors"),
        ("deficiency", "h_step = 0", "h_step"),
        ("deficiency", "a_list = 1, inf", "a_list = '1, inf'"),
        ("tv", "r = inf", "r = 'inf'"),
        ("tv", "r = nan", "r = 'nan'"),
        ("clone-sim", "epsilon = nan", "epsilon = 'nan'"),
        ("lan-diag", "threshold = nan", "threshold = 'nan'"),
        ("coupling", "epsilon_dev = nan", "epsilon_dev = 'nan'"),
        ("minimax-probe", "a = nan", "a = 'nan'"),
        ("tv", "m = 0", "dimension m"),
        ("minimax-probe", "h_grid =", "h_grid"),
        ("amp-loss", "budget = 1e5", "budget = '1e5'"),
        ("clone-sim", "delta = 1", "delta"),
        ("lan-diag", "threshold = -1", "threshold must be nonnegative"),
        ("coupling", "family_sigma = abc", "family_sigma = 'abc'"),
        ("deficiency", "report_identity = ture", "report_identity = 'ture'"),
        ("deficiency", "a_list = 4\nh_step = 0.01", "deviation rows, cap is 40000"),
        # a = 0.5 fits (101 shifts), a = 1 does not (201): caught before a = 0.5 solves
        ("deficiency", "h_step = 0.01", "201 shifts x 200 target cells"),
        # no shift list past the row cap is built, whatever the grid
        ("deficiency", "h_step = 1e-5", "100001 shifts, over the deviation-row cap"),
        # one resample has no percentile interval; only 0 skips the bootstrap
        ("clone-sim", "bootstrap = -5", "bootstrap must be 0"),
        ("clone-sim", "bootstrap = 1", "bootstrap must be 0"),
        # past the draw cap: refused before the budget-sized buffer is allocated
        ("tv", "routes = monte_carlo\nbudget = 100000000000",
         "budget 100000000000 is over the cap"),
        ("amp-loss", "method = monte_carlo\nbudget = 100000000000",
         "budget 100000000000 is over the cap"),
        # the exact count law spans (rn / n2) times the S2 support: 1.2e9
        # cells here, with the 4-cell tent band of each value's target,
        # refused before the law is allocated
        ("clone-sim", "family = poisson\ntheta = 0.01\nn_grid = 2\ndelta = 0.5\n"
         "r = 100000000\nepsilon = 0", "1200000003 cells, over the cap"),
        # r * n and r * sigma overflow to inf: refused, not a traceback
        ("clone-sim", "r = 1e308", "clone ratio r"),
        ("minimax-probe", "r = 1e308", "clone ratio r"),
        ("amp-loss", "r = 1e308\nsigma = 9", "must be finite"),
    ], ids=[
        "lan-diag-n0", "coupling-n0", "amp-loss-closed-form-r1",
        "amp-loss-closed-form-r2", "tv-mc-budget0", "tv-mc-budget-neg",
        "tv-quadrature-m3", "amp-loss-quadrature-m3-r1",
        "amp-loss-mc-budget0-r1", "amp-loss-r-below-one",
        "ini-duplicate-key", "ini-key-without-equals", "deficiency-h-step0",
        "deficiency-a-inf", "tv-r-inf", "tv-r-nan", "clone-sim-epsilon-nan",
        "lan-diag-threshold-nan", "coupling-epsilon-dev-nan",
        "minimax-probe-a-nan", "tv-m0", "minimax-probe-empty-grid",
        "amp-loss-budget-not-int", "clone-sim-delta1", "lan-diag-threshold-neg",
        "coupling-unused-family-sigma", "deficiency-report-identity-typo",
        "deficiency-row-cap", "deficiency-row-cap-of-a-later-a",
        "deficiency-shift-list-cap", "clone-sim-bootstrap-neg", "clone-sim-bootstrap1",
        "tv-mc-budget-over-cap", "amp-loss-mc-budget-over-cap",
        "clone-sim-count-law-span", "clone-sim-r-overflow", "minimax-probe-r-overflow",
        "amp-loss-cov-overflow",
    ])
    def test_exits_2_without_report(
        self, tmp_path, capsys, monkeypatch, experiment, section, says
    ):
        import clonekit.deficiency as deficiency_module

        def no_solve(*args, **kwargs):
            raise AssertionError("linprog called")

        # every configuration error is raised before any LP is solved
        monkeypatch.setattr(deficiency_module, "linprog", no_solve)
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[{experiment}]\n{section}\n")
        out = tmp_path / "x.csv"
        code = run_cli([experiment, "--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err
        assert says in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment,section,says", _OVERSIZED, ids=_OVERSIZED_IDS)
    def test_oversized_size_refused_before_allocating(
        self, tmp_path, capsys, experiment, section, says
    ):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[{experiment}]\n{section}\n")
        out = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            code = run_cli([experiment, "--config", str(ini), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert says in err and "Traceback" not in err
        assert not out.exists()
        assert peak < 4 * 2**20  # numpy reports its buffers to tracemalloc

    # a sigma or theta inside its domain whose sigma^2 or Fisher information
    # leaves the float range is a configuration error, not a traceback or NaN
    @pytest.mark.parametrize("experiment,section,says", [
        ("lan-diag", "family = gauss-loc\nfamily_sigma = 1e-170\ntheta = 0",
         "got 1e-170"),
        ("coupling", "family = gauss-loc\nfamily_sigma = 1e160\ntheta = 0",
         "got 1e+160"),
        ("coupling", "family = gauss-loc\nfamily_sigma = 1e-160\ntheta = 0",
         "got 1e-160"),
        ("coupling", "family = poisson\ntheta = 1e-320", "theta=1e-320"),
        ("lan-diag", "family = bernoulli\ntheta = 1e-320", "theta=1e-320"),
    ], ids=[
        "lan-diag-sigma-underflow", "coupling-sigma-overflow",
        "coupling-sigma-subnormal", "coupling-poisson-fisher-overflow",
        "lan-diag-bernoulli-fisher-overflow",
    ])
    def test_float_range_edge_exits_2(self, tmp_path, capsys, experiment, section, says):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[{experiment}]\n{section}\n")
        out = tmp_path / "x.csv"
        code = run_cli([experiment, "--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and says in err
        assert not out.exists()

    def test_ini_without_section_header_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text("r = 2.0\n")
        out = tmp_path / "x.csv"
        code = run_cli(["tv", "--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "no section headers" in err
        assert not out.exists()

    def test_unknown_tv_route_names_the_valid_ones(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[tv]\nroutes = ball_indicator\n")
        out = tmp_path / "x.csv"
        code = run_cli(["tv", "--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown tv route 'ball_indicator'" in err
        assert "closed_form, quadrature, monte_carlo" in err
        assert not out.exists()

    @pytest.mark.parametrize("r", ["0", "-1", "0.5"])
    def test_tv_below_one_names_r(self, tmp_path, capsys, r):
        # r <= 0 used to reach GaussianShift and fail as "not positive definite"
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[tv]\nr = {r}\nroutes = quadrature, closed_form\n")
        out = tmp_path / "x.csv"
        code = run_cli(["tv", "--config", str(ini), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "requires r >= 1" in err
        assert not out.exists()


class TestOtherExperiments:
    def test_clone_sim_smoke(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[clone-sim]\nn_grid = 100\nreps = 10\nbootstrap = 10\n")
        out = tmp_path / "c.csv"
        code = run_cli([
            "clone-sim", "--config", str(ini), "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        body = out.read_text()
        assert "loss" in body and "reference" in body

    def test_loss_experiments_take_the_exact_route(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            "[clone-sim]\nn_grid = 100\nreps = 300\nbootstrap = 20\n"
            "[minimax-probe]\nn = 64\nreps = 40\nh_grid = -1, 1\na = 1\n"
        )
        family = clonekit.Bernoulli()
        rows = {}
        for experiment in ("clone-sim", "minimax-probe"):
            out = tmp_path / f"{experiment}.csv"
            assert run_cli([experiment, "--config", str(ini), "--seed", "4",
                            "--out", str(out)]) == 0
            body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
            rows[experiment] = [dict(zip(body[0].split(","), ln.split(",")))
                                for ln in body[1:]]

        def config(n):
            return clonekit.ClonerConfig(n=n, r=2.0, delta=0.05, epsilon=0.01, seed=4)

        (row,) = rows["clone-sim"]
        rep = clonekit.clone_loss_exact(family, 0.3, config(100))
        probe = clonekit.local_minimax_probe(family, 0.3, 1.0, [-1.0, 1.0], config(64))
        assert [float(row[c]) for c in ("loss", "ci_low", "ci_high", "clip_rate")] == [
            rep.loss, rep.ci_low, rep.ci_high, rep.clip_rate]
        assert row["reps"] == "300"  # the key's echo: the exact route draws none
        assert [float(r["loss"]) for r in rows["minimax-probe"]] == [
            *(r.loss for r in probe.losses), probe.sup_loss]
        assert math.isnan(float(rows["minimax-probe"][-1]["ci_low"]))

    def test_clone_sim_poisson_large_n(self, tmp_path):
        # rn * theta = 25 600: the statistic law must not raise a false
        # truncation alarm
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            "[clone-sim]\nfamily = poisson\ntheta = 2\nn_grid = 6400\n"
            "reps = 5\nbootstrap = 5\n"
        )
        out = tmp_path / "c.csv"
        code = run_cli([
            "clone-sim", "--config", str(ini), "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        assert "loss" in out.read_text()

    def test_lan_diag_smoke(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[lan-diag]\nn_grid = 25, 100\nreps = 200\n")
        out = tmp_path / "l.csv"
        assert run_cli([
            "lan-diag", "--config", str(ini), "--seed", "5", "--out", str(out),
        ]) == 0
        assert "exceed_prob" in out.read_text()

    def test_deficiency_smoke(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            "[deficiency]\na_list = 0.5\ngrid_lo = -8\ngrid_hi = 8\n"
            "grid_count = 81\n"
        )
        out = tmp_path / "d.csv"
        assert run_cli([
            "deficiency", "--config", str(ini), "--out", str(out),
        ]) == 0
        assert "lp_value" in out.read_text()

    def test_amp_loss_smoke(self, tmp_path):
        out = tmp_path / "a.csv"
        ini = tmp_path / "cfg.ini"
        ini.write_text("[amp-loss]\nh_grid = 0, 1\nbudget = 1000\n")
        assert run_cli([
            "amp-loss", "--config", str(ini), "--out", str(out),
        ]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert lines[-1].startswith("sup,")

    def test_amp_loss_ragged_points_are_zero_padded(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[amp-loss]\nsigma = 1 0; 0 1\nh_grid = 0, 1 0\nbudget = 1000\n")
        out = tmp_path / "a.csv"
        assert run_cli(["amp-loss", "--config", str(ini), "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        assert [ln.split(",")[0] for ln in lines] == ["h", "0 0", "1 0", "sup"]

    def test_minimax_smoke(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[minimax-probe]\nn = 64\nreps = 20\nh_grid = -1, 0, 1\na = 1\n")
        out = tmp_path / "m.csv"
        assert run_cli([
            "minimax-probe", "--config", str(ini), "--out", str(out),
        ]) == 0
        assert "sup" in out.read_text()

    def test_coupling_gauss_loc_family(self, tmp_path):
        # the continuous family couples exactly: all deviations zero
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            "[coupling]\nfamily = gauss-loc\nfamily_sigma = 2.0\ntheta = 0.0\n"
            "n_grid = 16, 64\n"
        )
        out = tmp_path / "g.csv"
        assert run_cli(["coupling", "--config", str(ini), "--out", str(out)]) == 0
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        for row in rows[1:]:
            assert float(row.split(",")[2]) == 0.0


def _csv_rows(path):
    """The data rows of a CSV report, as dicts keyed by column."""
    body = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [dict(zip(body[0].split(","), ln.split(","))) for ln in body[1:]]


class TestNoCloningBoundary:
    """r = 1, where the target experiment is the source: seed 7, in process."""

    @pytest.mark.parametrize("experiment,body,columns", [
        ("tv", "routes = closed_form, quadrature", ("value", "std_error")),
        ("amp-loss", "method = quadrature", ("value", "std_error")),
        ("deficiency", "", ("lp_value", "closed_form", "identity_value")),
    ])
    def test_every_value_is_zero(self, tmp_path, experiment, body, columns):
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[{experiment}]\nr = 1\n{body}\n")
        out = tmp_path / "r1.csv"
        assert run_cli([experiment, "--config", str(ini), "--seed", "7",
                        "--out", str(out)]) == 0
        rows = _csv_rows(out)
        assert rows
        for row in rows:
            assert [float(row[c]) for c in columns] == [0.0] * len(columns)
        if experiment == "deficiency":
            assert [row["a"] for row in rows] == ["0.5", "1", "2", "4"]
            assert {row["lp_status"] for row in rows} == {"optimal"}

    @pytest.mark.parametrize("experiment", ["clone-sim", "minimax-probe"])
    def test_cloner_runs_with_a_positive_loss(self, tmp_path, experiment):
        # the estimation split leaves n2 < n scoring draws, so the gain
        # sqrt(rn / n2) exceeds 1 and the loss is not 0
        ini = tmp_path / "cfg.ini"
        ini.write_text(f"[{experiment}]\nr = 1\n")
        out = tmp_path / "r1.csv"
        assert run_cli([experiment, "--config", str(ini), "--seed", "7",
                        "--out", str(out)]) == 0
        losses = [float(row["loss"]) for row in _csv_rows(out)]
        assert losses and all(0.0 < loss < 2.0 for loss in losses)
