import argparse
import json
import os
import subprocess
import sys
import time

import pytest

from smoothcb import cli, harness
from smoothcb.cli import main, parse_env_spec


def test_import_loads_no_scipy():
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    script = ("import sys, smoothcb, smoothcb.cli\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


class TestEnvSpecParsing:
    def test_bare_name(self):
        assert parse_env_spec("absolute") == ("absolute", {})

    def test_params(self):
        name, params = parse_env_spec("needle_h:h=1/8,R=10,index=2")
        assert name == "needle_h"
        assert params == {"h": 0.125, "R": 10, "index": 2}

    def test_missing(self):
        with pytest.raises(ValueError):
            parse_env_spec(None)

    def test_bad_param(self):
        with pytest.raises(ValueError):
            parse_env_spec("absolute:astar")


class TestRunCommand:
    def test_writes_per_seed_csvs_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--alg", "exp4", "--env", "discontinuous:ap=0.7",
                     "--T", "100", "--h", "0.1", "--seeds", "3",
                     "--policies", "8", "--out", str(out)])
        assert code == 0
        files = sorted(os.listdir(out))
        assert files == ["run_seed0.csv", "run_seed1.csv", "run_seed2.csv",
                         "summary.json"]
        assert "regret mean=" in capsys.readouterr().out

    def test_explicit_seed_list(self, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--alg", "exp4", "--env", "absolute",
                     "--T", "50", "--h", "0.1", "--seeds", "7,9",
                     "--policies", "4", "--out", str(out)])
        assert code == 0
        assert {"run_seed7.csv", "run_seed9.csv"} <= set(os.listdir(out))

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"env": "absolute", "T": 50, "h": 0.1,
                                   "seeds": 1, "policies": 4}))
        assert main(["run", "--alg", "exp4", "--config", str(cfg)]) == 0

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"env": "absolute", "T": 50, "h": 0.1,
                                   "seeds": 1, "policies": 4}))
        code = main(["run", "--alg", "exp4", "--config", str(cfg),
                     "--T", "30"])
        assert code == 0
        assert "T=30" in capsys.readouterr().out

    def test_seeds_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"env": "absolute", "T": 30, "h": 0.1,
                                   "seeds": 2, "policies": 4}))
        code = main(["run", "--alg", "exp4", "--config", str(cfg),
                     "--seeds", "1"])
        assert code == 0
        assert "seeds=1" in capsys.readouterr().out


class TestExitCodes:
    def test_success(self):
        assert main(["run", "--alg", "exp4", "--env", "absolute",
                     "--T", "20", "--h", "0.1", "--seeds", "1",
                     "--policies", "4"]) == 0

    def test_unknown_algorithm(self, capsys):
        assert main(["run", "--alg", "bogus", "--env", "absolute"]) == 2

    def test_unknown_environment(self, capsys):
        assert main(["run", "--alg", "exp4", "--env", "nope",
                     "--h", "0.1"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_environment_parameter(self, capsys):
        assert main(["run", "--alg", "exp4", "--env", "absolute:foo=1",
                     "--h", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'absolute'" in err and "'foo'" in err

    def test_missing_env(self, capsys):
        assert main(["run", "--alg", "exp4", "--h", "0.1"]) == 2

    def test_missing_bandwidth(self, capsys):
        assert main(["run", "--alg", "exp4", "--env", "absolute"]) == 2


class TestBadRunConfig:
    """Each invalid run setting exits 2 with one line and no traceback."""

    BASE = ["run", "--alg", "exp4", "--env", "absolute", "--T", "20",
            "--h", "0.1", "--seeds", "1", "--policies", "4"]

    def _check_exit_2(self, capsys, argv, message):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert message in err

    def _with(self, flag, value):
        argv = list(self.BASE)
        argv[argv.index(flag) + 1] = value
        return argv

    def test_zero_seeds(self, capsys):
        self._check_exit_2(capsys, self._with("--seeds", "0"), "seeds")

    def test_nan_bandwidth(self, capsys):
        self._check_exit_2(capsys, self._with("--h", "nan"), "h must lie")

    def test_bandwidth_above_one(self, capsys):
        self._check_exit_2(capsys, self._with("--h", "1.5"), "h must lie")

    def test_horizon_one(self, capsys):
        self._check_exit_2(capsys, self._with("--T", "1"), "T must be")

    def test_no_policies(self, capsys):
        self._check_exit_2(capsys, self._with("--policies", "0"), "n_policies")

    def test_infinite_lipschitz(self, capsys):
        argv = ["run", "--alg", "pe-l", "--env", "absolute", "--T", "20",
                "--L", "inf", "--seeds", "1"]
        self._check_exit_2(capsys, argv, "L must be")

    def test_repeated_seeds(self, capsys):
        self._check_exit_2(capsys, self._with("--seeds", "0,0"),
                           "seeds must not repeat")

    def test_lipschitz_constant_without_epoch_budget(self, capsys):
        # (L/2)^2 overflows, so the epoch budget 320 kappa V / r_m^2 is 0
        argv = ["run", "--alg", "pe-l", "--env", "absolute", "--T", "64",
                "--L", "1e155", "--seeds", "1"]
        self._check_exit_2(capsys, argv, "L = 1e+155")

    @pytest.mark.parametrize("argv", [
        BASE, ["sweep", "--alg", "exp4", "--env", "absolute", "--h-list",
               "0.1", "--T", "20", "--seeds", "1", "--policies", "4"],
        ["diagnose", "--env", "absolute", "--h", "0.1"],
        ["lowerbound", "--alg", "exp4", "--kind", "h", "--h", "1/8",
         "--T", "20", "--seeds", "1", "--policies", "4"]],
        ids=["run", "sweep", "diagnose", "lowerbound"])
    def test_unwritable_out_checked_before_play(self, tmp_path, capsys,
                                                 monkeypatch, argv):
        def no_play(*args, **kwargs):
            raise AssertionError("rounds were played")

        monkeypatch.setattr(cli, "run_experiment", no_play)
        monkeypatch.setattr(cli, "diagnose", no_play)
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        self._check_exit_2(capsys, argv + ["--out", str(not_a_dir / "x")],
                           "cannot create --out")

    def test_string_horizon_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"env": "absolute", "T": "100", "h": 0.1,
                                   "seeds": 1, "policies": 4}))
        self._check_exit_2(capsys, ["run", "--alg", "exp4", "--config",
                                 str(cfg)], "T must be")

    def test_number_as_env_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"env": 5, "T": 20, "h": 0.1,
                                   "seeds": 1, "policies": 4}))
        self._check_exit_2(capsys, ["run", "--alg", "exp4", "--config",
                                 str(cfg)], "environment spec")

    def _diagnose_with(self, tmp_path, capsys, key, value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"env": "absolute", key: value}))
        self._check_exit_2(capsys, ["diagnose", "--config", str(cfg),
                                    "--h", "0.1"], message)

    def test_string_policy_count_in_diagnose_config(self, tmp_path, capsys):
        self._diagnose_with(tmp_path, capsys, "policies", "8", "n_policies")

    @pytest.mark.parametrize("env", [
        "linear_sphere:d_ctx=0", "linear_sphere:d_ctx=1.5",
        "linear_sphere:wstar=3", "needle_L:L=inf", "needle_h:d=0",
        "needle_h:R=0", "needle_L:R=0", "needle_h:index=1.5",
        "linear_sphere:L=nan", "needle_h:R=-1", "discontinuous:ap=2",
        "needle_L:L=1e308", "needle_L:d=1", "needle_h:h=1/0",
        pytest.param("needle_L:L=1" + "0" * 400, id="needle_L:L=huge-int"),
        pytest.param("needle_h:R=1" + "0" * 400, id="needle_h:R=huge-int")])
    def test_bad_instance_parameter(self, capsys, env):
        self._check_exit_2(capsys, ["run", "--alg", "pe-s", "--h", "0.1",
                                    "--T", "64", "--seeds", "1", "--env", env],
                           "configuration error")

    @pytest.mark.parametrize("grid", ["0,0.1", "inf,0.1", "-0.1,0.2",
                                      "nan,0.1"])
    def test_bad_eps_grid(self, capsys, grid):
        self._check_exit_2(capsys, ["diagnose", "--env", "absolute", "--h",
                                    "0.1", f"--eps-grid={grid}"],
                           "--eps-grid values must be finite and positive")

    @pytest.mark.parametrize("grid", ["0.1", "0.1,0.1"])
    def test_one_eps_for_the_zooming_fit(self, capsys, grid):
        self._check_exit_2(capsys, ["diagnose", "--env", "absolute", "--L",
                                    "1", f"--eps-grid={grid}"],
                           "--eps-grid needs two distinct values")

    @pytest.mark.parametrize("h", ["0", "-1", "2", "abc", "1" + "0" * 400],
                             ids=["0", "-1", "2", "abc", "huge-int"])
    def test_bad_diagnose_bandwidth(self, capsys, h):
        # diagnose checks --h as run does; h = 0 would be a Dirac kernel
        self._check_exit_2(capsys, ["diagnose", "--env", "absolute", "--h", h,
                                    "--policies", "8", "--eps-grid", "0.1,0.2"],
                           "h must lie in (0, 1]")

    def test_fraction_over_zero(self, capsys):
        self._check_exit_2(capsys, self._with("--h", "1/0"),
                           "h must lie in (0, 1], got '1/0'")

    def test_overflowing_horizon_list(self, capsys):
        self._check_exit_2(capsys, ["sweep", "--alg", "exp4", "--env",
                                    "absolute", "--h", "0.1", "--T-list",
                                    "1e400"], "T must be an integer >= 2")

    @pytest.mark.parametrize("T_list", ["20.9", "64,20.9"])
    def test_fractional_horizon_list(self, capsys, monkeypatch, T_list):
        # refused before any value of the list plays a round
        def no_play(*args, **kwargs):
            raise AssertionError("rounds were played")

        monkeypatch.setattr(cli, "run_experiment", no_play)
        self._check_exit_2(capsys, ["sweep", "--alg", "exp4", "--env",
                                    "absolute", "--h", "0.1", "--T-list",
                                    T_list], "T must be an integer >= 2")

    def test_lowerbound_kind_outside_choices_in_config(self, tmp_path,
                                                        capsys, monkeypatch):
        def no_play(*args, **kwargs):
            raise AssertionError("rounds were played")

        monkeypatch.setattr(cli, "run_experiment", no_play)
        cfg = tmp_path / "k.json"
        cfg.write_text(json.dumps({"kind": "x", "L": 4, "T": 64}))
        self._check_exit_2(capsys, ["lowerbound", "--alg", "exp4", "--h",
                                    "0.1", "--seeds", "1", "--policies", "4",
                                    "--config", str(cfg)],
                           "--kind must be h or L, got 'x'")

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        self._check_exit_2(capsys, ["run", "--alg", "exp4", "--config",
                                    str(cfg)], "JSON object")

    def test_json_list_for_a_comma_list_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"env": "absolute", "h": 0.1,
                                   "eps_grid": [0.1, 0.2]}))
        self._check_exit_2(capsys, ["diagnose", "--config", str(cfg)],
                           "could not convert")

    def test_abbreviated_flag(self, capsys):
        # --se would be read as --seeds while the --config merge missed it
        self._check_exit_2(capsys, self.BASE + ["--se", "1"],
                           "unrecognized arguments: --se")

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--env", "absolute", "--T", "5"],
        ["diagnose", "--env", "absolute", "--seeds", "2"],
        ["diagnose", "--env", "absolute", "--beta", "0.5"],
        ["lowerbound", "--alg", "exp4", "--h", "1/8", "--env", "absolute"],
        ["lowerbound", "--alg", "exp4", "--h", "1/8", "--env",
         "needle_L:d=1"],
        BASE + ["--policy-csv", "t.csv"]],
        ids=["diagnose-T", "diagnose-seeds", "diagnose-beta",
             "lowerbound-env", "lowerbound-env-needle_L", "policy-csv"])
    def test_flag_no_command_reads(self, capsys, argv):
        self._check_exit_2(capsys, argv, "unrecognized arguments")

    def test_out_of_memory_in_diagnose(self, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "diagnose", no_memory)
        self._check_exit_2(capsys, ["diagnose", "--env", "absolute", "--h",
                                    "0.1"], "out of memory with 64 policies")

    def test_huge_integer_bandwidth(self, capsys):
        self._check_exit_2(capsys, self._with("--h", "1" + "0" * 400),
                           "h must lie in (0, 1]")

    def test_horizon_out_of_memory(self, capsys, monkeypatch):
        # the traces of 10^11 rounds do not fit; the loop's allocation
        # failure is stood in for, not made
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(harness, "_loop_rounds", no_memory)
        self._check_exit_2(capsys, self._with("--T", "100000000000"),
                           "out of memory at T = 100000000000")

    def test_lipschitz_regret_checked_before_play(self, capsys, monkeypatch):
        # discontinuous has no Lipschitz constant, so there is no benchmark
        # for corral-lipschitz; the run must stop before its first round
        def no_play(*args, **kwargs):
            raise AssertionError("rounds were played")

        monkeypatch.setattr(harness, "_loop_rounds", no_play)
        self._check_exit_2(capsys, ["run", "--alg", "corral-lipschitz", "--env",
                                 "discontinuous", "--T", "4096"],
                        "Lipschitz regret needs")


class TestSweepCommand:
    def test_per_h_table(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--alg", "exp4", "--env", "absolute",
                     "--h-list", "0.1,0.25", "--T", "50", "--seeds", "1",
                     "--policies", "4", "--out", str(out)])
        assert code == 0
        with open(out / "sweep.json") as f:
            rows = json.load(f)
        assert [r["h"] for r in rows] == [0.1, 0.25]

    def test_number_for_h_list_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"env": "absolute", "h_list": 0.1, "T": 20,
                                   "policies": 4}))
        assert main(["sweep", "--alg", "exp4", "--config", str(cfg)]) == 0
        assert "h=0.1 " in capsys.readouterr().out

    def test_std_matches_the_run_summary(self, tmp_path, capsys):
        # a sweep row and its run's summary.json report one regret std
        out = tmp_path / "sweep"
        code = main(["sweep", "--alg", "exp4", "--env", "absolute",
                     "--h-list", "0.1", "--T", "50", "--seeds", "2",
                     "--policies", "4", "--out", str(out)])
        assert code == 0
        with open(out / "sweep.json") as f:
            row, = json.load(f)
        with open(out / "T50_h0.1" / "summary.json") as f:
            summary = json.load(f)
        assert row["regret_std"] == summary["regret_std"] > 0.0
        assert row["regret_mean"] == summary["regret_mean"]
        assert f"std={summary['regret_std']:.6g}" in capsys.readouterr().out


class TestDiagnoseCommand:
    def test_report_printed_and_saved(self, tmp_path, capsys):
        out = tmp_path / "diag"
        code = main(["diagnose", "--env", "absolute:astar=0.5",
                     "--h", "0.1", "--policies", "50",
                     "--eps-grid", "0.0005,0.001,0.003", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "theta_h=" in text
        with open(out / "diagnostics.json") as f:
            payload = json.load(f)
        assert list(payload) == ["table", "theta_h", "psi_L", "z_hat",
                                 "fit_residual", "alpha_unif"]
        assert len(payload["table"]) == 3
        # near-optimal sets at these scales collapse to one ball
        assert all(r["M_h"] == 1 for r in payload["table"])

    def test_linear_sphere_defaults_within_a_minute(self, capsys):
        # 64 policies, 16 eps values and both tables, over 2,000 contexts
        t0 = time.perf_counter()
        assert main(["diagnose", "--env", "linear_sphere", "--h", "0.1"]) == 0
        assert time.perf_counter() - t0 < 60.0
        assert capsys.readouterr().out.count("M_h=") == 16

    def test_six_dimensional_cube_quickly(self, capsys):
        # the cube's uniformity constant comes from one axis of 64 centres,
        # not a lattice of 64^6
        t0 = time.perf_counter()
        assert main(["diagnose", "--env", "needle_h:d=6",
                     "--policies", "8"]) == 0
        assert time.perf_counter() - t0 < 30.0
        assert "alpha_unif=" in capsys.readouterr().out


class TestLowerboundCommand:
    def test_paired_runs(self, tmp_path, capsys):
        out = tmp_path / "lb"
        code = main(["lowerbound", "--alg", "exp4", "--kind", "h",
                     "--h", "1/8", "--T", "60", "--seeds", "1",
                     "--policies", "4", "--out", str(out)])
        assert code == 0
        with open(out / "lowerbound.json") as f:
            res = json.load(f)
        assert set(res) == {"plain", "hidden"}


class TestParser:
    # every option a subcommand takes is read by its handler
    DESTS = {
        "run": {"alg", "env", "T", "h", "L", "beta", "seeds", "policies",
                "out", "config"},
        "sweep": {"alg", "h_list", "T_list", "env", "T", "h", "L", "beta",
                  "seeds", "policies", "out", "config"},
        "diagnose": {"env", "h", "L", "policies", "out", "config",
                     "eps_grid"},
        "lowerbound": {"alg", "kind", "index", "R", "T", "h", "L", "beta",
                       "seeds", "policies", "out", "config"},
    }

    def test_option_dests(self):
        sub, = [a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        got = {name: {a.dest for a in p._actions if a.dest != "help"}
               for name, p in sub.choices.items()}
        assert got == self.DESTS
