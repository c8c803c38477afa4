import argparse
import json
import os
import shlex
import subprocess
import sys
import time

import pytest

from smoothcb import cli, elimination, environments, harness, policies
from smoothcb.cli import main, parse_env_spec


def _no_play(*args, **kwargs):
    raise AssertionError("rounds were played")


def _write_config(tmp_path, **values):
    """tmp_path / "c.json" holding ``values`` as one JSON object."""
    (tmp_path / "c.json").write_text(json.dumps(values))


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
        """The one-line refusal's checks; returns what went to stdout."""
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert message in err
        return out

    def _with(self, flag, value):
        argv = list(self.BASE)
        argv[argv.index(flag) + 1] = value
        return argv

    @pytest.mark.parametrize("in_config", [False, True],
                             ids=["flag", "config"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_zero_seeds(self, tmp_path, capsys, count, in_config):
        argv = self._with("--seeds", count)
        if in_config:
            i = argv.index("--seeds")
            del argv[i:i + 2]
            _write_config(tmp_path, seeds=int(count))
            argv += ["--config", str(tmp_path / "c.json")]
        self._check_exit_2(capsys, argv, "argument --seeds: invalid "
                           f"seed_list value: '{count}'")

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

    @pytest.mark.parametrize("in_config", [False, True])
    def test_negative_seed_before_play(self, tmp_path, capsys, monkeypatch,
                                       in_config):
        # refused with the configuration, not after seed 0 has played
        monkeypatch.setattr(harness, "_loop_rounds", _no_play)
        argv = ["run", "--alg", "exp4", "--env", "absolute", "--h", "0.1",
                "--T", "50"]
        if in_config:
            _write_config(tmp_path, seeds=[0, -1])
            argv += ["--config", str(tmp_path / "c.json")]
        else:
            argv += ["--seeds", "0,-1"]
        assert self._check_exit_2(
            capsys, argv, "seeds must be a non-empty list of non-negative "
            "integers, got [0, -1]") == ""

    def test_lipschitz_constant_without_epoch_budget(self, capsys,
                                                     monkeypatch):
        # r_1 = L/2 squares to inf, so the epoch budget 320 kappa V / r_1^2
        # is 0, and the run ends before its first round
        monkeypatch.setattr(elimination.SmoothPolicyElimination,
                            "_play_epoch", _no_play)
        for L, r_1 in (("1e155", "5e+154"), ("1.7e308", "8.5e+307")):
            argv = ["run", "--alg", "pe-l", "--env", "absolute", "--T", "64",
                    "--L", L, "--seeds", "1"]
            self._check_exit_2(capsys, argv,
                               "epoch 1 has a budget of 0 rounds: V_m = 1 at "
                               f"h_m = 0.5, r_m = {r_1}")

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
        # a config value is read as the flag's text: "100" as --T 100 does
        argv = ["run", "--alg", "exp4", "--config", str(tmp_path / "c.json")]
        _write_config(tmp_path, env="absolute", T="100", h=0.1, seeds=1,
                      policies=4)
        assert main(argv) == 0
        assert "T=100" in capsys.readouterr().out
        _write_config(tmp_path, env="absolute", T="20.9", h=0.1)
        self._check_exit_2(capsys, argv,
                           "argument --T: invalid int value: '20.9'")

    def test_number_as_env_in_config(self, tmp_path, capsys):
        _write_config(tmp_path, env=5, T=20, h=0.1, seeds=1, policies=4)
        self._check_exit_2(capsys, ["run", "--alg", "exp4", "--config",
                                    str(tmp_path / "c.json")],
                           "unknown instance name: '5'")

    def test_string_policy_count_in_diagnose_config(self, tmp_path, capsys):
        argv = ["diagnose", "--config", str(tmp_path / "c.json"), "--h",
                "0.1", "--eps-grid", "0.1,0.2"]
        _write_config(tmp_path, env="absolute", policies="8")
        assert main(argv) == 0
        assert capsys.readouterr().out.count("M_h=") == 2
        _write_config(tmp_path, env="absolute", policies="0")
        self._check_exit_2(capsys, argv, "n_policies")

    @pytest.mark.parametrize("env", [
        "linear_sphere:d_ctx=0", "linear_sphere:d_ctx=1.5",
        "linear_sphere:wstar=3", "needle_L:L=inf", "needle_h:d=0",
        "needle_h:R=0", "needle_L:R=0", "needle_h:index=1.5",
        "linear_sphere:L=nan", "needle_h:R=-1", "discontinuous:ap=2",
        "needle_L:L=1e308", "needle_L:d=1", "needle_h:h=1/0",
        "absolute:noise=gaussian",
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

    @pytest.mark.parametrize("L", ["nan", "-1", "inf", "0"])
    def test_bad_diagnose_lipschitz_constant(self, capsys, L):
        # the eps-optimal set holds the minimiser, so M_0 = 0 is no answer
        self._check_exit_2(capsys, ["diagnose", "--env", "absolute", "--L", L,
                                    "--policies", "8", "--eps-grid", "0.1,0.2"],
                           "L must be a finite number > 0")

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

    def test_lowerbound_index_checked_before_play(self, capsys, monkeypatch):
        # the hidden instance's index is refused before the plain run plays
        monkeypatch.setattr(cli, "run_experiment", _no_play)
        self._check_exit_2(capsys, ["lowerbound", "--alg", "exp4", "--h",
                                    "0.1", "--seeds", "1", "--policies", "4",
                                    "--T", "32", "--index", "7"],
                           "needle index must be an integer in [0, 2]")
        assert capsys.readouterr().out == ""

    def test_sweep_benchmark_checked_before_play(self, capsys, monkeypatch):
        # h = 0.0005 is below corral's grid at T = 1024, so it has no
        # snapped benchmark; h = 0.5 must not play first
        monkeypatch.setattr(cli, "run_experiment", _no_play)
        self._check_exit_2(capsys, ["sweep", "--alg", "corral-uniform-h",
                                    "--env", "absolute", "--h-list",
                                    "0.5,0.0005", "--T", "1024",
                                    "--policies", "4"],
                           "bandwidth below T^(-1/d)")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--alg", "exp4", "--env", "absolute", "--h-list",
         "0.1,0.2"],
        ["lowerbound", "--alg", "exp4", "--h", "1/8"]],
        ids=["sweep", "lowerbound"])
    def test_one_benchmark_per_configuration(self, monkeypatch, argv):
        calls = []
        original = environments.StochasticEnv.smoothed_benchmark

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(environments.StochasticEnv, "smoothed_benchmark",
                            counted)
        assert main(argv + ["--T", "20", "--seeds", "2",
                            "--policies", "4"]) == 0
        assert len(calls) == 2

    def test_elimination_epoch_without_budget(self, capsys):
        # balls 2e-16 wide cover only pieces of 1e-15 or less, which the
        # exact geometry drops, so V_m is 0 on the square and on the line
        for env in ("needle_h:d=2", "needle_h"):
            self._check_exit_2(capsys, ["run", "--alg", "pe-s", "--env", env,
                                        "--h", "1e-16", "--policies", "1",
                                        "--T", "100", "--seeds", "1"],
                               "epoch 1 has a budget of 0 rounds: V_m = 0 "
                               "at h_m = 1e-16, r_m = 0.5: every cell the "
                               "survivors' balls cover is 1e-15 wide or less "
                               "on some axis, and is dropped")

    def test_more_cells_than_a_chunk(self, capsys, monkeypatch):
        # a 64 x 64 grid cuts each axis into 127 pieces: 16,129 cells, more
        # than MAX_CELLS, refused from the per-axis counts before the first
        # round and before any table is built
        def no_table(*args):
            raise AssertionError("a table was built")
        monkeypatch.setattr(policies, "_union_block", no_table)
        monkeypatch.setattr(elimination.SmoothPolicyElimination,
                            "_play_epoch", _no_play)
        self._check_exit_2(capsys, ["run", "--alg", "pe-s", "--env",
                                    "needle_h:d=2", "--h", "0.01",
                                    "--policies", "4096", "--T", "100",
                                    "--seeds", "1"],
                           "configuration error: the balls at h = 0.01 cut "
                           "the cube into 16129 cells per context, more "
                           "than 8192")

    def test_lowerbound_kind_outside_choices_in_config(self, tmp_path,
                                                        capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _no_play)
        _write_config(tmp_path, kind="x", L=4, T=64)
        self._check_exit_2(capsys, ["lowerbound", "--alg", "exp4", "--h",
                                    "0.1", "--seeds", "1", "--policies", "4",
                                    "--config", str(tmp_path / "c.json")],
                           "argument --kind: invalid choice: 'x'")

    def test_cell_cap_before_any_configuration_plays(self, capsys,
                                                     monkeypatch):
        # the h = 1 configuration could play; h = 0.01 breaks the cap, and
        # the sweep is refused while its configurations are built
        monkeypatch.setattr(elimination.SmoothPolicyElimination,
                            "_play_epoch", _no_play)
        assert self._check_exit_2(
            capsys, ["sweep", "--alg", "pe-s", "--env", "needle_h:d=2",
                     "--h-list", "1,0.01", "--policies", "4096", "--T", "100",
                     "--seeds", "1"],
            "configuration error: the balls at h = 0.01 cut the cube into "
            "16129 cells per context, more than 8192") == ""

    @pytest.mark.parametrize("text", [b"{", b"\xff{"],
                             ids=["truncated", "not-utf-8"])
    def test_config_that_is_not_json(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        self._check_exit_2(capsys, ["run", "--alg", "exp4", "--config",
                                    str(cfg)],
                           f"--config {str(cfg)!r} is not JSON: ")

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        self._check_exit_2(capsys, ["run", "--alg", "exp4", "--config",
                                    str(cfg)], "JSON object")

    def test_json_list_for_a_comma_list_in_config(self, tmp_path, capsys):
        # a list is read as a comma list, as --eps-grid 0.1,0.2 is
        _write_config(tmp_path, env="absolute", h=0.1, eps_grid=[0.1, 0.2])
        assert main(["diagnose", "--config", str(tmp_path / "c.json")]) == 0
        assert capsys.readouterr().out.count("M_h=") == 2

    def test_abbreviated_flag(self, capsys):
        # a flag is named in full: --se is not read as --seeds
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


class TestOneParse:
    """A --config key is read as the text of the flag it names, in the one
    parse that reads the command line after it."""

    RUN = ["run", "--alg", "exp4", "--env", "absolute", "--T", "20", "--h",
           "0.1", "--seeds", "1", "--policies", "4"]

    def _run(self, tmp_path, argv, **values):
        _write_config(tmp_path, **values)
        return main(argv + ["--config", str(tmp_path / "c.json")])

    def test_command_key_names_no_flag(self, tmp_path, capsys, monkeypatch):
        # "command" is ignored: a run stays a run, and one without --env
        # is refused before any round
        assert self._run(tmp_path, self.RUN, command="diagnose") == 0
        assert capsys.readouterr().out.startswith("alg=exp4 env=absolute")
        monkeypatch.setattr(cli, "run_experiment", _no_play)
        assert self._run(tmp_path, ["run", "--alg", "exp4"],
                         command="diagnose") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "the following arguments are required: --env" in err

    def test_alg_and_env_from_the_file(self, tmp_path, capsys):
        assert self._run(tmp_path, ["run", "--h", "0.1", "--T", "64"],
                         alg="exp4", env="absolute") == 0
        assert capsys.readouterr().out.startswith("alg=exp4 env=absolute")
        # --alg on the command line beats the file's
        assert self._run(tmp_path, ["run", "--alg", "pe-s", "--h", "0.1",
                                    "--T", "64"],
                         alg="exp4", env="absolute") == 0
        assert capsys.readouterr().out.startswith("alg=pe-s env=absolute")

    @pytest.mark.parametrize("value", [True, False, None, {"n": 2}, [1, None],
                                       [[1, 2]]],
                             ids=["true", "false", "null", "object",
                                  "null-in-list", "nested-list"])
    def test_value_without_flag_text(self, tmp_path, capsys, monkeypatch,
                                     value):
        monkeypatch.setattr(cli, "run_experiment", _no_play)
        assert self._run(tmp_path, self.RUN, seeds=value) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "--config key 'seeds'" in err

    def test_key_that_names_no_flag_of_the_subcommand(self, tmp_path, capsys):
        assert self._run(tmp_path, ["diagnose", "--h", "0.1", "--eps-grid",
                                    "0.1,0.2"], env="absolute", T=5,
                         seeds=2, no_such_flag="x") == 0
        assert "theta_h=" in capsys.readouterr().out

    def test_unknown_command_line_flag_beside_config(self, tmp_path,
                                                     capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _no_play)
        # the same token from the file alone is ignored; the command line's
        # copy is still refused
        assert self._run(tmp_path, self.RUN + ["--bogus=1"], bogus=1) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unrecognized arguments: --bogus=1" in err

    def test_value_starting_with_a_dash(self, tmp_path, capsys):
        # read as --h=-1, not as a flag named -1
        assert self._run(tmp_path, ["run", "--alg", "exp4", "--env",
                                    "absolute"], h="-1") == 2
        assert "h must lie in (0, 1], got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, file_value, flag, text, want", [
        ("run", "env", "needle_h", "--env", "absolute", "absolute"),
        ("run", "alg", "pe-l", "--alg", "exp4", "exp4"),
        ("run", "h", 0.5, "--h", "1/8", 0.125),
        ("run", "T", 100, "--T", "30", 30),
        ("run", "L", 2, "--L", "4", 4.0),
        ("run", "seeds", [5, 6], "--seeds", "2", [0, 1]),
        ("run", "out", "a", "--out", "", ""),
        ("sweep", "h_list", [0.1, 0.2], "--h-list", "0.3", [0.3]),
        ("diagnose", "eps_grid", "0.1,0.2", "--eps-grid", "1/4", [0.25]),
        ("lowerbound", "kind", "L", "--kind", "h", "h"),
        ("lowerbound", "index", 2, "--index", "0", 0)])
    def test_command_line_beats_the_file(self, tmp_path, monkeypatch,
                                         command, key, file_value, flag,
                                         text, want):
        seen = []
        monkeypatch.setattr(cli, f"_cmd_{command}",
                            lambda args: seen.append(args) or 0)
        base = [command] + (["--alg", "exp4"] if command != "diagnose"
                            else []) + (["--env", "absolute"]
                                        if command != "lowerbound" else [])
        assert self._run(tmp_path, base + [flag, text],
                         **{key: file_value}) == 0
        assert getattr(seen[0], key) == want


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def _quickstart_commands():
    """The argv of each ``smoothcb`` line of README's CLI Quickstart."""
    text = open(README).read().split("## Quickstart (CLI)")[1]
    block = text.split("```sh")[1].split("```")[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("smoothcb ")]


class TestReadmeQuickstart:
    """Each CLI Quickstart line runs as README gives it, at T = 256 with one
    seed where the subcommand plays rounds (the last flag given wins)."""

    RESULT = {"run": "summary.json", "sweep": "sweep.json",
              "diagnose": "diagnostics.json", "lowerbound": "lowerbound.json"}

    def _small(self, argv, tmp_path):
        out = argv.index("--out") + 1
        argv = argv[:out] + [str(tmp_path / argv[out])] + argv[out + 1:]
        return argv + (["--T", "256", "--seeds", "1"]
                       if argv[0] != "diagnose" else [])

    def test_four_commands(self):
        assert [a[0] for a in _quickstart_commands()] == list(self.RESULT)

    @pytest.mark.parametrize("argv", _quickstart_commands(),
                             ids=lambda argv: argv[0])
    def test_runs(self, tmp_path, argv):
        argv = self._small(argv, tmp_path)
        assert main(argv) == 0
        out = argv[argv.index("--out") + 1]
        assert self.RESULT[argv[0]] in os.listdir(out)

    @pytest.mark.parametrize("argv", _quickstart_commands(),
                             ids=lambda argv: argv[0])
    def test_runs_from_a_config_file(self, tmp_path, argv):
        # the line's flags go into the file, and the sizes and --out stay
        # on the command line
        argv = self._small(argv, tmp_path)
        values = dict(zip(argv[1::2], argv[2::2]))  # the last of a flag wins
        tail = [x for k in ("--T", "--seeds", "--out") if k in values
                for x in (k, values.pop(k))]
        _write_config(tmp_path, **{k[2:]: v for k, v in values.items()})
        assert main([argv[0], "--config", str(tmp_path / "c.json")]
                    + tail) == 0
        out = argv[argv.index("--out") + 1]
        assert self.RESULT[argv[0]] in os.listdir(out)
