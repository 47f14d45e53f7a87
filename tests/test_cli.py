import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ctgames.cli import main, make_parser
from ctgames.experiments import (
    EXPERIMENT_SETTINGS,
    counterfactual,
    experiment_spec,
    run_monte_carlo,
)

from test_estimate import STILL_PANEL_CSV


class TestPresets:
    def test_paper_presets_match_benchmark_parameterization(self):
        for number, (ec, rn) in EXPERIMENT_SETTINGS.items():
            spec = experiment_spec(number, scale="paper")
            assert spec.theta_true.fc == (-1.9, -1.8, -1.7, -1.6, -1.5)
            assert spec.theta_true.rs == 1.0
            assert spec.theta_true.ec == ec
            assert spec.theta_true.rn == rn
            assert spec.config.rho == 0.05
            assert spec.config.lam == 1.0
            assert spec.config.n_states == 160
            assert spec.n_markets == 400
            assert spec.replications == 100

    def test_desk_preset_dimensions(self):
        spec = experiment_spec(2, scale="desk")
        assert spec.config.n_states == 24
        assert spec.theta_true.fc == (-1.9, -1.8, -1.7)
        assert spec.n_markets == 200
        assert spec.replications == 25

    def test_unknown_experiment_rejected(self):
        from ctgames import InvalidArgumentError

        with pytest.raises(InvalidArgumentError):
            experiment_spec(7)

    def test_unknown_ctnpl_start_rejected(self):
        from ctgames import InvalidArgumentError

        with pytest.raises(InvalidArgumentError, match="bogus"):
            experiment_spec(2, ctnpl_init="bogus")


def run_cli(*argv):
    return main(list(argv))


def duopoly_config():
    """A custom-game config file's contents: two firms, two demand levels."""
    return {"game": {"n_players": 2, "market_levels": 2, "lambda": 1.0, "rho": 0.05,
                     "q_up": 0.2, "q_down": 0.2, "delta": 1.0},
            "theta": {"fc": [-1.9, -1.8], "rs": 1.0, "rn": 1.0, "ec": 1.0}}


class TestCliSolve:
    def test_solve_writes_artifacts_deterministically(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = run_cli("solve", "--experiment", "2", "--scale", "desk",
                           "--out", str(out))
            assert code == 0
        for name in ("ccp.csv", "values.csv", "stationary.csv", "solve_trace.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        trace = json.loads((out1 / "solve_trace.json").read_text())
        assert trace["residual"] < 1e-10

    def test_missing_spec_is_config_error(self, tmp_path):
        assert run_cli("solve", "--out", str(tmp_path)) == 2


class TestCliSimulateEstimate:
    def test_round_trip_desk_pipeline(self, tmp_path):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--experiment", "2", "--scale", "desk",
                       "--seed", "11", "--markets", "300", "--out", str(out))
        assert code == 0
        panel = out / "panel.csv"
        assert panel.exists()

        est_out = tmp_path / "est"
        code = run_cli("estimate", "--experiment", "2", "--scale", "desk",
                       "--data", str(panel), "--init", "frequency",
                       "--stages", "15", "--out", str(est_out))
        assert code == 0
        rows = (est_out / "estimate.csv").read_text().splitlines()
        assert len(rows) == 2
        trace = json.loads((est_out / "estimate_trace.json").read_text())
        for key in ("nit", "nfev", "njev", "clamped_logs"):
            assert all(isinstance(stage[key], int) for stage in trace)

    def test_estimate_writes_artifacts_deterministically(self, tmp_path):
        code = run_cli("simulate", "--experiment", "2", "--scale", "desk",
                       "--seed", "13", "--markets", "300", "--out", str(tmp_path / "sim"))
        assert code == 0
        outs = (tmp_path / "a", tmp_path / "b")
        for out in outs:
            code = run_cli("estimate", "--experiment", "2", "--scale", "desk",
                           "--data", str(tmp_path / "sim" / "panel.csv"), "--init", "frequency",
                           "--out", str(out))
            assert code == 0
        for name in ("estimate.csv", "estimate_trace.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_continuous_sampling_writes_events(self, tmp_path):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--experiment", "1", "--scale", "desk",
                       "--sampling", "continuous", "--seed", "5",
                       "--markets", "50", "--out", str(out))
        assert code == 0
        assert (out / "events.csv").exists()


class TestCliMc:
    def test_tiny_mc_produces_tables(self, tmp_path):
        out = tmp_path / "mc"
        code = run_cli("mc", "--experiment", "2", "--scale", "desk",
                       "--markets", "60", "--replications", "2",
                       "--estimators", "2S-True,CTNPL", "--seed", "17",
                       "--out", str(out))
        assert code == 0
        for name in ("mc_raw.csv", "mc_means.csv", "mc_means.md",
                     "mc_rmse.csv", "mc_rmse.md"):
            assert (out / name).exists()
        raw = (out / "mc_raw.csv").read_text().splitlines()
        assert len(raw) == 1 + 2 * 2  # header + 2 estimators x 2 replications
        means = (out / "mc_means.csv").read_text()
        assert "True values" in means and "CTNPL" in means

    def test_mc_writes_artifacts_deterministically(self, tmp_path):
        outs = (tmp_path / "a", tmp_path / "b")
        for out in outs:
            code = run_cli("mc", "--experiment", "2", "--scale", "desk",
                           "--markets", "60", "--replications", "2",
                           "--estimators", "2S-Freq,CTNPL", "--seed", "19",
                           "--out", str(out))
            assert code == 0
        assert len((outs[0] / "mc_raw.csv").read_text().splitlines()) == 1 + 2 * 2
        for name in ("mc_raw.csv", "mc_means.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestCliDiagnose:
    def test_sweep_outputs_rows(self, tmp_path):
        out = tmp_path / "diag"
        code = run_cli("diagnose", "--experiment", "1", "--scale", "desk",
                       "--rn-grid", "0,1", "--out", str(out))
        assert code == 0
        lines = (out / "stability_sweep.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_diagnose_writes_artifacts_deterministically(self, tmp_path):
        outs = (tmp_path / "a", tmp_path / "b")
        for out in outs:
            code = run_cli("diagnose", "--experiment", "1", "--scale", "desk",
                           "--rn-grid", "0,5", "--out", str(out))
            assert code == 0
        name = "stability_sweep.csv"
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("players, levels, unidentified",
                             [(1, 5, "rn"), (2, 1, "rs")], ids=["one_firm", "one_level"])
    def test_unidentified_parameter_exits_two(self, players, levels, unidentified,
                                              tmp_path, capsys):
        # with one firm rn never enters a payoff; with one demand level the
        # rs direction is the sum of the fixed-cost directions
        path = tmp_path / "game.json"
        path.write_text(json.dumps({
            "game": {"n_players": players, "market_levels": levels, "lambda": 1.0,
                     "rho": 0.05, "q_up": 0.2, "q_down": 0.2},
            "theta": {"fc": [-1.2, -0.9][:players], "rs": 1.0, "rn": 1.0, "ec": 1.0}}))
        capsys.readouterr()
        code = run_cli("diagnose", "--config", str(path), "--rn-grid", "0,1",
                       "--out", str(tmp_path / "diag"))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "InvalidArgumentError"
        assert f"{unidentified} is not identified" in error["message"]


class TestCliCounterfactual:
    def test_zero_shift_reports_no_change(self):
        spec = experiment_spec(2, scale="desk")
        result = counterfactual(spec, fc_shift=0.0, n_draws=2000, seed=1)
        assert result["degenerate"]

    def test_subsidy_increases_activity(self, tmp_path):
        out = tmp_path / "cf"
        code = run_cli("counterfactual", "--experiment", "2", "--scale", "desk",
                       "--fc-shift", "-0.2", "--draws", "5000",
                       "--seed", "2", "--out", str(out))
        assert code == 0
        text = (out / "counterfactual.csv").read_text().splitlines()
        header, row = text[0].split(","), text[1].split(",")
        record = dict(zip(header, row))
        assert float(record["pct_change"]) > 0

    @pytest.mark.parametrize("n_draws", [-5, 0, 1])
    def test_fewer_than_two_draws_rejected(self, n_draws):
        from ctgames import InvalidArgumentError

        spec = experiment_spec(2, scale="desk")
        with pytest.raises(InvalidArgumentError, match="n_draws"):
            counterfactual(spec, n_draws=n_draws)

    def test_entry_cost_zero_experiment_is_degenerate(self):
        spec = experiment_spec(4, scale="desk")
        result = counterfactual(spec, fc_shift=-0.2, n_draws=2000, seed=3)
        assert result["degenerate"]

    def test_no_active_firm_in_baseline_is_numerical_error(self):
        # fixed costs of -30 keep every firm out: the percentage change
        # would divide by a zero baseline mean
        from ctgames import NumericalError

        spec = experiment_spec(2, scale="desk")
        spec = replace(spec, theta_true=replace(spec.theta_true, fc=(-30.0,) * 3))
        with pytest.raises(NumericalError, match="no firm is active"):
            counterfactual(spec, fc_shift=-0.2, n_draws=2000, seed=3)

    def test_no_active_firm_in_baseline_exits_three(self, tmp_path, capsys):
        config = {
            "game": {"n_players": 2, "market_levels": 2, "lambda": 1.0,
                     "rho": 0.05, "q_up": 0.3, "q_down": 0.3},
            "theta": {"fc": [-30.0, -30.0], "rs": 1.0, "rn": 1.0, "ec": 1.0},
        }
        path = tmp_path / "closed.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        code = run_cli("counterfactual", "--config", str(path), "--draws", "2000",
                       "--out", str(tmp_path / "o"))
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NumericalError"


class TestConfigFile:
    def test_custom_game_block(self, tmp_path):
        config = {
            "name": "tiny",
            "sampling": "discrete",
            "n_markets": 40,
            "replications": 2,
            "game": {"n_players": 2, "market_levels": 2, "lambda": 1.0,
                     "rho": 0.05, "q_up": 0.3, "q_down": 0.3, "delta": 1.0},
            "theta": {"fc": [-1.2, -0.9], "rs": 1.0, "rn": 1.0, "ec": 1.0},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = run_cli("solve", "--config", str(path), "--out", str(out))
        assert code == 0

    def test_single_agent_solve_prints_exact_zero_jacobian(self, tmp_path, capsys):
        # At a single-agent fixed point the sigma-Jacobian vanishes; the exact
        # route shows round-off, where central differences showed ~1e-9 noise.
        config = {
            "game": {"n_players": 1, "market_levels": 3, "lambda": 1.0,
                     "rho": 0.05, "q_up": 0.3, "q_down": 0.3, "delta": 1.0},
            "theta": {"fc": [-1.2], "rs": 1.0, "rn": 0.0, "ec": 1.0},
        }
        path = tmp_path / "solo.json"
        path.write_text(json.dumps(config))
        assert run_cli("solve", "--config", str(path), "--out", str(tmp_path / "o")) == 0
        line = next(row for row in capsys.readouterr().out.splitlines()
                    if "max |dBR/dccp|" in row)
        assert float(line.rsplit("=", 1)[1]) <= 1e-12

    def test_config_start_method_reaches_estimate_and_a_flag_beats_it(self, tmp_path):
        code = run_cli("simulate", "--experiment", "2", "--scale", "desk",
                       "--markets", "100", "--out", str(tmp_path / "sim"))
        assert code == 0
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"experiment": 2, "scale": "desk",
                                    "ctnpl_init": "logit", "ctnpl_stages": 1}))
        for flags, init in (((), "logit"), (("--init", "frequency"), "frequency")):
            out = tmp_path / init
            code = run_cli("estimate", "--config", str(path), *flags,
                           "--data", str(tmp_path / "sim" / "panel.csv"), "--out", str(out))
            assert code == 0
            with open(out / "estimate.csv", newline="") as handle:
                (row,) = csv.DictReader(handle)
            assert (row["init"], row["stages"]) == (init, "1")

    def test_schema_violation_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": 12}))
        assert run_cli("solve", "--config", str(path), "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("key, value", [("q_up", float("nan")), ("rho", float("inf"))])
    def test_non_finite_number_is_config_error(self, key, value, tmp_path, capsys):
        # Python's json reads NaN and Infinity, and the schema's bounds let
        # them through; the file is rejected before any work
        game = {"n_players": 2, "market_levels": 2, "lambda": 1.0, "rho": 0.05,
                "q_up": 0.3, "q_down": 0.3, key: value}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"game": game, "theta": {
            "fc": [-1.2, -0.9], "rs": 1.0, "rn": 1.0, "ec": 1.0}}))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli("solve", "--config", str(path), "--out", str(out)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "InvalidArgumentError"
        assert json.dumps(value) in error["message"]
        assert not out.exists()

    def test_wrong_fc_length_is_config_error(self, tmp_path):
        config = {
            "game": {"n_players": 3, "market_levels": 2, "lambda": 1.0,
                     "rho": 0.05, "q_up": 0.3, "q_down": 0.3},
            "theta": {"fc": [-1.2, -0.9], "rs": 1.0, "rn": 1.0, "ec": 1.0},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run_cli("solve", "--config", str(path), "--out", str(tmp_path / "o")) == 2


class TestExitCodes:
    def test_numeric_failure_exits_three(self, tmp_path, monkeypatch):
        from ctgames import cli as cli_mod
        from ctgames.errors import ConvergenceError

        def exploding(spec, **kwargs):
            raise ConvergenceError("synthetic solver failure", residual=1.0)

        monkeypatch.setattr(cli_mod, "solve_spec", exploding)
        code = run_cli("solve", "--experiment", "1", "--scale", "desk",
                       "--out", str(tmp_path))
        assert code == 3

    def test_logit_start_without_toggles_exits_three(self, tmp_path, capsys):
        path = tmp_path / "still.csv"
        path.write_text(STILL_PANEL_CSV)
        capsys.readouterr()
        code = run_cli("estimate", "--experiment", "2", "--scale", "desk",
                       "--data", str(path), "--init", "logit",
                       "--out", str(tmp_path / "out"))
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NumericalError"

    def test_reducible_game_is_config_error(self, tmp_path, capsys):
        # frozen demand (no nature moves across three levels) leaves the
        # state chain reducible: the steady state is undefined
        config = {
            "game": {"n_players": 2, "market_levels": 3, "lambda": 1.0,
                     "rho": 0.05, "q_up": 0.0, "q_down": 0.0},
            "theta": {"fc": [-1.2, -0.9], "rs": 1.0, "rn": 1.0, "ec": 1.0},
        }
        path = tmp_path / "reducible.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        code = run_cli("solve", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NotIrreducibleError"

    def test_panel_state_out_of_range_is_config_error(self, tmp_path, capsys):
        # state 999 on the K = 24 desk game, caught before any indexing by
        # the frequency initializer and by the likelihood
        path = tmp_path / "panel.csv"
        path.write_text("market_id,n,k\n0,0,3\n0,1,999\n1,0,5\n1,1,4\n")
        for init in ("frequency", "random"):
            capsys.readouterr()
            code = run_cli("estimate", "--experiment", "2", "--scale", "desk",
                           "--data", str(path), "--init", init,
                           "--out", str(tmp_path / init))
            assert code == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == "InvalidArgumentError"


    @pytest.mark.parametrize("argv", [
        ("solve", "--config", "{tmp}/missing.json"),
        ("solve", "--config", "{tmp}/not_json.json"),
        ("diagnose", "--rn-grid", "a,b"),
        ("diagnose", "--rn-grid", ""),
        ("diagnose", "--rn-grid=nan,1"),
        ("diagnose", "--rn-grid=inf,1"),
        ("diagnose", "--rn-grid=-inf,1"),
        ("counterfactual", "--draws", "0"),
        ("counterfactual", "--draws", "1"),
        ("counterfactual", "--draws", "-5"),
        ("mc", "--replications", "1"),
        ("simulate", "--seed", "-1"),
        ("solve", "--config", "{tmp}/forty_firms.json"),
        ("simulate", "--seed", "abc"),
        ("solve", "--experiment", "7"),
        ("estimate",),
        (),
        ("solve", "--config", "{tmp}/theta_only.json"),
        ("solve", "--config", "{tmp}/game_only.json"),
        ("solve", "--exp", "1", "--s", "desk"),
        ("mc", "--estimators", ""),
        ("solve", "--config", "{tmp}/huge_rho.json"),
        ("solve", "--config", "{tmp}/huge_rn.json"),
    ], ids=["config_missing", "config_not_json", "rn_grid_not_numbers", "rn_grid_empty",
            "rn_grid_nan", "rn_grid_inf", "rn_grid_minus_inf",
            "draws_zero", "draws_one", "draws_negative", "mc_one_replication",
            "seed_negative", "state_space_too_large", "seed_not_int",
            "experiment_out_of_range", "estimate_without_data", "no_subcommand",
            "config_theta_without_game", "config_game_without_theta", "abbreviated_flags",
            "estimators_empty", "config_integer_rho_too_large_for_a_float",
            "config_integer_rn_too_large_for_a_float"])
    def test_bad_input_exits_two_with_one_json_line(self, argv, tmp_path, capsys):
        (tmp_path / "not_json.json").write_text("{experiment: 2,\n")
        # 5 * 2**40 states: rejected by the game before any array is built
        (tmp_path / "forty_firms.json").write_text(json.dumps({
            "game": {"n_players": 40, "market_levels": 5, "lambda": 1.0, "rho": 0.05,
                     "q_up": 0.2, "q_down": 0.2},
            "theta": {"fc": [-1.5] * 40, "rs": 1.0, "rn": 1.0, "ec": 1.0}}))
        # a lone theta or game block would otherwise be dropped in silence
        (tmp_path / "theta_only.json").write_text(json.dumps({
            "experiment": 1, "scale": "desk",
            "theta": {"fc": [-1, -1, -1], "rs": 1, "rn": 3, "ec": 2}}))
        (tmp_path / "game_only.json").write_text(json.dumps({
            "experiment": 1, "scale": "desk",
            "game": {"n_players": 3, "market_levels": 3, "lambda": 1.0, "rho": 0.05,
                     "q_up": 0.2, "q_down": 0.2}}))
        # a JSON integer too large for a float
        for key, block in (("rho", "game"), ("rn", "theta")):
            spec = duopoly_config()
            spec[block][key] = 10 ** 400
            (tmp_path / f"huge_{key}.json").write_text(json.dumps(spec))
        out = tmp_path / "out"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        if "--config" not in argv:
            argv += ["--experiment", "2", "--scale", "desk"]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(*argv, "--out", str(out))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InvalidArgumentError"
        # rejected before any work: no partial artifacts
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, key, value", [
        ("solve", "rho", 1e-17),      # rho I - Q singular in the value solve
        ("solve", "lambda", 1e-300),  # singular stationary system
        ("simulate", "delta", 1e300),  # NaN transition matrix, after an overflow
    ])
    def test_singular_or_non_finite_kernel_exits_three(self, command, key, value,
                                                        tmp_path, capsys):
        spec = duopoly_config()
        spec["game"][key] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(command, "--config", str(path), "--out", str(out))
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NumericalError"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ("solve", "--seed", "1"),
        ("simulate", "--replications", "2"),
        ("estimate", "--data", "{tmp}/panel.csv", "--markets", "5"),
        ("diagnose", "--sampling", "discrete"),
        ("counterfactual", "--estimators", "CTNPL"),
    ], ids=lambda argv: argv[0])
    def test_flag_the_command_does_not_read_exits_two(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        capsys.readouterr()
        code = run_cli(*argv, "--experiment", "2", "--scale", "desk", "--out", str(out))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "InvalidArgumentError"
        assert "unrecognized arguments" in error["message"]
        assert not out.exists()

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("diagnose", "-h")
        assert exit_info.value.code == 0
        assert "--rn-grid" in capsys.readouterr().out


class TestCliFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        shared = {"--config", "--experiment", "--scale", "--out"}
        expected = {
            "solve": shared,
            "simulate": shared | {"--sampling", "--seed", "--markets"},
            "estimate": shared | {"--sampling", "--seed", "--data", "--init", "--stages"},
            "mc": shared | {"--sampling", "--seed", "--markets", "--replications",
                            "--estimators", "--verbose"},
            "diagnose": shared | {"--rn-grid"},
            "counterfactual": shared | {"--seed", "--fc-shift", "--draws", "--entry-cost"},
        }
        sub = next(action for action in make_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        flags = {name: {option for action in parser._actions
                        for option in action.option_strings} - {"-h", "--help"}
                 for name, parser in sub.choices.items()}
        assert flags == expected
        assert sum(map(len, flags.values())) == 43


# Runs desk commands without a config file in one fresh process, then one
# fit, and prints [command, exit code, optional modules loaded] after each.
LAZY_IMPORT_PROBE = """
import json, sys
import ctgames, ctgames.cli

out, lazy = sys.argv[1], ("scipy.optimize", "jsonschema")
records = [["import", 0, [name for name in lazy if name in sys.modules]]]
for argv in (["solve"], ["simulate", "--sampling", "discrete"],
             ["simulate", "--sampling", "continuous"], ["diagnose", "--rn-grid", "0,5"],
             ["counterfactual", "--draws", "100"],
             ["estimate", "--data", out + "/simulate/panel.csv", "--stages", "1"]):
    code = ctgames.cli.main([*argv, "--experiment", "2", "--scale", "desk",
                             "--out", out + "/" + argv[0]])
    records.append([argv[0], code, [name for name in lazy if name in sys.modules]])
print(json.dumps(records))
"""


class TestLazyImports:
    def test_optimizer_and_validator_load_only_when_used(self, tmp_path):
        # a fresh process: this one has loaded both modules already
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", LAZY_IMPORT_PROBE, str(tmp_path)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        *before_fit, fit = json.loads(done.stdout.splitlines()[-1])
        assert [command for command, _, _ in before_fit] == [
            "import", "solve", "simulate", "simulate", "diagnose", "counterfactual"]
        assert all(code == 0 and not loaded for _, code, loaded in before_fit)
        assert fit == ["estimate", 0, ["scipy.optimize"]]


EVENTS_HEADER = "market_id,n,k,t,actor,action\n"
# Each file breaks one data invariant of the K = 24, N = 3 desk game.
BAD_DATA_FILES = {
    "event_state_negative": ("continuous", EVENTS_HEADER
                             + "0,1,-3,0.5,0,1\n0,2,1,2.0,-2,-1\n"),
    "event_state_too_large": ("continuous", EVENTS_HEADER
                              + "0,1,999,0.5,0,1\n0,2,1,2.0,-2,-1\n"),
    "event_actor_not_a_player": ("continuous", EVENTS_HEADER
                                 + "0,1,3,0.5,7,1\n0,2,1,2.0,-2,-1\n"),
    "events_without_censor_row": ("continuous", EVENTS_HEADER
                                  + "0,1,3,0.5,0,1\n0,2,1,2.0,-2,-1\n1,1,3,0.4,0,1\n"),
    # every market is censored at t = 0
    "events_without_observation_time": ("continuous", EVENTS_HEADER
                                        + "0,1,0,0,-2,-1\n1,1,3,0,-2,-1\n"),
    "panel_rows_interleaved": ("discrete",
                               "market_id,n,k\n0,0,3\n0,1,4\n1,0,5\n0,2,6\n1,1,5\n"),
    "non_numeric_field": ("discrete", "market_id,n,k\n0,0,3\n0,1,x\n"),
    "short_row": ("continuous", EVENTS_HEADER + "0,1,3,0.5,0\n0,2,1,2.0,-2,-1\n"),
    "missing_file": ("discrete", None),
    "panel_without_header": ("discrete", "0,0,3\n0,1,4\n1,0,5\n1,1,5\n"),
    "events_file_as_panel": ("discrete", EVENTS_HEADER
                             + "0,1,3,0.5,0,1\n0,2,1,2.0,-2,-1\n"),
}


class TestBadDataFiles:
    @pytest.mark.parametrize("name", sorted(BAD_DATA_FILES))
    def test_exits_two_with_one_json_line(self, name, tmp_path, capsys):
        sampling, text = BAD_DATA_FILES[name]
        path = tmp_path / "data.csv"
        if text is not None:
            path.write_text(text)
        capsys.readouterr()
        code = run_cli("estimate", "--experiment", "2", "--scale", "desk",
                       "--sampling", sampling, "--data", str(path),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InvalidArgumentError"


class TestMcReplications:
    def test_one_replication_rejected_before_any_fit(self, monkeypatch):
        from ctgames import InvalidArgumentError
        from ctgames import experiments as experiments_mod

        def never(*args, **kwargs):
            raise AssertionError("no replication may run")

        monkeypatch.setattr(experiments_mod, "simulate_dataset", never)
        spec = experiment_spec(2, scale="desk", n_markets=40, replications=1)
        with pytest.raises(InvalidArgumentError, match="replications"):
            run_monte_carlo(spec)


class TestMcFailuresRecorded:
    def test_failures_are_recorded_not_raised(self, monkeypatch):
        from ctgames import errors as errors_mod
        from ctgames import experiments as experiments_mod

        spec = experiment_spec(2, scale="desk", n_markets=40, replications=2,
                               estimators=("2S-True",), seed=5)
        calls = {"n": 0}
        original = experiments_mod.ctnpl

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise errors_mod.OptimizationError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments_mod, "ctnpl", flaky)
        mc = run_monte_carlo(spec)
        assert len(mc.failures) == 1
        assert mc.failures[0][0] == 0
        assert mc.estimates["2S-True"].shape[0] == 1
