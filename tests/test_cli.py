import argparse
import csv
import json
import math
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from ctgames.cli import main, make_parser
from ctgames.estimate import INIT_METHODS
from ctgames.experiments import (
    EXPERIMENT_SETTINGS,
    counterfactual,
    experiment_spec,
    run_monte_carlo,
)

from conftest import EXP_OVERFLOW_GAME, VALUE_OVERFLOW_GAME, run_fresh_python
from test_estimate import CARRIED_HESSIAN_EVENTS_CSV, STILL_PANEL_CSV


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


# The data file `simulate` writes under each sampling scheme.
DATA_FILES = {"discrete": "panel.csv", "continuous": "events.csv"}


class TestCliSimulateEstimate:
    def test_round_trip_desk_pipeline(self, tmp_path):
        for sampling, data in DATA_FILES.items():
            out = tmp_path / sampling
            code = run_cli("simulate", "--experiment", "2", "--scale", "desk",
                           "--sampling", sampling, "--seed", "11", "--markets", "300",
                           "--out", str(out / "sim"))
            assert code == 0
            code = run_cli("estimate", "--experiment", "2", "--scale", "desk",
                           "--data", str(out / "sim" / data),
                           "--init", "frequency", "--stages", "15", "--out", str(out / "est"))
            assert code == 0
            with open(out / "est" / "estimate.csv", newline="") as handle:
                (row,) = csv.DictReader(handle)
            assert row["converged"] == "True" and np.isfinite(float(row["loglik"])), sampling
            trace = json.loads((out / "est" / "estimate_trace.json").read_text())
            for key in ("nit", "nfev", "njev", "clamped_logs"):
                assert all(isinstance(stage[key], int) for stage in trace)

    def test_estimate_writes_artifacts_deterministically(self, tmp_path):
        for sampling, data in DATA_FILES.items():
            sim = tmp_path / sampling / "sim"
            code = run_cli("simulate", "--experiment", "2", "--scale", "desk",
                           "--sampling", sampling, "--seed", "13", "--markets", "300",
                           "--out", str(sim))
            assert code == 0
            outs = (tmp_path / sampling / "a", tmp_path / sampling / "b")
            for out in outs:
                code = run_cli("estimate", "--experiment", "2", "--scale", "desk",
                               "--data", str(sim / data),
                               "--init", "frequency", "--out", str(out))
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


# The five tables of a Monte Carlo run that keeps 2S-True.
MC_TABLES = ("mc_raw.csv", "mc_means.csv", "mc_means.md", "mc_rmse.csv", "mc_rmse.md")


class TestCliMc:
    def test_tiny_mc_produces_tables(self, tmp_path):
        out = tmp_path / "mc"
        code = run_cli("mc", "--experiment", "2", "--scale", "desk",
                       "--markets", "60", "--replications", "2",
                       "--estimators", "2S-True,CTNPL", "--seed", "17",
                       "--out", str(out))
        assert code == 0
        for name in MC_TABLES:
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
                           "--estimators", "2S-True,2S-Freq,CTNPL", "--seed", "19",
                           "--out", str(out))
            assert code == 0
        assert len((outs[0] / "mc_raw.csv").read_text().splitlines()) == 1 + 3 * 2
        for name in MC_TABLES:
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
        # a sweep that failed at every point would still write its header
        with open(outs[0] / name, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["rn"] for row in rows] == ["0", "5"]
        for row in rows:
            assert row["error"] == "" and np.isfinite(float(row["rho"])), row
            assert np.isfinite(float(row["rho_br"])), row

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

    @pytest.mark.parametrize("blocked", ["out", "out/ccp.csv"],
                             ids=["out_is_a_file", "artifact_is_a_directory"])
    def test_unusable_out_exits_two_naming_the_path(self, blocked, tmp_path, capsys):
        out, path = tmp_path / "out", tmp_path / blocked
        if path == out:
            out.write_text("")
        else:
            path.mkdir(parents=True)
        capsys.readouterr()
        code = run_cli("solve", "--experiment", "1", "--scale", "desk", "--out", str(out))
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        error = json.loads(line)
        assert error["error"] == "InvalidArgumentError"
        assert error["message"].startswith(f"cannot write {path}: ")

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

    @pytest.mark.parametrize("game, argv, message", [
        (VALUE_OVERFLOW_GAME, ("solve",), "value equation"),
        (EXP_OVERFLOW_GAME, ("simulate", "--sampling", "discrete", "--markets", "5"),
         "squarings"),
        (EXP_OVERFLOW_GAME, ("estimate", "--data", "{tmp}/panel.csv"),
         "squarings"),
    ], ids=["value-solve", "exp-simulate", "exp-estimate"])
    def test_overflowing_kernel_exits_three(self, game, argv, message, tmp_path, capsys):
        # the same failure on every command: the value solve's policy values,
        # or delta Q, overflow; the panel is the game's over delta = 1
        if "--data" in argv:
            finite = {**game, "game": {**game["game"], "delta": 1.0}}
            (tmp_path / "finite.json").write_text(json.dumps(finite))
            assert run_cli("simulate", "--config", str(tmp_path / "finite.json"), "--sampling",
                           "discrete", "--markets", "50", "--out", str(tmp_path)) == 0
        (tmp_path / "spec.json").write_text(json.dumps(game))
        out = tmp_path / "out"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(*argv, "--config", str(tmp_path / "spec.json"), "--out", str(out))
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NumericalError"
        assert message in json.loads(lines[0])["message"]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("argv", [
        ("solve", "--seed", "1"),
        ("simulate", "--replications", "2"),
        ("estimate", "--data", "{tmp}/panel.csv", "--markets", "5"),
        # the data file's header row names its format
        pytest.param(("estimate", "--data", "{tmp}/panel.csv", "--sampling", "continuous"),
                     id="estimate-sampling"),
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
            "estimate": shared | {"--seed", "--data", "--init", "--stages"},
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
        assert sum(map(len, flags.values())) == 42


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
        done = run_fresh_python(LAZY_IMPORT_PROBE, str(tmp_path))
        *before_fit, fit = json.loads(done.stdout.splitlines()[-1])
        assert [command for command, _, _ in before_fit] == [
            "import", "solve", "simulate", "simulate", "diagnose", "counterfactual"]
        assert all(code == 0 and not loaded for _, code, loaded in before_fit)
        assert fit == ["estimate", 0, ["scipy.optimize"]]


# Runs each (output directory, arguments) command of the JSON list argv[2]
# under the directory argv[1], and prints the list of exit codes.
FRESH_PROCESS_PROBE = """
import json, sys
import ctgames.cli

out, commands = sys.argv[1], json.loads(sys.argv[2])
print(json.dumps([ctgames.cli.main([*argv, "--out", out + "/" + name])
                  for name, argv in commands]))
"""
# Desk commands whose artifacts a fresh process must write to the bytes this
# one writes, then the paper's criterion-6 grid; {events} is a desk event file.
FRESH_PROCESS_COMMANDS = (
    ("solve", ["solve", "--experiment", "2", "--scale", "desk"]),
    ("diagnose", ["diagnose", "--experiment", "1", "--scale", "desk", "--rn-grid", "0,5"]),
    ("estimate", ["estimate", "--experiment", "2", "--scale", "desk", "--data", "{events}"]),
    ("mc", ["mc", "--experiment", "2", "--scale", "desk", "--replications", "3",
            "--markets", "100"]),
    ("paper", ["diagnose", "--experiment", "1", "--scale", "paper",
               "--rn-grid", "0,1,2,3,4,5"]),
)
# The benchmark's recorded radii, read only, and its tolerance on them.
REFERENCE_JSON = Path(__file__).resolve().parents[1] / "ctbench" / "reference.json"
RADIUS_TOL = 1e-6


class TestFreshProcess:
    def test_same_bytes_as_this_process_and_the_recorded_paper_radii(self, tmp_path):
        assert run_cli("simulate", "--experiment", "2", "--scale", "desk",
                       "--sampling", "continuous", "--out", str(tmp_path / "sim")) == 0
        events = str(tmp_path / "sim" / "events.csv")
        commands = [(name, [arg.format(events=events) for arg in argv])
                    for name, argv in FRESH_PROCESS_COMMANDS]
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        done = run_fresh_python(FRESH_PROCESS_PROBE, str(fresh), json.dumps(commands))
        assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(commands)
        for name, argv in commands[:-1]:
            assert run_cli(*argv, "--out", str(here / name)) == 0
            names = sorted(path.name for path in (here / name).iterdir())
            assert names == sorted(path.name for path in (fresh / name).iterdir())
            for artifact in names:
                assert ((here / name / artifact).read_bytes()
                        == (fresh / name / artifact).read_bytes()), (name, artifact)

        recorded = json.loads(REFERENCE_JSON.read_text())["sweep"]["paper"]
        with open(fresh / "paper" / "stability_sweep.csv", newline="") as handle:
            rows = {f"{float(row['rn']):g}": row for row in csv.DictReader(handle)}
        assert sorted(rows) == sorted(recorded)
        for rn, want in recorded.items():
            assert rows[rn]["error"] == "", rn
            for column in ("rho", "rho_br"):
                assert abs(float(rows[rn][column]) - want[column]) <= RADIUS_TOL, (rn, column)


EVENTS_HEADER = "market_id,n,k,t,actor,action\n"
# Each file breaks one data invariant of the K = 24, N = 3 desk game.
BAD_DATA_FILES = {
    "event_state_negative": EVENTS_HEADER + "0,1,-3,0.5,0,1\n0,2,1,2.0,-2,-1\n",
    "event_state_too_large": EVENTS_HEADER + "0,1,999,0.5,0,1\n0,2,1,2.0,-2,-1\n",
    "event_actor_not_a_player": EVENTS_HEADER + "0,1,3,0.5,7,1\n0,2,1,2.0,-2,-1\n",
    "events_without_censor_row": (EVENTS_HEADER
                                  + "0,1,3,0.5,0,1\n0,2,1,2.0,-2,-1\n1,1,3,0.4,0,1\n"),
    # every market is censored at t = 0
    "events_without_observation_time": EVENTS_HEADER + "0,1,0,0,-2,-1\n1,1,3,0,-2,-1\n",
    "panel_rows_interleaved": "market_id,n,k\n0,0,3\n0,1,4\n1,0,5\n0,2,6\n1,1,5\n",
    "non_numeric_field": "market_id,n,k\n0,0,3\n0,1,x\n",
    "short_row": EVENTS_HEADER + "0,1,3,0.5,0\n0,2,1,2.0,-2,-1\n",
    "missing_file": None,
    "panel_without_header": "0,0,3\n0,1,4\n1,0,5\n1,1,5\n",
    "unknown_header": "market_id,n,k,t\n0,0,3,0.5\n",
    "censor_action_not_minus_one": EVENTS_HEADER + "0,1,3,0.5,0,1\n0,2,1,2.0,-2,7\n",
    "censor_counter_repeats_last_event": EVENTS_HEADER + "0,1,3,0.5,0,1\n0,1,1,2.0,-2,-1\n",
    # market 0's censor row comes before its event; its n column is right
    "censor_row_before_its_events": (EVENTS_HEADER + "0,2,1,2.0,-2,-1\n"
                                     "0,1,3,0.5,0,1\n1,1,5,1.0,-2,-1\n"),
}
# A file with neither header row: the message names both.
BOTH_HEADERS = ("expected ['market_id', 'n', 'k', 't', 'actor', 'action'] "
                "or ['market_id', 'n', 'k']")


class TestBadDataFiles:
    @pytest.mark.parametrize("name", sorted(BAD_DATA_FILES))
    def test_exits_two_with_one_json_line(self, name, tmp_path, capsys):
        text = BAD_DATA_FILES[name]
        path = tmp_path / "data.csv"
        if text is not None:
            path.write_text(text)
        capsys.readouterr()
        code = run_cli("estimate", "--experiment", "2", "--scale", "desk",
                       "--data", str(path), "--out", str(tmp_path / "out"))
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "InvalidArgumentError"
        assert error["message"].startswith(f"data file {path}: ")
        if name in ("panel_without_header", "unknown_header"):
            assert BOTH_HEADERS in error["message"]
        assert not (tmp_path / "out" / "estimate.csv").exists()

    def test_rewritten_counter_column_exits_two(self, tmp_path, capsys):
        # a simulated event file whose n column reads -40, -33, ...
        assert run_cli("simulate", "--experiment", "2", "--scale", "desk",
                       "--sampling", "continuous", "--out", str(tmp_path / "simc")) == 0
        header, *rows = (tmp_path / "simc" / "events.csv").read_text().splitlines()
        lines = [header]
        for r, row in enumerate(rows):
            market, _, rest = row.split(",", 2)
            lines.append(f"{market},{7 * r - 40},{rest}")
        path = tmp_path / "broken.csv"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli("estimate", "--experiment", "2", "--scale", "desk",
                       "--data", str(path), "--out", str(tmp_path / "out"))
        assert code == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert json.loads(err)["error"] == "InvalidArgumentError"
        assert not (tmp_path / "out" / "estimate.csv").exists()


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

    def test_estimator_left_one_replication_only_in_raw_and_failures(
            self, tmp_path, monkeypatch, capsys):
        # the first fit (2S-True, replication 0) fails: 2S-True keeps one
        # replication, too few for a standard deviation or an RMSE
        from ctgames import errors as errors_mod
        from ctgames import experiments as experiments_mod

        calls = {"n": 0}
        original = experiments_mod.ctnpl

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise errors_mod.OptimizationError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments_mod, "ctnpl", flaky)
        out = tmp_path / "mc"
        capsys.readouterr()
        code = run_cli("mc", "--experiment", "2", "--scale", "desk", "--markets", "60",
                       "--replications", "2", "--estimators", "2S-True,2S-Freq",
                       "--seed", "5", "--out", str(out))
        assert code == 0
        assert capsys.readouterr().err == "warning: 1 replication failures recorded\n"

        def column(name, key):
            with open(out / name, newline="") as handle:
                return [row[key] for row in csv.DictReader(handle)]

        assert column("mc_failures.csv", "estimator") == ["2S-True"]
        assert column("mc_failures.csv", "replication") == ["0"]
        assert column("mc_raw.csv", "estimator") == ["2S-True", "2S-Freq", "2S-Freq"]
        assert column("mc_means.csv", "estimator") == ["True values", "2S-Freq"]
        assert not (out / "mc_rmse.csv").exists()

    def test_mc_overflowing_errors_leave_finite_rmse_ratios(self, tmp_path, capfd):
        # rn's errors near 1e253 square past the largest float: the failed
        # fits are recorded and each RMSE ratio is still finite
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(OVERFLOW_RMSE_GAME))
        capfd.readouterr()
        code = run_quiet("mc", "--config", str(path), "--markets", "30",
                         "--replications", "2", "--out", str(tmp_path / "mc"))
        assert code == 0
        assert MC_WARNING.fullmatch(capfd.readouterr().err)
        with open(tmp_path / "mc" / "mc_rmse.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        for row in rows:
            assert all(np.isfinite(float(value)) for key, value in row.items()
                       if key != "estimator"), row


# Schema-valid games on which a fit cannot start.  On the first, stage 1's
# start inverse information keeps a curvature of about 1e-26 next to unit
# ones, so it is positive definite only in exact arithmetic.  On the second,
# rho is lost to rounding beside exit rates near 0.1, so rho I - Q is
# singular in floating point at any probabilities.
TINY_CURVATURE_GAME = {
    "game": {"n_players": 1, "market_levels": 1, "lambda": 0.001, "rho": 58.0,
             "q_up": 0.0, "q_down": 0.0, "delta": 2e-7},
    "theta": {"fc": [4e159], "rs": -34.0, "rn": 0.0, "ec": 0.001}}
SINGULAR_POLICY_GAME = {
    "game": {"n_players": 2, "market_levels": 1, "lambda": 0.09064834353564964,
             "rho": 5.0713865292938956e-158, "q_up": 1.208907516863025e+107, "q_down": 0.0,
             "delta": 1.3237983587673527e+185},
    "theta": {"fc": [1.2926166863908386e+194, 1.1002873961274106e+132],
              "rs": 32.06581546021111, "rn": 6.636819893746468,
              "ec": -1.2784128072023774e-63}}
# On event data from the true start, NumPy's Cholesky factor of this game's
# start inverse Hessian succeeds and SciPy's, the one BFGS tests, fails.
CHOLESKY_SPLIT_GAME = {
    "game": {"n_players": 3, "market_levels": 3, "lambda": 7.326897579816315e-92,
             "rho": 10000.0, "q_up": 79.43282347242814, "q_down": 1.0, "delta": 1.0},
    "theta": {"fc": [-1.278165280736435e+49, -2.312386250967726e-190, 2.943548577267642e-300],
              "rs": 1.3913866087715695e+271, "rn": -1.0, "ec": -0.9999999995710841}}
# A game whose stability sweep meets a parameter Gram matrix that is not finite.
NON_FINITE_GRAM_GAME = {
    "game": {"n_players": 2, "market_levels": 3, "lambda": 4.685810280741961e-59,
             "rho": 2.5288086513568523e+258, "q_up": 0.0, "q_down": 2.0353866220343778e-92,
             "delta": 1.422459431345517e-254},
    "theta": {"fc": [1.59454497977698e+175, 2.3633883097464253e-271],
              "rs": 2.2634970025749314e+190, "rn": 5.352854889199026e-29,
              "ec": -6.486188792431545e-85}}
# Games whose Monte Carlo errors square out of the float range: rn's errors
# near 1e253 overflow, and on the second the 2S-True errors near 4e-213
# underflow to a zero baseline RMSE.
OVERFLOW_RMSE_GAME = {
    "game": {"n_players": 2, "market_levels": 2, "lambda": 1.0, "rho": 0.05,
             "q_up": 0.2, "q_down": 0.2, "delta": 1.0},
    "theta": {"fc": [-1.9, -1.8], "rs": 1.0, "rn": -6.8e252, "ec": 1.0}}
UNDERFLOW_RMSE_GAME = {
    "game": {"n_players": 3, "market_levels": 1, "lambda": 3.0817071516356125e-186,
             "rho": 2.4949384213162164e+292, "q_up": 7.652725654129596e-197, "q_down": 0.0,
             "delta": 1.2509453372241317e+90},
    "theta": {"fc": [-1.4827977376668007e-157, 2.0609088248810005e+24,
                     3.2810010066310435e+108],
              "rs": -1.1128935383330173e-203, "rn": 1.942865051206713e+259,
              "ec": 3.910079690104118e-213}}
# One firm: rn is not identified and stays at its start value 1, which is
# also the truth, so 2S-True's rn RMSE is zero; on event data one other fit
# moves rn by a rounding error.
EXACT_RN_GAME = {
    "game": {"n_players": 1, "market_levels": 1, "lambda": 1.0, "rho": 1.0,
             "q_up": 0.0, "q_down": 0.0, "delta": 1.0},
    "theta": {"fc": [-1.0], "rs": -1.0, "rn": 1.0, "ec": -1.0}}


def run_quiet(*argv):
    """`run_cli` with every warning an error, as a warning would print a line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(*argv)


class TestEstimateStartFailures:
    def test_singular_policy_estimate_exits_three(self, tmp_path, capfd):
        # the game cannot be solved to simulate its own data: one hand-written
        # market sees firm 0 enter, the other sees no move
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SINGULAR_POLICY_GAME))
        events = tmp_path / "events.csv"
        events.write_text(EVENTS_HEADER + "0,1,0,0.5,0,1\n0,2,1,2.0,-2,-1\n1,1,0,1.0,-2,-1\n")
        capfd.readouterr()
        code = run_quiet("estimate", "--config", str(path), "--data", str(events),
                         "--out", str(tmp_path / "out"))
        out, err = capfd.readouterr()
        assert code == 3
        assert out == ""  # nothing from LAPACK either, which writes to the descriptor
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "NumericalError"
        assert not (tmp_path / "out" / "estimate.csv").exists()

    def test_start_that_bfgs_would_reject_exits_three(self, tmp_path, capfd):
        # the start is checked by the factorization BFGS checks it with, so
        # the fit ends in exit 3 instead of SciPy's ValueError
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(CHOLESKY_SPLIT_GAME))
        assert run_quiet("simulate", "--config", str(path), "--sampling", "continuous",
                         "--markets", "30", "--out", str(tmp_path / "sim")) == 0
        capfd.readouterr()
        code = run_quiet("estimate", "--config", str(path),
                         "--data", str(tmp_path / "sim" / "events.csv"), "--init", "true",
                         "--out", str(tmp_path / "out"))
        (line,) = capfd.readouterr().err.splitlines()
        assert code == 3
        assert "inverse Hessian" in json.loads(line)["message"]
        assert not (tmp_path / "out" / "estimate.csv").exists()

    def test_mc_records_the_failed_starts(self, tmp_path, capfd):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TINY_CURVATURE_GAME))
        out_dir = tmp_path / "mc"
        capfd.readouterr()
        code = run_quiet("mc", "--config", str(path), "--sampling", "discrete",
                         "--markets", "30", "--replications", "2", "--out", str(out_dir))
        out, err = capfd.readouterr()
        assert code == 0
        assert out == "monte carlo complete: 2 replications, " + err.split()[1] + " failures\n"
        assert err.startswith("warning: ") and len(err.splitlines()) == 1
        with open(out_dir / "mc_failures.csv", newline="") as handle:
            messages = [row["message"] for row in csv.DictReader(handle)]
        assert any("inverse Hessian is not finite and positive definite" in recorded
                   for recorded in messages)


def _rates():
    return st.floats(-300, 300).map(lambda u: 10.0 ** u)


@st.composite
def custom_games(draw):
    """Schema-valid config files of small games: each rate and payoff is
    +-10^u with u in [-300, 300], and nature's rates may be zero."""
    n = draw(st.integers(1, 3))
    rate, nature = _rates(), st.one_of(st.just(0.0), _rates())
    payoff = st.builds(lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]), rate)
    return {"game": {"n_players": n, "market_levels": draw(st.integers(1, 3)),
                     "lambda": draw(rate), "rho": draw(rate), "q_up": draw(nature),
                     "q_down": draw(nature), "delta": draw(rate)},
            "theta": {"fc": draw(st.lists(payoff, min_size=n, max_size=n)),
                      "rs": draw(payoff), "rn": draw(payoff), "ec": draw(payoff)}}


# Every command, each as (output directory, arguments).
PROPERTY_COMMANDS = (
    ("solve", ["solve"]),
    ("simd", ["simulate", "--sampling", "discrete", "--markets", "30"]),
    ("simc", ["simulate", "--sampling", "continuous", "--markets", "30"]),
    ("estd", ["estimate", "--data", "{work}/simd/panel.csv", "--init", "{init}"]),
    ("estc", ["estimate", "--data", "{work}/simc/events.csv", "--init", "{init}"]),
    ("diag", ["diagnose", "--rn-grid", "0,1"]),
    ("cf", ["counterfactual", "--draws", "100"]),
    ("mcd", ["mc", "--sampling", "discrete", "--markets", "30", "--replications", "2"]),
    ("mcc", ["mc", "--sampling", "continuous", "--markets", "30", "--replications", "2"]),
)
# The one stderr line `mc` prints at exit 0, when a fit failed.
MC_WARNING = re.compile(r"warning: \d+ replication failures recorded\n")


def _non_finite_cells(out):
    """CSV cells of ``out`` that read as a number that is not finite, but the
    NaNs `counterfactual` writes on a degenerate row."""
    cells = []
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                for key, text in row.items():
                    try:
                        value = float(text)
                    except ValueError:
                        continue
                    if not (np.isfinite(value) or row.get("degenerate") == "True"):
                        cells.append((path.name, key, text))
    return cells


class TestEveryConfigEndsInADocumentedExit:
    # no shrink or explain phase: each reruns the nine commands, so a red run
    # would take many minutes to report
    @settings(max_examples=50, phases=[Phase.explicit, Phase.generate],
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(spec=custom_games(), init=st.sampled_from(INIT_METHODS))
    @example(spec=TINY_CURVATURE_GAME, init="true")
    @example(spec=SINGULAR_POLICY_GAME, init="frequency")
    @example(spec=NON_FINITE_GRAM_GAME, init="frequency")
    @example(spec=OVERFLOW_RMSE_GAME, init="frequency")
    @example(spec=UNDERFLOW_RMSE_GAME, init="frequency")
    @example(spec=EXACT_RN_GAME, init="frequency")
    def test_exit_zero_with_finite_tables_or_one_json_line(self, spec, init, tmp_path, capfd):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        config = work / "spec.json"
        config.write_text(json.dumps(spec))
        for name, argv in PROPERTY_COMMANDS:
            capfd.readouterr()
            code = run_quiet(*[arg.format(work=work, init=init) for arg in argv],
                             "--config", str(config), "--out", str(work / name))
            out, err = capfd.readouterr()
            assert "On entry to" not in out, (name, out)
            if code == 0:
                assert err == "" or (argv[0] == "mc" and MC_WARNING.fullmatch(err)), (name, err)
                assert not _non_finite_cells(work / name), name
            else:
                assert code in (2, 3), (name, code)
                (line,) = err.splitlines()
                assert set(json.loads(line)) == {"error", "message"}, name


DESK_CONFIG = experiment_spec(2, scale="desk").config


@st.composite
def desk_data_files(draw):
    """The text of well-formed data files of the desk game: event
    files of 1-4 markets of 0-3 moves each (a firm's toggle or nature's
    demand level +-1) at exponential gaps times 10^u, u in [-300, 300], each
    market closed by its censor row; or panels of 1-4 markets of 1-3
    snapshots."""
    n, k_total = DESK_CONFIG.n_players, DESK_CONFIG.n_states
    level = 2 ** n  # the states of one demand level
    state = st.integers(0, k_total - 1)
    rows = []
    if draw(st.booleans()):
        for m in range(draw(st.integers(1, 4))):
            for period, k in enumerate(draw(st.lists(state, min_size=1, max_size=3))):
                rows.append(f"{m},{period},{k}\n")
        return "market_id,n,k\n" + "".join(rows)
    gap = st.floats(0.0, 1.0, exclude_min=True).map(lambda v: -math.log(v))
    for m in range(draw(st.integers(1, 4))):
        scale, k, t = 10.0 ** draw(st.floats(-300, 300)), draw(state), 0.0
        n_moves = draw(st.integers(0, 3))
        for index in range(1, n_moves + 2):
            t += scale * draw(gap)
            if index > n_moves:
                rows.append(f"{m},{index},{k},{t!r},-2,-1\n")
                break
            moves = [(i, 1, k ^ (1 << i)) for i in range(n)] + [
                (-1, j, j) for j in (k - level, k + level) if 0 <= j < k_total]
            actor, action, after = draw(st.sampled_from(moves))
            rows.append(f"{m},{index},{k},{t!r},{actor},{action}\n")
            k = after
    return EVENTS_HEADER + "".join(rows)


class TestEveryDataFileEndsInADocumentedExit:
    # no shrink or explain phase, as for the configs above
    @settings(max_examples=40, phases=[Phase.explicit, Phase.generate],
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data_file=desk_data_files(), init=st.sampled_from(INIT_METHODS))
    @example(data_file=CARRIED_HESSIAN_EVENTS_CSV, init="frequency")
    def test_estimate_exits_zero_with_finite_cells_or_one_json_line(self, data_file, init,
                                                                    tmp_path, capfd):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        (work / "data.csv").write_text(data_file)
        capfd.readouterr()
        code = run_quiet("estimate", "--experiment", "2", "--scale", "desk",
                         "--data", str(work / "data.csv"),
                         "--init", init, "--out", str(work / "out"))
        out, err = capfd.readouterr()
        if code == 0:
            assert err == "" and (work / "out" / "estimate.csv").exists()
            assert not _non_finite_cells(work / "out")
        else:
            assert code in (2, 3) and out == ""
            (line,) = err.splitlines()
            assert set(json.loads(line)) == {"error", "message"}
