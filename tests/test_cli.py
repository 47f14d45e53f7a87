import json

import numpy as np
import pytest

from ctgames.cli import main
from ctgames.experiments import (
    EXPERIMENT_SETTINGS,
    counterfactual,
    experiment_spec,
    run_monte_carlo,
)


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


def run_cli(*argv):
    return main(list(argv))


class TestCliSolve:
    def test_solve_writes_artifacts_deterministically(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = run_cli("solve", "--experiment", "2", "--scale", "desk",
                           "--seed", "3", "--out", str(out))
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
        assert (est_out / "estimate_trace.json").exists()

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


class TestCliDiagnose:
    def test_sweep_outputs_rows(self, tmp_path):
        out = tmp_path / "diag"
        code = run_cli("diagnose", "--experiment", "1", "--scale", "desk",
                       "--rn-grid", "0,1", "--out", str(out))
        assert code == 0
        lines = (out / "stability_sweep.csv").read_text().splitlines()
        assert len(lines) == 3


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

    def test_entry_cost_zero_experiment_is_degenerate(self):
        spec = experiment_spec(4, scale="desk")
        result = counterfactual(spec, fc_shift=-0.2, n_draws=2000, seed=3)
        assert result["degenerate"]


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

    def test_schema_violation_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": 12}))
        assert run_cli("solve", "--config", str(path), "--out", str(tmp_path / "o")) == 2

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
