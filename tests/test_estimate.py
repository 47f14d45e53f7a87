import numpy as np
import pytest

from ctgames import (
    GameConfig,
    InvalidArgumentError,
    NumericalError,
    Theta,
    stationary_distribution,
)
from ctgames.equilibrium import (
    aggregate_generator,
    best_response_map,
    solve_mpe,
    uniform_ccp,
)
from ctgames.estimate import (
    LinearizedPolicy,
    central_difference_gradient,
    ctnpl,
    init_ccp,
    maximize_pseudo_likelihood,
    rmse_relative,
)
from ctgames.game import flow_payoff, instant_payoff
from ctgames.likelihood import (
    SpellStats,
    continuous_loglik_from_stats,
    discrete_loglik_from_counts,
    hazard_profile,
)
from ctgames.markov import transition_matrix
from ctgames.simulate import Panel, sample_discrete, simulate_continuous

from conftest import DESK_THETA, desk_config

from test_likelihood import make_log


@pytest.fixture(scope="module")
def mini_game():
    config = GameConfig(n_players=2, market_levels=2, lam=1.0, rho=0.05,
                        q_up=0.3, q_down=0.3)
    theta = Theta(fc=(-1.2, -0.9), rs=1.0, rn=1.0, ec=1.0)
    mpe = solve_mpe(theta, config, tol=1e-13)
    return config, theta, mpe.ccp


@pytest.fixture(scope="module")
def desk_game():
    config = desk_config()
    mpe = solve_mpe(DESK_THETA, config, tol=1e-13)
    return config, DESK_THETA, mpe.ccp


class TestLinearizedPolicy:
    def test_reproduces_best_response_map(self, desk_game, rng):
        # The linearization is exact: for any theta it must equal the
        # best-response map computed through the full value solve.
        config, theta, ccp_star = desk_game
        probs = rng.uniform(0.1, 0.9, size=(config.n_players, config.n_states))
        ccp_prev = np.stack([1 - probs, probs], axis=1)
        policy = LinearizedPolicy(ccp_prev, config)
        for _ in range(5):
            vec = rng.normal(scale=1.5, size=config.n_players + 3)
            direct = best_response_map(Theta.from_vector(vec, config.n_players),
                                       ccp_prev, config)
            assert np.abs(policy.ccp(vec) - direct).max() < 1e-10

    def test_flow_design_rows_reproduce_payoffs(self, desk_game):
        # the vector payoffs are the designs applied to theta; the scalar
        # forms are the independent oracle
        from ctgames.estimate import entry_design, flow_design_rows

        config, theta, _ = desk_game
        flow = flow_design_rows(config) @ theta.as_vector()
        entry = theta.ec * entry_design(config)
        for i in range(config.n_players):
            for k in range(config.n_states):
                assert flow[i, k] == pytest.approx(flow_payoff(theta, i, k, config),
                                                   abs=1e-14)
                for j in range(config.n_choices):
                    assert entry[i, j, k] == instant_payoff(theta, i, j, k, config)


class TestScoreAtTruth:
    def test_continuous_expected_score_vanishes(self, desk_game):
        # At expectation-level data (exposures and move counts replaced by
        # their stationary means) the score at the true parameters is zero.
        config, theta, ccp_star = desk_game
        pi = stationary_distribution(aggregate_generator(ccp_star, config))
        from ctgames.game import nature_generator

        q0 = nature_generator(config)
        np.fill_diagonal(q0, 0.0)
        stats = SpellStats(exposure=pi,
                           moves=pi[None, :] * config.lam * ccp_star[:, 1, :],
                           nature_moves=pi[:, None] * q0,
                           n_markets=1)
        policy = LinearizedPolicy(ccp_star, config)

        def loglik(vec):
            hz = hazard_profile(policy.ccp(vec), config)
            return sum(continuous_loglik_from_stats(stats, hz, 1))

        grad = central_difference_gradient(loglik, theta.as_vector())
        assert np.abs(grad).max() < 1e-6

    def test_discrete_expected_score_vanishes(self, desk_game):
        config, theta, ccp_star = desk_game
        q = aggregate_generator(ccp_star, config)
        pi = stationary_distribution(q)
        counts = pi[:, None] * transition_matrix(q, config.delta)
        policy = LinearizedPolicy(ccp_star, config)

        def loglik(vec):
            return discrete_loglik_from_counts(counts, 1, policy.ccp(vec), config)

        grad = central_difference_gradient(loglik, theta.as_vector())
        assert np.abs(grad).max() < 1e-6


class TestInitCcp:
    def test_true_returns_exact(self, mini_game):
        config, theta, ccp_star = mini_game
        out = init_ccp("true", None, config, ccp_star=ccp_star)
        assert np.array_equal(out, ccp_star)

    def test_random_reproducible_interior(self, mini_game):
        config, _, _ = mini_game
        a = init_ccp("random", None, config, seed=5)
        b = init_ccp("random", None, config, seed=5)
        assert np.array_equal(a, b)
        assert a.min() > 0 and a.max() < 1
        assert np.allclose(a.sum(axis=1), 1.0)

    def test_frequency_hazard_identity(self, mini_game):
        # Three moves by firm 0 from state 0 over six time units at lam=1
        # gives sigma-hat = 3 / 6 = 0.5.
        config, _, _ = mini_game
        log = make_log(markets=[0], horizon=[6.0], final_state=[1],
                       events=[(0, 1, 0, 1.0, 0, 1), (0, 2, 1, 2.5, 0, 1),
                               (0, 3, 0, 4.5, 0, 1)])
        # spells: [0,1) in state 0, [1,2.5) in 1, [2.5,4.5) in 0, [4.5,6] in
        # 1 -> 3 time units in each state; firm 0 moves twice from state 0
        # and once from state 1.
        out = init_ccp("frequency", log, config)
        assert out[0, 1, 0] == pytest.approx(2 / 3.0)
        assert out[0, 1, 1] == pytest.approx(1 / 3.0)
        stats = SpellStats.from_events(log, config)
        assert stats.moves.sum() / (config.lam * stats.exposure.sum()) == pytest.approx(0.5)

    def test_frequency_panel_add_one_smoothing(self, mini_game):
        from ctgames.simulate import Panel

        config, _, _ = mini_game
        # market 0: state 0 -> 1 (firm 0 toggles); market 1: state 0 -> 0.
        panel = Panel(market_id=np.array([0, 0, 1, 1]),
                      period=np.array([0, 1, 0, 1]),
                      state=np.array([0, 1, 0, 0]))
        out = init_ccp("frequency", panel, config)
        assert out[0, 1, 0] == pytest.approx((1 + 1) / (2 + 2))
        assert out[1, 1, 0] == pytest.approx((0 + 1) / (2 + 2))
        # unvisited pre-states fall back to the smoothing prior 1/2
        assert out[0, 1, 3] == pytest.approx(0.5)

    def test_logit_recovers_structure_from_large_panel(self, mini_game):
        config, theta, ccp_star = mini_game
        panel = sample_discrete(theta, ccp_star, config, 40000, periods=1, seed=31)
        out = init_ccp("logit", panel, config)
        assert out.min() > 0 and out.max() < 1
        # toggle probabilities over one period differ from instantaneous
        # ccps, so only ask for loose agreement
        assert np.abs(out[:, 1, :] - ccp_star[:, 1, :]).max() < 0.3

    def test_logit_from_events_close_to_truth(self, mini_game):
        config, theta, ccp_star = mini_game
        log = simulate_continuous(theta, ccp_star, config, 4000, seed=33,
                                  events_per_market=5)
        out = init_ccp("logit", log, config)
        assert np.abs(out[:, 1, :] - ccp_star[:, 1, :]).max() < 0.08

    def test_requires_data_for_sample_methods(self, mini_game):
        config, _, _ = mini_game
        with pytest.raises(InvalidArgumentError):
            init_ccp("frequency", None, config)
        with pytest.raises(InvalidArgumentError):
            init_ccp("logit", None, config)
        with pytest.raises(InvalidArgumentError):
            init_ccp("true", None, config)


class TestFastPathMatchesReference:
    def test_discrete_objective_equals_public_likelihood(self, mini_game, rng):
        from ctgames.estimate import _PseudoLikelihood
        from ctgames.likelihood import loglik_discrete

        config, theta, ccp_star = mini_game
        panel = sample_discrete(theta, ccp_star, config, 100, periods=1, seed=61)
        probs = rng.uniform(0.2, 0.8, size=(config.n_players, config.n_states))
        ccp_prev = np.stack([1 - probs, probs], axis=1)
        pseudo = _PseudoLikelihood(panel, ccp_prev, config)
        for _ in range(3):
            vec = rng.normal(scale=1.2, size=config.n_players + 3)
            reference = loglik_discrete(Theta.from_vector(vec, config.n_players),
                                        ccp_prev, panel, config)
            assert pseudo.value(vec) == pytest.approx(reference, abs=1e-10)

    def test_continuous_objective_equals_public_likelihood(self, mini_game, rng):
        from ctgames.estimate import _PseudoLikelihood
        from ctgames.likelihood import loglik_continuous

        config, theta, ccp_star = mini_game
        log = simulate_continuous(theta, ccp_star, config, 80, seed=63,
                                  events_per_market=2)
        probs = rng.uniform(0.2, 0.8, size=(config.n_players, config.n_states))
        ccp_prev = np.stack([1 - probs, probs], axis=1)
        pseudo = _PseudoLikelihood(log, ccp_prev, config)
        for _ in range(3):
            vec = rng.normal(scale=1.2, size=config.n_players + 3)
            # the public form evaluates at given probabilities; feed it the
            # best response the optimizer's objective uses internally
            br = pseudo.policy.ccp(vec)
            reference = loglik_continuous(br, log, config)
            assert pseudo.value(vec) == pytest.approx(reference, abs=1e-10)


class TestMaximizePseudoLikelihood:
    def test_recovers_truth_from_true_ccps_continuous(self, mini_game):
        config, theta, ccp_star = mini_game
        log = simulate_continuous(theta, ccp_star, config, 4000, seed=41,
                                  events_per_market=1)
        theta_hat = maximize_pseudo_likelihood(ccp_star, log, config)
        assert np.abs(theta_hat.as_vector() - theta.as_vector()).max() < 0.35

    def test_start_insensitive(self, mini_game):
        config, theta, ccp_star = mini_game
        log = simulate_continuous(theta, ccp_star, config, 500, seed=43,
                                  events_per_market=1)
        a = maximize_pseudo_likelihood(ccp_star, log, config)
        b = maximize_pseudo_likelihood(ccp_star, log, config, theta_init=theta)
        assert np.abs(a.as_vector() - b.as_vector()).max() < 1e-4

    def test_gradient_zero_at_truth_on_expected_data(self, desk_game):
        # With expectation-level discrete data and sigma_prev = sigma*, the
        # maximizer started at the truth should barely move.
        config, theta, ccp_star = desk_game
        q = aggregate_generator(ccp_star, config)
        pi = stationary_distribution(q)
        counts = pi[:, None] * transition_matrix(q, config.delta)

        from ctgames.estimate import _PseudoLikelihood

        pseudo = _PseudoLikelihood.__new__(_PseudoLikelihood)
        pseudo.config = config
        pseudo.policy = LinearizedPolicy(ccp_star, config)
        pseudo.kind = "discrete"
        pseudo._counts = counts
        pseudo._n_markets = 1
        grad = central_difference_gradient(pseudo.value, theta.as_vector())
        assert np.abs(grad).max() < 1e-6


class TestCtnpl:
    def test_single_stage_is_two_step(self, mini_game):
        config, theta, ccp_star = mini_game
        panel = sample_discrete(theta, ccp_star, config, 400, periods=1, seed=51)
        result = ctnpl(panel, config, ccp_star, max_stages=1)
        direct = maximize_pseudo_likelihood(ccp_star, panel, config)
        assert result.iterations == 1
        assert np.allclose(result.theta_hat.as_vector(), direct.as_vector(), atol=1e-10)

    def test_single_agent_converges_from_random_start(self):
        config = GameConfig(n_players=1, market_levels=3, lam=1.0, rho=0.05,
                            q_up=0.2, q_down=0.2)
        theta = Theta(fc=(-1.5,), rs=1.0, rn=0.0, ec=1.0)
        mpe = solve_mpe(theta, config, tol=1e-13)
        panel = sample_discrete(theta, mpe.ccp, config, 2000, periods=1, seed=53)
        start = init_ccp("random", None, config, seed=99)
        result = ctnpl(panel, config, start, max_stages=50, tol=1e-6)
        assert result.converged
        # returned pair satisfies the fixed-point condition
        gap = np.abs(best_response_map(result.theta_hat, result.ccp_hat, config)
                     - result.ccp_hat).max()
        assert gap < 10 * 1e-6

    def test_multi_start_agreement(self, mini_game):
        config, theta, ccp_star = mini_game
        panel = sample_discrete(theta, ccp_star, config, 500, periods=1, seed=55)
        fits = {}
        for method, seed in (("frequency", None), ("logit", None), ("random", 7)):
            start = init_ccp(method, panel, config, seed=seed)
            fits[method] = ctnpl(panel, config, start, max_stages=100, tol=1e-7)
        pairs = [("frequency", "logit"), ("frequency", "random"), ("logit", "random")]
        for a, b in pairs:
            assert fits[a].converged and fits[b].converged
            assert np.abs(fits[a].ccp_hat - fits[b].ccp_hat).max() < 1e-4
            assert fits[a].loglik == pytest.approx(fits[b].loglik, abs=1e-6)

    def test_nonconvergent_run_returns_best_candidate(self, mini_game):
        config, theta, ccp_star = mini_game
        panel = sample_discrete(theta, ccp_star, config, 300, periods=1, seed=59)
        start = init_ccp("random", None, config, seed=123)
        result = ctnpl(panel, config, start, max_stages=2, tol=1e-12)
        assert not result.converged
        assert result.loglik == max(entry["loglik"] for entry in result.trace)
        assert len(result.trace) == 2

    def test_trace_records_deltas(self, mini_game):
        config, theta, ccp_star = mini_game
        panel = sample_discrete(theta, ccp_star, config, 200, periods=1, seed=57)
        result = ctnpl(panel, config, uniform_ccp(config), max_stages=30)
        assert result.trace[0]["theta_delta"] == np.inf
        assert all(t["sigma_delta"] >= 0 for t in result.trace)
        if result.converged:
            last = result.trace[-1]
            assert last["sigma_delta"] < 1e-6 and last["theta_delta"] < 1e-6


    @pytest.mark.filterwarnings("ignore:loadtxt:UserWarning")
    def test_data_without_transitions_rejected(self, mini_game, tmp_path):
        # a header-only panel, a panel without consecutive snapshots and an
        # event log without markets carry no likelihood information
        config, _, ccp_star = mini_game
        path = tmp_path / "panel.csv"
        path.write_text("market_id,period,state\n")
        unpaired = Panel(market_id=np.array([0, 1]), period=np.array([0, 0]),
                         state=np.array([0, 3]))
        no_markets = make_log(markets=[], horizon=[], final_state=[])
        for data in (Panel.from_csv(path), unpaired, no_markets):
            with pytest.raises(InvalidArgumentError):
                ctnpl(data, config, ccp_star)

    def test_non_finite_stage_loglik_raises(self, mini_game, monkeypatch):
        from ctgames import estimate as estimate_mod

        config, theta, ccp_star = mini_game
        panel = sample_discrete(theta, ccp_star, config, 50, periods=1, seed=61)
        original = estimate_mod._maximize

        def nan_loglik(*args, **kwargs):
            vec, _, policy = original(*args, **kwargs)
            return vec, np.nan, policy

        monkeypatch.setattr(estimate_mod, "_maximize", nan_loglik)
        with pytest.raises(NumericalError):
            ctnpl(panel, config, ccp_star)


class TestRmseRelative:
    def test_baseline_against_itself_is_one(self, rng):
        theta = Theta(fc=(-1.9, -1.8), rs=1.0, rn=1.0, ec=1.0)
        draws = theta.as_vector() + rng.normal(scale=0.1, size=(20, 5))
        out = rmse_relative({"base": draws}, "base", theta)
        assert np.allclose(out["base"], 1.0)

    def test_perfect_estimator_ratio_zero(self, rng):
        theta = Theta(fc=(-1.9, -1.8), rs=1.0, rn=1.0, ec=1.0)
        noisy = theta.as_vector() + rng.normal(scale=0.1, size=(20, 5))
        exact = np.tile(theta.as_vector(), (20, 1))
        out = rmse_relative({"base": noisy, "oracle": exact}, "base", theta)
        assert np.allclose(out["oracle"], 0.0)

    def test_missing_baseline_rejected(self, rng):
        theta = Theta(fc=(-1.9,), rs=1.0, rn=0.0, ec=1.0)
        with pytest.raises(InvalidArgumentError):
            rmse_relative({"a": np.zeros((3, 4))}, "missing", theta)
