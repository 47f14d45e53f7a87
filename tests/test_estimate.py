from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from ctgames import (
    GameConfig,
    InvalidArgumentError,
    NumericalError,
    OptimizationError,
    Theta,
    estimate,
    stationary_distribution,
)
from ctgames.equilibrium import (
    LinearizedPolicy,
    add_action_rates,
    aggregate_generator,
    best_response_map,
    solve_mpe,
    uniform_ccp,
)
from ctgames.estimate import (
    EstimationResult,
    _fit_logistic,
    _initializer_features,
    central_difference_gradient,
    ctnpl,
    init_ccp,
    rmse_relative,
)
from ctgames.game import entry_design, flow_design_rows, state_tables
from ctgames.likelihood import (
    LOG_FLOOR,
    SpellStats,
    TransitionCounts,
    discrete_loglik_from_counts,
    sufficient_statistics,
)
from ctgames.markov import (
    transition_matrix,
    transition_matrix_frechet,
    transition_matrix_pullback,
)
from ctgames.simulate import (
    CENSOR,
    EventLog,
    Panel,
    consecutive_pairs,
    sample_discrete,
    simulate_continuous,
)

from conftest import DESK_THETA, desk_config
from oracles import (
    event_information_by_differences,
    flow_payoff,
    identity_start_ctnpl,
    information_by_differences,
    instant_payoff,
)

from test_likelihood import make_log


# A desk-game panel of three two-snapshot markets in which nothing toggles.
STILL_PANEL_CSV = "market_id,n,k\n0,0,3\n0,1,3\n1,0,5\n1,1,5\n2,0,0\n2,1,0\n"
# A desk-game event file of one market on which a later CTNPL stage's carried
# inverse Hessian fails BFGS's test of its start: stage 7 from the frequency
# start, stage 2 from the logit start.
CARRIED_HESSIAN_EVENTS_CSV = ("market_id,n,k,t,actor,action\n"
                              "0,1,21,67.17631389207203,1,1\n"
                              "0,2,6,54466.75409090725,2,1\n"
                              "0,3,10,54517.433684893265,2,1\n"
                              "0,4,21,55145.317406272065,-2,-1\n")


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


@pytest.fixture(scope="module")
def desk_data(desk_game):
    config, theta, ccp_star = desk_game
    return {"discrete": sample_discrete(theta, ccp_star, config, 300, periods=1, seed=71),
            "continuous": simulate_continuous(theta, ccp_star, config, 100, seed=73,
                                              events_per_market=5)}


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
                           n_markets=1, config=config)
        policy = LinearizedPolicy(ccp_star, config)

        def loglik(vec):
            return stats.loglik(policy.ccp(vec))

        grad = central_difference_gradient(loglik, theta.as_vector())
        assert np.abs(grad).max() < 1e-6
        ccp = policy.ccp(theta.as_vector())
        exact = policy.chain(ccp, stats.value_and_gradient(ccp)[1])
        assert np.abs(exact).max() < 1e-6

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
        ccp = policy.ccp(theta.as_vector())
        stats = TransitionCounts(counts=counts, n_markets=1, config=config)
        exact = policy.chain(ccp, stats.value_and_gradient(ccp)[1])
        assert np.abs(exact).max() < 1e-6


class TestCentralDifferences:
    def test_jacobian_of_quadratic_map(self, rng):
        # central differences of a quadratic are exact up to rounding
        linear, square = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        x = 3 * rng.normal(size=3)
        jac = central_difference_gradient(lambda v: linear @ v + 0.5 * (square @ v) ** 2, x)
        assert jac.shape == (4, 3)
        np.testing.assert_allclose(jac, linear + (square @ x)[:, None] * square,
                                   rtol=1e-7, atol=1e-7)

    def test_scalar_gradient_is_one_difference_per_coordinate(self, rng):
        # bit for bit the quotient (f(x + h e_q) - f(x - h e_q)) / 2h, with
        # h = rel_step * max(1, |x_q|)
        x = 3 * rng.normal(size=5)

        def fun(v):
            return float(np.sin(v).sum() + v @ v)

        steps = 1e-6 * np.maximum(1.0, np.abs(x))
        expected = [(fun(x + h * e) - fun(x - h * e)) / (2 * h) for h, e in zip(steps, np.eye(5))]
        grad = central_difference_gradient(fun, x)
        assert grad.shape == (5,) and grad.dtype == np.float64
        assert np.array_equal(grad, expected)


class TestExactGradient:
    @given(kind=st.sampled_from(["discrete", "continuous"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_matches_central_difference_oracle(self, desk_game, desk_data, kind, seed):
        config, theta, _ = desk_game
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.05, 0.95, size=(config.n_players, config.n_states))
        stats = sufficient_statistics(desk_data[kind], config)
        policy = LinearizedPolicy(np.stack([1 - probs, probs], axis=1), config)

        def loglik(vec):
            return stats.loglik(policy.ccp(vec))

        vec = theta.as_vector() + rng.uniform(-0.5, 0.5, size=config.n_players + 3)
        ccp = policy.ccp(vec)
        value, action_grad, _ = stats.value_and_gradient(ccp)
        exact = policy.chain(ccp, action_grad)
        assert value == loglik(vec)
        oracle = central_difference_gradient(loglik, vec)
        scale = max(np.abs(oracle).max(), 1e-3)
        assert np.abs(exact - oracle).max() <= 1e-6 * scale


class TestInformation:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10)
    def test_matches_central_difference_scores(self, desk_game, desk_data, seed):
        config, theta, _ = desk_game
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.05, 0.95, size=(config.n_players, config.n_states))
        stats = sufficient_statistics(desk_data["discrete"], config)
        policy = LinearizedPolicy(np.stack([1 - probs, probs], axis=1), config)
        vec = theta.as_vector() + rng.uniform(-0.5, 0.5, size=config.n_players + 3)
        ccp = policy.ccp(vec)
        exact = stats.information(ccp, policy.theta_jacobian(ccp))
        oracle = information_by_differences(stats, policy, vec)
        assert np.array_equal(exact, exact.T)
        assert np.abs(exact - oracle).max() <= 1e-6 * np.abs(oracle).max()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10)
    def test_event_information_is_hessian_at_expected_moves(self, desk_game, desk_data,
                                                            seed):
        config, theta, _ = desk_game
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.05, 0.95, size=(config.n_players, config.n_states))
        stats = sufficient_statistics(desk_data["continuous"], config)
        policy = LinearizedPolicy(np.stack([1 - probs, probs], axis=1), config)
        vec = theta.as_vector() + rng.uniform(-0.5, 0.5, size=config.n_players + 3)
        ccp = policy.ccp(vec)
        exact = stats.information(ccp, policy.theta_jacobian(ccp))
        oracle = event_information_by_differences(stats, policy, vec)
        assert np.array_equal(exact, exact.T)
        assert np.abs(exact - oracle).max() <= 1e-6 * np.abs(oracle).max()

    def test_clamped_transition_left_out(self, desk_game):
        # over delta = 1e-60 a transition of five jumps has probability below
        # LOG_FLOOR; one observation of it changes nothing
        _, theta, ccp_star = desk_game
        config = desk_config(delta=1e-60)
        policy = LinearizedPolicy(ccp_star, config)
        ccp = policy.ccp(theta.as_vector())
        p = transition_matrix(aggregate_generator(ccp, config), config.delta)
        counts = np.where(p > 1e-100, 3.0, 0.0)  # no jump or one jump
        with_clamped = counts.copy()
        with_clamped[0, config.n_states - 1] = 1.0
        assert p[0, config.n_states - 1] < LOG_FLOOR
        stats, clamped = (TransitionCounts(c, 10, config) for c in (counts, with_clamped))
        exact = clamped.information(ccp, policy.theta_jacobian(ccp))
        assert np.array_equal(exact, stats.information(ccp, policy.theta_jacobian(ccp)))
        oracle = information_by_differences(clamped, policy, theta.as_vector())
        assert np.abs(exact - oracle).max() <= 1e-6 * np.abs(oracle).max()

    @pytest.mark.parametrize("delta", [1.0, 40.0])
    def test_one_set_up_serves_every_direction(self, desk_game, rng, delta):
        # information's parameter directions, the first again, then the adjoint,
        # all on one set-up, each byte for byte as on a fresh set-up; neither p
        # nor a direction moves (delta = 40 takes squarings, 1 none)
        config, theta, ccp_star = desk_game
        policy = LinearizedPolicy(ccp_star, config)
        ccp = policy.ccp(theta.as_vector())
        q = aggregate_generator(ccp, config)
        rates = config.lam * policy.theta_jacobian(ccp)
        directions = [add_action_rates(np.zeros_like(q), rates[:, :, j], config)
                      for j in range(rates.shape[2])]
        directions.append(directions[0])
        kept = [d.tobytes() for d in directions]
        g = rng.normal(size=q.shape)
        p, forward = transition_matrix_frechet(q, delta)
        p_bytes = p.tobytes()
        moved = [forward(d).tobytes() for d in directions]
        pulled = forward(g.T).T.tobytes()
        assert p.tobytes() == p_bytes
        assert [d.tobytes() for d in directions] == kept
        assert moved == [transition_matrix_frechet(q, delta)[1](d).tobytes() for d in directions]
        assert pulled == transition_matrix_pullback(q, delta)[1](g).tobytes()


def small_game(n_players, levels, seed):
    """A random game with moderate payoffs and nature rates, at its equilibrium."""
    rng = np.random.default_rng(seed)
    config = GameConfig(n_players=n_players, market_levels=levels, lam=1.0, rho=0.05,
                        q_up=float(rng.uniform(0.1, 0.4)), q_down=float(rng.uniform(0.1, 0.4)))
    theta = Theta(fc=tuple(rng.uniform(-2.0, -0.5, size=n_players)),
                  rs=float(rng.uniform(0.5, 1.5)), rn=float(rng.uniform(0.0, 1.5)),
                  ec=float(rng.uniform(0.5, 1.5)))
    return config, theta, solve_mpe(theta, config, tol=1e-13).ccp


class TestInversionStart:
    @given(n_players=st.integers(2, 3), levels=st.integers(2, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_recovers_theta_at_its_equilibrium(self, n_players, levels, seed):
        config, theta, ccp_star = small_game(n_players, levels, seed)
        start = estimate._inversion_start(LinearizedPolicy(ccp_star, config))
        assert np.abs(start - theta.as_vector()).max() < 1e-8


class TestInformationStart:
    @given(n_players=st.integers(1, 2), levels=st.integers(1, 3),
           kind=st.sampled_from(["discrete", "continuous"]),
           method=st.sampled_from(["frequency", "random"]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_lands_where_identity_start_lands(self, n_players, levels, kind, method, seed):
        # the oracle starts at all ones, ctnpl at the CCP inversion
        config, theta, ccp_star = small_game(n_players, levels, seed)
        if kind == "discrete":
            data = sample_discrete(theta, ccp_star, config, 500, periods=1, seed=seed)
        else:
            data = simulate_continuous(theta, ccp_star, config, 100, seed=seed,
                                       events_per_market=10)
        stats = sufficient_statistics(data, config)
        start = init_ccp(method, stats, config, seed=seed)
        # At the default tolerance both runs stop anywhere the gradient is
        # below 1e-6, which on these games lies up to 2.2e-4 apart in theta;
        # at 1e-9 the fixed point, not the stopping rule, sets theta_hat.
        for gtol, theta_tol in ((estimate.BFGS_GTOL, np.inf), (1e-9, 1e-4)):
            with mock.patch.object(estimate, "BFGS_GTOL", gtol):
                vec, converged, _ = identity_start_ctnpl(stats, config, start, 30, 1e-6)
                if not converged:
                    continue
                result = ctnpl(stats, config, start, max_stages=30, tol=1e-6)
            assert result.converged
            assert np.abs(result.theta_hat.as_vector() - vec).max() < theta_tol

    def test_snapshot_two_step_needs_fewer_evaluations(self, desk_game, desk_data):
        config, _, ccp_star = desk_game
        stats = sufficient_statistics(desk_data["discrete"], config)
        result = ctnpl(stats, config, ccp_star, max_stages=1)
        oracle_nfev = identity_start_ctnpl(stats, config, ccp_star, 1, 1e-6)[2]
        assert result.trace[0]["nfev"] < oracle_nfev[0]

    def test_event_data_start_from_information_then_carry_over(self, desk_game, desk_data):
        config = desk_game[0]
        stats = sufficient_statistics(desk_data["continuous"], config)
        start = init_ccp("frequency", stats, config)
        calls = []
        maximize = estimate._maximize

        def recorded(stats, policy, x0, hess_inv0):
            out = maximize(stats, policy, x0, hess_inv0)
            calls.append((hess_inv0, out[2]))
            return out

        with mock.patch.object(estimate, "_maximize", recorded):
            result = ctnpl(stats, config, start, max_stages=30, tol=1e-6)
        # `init_ccp` output is already inside ctnpl's clip
        theta_start = estimate._inversion_start(LinearizedPolicy(start, config))
        _, converged, oracle_nfev = identity_start_ctnpl(stats, config, start, 30, 1e-6,
                                                         theta_start=theta_start)
        assert result.converged and converged and len(calls) == result.iterations > 1
        assert result.trace[0]["nfev"] < oracle_nfev[0]
        # each later stage starts from the inverse Hessian the one before ended with
        for (_, ended), (started, _) in zip(calls, calls[1:]):
            assert started is ended

    def test_unidentified_direction_keeps_unit_curvature(self):
        # one firm has no rivals, so neither the choice values nor the data
        # depend on rn: the CCP inversion keeps rn at 1, the start has unit
        # curvature there, and rn stays where it started
        config = GameConfig(n_players=1, market_levels=3, lam=1.0, rho=0.05,
                            q_up=0.2, q_down=0.2)
        theta = Theta(fc=(-1.5,), rs=1.0, rn=0.0, ec=1.0)
        ccp_star = solve_mpe(theta, config, tol=1e-13).ccp
        policy = LinearizedPolicy(ccp_star, config)
        rn = 2
        start = estimate._inversion_start(policy)
        assert start[rn] == 1.0
        assert np.abs(np.delete(start - theta.as_vector(), rn)).max() < 1e-8
        for data in (sample_discrete(theta, ccp_star, config, 500, periods=1, seed=57),
                     simulate_continuous(theta, ccp_star, config, 100, seed=57,
                                         events_per_market=5)):
            stats = sufficient_statistics(data, config)
            hess_inv = estimate._start_inverse_hessian(stats, policy, start)
            assert np.array_equal(hess_inv, hess_inv.T)
            assert hess_inv[rn, rn] == 1.0
            assert not np.delete(hess_inv[rn], rn).any()
            assert np.all(np.linalg.eigvalsh(hess_inv) > 0)
            result = ctnpl(stats, config, ccp_star, max_stages=1)
            assert result.theta_hat.rn == 1.0

    def test_parameter_with_zero_information_keeps_its_start_exactly(self):
        # one firm and no nature moves: the information's rn row is exactly
        # zero, and every fit of a Monte Carlo run, random starts included,
        # must return rn = 1 to the bit
        from ctgames.experiments import ExperimentSpec, run_monte_carlo

        config = GameConfig(n_players=1, market_levels=1, lam=1.0, rho=1.0,
                            q_up=0.0, q_down=0.0, delta=1.0)
        spec = ExperimentSpec(name="one-firm", config=config, sampling="continuous",
                              theta_true=Theta(fc=(-1.0,), rs=-1.0, rn=1.0, ec=-1.0),
                              n_markets=30, replications=2)
        mc = run_monte_carlo(spec)
        assert not mc.failures
        for name, estimates in mc.estimates.items():
            assert np.all(estimates[:, 2] == 1.0), name


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
        log = make_log([(0, 1, 0, 1.0, 0, 1), (0, 2, 1, 2.5, 0, 1),
                        (0, 3, 0, 4.5, 0, 1), (0, 4, 1, 6.0, CENSOR, -1)])
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

    def test_logit_on_panel_without_toggles_raises(self, tmp_path):
        # three two-snapshot markets in which no firm moves: every toggle
        # count is zero, so the logit has no maximum likelihood estimate
        path = tmp_path / "still.csv"
        path.write_text(STILL_PANEL_CSV)
        with pytest.raises(NumericalError, match="logit start did not converge"):
            init_ccp("logit", Panel.from_csv(path), desk_config())

    def test_logit_from_events_gradient_is_exact(self, mini_game):
        config, theta, ccp_star = mini_game
        stats = SpellStats.from_events(
            simulate_continuous(theta, ccp_star, config, 200, seed=35, events_per_market=5),
            config)
        feats = _initializer_features(config)
        args = (feats, stats.moves, config.lam * stats.exposure[None, :])
        beta = np.random.default_rng(3).normal(scale=0.5, size=feats.shape[2])
        clipped = beta.copy()
        clipped[0] = -30.0  # firm 0's entry probability falls below the 1e-12 clip
        for point in (beta, clipped):
            grad = estimate._hazard_logit_objective(point, *args)[1]
            oracle = central_difference_gradient(
                lambda b: estimate._hazard_logit_objective(b, *args)[0], point)
            assert np.abs(grad - oracle).max() <= 1e-6 * max(1.0, np.abs(oracle).max())

    def test_requires_data_for_sample_methods(self, mini_game):
        config, _, _ = mini_game
        with pytest.raises(InvalidArgumentError):
            init_ccp("frequency", None, config)
        with pytest.raises(InvalidArgumentError):
            init_ccp("logit", None, config)
        with pytest.raises(InvalidArgumentError):
            init_ccp("true", None, config)


# Per-observation oracles of the panel starts, which read the count matrix:
# one indicator (and one logistic row) per snapshot pair and firm.
def toggle_observations_oracle(panel, config):
    pre, post = consecutive_pairs(panel, config.n_states)
    activity = state_tables(config).activity
    return pre, activity[pre] != activity[post]  # (n_pairs, N)


def frequency_from_panel_oracle(panel, config):
    pre, toggled = toggle_observations_oracle(panel, config)
    counts = np.zeros((config.n_players, config.n_states))
    visits = np.zeros(config.n_states)
    np.add.at(visits, pre, 1.0)
    for i in range(config.n_players):
        np.add.at(counts[i], pre, toggled[:, i].astype(float))
    return np.clip((counts + 1.0) / (visits[None, :] + 2.0), 1e-6, 1 - 1e-6)


def logit_from_panel_oracle(panel, config):
    pre, toggled = toggle_observations_oracle(panel, config)
    feats = _initializer_features(config)
    rows = np.concatenate([feats[i, pre] for i in range(config.n_players)])
    y = np.concatenate([toggled[:, i].astype(float) for i in range(config.n_players)])
    beta = _fit_logistic(rows, y, np.ones(len(y)))
    return np.clip(1.0 / (1.0 + np.exp(-(feats @ beta))), 1e-6, 1 - 1e-6)


PANEL_CONFIG = desk_config()


def spanning_states(config):
    """States whose (firm, state) feature rows span the logit design."""
    feats = _initializer_features(config)
    chosen, rank = [], 0
    for k in range(config.n_states):
        grown = np.linalg.matrix_rank(feats[:, chosen + [k]].reshape(-1, feats.shape[2]))
        if grown > rank:
            chosen, rank = chosen + [k], grown
    return chosen


@st.composite
def panels(draw):
    """Panels of 1-6 drawn markets with 1-6 snapshots each, gaps between
    periods allowed and states drawn from the whole space.

    For every pre-state that is visited or in `spanning_states`, and every
    firm, two-snapshot markets are appended: one where nothing changes and
    one where only that firm toggles.  Each visited (firm, pre-state) cell
    then holds both outcomes and the visited cells span the design, so the
    logit maximum likelihood exists and is unique, also in the pre-states
    that stay unvisited.
    """
    config = PANEL_CONFIG
    market_id, period, state = [], [], []
    for m in range(draw(st.integers(1, 6))):
        periods = sorted(draw(st.sets(st.integers(0, 8), min_size=1, max_size=6)))
        market_id += [m] * len(periods)
        period += periods
        state += draw(st.lists(st.integers(0, config.n_states - 1),
                               min_size=len(periods), max_size=len(periods)))
    drawn = Panel(market_id=np.array(market_id), period=np.array(period),
                  state=np.array(state))
    visited = np.union1d(consecutive_pairs(drawn, config.n_states)[0], spanning_states(config))
    toggle = state_tables(config).toggle
    for k in visited:
        for post in (k, *toggle[:, k]):
            market_id += [market_id[-1] + 1] * 2
            period += [0, 1]
            state += [k, post]
    return Panel(market_id=np.array(market_id), period=np.array(period),
                 state=np.array(state))


class TestPanelStartsFromCounts:
    @given(panel=panels())
    @settings(max_examples=60)
    def test_match_per_observation_oracles(self, panel):
        config = PANEL_CONFIG
        freq = init_ccp("frequency", panel, config)
        assert np.array_equal(freq[:, 1, :], frequency_from_panel_oracle(panel, config))
        assert np.array_equal(freq[:, 0, :], 1 - freq[:, 1, :])
        logit = init_ccp("logit", panel, config)
        assert np.abs(logit[:, 1, :] - logit_from_panel_oracle(panel, config)).max() <= 1e-10


class TestStatisticInPlaceOfData:
    @pytest.mark.parametrize("kind", ["discrete", "continuous"])
    def test_init_and_ctnpl_equal_raw_data(self, desk_game, desk_data, kind):
        config, _, _ = desk_game
        data = desk_data[kind]
        stats = sufficient_statistics(data, config)
        assert sufficient_statistics(stats, config) is stats
        for method in ("frequency", "logit"):
            start = init_ccp(method, data, config)
            assert np.array_equal(init_ccp(method, stats, config), start)
        raw = ctnpl(data, config, start, max_stages=3)
        reduced = ctnpl(stats, config, start, max_stages=3)
        assert np.array_equal(reduced.theta_hat.as_vector(), raw.theta_hat.as_vector())
        assert np.array_equal(reduced.ccp_hat, raw.ccp_hat)
        assert reduced.loglik == raw.loglik and reduced.trace == raw.trace

    def test_statistic_of_another_game_rejected(self, desk_game, desk_data):
        config, _, _ = desk_game
        stats = sufficient_statistics(desk_data["discrete"], config)
        other = desk_config(delta=0.5)
        with pytest.raises(InvalidArgumentError, match="another game"):
            ctnpl(stats, other, uniform_ccp(other))
        with pytest.raises(InvalidArgumentError, match="unsupported data"):
            init_ccp("frequency", stats.counts, config)


class TestFastPathMatchesReference:
    def test_discrete_objective_equals_public_likelihood(self, mini_game, rng):
        from ctgames.likelihood import loglik_discrete

        config, theta, ccp_star = mini_game
        panel = sample_discrete(theta, ccp_star, config, 100, periods=1, seed=61)
        probs = rng.uniform(0.2, 0.8, size=(config.n_players, config.n_states))
        ccp_prev = np.stack([1 - probs, probs], axis=1)
        stats = sufficient_statistics(panel, config)
        policy = LinearizedPolicy(ccp_prev, config)
        for _ in range(3):
            vec = rng.normal(scale=1.2, size=config.n_players + 3)
            reference = loglik_discrete(Theta.from_vector(vec, config.n_players),
                                        ccp_prev, panel, config)
            assert stats.loglik(policy.ccp(vec)) == pytest.approx(reference, abs=1e-10)

    def test_continuous_objective_equals_public_likelihood(self, mini_game, rng):
        config, theta, ccp_star = mini_game
        log = simulate_continuous(theta, ccp_star, config, 80, seed=63,
                                  events_per_market=2)
        probs = rng.uniform(0.2, 0.8, size=(config.n_players, config.n_states))
        ccp_prev = np.stack([1 - probs, probs], axis=1)
        stats = sufficient_statistics(log, config)
        policy = LinearizedPolicy(ccp_prev, config)
        for _ in range(3):
            vec = rng.normal(scale=1.2, size=config.n_players + 3)
            # the public form evaluates at given probabilities; feed it the
            # best response the optimizer's objective uses internally
            br = policy.ccp(vec)
            reference = SpellStats.from_events(log, config).loglik(br)
            assert stats.loglik(policy.ccp(vec)) == pytest.approx(reference, abs=1e-10)


class TestMaximizePseudoLikelihood:
    def test_recovers_truth_from_true_ccps_continuous(self, mini_game):
        config, theta, ccp_star = mini_game
        log = simulate_continuous(theta, ccp_star, config, 4000, seed=41,
                                  events_per_market=1)
        theta_hat = ctnpl(log, config, ccp_star, max_stages=1).theta_hat
        assert np.abs(theta_hat.as_vector() - theta.as_vector()).max() < 0.35

    def test_start_insensitive(self, mini_game, monkeypatch):
        config, theta, ccp_star = mini_game
        log = simulate_continuous(theta, ccp_star, config, 500, seed=43,
                                  events_per_market=1)
        a = ctnpl(log, config, ccp_star, max_stages=1).theta_hat
        # stage 1 started at the truth instead of the CCP inversion
        monkeypatch.setattr(estimate, "_inversion_start", lambda policy: theta.as_vector())
        b = ctnpl(log, config, ccp_star, max_stages=1).theta_hat
        assert np.abs(a.as_vector() - b.as_vector()).max() < 1e-4


class TestCtnpl:
    def test_single_stage_is_two_step(self, mini_game):
        config, theta, ccp_star = mini_game
        panel = sample_discrete(theta, ccp_star, config, 400, periods=1, seed=51)
        result = ctnpl(panel, config, ccp_star, max_stages=1)
        assert result.iterations == 1
        # one stage maximizes the public pseudo-likelihood at ccp_star ...
        from ctgames.likelihood import loglik_discrete

        def loglik(vec):
            return loglik_discrete(Theta.from_vector(vec, config.n_players), ccp_star,
                                   panel, config)

        vec = result.theta_hat.as_vector()
        assert result.loglik == pytest.approx(loglik(vec), abs=1e-10)
        assert np.abs(central_difference_gradient(loglik, vec)).max() < 1e-5
        assert np.allclose(result.ccp_hat, best_response_map(result.theta_hat, ccp_star, config),
                           atol=1e-10)
        # ... and is the first stage of the nested loop
        nested = ctnpl(panel, config, ccp_star, max_stages=2, tol=0.0)
        assert nested.trace[0]["loglik"] == result.loglik

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
        # each BFGS call evaluates the likelihood and its gradient together
        assert all(t["nfev"] == t["njev"] > t["nit"] >= 0 for t in result.trace)
        assert all(t["clamped_logs"] == 0 for t in result.trace)
        if result.converged:
            last = result.trace[-1]
            assert last["sigma_delta"] < 1e-6 and last["theta_delta"] < 1e-6


    @pytest.mark.filterwarnings("ignore:loadtxt:UserWarning")
    def test_data_without_transitions_rejected(self, mini_game, tmp_path):
        # a header-only panel, a panel without consecutive snapshots and an
        # event log without markets carry no likelihood information
        config, _, ccp_star = mini_game
        path = tmp_path / "panel.csv"
        path.write_text("market_id,n,k\n")
        unpaired = Panel(market_id=np.array([0, 1]), period=np.array([0, 0]),
                         state=np.array([0, 3]))
        no_markets = make_log()
        for data in (Panel.from_csv(path), unpaired, no_markets):
            with pytest.raises(InvalidArgumentError):
                ctnpl(data, config, ccp_star)

    def test_event_data_reduced_once_per_fit(self, mini_game, monkeypatch):
        config, theta, ccp_star = mini_game
        log = simulate_continuous(theta, ccp_star, config, 200, seed=65,
                                  events_per_market=3)
        calls = []
        original = SpellStats.from_events.__func__

        def counted(cls, events, config):
            calls.append(events)
            return original(cls, events, config)

        monkeypatch.setattr(SpellStats, "from_events", classmethod(counted))
        result = ctnpl(log, config, uniform_ccp(config), max_stages=3, tol=1e-14)
        assert len(result.trace) == 3
        assert len(calls) == 1 and calls[0] is log

    def test_monte_carlo_reduces_event_data_once_per_replication(self, monkeypatch):
        # one SpellStats for all five estimators and both data-driven starts
        from ctgames.experiments import experiment_spec, run_monte_carlo

        spec = experiment_spec(2, scale="desk", sampling="continuous", n_markets=60,
                               replications=2, seed=9)
        calls = []
        original = SpellStats.from_events.__func__

        def counted(cls, events, config):
            calls.append(events)
            return original(cls, events, config)

        monkeypatch.setattr(SpellStats, "from_events", classmethod(counted))
        mc = run_monte_carlo(spec)
        assert not mc.failures
        assert all(arr.shape[0] == 2 for arr in mc.estimates.values())
        assert len(calls) == 2 and calls[0] is not calls[1]

    def test_impossible_nature_move_rejected_at_any_start(self, mini_game):
        # nature toggling a firm's activity bit has rate zero
        config, _, ccp_star = mini_game
        log = make_log([(0, 1, 0, 0.4, -1, 1), (0, 2, 1, 1.0, CENSOR, -1)])
        for start in (ccp_star, uniform_ccp(config)):
            with pytest.raises(InvalidArgumentError, match="impossible nature"):
                ctnpl(log, config, start)

    def test_non_finite_stage_loglik_raises(self, mini_game, monkeypatch):
        from ctgames import estimate as estimate_mod

        config, theta, ccp_star = mini_game
        panel = sample_discrete(theta, ccp_star, config, 50, periods=1, seed=61)
        original = estimate_mod._maximize

        def nan_loglik(*args, **kwargs):
            vec, _, hess_inv, counts = original(*args, **kwargs)
            return vec, np.nan, hess_inv, counts

        monkeypatch.setattr(estimate_mod, "_maximize", nan_loglik)
        with pytest.raises(NumericalError):
            ctnpl(panel, config, ccp_star)

    def test_clamped_logs_count_the_transitions_at_each_stage_estimate(self, desk_game):
        # over delta = 1e-60 a transition of five jumps has probability below
        # LOG_FLOOR; it is observed once, so every stage clamps one log
        _, _, ccp_star = desk_game
        config = desk_config(delta=1e-60)
        p = transition_matrix(aggregate_generator(ccp_star, config), config.delta)
        counts = np.where(p > 1e-100, 3.0, 0.0)  # no jump or one jump
        counts[0, config.n_states - 1] = 1.0
        assert p[0, config.n_states - 1] < LOG_FLOOR
        result = ctnpl(TransitionCounts(counts, 10, config), config, ccp_star)
        assert [t["clamped_logs"] for t in result.trace] == [1] * len(result.trace)
        assert any(t["nfev"] > 1 for t in result.trace)


class TestSharedFirstStage:
    """CTNPL's stage 1 is the two-step estimate from its start, fitted once."""

    @pytest.mark.parametrize("kind", ["discrete", "continuous"])
    @pytest.mark.parametrize("init, twin",
                             [("frequency", "2S-Freq"), ("logit", "2S-Logit"), ("true", "2S-True")])
    def test_two_step_equals_a_lone_first_stage(self, desk_game, desk_data, kind, init, twin):
        from ctgames.experiments import experiment_spec, run_estimators

        config, _, ccp_star = desk_game
        spec = experiment_spec(2, scale="desk", sampling=kind, ctnpl_init=init,
                               estimators=(twin, "CTNPL"))
        stats = sufficient_statistics(desk_data[kind], config)
        fits = run_estimators(spec, stats, ccp_star, 1)
        lone = ctnpl(stats, config, init_ccp(init, stats, config, ccp_star=ccp_star),
                     max_stages=1)
        shared = fits[twin]
        assert np.array_equal(shared.theta_hat.as_vector(), lone.theta_hat.as_vector())
        assert np.array_equal(shared.ccp_hat, lone.ccp_hat)
        assert (shared.loglik, shared.iterations, shared.converged, shared.trace) == (
            lone.loglik, lone.iterations, lone.converged, lone.trace)
        assert fits["CTNPL"].iterations > 1
        assert shared.trace[0] is not fits["CTNPL"].trace[0]

    def test_stage_one_runs_once_per_start(self, desk_game, desk_data, monkeypatch):
        # five estimators, four starts: 2S-Freq is CTNPL's stage 1
        from ctgames.experiments import ESTIMATOR_NAMES, experiment_spec, run_estimators

        _, _, ccp_star = desk_game
        starts = []
        original = estimate._inversion_start

        def counted(policy):
            starts.append(policy)
            return original(policy)

        monkeypatch.setattr(estimate, "_inversion_start", counted)
        fits = run_estimators(experiment_spec(2, scale="desk"), desk_data["discrete"], ccp_star, 1)
        assert tuple(fits) == ESTIMATOR_NAMES
        assert len(starts) == 4

    @staticmethod
    def _fail_at_stage(monkeypatch, failing_stage):
        """Make every fit fail at ``failing_stage`` (1 or 2) with one message:
        stage 1 maximizes from `_start_inverse_hessian`'s matrix."""
        first_hessians = []
        original_start, original_maximize = estimate._start_inverse_hessian, estimate._maximize

        def start(*args):
            first_hessians.append(original_start(*args))
            return first_hessians[-1]

        def maximize(stats, policy, x0, hess_inv0):
            if any(hess_inv0 is h for h in first_hessians) == (failing_stage == 1):
                raise OptimizationError("synthetic failure")
            return original_maximize(stats, policy, x0, hess_inv0)

        monkeypatch.setattr(estimate, "_start_inverse_hessian", start)
        monkeypatch.setattr(estimate, "_maximize", maximize)

    @pytest.mark.parametrize("failing_stage", [1, 2])
    def test_monte_carlo_records_a_ctnpl_failure_for_ctnpl_only(self, monkeypatch,
                                                                failing_stage):
        # a CTNPL failure at stage 2 leaves 2S-Freq's estimate; at stage 1
        # 2S-Freq, fitted on its own, fails as it does alone
        from ctgames.experiments import experiment_spec, run_monte_carlo

        spec = experiment_spec(2, scale="desk", n_markets=60, replications=2, seed=5,
                               estimators=("2S-Freq", "CTNPL"))
        alone = run_monte_carlo(replace(spec, estimators=("2S-Freq",)))
        self._fail_at_stage(monkeypatch, failing_stage)
        mc = run_monte_carlo(spec)
        message = f"stage {failing_stage}: synthetic failure"
        failed = ["CTNPL"] if failing_stage == 2 else ["2S-Freq", "CTNPL"]
        assert mc.failures == [(rep, name, message) for rep in (0, 1) for name in failed]
        assert "CTNPL" not in mc.estimates and not mc.replication_ids["CTNPL"]
        if failing_stage == 2:
            assert np.array_equal(mc.estimates["2S-Freq"], alone.estimates["2S-Freq"])
            assert mc.replication_ids["2S-Freq"] == [0, 1]

    def test_carried_inverse_hessian_that_fails_its_check_fails_ctnpl_only(self, tmp_path):
        # the carried matrix is checked as stage 1's start is, so the fit
        # ends in `NumericalError` instead of SciPy's ValueError, and
        # 2S-Freq, refitted on its own, keeps its estimate
        from ctgames.experiments import experiment_spec, fit_estimators

        path = tmp_path / "events.csv"
        path.write_text(CARRIED_HESSIAN_EVENTS_CSV)
        spec = experiment_spec(2, scale="desk", sampling="continuous", ctnpl_init="frequency",
                               estimators=("2S-Freq", "CTNPL"))
        fits = fit_estimators(spec, EventLog.from_csv(path), None, 1)
        assert isinstance(fits["CTNPL"], NumericalError)
        assert str(fits["CTNPL"]) == (
            "stage 7: the start's inverse Hessian is not finite and positive definite")
        assert isinstance(fits["2S-Freq"], EstimationResult)

    def test_run_estimators_raises_a_failed_fit(self, desk_game, desk_data, monkeypatch):
        from ctgames.experiments import experiment_spec, run_estimators

        _, _, ccp_star = desk_game
        self._fail_at_stage(monkeypatch, 2)
        spec = experiment_spec(2, scale="desk", estimators=("2S-Freq", "CTNPL"))
        with pytest.raises(OptimizationError, match="^stage 2: synthetic failure$"):
            run_estimators(spec, desk_data["discrete"], ccp_star, 1)


class TestMaximizeFailures:
    def test_evaluation_budget_names_the_stage(self, mini_game, monkeypatch):
        config, theta, ccp_star = mini_game
        panel = sample_discrete(theta, ccp_star, config, 50, periods=1, seed=61)
        monkeypatch.setattr(estimate, "MAX_EVALS", 1)
        with pytest.raises(OptimizationError, match=r"^stage 1: .*exceeded 1 evaluations"):
            ctnpl(panel, config, uniform_ccp(config))

    def test_unconverged_exit_with_large_gradient_raises(self, mini_game, monkeypatch):
        config, theta, ccp_star = mini_game
        panel = sample_discrete(theta, ccp_star, config, 50, periods=1, seed=61)
        original = scipy.optimize.minimize

        def one_iteration(*args, options, **kwargs):
            return original(*args, options={**options, "maxiter": 1}, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", one_iteration)
        # stage 1 started far from the truth
        far = Theta(fc=(3.0, 3.0), rs=-2.0, rn=-2.0, ec=4.0).as_vector()
        monkeypatch.setattr(estimate, "_inversion_start", lambda policy: far)
        with pytest.raises(OptimizationError,
                           match=r"^stage 1: .*did not converge.*gradient sup-norm"):
            ctnpl(panel, config, uniform_ccp(config))

    def test_eigendecomposition_that_does_not_converge_fails_the_start_check(
            self, mini_game, monkeypatch):
        config, theta, ccp_star = mini_game
        panel = sample_discrete(theta, ccp_star, config, 50, periods=1, seed=61)

        def no_convergence(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(NumericalError, match="^stage 1: the start's inverse Hessian is "
                                                 "not finite and positive definite$"):
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

    def test_errors_whose_squares_leave_the_float_range(self, rng):
        # errors near 2^800 square past the largest float and errors near
        # 2^-600 below the smallest; the ratios equal those of unscaled errors
        theta = Theta(fc=(0.0, 0.0), rs=0.0, rn=0.0, ec=0.0)
        errors = {"base": rng.normal(size=(4, 5)), "other": rng.normal(size=(4, 5))}
        expected = rmse_relative(errors, "base", theta)
        for scale in (2.0 ** 800, 2.0 ** -600):
            out = rmse_relative({name: arr * scale for name, arr in errors.items()},
                                "base", theta)
            for name in errors:
                assert np.array_equal(out[name], expected[name])

    def test_missing_baseline_rejected(self, rng):
        theta = Theta(fc=(-1.9,), rs=1.0, rn=0.0, ec=1.0)
        with pytest.raises(InvalidArgumentError):
            rmse_relative({"a": np.zeros((3, 4))}, "missing", theta)
