import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctgames import (
    ConvergenceError,
    GameConfig,
    Theta,
    continuation_state,
    encode_state,
    nature_generator,
)
from ctgames.equilibrium import (
    EULER_GAMMA,
    aggregate_generator,
    best_response,
    best_response_map,
    check_ccp,
    expected_instant_payoff,
    expected_instant_payoffs,
    solve_mpe,
    uniform_ccp,
    value_function,
)
from ctgames.game import state_tables

from conftest import DESK_THETA, desk_config


def single_agent_config(levels=1, **overrides):
    base = dict(n_players=1, market_levels=levels, lam=1.0, rho=0.05,
                q_up=0.3 if levels > 1 else 0.0, q_down=0.3 if levels > 1 else 0.0)
    base.update(overrides)
    return GameConfig(**base)


def per_firm_generator(ccp, config):
    """Aggregate intensity matrix by an explicit loop over firms and states."""
    q = nature_generator(config)
    for i in range(config.n_players):
        for k in range(config.n_states):
            rate = config.lam * ccp[i, 1, k]
            q[k, continuation_state(i, 1, k, config)] += rate
            q[k, k] -= rate
    return q


class TestChoiceGenerator:
    def test_never_acting_gives_zero_matrix(self):
        # no firm ever toggles: only nature moves the state
        config = desk_config()
        ccp = np.zeros((config.n_players, 2, config.n_states))
        ccp[:, 0] = 1.0
        assert np.all(aggregate_generator(ccp, config) == nature_generator(config))

    def test_always_acting_unit_rates(self):
        config = desk_config(q_up=0.0, q_down=0.0)
        tables = state_tables(config)
        ccp = np.zeros((config.n_players, 2, config.n_states))
        ccp[:, 1] = 1.0
        q = aggregate_generator(ccp, config)
        for k in range(config.n_states):
            row = q[k]
            assert np.all(row[tables.toggle[:, k]] == 1.0)
            assert row[k] == -config.n_players
            assert np.count_nonzero(row) == config.n_players + 1
            assert row.sum() == 0.0

    def test_rows_sum_to_zero_for_random_ccp(self, rng):
        config = desk_config()
        probs = rng.uniform(0.05, 0.95, size=(config.n_players, config.n_states))
        ccp = np.stack([1 - probs, probs], axis=1)
        q = aggregate_generator(ccp, config)
        assert np.abs(q.sum(axis=1)).max() < 1e-15

    @given(n_players=st.integers(1, 3), levels=st.integers(1, 3),
           lam=st.floats(0.1, 3.0), q_up=st.floats(0.0, 1.0), q_down=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_aggregate_generator_combines_nature_and_players(
            self, n_players, levels, lam, q_up, q_down, seed):
        config = GameConfig(n_players=n_players, market_levels=levels, lam=lam,
                            q_up=q_up, q_down=q_down)
        probs = np.random.default_rng(seed).uniform(
            0.05, 0.95, size=(n_players, config.n_states))
        ccp = np.stack([1 - probs, probs], axis=1)
        q = aggregate_generator(ccp, config)
        assert np.allclose(q, per_firm_generator(ccp, config), rtol=0, atol=1e-14)


class TestExpectedInstantPayoff:
    def test_fair_coin_zero_payoffs(self):
        config = single_agent_config()
        theta = Theta(fc=(-1.0,), rs=1.0, rn=0.0, ec=0.0)  # active flow = 0, no entry cost
        ccp = uniform_ccp(config)
        e = expected_instant_payoffs(theta, ccp, config)
        assert np.allclose(e, EULER_GAMMA + math.log(2), atol=1e-12)

    def test_degenerate_continuation_limit(self):
        config = single_agent_config()
        theta = Theta(fc=(-1.0,), rs=1.0, rn=0.0, ec=0.0)
        ccp = np.zeros((1, 2, 2))
        ccp[:, 0, :] = 1 - 1e-9
        ccp[:, 1, :] = 1e-9
        e = expected_instant_payoffs(theta, ccp, config)
        assert np.allclose(e, EULER_GAMMA, atol=1e-7)

    def test_weighted_mix_value(self):
        # sum_j sigma_j (psi_j + gamma - ln sigma_j) at sigma = (0.3, 0.7),
        # psi = (0, -1); direct evaluation gives 0.48807996695642643.
        config = single_agent_config()
        theta = Theta(fc=(-1.0,), rs=1.0, rn=0.0, ec=1.0)
        ccp = np.zeros((1, 2, 2))
        ccp[:, 0, :] = 0.3
        ccp[:, 1, :] = 0.7
        e = expected_instant_payoff(theta, ccp, 0, config)
        # state 0: firm inactive so entry costs psi_1 = -1
        assert e[0] == pytest.approx(0.48807996695642643, rel=1e-12)

    def test_rejects_boundary_probabilities(self):
        config = single_agent_config()
        theta = Theta(fc=(-1.0,), rs=1.0, rn=0.0, ec=1.0)
        ccp = uniform_ccp(config)
        ccp[0, 1, 0] = 0.0
        with pytest.raises(Exception):
            expected_instant_payoffs(theta, ccp, config)


class TestValueFunction:
    def test_symmetric_states_equal_values(self):
        # Flow payoff is zero in both states (fc = rs * level) and entry is
        # free, so the two states are payoff-identical: V must be constant
        # and equal to lam * (gamma + ln 2) / rho at the uniform policy.
        config = single_agent_config()
        theta = Theta(fc=(-1.0,), rs=1.0, rn=0.0, ec=0.0)
        values = value_function(theta, uniform_ccp(config), config)
        expected = config.lam * (EULER_GAMMA + math.log(2)) / config.rho
        assert np.allclose(values, expected, rtol=1e-10)

    def test_infinite_discounting_kills_value(self):
        config = GameConfig(n_players=1, market_levels=1, lam=1.0, rho=1e6)
        theta = Theta(fc=(-0.5,), rs=1.0, rn=0.0, ec=1.0)
        values = value_function(theta, uniform_ccp(config), config)
        assert np.abs(values).max() < 1e-4 * 0.5  # 1e-4 * max flow payoff

    def test_hand_solved_two_state_system(self):
        # Independent recomputation through the explicit 2x2 inverse.
        lam, rho = 1.3, 0.1
        config = single_agent_config(lam=lam, rho=rho)
        theta = Theta(fc=(0.5,), rs=2.0, rn=0.0, ec=1.2)
        ccp = np.zeros((1, 2, 2))
        ccp[0, 1] = [0.6, 0.4]   # entry prob in state 0, exit prob in state 1
        ccp[0, 0] = 1 - ccp[0, 1]

        u = np.array([0.0, 2.0 + 0.5])
        psi1 = np.array([-1.2, 0.0])
        g = EULER_GAMMA
        e = (ccp[0, 0] * (g - np.log(ccp[0, 0]))
             + ccp[0, 1] * (psi1 + g - np.log(ccp[0, 1])))
        jump = np.array([[1 - 0.6, 0.6], [0.4, 1 - 0.4]])
        xi = (rho + lam) * np.eye(2) - lam * jump
        a, b, c, d = xi[0, 0], xi[0, 1], xi[1, 0], xi[1, 1]
        inv = np.array([[d, -b], [-c, a]]) / (a * d - b * c)
        expected = inv @ (u + lam * e)

        values = value_function(theta, ccp, config)
        assert np.allclose(values[0], expected, atol=1e-12)

    def test_prelimit_bellman_identity(self, rng):
        # Per-state recomputation of the pre-limit Bellman equation:
        # V_ik (rho + H0_k + N lam) = u_ik + sum_l q_kl V_il
        #   + lam sum_{m != i} [(1-s_m) V_ik + s_m V_i,tog(m,k)]
        #   + lam [E_ik + (1-s_i) V_ik + s_i V_i,tog(i,k)]
        from ctgames.game import flow_payoffs

        config = desk_config()
        theta = DESK_THETA
        probs = rng.uniform(0.1, 0.9, size=(config.n_players, config.n_states))
        ccp = np.stack([1 - probs, probs], axis=1)
        values = value_function(theta, ccp, config)
        u = flow_payoffs(theta, config)
        e = expected_instant_payoffs(theta, ccp, config)
        q0 = nature_generator(config)
        tables = state_tables(config)
        lam, n = config.lam, config.n_players
        for i in range(n):
            for k in range(config.n_states):
                hazard0 = -q0[k, k]
                rhs = u[i, k] + q0[k] @ values[i] + hazard0 * values[i, k]
                for m in range(n):
                    tog = tables.toggle[m, k]
                    rhs += lam * ((1 - ccp[m, 1, k]) * values[i, k]
                                  + ccp[m, 1, k] * values[i, tog])
                rhs += lam * e[i, k]
                lhs = values[i, k] * (config.rho + hazard0 + n * lam)
                assert lhs == pytest.approx(rhs, rel=1e-8)


class TestBestResponse:
    def test_symmetric_logit(self):
        config = single_agent_config()
        theta = Theta(fc=(-1.0,), rs=1.0, rn=0.0, ec=0.0)
        values = np.zeros((1, 2))
        ccp = best_response(theta, values, config)
        assert np.allclose(ccp, 0.5, atol=1e-15)

    def test_log_odds_three(self):
        # value gap of ln 3 for the toggle choice: sigma_1 = 3/4
        config = single_agent_config()
        theta = Theta(fc=(-1.0,), rs=1.0, rn=0.0, ec=0.0)
        values = np.array([[0.0, math.log(3)]])
        ccp = best_response(theta, values, config)
        assert ccp[0, 1, 0] == pytest.approx(0.75, abs=1e-12)

    def test_shift_invariance(self, rng):
        # Adding a constant to every value leaves the logit unchanged; the
        # value solve itself shifts by c / rho when the flow shifts by c.
        config = desk_config()
        theta = DESK_THETA
        values = rng.normal(size=(config.n_players, config.n_states))
        base = best_response(theta, values, config)
        shifted = best_response(theta, values + 17.3, config)
        assert np.abs(base - shifted).max() < 1e-12

        from ctgames.equilibrium import _policy_system_matrix
        xi = _policy_system_matrix(uniform_ccp(config), config)
        ones_solve = np.linalg.solve(xi, np.ones(config.n_states))
        assert np.allclose(ones_solve, 1.0 / config.rho, atol=1e-10)

    def test_output_is_valid_ccp(self, rng):
        config = desk_config()
        values = rng.normal(scale=30.0, size=(config.n_players, config.n_states))
        ccp = best_response(DESK_THETA, values, config)
        check_ccp(ccp, config)


class TestSolveMpe:
    def test_fixed_point_residual(self):
        config = desk_config()
        result = solve_mpe(DESK_THETA, config)
        gap = np.abs(best_response_map(DESK_THETA, result.ccp, config) - result.ccp).max()
        assert gap < 1e-10
        assert result.residual < 1e-10

    def test_restart_converges_immediately(self):
        config = desk_config()
        result = solve_mpe(DESK_THETA, config)
        again = solve_mpe(DESK_THETA, config, init=result.ccp)
        assert again.iterations <= 2

    def test_no_interaction_decouples_into_single_agent_problems(self):
        config = desk_config()
        theta = Theta(fc=(-1.9, -1.8, -1.7), rs=1.0, rn=0.0, ec=1.0)
        full = solve_mpe(theta, config, tol=1e-12)
        tables = state_tables(config)
        for i in range(config.n_players):
            solo_config = GameConfig(n_players=1, market_levels=config.market_levels,
                                     lam=config.lam, rho=config.rho,
                                     q_up=config.q_up, q_down=config.q_down)
            solo_theta = Theta(fc=(theta.fc[i],), rs=theta.rs, rn=0.0, ec=theta.ec)
            solo = solve_mpe(solo_theta, solo_config, tol=1e-12)
            for k in range(config.n_states):
                demand = tables.demand[k]
                own = tables.activity[k, i]
                solo_k = encode_state(demand, [own], solo_config)
                assert full.ccp[i, 1, k] == pytest.approx(solo.ccp[0, 1, solo_k], abs=1e-8)

    def test_identical_firms_play_symmetrically(self):
        config = GameConfig(n_players=2, market_levels=3, lam=1.0, rho=0.05,
                            q_up=0.3, q_down=0.3)
        theta = Theta(fc=(-1.5, -1.5), rs=1.0, rn=1.0, ec=1.0)
        result = solve_mpe(theta, config, tol=1e-12)
        tables = state_tables(config)
        for k in range(config.n_states):
            demand = tables.demand[k]
            a = tables.activity[k]
            swapped = encode_state(demand, a[::-1], config)
            assert result.ccp[0, 1, k] == pytest.approx(result.ccp[1, 1, swapped], abs=1e-9)

    def test_nonconvergence_raises_with_residual(self):
        config = desk_config()
        with pytest.raises(ConvergenceError) as excinfo:
            solve_mpe(DESK_THETA, config, max_iter=2)
        assert excinfo.value.residual > 0


class TestZeroJacobianAtFixedPoint:
    def _fd_jacobian_norm(self, config, theta, step=1e-6):
        result = solve_mpe(theta, config, tol=1e-13)
        ccp = result.ccp
        n, k_total = config.n_players, config.n_states
        worst = 0.0
        for i in range(n):
            for k in range(k_total):
                for sign_step in (step,):
                    up = ccp.copy()
                    up[i, 1, k] += sign_step
                    up[i, 0, k] -= sign_step
                    down = ccp.copy()
                    down[i, 1, k] -= sign_step
                    down[i, 0, k] += sign_step
                    diff = (best_response_map(theta, up, config)[:, 1, :]
                            - best_response_map(theta, down, config)[:, 1, :])
                    worst = max(worst, np.abs(diff / (2 * sign_step)).max())
        return worst

    def test_single_agent_two_state(self):
        config = single_agent_config()
        theta = Theta(fc=(-1.9,), rs=1.0, rn=0.0, ec=1.0)
        assert self._fd_jacobian_norm(config, theta) < 1e-5

    def test_single_agent_ten_state(self):
        config = single_agent_config(levels=5)
        theta = Theta(fc=(-1.9,), rs=1.0, rn=0.0, ec=1.0)
        assert self._fd_jacobian_norm(config, theta) < 1e-5
