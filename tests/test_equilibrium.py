import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctgames import (
    ConvergenceError,
    GameConfig,
    InvalidArgumentError,
    NumericalError,
    Theta,
    encode_state,
    nature_generator,
)
from ctgames.equilibrium import (
    EULER_GAMMA,
    MIX_BELOW,
    STALL_RATIO,
    STALL_WINDOW,
    LinearizedPolicy,
    action_rate_gradient,
    add_action_rates,
    aggregate_generator,
    best_response,
    best_response_map,
    check_ccp,
    solve_mpe,
    uniform_ccp,
    value_function,
)
from ctgames.experiments import experiment_spec
from ctgames.game import state_tables

from conftest import DESK_THETA, VALUE_OVERFLOW_GAME, desk_config, game_from_config
from oracles import continuation_state, expected_instant_payoffs, flow_payoff, plain_solve_mpe


def single_agent_config(levels=1, **overrides):
    base = dict(n_players=1, market_levels=levels, lam=1.0, rho=0.05,
                q_up=0.3 if levels > 1 else 0.0, q_down=0.3 if levels > 1 else 0.0)
    base.update(overrides)
    return GameConfig(**base)


def successive_approximation(theta, config, step, tol=1e-10, max_iter=10000):
    """Fixed-step successive approximation from the uniform policy.

    Returns ``(ccp, trace)``; ``ccp`` is None when ``max_iter`` iterations
    do not reach ``tol``.
    """
    ccp, trace = uniform_ccp(config), []
    for _ in range(max_iter):
        updated = best_response_map(theta, ccp, config)
        trace.append(float(np.abs(updated - ccp).max()))
        if trace[-1] < tol:
            return ccp, trace
        ccp = ccp + step * (updated - ccp)
    return None, trace


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

    @given(n_players=st.integers(1, 3), levels=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_action_rate_gradient_is_the_adjoint(self, n_players, levels, seed):
        # <add_action_rates(0, r), G> == <r, action_rate_gradient(G)>
        config = GameConfig(n_players=n_players, market_levels=levels)
        rng = np.random.default_rng(seed)
        rates = rng.normal(size=(n_players, config.n_states))
        gbar = rng.normal(size=(config.n_states, config.n_states))
        forward = add_action_rates(np.zeros_like(gbar), rates, config)
        terms = forward * gbar  # relative to their absolute sum: no cancellation
        rhs = (rates * action_rate_gradient(gbar, config)).sum()
        assert abs(terms.sum() - rhs) <= 1e-12 * np.abs(terms).sum()


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
        e = expected_instant_payoffs(theta, ccp, config)[0]
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
        config = desk_config()
        theta = DESK_THETA
        probs = rng.uniform(0.1, 0.9, size=(config.n_players, config.n_states))
        ccp = np.stack([1 - probs, probs], axis=1)
        values = value_function(theta, ccp, config)
        e = expected_instant_payoffs(theta, ccp, config)
        q0 = nature_generator(config)
        tables = state_tables(config)
        lam, n = config.lam, config.n_players
        for i in range(n):
            for k in range(config.n_states):
                hazard0 = -q0[k, k]
                rhs = flow_payoff(theta, i, k, config) + q0[k] @ values[i] + hazard0 * values[i, k]
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
        # a restart at the equilibrium would stop at its first map: the map
        # moves the returned probabilities by the recorded residual, below tol
        config = desk_config()
        result = solve_mpe(DESK_THETA, config, tol=1e-12)
        gap = np.abs(best_response_map(DESK_THETA, result.ccp, config) - result.ccp).max()
        assert gap == result.residual < 1e-12

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

    def test_nonconvergence_raises_with_residual(self, monkeypatch):
        from ctgames import equilibrium

        monkeypatch.setattr(equilibrium, "MAX_MAPS", 2)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_mpe(DESK_THETA, desk_config())
        assert excinfo.value.residual > 0
        assert excinfo.value.iterations == 2

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_bad_tolerance_is_rejected(self, tol, monkeypatch):
        from ctgames import equilibrium

        def forbidden(*args):
            raise AssertionError("best response evaluated")

        monkeypatch.setattr(equilibrium, "best_response_map", forbidden)
        with pytest.raises(InvalidArgumentError, match="tol"):
            solve_mpe(DESK_THETA, desk_config(), tol=tol)

    def test_non_finite_start_is_rejected(self):
        config = desk_config()
        init = uniform_ccp(config)
        init[1, :, 5] = math.nan
        with pytest.raises(InvalidArgumentError, match="finite"):
            LinearizedPolicy(init, config)

    def test_overflowing_value_solve_is_a_numeric_failure(self):
        # nature's rates near the largest float: a later map's policy values
        # overflow, a numeric failure rather than a bad argument to the logit
        config, theta = game_from_config(VALUE_OVERFLOW_GAME)
        with pytest.raises(NumericalError, match="value equation"):
            solve_mpe(theta, config)

    def test_rho_lost_to_rounding_is_a_numeric_failure(self):
        # rho = 0.05 beside nature's rates of 1e307: the solve would return
        # values for two demand levels 2.0 apart, though nature switches them at once
        config, theta = game_from_config(VALUE_OVERFLOW_GAME)
        ccp = uniform_ccp(config)
        with pytest.raises(NumericalError, match="value equation"):
            value_function(theta, ccp, config)
        with pytest.raises(NumericalError, match="value equation"):
            LinearizedPolicy(ccp, config)

    def test_stalled_solve_restarts_at_half_step_before_mixing(self):
        # Paper experiment 1 at rn = 5: plain best-response iteration locks
        # into a 2-cycle, so the solve restarts from the uniform policy at
        # step 1/2, which it follows until mixing starts below MIX_BELOW.
        spec = experiment_spec(1, scale="paper")
        theta, config = replace(spec.theta_true, rn=5.0), spec.config
        result = solve_mpe(theta, config)
        damped, damped_trace = successive_approximation(theta, config, 0.5)
        assert damped is not None
        assert np.abs(result.ccp - damped).max() < 1e-9

        _, plain_trace = successive_approximation(theta, config, 1.0,
                                                  max_iter=STALL_WINDOW + 1)
        assert plain_trace[-1] > STALL_RATIO * plain_trace[0]
        assert min(plain_trace) >= MIX_BELOW
        switch = next(n for n, r in enumerate(damped_trace) if r < MIX_BELOW) + 1
        assert result.trace[:STALL_WINDOW + 1 + switch] == plain_trace + damped_trace[:switch]
        assert result.iterations == len(result.trace) < len(plain_trace + damped_trace)
        assert result.residual == result.trace[-1] < 1e-10

    @staticmethod
    def _assert_plain_equilibrium(theta, config):
        try:
            plain = plain_solve_mpe(theta, config, max_iter=2000)
        except ConvergenceError:
            plain = None
        assume(plain is not None)
        result = solve_mpe(theta, config)
        assert np.abs(result.ccp - plain.ccp).max() < 1e-9
        switch = next(n for n, r in enumerate(plain.trace) if r < MIX_BELOW) + 1
        assert result.trace[:switch] == plain.trace[:switch]

    @given(n_players=st.integers(1, 3), levels=st.integers(2, 3),
           rn=st.floats(0.0, 3.0), ec=st.floats(0.0, 3.0), lam=st.floats(0.5, 2.0),
           fc=st.lists(st.floats(-2.5, 0.0), min_size=3, max_size=3))
    @settings(max_examples=30)
    def test_mixed_solve_reaches_plain_iterations_equilibrium(
            self, n_players, levels, rn, ec, lam, fc):
        config = GameConfig(n_players=n_players, market_levels=levels, lam=lam,
                            rho=0.05, q_up=0.3, q_down=0.3)
        self._assert_plain_equilibrium(Theta(fc=fc[:n_players], rs=1.0, rn=rn, ec=ec), config)

    @given(n_players=st.integers(2, 4), levels=st.integers(2, 3),
           rn=st.floats(0.0, 8.0), ec=st.floats(0.0, 5.0), lam=st.floats(0.5, 2.0),
           fc=st.lists(st.floats(-2.5, 0.0), min_size=4, max_size=4))
    @settings(max_examples=10)
    def test_mixed_solve_reaches_plain_iterations_equilibrium_in_strong_games(
            self, n_players, levels, rn, ec, lam, fc):
        config = GameConfig(n_players=n_players, market_levels=levels, lam=lam,
                            rho=0.05, q_up=0.3, q_down=0.3)
        self._assert_plain_equilibrium(Theta(fc=fc[:n_players], rs=1.0, rn=rn, ec=ec), config)

    def test_paper_sweep_needs_few_best_response_maps(self):
        # plain iteration needs 476 maps over rn = 0..5 (5/13/26/57/203/172)
        spec = experiment_spec(1, scale="paper")
        total = 0
        for rn in range(6):
            theta = replace(spec.theta_true, rn=float(rn))
            result = solve_mpe(theta, spec.config)
            assert result.residual < 1e-10
            total += result.iterations
            again = solve_mpe(theta, spec.config)
            assert np.array_equal(again.ccp, result.ccp)
            assert again.trace == result.trace
        assert total <= 250


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
