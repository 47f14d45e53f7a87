import math

import numpy as np
import pytest

from ctgames import GameConfig, Theta
from ctgames.equilibrium import solve_mpe, uniform_ccp
from ctgames.likelihood import (
    SpellStats,
    hazard_profile,
    loglik_continuous,
    loglik_continuous_parts,
    loglik_discrete,
    transition_counts,
)
from ctgames.simulate import NATURE, EventLog, sample_discrete, simulate_continuous

from conftest import DESK_THETA, desk_config


def make_log(markets, horizon, final_state, events=()):
    """Tiny hand-built event log; events are (market, n, k, t, actor, action)."""
    events = np.array(events, dtype=float).reshape(-1, 6)
    return EventLog(
        market_id=events[:, 0].astype(np.int64),
        index=events[:, 1].astype(np.int64),
        pre_state=events[:, 2].astype(np.int64),
        time=events[:, 3],
        actor=events[:, 4].astype(np.int64),
        action=events[:, 5].astype(np.int64),
        markets=np.asarray(markets, dtype=np.int64),
        horizon=np.asarray(horizon, dtype=float),
        final_state=np.asarray(final_state, dtype=np.int64),
    )


@pytest.fixture(scope="module")
def two_firm_game():
    config = GameConfig(n_players=2, market_levels=2, lam=1.0, rho=0.05,
                        q_up=0.3, q_down=0.3)
    theta = Theta(fc=(-1.2, -0.9), rs=1.0, rn=1.0, ec=1.0)
    return config, theta


class TestContinuous:
    def test_empty_log_is_zero(self, two_firm_game):
        config, _ = two_firm_game
        log = make_log(markets=[0], horizon=[0.0], final_state=[0])
        assert loglik_continuous(uniform_ccp(config), log, config) == 0.0

    def test_pure_survival_spell(self, two_firm_game):
        config, _ = two_firm_game
        ccp = uniform_ccp(config)
        k, tau = 2, 1.7
        log = make_log(markets=[0], horizon=[tau], final_state=[k])
        hazards = hazard_profile(ccp, config)
        expected = -tau * hazards.total[k]
        assert loglik_continuous(ccp, log, config) == pytest.approx(expected)

    def test_single_action_hand_value(self, two_firm_game):
        # Total hazard 1.4 = nature 0.3 + firm moves 0.4 + 0.7; firm 0 acts
        # at tau = 0.5: loglik = -0.5 * 1.4 + ln(0.4).
        config, _ = two_firm_game
        ccp = np.zeros((2, 2, config.n_states))
        ccp[0, 1], ccp[1, 1] = 0.4, 0.7
        ccp[:, 0] = 1 - ccp[:, 1]
        k = 0  # demand level 1: only q_up = 0.3 active
        log = make_log(markets=[0], horizon=[0.5], final_state=[1],
                       events=[(0, 1, k, 0.5, 0, 1)])
        value = loglik_continuous(ccp, log, config)
        assert value == pytest.approx(-0.5 * 1.4 + math.log(0.4), abs=1e-12)

    def test_decomposition_and_parts(self, two_firm_game):
        config, theta = two_firm_game
        mpe = solve_mpe(theta, config, tol=1e-12)
        log = simulate_continuous(theta, mpe.ccp, config, 40, seed=3,
                                  events_per_market=5)
        parts = loglik_continuous_parts(mpe.ccp, log, config)
        total = loglik_continuous(mpe.ccp, log, config)
        assert total == pytest.approx(sum(parts), rel=1e-12)
        assert np.isfinite(total)

    def test_additive_over_markets(self, two_firm_game):
        config, theta = two_firm_game
        mpe = solve_mpe(theta, config, tol=1e-12)
        log = simulate_continuous(theta, mpe.ccp, config, 30, seed=9,
                                  events_per_market=2)

        def restrict(ids):
            sel = np.isin(log.market_id, ids)
            keep = np.isin(log.markets, ids)
            return EventLog(market_id=log.market_id[sel], index=log.index[sel],
                            pre_state=log.pre_state[sel], time=log.time[sel],
                            actor=log.actor[sel], action=log.action[sel],
                            markets=log.markets[keep], horizon=log.horizon[keep],
                            final_state=log.final_state[keep])

        first, second = restrict(np.arange(12)), restrict(np.arange(12, 30))
        total = loglik_continuous(mpe.ccp, log, config) * 30
        split = (loglik_continuous(mpe.ccp, first, config) * 12
                 + loglik_continuous(mpe.ccp, second, config) * 18)
        assert total == pytest.approx(split, rel=1e-12)

    def test_impossible_nature_transition_flags_domain(self, two_firm_game):
        # Nature recorded toggling an activity bit: hazard is zero there.
        config, _ = two_firm_game
        k0 = 0
        log = make_log(markets=[0], horizon=[1.0], final_state=[1],
                       events=[(0, 1, k0, 0.4, NATURE, 1)])
        value = loglik_continuous(uniform_ccp(config), log, config)
        assert value == -np.inf


class TestDiscrete:
    def test_zero_interval_identity(self, two_firm_game):
        config, theta = two_firm_game
        mpe = solve_mpe(theta, config, tol=1e-12)
        panel = sample_discrete(theta, mpe.ccp, config, 20, periods=2, seed=5)
        frozen = type(panel)(market_id=panel.market_id, period=panel.period,
                             state=np.repeat(panel.state.reshape(-1, 3)[:, :1], 3, axis=1).reshape(-1))
        assert loglik_discrete(theta, mpe.ccp, frozen, config, delta=0.0) == 0.0

    def test_matches_direct_formula(self, two_firm_game):
        from ctgames import transition_matrix
        from ctgames.equilibrium import aggregate_generator, best_response_map

        config, theta = two_firm_game
        mpe = solve_mpe(theta, config, tol=1e-12)
        panel = sample_discrete(theta, mpe.ccp, config, 50, periods=1, seed=6)
        ccp0 = uniform_ccp(config)
        value = loglik_discrete(theta, ccp0, panel, config)
        br = best_response_map(theta, ccp0, config)
        p = transition_matrix(aggregate_generator(br, config), config.delta)
        states = panel.state.reshape(-1, 2)
        direct = np.log(p[states[:, 0], states[:, 1]]).sum() / 50
        assert value == pytest.approx(direct, rel=1e-12)

    def test_uniformization_route_agrees(self):
        config = desk_config()
        mpe = solve_mpe(DESK_THETA, config, tol=1e-12)
        panel = sample_discrete(DESK_THETA, mpe.ccp, config, 1000, periods=1, seed=8)
        via_expm = loglik_discrete(DESK_THETA, mpe.ccp, panel, config)
        via_unif = loglik_discrete(DESK_THETA, mpe.ccp, panel, config,
                                   pmatrix_method="uniformization")
        assert via_expm == pytest.approx(via_unif, abs=1e-8)

    def test_market_relabeling_invariance(self, two_firm_game):
        config, theta = two_firm_game
        mpe = solve_mpe(theta, config, tol=1e-12)
        panel = sample_discrete(theta, mpe.ccp, config, 40, periods=1, seed=10)
        relabeled = type(panel)(market_id=39 - panel.market_id,
                                period=panel.period, state=panel.state)
        a = loglik_discrete(theta, mpe.ccp, panel, config)
        b = loglik_discrete(theta, mpe.ccp, relabeled, config)
        assert a == pytest.approx(b, rel=1e-12)

    def test_truth_beats_perturbed_theta(self):
        config = desk_config()
        mpe = solve_mpe(DESK_THETA, config, tol=1e-12)
        panel = sample_discrete(DESK_THETA, mpe.ccp, config, 10000, periods=1, seed=12)
        at_truth = loglik_discrete(DESK_THETA, mpe.ccp, panel, config)
        shifted = Theta(fc=(DESK_THETA.fc[0] + 0.5,) + DESK_THETA.fc[1:],
                        rs=DESK_THETA.rs, rn=DESK_THETA.rn, ec=DESK_THETA.ec)
        at_shifted = loglik_discrete(shifted, mpe.ccp, panel, config)
        assert at_truth > at_shifted

    def test_gradient_step_halving_consistency(self):
        config = desk_config()
        mpe = solve_mpe(DESK_THETA, config, tol=1e-12)
        panel = sample_discrete(DESK_THETA, mpe.ccp, config, 200, periods=1, seed=14)
        vec = DESK_THETA.as_vector()

        def grad(h):
            out = np.empty(len(vec))
            for q in range(len(vec)):
                hq = h * max(1.0, abs(vec[q]))
                up, dn = vec.copy(), vec.copy()
                up[q] += hq
                dn[q] -= hq
                out[q] = (loglik_discrete(Theta.from_vector(up, 3), mpe.ccp, panel, config)
                          - loglik_discrete(Theta.from_vector(dn, 3), mpe.ccp, panel, config)) / (2 * hq)
            return out

        g1, g2 = grad(1e-4), grad(5e-5)
        assert np.abs(g1 - g2).max() < 1e-6 * max(1.0, np.abs(g1).max())

    def test_clamp_counter_exposed(self, two_firm_game):
        config, theta = two_firm_game
        mpe = solve_mpe(theta, config, tol=1e-12)
        panel = sample_discrete(theta, mpe.ccp, config, 10, periods=1, seed=16)
        counters = {}
        loglik_discrete(theta, mpe.ccp, panel, config, counters=counters)
        assert counters["clamped_logs"] == 0


class TestSpellStats:
    def test_exposure_and_counts(self, two_firm_game):
        config, theta = two_firm_game
        # market 0: spell of 0.4 in state 0, firm 1 acts, spell of 0.6 in
        # state 2 until the horizon at t=1.
        log = make_log(markets=[0], horizon=[1.0], final_state=[2],
                       events=[(0, 1, 0, 0.4, 1, 1)])
        stats = SpellStats.from_events(log, config)
        assert stats.exposure[0] == pytest.approx(0.4)
        assert stats.exposure[2] == pytest.approx(0.6)
        assert stats.moves[1, 0] == 1
        assert stats.moves.sum() == 1
        assert stats.nature_moves.sum() == 0

    def test_transition_counts_shape(self, two_firm_game):
        config, theta = two_firm_game
        mpe = solve_mpe(theta, config, tol=1e-12)
        panel = sample_discrete(theta, mpe.ccp, config, 25, periods=2, seed=18)
        counts, n_markets = transition_counts(panel, config.n_states)
        assert counts.sum() == 50  # 2 transitions per market
        assert n_markets == 25
