import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctgames import GameConfig, InvalidArgumentError, Theta, nature_generator
from ctgames.equilibrium import (
    action_rate_gradient,
    aggregate_generator,
    best_response_map,
    solve_mpe,
    uniform_ccp,
)
from ctgames.estimate import central_difference_gradient
from ctgames.likelihood import (
    SpellStats,
    TransitionCounts,
    loglik_discrete,
    sufficient_statistics,
    transition_counts,
)
from ctgames.markov import transition_matrix_pullback
from ctgames.simulate import CENSOR, NATURE, EventLog, sample_discrete, simulate_continuous

from conftest import DESK_THETA, desk_config
from oracles import dense_snapshot_scores, spell_stats_by_spell_rows


def make_log(rows=()):
    """Tiny hand-built event log; ``rows`` are (market, n, k, t, actor,
    action) rows of the CSV file, censor rows included, whose counter n the
    log derives itself."""
    rows = np.array(rows, dtype=float).reshape(-1, 6)
    return EventLog(market_id=rows[:, 0].astype(np.int64), state=rows[:, 2].astype(np.int64),
                    time=rows[:, 3], actor=rows[:, 4].astype(np.int64),
                    action=rows[:, 5].astype(np.int64))


@pytest.fixture(scope="module")
def two_firm_game():
    config = GameConfig(n_players=2, market_levels=2, lam=1.0, rho=0.05,
                        q_up=0.3, q_down=0.3)
    theta = Theta(fc=(-1.2, -0.9), rs=1.0, rn=1.0, ec=1.0)
    return config, theta


class TestContinuous:
    def test_empty_log_is_zero(self, two_firm_game):
        config, _ = two_firm_game
        log = make_log([(0, 1, 0, 0.0, CENSOR, -1)])
        assert SpellStats.from_events(log, config).loglik(uniform_ccp(config)) == 0.0

    def test_pure_survival_spell(self, two_firm_game):
        config, _ = two_firm_game
        ccp = uniform_ccp(config)
        k, tau = 2, 1.7
        log = make_log([(0, 1, k, tau, CENSOR, -1)])
        total_hazard = -nature_generator(config)[k, k] + config.lam * ccp[:, 1, k].sum()
        expected = -tau * total_hazard
        assert SpellStats.from_events(log, config).loglik(ccp) == pytest.approx(expected)

    def test_single_action_hand_value(self, two_firm_game):
        # Total hazard 1.4 = nature 0.3 + firm moves 0.4 + 0.7; firm 0 acts
        # at tau = 0.5: loglik = -0.5 * 1.4 + ln(0.4).
        config, _ = two_firm_game
        ccp = np.zeros((2, 2, config.n_states))
        ccp[0, 1], ccp[1, 1] = 0.4, 0.7
        ccp[:, 0] = 1 - ccp[:, 1]
        k = 0  # demand level 1: only q_up = 0.3 active
        log = make_log([(0, 1, k, 0.5, 0, 1), (0, 2, 1, 0.5, CENSOR, -1)])
        value = SpellStats.from_events(log, config).loglik(ccp)
        assert value == pytest.approx(-0.5 * 1.4 + math.log(0.4), abs=1e-12)

    def test_nature_move_hand_value(self, two_firm_game):
        # Nature moves demand up (rate 0.3) out of state 0 at t = 0.5 into
        # state 4; at uniform ccps both states exit at 0.3 + 2 * 0.5 = 1.3.
        config, _ = two_firm_game
        log = make_log([(0, 1, 0, 0.5, NATURE, 4), (0, 2, 4, 1.0, CENSOR, -1)])
        parts = SpellStats.from_events(log, config).loglik_parts(uniform_ccp(config))
        assert parts == pytest.approx((0.0, math.log(0.3), -1.3), abs=1e-12)

    def test_evaluations_reuse_the_nature_term(self, two_firm_game, monkeypatch):
        # nature's rates do not depend on the ccps: built once per statistic
        from ctgames import game

        config, theta = two_firm_game
        mpe = solve_mpe(theta, config, tol=1e-12)
        log = simulate_continuous(theta, mpe.ccp, config, 40, seed=3,
                                  events_per_market=5)
        stats = SpellStats.from_events(log, config)
        first = stats.value_and_gradient(mpe.ccp)

        def forbidden(config):
            raise AssertionError("nature generator rebuilt")

        monkeypatch.setattr(game, "nature_generator", forbidden)
        again = stats.value_and_gradient(mpe.ccp)
        assert again[0] == first[0] and np.array_equal(again[1], first[1])
        assert stats.loglik(uniform_ccp(config)) < first[0]

    def test_decomposition_and_parts(self, two_firm_game):
        config, theta = two_firm_game
        mpe = solve_mpe(theta, config, tol=1e-12)
        log = simulate_continuous(theta, mpe.ccp, config, 40, seed=3,
                                  events_per_market=5)
        stats = SpellStats.from_events(log, config)
        parts = stats.loglik_parts(mpe.ccp)
        total = stats.loglik(mpe.ccp)
        assert total == pytest.approx(sum(parts), rel=1e-12)
        assert np.isfinite(total)

    def test_additive_over_markets(self, two_firm_game):
        config, theta = two_firm_game
        mpe = solve_mpe(theta, config, tol=1e-12)
        log = simulate_continuous(theta, mpe.ccp, config, 30, seed=9,
                                  events_per_market=2)

        def restrict(ids):
            sel = np.isin(log.market_id, ids)
            return EventLog(**{f.name: getattr(log, f.name)[sel]
                               for f in dataclasses.fields(EventLog)})

        def loglik(events):
            return SpellStats.from_events(events, config).loglik(mpe.ccp)

        first, second = restrict(np.arange(12)), restrict(np.arange(12, 30))
        total = loglik(log) * 30
        split = loglik(first) * 12 + loglik(second) * 18
        assert total == pytest.approx(split, rel=1e-12)

    def test_impossible_nature_transition_flags_domain(self, two_firm_game):
        # Nature recorded toggling an activity bit: hazard is zero there.
        config, _ = two_firm_game
        k0 = 0
        log = make_log([(0, 1, k0, 0.4, NATURE, 1), (0, 2, 1, 1.0, CENSOR, -1)])
        value = SpellStats.from_events(log, config).loglik(uniform_ccp(config))
        assert value == -np.inf


class TestDiscrete:
    def test_zero_interval_identity(self, two_firm_game):
        config, theta = two_firm_game
        mpe = solve_mpe(theta, config, tol=1e-12)
        panel = sample_discrete(theta, mpe.ccp, config, 20, periods=2, seed=5)
        frozen = type(panel)(market_id=panel.market_id, period=panel.period,
                             state=np.repeat(panel.state.reshape(-1, 3)[:, :1], 3, axis=1).reshape(-1))
        instant = dataclasses.replace(config, delta=1e-20)
        assert loglik_discrete(theta, mpe.ccp, frozen, instant) == 0.0

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
            return central_difference_gradient(
                lambda x: loglik_discrete(Theta.from_vector(x, 3), mpe.ccp, panel, config),
                vec, h)

        g1, g2 = grad(1e-4), grad(5e-5)
        assert np.abs(g1 - g2).max() < 1e-6 * max(1.0, np.abs(g1).max())

    def test_clamp_counter_exposed(self, two_firm_game):
        config, theta = two_firm_game
        mpe = solve_mpe(theta, config, tol=1e-12)
        panel = sample_discrete(theta, mpe.ccp, config, 10, periods=1, seed=16)
        br = best_response_map(theta, mpe.ccp, config)
        assert TransitionCounts.from_panel(panel, config).value_and_gradient(br)[2] == 0


def check_observed_entry_scoring(stats, ccp_br):
    """`TransitionCounts` against the dense formula over all K^2 entries at
    ``ccp_br``: value within 1e-13 relative, gradient within 1e-12 and the
    same clamp count.  Returns the count."""
    config = stats.config
    p, pullback = transition_matrix_pullback(aggregate_generator(ccp_br, config), config.delta)
    value, g, clamped = dense_snapshot_scores(stats.counts, stats.n_markets, p)
    grad = config.lam * action_rate_gradient(pullback(g), config)
    got_value, got_grad, got_clamped = stats.value_and_gradient(ccp_br)
    assert got_value == stats.loglik(ccp_br)
    assert abs(got_value - value) <= 1e-13 * abs(value)
    assert np.abs(got_grad - grad).max() <= 1e-12 * np.abs(grad).max()
    assert got_clamped == clamped
    return clamped


@pytest.fixture(scope="module")
def desk_equilibrium():
    config = desk_config()
    return config, solve_mpe(DESK_THETA, config, tol=1e-13).ccp


class TestObservedEntryScoring:
    @given(n_markets=st.integers(1, 400), periods=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_matches_dense_formula(self, desk_equilibrium, n_markets, periods, seed):
        config, ccp_star = desk_equilibrium
        panel = sample_discrete(DESK_THETA, ccp_star, config, n_markets, periods=periods,
                                seed=seed)
        probs = np.random.default_rng(seed).uniform(0.05, 0.95, size=ccp_star[:, 1].shape)
        stats = TransitionCounts.from_panel(panel, config)
        assert check_observed_entry_scoring(stats, np.stack([1 - probs, probs], axis=1)) == 0

    def test_clamped_transition_counted(self, two_firm_game):
        # test_clamp_counter_exposed's panel plus one jump across all three
        # coordinates, scored over a horizon on which that jump's probability
        # is far below LOG_FLOOR
        config, theta = two_firm_game
        mpe = solve_mpe(theta, config, tol=1e-12)
        panel = sample_discrete(theta, mpe.ccp, config, 10, periods=1, seed=16)
        br = best_response_map(theta, mpe.ccp, config)
        counts, n_markets = transition_counts(panel, config.n_states)
        counts[0, config.n_states - 1] += 1.0
        stats = TransitionCounts(counts, n_markets, dataclasses.replace(config, delta=1e-120))
        assert check_observed_entry_scoring(stats, br) >= 1


class TestSpellStats:
    def test_exposure_and_counts(self, two_firm_game):
        config, theta = two_firm_game
        # market 0: spell of 0.4 in state 0, firm 1 acts, spell of 0.6 in
        # state 2 until the horizon at t=1.
        log = make_log([(0, 1, 0, 0.4, 1, 1), (0, 2, 2, 1.0, CENSOR, -1)])
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

    def test_log_without_observation_time_is_rejected(self, two_firm_game):
        # every market is censored at t = 0: no spell has any length, so the
        # data say nothing about any hazard
        config, _ = two_firm_game
        log = make_log([(0, 1, 0, 0.0, CENSOR, -1), (1, 1, 3, 0.0, CENSOR, -1)])
        with pytest.raises(InvalidArgumentError, match="no observation time"):
            sufficient_statistics(log, config)


# K = 8: two firms, two demand levels
SPELL_CONFIG = GameConfig(n_players=2, market_levels=2, lam=1.0, rho=0.05,
                          q_up=0.3, q_down=0.3)
K_SPELL = SPELL_CONFIG.n_states
# an event: (gap since the previous event, actor, pre-state, nature's destination)
_event = st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                   st.integers(NATURE, SPELL_CONFIG.n_players - 1),
                   st.integers(0, K_SPELL - 1), st.integers(0, K_SPELL - 1))
# a market: its events, the censored tail after the last one, its final state
_market = st.tuples(st.lists(_event, max_size=5),
                    st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                    st.integers(0, K_SPELL - 1))


def build_log(markets):
    """`EventLog` of markets drawn by ``_market``, market m with id ``3 m``."""
    rows = []
    for m, (events, tail, final) in enumerate(markets):
        t = 0.0
        for n, (gap, actor, pre, destination) in enumerate(events, start=1):
            t += gap
            rows.append((3 * m, n, pre, t, actor, destination if actor == NATURE else 1))
        rows.append((3 * m, len(events) + 1, final, t + tail, CENSOR, -1))
    return make_log(rows)


# the faults an out-of-range test draws into a log
_FAULTS = ["event_state", "censor_state", "actor", "destination", "player_action"]


class TestOnePassReduction:
    @given(markets=st.lists(_market, max_size=6))
    @settings(max_examples=100)
    def test_matches_spell_rows(self, markets):
        log = build_log(markets)
        stats = SpellStats.from_events(log, SPELL_CONFIG)
        oracle = spell_stats_by_spell_rows(log, SPELL_CONFIG)
        assert np.array_equal(stats.moves, oracle.moves)
        assert np.array_equal(stats.nature_moves, oracle.nature_moves)
        # the same spell lengths, summed in the same order
        assert np.array_equal(stats.exposure, oracle.exposure)
        assert stats.n_markets == oracle.n_markets

    @given(markets=st.lists(_market, min_size=1, max_size=4).filter(
               lambda ms: any(events for events, _, _ in ms)),
           fields=st.sampled_from([(a, b) for a in _FAULTS for b in _FAULTS + [None] if a != b]),
           values=st.lists(st.sampled_from([-7, -2, K_SPELL, 99]), min_size=2, max_size=2),
           draws=st.lists(st.integers(0, 20), min_size=2, max_size=2))
    @example(markets=[([(0.5, 0, 1, 1)], 1.0, 3)], fields=("actor", "event_state"),
             values=[99, K_SPELL], draws=[0, 0])
    @example(markets=[([(0.5, 0, 1, 1), (0.2, 1, 2, 1)], 1.0, 3)],
             fields=("player_action", "destination"), values=[-7, 99], draws=[0, 1])
    @settings(max_examples=100)
    def test_out_of_range_raises_as_before(self, markets, fields, values, draws):
        # one fault or two of different kinds, each on a drawn event row, so
        # that which check a log fails first is pinned as well as each message
        log = build_log(markets)
        events = np.flatnonzero(log.actor != CENSOR)
        for field, value, draw in zip(fields, values, draws):
            if field is None:
                continue
            event = events[draw % len(events)]
            if field == "event_state":
                log.state[event] = value
            elif field == "censor_state":
                log.state[log.offsets[1] - 1] = value
            elif field == "actor":
                log.actor[event] = value
            elif field == "destination":
                log.actor[event], log.action[event] = NATURE, value
            else:
                log.actor[event], log.action[event] = 0, value
        if np.count_nonzero(log.actor == CENSOR) > log.n_markets:
            # a censor row inside a market splits it in two markets of one id
            with pytest.raises(InvalidArgumentError, match="distinct"):
                EventLog(**{f.name: getattr(log, f.name) for f in dataclasses.fields(EventLog)})
            return
        with pytest.raises(InvalidArgumentError) as oracle:
            spell_stats_by_spell_rows(log, SPELL_CONFIG)
        with pytest.raises(InvalidArgumentError) as raised:
            SpellStats.from_events(log, SPELL_CONFIG)
        assert str(raised.value) == str(oracle.value)
