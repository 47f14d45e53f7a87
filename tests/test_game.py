import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctgames import (
    GameConfig,
    InvalidArgumentError,
    Theta,
    decode_state,
    encode_state,
    instant_payoffs,
    nature_generator,
    state_tables,
)
from ctgames.game import flow_design_rows

from conftest import BENCH_THETA, benchmark_config
from oracles import flow_payoff


def flow_payoffs(theta, config):
    """(N, K) flow payoffs from the package's design rows, each entry checked
    against the scalar oracle."""
    u = flow_design_rows(config) @ theta.as_vector()
    for i, k in np.ndindex(u.shape):
        assert u[i, k] == pytest.approx(flow_payoff(theta, i, k, config), abs=1e-12)
    return u


class TestEncoding:
    def test_first_and_last_state(self):
        config = benchmark_config()
        assert encode_state(1, np.zeros(5, dtype=int), config) == 0
        assert encode_state(5, np.ones(5, dtype=int), config) == 159

    def test_hand_enumerated_index(self):
        # demand level 2 with only firm 1 active: (2-1)*32 + 1 = 33
        config = benchmark_config()
        assert encode_state(2, [1, 0, 0, 0, 0], config) == 33

    def test_round_trip_exhaustive(self):
        for config in [benchmark_config(), GameConfig(n_players=10, market_levels=4,
                                                      q_up=0.1, q_down=0.1)]:
            assert config.n_states <= 4096
            for k in range(config.n_states):
                demand, activity = decode_state(k, config)
                assert encode_state(demand, activity, config) == k

    @given(n_players=st.integers(1, 6), market_levels=st.integers(1, 6),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, n_players, market_levels, data):
        config = GameConfig(n_players=n_players, market_levels=market_levels,
                            q_up=0.2, q_down=0.2)
        k = data.draw(st.integers(0, config.n_states - 1))
        demand, activity = decode_state(k, config)
        assert encode_state(demand, activity, config) == k

    def test_rejects_bad_arguments(self):
        config = benchmark_config()
        with pytest.raises(InvalidArgumentError):
            encode_state(0, np.zeros(5), config)
        with pytest.raises(InvalidArgumentError):
            encode_state(6, np.zeros(5), config)
        with pytest.raises(InvalidArgumentError):
            encode_state(1, np.zeros(4), config)
        with pytest.raises(InvalidArgumentError):
            decode_state(160, config)


class TestContinuation:
    def test_entry_sets_bit(self):
        config = benchmark_config()
        k = encode_state(3, [1, 0, 1, 0, 0], config)
        target = state_tables(config).continuation[1, 1, k]
        demand, activity = decode_state(target, config)
        assert demand == 3
        assert list(activity) == [1, 1, 1, 0, 0]

    def test_continuation_choice_is_identity(self):
        config = benchmark_config()
        continuation = state_tables(config).continuation
        for k in range(config.n_states):
            assert continuation[0, 0, k] == k

    def test_toggle_is_involution_and_moves_one_bit(self):
        config = benchmark_config()
        continuation = state_tables(config).continuation
        for k in range(config.n_states):
            for i in range(config.n_players):
                target = continuation[i, 1, k]
                assert continuation[i, 1, target] == k
                d0, a0 = decode_state(k, config)
                d1, a1 = decode_state(target, config)
                assert d0 == d1
                assert int(np.sum(a0 != a1)) == 1
                assert a0[i] != a1[i]


class TestPayoffs:
    def test_monopoly_base_level(self):
        # demand level 1, no rivals: u = rs*1 + fc_1 = 1 - 1.9
        config = benchmark_config()
        theta = Theta(fc=(-1.9, -1.8, -1.7, -1.6, -1.5), rs=1.0, rn=1.0, ec=1.0)
        k = encode_state(1, [1, 0, 0, 0, 0], config)
        assert flow_payoffs(theta, config)[0, k] == pytest.approx(-0.9)

    def test_rival_independent_when_rn_zero(self):
        config = benchmark_config()
        theta = BENCH_THETA  # rn = 0
        ks = [encode_state(3, a, config) for a in
              ([1, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, 1, 0, 1, 0])]
        values = [flow_payoffs(theta, config)[0, k] for k in ks]
        assert values == pytest.approx([3.0 * theta.rs + theta.fc[0]] * 3)

    def test_crowded_market_value(self):
        # demand level 2 with 4 active rivals: u = 2 - ln 5 - 1.9
        config = benchmark_config()
        theta = Theta(fc=(-1.9, -1.8, -1.7, -1.6, -1.5), rs=1.0, rn=1.0, ec=1.0)
        k = encode_state(2, [1, 1, 1, 1, 1], config)
        assert flow_payoffs(theta, config)[0, k] == pytest.approx(2.0 - math.log(5) - 1.9)

    def test_inactive_firm_earns_no_flow(self):
        config = benchmark_config()
        theta = Theta(fc=(-1.9, -1.8, -1.7, -1.6, -1.5), rs=1.0, rn=1.0, ec=1.0)
        k = encode_state(4, [0, 1, 1, 0, 1], config)
        u = flow_payoffs(theta, config)
        assert u[0, k] == 0.0
        assert u[3, k] == 0.0

    def test_monotone_in_rival_count(self):
        # Strictly decreasing in rivals for an active firm when rn > 0; an
        # inactive firm's zero flow makes the overall map weakly decreasing.
        config = benchmark_config()
        theta = Theta(fc=(-1.9, -1.8, -1.7, -1.6, -1.5), rs=1.0, rn=1.0, ec=1.0)
        u = flow_payoffs(theta, config)
        for i in range(5):
            rivals, active = [], []
            for k in range(config.n_states):
                _, activity = decode_state(k, config)
                rivals.append(sum(activity) - activity[i])
                active.append(bool(activity[i]))
            rivals = np.array(rivals)
            active = np.array(active)
            same_demand = np.array([decode_state(k, config)[0] for k in
                                    range(config.n_states)]) == 3
            sel = active & same_demand
            order = np.argsort(rivals[sel])
            diffs = np.diff(u[i][sel][order])
            jumps = np.diff(rivals[sel][order])
            assert np.all(diffs[jumps > 0] < 0)
            assert np.all(u[i][~active] == 0.0)

    def test_entry_cost_only_on_entry(self):
        config = benchmark_config()
        theta = Theta(fc=(-1.9, -1.8, -1.7, -1.6, -1.5), rs=1.0, rn=0.0, ec=1.0)
        k_out = encode_state(1, [0, 0, 0, 0, 0], config)
        k_in = encode_state(1, [1, 0, 0, 0, 0], config)
        psi = instant_payoffs(theta, config)
        assert psi[0, 1, k_out] == pytest.approx(-1.0)
        assert psi[0, 0, k_out] == 0.0
        assert psi[0, 1, k_in] == 0.0


class TestNatureGenerator:
    def test_single_level_is_zero_matrix(self):
        config = GameConfig(n_players=2, market_levels=1, q_up=0.5, q_down=0.5)
        assert np.all(nature_generator(config) == 0)

    def test_rows_sum_to_zero_exactly(self):
        q = nature_generator(benchmark_config())
        assert np.abs(q.sum(axis=1)).max() == 0.0
        off = q.copy()
        np.fill_diagonal(off, 0)
        assert off.min() >= 0

    def test_birth_death_band_structure(self):
        config = benchmark_config(q_up=0.3, q_down=0.3)
        q = nature_generator(config)
        for k in range(config.n_states):
            demand, activity = decode_state(k, config)
            row = q[k].copy()
            row[k] = 0.0
            nonzero = np.nonzero(row)[0]
            expected = 1 if demand in (1, 5) else 2
            assert len(nonzero) == expected
            for target in nonzero:
                d2, a2 = decode_state(int(target), config)
                assert abs(d2 - demand) == 1
                assert np.array_equal(activity, a2)
                assert row[target] == pytest.approx(0.3)


class TestGameConfig:
    @pytest.mark.parametrize("field, value", [
        ("lam", math.inf), ("rho", math.inf), ("q_up", math.nan), ("q_down", math.inf),
        ("delta", math.inf)])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            benchmark_config(**{field: value})


class TestTheta:
    def test_vector_round_trip(self):
        theta = Theta(fc=(-1.9, -1.8, -1.7, -1.6, -1.5), rs=1.0, rn=2.0, ec=4.0)
        vec = theta.as_vector()
        assert vec.shape == (8,)
        assert Theta.from_vector(vec, 5) == theta

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            Theta(fc=(np.inf,), rs=1.0, rn=0.0, ec=1.0)
