import operator
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ctgames import CTGamesError, GameConfig, InvalidArgumentError, Theta, transition_matrix
from ctgames.equilibrium import aggregate_generator, solve_mpe, uniform_ccp
from ctgames.game import state_tables
from ctgames.likelihood import SpellStats
from ctgames.simulate import (
    NATURE,
    EventLog,
    Panel,
    descriptive_stats,
    sample_discrete,
    simulate_continuous,
    to_panel,
)

from conftest import DESK_THETA, desk_config
from oracles import post_state, write_event_log_csv


@pytest.fixture(scope="module")
def mini_game():
    """Two-firm, two-level game (K=8) with its solved equilibrium."""
    config = GameConfig(n_players=2, market_levels=2, lam=1.0, rho=0.05,
                        q_up=0.3, q_down=0.3)
    theta = Theta(fc=(-1.2, -0.9), rs=1.0, rn=1.0, ec=1.0)
    mpe = solve_mpe(theta, config, tol=1e-12)
    return config, theta, mpe.ccp


@pytest.fixture(scope="module")
def desk_game():
    config = desk_config()
    mpe = solve_mpe(DESK_THETA, config, tol=1e-12)
    return config, DESK_THETA, mpe.ccp


class TestSimulateContinuous:
    def test_rejects_non_equilibrium_ccp(self, mini_game):
        config, theta, _ = mini_game
        with pytest.raises(InvalidArgumentError):
            simulate_continuous(theta, uniform_ccp(config), config, 3, seed=1)

    def test_reproducible_bit_for_bit(self, mini_game):
        config, theta, ccp = mini_game
        a = simulate_continuous(theta, ccp, config, 50, seed=7, events_per_market=3)
        b = simulate_continuous(theta, ccp, config, 50, seed=7, events_per_market=3)
        assert np.array_equal(a.time, b.time)
        assert np.array_equal(a.pre_state, b.pre_state)
        assert np.array_equal(a.actor, b.actor)

    def test_times_increase_and_states_chain(self, mini_game):
        config, theta, ccp = mini_game
        log = simulate_continuous(theta, ccp, config, 20, seed=3, events_per_market=5)
        post = post_state(log, config)
        for m in range(log.n_markets):
            sel = np.nonzero(log.market_id == m)[0]
            assert np.all(np.diff(log.time[sel]) > 0)
            assert np.all(log.pre_state[sel][1:] == post[sel][:-1])
            assert log.final_state[m] == post[sel][-1]

    def test_holding_times_exponential(self, mini_game):
        # Spell lengths in a fixed state are Exponential(total hazard): check
        # the mean within 4 standard errors and a KS test at the 0.001 level
        # on 1e5 spells.
        config, theta, ccp = mini_game
        log = simulate_continuous(theta, ccp, config, 11000, seed=11,
                                  events_per_market=60)
        q = aggregate_generator(ccp, config)
        state = int(np.bincount(log.pre_state).argmax())
        hazard = -q[state, state]
        waits = []
        for m in range(log.n_markets):
            sel = np.nonzero(log.market_id == m)[0]
            times = np.concatenate([[0.0], log.time[sel]])
            spells = np.diff(times)
            waits.extend(spells[log.pre_state[sel] == state])
        waits = np.array(waits)
        assert len(waits) > 100000
        se = (1 / hazard) / np.sqrt(len(waits))
        assert abs(waits.mean() - 1 / hazard) < 4 * se
        assert stats.kstest(waits, "expon", args=(0, 1 / hazard)).pvalue > 0.001

    def test_event_type_shares_match_hazards(self, mini_game):
        config, theta, ccp = mini_game
        log = simulate_continuous(theta, ccp, config, 4000, seed=13,
                                  events_per_market=25)
        q0_rate = 0.3
        state = int(np.bincount(log.pre_state).argmax())
        sel = log.pre_state == state
        actors = log.actor[sel]
        n = sel.sum()
        hazards = np.concatenate([[q0_rate], config.lam * ccp[:, 1, state]])
        shares = hazards / (q0_rate + config.lam * ccp[:, 1, state].sum())
        counts = np.array([np.sum(actors == NATURE),
                           np.sum(actors == 0), np.sum(actors == 1)])
        for share, count in zip(shares, counts):
            se = np.sqrt(share * (1 - share) / n)
            assert abs(count / n - share) < 5 * se

    def test_horizon_mode_censors(self, mini_game):
        config, theta, ccp = mini_game
        log = simulate_continuous(theta, ccp, config, 30, seed=5, horizon=2.5)
        assert np.all(log.horizon == 2.5)
        assert np.all(log.time <= 2.5)


class TestSampleDiscrete:
    def test_tiny_interval_freezes_state(self, mini_game):
        config, theta, ccp = mini_game
        frozen = GameConfig(n_players=2, market_levels=2, lam=config.lam,
                            rho=config.rho, q_up=0.3, q_down=0.3, delta=1e-8)
        panel = sample_discrete(theta, ccp, frozen, 2000, periods=1, seed=2)
        states = panel.state.reshape(-1, 2)
        assert np.mean(states[:, 0] == states[:, 1]) > 1 - 1e-6

    def test_one_step_frequencies_match_transition_row(self, mini_game):
        config, theta, ccp = mini_game
        p = transition_matrix(aggregate_generator(ccp, config), config.delta)
        start = 3
        n = 200000
        panel = sample_discrete(theta, ccp, config, n, periods=1, seed=4,
                                init_state=start)
        nxt = panel.state.reshape(-1, 2)[:, 1]
        counts = np.bincount(nxt, minlength=config.n_states)
        for l in range(config.n_states):
            se = np.sqrt(max(p[start, l] * (1 - p[start, l]), 1e-12) / n)
            assert abs(counts[l] / n - p[start, l]) <= 4 * se + 1e-9

    def test_deterministic_given_seed(self, mini_game):
        config, theta, ccp = mini_game
        a = sample_discrete(theta, ccp, config, 100, periods=3, seed=9)
        b = sample_discrete(theta, ccp, config, 100, periods=3, seed=9)
        assert np.array_equal(a.state, b.state)


class TestContinuousDiscreteAgreement:
    def test_snapshot_transition_frequencies(self, mini_game):
        # Snapshot the event simulator at t = delta and compare against the
        # matrix-exponential law with a chi-squared test at the 0.001 level.
        config, theta, ccp = mini_game
        n_markets = 100000
        log = simulate_continuous(theta, ccp, config, n_markets, seed=21,
                                  horizon=config.delta)
        panel = to_panel(log, config, periods=1)
        states = panel.state.reshape(-1, 2)
        p = transition_matrix(aggregate_generator(ccp, config), config.delta)
        k_total = config.n_states
        table = np.zeros((k_total, k_total))
        np.add.at(table, (states[:, 0], states[:, 1]), 1)
        stat = 0.0
        dof = 0
        for k in range(k_total):
            row_n = table[k].sum()
            if row_n == 0:
                continue
            expected = row_n * p[k]
            mask = expected >= 5
            stat += ((table[k, mask] - expected[mask]) ** 2 / expected[mask]).sum()
            dof += mask.sum() - 1
        assert stat < stats.chi2.ppf(0.999, dof)


class TestSerialization:
    def test_event_log_round_trip(self, mini_game, tmp_path):
        config, theta, ccp = mini_game
        log = simulate_continuous(theta, ccp, config, 25, seed=17,
                                  events_per_market=4)
        path = tmp_path / "events.csv"
        log.to_csv(path)
        back = EventLog.from_csv(path)
        assert np.array_equal(log.market_id, back.market_id)
        assert np.array_equal(log.pre_state, back.pre_state)
        assert np.array_equal(log.actor, back.actor)
        assert np.array_equal(log.action, back.action)
        assert np.array_equal(log.time, back.time)  # lossless floats
        assert np.array_equal(log.final_state, back.final_state)
        assert np.array_equal(log.horizon, back.horizon)

    @pytest.mark.parametrize("kind", ["simulated", "event_free_markets", "header_only"])
    def test_event_log_bytes_match_csv_writer(self, mini_game, tmp_path, kind):
        config, theta, ccp = mini_game
        if kind == "simulated":
            log = simulate_continuous(theta, ccp, config, 25, seed=17, events_per_market=4)
        else:
            ids = [3, 0, 7] if kind == "event_free_markets" else []
            none = np.array([], dtype=np.int64)
            log = EventLog(market_id=none, index=none, pre_state=none,
                           time=np.array([]), actor=none, action=none,
                           markets=np.array(ids, dtype=np.int64),
                           horizon=np.linspace(0.1, 2.0, len(ids)) / 3,
                           final_state=np.arange(len(ids), dtype=np.int64))
        log.to_csv(tmp_path / "fast.csv")
        write_event_log_csv(log, tmp_path / "oracle.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_panel_round_trip(self, mini_game, tmp_path):
        config, theta, ccp = mini_game
        panel = sample_discrete(theta, ccp, config, 30, periods=2, seed=19)
        path = tmp_path / "panel.csv"
        panel.to_csv(path)
        back = Panel.from_csv(path)
        assert np.array_equal(panel.market_id, back.market_id)
        assert np.array_equal(panel.period, back.period)
        assert np.array_equal(panel.state, back.state)

    def test_header_checked_before_rows(self, tmp_path):
        # a headerless panel would lose its first row; an event log read as
        # a panel would fail only on its field count
        path = tmp_path / "data.csv"
        for text, header in (("0,0,3\n0,1,4\n", "'0', '0', '3'"),
                             ("market_id,n,k,t,actor,action\n0,1,3,0.5,-2,-1\n",
                              "'market_id', 'n', 'k', 't', 'actor', 'action'")):
            path.write_text(text)
            with pytest.raises(InvalidArgumentError,
                               match=rf"header \[{header}\], expected \['market_id', 'n', 'k'\]"):
                Panel.from_csv(path)


class TestDescriptiveStats:
    def test_constant_panel_flags_undefined_ar1(self, desk_game):
        config, _, _ = desk_game
        panel = Panel(market_id=np.zeros(4, dtype=np.int64),
                      period=np.arange(4, dtype=np.int64),
                      state=np.full(4, 7, dtype=np.int64))
        summary = descriptive_stats(panel, config)
        assert summary["avg_entrants"] == 0
        assert summary["avg_exits"] == 0
        assert summary["excess_turnover"] == 0
        assert np.isnan(summary["ar1"])

    def test_hand_built_two_market_panel(self):
        # Market 0: (d=1, a=[0,0]) -> (d=1, a=[1,0]): one entrant, no exit.
        # Market 1: (d=1, a=[1,1]) -> (d=1, a=[0,1]): one exit, no entrant.
        config = GameConfig(n_players=2, market_levels=2, q_up=0.1, q_down=0.1)
        states = [0, 1, 3, 2]
        panel = Panel(market_id=np.array([0, 0, 1, 1], dtype=np.int64),
                      period=np.array([0, 1, 0, 1], dtype=np.int64),
                      state=np.array(states, dtype=np.int64))
        summary = descriptive_stats(panel, config)
        assert summary["avg_entrants"] == pytest.approx(0.5)
        assert summary["avg_exits"] == pytest.approx(0.5)
        # each transition has |entrants - exits| = 1, so no excess churn
        assert summary["excess_turnover"] == pytest.approx(0.0)
        assert summary["avg_active"] == pytest.approx(1.0)
        assert summary["activity_prob"] == pytest.approx([0.5, 0.5])

    def test_empty_panel_rejected(self, desk_game):
        config, _, _ = desk_game
        empty = Panel(market_id=np.array([], dtype=np.int64),
                      period=np.array([], dtype=np.int64),
                      state=np.array([], dtype=np.int64))
        with pytest.raises(InvalidArgumentError):
            descriptive_stats(empty, config)

    def test_benchmark_descriptive_row(self):
        # Published steady-state row of the five-firm benchmark at its
        # strategic-interaction-free setting: avg active 3.7107 (1.4427),
        # AR(1) 0.8012, entrants 0.3783, excess turnover 0.2025.
        from conftest import benchmark_config, BENCH_THETA

        config = benchmark_config()
        mpe = solve_mpe(BENCH_THETA, config, tol=1e-12)
        panel = sample_discrete(BENCH_THETA, mpe.ccp, config, 1000,
                                periods=200, seed=29)
        s = descriptive_stats(panel, config)
        assert s["avg_active"] == pytest.approx(3.7107, abs=0.05)
        assert s["sd_active"] == pytest.approx(1.4427, abs=0.03)
        assert s["ar1"] == pytest.approx(0.8012, abs=0.02)
        assert s["avg_entrants"] == pytest.approx(0.3783, abs=0.02)
        assert s["avg_exits"] == pytest.approx(0.3779, abs=0.02)
        assert s["excess_turnover"] == pytest.approx(0.2025, abs=0.02)
        assert abs(s["corr_entry_exit"]) < 0.03
        assert np.abs(s["activity_prob"]
                      - [0.7030, 0.7237, 0.7449, 0.7602, 0.7790]).max() < 0.02

    def test_desk_steady_state_moments(self, desk_game):
        # Long stationary panel: activity frequencies must match the exact
        # stationary distribution within Monte Carlo tolerance.
        config, theta, ccp = desk_game
        from ctgames import stationary_distribution

        panel = sample_discrete(theta, ccp, config, 400, periods=100, seed=23)
        summary = descriptive_stats(panel, config)
        pi = stationary_distribution(aggregate_generator(ccp, config))
        tables = state_tables(config)
        exact_avg = pi @ tables.activity.sum(axis=1)
        exact_prob = pi @ tables.activity
        assert summary["avg_active"] == pytest.approx(exact_avg, abs=0.05)
        assert np.abs(summary["activity_prob"] - exact_prob).max() < 0.03


# ---------------------------------------------------------------------------
# Market-segmented readers against per-market loop oracles

# delta = 0.3 is inexact in binary, so event times on the lattice (i * delta)
# or one ulp past it test the exact "time <= n * delta" comparison
SEGMENT_CONFIG = GameConfig(n_players=2, market_levels=2, q_up=0.3, q_down=0.3,
                            delta=0.3)


@st.composite
def event_logs(draw, config=SEGMENT_CONFIG):
    """Valid event logs: distinct market ids in any order, zero-event
    markets, event times on and off the lattice, horizons at or after the
    last event (zero-length final spells included)."""
    k_total, n = config.n_states, config.n_players
    ids = draw(st.lists(st.integers(0, 40), unique=True, max_size=6))
    lattice = st.integers(0, 30).map(lambda i: i * config.delta)
    times_of = st.one_of(lattice, lattice.map(lambda t: float(np.nextafter(t, np.inf))),
                         st.floats(0.0, 8.0, allow_nan=False))
    columns = {name: [] for name in ("market_id", "index", "pre_state", "time",
                                     "actor", "action")}
    horizon, final_state = [], []
    for m in ids:
        times = sorted(draw(st.lists(times_of, max_size=5)))
        for j, t in enumerate(times, 1):
            actor = draw(st.integers(NATURE, n - 1))
            columns["market_id"].append(m)
            columns["index"].append(j)
            columns["pre_state"].append(draw(st.integers(0, k_total - 1)))
            columns["time"].append(t)
            columns["actor"].append(actor)
            columns["action"].append(draw(st.integers(0, k_total - 1))
                                     if actor == NATURE else 1)
        tail = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0, allow_nan=False)))
        horizon.append((times[-1] if times else 0.0) + tail)
        final_state.append(draw(st.integers(0, k_total - 1)))
    arrays = {name: np.array(values, dtype=float if name == "time" else np.int64)
              for name, values in columns.items()}
    return EventLog(**arrays, markets=np.array(ids, dtype=np.int64),
                    horizon=np.array(horizon, dtype=float),
                    final_state=np.array(final_state, dtype=np.int64))


@st.composite
def panels(draw):
    ids = draw(st.lists(st.integers(-5, 40), unique=True, max_size=6))
    market_id, period, state = [], [], []
    for m in ids:
        periods = sorted(draw(st.lists(st.integers(-3, 30), unique=True, max_size=6)))
        market_id += [m] * len(periods)
        period += periods
        state += draw(st.lists(st.integers(-2**40, 2**40), min_size=len(periods),
                               max_size=len(periods)))
    return Panel(market_id=np.array(market_id, dtype=np.int64),
                 period=np.array(period, dtype=np.int64),
                 state=np.array(state, dtype=np.int64))


def spell_stats_oracle(events, config):
    """Per-market loop over an explicit `market_id == m` selection."""
    k_total = config.n_states
    exposure = np.zeros(k_total)
    moves = np.zeros((config.n_players, k_total))
    nature_moves = np.zeros((k_total, k_total))
    for pos, m in enumerate(events.markets):
        sel = np.nonzero(events.market_id == m)[0]
        edges = np.concatenate([[0.0], events.time[sel], [events.horizon[pos]]])
        states = np.concatenate([events.pre_state[sel], [events.final_state[pos]]])
        for state, length in zip(states, np.diff(edges)):
            exposure[state] += max(length, 0.0)
        for row in sel:
            k = events.pre_state[row]
            if events.actor[row] == NATURE:
                nature_moves[k, events.action[row]] += 1
            else:
                moves[events.actor[row], k] += 1
    return exposure, moves, nature_moves


def to_panel_oracle(events, config, periods=None):
    """Per-market, per-snapshot search of the market's event times."""
    rows = []
    for pos, m in enumerate(events.markets):
        sel = events.market_id == m
        times, pres = events.time[sel], events.pre_state[sel]
        n_max = (periods if periods is not None
                 else int(np.floor(events.horizon[pos] / config.delta + 1e-12)))
        for n in range(n_max + 1):
            after = np.searchsorted(times, n * config.delta, side="right")
            state = pres[after] if after < len(pres) else events.final_state[pos]
            rows.append((m, n, state))
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


class TestSegmentedReaders:
    @given(events=event_logs())
    @settings(max_examples=150)
    def test_spell_stats_match_per_market_loop(self, events):
        stats = SpellStats.from_events(events, SEGMENT_CONFIG)
        exposure, moves, nature_moves = spell_stats_oracle(events, SEGMENT_CONFIG)
        np.testing.assert_allclose(stats.exposure, exposure, rtol=1e-12, atol=0)
        assert np.array_equal(stats.moves, moves)
        assert np.array_equal(stats.nature_moves, nature_moves)
        assert stats.n_markets == events.n_markets

    @given(events=event_logs(), periods=st.sampled_from([None, 0, 1, 3]))
    @settings(max_examples=150)
    def test_to_panel_matches_per_market_loop(self, events, periods):
        panel = to_panel(events, SEGMENT_CONFIG, periods=periods)
        expected = to_panel_oracle(events, SEGMENT_CONFIG, periods)
        got = np.column_stack([panel.market_id, panel.period, panel.state])
        assert np.array_equal(got.reshape(-1, 3), expected)
        assert all(a.dtype == np.int64 for a in (panel.market_id, panel.period, panel.state))

    @given(events=event_logs())
    @settings(max_examples=60)
    def test_event_log_csv_round_trip_exact(self, events, csv_dir):
        path = csv_dir / "events.csv"
        events.to_csv(path)
        back = EventLog.from_csv(path)
        for f in fields(EventLog):
            original, loaded = getattr(events, f.name), getattr(back, f.name)
            assert np.array_equal(original, loaded) and original.dtype == loaded.dtype
        assert np.array_equal(events.offsets, back.offsets)

    @given(events=event_logs())
    @settings(max_examples=60)
    def test_event_log_csv_bytes_match_csv_writer(self, events, csv_dir):
        events.to_csv(csv_dir / "fast.csv")
        write_event_log_csv(events, csv_dir / "oracle.csv")
        assert (csv_dir / "fast.csv").read_bytes() == (csv_dir / "oracle.csv").read_bytes()

    @given(panel=panels())
    @settings(max_examples=60)
    def test_panel_csv_round_trip_exact(self, panel, csv_dir):
        path = csv_dir / "panel.csv"
        panel.to_csv(path)
        back = Panel.from_csv(path)
        for f in fields(Panel):
            original, loaded = getattr(panel, f.name), getattr(back, f.name)
            assert np.array_equal(original, loaded) and original.dtype == loaded.dtype

    @given(text=st.one_of(
        st.text(alphabet="0123456789-+.,eEnaif x\"#\r\n\t", max_size=300),
        st.builds(operator.add, st.sampled_from(["market_id,n,k,t,actor,action\n",
                                                "market_id,n,k\n"]),
                  st.text(alphabet="0123456789-.,e\n", max_size=200)),
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=100)))
    @settings(max_examples=300)
    def test_loaders_raise_only_package_errors(self, text, csv_dir):
        path = csv_dir / "fuzz.csv"
        path.write_text(text, encoding="utf-8")
        for loader in (EventLog.from_csv, Panel.from_csv):
            try:
                loader(path)
            except CTGamesError:
                pass


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


class TestDataInvariants:
    @pytest.mark.parametrize("change, message", [
        (dict(market_id=np.array([0, 1, 0]), index=np.array([1, 1, 2])), "contiguous"),
        (dict(markets=np.array([1, 0]), market_id=np.array([0, 0, 1]),
              horizon=np.array([3.0, 3.0])), "market order"),
        (dict(market_id=np.array([0, 0, 2])), "censor row"),
        (dict(time=np.array([1.0, 0.5, 1.0])), "nondecreasing"),
        (dict(time=np.array([-1.0, 0.5, 1.0])), "nonnegative"),
        (dict(horizon=np.array([0.9, 3.0])), "horizon"),
        (dict(actor=np.array([0, 1])), "one length"),
        (dict(markets=np.array([0, 0])), "distinct"),
    ])
    def test_event_log_rejected_at_construction(self, change, message):
        fields_ = dict(market_id=np.array([0, 0, 1]), index=np.array([1, 2, 1]),
                       pre_state=np.array([0, 1, 2]), time=np.array([0.5, 1.0, 0.2]),
                       actor=np.array([0, NATURE, 1]), action=np.array([1, 3, 1]),
                       markets=np.array([0, 1]), horizon=np.array([2.0, 3.0]),
                       final_state=np.array([3, 0]))
        fields_.update(change)
        with pytest.raises(InvalidArgumentError, match=message):
            EventLog(**fields_)

    @pytest.mark.parametrize("actor, action, pre_state", [
        (2, 1, 0), (-2, 1, 0), (0, 0, 0), (NATURE, 8, 0), (NATURE, -1, 0), (0, 1, 8),
    ])
    def test_event_indices_checked_by_readers(self, actor, action, pre_state):
        log = EventLog(market_id=np.array([0]), index=np.array([1]),
                       pre_state=np.array([pre_state]), time=np.array([0.5]),
                       actor=np.array([actor]), action=np.array([action]),
                       markets=np.array([0]), horizon=np.array([1.0]),
                       final_state=np.array([0]))
        for reader in (SpellStats.from_events, to_panel, post_state):
            with pytest.raises(InvalidArgumentError):
                reader(log, SEGMENT_CONFIG)

    @pytest.mark.parametrize("market_id, period, message", [
        ([0, 1, 0], [0, 0, 1], "contiguous"),
        ([0, 0, 1], [1, 1, 0], "strictly increase"),
        ([0, 0, 1], [2, 1, 0], "strictly increase"),
        ([0, 0], [0, 1, 2], "one length"),
    ])
    def test_panel_rejected_at_construction(self, market_id, period, message):
        with pytest.raises(InvalidArgumentError, match=message):
            Panel(market_id=np.array(market_id), period=np.array(period),
                  state=np.zeros(3, dtype=np.int64))
