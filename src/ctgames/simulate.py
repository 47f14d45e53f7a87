"""Simulation of continuous-time event data and discretely sampled panels.

Markets are simulated independently, each from its own random stream spawned
off the master seed, so output is reproducible bit-for-bit and markets may
be generated in any order.  Only state-changing events are recorded:
continuation decisions (choice 0) are invisible to an observer of the state
path and never enter the event log.

`EventLog` and `Panel` are the only place that knows how a dataset splits
into markets.  Each checks its invariants when it is built, whether by a
simulator or by a CSV loader (which first checks the file's header row
against the column names): array lengths agree, every market's rows are
contiguous (in ``markets`` order for an event log, whose events all belong
to a listed market), event times are finite, nonnegative and nondecreasing
within a market and end by its horizon, and panel periods strictly increase
within a market.  The market boundaries are kept as ``offsets`` (market m
owns rows ``offsets[m]:offsets[m + 1]``), so every reader runs in time
linear in rows plus markets.  Indices that depend on the game -- states,
actors, actions -- are checked by ``check_ranges``, which every reader that
takes the game configuration calls first.  Any violation raises
`InvalidArgumentError`.
"""

import csv
import warnings
from bisect import bisect_left
from dataclasses import dataclass, fields

import numpy as np

from . import game, markov
from .equilibrium import aggregate_generator, best_response_map, check_ccp
from .errors import InvalidArgumentError

# Actor codes used in event records and their CSV serialization.
NATURE = -1
CENSOR = -2

# A simulator refuses choice probabilities farther than this from equilibrium.
EQUILIBRIUM_RESIDUAL_TOL = 1e-6

# Rows converted to Python objects at a time when an event log is written.
CSV_BLOCK_ROWS = 8192

# The columns of the event-log and panel CSV files, in order, and their types.
EVENT_COLUMNS = {"market_id": np.int64, "n": np.int64, "k": np.int64, "t": np.float64,
                 "actor": np.int64, "action": np.int64}
PANEL_COLUMNS = {"market_id": np.int64, "n": np.int64, "k": np.int64}


def _require(ok, message):
    if not ok:
        raise InvalidArgumentError(message)


def _within(values, upper):
    """True when every entry lies in [0, ``upper``)."""
    return values.size == 0 or (values.min() >= 0 and values.max() < upper)


def _as_arrays(data):
    """Turn every field into a one-dimensional array; returns their lengths."""
    for f in fields(data):
        setattr(data, f.name, np.asarray(getattr(data, f.name)))
    _require(all(getattr(data, f.name).ndim == 1 for f in fields(data)),
             "data arrays must be one-dimensional")
    return [len(getattr(data, f.name)) for f in fields(data)]


def _read_columns(path, columns):
    """Columns of a CSV data file whose header row lists the names of the
    dict ``columns``, parsed as its types.

    An unreadable file, another header, a row with another field count, or a
    field that does not parse raises `InvalidArgumentError`.
    """
    try:
        with open(path) as handle:
            header = [name.strip() for name in handle.readline().split(",")]
        _require(header == list(columns),
                 f"data file {path} has header {header}, expected {list(columns)}")
        with warnings.catch_warnings():
            # a header-only file is a valid empty dataset
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # from the path, which NumPy parses faster than a Python file object
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1,
                               dtype=list(columns.items()))
    except InvalidArgumentError:
        raise
    except (OSError, ValueError) as err:
        raise InvalidArgumentError(f"cannot read data file {path}: {err}") from None
    return [table[name] for name in columns]


@dataclass
class EventLog:
    """Continuous-time event records plus per-market censoring information.

    Event arrays (one entry per recorded state change):

    - ``market_id``, ``index`` : market and 1-based event counter
    - ``pre_state`` : state the market was in when the event fired
    - ``time`` : absolute event time
    - ``actor`` : ``NATURE`` (-1) or a player index
    - ``action`` : the player's choice (always 1; choice 0 is unobservable)
      or, for nature, the destination state

    Market arrays (one entry per market): ``markets``, ``horizon`` (the
    censoring time), and ``final_state`` (state held at the censoring time).
    Each market's events are contiguous and in ``markets`` order; the derived
    ``offsets`` (length ``n_markets + 1``) bound them.
    """

    market_id: np.ndarray
    index: np.ndarray
    pre_state: np.ndarray
    time: np.ndarray
    actor: np.ndarray
    action: np.ndarray
    markets: np.ndarray
    horizon: np.ndarray
    final_state: np.ndarray

    def __post_init__(self):
        lengths = _as_arrays(self)
        _require(len(set(lengths[:6])) == 1 and len(set(lengths[6:])) == 1,
                 "event arrays and market arrays must each share one length")
        _require(len(np.unique(self.markets)) == self.n_markets, "market ids must be distinct")
        _require(self.n_markets or not self.n_events, "events need a listed market")
        # position in `markets` of every event's market
        order = np.argsort(self.markets)
        at = np.searchsorted(self.markets[order], self.market_id)
        at = order[np.minimum(at, max(self.n_markets - 1, 0))]
        unlisted = self.market_id[self.markets[at] != self.market_id]
        _require(not unlisted.size, f"markets {unlisted[:3].tolist()} have events but are not "
                                    f"listed (no censor row)")
        _require(np.all(at[1:] >= at[:-1]),
                 "each market's events must be contiguous and in market order")
        self.offsets = np.concatenate([[0], np.cumsum(np.bincount(at, minlength=self.n_markets))])

        same = at[1:] == at[:-1]
        _require(np.all(np.isfinite(self.time)) and np.all(self.time >= 0)
                 and np.all(self.time[1:][same] >= self.time[:-1][same]),
                 "event times must be finite, nonnegative and nondecreasing within a market")
        last = np.zeros(self.n_markets)
        busy = self.offsets[1:] > self.offsets[:-1]
        last[busy] = self.time[self.offsets[1:][busy] - 1]
        _require(np.all(np.isfinite(self.horizon)) and np.all(self.horizon >= last),
                 "each horizon must be finite and at least its market's last event time")

    @property
    def n_events(self):
        return len(self.market_id)

    @property
    def n_markets(self):
        return len(self.markets)

    def check_ranges(self, config):
        """Raise `InvalidArgumentError` unless every index fits the game.

        States must lie in [0, K), actors be ``NATURE`` or a player in
        [0, N), nature's destinations be states and player actions be 1.
        """
        k_total, n = config.n_states, config.n_players
        nature = self.actor == NATURE
        _require(_within(self.pre_state, k_total) and _within(self.final_state, k_total),
                 f"event states must lie in [0, {k_total})")
        _require(_within(self.actor[~nature], n),
                 f"event actors must be nature ({NATURE}) or a player in [0, {n})")
        _require(_within(self.action[nature], k_total),
                 f"nature's destinations must lie in [0, {k_total})")
        _require(np.all(self.action[~nature] == 1), "player actions must be 1")

    def spell_rows(self):
        """(event rows, final-spell rows) when each market's events are
        followed by its censored final spell, as in the CSV file."""
        markets = np.arange(self.n_markets)
        event_rows = np.arange(self.n_events) + np.repeat(markets, np.diff(self.offsets))
        return event_rows, self.offsets[1:] + markets

    def to_csv(self, path):
        """Write one row per event plus a terminal censor row per market.

        Columns are ``market_id, n, k, t, actor, action``; the censor row
        has ``actor = -2``, ``k`` the final state, ``t`` the censoring time
        and ``action = -1``.  Times round-trip losslessly (17 significant
        digits).
        """
        event_rows, final_rows = self.spell_rows()

        def column(events, finals):
            out = np.empty(self.n_events + self.n_markets, np.result_type(events, finals))
            out[event_rows], out[final_rows] = events, finals
            return out

        censor = np.full(self.n_markets, CENSOR)
        columns = [column(self.market_id, self.markets),
                   column(self.index, np.diff(self.offsets) + 1),
                   column(self.pre_state, self.final_state), column(self.time, self.horizon),
                   column(self.actor, censor), column(self.action, np.full_like(censor, -1))]
        # the bytes `csv.writer` writes: no field needs quoting, rows end in \r\n
        row = "{},{},{},{:.17g},{},{}\r\n".format
        with open(path, "w", newline="") as handle:
            handle.write(",".join(EVENT_COLUMNS) + "\r\n")
            # in blocks, so the rows' Python objects never all exist at once
            for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
                block = [c[start:start + CSV_BLOCK_ROWS].tolist() for c in columns]
                handle.write("".join(map(row, *block)))

    @classmethod
    def from_csv(cls, path):
        market_id, index, state, time, actor, action = _read_columns(path, EVENT_COLUMNS)
        event, censor = actor != CENSOR, actor == CENSOR
        return cls(market_id=market_id[event], index=index[event], pre_state=state[event],
                   time=time[event], actor=actor[event], action=action[event],
                   markets=market_id[censor], horizon=time[censor],
                   final_state=state[censor])


@dataclass
class Panel:
    """States observed on the sampling lattice {0, delta, 2*delta, ...}.

    Each market's rows are contiguous with strictly increasing periods; the
    derived ``offsets`` (length ``n_markets + 1``) bound them.
    """

    market_id: np.ndarray
    period: np.ndarray
    state: np.ndarray

    def __post_init__(self):
        _require(len(set(_as_arrays(self))) == 1, "panel arrays must share one length")
        same = self.market_id[1:] == self.market_id[:-1]
        self.offsets = (np.flatnonzero(np.concatenate([[True], ~same, [True]])) if self.n_rows
                        else np.zeros(1, dtype=np.int64))
        _require(len(np.unique(self.market_id[self.offsets[:-1]])) == self.n_markets,
                 "each market's panel rows must be contiguous")
        _require(np.all(self.period[1:][same] > self.period[:-1][same]),
                 "panel periods must strictly increase within a market")

    @property
    def n_rows(self):
        return len(self.market_id)

    @property
    def n_markets(self):
        return len(self.offsets) - 1

    def check_ranges(self, k_total):
        """Raise `InvalidArgumentError` unless every state lies in [0, ``k_total``)."""
        _require(_within(self.state, k_total), f"panel states must lie in [0, {k_total})")

    def to_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(PANEL_COLUMNS)
            writer.writerows(zip(self.market_id.tolist(), self.period.tolist(),
                                 self.state.tolist()))

    @classmethod
    def from_csv(cls, path):
        market_id, period, state = _read_columns(path, PANEL_COLUMNS)
        return cls(market_id=market_id, period=period, state=state)


def consecutive_pairs(panel, k_total):
    """(pre, post) states of every pair of consecutive snapshots of one market.

    Raises `InvalidArgumentError` if any state lies outside [0, ``k_total``).
    """
    panel.check_ranges(k_total)
    consecutive = ((panel.market_id[1:] == panel.market_id[:-1])
                   & (panel.period[1:] == panel.period[:-1] + 1))
    return panel.state[:-1][consecutive], panel.state[1:][consecutive]


def _require_equilibrium(theta, ccp, config):
    ccp = check_ccp(ccp, config)
    residual = np.abs(best_response_map(theta, ccp, config) - ccp).max()
    if residual > EQUILIBRIUM_RESIDUAL_TOL:
        raise InvalidArgumentError(
            f"choice probabilities are not an equilibrium (residual {residual:g})")
    return ccp


def _market_rngs(seed, n_markets):
    return [np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(n_markets)]


def _state_moves(ccp, config):
    """Per state: total exit rate, cumulative rates and (actor, action, next
    state) of each move, nature's then each firm's, as plain Python values."""
    q0 = game.nature_generator(config)
    toggle = game.state_tables(config).toggle
    player_rates = config.lam * ccp[:, 1, :]
    moves = []
    for k in range(config.n_states):
        targets = [int(j) for j in np.flatnonzero(q0[k]) if j != k]
        rates = np.concatenate([q0[k, targets], player_rates[:, k]])
        outcomes = ([(NATURE, j, j) for j in targets]
                    + [(i, 1, int(toggle[i, k])) for i in range(config.n_players)])
        moves.append((float(rates.sum()), np.cumsum(rates).tolist(), outcomes))
    return moves


def simulate_continuous(theta, ccp_star, config, n_markets, seed,
                        horizon=None, events_per_market=1):
    """Draw continuous-time event histories from the equilibrium process.

    Each market starts from the stationary distribution of the aggregate
    intensity matrix and evolves by competing exponential hazards: nature's
    rates plus ``lam * ccp[i, 1, k]`` per firm.  With ``horizon`` set,
    events are recorded up to that time and the final spell is censored
    there; otherwise exactly ``events_per_market`` events are recorded and
    observation stops at the last event (a zero-length final spell).

    Raises
    ------
    InvalidArgumentError
        If ``ccp_star`` is not an equilibrium for ``theta`` (fixed-point
        residual above 1e-6).
    """
    ccp = _require_equilibrium(theta, ccp_star, config)
    if horizon is None and events_per_market < 1:
        raise InvalidArgumentError("events_per_market must be >= 1")
    moves = _state_moves(ccp, config)
    pi = markov.stationary_distribution(aggregate_generator(ccp, config))
    cum_pi = np.cumsum(pi)

    market_id, index, pre_state, time, actor, action = [], [], [], [], [], []
    horizons = np.empty(n_markets)
    finals = np.empty(n_markets, dtype=np.int64)

    for m, rng in enumerate(_market_rngs(seed, n_markets)):
        k = min(int(np.searchsorted(cum_pi, rng.random())), config.n_states - 1)
        t = 0.0
        count = 0
        while True:
            total, cum, outcomes = moves[k]
            if total <= 0.0:
                t = horizon if horizon is not None else t
                break
            wait = rng.exponential(1.0 / total)
            if horizon is not None and t + wait > horizon:
                t = horizon
                break
            t += wait
            pick = min(bisect_left(cum, rng.random() * total), len(cum) - 1)
            who, what, target = outcomes[pick]
            count += 1
            market_id.append(m)
            index.append(count)
            pre_state.append(k)
            time.append(t)
            actor.append(who)
            action.append(what)
            k = target
            if horizon is None and count >= events_per_market:
                break
        horizons[m] = t
        finals[m] = k

    return EventLog(market_id=np.array(market_id, dtype=np.int64),
                    index=np.array(index, dtype=np.int64),
                    pre_state=np.array(pre_state, dtype=np.int64),
                    time=np.array(time, dtype=float),
                    actor=np.array(actor, dtype=np.int64),
                    action=np.array(action, dtype=np.int64),
                    markets=np.arange(n_markets, dtype=np.int64),
                    horizon=horizons, final_state=finals)


def sample_discrete(theta, ccp_star, config, n_markets, periods=1, seed=0,
                    init_state=None):
    """Draw snapshot panels: states on the lattice {0, delta, ..., periods*delta}.

    Initial states come from the stationary distribution (or ``init_state``
    when given); successive states are drawn from the rows of
    ``expm(delta * Q)``.  Deterministic given the seed; each market consumes
    its own spawned stream.
    """
    ccp = _require_equilibrium(theta, ccp_star, config)
    if periods < 1:
        raise InvalidArgumentError("periods must be >= 1")
    q = aggregate_generator(ccp, config)
    p = markov.transition_matrix(q, config.delta)
    cum_rows = np.cumsum(p, axis=1)

    rngs = _market_rngs(seed, n_markets)
    draws = np.empty((n_markets, periods))
    states = np.empty((n_markets, periods + 1), dtype=np.int64)
    if init_state is None:
        cum_pi = np.cumsum(markov.stationary_distribution(q))
        for m, rng in enumerate(rngs):
            states[m, 0] = min(int(np.searchsorted(cum_pi, rng.random())),
                               config.n_states - 1)
            draws[m] = rng.random(periods)
    else:
        if not 0 <= init_state < config.n_states:
            raise InvalidArgumentError(f"init_state out of range: {init_state}")
        states[:, 0] = init_state
        for m, rng in enumerate(rngs):
            draws[m] = rng.random(periods)

    for n in range(1, periods + 1):
        rows = cum_rows[states[:, n - 1]]
        nxt = (draws[:, n - 1][:, None] > rows).sum(axis=1)
        states[:, n] = np.minimum(nxt, config.n_states - 1)

    market_id = np.repeat(np.arange(n_markets, dtype=np.int64), periods + 1)
    period = np.tile(np.arange(periods + 1, dtype=np.int64), n_markets)
    return Panel(market_id=market_id, period=period, state=states.reshape(-1))


def to_panel(events, config, periods=None):
    """Snapshot an event log on the lattice {n * delta} up to each horizon.

    Market m gets rows n = 0..``periods`` (default: the last lattice point
    by its horizon).  The state at ``n * delta`` is the pre-state of the
    market's first event after that time, else its final state.
    """
    events.check_ranges(config)
    last = (np.floor(events.horizon / config.delta + 1e-12) if periods is None
            else np.full(events.n_markets, periods))
    width = np.maximum(last + 1, 0).astype(np.int64)
    # An event has happened by snapshot n when its time is <= n * delta; the
    # least such n of every event counts it into one of its market's slots:
    # one per snapshot from base[m] on, and a last one for later events.
    markets = np.arange(events.n_markets)
    event_market = np.repeat(markets, np.diff(events.offsets))
    first = np.searchsorted(np.arange(width.max(initial=0)) * config.delta, events.time)
    base = np.concatenate([[0], np.cumsum(width + 1)])
    slot = base[event_market] + np.minimum(first, width[event_market])
    # events that have happened by each slot, counted from the first market
    happened = np.cumsum(np.bincount(slot, minlength=base[-1]))

    row_market = np.repeat(markets, width)
    period = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
    upcoming = happened[base[row_market] + period]
    pending = upcoming < events.offsets[1:][row_market]
    state = np.where(pending, np.append(events.pre_state, 0)[upcoming],
                     events.final_state[row_market])
    return Panel(market_id=events.markets[row_market].astype(np.int64), period=period,
                 state=state.astype(np.int64))


def descriptive_stats(panel, config):
    """Steady-state style summary of a panel.

    Returns a dict with the average and standard deviation of the active
    firm count, the AR(1) slope of the count on its one-period lag (OLS
    with intercept; nan when the lag has zero variance), per-transition
    average entrant and exit counts, excess turnover
    ``(entrants + exits) - |entrants - exits|``, the correlation between
    entry and exit counts, and the per-firm activity probability.
    """
    if panel.n_rows == 0:
        raise InvalidArgumentError("panel is empty")
    pre, post = consecutive_pairs(panel, config.n_states)
    if not pre.size:
        raise InvalidArgumentError("panel has no consecutive observations")
    activity = game.state_tables(config).activity
    active_count = activity.sum(axis=1)
    n_active = active_count[panel.state]
    prev, curr = activity[pre], activity[post]
    entrants = ((curr == 1) & (prev == 0)).sum(axis=1)
    exits = ((curr == 0) & (prev == 1)).sum(axis=1)
    turnover = entrants + exits - np.abs(entrants - exits)

    lag = active_count[pre].astype(float)
    lead = active_count[post].astype(float)
    lag_var = lag.var()
    ar1 = float(np.cov(lag, lead, ddof=0)[0, 1] / lag_var) if lag_var > 0 else float("nan")
    if entrants.var() > 0 and exits.var() > 0:
        corr = float(np.corrcoef(entrants, exits)[0, 1])
    else:
        corr = float("nan")

    return {
        "avg_active": float(n_active.mean()),
        "sd_active": float(n_active.std(ddof=1)) if len(n_active) > 1 else 0.0,
        "ar1": ar1,
        "avg_entrants": float(entrants.mean()),
        "avg_exits": float(exits.mean()),
        "excess_turnover": float(turnover.mean()),
        "corr_entry_exit": corr,
        "activity_prob": activity[panel.state].mean(axis=0),
    }
