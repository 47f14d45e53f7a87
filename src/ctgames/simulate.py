"""Simulation of continuous-time event data and discretely sampled panels.

Markets are simulated independently, each from its own random stream spawned
off the master seed, so output is reproducible bit-for-bit and markets may
be generated in any order.  Only state-changing events are recorded:
continuation decisions (choice 0) are invisible to an observer of the state
path and never enter the event log.

`EventLog` and `Panel` are the only place that knows how a dataset splits
into markets.  An `EventLog` holds the rows of its file: each market's
events, then its censor row, so every row closes a spell that began at the
market's previous row.  Each checks its invariants when it is built,
whether by a simulator or by a CSV loader (which first checks the file's
header row against the column names, and names the file in any error):
array lengths agree, every market's rows are contiguous under an id of
their own and, in an event log, end in its censor row, event times are
finite, nonnegative and nondecreasing within a market (so no event follows
its horizon), an event file's ``n`` counts each market's rows 1, 2, ...,
and panel periods strictly increase within a market.  The market
boundaries are kept as ``offsets`` (market m owns rows
``offsets[m]:offsets[m + 1]``), so every reader runs in time linear in rows
plus markets.  Indices that depend on the game -- states, actors, actions --
are checked by ``check_ranges``, which every reader that takes the game
configuration calls first: one elementwise test per check, no boolean-mask
gather, and it returns nature's rows.  Any violation raises `InvalidArgumentError`.
"""

import warnings
from bisect import bisect_left
from contextlib import contextmanager
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

# Rows converted to Python objects at a time when a data file is written.
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


@contextmanager
def in_data_file(path):
    """Prefix ``data file {path}: `` to any `InvalidArgumentError` raised inside."""
    try:
        yield
    except InvalidArgumentError as err:
        raise InvalidArgumentError(f"data file {path}: {err}") from None


def _read_columns(path, columns):
    """C-contiguous columns of a CSV data file whose header row lists the
    names of the dict ``columns``, parsed as its types.

    An unreadable file, another header, a row with another field count, or a
    field that does not parse raises `InvalidArgumentError` naming the file.
    """
    with in_data_file(path):
        try:
            with open(path) as handle:
                header = [name.strip() for name in handle.readline().split(",")]
            _require(header == list(columns), f"header {header}, expected {list(columns)}")
            with warnings.catch_warnings():
                # a header-only file is a valid empty dataset
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # from the path, which NumPy parses faster than a Python file object
                table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1,
                                   dtype=list(columns.items()))
        except InvalidArgumentError:
            raise
        except (OSError, ValueError) as err:
            raise InvalidArgumentError(f"cannot be read: {err}") from None
        # a field of the structured table is a strided view
        return [np.ascontiguousarray(table[name]) for name in columns]


def _write_columns(path, columns, arrays):
    """Write the header row of the dict ``columns``, then one row per entry
    of ``arrays``: the bytes `csv.writer` writes (integers by `str`, rows end
    in \\r\\n), but floats to 17 significant digits, so they round-trip."""
    row = (",".join("{:.17g}" if kind == np.float64 else "{}" for kind in columns.values())
           + "\r\n").format
    with open(path, "w", newline="") as handle:
        handle.write(",".join(columns) + "\r\n")
        # in blocks, so the rows' Python objects never all exist at once
        for start in range(0, len(arrays[0]), CSV_BLOCK_ROWS):
            block = [a[start:start + CSV_BLOCK_ROWS].tolist() for a in arrays]
            handle.write("".join(map(row, *block)))


@dataclass
class EventLog:
    """Event histories censored at each market's horizon: the rows of the
    event file but its counter ``n``, which ``index`` derives.

    Every row closes a spell, in ``state``, that began at the market's
    previous row (or at 0) and ends at ``time``: at a move by ``actor``
    (``NATURE`` = -1 or a player), whose ``action`` is nature's destination
    or the player's choice (always 1; choice 0 is unobservable), or, on the
    market's last row, at its horizon (``actor`` ``CENSOR`` = -2, ``action``
    -1).  The derived ``offsets`` bound each market's rows: market m owns
    ``offsets[m]:offsets[m + 1]``.
    """

    market_id: np.ndarray
    state: np.ndarray
    time: np.ndarray
    actor: np.ndarray
    action: np.ndarray

    def __post_init__(self):
        _require(len(set(_as_arrays(self))) == 1, "event arrays must share one length")
        censor = self.actor == CENSOR
        self.offsets = np.concatenate([[0], np.flatnonzero(censor) + 1])
        ends = self.offsets[1:] - 1
        ids = self.market_id[ends]
        _require(self.offsets[-1] == len(censor) and np.array_equal(
            self.market_id, ids.repeat(np.diff(self.offsets))),
            "each market's rows must be contiguous and end in its censor row")
        _require(len(np.unique(ids)) == self.n_markets, "market ids must be distinct")
        _require(np.all(self.action[ends] == -1), "each censor row's action must be -1")
        _require(np.all(np.isfinite(self.time)) and np.all(self.time >= 0)
                 and np.all((self.time[1:] >= self.time[:-1]) | censor[:-1]),
                 "event times must be finite, nonnegative and nondecreasing within a market")

    @property
    def n_events(self):
        return len(self.market_id) - self.n_markets

    @property
    def n_markets(self):
        return len(self.offsets) - 1

    @property
    def index(self):
        """Each row's 1-based counter within its market."""
        return np.arange(1, len(self.market_id) + 1) - self.offsets[:-1].repeat(
            np.diff(self.offsets))

    def check_ranges(self, config):
        """Nature's rows, once every index fits the game: states in [0, K),
        actors ``CENSOR``, ``NATURE`` or a player in [0, N), nature's
        destinations states and player actions 1; else the first failing
        check, in that order, raises `InvalidArgumentError`."""
        k_total, n = config.n_states, config.n_players
        _require(_within(self.state, k_total), f"event states must lie in [0, {k_total})")
        # the codes CENSOR < NATURE < 0 and the players fill [CENSOR, N)
        _require(_within(self.actor - CENSOR, n - CENSOR),
                 f"event actors must be censor ({CENSOR}), nature ({NATURE}) "
                 f"or a player in [0, {n})")
        nature = np.flatnonzero(self.actor == NATURE)
        _require(_within(self.action[nature], k_total),
                 f"nature's destinations must lie in [0, {k_total})")
        _require(np.all((self.action == 1) | (self.actor < 0)), "player actions must be 1")
        return nature

    def to_csv(self, path):
        """Write one row per entry: ``market_id, n, k, t, actor, action``,
        with ``n`` the `index` and ``k`` the ``state``."""
        _write_columns(path, EVENT_COLUMNS, [self.market_id, self.index, self.state,
                                             self.time, self.actor, self.action])

    @classmethod
    def from_csv(cls, path):
        market_id, index, state, time, actor, action = _read_columns(path, EVENT_COLUMNS)
        with in_data_file(path):
            log = cls(market_id=market_id, state=state, time=time, actor=actor, action=action)
            _require(np.array_equal(index, log.index),
                     "each market's n must read 1, 2, ... down to its censor row")
        return log


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
        """Write one row per observation: ``market_id, n, k``."""
        _write_columns(path, PANEL_COLUMNS, [self.market_id, self.period, self.state])

    @classmethod
    def from_csv(cls, path):
        market_id, period, state = _read_columns(path, PANEL_COLUMNS)
        with in_data_file(path):
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
    events are recorded up to that time and the censor row closes the final
    spell there; otherwise exactly ``events_per_market`` events are recorded
    and the censor row sits at the last event (a zero-length final spell).

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

    columns = market_id, state, time, actor, action = [], [], [], [], []
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
            state.append(k)
            time.append(t)
            actor.append(who)
            action.append(what)
            k = target
            if horizon is None and count >= events_per_market:
                break
        for column, value in zip(columns, (m, k, t, CENSOR, -1)):
            column.append(value)
    return EventLog(*(np.array(column, dtype=kind) for column, kind
                      in zip(columns, (np.int64, np.int64, float, np.int64, np.int64))))


def sample_discrete(theta, ccp_star, config, n_markets, periods=1, seed=0):
    """Draw snapshot panels: states on the lattice {0, delta, ..., periods*delta}.

    Initial states come from the stationary distribution; successive states
    are drawn from the rows of ``expm(delta * Q)``.  Deterministic given the
    seed; each market consumes its own spawned stream.
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
    cum_pi = np.cumsum(markov.stationary_distribution(q))
    for m, rng in enumerate(rngs):
        states[m, 0] = min(int(np.searchsorted(cum_pi, rng.random())), config.n_states - 1)
        draws[m] = rng.random(periods)

    for n in range(1, periods + 1):
        rows = cum_rows[states[:, n - 1]]
        nxt = (draws[:, n - 1][:, None] > rows).sum(axis=1)
        states[:, n] = np.minimum(nxt, config.n_states - 1)

    market_id = np.repeat(np.arange(n_markets, dtype=np.int64), periods + 1)
    period = np.tile(np.arange(periods + 1, dtype=np.int64), n_markets)
    return Panel(market_id=market_id, period=period, state=states.reshape(-1))


def to_panel(events, config):
    """Snapshot an event log on the lattice {n * delta} up to each horizon.

    Market m gets rows n = 0, 1, ... up to the last lattice point by its
    horizon.  The state at ``n * delta`` is the state of the market's first
    row after that time: its first later event, else its censor row.
    """
    events.check_ranges(config)
    ends = events.offsets[1:] - 1  # the censor rows
    width = (np.floor(events.time[ends] / config.delta + 1e-12) + 1).astype(np.int64)
    # An event has happened by snapshot n when its time is <= n * delta; the
    # least such n of every event counts it into one of its market's slots:
    # one per snapshot from base[m] on, and a last one, never reached, for
    # later events and the censor row.
    markets = np.arange(events.n_markets)
    row_market = np.repeat(markets, np.diff(events.offsets))
    first = np.searchsorted(np.arange(width.max(initial=0)) * config.delta, events.time)
    base = np.concatenate([[0], np.cumsum(width + 1)])
    slot = base[row_market] + np.minimum(first, width[row_market])
    slot[ends] = base[1:] - 1
    # rows that have happened by each slot, counted from the first market
    happened = np.cumsum(np.bincount(slot, minlength=base[-1]))

    snap_market = np.repeat(markets, width)
    period = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
    upcoming = happened[base[snap_market] + period]
    return Panel(market_id=events.market_id[ends][snap_market], period=period,
                 state=events.state[upcoming])


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
