"""N-firm entry/exit game primitives: state space, payoffs, nature's dynamics.

States combine a demand level d in {1, ..., market_levels} with an activity
bit per firm.  Indices are demand-major and bitmask-minor,

    k = (d - 1) * 2**N + sum_i activity_i * 2**i,

which keeps nature's generator block-banded.  The stored demand level is
itself the log market size entering the flow payoff (the demand process is
specified directly on the log scale), so payoffs use ``rs * d``.

All values are immutable after construction and safe to share across
threads.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError

# Largest state space a game may have.  The solvers are dense: one K x K
# float64 matrix takes 512 MiB at this size, and the Pade set-up of `expm`
# holds about a dozen of them.
MAX_STATES = 2 ** 13


def _as_float(value):
    """``float(value)``, reading an integer too large for a float as infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


@dataclass(frozen=True)
class GameConfig:
    """Structural constants of the game.

    Parameters
    ----------
    n_players : int
        Number of firms N; the state count ``market_levels * 2**N`` may
        not exceed `MAX_STATES`.
    market_levels : int
        Number of demand levels (5 in the benchmark game).
    lam : float
        Move arrival rate per firm, events per unit time.
    rho : float
        Discount rate per unit time.
    q_up, q_down : float
        Nature's rates for demand moving one level up or down.
    delta : float
        Snapshot sampling interval for discretely observed data.
    """

    n_players: int
    market_levels: int = 5
    lam: float = 1.0
    rho: float = 0.05
    q_up: float = 0.0
    q_down: float = 0.0
    delta: float = 1.0
    # Choices per decision, a class constant: continue or toggle activity.
    n_choices = 2

    def __post_init__(self):
        if self.n_players < 1:
            raise InvalidArgumentError(f"n_players must be >= 1, got {self.n_players}")
        if self.market_levels < 1:
            raise InvalidArgumentError(f"market_levels must be >= 1, got {self.market_levels}")
        if self.n_players >= MAX_STATES.bit_length() or self.n_states > MAX_STATES:
            raise InvalidArgumentError(f"more than {MAX_STATES} states: "
                                       f"{self.market_levels} levels x 2**{self.n_players}")
        if not self.lam > 0:
            raise InvalidArgumentError(f"move arrival rate must be positive, got {self.lam}")
        if not self.rho > 0:
            raise InvalidArgumentError(f"discount rate must be positive, got {self.rho}")
        if self.q_up < 0 or self.q_down < 0:
            raise InvalidArgumentError("nature rates must be nonnegative")
        if not self.delta > 0:
            raise InvalidArgumentError(f"sampling interval must be positive, got {self.delta}")
        rates = (self.lam, self.rho, self.q_up, self.q_down, self.delta)
        if not all(math.isfinite(_as_float(rate)) for rate in rates):
            raise InvalidArgumentError("game rates and sampling interval must be finite")

    @property
    def n_states(self):
        """State-space size K = market_levels * 2**N."""
        return self.market_levels * 2 ** self.n_players


@dataclass(frozen=True)
class Theta:
    """Payoff parameters: per-firm fixed costs, demand and competition effects, entry cost.

    ``fc`` enters an active firm's flow additively, so fixed costs are
    stored as negative numbers (the benchmark game uses -1.9 .. -1.5); a
    larger ``fc`` means a more profitable firm.  ``ec`` is the lump sum paid
    on entry.
    """

    fc: tuple
    rs: float
    rn: float
    ec: float

    def __post_init__(self):
        object.__setattr__(self, "fc", tuple(map(_as_float, self.fc)))
        for name in ("rs", "rn", "ec"):
            object.__setattr__(self, name, _as_float(getattr(self, name)))
        values = (*self.fc, self.rs, self.rn, self.ec)
        if not all(math.isfinite(v) for v in values):
            raise InvalidArgumentError("payoff parameters must be finite")

    def as_vector(self):
        """Flat parameter vector (fc_1..fc_N, rs, rn, ec)."""
        return np.array([*self.fc, self.rs, self.rn, self.ec])

    @classmethod
    def from_vector(cls, vec, n_players):
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (n_players + 3,):
            raise InvalidArgumentError(
                f"expected {n_players + 3} parameters, got shape {vec.shape}")
        return cls(fc=tuple(vec[:n_players]), rs=vec[n_players],
                   rn=vec[n_players + 1], ec=vec[n_players + 2])


class StateTables(NamedTuple):
    """Precomputed per-state lookups shared by solvers and simulators."""

    demand: np.ndarray        # (K,) demand level, 1-based
    activity: np.ndarray      # (K, N) activity bits
    toggle: np.ndarray        # (N, K) continuation state when firm i toggles
    n_rivals: np.ndarray      # (N, K) number of active rivals of firm i
    continuation: np.ndarray  # (N, J, K) state reached by firm i's choice j in k


@lru_cache(maxsize=None)
def state_tables(config):
    """Build (and cache) the state lookup tables for a configuration."""
    n, k_total = config.n_players, config.n_states
    ks = np.arange(k_total)
    demand = ks // 2 ** n + 1
    bits = (ks[:, None] >> np.arange(n)[None, :]) & 1
    toggle = np.empty((n, k_total), dtype=np.int64)
    for i in range(n):
        toggle[i] = ks ^ (1 << i)
    active_total = bits.sum(axis=1)
    n_rivals = active_total[None, :] - bits.T
    # choice 0 continues in place, choice 1 toggles the firm's activity bit
    continuation = np.stack([np.broadcast_to(ks, (n, k_total)), toggle], axis=1)
    return StateTables(demand=demand, activity=bits, toggle=toggle, n_rivals=n_rivals,
                       continuation=continuation)


def encode_state(demand_level, activity, config):
    """Index of the state with the given demand level and activity vector."""
    activity = np.asarray(activity)
    if activity.shape != (config.n_players,):
        raise InvalidArgumentError(
            f"activity must have length {config.n_players}, got shape {activity.shape}")
    if not np.all((activity == 0) | (activity == 1)):
        raise InvalidArgumentError("activity entries must be 0 or 1")
    if not 1 <= demand_level <= config.market_levels:
        raise InvalidArgumentError(
            f"demand level must be in [1, {config.market_levels}], got {demand_level}")
    mask = int(np.dot(activity.astype(np.int64), 2 ** np.arange(config.n_players)))
    return (int(demand_level) - 1) * 2 ** config.n_players + mask


def decode_state(k, config):
    """Inverse of `encode_state`: (demand_level, activity vector)."""
    if not 0 <= k < config.n_states:
        raise InvalidArgumentError(f"state index must be in [0, {config.n_states}), got {k}")
    tables = state_tables(config)
    return int(tables.demand[k]), tables.activity[k].copy()


def flow_design_rows(config):
    """(N, K, P) design rows z with flow payoff u = z @ theta_vector.

    Columns follow the parameter order (fc_1..fc_N, rs, rn, ec): an active
    firm's row has 1 in its own fixed-cost slot, the demand level in the
    rs slot and ``-ln(1 + rivals)`` in the rn slot; inactive firms' rows are
    zero, and the ec slot never enters the flow.
    """
    n, k_total, p = config.n_players, config.n_states, config.n_players + 3
    tables = state_tables(config)
    active = tables.activity.T.astype(float)
    rows = np.zeros((n, k_total, p))
    for i in range(n):
        rows[i, :, i] = active[i]
    rows[:, :, n] = active * tables.demand[None, :]
    rows[:, :, n + 1] = -active * np.log1p(tables.n_rivals)
    return rows


def entry_design(config):
    """(N, J, K) coefficient of the entry cost in the choice payoff: -1 on entry."""
    tables = state_tables(config)
    z = np.zeros((config.n_players, config.n_choices, config.n_states))
    z[:, 1, :] = -(1.0 - tables.activity.T)
    return z


def instant_payoffs(theta, config):
    """All choice payoffs as an (N, J, K) array (nonzero only for entry)."""
    return theta.ec * entry_design(config)


def nature_generator(config):
    """Intensity matrix of demand movements: a birth-death band over levels.

    Rate ``q_up`` moves demand one level up (below the top), ``q_down`` one
    level down (above the bottom); activity bits never change and the
    diagonal is the negative row sum.
    """
    k_total = config.n_states
    block = 2 ** config.n_players
    q = np.zeros((k_total, k_total))
    ks = np.arange(k_total)
    up = ks + block < k_total
    q[ks[up], ks[up] + block] = config.q_up
    down = ks - block >= 0
    q[ks[down], ks[down] - block] = config.q_down
    np.fill_diagonal(q, -q.sum(axis=1))
    return q

