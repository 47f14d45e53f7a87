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
from scipy.optimize import minimize

from . import markov
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class GameConfig:
    """Structural constants of the game.

    Parameters
    ----------
    n_players : int
        Number of firms N.
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
    n_choices : int
        Choices per decision (fixed at 2: continue or toggle activity).
    """

    n_players: int
    market_levels: int = 5
    lam: float = 1.0
    rho: float = 0.05
    q_up: float = 0.0
    q_down: float = 0.0
    delta: float = 1.0
    n_choices: int = 2

    def __post_init__(self):
        if self.n_players < 1:
            raise InvalidArgumentError(f"n_players must be >= 1, got {self.n_players}")
        if self.market_levels < 1:
            raise InvalidArgumentError(f"market_levels must be >= 1, got {self.market_levels}")
        if not self.lam > 0:
            raise InvalidArgumentError(f"move arrival rate must be positive, got {self.lam}")
        if not self.rho > 0:
            raise InvalidArgumentError(f"discount rate must be positive, got {self.rho}")
        if self.q_up < 0 or self.q_down < 0:
            raise InvalidArgumentError("nature rates must be nonnegative")
        if not self.delta > 0:
            raise InvalidArgumentError(f"sampling interval must be positive, got {self.delta}")
        if self.n_choices != 2:
            raise InvalidArgumentError("the entry/exit game has exactly 2 choices per firm")

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
        object.__setattr__(self, "fc", tuple(float(f) for f in self.fc))
        for name in ("rs", "rn", "ec"):
            object.__setattr__(self, name, float(getattr(self, name)))
        values = (*self.fc, self.rs, self.rn, self.ec)
        if not all(math.isfinite(v) for v in values):
            raise InvalidArgumentError("payoff parameters must be finite")

    @property
    def n_params(self):
        return len(self.fc) + 3

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


def continuation_state(i, j, k, config):
    """State reached when firm ``i`` takes choice ``j`` in state ``k``.

    Choice 0 continues in place; choice 1 toggles firm i's activity bit
    (entry if inactive, exit if active).  The demand level never changes.
    """
    if not 0 <= i < config.n_players:
        raise InvalidArgumentError(f"player index out of range: {i}")
    if j not in (0, 1):
        raise InvalidArgumentError(f"choice must be 0 or 1, got {j}")
    if not 0 <= k < config.n_states:
        raise InvalidArgumentError(f"state index out of range: {k}")
    return int(state_tables(config).continuation[i, j, k])


def flow_payoff(theta, i, k, config):
    """Flow profit of firm ``i`` in state ``k``.

    An active firm earns ``rs*d - rn*ln(1 + active rivals) + fc_i`` (the
    stored fixed costs are negative); an inactive firm earns zero flow and
    only pays the lump-sum entry cost on entering, via `instant_payoff`.
    """
    tables = state_tables(config)
    if not tables.activity[k, i]:
        return 0.0
    return (theta.rs * tables.demand[k]
            - theta.rn * math.log1p(tables.n_rivals[i, k])
            + theta.fc[i])


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


def flow_payoffs(theta, config):
    """All flow payoffs as an (N, K) array: the flow design applied to theta."""
    return flow_design_rows(config) @ theta.as_vector()


def instant_payoff(theta, i, j, k, config):
    """Lump-sum payoff of choice ``j``: -ec on entry (toggle while inactive), else 0."""
    if j == 1 and not state_tables(config).activity[k, i]:
        return -theta.ec
    return 0.0


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


class CalibratedRates(NamedTuple):
    q_up: float
    q_down: float
    residual: float


def calibrate_nature_rates(target_p, delta=1.0, grid_max=2.0, grid_step=0.05):
    """Fit (q_up, q_down) so exp(delta*G) best matches a one-period demand matrix.

    A constant-rate birth-death generator cannot reproduce a general
    tridiagonal stochastic matrix exactly, so the rates minimize the
    Frobenius distance, found by a coarse grid scan followed by a local
    simplex refinement (deterministic).  Returns the fitted rates and the
    remaining Frobenius residual.
    """
    target_p = np.asarray(target_p, dtype=float)
    if target_p.ndim != 2 or target_p.shape[0] != target_p.shape[1]:
        raise InvalidArgumentError("target matrix must be square")
    if target_p.min() < 0 or np.abs(target_p.sum(axis=1) - 1).max() > 1e-8:
        raise InvalidArgumentError("target matrix must be row-stochastic")
    band = np.triu(np.abs(target_p), 2) + np.tril(np.abs(target_p), -2)
    if band.max() > 0:
        raise InvalidArgumentError("target matrix must be tridiagonal")
    levels = target_p.shape[0]

    def objective(rates):
        q_up, q_down = max(rates[0], 0.0), max(rates[1], 0.0)
        gen = np.zeros((levels, levels))
        idx = np.arange(levels - 1)
        gen[idx, idx + 1] = q_up
        gen[idx + 1, idx] = q_down
        np.fill_diagonal(gen, -gen.sum(axis=1))
        return np.linalg.norm(markov.expm(delta * gen) - target_p, "fro")

    grid = np.arange(0.0, grid_max + grid_step / 2, grid_step)
    best, best_val = (0.0, 0.0), objective((0.0, 0.0))
    if best_val == 0.0:
        return CalibratedRates(0.0, 0.0, 0.0)
    for qu in grid:
        for qd in grid:
            val = objective((qu, qd))
            if val < best_val:
                best, best_val = (qu, qd), val
    res = minimize(objective, x0=np.array(best), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
    q_up, q_down = max(res.x[0], 0.0), max(res.x[1], 0.0)
    return CalibratedRates(float(q_up), float(q_down), float(objective((q_up, q_down))))


# One-period demand transition matrix of the benchmark five-level game
# (band matrix with 0.8/0.2 at the edges and 0.6/0.2 inside).
BENCHMARK_DEMAND_MATRIX = np.array([
    [0.8, 0.2, 0.0, 0.0, 0.0],
    [0.2, 0.6, 0.2, 0.0, 0.0],
    [0.0, 0.2, 0.6, 0.2, 0.0],
    [0.0, 0.0, 0.2, 0.6, 0.2],
    [0.0, 0.0, 0.0, 0.2, 0.8],
])
