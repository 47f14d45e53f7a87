"""Log pseudo-likelihoods for event-level and snapshot data.

Both likelihoods are market averages.  The event-data likelihood factors
into survival, player-action and nature terms through a small set of
sufficient statistics (state exposures and move counts), which also makes
repeated evaluation in an estimation loop cheap.  The snapshot likelihood
scores transitions against ``expm(delta * Q)`` evaluated at the
best-response probabilities implied by ``(theta, ccp)`` -- that one
best-response application inside is what makes it a function of theta.
"""

from dataclasses import dataclass

import numpy as np

from . import game, markov
from .equilibrium import aggregate_generator, best_response_map, check_ccp
from .errors import InvalidArgumentError
from .simulate import NATURE

# Transition probabilities below this floor are clamped before the log.
LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class HazardProfile:
    """Per-state exit hazards: nature's rates and each firm's action rate."""

    total: np.ndarray   # (K,) total exit hazard per state
    nature: np.ndarray  # (K, K) nature's off-diagonal rates
    player: np.ndarray  # (N, K) lam * ccp[i, 1, k]


def hazard_profile(ccp, config):
    ccp = check_ccp(ccp, config)
    nature = game.nature_generator(config)
    np.fill_diagonal(nature, 0.0)
    player = config.lam * ccp[:, 1, :]
    return HazardProfile(total=nature.sum(axis=1) + player.sum(axis=0),
                         nature=nature, player=player)


@dataclass(frozen=True)
class SpellStats:
    """Sufficient statistics of an event log for the continuous likelihood."""

    exposure: np.ndarray      # (K,) time spent in each state
    moves: np.ndarray         # (N, K) firm action counts by pre-state
    nature_moves: np.ndarray  # (K, K) nature transition counts
    n_markets: int

    @classmethod
    def from_events(cls, events, config):
        k_total = config.n_states
        exposure = np.zeros(k_total)
        moves = np.zeros((config.n_players, k_total))
        nature_moves = np.zeros((k_total, k_total))
        for pos, m in enumerate(events.markets):
            sel = np.nonzero(events.market_id == m)[0]
            times = events.time[sel]
            # spell j sits in pre_state of event j; the last (possibly
            # zero-length) spell sits in the final state until the horizon
            edges = np.concatenate([[0.0], times, [events.horizon[pos]]])
            spells = np.maximum(np.diff(edges), 0.0)
            states = np.concatenate([events.pre_state[sel],
                                     [events.final_state[pos]]]).astype(np.int64)
            np.add.at(exposure, states, spells)
            for row in sel:
                k = events.pre_state[row]
                if events.actor[row] == NATURE:
                    nature_moves[k, events.action[row]] += 1
                else:
                    moves[events.actor[row], k] += 1
        return cls(exposure=exposure, moves=moves, nature_moves=nature_moves,
                   n_markets=events.n_markets)


def continuous_loglik_from_stats(stats, hazards, n_markets):
    """Evaluate the event-data likelihood from sufficient statistics.

    Returns the triple (player terms, nature terms, survival terms), each
    already divided by the market count; their sum is the log likelihood.
    An observed move with zero hazard yields -inf (a domain flag).
    """
    survival = -(stats.exposure * hazards.total).sum()
    with np.errstate(divide="ignore"):
        log_player = np.where(stats.moves > 0, np.log(hazards.player), 0.0)
        log_nature = np.where(stats.nature_moves > 0,
                              np.log(np.where(hazards.nature > 0, hazards.nature, 1.0)),
                              0.0)
    impossible = (stats.nature_moves > 0) & (hazards.nature <= 0)
    if np.any(impossible):
        return -np.inf, -np.inf, survival / n_markets
    player = (stats.moves * log_player).sum()
    nature = (stats.nature_moves * log_nature).sum()
    return player / n_markets, nature / n_markets, survival / n_markets


def loglik_continuous_parts(ccp, events, config):
    """Player, nature, and survival components of the event-data likelihood.

    Nature's rates are taken from the configuration (treated as known, not
    estimated); the payoff parameters enter only through the choice
    probabilities supplied by the caller.
    """
    stats = SpellStats.from_events(events, config)
    hazards = hazard_profile(ccp, config)
    return continuous_loglik_from_stats(stats, hazards, events.n_markets)


def loglik_continuous(ccp, events, config):
    """Average log likelihood of an event log: survival + event-type terms."""
    return float(sum(loglik_continuous_parts(ccp, events, config)))


def transition_counts(panel, k_total):
    """(K, K) matrix of observed consecutive transitions and the market count."""
    same_market = panel.market_id[1:] == panel.market_id[:-1]
    consecutive = same_market & (panel.period[1:] == panel.period[:-1] + 1)
    counts = np.zeros((k_total, k_total))
    np.add.at(counts, (panel.state[:-1][consecutive], panel.state[1:][consecutive]), 1.0)
    return counts, len(np.unique(panel.market_id))


def discrete_loglik_from_counts(counts, n_markets, ccp_br, config, delta=None,
                                pmatrix_method="expm", counters=None):
    """Snapshot likelihood from a transition-count matrix at given best responses."""
    q = aggregate_generator(ccp_br, config)
    delta = config.delta if delta is None else delta
    if pmatrix_method == "expm":
        p = markov.transition_matrix(q, delta)
    elif pmatrix_method == "uniformization":
        p = markov.uniformization_matrix(q, delta)
    else:
        raise InvalidArgumentError(f"unknown pmatrix_method: {pmatrix_method}")
    clamped = (counts > 0) & (p < LOG_FLOOR)
    if counters is not None:
        counters["clamped_logs"] = counters.get("clamped_logs", 0) + int(clamped.sum())
    logp = np.log(np.maximum(p, LOG_FLOOR))
    return float((counts * logp).sum() / n_markets)


def loglik_discrete(theta, ccp, panel, config, delta=None,
                    pmatrix_method="expm", counters=None):
    """Average log pseudo-likelihood of a snapshot panel.

    Applies one best-response step to ``(theta, ccp)``, builds the
    aggregate intensity matrix at those probabilities, scores every
    consecutive transition against ``expm(delta * Q)`` (or the
    uniformization series with ``pmatrix_method='uniformization'``), and
    averages over markets.  Probabilities below 1e-300 are clamped, with
    the count recorded in ``counters['clamped_logs']`` when a dict is
    passed.
    """
    ccp = check_ccp(ccp, config)
    ccp_br = best_response_map(theta, ccp, config)
    counts, n_markets = transition_counts(panel, config.n_states)
    return discrete_loglik_from_counts(counts, n_markets, ccp_br, config,
                                       delta=delta, pmatrix_method=pmatrix_method,
                                       counters=counters)
