"""Log pseudo-likelihoods for event-level and snapshot data.

Both likelihoods are market averages.  The event-data likelihood factors
into survival, player-action and nature terms through a small set of
sufficient statistics (state exposures and move counts), which also makes
repeated evaluation in an estimation loop cheap.  The snapshot likelihood
scores transitions against ``expm(delta * Q)`` evaluated at the
best-response probabilities implied by ``(theta, ccp)`` -- that one
best-response application inside is what makes it a function of theta.
Both also come with their exact gradient in the action probabilities, for
the estimator to chain through to theta.
"""

from dataclasses import dataclass

import numpy as np

from . import game, markov
from .equilibrium import aggregate_generator, best_response_map, check_ccp
from .errors import InvalidArgumentError
from .simulate import NATURE, consecutive_pairs

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
        events.check_ranges(config)
        k_total = config.n_states
        # spell j of a market sits in the pre-state of its event j and ends at
        # that event; its last (possibly zero-length) spell sits in the final
        # state until the horizon
        event_rows, final_rows = events.spell_rows()
        ends = np.empty(events.n_events + events.n_markets)
        ends[event_rows], ends[final_rows] = events.time, events.horizon
        begins = np.zeros_like(ends)
        begins[1:] = ends[:-1]
        begins[final_rows[:-1] + 1] = 0.0
        states = np.empty(len(ends), dtype=np.int64)
        states[event_rows], states[final_rows] = events.pre_state, events.final_state
        exposure = np.bincount(states, weights=np.maximum(ends - begins, 0.0),
                               minlength=k_total)
        nature = events.actor == NATURE
        moves = _pair_counts(events.actor[~nature], events.pre_state[~nature],
                             (config.n_players, k_total))
        nature_moves = _pair_counts(events.pre_state[nature], events.action[nature],
                                    (k_total, k_total))
        return cls(exposure=exposure, moves=moves, nature_moves=nature_moves,
                   n_markets=events.n_markets)


def _pair_counts(rows, cols, shape):
    """Occurrences of every (row, col) pair as a float array of ``shape``."""
    flat = np.bincount(np.ravel_multi_index((rows, cols), shape), minlength=shape[0] * shape[1])
    return flat.reshape(shape).astype(float)


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


def continuous_loglik_gradient(stats, ccp, config):
    """Event-data likelihood and its gradient in the action probabilities.

    Returns the log likelihood of `continuous_loglik_from_stats` at ``ccp``
    and its (N, K) gradient in ``ccp[:, 1, :]``: the firm terms
    ``moves ln(lam sigma) - exposure lam sigma`` give
    ``(moves / sigma - lam exposure) / M``; nature's terms do not depend on
    ``ccp``.
    """
    parts = continuous_loglik_from_stats(stats, hazard_profile(ccp, config), stats.n_markets)
    grad = (stats.moves / ccp[:, 1, :] - config.lam * stats.exposure) / stats.n_markets
    return float(sum(parts)), grad


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
    return _pair_counts(*consecutive_pairs(panel, k_total), (k_total, k_total)), panel.n_markets


def _log_probabilities(counts, p, counters):
    """Logs of ``p`` clamped at ``LOG_FLOOR``; observed clamps go to ``counters``."""
    if counters is not None:
        clamped = (counts > 0) & (p < LOG_FLOOR)
        counters["clamped_logs"] = counters.get("clamped_logs", 0) + int(clamped.sum())
    return np.log(np.maximum(p, LOG_FLOOR))


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
    return float((counts * _log_probabilities(counts, p, counters)).sum() / n_markets)


def discrete_loglik_gradient(counts, n_markets, ccp_br, config, counters=None):
    """Snapshot likelihood and its gradient in the action probabilities.

    Returns the value of `discrete_loglik_from_counts` (``expm`` route) and
    the (N, K) gradient in ``ccp_br[:, 1, :]``.  With ``G = C / (M P)`` on
    unclamped entries, the gradient in the generator is the adjoint
    ``Gbar = delta L(delta Q^T, G)``; firm i's action rate in state k adds
    ``lam`` to ``Q[k, toggle_i(k)]`` and subtracts it from ``Q[k, k]``.
    """
    q = aggregate_generator(ccp_br, config)
    p, pullback = markov.transition_matrix_pullback(q, config.delta)
    value = float((counts * _log_probabilities(counts, p, counters)).sum() / n_markets)
    g = np.where(p >= LOG_FLOOR, counts, 0.0) / (n_markets * np.maximum(p, LOG_FLOOR))
    gbar = pullback(g)
    ks = np.arange(config.n_states)
    toggle = game.state_tables(config).toggle
    return value, config.lam * (gbar[ks, toggle] - gbar[ks, ks])


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
