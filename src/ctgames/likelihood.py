"""Log pseudo-likelihoods for event-level and snapshot data.

Both likelihoods are market averages that read the data only through a
sufficient statistic, built once per dataset by `sufficient_statistics`:
`SpellStats` (state exposures and move counts) for an event log, whose
likelihood factors into survival, player-action and nature terms, and
`TransitionCounts` (the K x K consecutive-snapshot counts) for a panel,
whose observed transitions alone are scored against ``expm(delta * Q)`` at
best-response probabilities.  `SpellStats.from_events` reduces a log in
one pass over its rows: each row closes a spell that began at the market's
previous row, at a move or, on each market's censor row, at its horizon.
Each statistic gives its log likelihood at given action probabilities
(``SpellStats.from_events(log, config).loglik(ccp)``, or ``loglik_parts``
for its three terms) and, with it, the exact gradient in those
probabilities for the estimator to chain through to theta; the theta-free
nature term of the event-data likelihood is computed once per statistic.
Each also gives the data's information in theta for the estimator's first
BFGS step: in closed form for event data (`SpellStats.information`), as
the outer product of the transition scores for a panel
(`TransitionCounts.information`).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import game, markov
from .equilibrium import (action_rate_gradient, add_action_rates, aggregate_generator,
                          best_response_map, check_ccp)
from .errors import InvalidArgumentError
from .simulate import EventLog, Panel, consecutive_pairs

# Transition probabilities below this floor are clamped before the log.
LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class SpellStats:
    """Sufficient statistics of an event log for the continuous likelihood;
    nature's rates are known, taken from the configuration."""

    exposure: np.ndarray      # (K,) time spent in each state
    moves: np.ndarray         # (N, K) firm action counts by pre-state
    nature_moves: np.ndarray  # (K, K) nature transition counts
    n_markets: int
    config: game.GameConfig

    @classmethod
    def from_events(cls, events, config):
        nature = events.check_ranges(config)
        k_total, n = config.n_states, config.n_players
        # every row closes a spell in its state that began at the market's
        # previous row (or at 0); the event rows' spells and the censor rows'
        # (each market's last) are summed apart, censor rows weighing 0 in the first
        offsets, time, state = events.offsets, events.time, events.state
        starts, ends = offsets[:-1], offsets[1:] - 1
        spell = np.empty_like(time)
        np.subtract(time[1:], time[:-1], out=spell[1:])
        spell[starts] = time[starts]
        final = spell[ends]
        spell[ends] = 0.0
        exposure = (np.bincount(state, weights=spell, minlength=k_total)
                    + np.bincount(state[ends], weights=final, minlength=k_total))
        # every row codes as a player move, actor * K + state; nature's rows are
        # recoded after them as N * K + state * K + destination, censor rows a last bin
        moves_end = (n + k_total) * k_total
        code = events.actor * k_total + state
        code[nature] = (n + state[nature]) * k_total + events.action[nature]
        code[ends] = moves_end
        counts = np.bincount(code, minlength=moves_end + 1)[:moves_end].astype(float)
        return cls(exposure=exposure, moves=counts[:n * k_total].reshape(n, k_total),
                   nature_moves=counts[n * k_total:].reshape(k_total, k_total),
                   n_markets=events.n_markets, config=config)

    @cached_property
    def _nature(self):
        """Nature's off-diagonal rates and its summed log-rate term; neither
        depends on the choice probabilities, so they are computed once."""
        rates = game.nature_generator(self.config)
        np.fill_diagonal(rates, 0.0)
        if np.any((self.nature_moves > 0) & (rates <= 0)):
            return rates, -np.inf
        log_rates = np.where(self.nature_moves > 0,
                             np.log(np.where(rates > 0, rates, 1.0)), 0.0)
        return rates, (self.nature_moves * log_rates).sum()

    def require_information(self):
        """Raise `InvalidArgumentError` unless the data can be fit."""
        if self.n_markets == 0:
            raise InvalidArgumentError("event log holds no market")
        if not self.exposure.any():
            raise InvalidArgumentError("event log holds no observation time")
        if self._nature[1] == -np.inf:
            raise InvalidArgumentError("event log contains impossible nature moves")

    def loglik_parts(self, ccp):
        """(player, nature, survival) terms at ``ccp``, each divided by the
        market count; a nature move of zero rate makes the first two -inf."""
        ccp = check_ccp(ccp, self.config)
        nature_rates, nature = self._nature
        action_rates = self.config.lam * ccp[:, 1, :]
        exit_hazard = nature_rates.sum(axis=1) + action_rates.sum(axis=0)
        survival = -(self.exposure * exit_hazard).sum() / self.n_markets
        if nature == -np.inf:
            return -np.inf, -np.inf, survival
        with np.errstate(divide="ignore"):
            log_player = np.where(self.moves > 0, np.log(action_rates), 0.0)
        player = (self.moves * log_player).sum()
        return player / self.n_markets, nature / self.n_markets, survival

    def loglik(self, ccp):
        """Average log likelihood of the event data at ``ccp``."""
        return float(sum(self.loglik_parts(ccp)))

    def value_and_gradient(self, ccp):
        """`loglik`, its (N, K) gradient in ``ccp[:, 1, :]`` and the clamped
        logs, none: the firm terms ``moves ln(lam sigma) - exposure lam
        sigma`` give ``(moves / sigma - lam exposure) / M``."""
        grad = ((self.moves / ccp[:, 1, :] - self.config.lam * self.exposure)
                / self.n_markets)
        return self.loglik(ccp), grad, 0

    def information(self, ccp, action_jacobian):
        """Expected information of the event data in theta, ``sum_ik lam T_k
        s_ik s_ik' / (sigma_ik M)`` with ``s_ik`` the derivative of
        ``sigma_ik = ccp[i, 1, k]`` in theta, the (N, K, P) ``action_jacobian``.

        Firm i's moves out of state k are Poisson with mean ``lam T_k
        sigma_ik``, so this is the negative Hessian of `loglik` in theta
        wherever the moves equal their expectation.
        """
        weights = self.config.lam * self.exposure / (ccp[:, 1, :] * self.n_markets)
        weighted = (action_jacobian * np.sqrt(weights)[:, :, None]).reshape(
            -1, action_jacobian.shape[2]).T  # X X' is exactly symmetric
        return weighted @ weighted.T


def transition_counts(panel, k_total):
    """(K, K) matrix of observed consecutive transitions and the market count."""
    shape = (k_total, k_total)
    flat = np.bincount(np.ravel_multi_index(consecutive_pairs(panel, k_total), shape),
                       minlength=k_total * k_total)
    return flat.reshape(shape).astype(float), panel.n_markets


def _mean_log_probability(counts, n_markets, p):
    """Per-market sum of observed log transition probabilities, clamped, with
    their flat indices and probabilities: ``p`` is read only where observed."""
    seen = np.flatnonzero(counts)
    observed = p.ravel()[seen]
    value = (counts.ravel()[seen] * np.log(np.maximum(observed, LOG_FLOOR))).sum()
    return float(value / n_markets), seen, observed


def discrete_loglik_from_counts(counts, n_markets, ccp_br, config, pmatrix_method="expm"):
    """Snapshot likelihood from a transition-count matrix at given best responses."""
    q = aggregate_generator(ccp_br, config)
    if pmatrix_method == "expm":
        p = markov.transition_matrix(q, config.delta)
    elif pmatrix_method == "uniformization":
        p = markov.uniformization_matrix(q, config.delta)
    else:
        raise InvalidArgumentError(f"unknown pmatrix_method: {pmatrix_method}")
    return _mean_log_probability(counts, n_markets, p)[0]


@dataclass(frozen=True)
class TransitionCounts:
    """Sufficient statistics of a snapshot panel for the snapshot likelihood."""

    counts: np.ndarray  # (K, K) consecutive-snapshot transition counts
    n_markets: int
    config: game.GameConfig

    @classmethod
    def from_panel(cls, panel, config):
        return cls(*transition_counts(panel, config.n_states), config)

    def require_information(self):
        """Raise `InvalidArgumentError` unless the data can be fit."""
        if not self.counts.any():
            raise InvalidArgumentError("panel holds no consecutive transition")

    def loglik(self, ccp_br):
        """`discrete_loglik_from_counts` at the best responses ``ccp_br``."""
        return discrete_loglik_from_counts(self.counts, self.n_markets, ccp_br, self.config)

    def value_and_gradient(self, ccp_br):
        """`loglik`, its (N, K) gradient in ``ccp_br[:, 1, :]`` and the number
        of observed transitions clamped at ``LOG_FLOOR``.

        With ``G = C / (M P)`` on the observed, unclamped entries and zero
        elsewhere (``P`` is read only at observed transitions), the gradient
        in the generator is the adjoint ``Gbar = delta L(delta Q^T, G)``, and
        `action_rate_gradient` takes it to the action rates ``lam sigma``.
        """
        config, counts, n_markets = self.config, self.counts, self.n_markets
        q = aggregate_generator(ccp_br, config)
        p, pullback = markov.transition_matrix_pullback(q, config.delta)
        value, seen, observed = _mean_log_probability(counts, n_markets, p)
        kept = seen[observed >= LOG_FLOOR]
        g = np.zeros(p.shape)
        g.flat[kept] = counts.ravel()[kept] / (n_markets * p.ravel()[kept])
        return value, config.lam * action_rate_gradient(pullback(g), config), seen.size - kept.size

    def information(self, ccp_br, action_jacobian):
        """Outer product of the transition scores in theta, ``sum C_kl s_kl
        s_kl' / M``, at the best responses ``ccp_br``.

        ``action_jacobian`` is the (N, K, P) derivative of ``ccp_br[:, 1, :]``
        in theta.  The score of an observed transition is ``s_kl = (dP_kl /
        dtheta) / P_kl``; each parameter's ``dP`` is one forward Frechet
        derivative in the generator direction that parameter moves
        (`add_action_rates` on zeros), all on the Pade set-up of ``P``.
        Entries below ``LOG_FLOOR`` are skipped, as in the gradient.
        """
        config = self.config
        p, forward = markov.transition_matrix_frechet(
            aggregate_generator(ccp_br, config), config.delta)
        used = (self.counts > 0) & (p >= LOG_FLOOR)
        rates = config.lam * action_jacobian
        scores = np.array([forward(add_action_rates(np.zeros_like(p), rates[:, :, q], config))[used]
                           for q in range(rates.shape[2])]) / p[used]
        weighted = scores * np.sqrt(self.counts[used])  # X X' is exactly symmetric
        return weighted @ weighted.T / self.n_markets


def sufficient_statistics(data, config):
    """`SpellStats` of an `EventLog` or `TransitionCounts` of a `Panel`; a
    statistic passes through.  Raises `InvalidArgumentError` for any other
    type, a statistic of another game, or data that cannot be fit: no
    market, no consecutive transition, or a nature move of zero rate."""
    if isinstance(data, EventLog):
        data = SpellStats.from_events(data, config)
    elif isinstance(data, Panel):
        data = TransitionCounts.from_panel(data, config)
    elif not isinstance(data, (SpellStats, TransitionCounts)):
        raise InvalidArgumentError(f"unsupported data type: {type(data)!r}")
    elif data.config != config:
        raise InvalidArgumentError("sufficient statistic belongs to another game")
    data.require_information()
    return data


def loglik_discrete(theta, ccp, panel, config, pmatrix_method="expm"):
    """Average log pseudo-likelihood of a snapshot panel.

    Applies one best-response step to ``(theta, ccp)``, builds the
    aggregate intensity matrix at those probabilities, scores every
    observed transition against ``expm(delta * Q)`` at the game's own
    sampling interval ``config.delta`` (or the uniformization series with
    ``pmatrix_method='uniformization'``), and averages over markets.
    Probabilities below ``LOG_FLOOR`` are clamped; the estimator's trace
    counts the clamps (`TransitionCounts.value_and_gradient`).
    """
    ccp = check_ccp(ccp, config)
    ccp_br = best_response_map(theta, ccp, config)
    counts, n_markets = transition_counts(panel, config.n_states)
    return discrete_loglik_from_counts(counts, n_markets, ccp_br, config, pmatrix_method)
