"""Value functions, best responses, and Markov perfect equilibria.

Choice probabilities (CCPs) are stored as an (N, J, K) array ``ccp`` with
``ccp[i, j, k]`` the probability that firm ``i`` picks choice ``j`` when a
decision opportunity arrives in state ``k``.  The equilibrium object is a
fixed point of the map "value the current policy, then best-respond":
solving one K x K linear system per player and applying the logit formula.
Everything here is a pure function of its inputs; per-player solves share a
single factorization of the common system matrix.
"""

from typing import NamedTuple

import numpy as np

from . import game
from .errors import ConvergenceError, InvalidArgumentError

EULER_GAMMA = float(np.euler_gamma)

# Probabilities are clamped to [CCP_FLOOR, 1 - CCP_FLOOR] inside logarithms
# and in best-response output; the expected-payoff term diverges at 0.
CCP_FLOOR = 1e-12


def uniform_ccp(config):
    """The 1/J choice-probability array, the default equilibrium-solver start."""
    shape = (config.n_players, config.n_choices, config.n_states)
    return np.full(shape, 1.0 / config.n_choices)


def check_ccp(ccp, config, tol=1e-12):
    """Validate an (N, J, K) choice-probability array; returns it as float."""
    ccp = np.asarray(ccp, dtype=float)
    expected = (config.n_players, config.n_choices, config.n_states)
    if ccp.shape != expected:
        raise InvalidArgumentError(f"ccp must have shape {expected}, got {ccp.shape}")
    if ccp.min() <= 0.0 or ccp.max() >= 1.0:
        raise InvalidArgumentError("choice probabilities must lie strictly inside (0, 1)")
    if np.abs(ccp.sum(axis=1) - 1.0).max() > tol:
        raise InvalidArgumentError("choice probabilities must sum to one per (player, state)")
    return ccp


def interior_softmax(values, axis=0):
    """Overflow-safe softmax clamped to [CCP_FLOOR, 1 - CCP_FLOOR] and renormalized."""
    shifted = values - values.max(axis=axis, keepdims=True)
    weights = np.exp(shifted)
    probs = weights / weights.sum(axis=axis, keepdims=True)
    np.clip(probs, CCP_FLOOR, 1.0 - CCP_FLOOR, out=probs)
    probs /= probs.sum(axis=axis, keepdims=True)
    return probs


def aggregate_generator(ccp, config):
    """Total intensity matrix: nature plus every firm's choice-driven rates."""
    q = game.nature_generator(config)
    tables = game.state_tables(config)
    ks = np.arange(config.n_states)
    for i in range(config.n_players):
        rates = config.lam * ccp[i, 1]
        q[ks, tables.toggle[i]] += rates
        q[ks, ks] -= rates
    return q


def expected_instant_payoff(theta, ccp, i, config):
    """Ex-ante expected choice payoff of firm ``i``, one entry per state.

    Under extreme-value taste shocks the expectation has the closed form
    ``sum_j ccp_ijk * (psi_ijk + euler_gamma - ln ccp_ijk)``.
    """
    return expected_instant_payoffs(theta, ccp, config)[i]


def expected_instant_payoffs(theta, ccp, config):
    """All players' expected choice payoffs as an (N, K) array."""
    ccp = np.asarray(ccp, dtype=float)
    if ccp.min() <= 0.0:
        raise InvalidArgumentError("expected payoff requires strictly positive probabilities")
    psi = game.instant_payoffs(theta, config)
    logs = np.log(np.clip(ccp, CCP_FLOOR, 1.0 - CCP_FLOOR))
    return (ccp * (psi + EULER_GAMMA - logs)).sum(axis=1)


def _policy_system_matrix(ccp, config):
    """The K x K matrix ``rho I - Q(ccp)`` inverted by the value solve.

    Shared by all players; strictly diagonally dominant for rho > 0, hence
    nonsingular.
    """
    xi = -aggregate_generator(ccp, config)
    xi[np.diag_indices_from(xi)] += config.rho
    return xi


def _value_equation(ccp, config):
    """Right-hand side of the value equation, affine in theta at fixed ``ccp``.

    Returns ``(design, offset)`` of shapes (N, K, P) and (N, K) such that
    ``design @ theta_vector + offset`` is ``u_i + lam E_i`` per player: the
    flow payoff is linear in theta through its design rows, and the
    expected choice payoff splits into an entry-cost term linear in theta
    plus the known entropy term ``sum_j ccp_ijk (euler_gamma - ln ccp_ijk)``.
    """
    design = game.flow_design_rows(config)
    design[:, :, -1] += config.lam * (ccp * game.entry_design(config)).sum(axis=1)
    logs = np.log(np.clip(ccp, CCP_FLOOR, 1.0 - CCP_FLOOR))
    offset = config.lam * (ccp * (EULER_GAMMA - logs)).sum(axis=1)
    return design, offset


def value_function(theta, ccp, config):
    """Policy values: solve the linear system for each player's (K,) value vector.

    Returns an (N, K) array ``V`` with ``V[i]`` solving
    ``(rho I - Q(ccp)) V_i = u_i + lam E_i`` where ``u_i`` is the flow
    payoff and ``E_i`` the expected choice payoff.
    """
    ccp = check_ccp(ccp, config)
    design, offset = _value_equation(ccp, config)
    rhs = design @ theta.as_vector() + offset
    return np.linalg.solve(_policy_system_matrix(ccp, config), rhs.T).T


def best_response(theta, values, config):
    """Logit choice probabilities against fixed continuation values.

    ``ccp[i, j, k]`` is proportional to ``exp(psi_ijk + V_i[l(i, j, k)])``,
    computed with max subtraction; output is strictly interior.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("best response requires finite values")
    dest = game.state_tables(config).continuation
    players = np.arange(config.n_players)[:, None, None]
    choice_values = game.instant_payoffs(theta, config) + values[players, dest]
    return interior_softmax(choice_values, axis=1)


def best_response_map(theta, ccp, config):
    """One policy-valuation-plus-improvement step; MPE are its fixed points."""
    return best_response(theta, value_function(theta, ccp, config), config)


class MpeResult(NamedTuple):
    ccp: np.ndarray
    iterations: int
    residual: float
    trace: list


def solve_mpe(theta, config, init=None, tol=1e-10, max_iter=10000, damping=1.0):
    """Markov perfect equilibrium by (damped) successive approximation.

    Iterates ``ccp <- (1 - damping) * ccp + damping * map(ccp)`` from the
    uniform policy (or ``init``) until the sup-norm fixed-point residual
    drops below ``tol``.

    Returns
    -------
    MpeResult
        Equilibrium CCPs, iteration count, final residual, and the
        per-iteration residual trace.

    Raises
    ------
    ConvergenceError
        If the residual is still above ``tol`` after ``max_iter`` steps.
    """
    if not 0 < damping <= 1:
        raise InvalidArgumentError(f"damping must be in (0, 1], got {damping}")
    ccp = uniform_ccp(config) if init is None else check_ccp(init, config)
    trace = []
    for iteration in range(1, max_iter + 1):
        updated = best_response_map(theta, ccp, config)
        residual = float(np.abs(updated - ccp).max())
        trace.append(residual)
        if residual < tol:
            return MpeResult(ccp=ccp, iterations=iteration, residual=residual, trace=trace)
        ccp = ccp + damping * (updated - ccp)
    raise ConvergenceError(
        f"no equilibrium after {max_iter} iterations, residual {trace[-1]:g}",
        residual=trace[-1], iterations=max_iter)
