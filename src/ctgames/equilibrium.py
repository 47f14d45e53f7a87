"""Value functions, best responses, Markov perfect equilibria, and their derivatives.

Choice probabilities (CCPs) are stored as an (N, J, K) array ``ccp`` with
``ccp[i, j, k]`` the probability that firm ``i`` picks choice ``j`` when a
decision opportunity arrives in state ``k``.  The equilibrium object is a
fixed point of the map "value the current policy, then best-respond":
solving one K x K linear system per player and applying the logit formula.
Everything here is a pure function of its inputs; `_policy_solve`, the one
value solve, factors the players' common system matrix once.

This module owns policy valuation and its derivatives.  At fixed
probabilities the policy values are affine in theta, so `LinearizedPolicy`
gives the best response at every theta from one factorization, its
gradient chain for the estimator, and its exact Jacobians for the
diagnostics.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse import csc_array

from . import game
from .errors import ConvergenceError, InvalidArgumentError, NumericalError

EULER_GAMMA = float(np.euler_gamma)

# Probabilities are clamped to [CCP_FLOOR, 1 - CCP_FLOOR] inside logarithms
# and in best-response output; the expected-payoff term diverges at 0.
CCP_FLOOR = 1e-12
# Largest accepted deviation of a (player, state) probability sum from one.
CCP_SUM_TOL = 1e-12

# Best-response evaluations after which `solve_mpe` gives up.
MAX_MAPS = 10000
# Stall rule of `solve_mpe`: a run whose residual has not fallen by 10% over its
# last 10 evaluations restarts at half the step, down to 1/4.  At 0.9 per 10
# steps, a run the rule keeps takes 0.5 to 1e-10 within 2120 of its 10000 steps.
STALL_WINDOW = 10
STALL_RATIO = 0.9
MIN_STEP = 0.25
# Anderson mixing of `solve_mpe`: a run mixes its last MIX_DEPTH residual
# differences once its residual first falls below MIX_BELOW, so it keeps the
# equilibrium plain iteration was heading to.  A step whose residual fell to
# FAST_RATIO of the previous one or less stays plain: there plain iteration
# is already superlinear, as where the probability Jacobian vanishes.
MIX_BELOW = 1e-2
MIX_DEPTH = 5
FAST_RATIO = 0.1


def uniform_ccp(config):
    """The 1/J choice-probability array, the default equilibrium-solver start."""
    shape = (config.n_players, config.n_choices, config.n_states)
    return np.full(shape, 1.0 / config.n_choices)


def check_ccp(ccp, config):
    """Validate an (N, J, K) choice-probability array; returns it as float."""
    ccp = np.asarray(ccp, dtype=float)
    expected = (config.n_players, config.n_choices, config.n_states)
    if ccp.shape != expected:
        raise InvalidArgumentError(f"ccp must have shape {expected}, got {ccp.shape}")
    if not np.all(np.isfinite(ccp)):
        raise InvalidArgumentError("choice probabilities must be finite")
    if ccp.min() <= 0.0 or ccp.max() >= 1.0:
        raise InvalidArgumentError("choice probabilities must lie strictly inside (0, 1)")
    if np.abs(ccp.sum(axis=1) - 1.0).max() > CCP_SUM_TOL:
        raise InvalidArgumentError("choice probabilities must sum to one per (player, state)")
    return ccp


def interior_softmax(values):
    """Overflow-safe softmax over the choice axis (axis 1) of (N, J, K) choice
    values, clamped to [CCP_FLOOR, 1 - CCP_FLOOR] and renormalized."""
    shifted = values - values.max(axis=1, keepdims=True)
    weights = np.exp(shifted)
    probs = weights / weights.sum(axis=1, keepdims=True)
    np.clip(probs, CCP_FLOOR, 1.0 - CCP_FLOOR, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _logistic_slope(ccp):
    """(N, K) slope ``ccp1 * ccp0`` of the two-choice logistic, zero where
    `interior_softmax` clamped: its clamped entries come back exactly at
    ``CCP_FLOOR``, and there the probabilities do not move with the values."""
    return np.where(ccp.min(axis=1) > CCP_FLOOR, ccp[:, 1] * ccp[:, 0], 0.0)


def add_action_rates(q, rates, config):
    """Add the (N, K) action rates to the K x K matrix ``q`` in place and
    return it: firm i's rate in state k goes to ``q[k, toggle_i(k)]`` and
    off ``q[k, k]``, firm by firm.  `action_rate_gradient` is its adjoint."""
    toggle = game.state_tables(config).toggle
    ks = np.arange(config.n_states)
    for i in range(config.n_players):
        q[ks, toggle[i]] += rates[i]
        q[ks, ks] -= rates[i]
    return q


def action_rate_gradient(gbar, config):
    """Adjoint of `add_action_rates`: the (N, K) gradient in the action rates,
    ``gbar[k, toggle_i(k)] - gbar[k, k]``, of a function whose gradient in
    the K x K generator is ``gbar``."""
    ks = np.arange(config.n_states)
    return gbar[ks, game.state_tables(config).toggle] - gbar[ks, ks]


def aggregate_generator(ccp, config):
    """Total intensity matrix: nature plus every firm's choice-driven rates."""
    return add_action_rates(game.nature_generator(config), config.lam * ccp[:, 1], config)


def _policy_system_matrix(ccp, config):
    """The K x K matrix ``rho I - Q(ccp)`` inverted by the value solve.

    Shared by all players; strictly diagonally dominant for rho > 0, hence
    nonsingular in exact arithmetic.
    """
    xi = -aggregate_generator(ccp, config)
    xi[np.diag_indices_from(xi)] += config.rho
    return xi


def _policy_solve(ccp, config, rhs):
    """The value solve: ``(X, factor)`` with ``X`` solving ``(rho I - Q(ccp)) X
    = rhs`` for a (K, m) ``rhs`` and ``factor`` the system matrix's LU factors
    and pivots, by LAPACK ``getrf`` (`lu_factor`'s call, without its warning
    on a zero pivot) and ``getrs``.  A discount rate lost to rounding beside
    the largest exit rate, a zero pivot or an entry of ``X`` that is not
    finite raises `NumericalError`."""
    xi = _policy_system_matrix(ccp, config)
    largest = xi.diagonal().max()
    if config.rho <= np.finfo(float).eps * largest:
        raise NumericalError(f"value equation rho I - Q is singular: rho = {config.rho:g} "
                             f"is lost to rounding beside a diagonal entry of {largest:g}")
    factor = dgetrf(xi)[:2]
    solved = dgetrs(*factor, rhs)[0]
    if not np.all(np.isfinite(solved)):
        raise NumericalError("value equation rho I - Q is singular or its solution is not finite")
    return solved, factor


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
    payoff and ``E_i`` the expected choice payoff, by `_policy_solve`.
    """
    ccp = check_ccp(ccp, config)
    design, offset = _value_equation(ccp, config)
    rhs = design @ theta.as_vector() + offset
    return _policy_solve(ccp, config, rhs.T)[0].T


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
    return interior_softmax(choice_values)


def best_response_map(theta, ccp, config):
    """One policy-valuation-plus-improvement step; MPE are its fixed points."""
    return best_response(theta, value_function(theta, ccp, config), config)


class LinearizedPolicy:
    """Best-response probabilities as an exact function of theta.

    Built at fixed previous-stage probabilities ``ccp_prev``; `ccp(vec)`
    equals ``best_response_map(Theta.from_vector(vec), ccp_prev, config)``
    for every parameter vector.  ``weights @ vec + offsets`` are the (N, J, K)
    choice values ``psi_ijk + V_i[l(i, j, k)]``, and ``factor`` holds the LU
    factors of the policy system matrix at ``ccp_prev`` (`_policy_solve`).
    """

    def __init__(self, ccp_prev, config):
        self.ccp_prev = check_ccp(ccp_prev, config)
        self.config = config
        n, k_total = config.n_players, config.n_states
        design, offset = _value_equation(self.ccp_prev, config)
        p = design.shape[2]

        # one solve for every player's P weight columns and offset column
        rhs = np.concatenate([design, offset[:, :, None]], axis=2)
        solved, self.factor = _policy_solve(
            self.ccp_prev, config, rhs.transpose(1, 0, 2).reshape(k_total, -1))
        solved = solved.reshape(k_total, n, p + 1).transpose(1, 0, 2)  # (N, K, P+1)

        dest = game.state_tables(config).continuation
        at_dest = solved[np.arange(n)[:, None, None], dest]             # (N, J, K, P+1)
        self.weights = at_dest[..., :p].copy()
        self.weights[..., -1] += game.entry_design(config)
        self.offsets = at_dest[..., p].copy()

    def ccp(self, theta_vec):
        """Best-response probabilities at this parameter vector."""
        values = self.weights @ np.asarray(theta_vec, dtype=float) + self.offsets
        return interior_softmax(values)

    def theta_jacobian(self, ccp):
        """(N, K, P) derivative of the action probabilities ``ccp[:, 1, :]`` in
        theta at the best response ``ccp``: through the two-choice logistic,
        `_logistic_slope` times ``W1 - W0``."""
        return _logistic_slope(ccp)[:, :, None] * (self.weights[:, 1] - self.weights[:, 0])

    def chain(self, ccp, action_grad):
        """Gradient in theta from an (N, K) gradient in ``ccp[:, 1, :]``."""
        return np.einsum("nk,nkp->p", action_grad, self.theta_jacobian(ccp))

    def jacobian_factors(self, theta):
        """Best response, the half-rank factors of its probability Jacobian, and
        its parameter Jacobian, at `Theta` ``theta``.

        Returns ``(br, left, right, theta_jac)``: the (N, J, K) best response,
        the factors of the (NK, NK) probability Jacobian ``ccp_jac = left @
        right`` and the (NK, P) parameter Jacobian, row and column ``i*K + k``
        for firm i's action probability in state k (the stay probability
        moves oppositely).  With ``s_ik`` the `_logistic_slope` of ``br``,
        ``w`` the choice-value weights and ``X`` the inverse of the policy
        system matrix,

        - ``theta_jac[(i, k)] = s_ik (w_i1k - w_i0k)``, `theta_jacobian` at ``br``;
        - ``ccp_jac[(i, k'), (m, k)] = s_ik' (X[l_i(k'), k] - X[k', k]) lam
          [delta_im (psi_i1k - psi_i0k - ln ccp_i1k + ln ccp_i0k)
          - (V_i[k] - V_i[l_m(k)])]``, because ``ccp_m1k`` enters the value
          equation only in row k (through the system matrix and, for m = i,
          the expected choice payoff).

        Toggling firm i is an involution, so the gap ``X[l_i(k'), k] - X[k', k]``
        only changes sign between k' and ``l_i(k')``: the rows of ``ccp_jac``
        come in pairs proportional to one row.  Row ``i*K/2 + j`` of the
        (NK/2, NK) ``right`` is that row, unscaled, for the j-th state ``h``
        where firm i is inactive; column ``i*K/2 + j`` of the (NK, NK/2)
        `scipy.sparse.csc_array` ``left`` stores two entries: ``s_ih`` at row
        ``i*K + h`` and ``-s_i,l_i(h)`` at row ``i*K + l_i(h)``, zero or not.
        """
        config = self.config
        n, k_total = config.n_players, config.n_states
        tables = game.state_tables(config)
        choice_values = self.weights @ theta.as_vector() + self.offsets  # (N, J, K)
        br = interior_softmax(choice_values)
        slope = _logistic_slope(br)

        values = choice_values[:, 0]  # choice 0 stays in place and pays nothing
        psi = game.instant_payoffs(theta, config)
        logs = np.log(np.clip(self.ccp_prev, CCP_FLOOR, 1.0 - CCP_FLOOR))
        coef = values[:, tables.toggle] - values[:, None, :]  # [i, m, k]: V_i[l_m(k)] - V_i[k]
        players = np.arange(n)
        coef[players, players] += psi[:, 1] - psi[:, 0] - logs[:, 1] + logs[:, 0]
        coef *= config.lam

        idle = np.nonzero(tables.activity.T == 0)[1].reshape(n, -1)  # [i, j]: h
        entered = tables.toggle[players[:, None], idle]               # [i, j]: l_i(h)
        inverse = dgetrs(*self.factor, np.eye(k_total))[0]
        gap = inverse[entered] - inverse[idle]  # [i, j, k]: X[l_i(h), k] - X[h, k]
        right = gap[:, :, None, :] * coef[:, None]

        rows = n * k_total
        at = np.stack([idle, entered], axis=-1)  # [i, j]: states h, l_i(h) of column i*K/2 + j
        firm = players[:, None, None]
        left = csc_array(((slope[firm, at] * [1, -1]).ravel(), (firm * k_total + at).ravel(),
                          np.arange(0, rows + 1, 2)), shape=(rows, rows // 2))
        return (br, left, right.reshape(rows // 2, rows), self.theta_jacobian(br).reshape(rows, -1))


class MpeResult(NamedTuple):
    """An equilibrium; ``iterations == len(trace)`` counts every best-response evaluation."""

    ccp: np.ndarray
    iterations: int
    residual: float
    trace: list


def _anderson_step(xs, fs):
    """Anderson (type II) update from iterates ``xs`` and their residuals
    ``fs = g(x) - x`` under a fixed-point map ``g``, oldest first (at least two).

    Returns ``x + f - (dX + dF) gamma`` at the newest pair, shaped like it,
    with ``dX``, ``dF`` the columns of successive differences and ``gamma``
    their least-squares fit to ``f`` (Walker & Ni 2011).
    """
    shape = np.shape(xs[-1])
    xs = np.reshape(xs, (len(xs), -1))
    fs = np.reshape(fs, (len(fs), -1))
    d_x, d_f = np.diff(xs, axis=0).T, np.diff(fs, axis=0).T
    gamma = np.linalg.lstsq(d_f, fs[-1], rcond=None)[0]
    return (xs[-1] + fs[-1] - (d_x + d_f) @ gamma).reshape(shape)


def solve_mpe(theta, config, tol=1e-10):
    """Markov perfect equilibrium by successive approximation, halving the step
    on a stall and Anderson-mixed near the fixed point.

    Iterates ``ccp <- ccp + step * (map(ccp) - ccp)`` from the uniform policy
    until the sup-norm fixed-point residual drops below ``tol``.  ``step``
    starts at 1, but best-response iteration need not contract: a run whose
    residual has not fallen by 10% over its last ``STALL_WINDOW`` iterations
    restarts from the uniform policy at half the step, down to ``MIN_STEP``.

    Once a run's residual first falls below ``MIX_BELOW``, its steps are
    Anderson-mixed: the NK action probabilities ``ccp[:, 1]`` move to the
    combination of the last ``MIX_DEPTH`` + 1 damped iterates ``ccp + step *
    (map(ccp) - ccp)`` whose residual differences best cancel the newest
    residual in least squares, clipped to [CCP_FLOOR, 1 - CCP_FLOOR]; the
    stay probabilities are one minus the action.  Two rules keep it safe.
    A step whose residual fell to ``FAST_RATIO`` of the previous one or less
    stays plain, so superlinear endgames (rn = 0, one firm) keep their last
    digits; its pair still joins the history.  A residual above the previous
    one clears the history.  Before the switch the iterates are plain
    iteration's, so the equilibrium is the one plain iteration reaches,
    within the tolerance.

    Returns
    -------
    MpeResult
        Equilibrium CCPs, best-response evaluations (abandoned runs
        included), final residual, and the per-evaluation residual trace.

    Raises
    ------
    InvalidArgumentError
        If ``tol`` is not a positive finite number.
    NumericalError
        If a value solve fails (`_policy_solve`).
    ConvergenceError
        If the residual is still above ``tol`` after ``MAX_MAPS`` evaluations.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidArgumentError(f"tol must be a positive finite number, got {tol}")
    start = uniform_ccp(config)
    ccp, step, run_start, trace = start, 1.0, 0, []
    xs, fs, mixing = [], [], False  # the run's mixing history
    while len(trace) < MAX_MAPS:
        updated = best_response_map(theta, ccp, config)
        residual = float(np.abs(updated - ccp).max())
        trace.append(residual)
        if residual < tol:
            return MpeResult(ccp=ccp, iterations=len(trace), residual=residual, trace=trace)
        if (step > MIN_STEP and len(trace) - run_start > STALL_WINDOW
                and residual > STALL_RATIO * trace[-1 - STALL_WINDOW]):
            ccp, step, run_start = start, step / 2, len(trace)
            xs, fs, mixing = [], [], False
            continue
        plain = ccp + step * (updated - ccp)
        mixing = mixing or residual < MIX_BELOW
        if not mixing:
            ccp = plain
            continue
        previous = trace[-2] if len(trace) - run_start > 1 else np.inf
        if residual > previous:
            xs, fs = [], []
        xs, fs = xs[-MIX_DEPTH:] + [ccp[:, 1]], fs[-MIX_DEPTH:] + [plain[:, 1] - ccp[:, 1]]
        if len(xs) == 1 or residual <= FAST_RATIO * previous:
            ccp = plain
        else:
            action = np.clip(_anderson_step(xs, fs), CCP_FLOOR, 1.0 - CCP_FLOOR)
            ccp = np.stack([1.0 - action, action], axis=1)
    raise ConvergenceError(
        f"no equilibrium after {MAX_MAPS} iterations, residual {trace[-1]:g}",
        residual=trace[-1], iterations=MAX_MAPS)
