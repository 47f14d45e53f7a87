"""CCP initializers, pseudo-likelihood maximization, and the nested estimator.

The inner maximization never re-solves the value function per candidate
theta.  Holding the previous-stage choice probabilities fixed, the policy
values are exactly affine in the parameter vector, ``V_i = W_i @ theta +
offset_i``: the system matrix depends only on those probabilities, the flow
payoff is linear in theta through its design rows, and the expected choice
payoff splits into an entry-cost term linear in theta plus a known entropy
term.  `LinearizedPolicy` solves the value equation that
`equilibrium.value_function` uses, for all of its affine columns at once
(one factorization, one multi-column solve per stage), and reproduces the
best-response map exactly at every theta; the likelihood is then maximized
over theta by BFGS with central-difference gradients.  The same object
gives the exact Jacobians of the convergence diagnostics.

The nested loop alternates that maximization with one best-response update
of the probabilities until both sup-norm deltas fall under tolerance; a
single stage is the two-step pseudo maximum likelihood estimator.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import minimize

from . import game
from .equilibrium import _policy_system_matrix, _value_equation, check_ccp, interior_softmax
from .errors import InvalidArgumentError, NumericalError, OptimizationError
# flow_design_rows stays importable from here; the payoff design lives in game
from .game import Theta, entry_design, flow_design_rows  # noqa: F401
from .likelihood import SpellStats, discrete_loglik_from_counts, transition_counts
from .simulate import EventLog, Panel

# Initializer probabilities are clamped into [INIT_FLOOR, 1 - INIT_FLOOR].
INIT_FLOOR = 1e-6


class LinearizedPolicy:
    """Best-response probabilities as an exact function of theta.

    Built at fixed previous-stage probabilities ``ccp_prev``; `ccp(vec)`
    equals ``best_response_map(Theta.from_vector(vec), ccp_prev, config)``
    for every parameter vector.  ``weights @ vec + offsets`` are the (N, J, K)
    choice values ``psi_ijk + V_i[l(i, j, k)]``, and ``factor`` holds the LU
    factors of the policy system matrix at ``ccp_prev``.
    """

    def __init__(self, ccp_prev, config):
        ccp_prev = check_ccp(ccp_prev, config)
        self.config = config
        n, k_total = config.n_players, config.n_states
        design, offset = _value_equation(ccp_prev, config)
        p = design.shape[2]

        self.factor = lu_factor(_policy_system_matrix(ccp_prev, config))
        # one solve for every player's P weight columns and offset column
        rhs = np.concatenate([design, offset[:, :, None]], axis=2)
        solved = lu_solve(self.factor, rhs.transpose(1, 0, 2).reshape(k_total, -1))
        solved = solved.reshape(k_total, n, p + 1).transpose(1, 0, 2)  # (N, K, P+1)

        dest = game.state_tables(config).continuation
        at_dest = solved[np.arange(n)[:, None, None], dest]             # (N, J, K, P+1)
        self.weights = at_dest[..., :p].copy()
        self.weights[..., -1] += entry_design(config)
        self.offsets = at_dest[..., p].copy()

    def ccp(self, theta_vec):
        """Best-response probabilities at this parameter vector."""
        values = self.weights @ np.asarray(theta_vec, dtype=float) + self.offsets
        return interior_softmax(values, axis=1)


class _PseudoLikelihood:
    """Market-averaged log likelihood as a function of theta at fixed ccp_prev."""

    def __init__(self, data, ccp_prev, config):
        self.config = config
        self.policy = LinearizedPolicy(ccp_prev, config)
        if isinstance(data, EventLog):
            self.kind = "continuous"
            if data.n_markets == 0:
                raise InvalidArgumentError("event log holds no market")
            stats = SpellStats.from_events(data, config)
            self._exposure = stats.exposure
            self._moves = stats.moves
            self._n_markets = stats.n_markets
            q0 = game.nature_generator(config)
            np.fill_diagonal(q0, 0.0)
            with np.errstate(divide="ignore"):
                log_q0 = np.where(stats.nature_moves > 0, np.log(q0), 0.0)
            if np.any((stats.nature_moves > 0) & (q0 <= 0)):
                raise InvalidArgumentError("event log contains impossible nature moves")
            self._nature_term = ((stats.nature_moves * log_q0).sum()
                                 - (stats.exposure * q0.sum(axis=1)).sum())
        elif isinstance(data, Panel):
            self.kind = "discrete"
            self._counts, self._n_markets = transition_counts(data, config.n_states)
            if not self._counts.any():
                raise InvalidArgumentError("panel holds no consecutive transition")
        else:
            raise InvalidArgumentError(f"unsupported data type: {type(data)!r}")

    def value(self, theta_vec):
        ccp = self.policy.ccp(theta_vec)
        if self.kind == "continuous":
            rates = self.config.lam * ccp[:, 1, :]
            total = (self._moves * np.log(rates)).sum()
            total -= (self._exposure * rates.sum(axis=0)).sum()
            return (total + self._nature_term) / self._n_markets
        return discrete_loglik_from_counts(self._counts, self._n_markets,
                                           ccp, self.config)


def central_difference_gradient(fun, x, rel_step=1e-6):
    """Central-difference gradient with per-coordinate relative steps."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for q in range(len(x)):
        h = rel_step * max(1.0, abs(x[q]))
        up, down = x.copy(), x.copy()
        up[q] += h
        down[q] -= h
        grad[q] = (fun(up) - fun(down)) / (2 * h)
    return grad


class _EvalBudgetExceeded(Exception):
    pass


def _maximize(ccp_prev, data, config, theta_init=None, gtol=1e-6, max_evals=500):
    """Inner maximization; returns (theta vector, loglik, linearized policy)."""
    pseudo = _PseudoLikelihood(data, ccp_prev, config)
    p = config.n_players + 3
    x0 = np.ones(p) if theta_init is None else np.asarray(theta_init, dtype=float)

    state = {"evals": 0, "best_x": x0, "best_f": -np.inf}

    def objective(x):
        state["evals"] += 1
        if state["evals"] > max_evals:
            raise _EvalBudgetExceeded
        value = pseudo.value(x)
        if value > state["best_f"]:
            state["best_f"], state["best_x"] = value, x.copy()
        return -value

    def gradient(x):
        return -central_difference_gradient(pseudo.value, x)

    try:
        result = minimize(objective, x0, jac=gradient, method="BFGS",
                          options={"gtol": gtol, "maxiter": max_evals})
    except _EvalBudgetExceeded:
        grad_norm = float(np.abs(gradient(state["best_x"])).max())
        raise OptimizationError(
            f"pseudo-likelihood maximization exceeded {max_evals} evaluations "
            f"(gradient sup-norm {grad_norm:g})",
            best_point=Theta.from_vector(state["best_x"], config.n_players),
            gradient_norm=grad_norm) from None

    grad_norm = float(np.abs(result.jac).max())
    # BFGS may stop on line-search precision loss with a near-stationary
    # gradient; accept those, reject genuinely unconverged exits.
    if not result.success and grad_norm > 1e-4:
        raise OptimizationError(
            f"pseudo-likelihood maximization did not converge: {result.message} "
            f"(gradient sup-norm {grad_norm:g})",
            best_point=Theta.from_vector(state["best_x"], config.n_players),
            gradient_norm=grad_norm)
    return result.x, float(-result.fun), pseudo.policy


def maximize_pseudo_likelihood(ccp_prev, data, config, theta_init=None,
                               gtol=1e-6, max_evals=500):
    """One pseudo-likelihood maximization over theta at fixed probabilities.

    ``data`` selects the likelihood: an `EventLog` uses the event-data form
    (through its sufficient statistics), a `Panel` the snapshot form.  The
    default start is the all-ones vector.

    Raises
    ------
    OptimizationError
        On eval-budget exhaustion or non-convergence; carries the best
        point visited and its gradient norm.
    InvalidArgumentError
        If a panel holds no consecutive transition or an event log no market.
    """
    init = None if theta_init is None else theta_init.as_vector()
    vec, _, _ = _maximize(ccp_prev, data, config, theta_init=init,
                          gtol=gtol, max_evals=max_evals)
    return Theta.from_vector(vec, config.n_players)


@dataclass
class EstimationResult:
    """Outcome of the nested estimation loop."""

    theta_hat: Theta
    ccp_hat: np.ndarray
    iterations: int
    converged: bool
    loglik: float
    trace: list = field(default_factory=list)


def ctnpl(data, config, ccp0, max_stages=20, tol=1e-6, theta_init=None,
          gtol=1e-6, max_evals=500):
    """Nested pseudo-likelihood estimation from initial probabilities ``ccp0``.

    Alternates a theta maximization at the current probabilities with one
    best-response update of the probabilities, stopping once both sup-norm
    deltas drop below ``tol``.  ``max_stages=1`` is the two-step pseudo
    maximum likelihood estimator.  Later stages warm-start theta from the
    previous stage.  If the loop does not converge, the highest-likelihood
    visited candidate is returned with ``converged=False``.

    Trace entries record, per stage, the sup-norm changes in the
    probabilities and parameters and the attained pseudo log likelihood.
    A stage whose pseudo log likelihood is not finite raises
    `NumericalError` instead of being ranked.
    """
    if max_stages < 1:
        raise InvalidArgumentError("max_stages must be >= 1")
    ccp = np.clip(np.asarray(ccp0, dtype=float), INIT_FLOOR, 1 - INIT_FLOOR)
    ccp = ccp / ccp.sum(axis=1, keepdims=True)
    check_ccp(ccp, config)

    theta_prev = None if theta_init is None else theta_init.as_vector()
    trace = []
    best = None
    for stage in range(1, max_stages + 1):
        try:
            vec, loglik, policy = _maximize(ccp, data, config, theta_init=theta_prev,
                                            gtol=gtol, max_evals=max_evals)
        except OptimizationError as err:
            raise OptimizationError(
                f"stage {stage}: {err}", best_point=err.best_point,
                gradient_norm=err.gradient_norm) from err
        if not np.isfinite(loglik):
            raise NumericalError(f"stage {stage}: pseudo log likelihood is {loglik}")
        updated = policy.ccp(vec)
        sigma_delta = float(np.abs(updated - ccp).max())
        theta_delta = (np.inf if theta_prev is None
                       else float(np.abs(vec - theta_prev).max()))
        trace.append({"stage": stage, "sigma_delta": sigma_delta,
                      "theta_delta": theta_delta, "loglik": loglik})
        candidate = EstimationResult(
            theta_hat=Theta.from_vector(vec, config.n_players),
            ccp_hat=updated, iterations=stage, converged=False,
            loglik=loglik, trace=trace)
        if best is None or loglik > best.loglik:
            best = candidate
        if sigma_delta < tol and theta_delta < tol:
            candidate.converged = True
            return candidate
        ccp = updated
        theta_prev = vec
    return best


def rmse_relative(results, baseline, theta_true):
    """Root-mean-squared-error ratios against a baseline estimator.

    ``results`` maps estimator name to an (R, P) array of replication
    estimates; returns {name: (P,) array} of per-parameter RMSE divided by
    the baseline's RMSE.
    """
    if baseline not in results:
        raise InvalidArgumentError(f"baseline estimator {baseline!r} missing from results")
    true_vec = theta_true.as_vector()

    def rmse(arr):
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise InvalidArgumentError("each estimator needs >= 2 replications")
        return np.sqrt(((arr - true_vec) ** 2).mean(axis=0))

    base = rmse(results[baseline])
    return {name: rmse(arr) / base for name, arr in results.items()}


def init_ccp(method, data, config, ccp_star=None, seed=None):
    """First-stage choice probabilities.

    ``method`` is one of:

    - ``"true"``: return ``ccp_star`` unchanged (infeasible benchmark).
    - ``"random"``: independent Uniform(0,1) action probabilities.
    - ``"frequency"``: from an `EventLog`, the hazard-identity estimate
      moves / (lam * exposure) per (firm, state), falling back to the
      firm's pooled rate in unvisited states; from a `Panel`, the add-one
      smoothed frequency of activity toggles between consecutive snapshots
      given the pre-state (crude on purpose -- the nested loop does not
      need a consistent start).
    - ``"logit"``: pooled semi-parametric fit on (firm dummies, demand
      level, ln(1 + active rivals)), with separate coefficients for entry
      and exit states; a logistic regression of the toggle indicator for
      panels, a logistic-hazard maximum likelihood for event logs.

    All outputs are clamped inside [1e-6, 1 - 1e-6].
    """
    if method == "true":
        if ccp_star is None:
            raise InvalidArgumentError("method 'true' requires ccp_star")
        return check_ccp(np.array(ccp_star, dtype=float), config)
    if method == "random":
        rng = np.random.default_rng(seed)
        probs = rng.uniform(size=(config.n_players, config.n_states))
        return _as_ccp(probs, config)
    if data is None:
        raise InvalidArgumentError(f"method {method!r} requires data")
    if method == "frequency":
        if isinstance(data, EventLog):
            return _frequency_from_events(data, config)
        return _frequency_from_panel(data, config)
    if method == "logit":
        if isinstance(data, EventLog):
            return _logit_from_events(data, config)
        return _logit_from_panel(data, config)
    raise InvalidArgumentError(f"unknown init method: {method!r}")


def _as_ccp(action_probs, config):
    probs = np.clip(action_probs, INIT_FLOOR, 1 - INIT_FLOOR)
    ccp = np.empty((config.n_players, config.n_choices, config.n_states))
    ccp[:, 1, :] = probs
    ccp[:, 0, :] = 1 - probs
    return ccp


def _frequency_from_events(events, config):
    stats = SpellStats.from_events(events, config)
    exposure = config.lam * stats.exposure[None, :]
    pooled = stats.moves.sum(axis=1) / np.maximum(config.lam * stats.exposure.sum(), 1e-12)
    probs = np.where(exposure > 0,
                     stats.moves / np.maximum(exposure, 1e-300),
                     pooled[:, None])
    return _as_ccp(probs, config)


def _toggle_observations(panel, config):
    """Per (transition, firm) toggle indicators with pre-state features."""
    same = ((panel.market_id[1:] == panel.market_id[:-1])
            & (panel.period[1:] == panel.period[:-1] + 1))
    pre = panel.state[:-1][same]
    post = panel.state[1:][same]
    tables = game.state_tables(config)
    toggled = tables.activity[pre] != tables.activity[post]  # (n, N)
    return pre, toggled


def _frequency_from_panel(panel, config):
    pre, toggled = _toggle_observations(panel, config)
    k_total, n = config.n_states, config.n_players
    counts = np.zeros((n, k_total))
    visits = np.zeros(k_total)
    np.add.at(visits, pre, 1.0)
    for i in range(n):
        np.add.at(counts[i], pre, toggled[:, i].astype(float))
    probs = (counts + 1.0) / (visits[None, :] + 2.0)
    return _as_ccp(probs, config)


def _initializer_features(config):
    """(N, K, F) feature rows: (dummies, demand, ln(1+rivals)) x {entry, exit}."""
    n, k_total = config.n_players, config.n_states
    tables = game.state_tables(config)
    base = np.zeros((n, k_total, n + 2))
    for i in range(n):
        base[i, :, i] = 1.0
    base[:, :, n] = tables.demand[None, :]
    base[:, :, n + 1] = np.log1p(tables.n_rivals)
    active = tables.activity.T[:, :, None]
    return np.concatenate([base * (1 - active), base * active], axis=2)


def _fit_logistic(features, successes, trials, offsets=None):
    """Newton (IRLS) fit of successes/trials ~ logistic(features @ beta)."""
    n_feat = features.shape[1]
    beta = np.zeros(n_feat)
    offsets = np.zeros(len(successes)) if offsets is None else offsets
    for _ in range(100):
        eta = features @ beta + offsets
        prob = 1.0 / (1.0 + np.exp(-eta))
        weight = trials * prob * (1 - prob)
        grad = features.T @ (successes - trials * prob)
        hessian = features.T @ (features * weight[:, None])
        hessian += 1e-10 * np.eye(n_feat)
        step = np.linalg.solve(hessian, grad)
        beta = beta + step
        if np.abs(step).max() < 1e-10:
            break
    return beta


def _logit_from_panel(panel, config):
    pre, toggled = _toggle_observations(panel, config)
    feats = _initializer_features(config)
    rows = np.concatenate([feats[i, pre] for i in range(config.n_players)])
    y = np.concatenate([toggled[:, i].astype(float) for i in range(config.n_players)])
    beta = _fit_logistic(rows, y, np.ones(len(y)))
    probs = 1.0 / (1.0 + np.exp(-(feats @ beta)))
    return _as_ccp(probs, config)


def _logit_from_events(events, config):
    """Logistic-link hazard fit: move counts ~ Poisson(lam * sigma * exposure).

    Maximizes sum_ik [n_ik ln sigma_ik - lam T_k sigma_ik] over the logistic
    index by BFGS (the exposure term breaks the concavity IRLS relies on).
    """
    stats = SpellStats.from_events(events, config)
    feats = _initializer_features(config)
    moves = stats.moves
    exposure = config.lam * stats.exposure[None, :]

    def neg_loglik(beta):
        prob = 1.0 / (1.0 + np.exp(-(feats @ beta)))
        prob = np.clip(prob, 1e-12, 1 - 1e-12)
        return -(moves * np.log(prob) - exposure * prob).sum()

    result = minimize(neg_loglik, np.zeros(feats.shape[2]), method="BFGS",
                      options={"gtol": 1e-8, "maxiter": 500})
    probs = 1.0 / (1.0 + np.exp(-(feats @ result.x)))
    return _as_ccp(probs, config)
