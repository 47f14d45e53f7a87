"""CCP initializers, pseudo-likelihood maximization, and the nested estimator.

All of them read a dataset only through its sufficient statistic
(`likelihood.sufficient_statistics`) and accept the statistic in its
place, so a caller fitting several estimators reduces the data once.

The inner maximization never re-solves the value function per candidate
theta.  Each stage builds one `equilibrium.LinearizedPolicy` at the
previous-stage probabilities, which reproduces the best-response map
exactly at every theta from one factorization, and composes the statistic
with it: the log likelihood of the statistic at ``policy.ccp(theta)`` is
maximized over theta by BFGS with exact gradients, the statistic's
gradient in the action probabilities chained through the policy.  The
event-data gradient is in closed form; the snapshot gradient is an
adjoint, one Frechet derivative of ``expm`` that shares the Pade set-up of
the likelihood value.  Central differences (`central_difference_gradient`)
serve only as the test oracle.

The first stage starts at the CCP-inversion estimate of theta (Hotz and
Miller 1993): at the start probabilities the action log-odds are affine in
theta, so their least-squares solution (`_inversion_start`) costs nothing
beyond the stage's policy and is exact when the start probabilities are an
equilibrium; directions the log-odds do not identify keep the value 1.
BFGS starts from a real inverse Hessian: at the first stage, the inverse of
the data's information in theta at the start, with unit curvature in
directions the data do not identify.  On event data the information is in
closed form (`SpellStats.information`); on snapshot data it takes one
forward Frechet derivative of ``expm`` per parameter
(`TransitionCounts.information`).  Every later stage starts from the
previous stage's final inverse Hessian.

The nested loop alternates that maximization with one best-response update
of the probabilities until both sup-norm deltas fall under tolerance; a
single stage is the two-step pseudo maximum likelihood estimator.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy

from . import game
from .equilibrium import LinearizedPolicy, check_ccp
from .errors import InvalidArgumentError, NumericalError, OptimizationError
from .game import Theta
from .likelihood import SpellStats, TransitionCounts, sufficient_statistics

# `init_ccp`'s first-stage methods; its probabilities are clamped into
# [INIT_FLOOR, 1 - INIT_FLOOR].
INIT_METHODS = ("frequency", "logit", "random", "true")
INIT_FLOOR = 1e-6
# Each inner BFGS maximization stops at this gradient sup-norm, and fails
# after MAX_EVALS likelihood evaluations.
BFGS_GTOL = 1e-6
MAX_EVALS = 500
# Information eigenvalues at or below this fraction of the largest count as
# unidentified directions, where BFGS starts at unit curvature.
INFO_RANK_TOL = 1e-10


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


def _loglik_and_gradient(stats, policy, vec, counters=None):
    """Log likelihood of the statistic ``stats`` at ``policy.ccp(vec)`` and its
    exact gradient in theta.

    ``counters`` collects the snapshot likelihood's ``clamped_logs``.
    """
    ccp = policy.ccp(vec)
    value, action_grad = stats.value_and_gradient(ccp, counters=counters)
    return value, policy.chain(ccp, action_grad)


def _inversion_start(policy):
    """Stage 1's theta: the CCP inversion of ``policy.ccp_prev``.

    At the policy's probabilities the action log-odds are affine in theta,
    ``logit(ccp_prev) = D theta + (o1 - o0)`` with ``D = W1 - W0``, so the
    least-squares solution is the theta whose best response best reproduces
    them, exact when ``ccp_prev`` is an equilibrium at some theta.  It is
    taken as the minimum-norm move from all ones, so directions ``D`` does
    not identify keep the value 1.
    """
    ccp, weights, offsets = policy.ccp_prev, policy.weights, policy.offsets
    design = (weights[:, 1] - weights[:, 0]).reshape(-1, weights.shape[-1])
    log_odds = np.log(ccp[:, 1]) - np.log(ccp[:, 0]) - (offsets[:, 1] - offsets[:, 0])
    ones = np.ones(design.shape[1])
    return ones + np.linalg.lstsq(design, log_odds.ravel() - design @ ones, rcond=None)[0]


def _start_inverse_hessian(stats, policy, x0):
    """BFGS's first inverse Hessian for the stage-1 maximization from ``x0``:
    the inverse of the data's information at the start (`SpellStats.information`
    or `TransitionCounts.information`), with unit curvature in its
    eigen-directions at or below ``INFO_RANK_TOL`` times the largest
    eigenvalue (parameters the data do not identify).
    """
    ccp = policy.ccp(x0)
    curvature, basis = np.linalg.eigh(stats.information(ccp, policy.theta_jacobian(ccp)))
    curvature[curvature <= INFO_RANK_TOL * curvature.max()] = 1.0
    return _symmetric((basis / curvature) @ basis.T)


def _symmetric(matrix):
    """``matrix`` made exactly symmetric, as SciPy's ``hess_inv0`` check demands."""
    return (matrix + matrix.T) / 2


def _maximize(stats, policy, x0, hess_inv0, counters=None):
    """Maximize the log likelihood of ``stats`` over theta through the
    `LinearizedPolicy` ``policy`` by BFGS from ``x0`` and the inverse Hessian
    ``hess_inv0``; returns (theta vector, loglik, final inverse Hessian).

    ``counters``, when a dict, receives BFGS's ``nit``/``nfev``/``njev`` and
    the snapshot likelihood's ``clamped_logs`` at the returned theta.
    """
    evaluated = []  # (theta bytes, clamped logs) per likelihood evaluation

    def objective(x):
        if len(evaluated) >= MAX_EVALS:
            raise OptimizationError(
                f"pseudo-likelihood maximization exceeded {MAX_EVALS} evaluations")
        counts = {}
        value, grad = _loglik_and_gradient(stats, policy, x, counters=counts)
        evaluated.append((x.tobytes(), counts.get("clamped_logs", 0)))
        return -value, -grad

    result = scipy.optimize.minimize(objective, x0, jac=True, method="BFGS",
                                     options={"gtol": BFGS_GTOL, "maxiter": MAX_EVALS,
                                              "hess_inv0": hess_inv0})
    if counters is not None:
        counters.update(clamped_logs=dict(evaluated)[result.x.tobytes()], nit=int(result.nit),
                        nfev=int(result.nfev), njev=int(result.njev))

    grad_norm = float(np.abs(result.jac).max())
    # BFGS may stop on line-search precision loss with a near-stationary
    # gradient; accept those, reject genuinely unconverged exits.
    if not result.success and grad_norm > 1e-4:
        raise OptimizationError(
            f"pseudo-likelihood maximization did not converge: {result.message} "
            f"(gradient sup-norm {grad_norm:g})")
    return result.x, float(-result.fun), _symmetric(result.hess_inv)


@dataclass
class EstimationResult:
    """Outcome of the nested estimation loop."""

    theta_hat: Theta
    ccp_hat: np.ndarray
    iterations: int
    converged: bool
    loglik: float
    trace: list = field(default_factory=list)


def ctnpl(data, config, ccp0, max_stages=20, tol=1e-6, theta_init=None):
    """Nested pseudo-likelihood estimation from initial probabilities ``ccp0``.

    ``data`` is an `EventLog`, a `Panel` or their `sufficient_statistics`.
    Alternates a theta maximization at the current probabilities with one
    best-response update of the probabilities, stopping once both sup-norm
    deltas drop below ``tol``.  ``max_stages=1`` is the two-step pseudo
    maximum likelihood estimator.  The first stage starts at ``theta_init``,
    a `Theta`, or when it is None at the CCP inversion of the start
    probabilities.  Later stages warm-start theta and BFGS's inverse Hessian
    from the previous stage.  If the loop does not converge, the
    highest-likelihood visited candidate is returned with ``converged=False``.

    Trace entries record, per stage, the sup-norm changes in the
    probabilities and parameters (stage 1's parameter change is measured
    from ``theta_init``, and is infinite without it), the attained pseudo
    log likelihood, the BFGS iteration, likelihood and gradient evaluation
    counts (``nit``, ``nfev``, ``njev``) and the observed transitions whose
    probability was clamped before the log (``clamped_logs``).
    A stage whose pseudo log likelihood is not finite raises
    `NumericalError` instead of being ranked.
    """
    if max_stages < 1:
        raise InvalidArgumentError("max_stages must be >= 1")
    ccp = np.clip(np.asarray(ccp0, dtype=float), INIT_FLOOR, 1 - INIT_FLOOR)
    ccp = ccp / ccp.sum(axis=1, keepdims=True)
    check_ccp(ccp, config)

    stats = sufficient_statistics(data, config)
    theta_prev = None if theta_init is None else theta_init.as_vector()
    vec = theta_prev
    trace = []
    best = None
    for stage in range(1, max_stages + 1):
        counts = {}
        policy = LinearizedPolicy(ccp, config)
        if stage == 1:
            if vec is None:
                vec = _inversion_start(policy)
            hess_inv = _start_inverse_hessian(stats, policy, vec)
        try:
            vec, loglik, hess_inv = _maximize(stats, policy, vec, hess_inv, counters=counts)
        except OptimizationError as err:
            raise OptimizationError(f"stage {stage}: {err}") from err
        if not np.isfinite(loglik):
            raise NumericalError(f"stage {stage}: pseudo log likelihood is {loglik}")
        updated = policy.ccp(vec)
        sigma_delta = float(np.abs(updated - ccp).max())
        theta_delta = (np.inf if theta_prev is None
                       else float(np.abs(vec - theta_prev).max()))
        trace.append({"stage": stage, "sigma_delta": sigma_delta,
                      "theta_delta": theta_delta, "loglik": loglik, **counts})
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

    ``data`` is an `EventLog`, a `Panel` or their `sufficient_statistics`;
    ``method`` is one of:

    - ``"true"``: return ``ccp_star`` unchanged (infeasible benchmark).
    - ``"random"``: independent Uniform(0,1) action probabilities.
    - ``"frequency"``: from event data, the hazard-identity estimate
      moves / (lam * exposure) per (firm, state), falling back to the
      firm's pooled rate in unvisited states; from a panel, the add-one
      smoothed frequency of activity toggles between consecutive snapshots
      given the pre-state (crude on purpose -- the nested loop does not
      need a consistent start).
    - ``"logit"``: pooled semi-parametric fit on (firm dummies, demand
      level, ln(1 + active rivals)), with separate coefficients for entry
      and exit states; a logistic regression of the toggle indicator for
      panels (`NumericalError` when it does not converge, as on separated
      data), a logistic-hazard maximum likelihood for event data.

    The data-driven starts read only the statistic.  All outputs are
    clamped inside [1e-6, 1 - 1e-6].
    """
    if method == "true":
        if ccp_star is None:
            raise InvalidArgumentError("method 'true' requires ccp_star")
        return check_ccp(np.array(ccp_star, dtype=float), config)
    if method == "random":
        rng = np.random.default_rng(seed)
        probs = rng.uniform(size=(config.n_players, config.n_states))
        return _as_ccp(probs, config)
    if method not in ("frequency", "logit"):
        raise InvalidArgumentError(f"unknown init method: {method!r}")
    if data is None:
        raise InvalidArgumentError(f"method {method!r} requires data")
    stats = sufficient_statistics(data, config)
    return _DATA_STARTS[method, type(stats)](stats)


def _as_ccp(action_probs, config):
    probs = np.clip(action_probs, INIT_FLOOR, 1 - INIT_FLOOR)
    ccp = np.empty((config.n_players, config.n_choices, config.n_states))
    ccp[:, 1, :] = probs
    ccp[:, 0, :] = 1 - probs
    return ccp


def _frequency_from_spells(stats):
    config = stats.config
    exposure = config.lam * stats.exposure[None, :]
    pooled = stats.moves.sum(axis=1) / np.maximum(config.lam * stats.exposure.sum(), 1e-12)
    probs = np.where(exposure > 0,
                     stats.moves / np.maximum(exposure, 1e-300),
                     pooled[:, None])
    return _as_ccp(probs, config)


def _toggles(stats):
    """(N, K) counts of snapshot pairs whose activity bit of firm i differs,
    by pre-state, and the (K,) pre-state visits."""
    activity = game.state_tables(stats.config).activity          # (K, N)
    changed = activity[:, None, :] != activity[None, :, :]        # (K, K, N)
    return np.einsum("kl,kli->ik", stats.counts, changed), stats.counts.sum(axis=1)


def _frequency_from_counts(stats):
    toggles, visits = _toggles(stats)
    return _as_ccp((toggles + 1.0) / (visits[None, :] + 2.0), stats.config)


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


def _fit_logistic(features, successes, trials):
    """Newton (IRLS) fit of successes/trials ~ logistic(features @ beta).

    Raises `NumericalError` when 100 steps do not converge, as on data the
    features separate (no maximum likelihood estimate exists).
    """
    n_feat = features.shape[1]
    beta = np.zeros(n_feat)
    for _ in range(100):
        prob = 1.0 / (1.0 + np.exp(-(features @ beta)))
        weight = trials * prob * (1 - prob)
        grad = features.T @ (successes - trials * prob)
        hessian = features.T @ (features * weight[:, None])
        hessian += 1e-10 * np.eye(n_feat)
        step = np.linalg.solve(hessian, grad)
        beta = beta + step
        if np.abs(step).max() < 1e-10:
            return beta
    raise NumericalError("logit start did not converge in 100 Newton steps; "
                         "the data may be separated by the features")


def _logit_from_counts(stats):
    """Binomial logit of the toggles: one row per (firm, pre-state), with
    the pre-state's visits as trials."""
    toggles, visits = _toggles(stats)
    feats = _initializer_features(stats.config)
    beta = _fit_logistic(feats.reshape(-1, feats.shape[2]), toggles.ravel(),
                         np.broadcast_to(visits, toggles.shape).ravel())
    probs = 1.0 / (1.0 + np.exp(-(feats @ beta)))
    return _as_ccp(probs, stats.config)


def _hazard_logit_objective(beta, feats, moves, exposure):
    """Negative logistic-hazard log likelihood of `_logit_from_spells` and its
    gradient ``-F'[(n / p - lam T) p (1 - p)]``, zero where p is clipped."""
    prob = 1.0 / (1.0 + np.exp(-(feats @ beta)))
    clipped = np.clip(prob, 1e-12, 1 - 1e-12)
    slope = np.where(clipped == prob, prob * (1 - prob), 0.0)
    value = -(moves * np.log(clipped) - exposure * clipped).sum()
    return value, -np.einsum("ik,ikf->f", (moves / clipped - exposure) * slope, feats)


def _logit_from_spells(stats):
    """Logistic-link hazard fit: move counts ~ Poisson(lam * sigma * exposure).

    Maximizes sum_ik [n_ik ln sigma_ik - lam T_k sigma_ik] over the logistic
    index by BFGS (the exposure term breaks the concavity IRLS relies on),
    with the exact gradient.
    """
    feats = _initializer_features(stats.config)
    result = scipy.optimize.minimize(
        _hazard_logit_objective, np.zeros(feats.shape[2]), jac=True,
        args=(feats, stats.moves, stats.config.lam * stats.exposure[None, :]),
        method="BFGS", options={"gtol": 1e-8, "maxiter": 500})
    probs = 1.0 / (1.0 + np.exp(-(feats @ result.x)))
    return _as_ccp(probs, stats.config)


# The data-driven starts by (method, statistic type).
_DATA_STARTS = {("frequency", SpellStats): _frequency_from_spells,
                ("frequency", TransitionCounts): _frequency_from_counts,
                ("logit", SpellStats): _logit_from_spells,
                ("logit", TransitionCounts): _logit_from_counts}
