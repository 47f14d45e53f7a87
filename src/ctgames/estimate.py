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
closed form (`SpellStats.information`); on snapshot data it takes one forward
Frechet derivative of ``expm`` per parameter (`TransitionCounts.information`).
Every later stage starts from the previous stage's final inverse Hessian,
and every stage's start passes one check, BFGS's own test, in `_maximize`.

The nested loop alternates that maximization with one best-response update
of the probabilities until both sup-norm deltas fall under tolerance; a
single stage is the two-step pseudo maximum likelihood estimator.
"""

from dataclasses import dataclass, field, replace

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
    """Central differences with per-coordinate relative steps: the gradient
    of a scalar ``fun``, or the Jacobian of an array-valued one, with one
    column per coordinate of ``x``."""
    x = np.asarray(x, dtype=float)
    columns = []
    for q in range(len(x)):
        h = rel_step * max(1.0, abs(x[q]))
        up, down = x.copy(), x.copy()
        up[q] += h
        down[q] -= h
        columns.append((np.asarray(fun(up)) - fun(down)) / (2 * h))
    return np.stack(columns, axis=-1)


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
    target = log_odds.ravel() - design @ ones
    start = (ones + np.linalg.lstsq(design, target, rcond=None)[0]  # LAPACK prints on NaN
             if np.isfinite(design).all() and np.isfinite(target).all() else np.nan)
    if not np.all(np.isfinite(start)):
        raise NumericalError("the CCP-inversion start of theta is not finite")
    return start


def _start_inverse_hessian(stats, policy, x0):
    """BFGS's first inverse Hessian for the stage-1 maximization from ``x0``:
    the inverse of the data's information at the start (`SpellStats.information`
    or `TransitionCounts.information`), with unit curvature along each
    parameter whose row of the information is zero and in the other
    eigen-directions at or below ``INFO_RANK_TOL`` times the largest
    eigenvalue (parameters the data do not identify).  `_maximize` checks
    it as it checks every stage's start; it fails there when a retained
    curvature is tiny next to the unit ones or ``eigh`` does not converge.
    """
    ccp = policy.ccp(x0)
    information = stats.information(ccp, policy.theta_jacobian(ccp))
    # a parameter the data cannot see (a zero row) keeps unit curvature, and
    # the eigendecomposition never mixes it into the others
    seen = np.flatnonzero(information.any(axis=0))
    block = np.ix_(seen, seen)
    hess_inv = np.eye(len(information))
    try:
        curvature, basis = np.linalg.eigh(information[block])
    except np.linalg.LinAlgError:
        return np.full_like(hess_inv, np.nan)  # a start `_maximize` rejects
    curvature[curvature <= INFO_RANK_TOL * curvature.max(initial=-np.inf)] = 1.0
    hess_inv[block] = _symmetric((basis / curvature) @ basis.T)
    return hess_inv


def _symmetric(matrix):
    """``matrix`` made exactly symmetric, as SciPy's ``hess_inv0`` check demands."""
    return (matrix + matrix.T) / 2


def _maximize(stats, policy, x0, hess_inv0):
    """Maximize the log likelihood of ``stats`` over theta through the
    `LinearizedPolicy` ``policy`` by BFGS from ``x0`` and the inverse Hessian
    ``hess_inv0`` (every stage's start: not finite or failing BFGS's Cholesky
    test, it raises `NumericalError`), with the exact gradient chained through
    the policy.  Returns (theta, loglik, final inverse Hessian, counts), with
    the ``clamped_logs`` at theta and BFGS's ``nit``/``nfev``/``njev``.
    """
    try:  # the test BFGS applies to hess_inv0; a ValueError when it is not finite
        scipy.linalg.cholesky(hess_inv0)
    except (ValueError, np.linalg.LinAlgError):
        raise NumericalError("the start's inverse Hessian is not finite and positive definite")
    evaluated = []  # (theta bytes, clamped logs) per likelihood evaluation

    def objective(x):
        if len(evaluated) >= MAX_EVALS:
            raise OptimizationError(
                f"pseudo-likelihood maximization exceeded {MAX_EVALS} evaluations")
        ccp = policy.ccp(x)
        value, action_grad, clamped_logs = stats.value_and_gradient(ccp)
        evaluated.append((x.tobytes(), clamped_logs))
        return -value, -policy.chain(ccp, action_grad)

    result = scipy.optimize.minimize(objective, x0, jac=True, method="BFGS",
                                     options={"gtol": BFGS_GTOL, "maxiter": MAX_EVALS,
                                              "hess_inv0": hess_inv0})
    counts = {"clamped_logs": dict(evaluated)[result.x.tobytes()], "nit": int(result.nit),
              "nfev": int(result.nfev), "njev": int(result.njev)}

    grad_norm = float(np.abs(result.jac).max())
    # BFGS may stop on line-search precision loss with a near-stationary
    # gradient; accept those, reject genuinely unconverged exits.
    if not result.success and grad_norm > 1e-4:
        raise OptimizationError(
            f"pseudo-likelihood maximization did not converge: {result.message} "
            f"(gradient sup-norm {grad_norm:g})")
    return result.x, float(-result.fun), _symmetric(result.hess_inv), counts


@dataclass
class EstimationResult:
    """Outcome of the nested estimation loop; ``first_stage`` is its stage 1."""

    theta_hat: Theta
    ccp_hat: np.ndarray
    iterations: int
    converged: bool
    loglik: float
    trace: list = field(default_factory=list)
    first_stage: "EstimationResult | None" = None


def ctnpl(data, config, ccp0, max_stages=20, tol=1e-6):
    """Nested pseudo-likelihood estimation from initial probabilities ``ccp0``.

    ``data`` is an `EventLog`, a `Panel` or their `sufficient_statistics`.
    Alternates a theta maximization at the current probabilities with one
    best-response update of the probabilities, stopping once both sup-norm
    deltas drop below ``tol``.  ``max_stages=1`` is the two-step pseudo
    maximum likelihood estimator, and every result's ``first_stage`` equals
    that result, with its own copy of the first trace entry.  The first
    stage starts at the CCP inversion of the start probabilities; later
    stages warm-start theta and BFGS's inverse Hessian from the previous
    stage.  Every stage's start passes one check (`_maximize`).  If the loop
    does not converge, the highest-likelihood visited candidate is returned
    with ``converged=False``.

    Trace entries record, per stage, the sup-norm changes in the
    probabilities and parameters (infinite for stage 1's parameters), the
    attained pseudo log likelihood, the BFGS iteration, likelihood and
    gradient evaluation counts (``nit``, ``nfev``, ``njev``) and the observed
    transitions whose probability was clamped before the log (``clamped_logs``).
    A stage whose pseudo log likelihood or start is not finite, or whose start
    inverse Hessian fails that check, raises `NumericalError` naming the stage.
    """
    if max_stages < 1:
        raise InvalidArgumentError("max_stages must be >= 1")
    ccp = np.clip(np.asarray(ccp0, dtype=float), INIT_FLOOR, 1 - INIT_FLOOR)
    ccp = ccp / ccp.sum(axis=1, keepdims=True)
    check_ccp(ccp, config)

    stats = sufficient_statistics(data, config)
    trace, best = [], None
    for stage in range(1, max_stages + 1):
        policy = LinearizedPolicy(ccp, config)
        try:
            if stage == 1:
                vec = _inversion_start(policy)
                hess_inv = _start_inverse_hessian(stats, policy, vec)
            vec, loglik, hess_inv, counts = _maximize(stats, policy, vec, hess_inv)
            if not np.isfinite(loglik):
                raise NumericalError(f"pseudo log likelihood is {loglik}")
        except (NumericalError, OptimizationError) as err:
            raise type(err)(f"stage {stage}: {err}") from err
        updated = policy.ccp(vec)
        sigma_delta = float(np.abs(updated - ccp).max())
        theta_delta = np.inf if stage == 1 else float(np.abs(vec - theta_prev).max())
        trace.append({"stage": stage, "sigma_delta": sigma_delta,
                      "theta_delta": theta_delta, "loglik": loglik, **counts})
        candidate = EstimationResult(
            theta_hat=Theta.from_vector(vec, config.n_players),
            ccp_hat=updated, iterations=stage, converged=False,
            loglik=loglik, trace=trace)
        if stage == 1:
            first_stage = replace(candidate, trace=[dict(trace[0])])
        candidate.first_stage = first_stage
        if best is None or loglik > best.loglik:
            best = candidate
        if sigma_delta < tol and theta_delta < tol:
            candidate.converged = True
            return candidate
        ccp, theta_prev = updated, vec
    return best


def rmse_relative(results, baseline, theta_true):
    """Root-mean-squared-error ratios against a baseline estimator.

    ``results`` maps estimator name to an (R, P) array of replication
    estimates; returns {name: (P,) array} of per-parameter RMSE divided by
    the baseline's RMSE.  Errors are squared scaled by a power of two, so no
    square leaves the float range; where no raw square did either, the
    scaling changes no bit.
    """
    if baseline not in results:
        raise InvalidArgumentError(f"baseline estimator {baseline!r} missing from results")
    true_vec = theta_true.as_vector()

    def rmse(arr):
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise InvalidArgumentError("each estimator needs >= 2 replications")
        errors = arr - true_vec
        exponent = np.frexp(np.abs(errors).max(axis=0))[1]  # per parameter
        return np.ldexp(np.sqrt((np.ldexp(errors, -exponent) ** 2).mean(axis=0)), exponent)

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


def _logistic(index):
    """The logistic function ``1 / (1 + exp(-index))``."""
    return 1.0 / (1.0 + np.exp(-index))


def _fit_logistic(features, successes, trials):
    """Newton (IRLS) fit of successes/trials ~ logistic(features @ beta).

    Raises `NumericalError` when 100 steps do not converge, as on data the
    features separate (no maximum likelihood estimate exists).
    """
    n_feat = features.shape[1]
    beta = np.zeros(n_feat)
    for _ in range(100):
        prob = _logistic(features @ beta)
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
    probs = _logistic(feats @ beta)
    return _as_ccp(probs, stats.config)


def _hazard_logit_objective(beta, feats, moves, exposure):
    """Negative logistic-hazard log likelihood of `_logit_from_spells` and its
    gradient ``-F'[(n / p - lam T) p (1 - p)]``, zero where p is clipped."""
    prob = _logistic(feats @ beta)
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
    probs = _logistic(feats @ result.x)
    return _as_ccp(probs, stats.config)


# The data-driven starts by (method, statistic type).
_DATA_STARTS = {("frequency", SpellStats): _frequency_from_spells,
                ("frequency", TransitionCounts): _frequency_from_counts,
                ("logit", SpellStats): _logit_from_spells,
                ("logit", TransitionCounts): _logit_from_counts}
