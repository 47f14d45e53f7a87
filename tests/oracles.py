"""Reference implementations the tests compare the library against.

Each one computes a quantity the library computes some other way: scalar
payoffs and continuation states from the documented state encoding rather
than the precomputed tables and design rows, the expected choice payoff in
closed form rather than split inside the value equation, the spectral
radius by power iteration rather than the dense LAPACK spectrum, the
NPL projection on the full (firm, choice, state) coordinates rather than
the free ones, the stability radii from the dense (NK, NK) spectra rather
than the half-rank factors, the snapshot information from
central-difference scores rather than Frechet derivatives, the event
information as the central-difference Hessian of the log likelihood rather
than in closed form, the event-log statistic by placing every spell in a
row of its own rather than in one pass over the events, the event-log
range checks one row at a time rather than one array at a time, each event's
destination state from the state encoding rather than the simulator's
toggle table, CTNPL with every BFGS maximization started from the identity
rather than from the data's information (and by default at all ones rather
than at the CCP inversion), the equilibrium by plain successive
approximation with the stall rule rather than with Anderson mixing near
the fixed point, and the event-log CSV through `csv.writer` rather than one
format per block.
"""

import csv
import math

import numpy as np
from scipy.optimize import minimize
from scipy.sparse import csr_matrix

from ctgames import ConvergenceError, InvalidArgumentError, NumericalError, estimate
from ctgames.diagnostics import stability_objects
from ctgames.equilibrium import (
    CCP_FLOOR,
    EULER_GAMMA,
    MIN_STEP,
    STALL_RATIO,
    STALL_WINDOW,
    LinearizedPolicy,
    MpeResult,
    aggregate_generator,
    best_response_map,
    uniform_ccp,
)
from ctgames.estimate import INIT_FLOOR, MAX_EVALS, central_difference_gradient
from ctgames.game import instant_payoffs, state_tables
from ctgames.likelihood import LOG_FLOOR, SpellStats
from ctgames.markov import transition_matrix
from ctgames.simulate import CENSOR, NATURE


def _demand_and_activity(k, config):
    """Demand level and activity bits of state ``k`` by the index formula
    ``k = (d - 1) * 2**N + sum_i activity_i * 2**i``."""
    block = 2 ** config.n_players
    return k // block + 1, [(k >> i) & 1 for i in range(config.n_players)]


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
    return k ^ (j << i)


def flow_payoff(theta, i, k, config):
    """Flow profit of firm ``i`` in state ``k``.

    An active firm earns ``rs*d - rn*ln(1 + active rivals) + fc_i`` (the
    stored fixed costs are negative); an inactive firm earns zero flow and
    only pays the lump-sum entry cost on entering, via `instant_payoff`.
    """
    demand, activity = _demand_and_activity(k, config)
    if not activity[i]:
        return 0.0
    return (theta.rs * demand
            - theta.rn * math.log1p(sum(activity) - activity[i])
            + theta.fc[i])


def instant_payoff(theta, i, j, k, config):
    """Lump-sum payoff of choice ``j``: -ec on entry (toggle while inactive), else 0."""
    if j == 1 and not _demand_and_activity(k, config)[1][i]:
        return -theta.ec
    return 0.0


def expected_instant_payoffs(theta, ccp, config):
    """All players' ex-ante expected choice payoffs as an (N, K) array.

    Under extreme-value taste shocks the expectation has the closed form
    ``sum_j ccp_ijk * (psi_ijk + euler_gamma - ln ccp_ijk)``.
    """
    ccp = np.asarray(ccp, dtype=float)
    if ccp.min() <= 0.0:
        raise InvalidArgumentError("expected payoff requires strictly positive probabilities")
    psi = instant_payoffs(theta, config)
    logs = np.log(np.clip(ccp, CCP_FLOOR, 1.0 - CCP_FLOOR))
    return (ccp * (psi + EULER_GAMMA - logs)).sum(axis=1)


def dominant_pair_estimate(matrix, vec):
    """Largest |eigenvalue| of the 2x2 Hessenberg projection on span{v, Av}.

    Exact once the Krylov pair locks onto the dominant invariant subspace,
    which also covers +/- pairs and complex pairs where the raw norm-growth
    sequence of power iteration oscillates forever.
    """
    av = matrix @ vec
    h11 = vec @ av
    residual = av - h11 * vec
    h21 = np.linalg.norm(residual)
    if h21 <= 1e-14 * max(1.0, abs(h11)):
        return abs(h11), av
    q2 = residual / h21
    aq2 = matrix @ q2
    h12 = vec @ aq2
    h22 = q2 @ aq2
    half_trace = 0.5 * (h11 + h22)
    disc = complex(half_trace * half_trace - (h11 * h22 - h12 * h21))
    root = np.sqrt(disc)
    return float(max(abs(half_trace + root), abs(half_trace - root))), av


def power_estimate(matrix, restarts, tol, max_iter, seed):
    """Spectral radius by power iteration with a two-dimensional Krylov
    readout per step; returns ``(estimate, converged)``."""
    dim = matrix.shape[0]
    scale = np.abs(matrix).max()
    rng = np.random.default_rng(seed)
    best = 0.0
    any_converged = False
    for _ in range(restarts):
        vec = rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        previous = np.inf
        estimate = 0.0
        converged = False
        for _ in range(max(max_iter // restarts, 50)):
            estimate, av = dominant_pair_estimate(matrix, vec)
            norm = np.linalg.norm(av)
            if norm <= scale * 1e-300:
                estimate, converged = 0.0, True
                break
            if abs(estimate - previous) <= tol * max(1.0, estimate):
                converged = True
                break
            previous = estimate
            vec = av / norm
        best = max(best, estimate)
        any_converged = any_converged or converged
    return best, any_converged


def full_coordinate_projection(theta, ccp, config):
    """The NPL projection on the full (firm, choice, state) coordinates.

    Expands the exact free-coordinate Jacobians by the (NJK, NK) map E
    (+1 on the action row, -1 on the stay row) and weights them by
    ``S diag(vec P)^-1 S'``, where the sparse (NJK, K^2) selector S has a
    single 1 per row at the continuation cell of the transition matrix P.
    Returns ``(expansion, weight, annihilator, radius)``: the radius is
    that of the projected map on full coordinates, whose stay columns are
    zero (a simplex-tangent perturbation acts through its action
    component).  Raises as `stability_report` does.
    """
    br, left, right, theta_free = LinearizedPolicy(ccp, config).jacobian_factors(theta)
    ccp_jac = left @ right
    n, j_total, k_total = config.n_players, config.n_choices, config.n_states
    rows = n * j_total * k_total
    cols = (np.arange(k_total) * k_total + state_tables(config).continuation).reshape(-1)
    selector = csr_matrix((np.ones(rows), (np.arange(rows), cols)),
                          shape=(rows, k_total * k_total))
    p_vec = transition_matrix(aggregate_generator(br, config), config.delta).reshape(-1)
    if p_vec[cols].min() <= 0.0:
        raise InvalidArgumentError(
            "transition matrix vanishes on a continuation state; chain not irreducible")
    inv = np.zeros_like(p_vec)
    inv[cols] = 1.0 / p_vec[cols]
    weight = (selector.multiply(inv[None, :]) @ selector.T).toarray()

    expansion = np.zeros((rows, n * k_total))
    for i in range(n):
        free = slice(i * k_total, (i + 1) * k_total)
        expansion[(i * j_total + 1) * k_total:(i * j_total + 2) * k_total, free] = np.eye(k_total)
        expansion[i * j_total * k_total:(i * j_total + 1) * k_total, free] = -np.eye(k_total)
    theta_jac = expansion @ theta_free
    gram = theta_jac.T @ weight @ theta_jac
    rank = np.linalg.matrix_rank(gram)
    if rank < gram.shape[0]:
        raise NumericalError(
            f"parameter-direction Gram matrix is singular (rank {rank} of {gram.shape[0]})")
    annihilator = np.eye(rows) - theta_jac @ np.linalg.solve(gram, theta_jac.T @ weight)

    expanded = expansion @ ccp_jac
    full_map = np.zeros((rows, rows))
    action = np.arange(rows).reshape(n, j_total, k_total)[:, 1].reshape(-1)
    full_map[:, action] = expanded
    radius = float(np.abs(np.linalg.eigvals(annihilator @ full_map)).max())
    bound = float(np.linalg.norm(annihilator, "fro") * np.linalg.norm(expanded, "fro"))
    if radius > bound * (1 + 1e-8) + 1e-12:
        raise NumericalError(f"spectral radius {radius:g} exceeds its norm bound {bound:g}")
    return expansion, weight, annihilator, radius


def dense_radii(theta, ccp, config):
    """``(rho_best_response, rho_npl_update)`` from the spectra of the (NK, NK)
    probability Jacobian C and of ``annihilator @ C``.  Raises as
    `stability_objects` does."""
    objects = stability_objects(theta, ccp, config)
    jac = objects.left_factor @ objects.right_factor
    return tuple(float(np.abs(np.linalg.eigvals(matrix)).max())
                 for matrix in (jac, objects.annihilator @ jac))


def information_by_differences(stats, policy, vec):
    """``sum C_kl s_kl s_kl' / M`` of a `TransitionCounts` at
    ``policy.ccp(vec)``, the scores ``s_kl`` the rows of the central-difference
    Jacobian of ``ln P_kl(theta)`` through the policy; transitions whose
    probability is below ``LOG_FLOOR`` at ``vec`` are left out."""
    config = stats.config

    def transitions(x):
        return transition_matrix(aggregate_generator(policy.ccp(x), config), config.delta)

    vec = np.asarray(vec, dtype=float)
    seen = (stats.counts > 0) & (transitions(vec) >= LOG_FLOOR)
    scores = central_difference_gradient(
        lambda x: np.log(np.maximum(transitions(x)[seen], LOG_FLOOR)), vec)
    return scores.T @ (stats.counts[seen][:, None] * scores) / stats.n_markets


def event_information_by_differences(stats, policy, vec, rel_step=1e-4):
    """Negative Hessian in theta of the event log likelihood through the
    policy, ``-d2 loglik(policy.ccp(theta))``, as central differences of
    central differences, on the `SpellStats` whose moves equal their
    expectation ``lam T_k sigma_ik`` at ``policy.ccp(vec)``; there observed
    and expected information coincide."""
    vec = np.asarray(vec, dtype=float)
    config = stats.config
    expected = SpellStats(
        exposure=stats.exposure,
        moves=config.lam * stats.exposure * policy.ccp(vec)[:, 1, :],
        nature_moves=stats.nature_moves, n_markets=stats.n_markets, config=config)

    def gradient(x):
        return central_difference_gradient(lambda y: expected.loglik(policy.ccp(y)), x, rel_step)

    return -central_difference_gradient(gradient, vec, rel_step)


def check_event_ranges(events, config):
    """`EventLog.check_ranges` one row at a time, with its four messages
    written out: each check runs over every row before the next, so the
    first check in the documented order that some row fails raises."""
    k_total, n = config.n_states, config.n_players
    rows = list(zip(events.state.tolist(), events.actor.tolist(), events.action.tolist()))
    checks = [
        (lambda k, actor, action: 0 <= k < k_total, f"event states must lie in [0, {k_total})"),
        (lambda k, actor, action: actor in (CENSOR, NATURE) or 0 <= actor < n,
         f"event actors must be censor (-2), nature (-1) or a player in [0, {n})"),
        (lambda k, actor, action: actor != NATURE or 0 <= action < k_total,
         f"nature's destinations must lie in [0, {k_total})"),
        (lambda k, actor, action: actor in (CENSOR, NATURE) or action == 1,
         "player actions must be 1"),
    ]
    for ok, message in checks:
        if not all(ok(*row) for row in rows):
            raise InvalidArgumentError(message)


def spell_stats_by_spell_rows(events, config):
    """`SpellStats.from_events` with every row's spell in a row of its own:
    a row's spell begins at the previous row's time unless that row is a
    censor row (or there is none); the event rows' spells and the censor
    rows' are summed apart, each in row order, as `from_events` documents;
    move counts by ``ravel_multi_index`` per actor kind."""
    check_event_ranges(events, config)
    k_total = config.n_states
    ends = events.time
    begins = np.concatenate([[0.0], ends[:-1]])
    begins[np.concatenate([[True], events.actor[:-1] == CENSOR])] = 0.0
    spells, censor = np.maximum(ends - begins, 0.0), events.actor == CENSOR
    exposure = (np.bincount(events.state[~censor], weights=spells[~censor], minlength=k_total)
                + np.bincount(events.state[censor], weights=spells[censor], minlength=k_total))

    def pair_counts(rows, cols, shape):
        flat = np.bincount(np.ravel_multi_index((rows, cols), shape),
                           minlength=shape[0] * shape[1])
        return flat.reshape(shape).astype(float)

    nature, player = events.actor == NATURE, events.actor >= 0
    moves = pair_counts(events.actor[player], events.state[player],
                        (config.n_players, k_total))
    nature_moves = pair_counts(events.state[nature], events.action[nature],
                               (k_total, k_total))
    return SpellStats(exposure=exposure, moves=moves, nature_moves=nature_moves,
                      n_markets=int(np.sum(events.actor == CENSOR)), config=config)


def post_state(events, config):
    """State after every row of an `EventLog`: nature's move names it, a
    player's move toggles the player's bit (`continuation_state`), and a
    censor row keeps its state."""
    check_event_ranges(events, config)
    return np.array([k if actor == CENSOR else action if actor == NATURE
                     else continuation_state(actor, 1, k, config)
                     for k, actor, action in zip(events.state, events.actor, events.action)],
                    dtype=np.int64)


def identity_start_ctnpl(stats, config, ccp, max_stages, tol, theta_start=None):
    """The nested pseudo-likelihood loop of `estimate.ctnpl`, each stage's
    BFGS started from the identity inverse Hessian at the previous stage's
    theta (at ``theta_start`` at stage 1, all ones by default), stopping at
    `estimate.BFGS_GTOL`.

    Returns ``(theta_vector, converged, nfev)`` with ``nfev`` the likelihood
    evaluations per stage; a stage whose BFGS stops with a gradient sup-norm
    above 1e-4 ends the loop unconverged, as `ctnpl` would raise.
    """
    ccp = np.clip(ccp, INIT_FLOOR, 1 - INIT_FLOOR)
    ccp = ccp / ccp.sum(axis=1, keepdims=True)
    vec = np.ones(config.n_players + 3) if theta_start is None else theta_start
    previous, nfev = None, []
    for _ in range(max_stages):
        policy = LinearizedPolicy(ccp, config)

        def objective(x):
            best_response = policy.ccp(x)
            value, action_grad, _ = stats.value_and_gradient(best_response)
            return -value, -policy.chain(best_response, action_grad)

        result = minimize(objective, vec, jac=True, method="BFGS",
                          options={"gtol": estimate.BFGS_GTOL, "maxiter": MAX_EVALS})
        nfev.append(int(result.nfev))
        if not result.success and np.abs(result.jac).max() > 1e-4:
            return result.x, False, nfev
        updated = policy.ccp(result.x)
        if (previous is not None and np.abs(updated - ccp).max() < tol
                and np.abs(result.x - previous).max() < tol):
            return result.x, True, nfev
        ccp, vec, previous = updated, result.x, result.x
    return vec, False, nfev


def plain_solve_mpe(theta, config, tol=1e-10, max_iter=10000):
    """Markov perfect equilibrium by successive approximation, halving the step on a stall.

    Iterates ``ccp <- ccp + step * (map(ccp) - ccp)`` from the uniform policy
    until the sup-norm fixed-point residual drops below ``tol``.  ``step``
    starts at 1, but best-response iteration need not contract: a run whose
    residual has not fallen by 10% over its last ``STALL_WINDOW`` iterations
    restarts from the uniform policy at half the step, down to ``MIN_STEP``.
    This is `equilibrium.solve_mpe` without its Anderson mixing, with its own
    map budget ``max_iter``.
    """
    if max_iter < 1:
        raise InvalidArgumentError(f"max_iter must be >= 1, got {max_iter}")
    start = uniform_ccp(config)
    ccp, step, run_start, trace = start, 1.0, 0, []
    while len(trace) < max_iter:
        updated = best_response_map(theta, ccp, config)
        residual = float(np.abs(updated - ccp).max())
        trace.append(residual)
        if residual < tol:
            return MpeResult(ccp=ccp, iterations=len(trace), residual=residual, trace=trace)
        if (step > MIN_STEP and len(trace) - run_start > STALL_WINDOW
                and residual > STALL_RATIO * trace[-1 - STALL_WINDOW]):
            ccp, step, run_start = start, step / 2, len(trace)
        else:
            ccp = ccp + step * (updated - ccp)
    raise ConvergenceError(
        f"no equilibrium after {max_iter} iterations, residual {trace[-1]:g}",
        residual=trace[-1], iterations=max_iter)


def write_event_log_csv(log, path):
    """`EventLog.to_csv` through `csv.writer`, one row at a time, counting
    each market's rows from 1 again after every censor row."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["market_id", "n", "k", "t", "actor", "action"])
        n = 0
        for r in range(len(log.market_id)):
            n += 1
            writer.writerow([int(log.market_id[r]), n, int(log.state[r]),
                             f"{float(log.time[r]):.17g}", int(log.actor[r]),
                             int(log.action[r])])
            if log.actor[r] == CENSOR:
                n = 0


def write_panel_csv(panel, path):
    """`Panel.to_csv` through `csv.writer`."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["market_id", "n", "k"])
        writer.writerows(zip(panel.market_id.tolist(), panel.period.tolist(),
                             panel.state.tolist()))
