"""Convergence diagnostics for the nested estimation loop.

The local behavior of the outer loop is governed by two Jacobians of the
best-response map at a fixed point -- with respect to the choice
probabilities and with respect to the parameters -- combined into an
oblique projector that annihilates the parameter directions.  The loop
contracts locally when the spectral radius of (projector @ probability
Jacobian) is below one; in single-agent models that Jacobian vanishes at
the fixed point, so the loop always converges locally.

Both Jacobians are exact, read off one `LinearizedPolicy` at the point, over
the free probability coordinates (the action probability per (firm,
state); the complementary continuation probability moves oppositely,
respecting the simplex).  Where full (firm, choice, state) coordinates are
required, free-coordinate rows are expanded with opposite signs for the
two choices.  Central differences (`best_response_jacobian`) and power
iteration (`_power_estimate`) are kept as the tests' independent oracles.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import lu_solve
from scipy.sparse import csr_matrix

from . import game, markov
from .equilibrium import (CCP_FLOOR, aggregate_generator, best_response_map, check_ccp,
                          interior_softmax, solve_mpe)
from .errors import ConvergenceError, InvalidArgumentError, NumericalError
from .estimate import LinearizedPolicy
from .game import Theta

DEFAULT_FD_STEP = 1e-6


def best_response_jacobian(theta, ccp, config, wrt="sigma", fd_step=DEFAULT_FD_STEP):
    """Finite-difference Jacobian of the best-response map (the exact route's oracle).

    With ``wrt='sigma'``: an (NK, NK) matrix of central differences of the
    action probabilities with respect to the free probability coordinates
    (entry (row i*K+k, col m*K+k') is the response of firm i's action
    probability in state k to firm m's in state k').  With ``wrt='theta'``:
    an (NK, P) matrix of derivatives in the parameter vector.  Meaningful
    as a diagnostic near a fixed point, but computable anywhere.
    """
    ccp = check_ccp(ccp, config)
    n, k_total = config.n_players, config.n_states
    rows = n * k_total
    if wrt == "sigma":
        jac = np.empty((rows, rows))
        for m in range(n):
            for k in range(k_total):
                up, down = ccp.copy(), ccp.copy()
                up[m, 1, k] += fd_step
                up[m, 0, k] -= fd_step
                down[m, 1, k] -= fd_step
                down[m, 0, k] += fd_step
                diff = (best_response_map(theta, up, config)[:, 1, :]
                        - best_response_map(theta, down, config)[:, 1, :])
                jac[:, m * k_total + k] = diff.reshape(-1) / (2 * fd_step)
        return jac
    if wrt == "theta":
        vec = theta.as_vector()
        jac = np.empty((rows, len(vec)))
        for q in range(len(vec)):
            h = fd_step * max(1.0, abs(vec[q]))
            up, down = vec.copy(), vec.copy()
            up[q] += h
            down[q] -= h
            diff = (best_response_map(Theta.from_vector(up, n), ccp, config)[:, 1, :]
                    - best_response_map(Theta.from_vector(down, n), ccp, config)[:, 1, :])
            jac[:, q] = diff.reshape(-1) / (2 * h)
        return jac
    raise InvalidArgumentError(f"wrt must be 'sigma' or 'theta', got {wrt!r}")


def _expand_rows(free_rows, config):
    """Free-coordinate rows (NK, .) to full (N*J*K, .) rows: +1 on action, -1 on stay."""
    n, j_total, k_total = config.n_players, config.n_choices, config.n_states
    full = np.zeros((n * j_total * k_total, free_rows.shape[1]))
    for i in range(n):
        block = free_rows[i * k_total:(i + 1) * k_total]
        full[(i * j_total + 1) * k_total:(i * j_total + 2) * k_total] = block
        full[i * j_total * k_total:(i * j_total + 1) * k_total] = -block
    return full


def _policy_jacobians(theta, ccp, config):
    """Best response and its exact free-coordinate Jacobians at ``(theta, ccp)``.

    Returns ``(br, ccp_jac, theta_jac)``: the (N, J, K) best response and
    the (NK, NK) probability and (NK, P) parameter Jacobians laid out as in
    `best_response_jacobian`.  With ``s_ik = br_i1k br_i0k``, ``w`` the
    policy's choice-value weights and ``X`` the inverse of the policy
    system matrix,

    - ``theta_jac[(i, k)] = s_ik (w_i1k - w_i0k)``;
    - ``ccp_jac[(i, k'), (m, k)] = s_ik' (X[l_i(k'), k] - X[k', k]) lam
      [delta_im (psi_i1k - psi_i0k - ln ccp_i1k + ln ccp_i0k)
      - (V_i[k] - V_i[l_m(k)])]``, because ``ccp_m1k`` enters the value
      equation only in row k (through the system matrix and, for m = i,
      the expected choice payoff).
    """
    ccp = check_ccp(ccp, config)
    n, k_total = config.n_players, config.n_states
    toggle = game.state_tables(config).toggle
    policy = LinearizedPolicy(ccp, config)
    choice_values = policy.weights @ theta.as_vector() + policy.offsets  # (N, J, K)
    br = interior_softmax(choice_values, axis=1)
    slope = br[:, 1] * br[:, 0]
    theta_jac = slope[:, :, None] * (policy.weights[:, 1] - policy.weights[:, 0])

    values = choice_values[:, 0]  # choice 0 stays in place and pays nothing
    psi = game.instant_payoffs(theta, config)
    logs = np.log(np.clip(ccp, CCP_FLOOR, 1.0 - CCP_FLOOR))
    coef = values[:, toggle] - values[:, None, :]  # [i, m, k]: V_i[l_m(k)] - V_i[k]
    players = np.arange(n)
    coef[players, players] += psi[:, 1] - psi[:, 0] - logs[:, 1] + logs[:, 0]
    coef *= config.lam
    inverse = lu_solve(policy.factor, np.eye(k_total))
    gap = inverse[toggle] - inverse  # [i, k', k]: X[l_i(k'), k] - X[k', k]
    ccp_jac = slope[:, :, None, None] * gap[:, :, None, :] * coef[:, None]
    rows = n * k_total
    return br, ccp_jac.reshape(rows, rows), theta_jac.reshape(rows, -1)


class StabilityObjects(NamedTuple):
    """Ingredients of the local convergence condition at a point.

    - ``selector``: sparse (NJK, K^2) matrix with a single 1 per row,
      marking the continuation state of each (firm, choice, state).
    - ``weight``: (NJK, NJK) information-style weight,
      selector @ diag(vec P)^-1 @ selector'.
    - ``annihilator``: (NJK, NJK) oblique projector
      I - J_theta (J_theta' W J_theta)^-1 J_theta' W
      that kills the parameter directions of the best-response map.
    - ``theta_jacobian``: (NJK, P) full-coordinate parameter Jacobian.
    - ``ccp_jacobian``: (NK, NK) free-coordinate probability Jacobian.
    """

    selector: csr_matrix
    weight: np.ndarray
    annihilator: np.ndarray
    theta_jacobian: np.ndarray
    ccp_jacobian: np.ndarray


def stability_objects(theta, ccp, config, delta=None):
    """Assemble the selector, weight, annihilator and exact Jacobians at ``(theta, ccp)``.

    The weight uses the transition matrix at the best response to
    ``(theta, ccp)`` over one sampling interval; every transition
    probability the selector touches must be positive (guaranteed for an
    irreducible chain).
    """
    n, j_total, k_total = config.n_players, config.n_choices, config.n_states
    delta = config.delta if delta is None else delta

    rows = n * j_total * k_total
    dest = game.state_tables(config).continuation
    cols = (np.arange(k_total) * k_total + dest).reshape(-1)
    selector = csr_matrix((np.ones(rows), (np.arange(rows), cols)),
                          shape=(rows, k_total * k_total))

    br, ccp_jac, theta_free = _policy_jacobians(theta, ccp, config)
    p_matrix = markov.transition_matrix(aggregate_generator(br, config), delta)
    p_vec = p_matrix.reshape(-1)
    touched = p_vec[cols]
    if touched.min() <= 0.0:
        raise InvalidArgumentError(
            "transition matrix vanishes on a continuation state; chain not irreducible")
    inv = np.zeros_like(p_vec)
    inv[cols] = 1.0 / p_vec[cols]
    weight = (selector.multiply(inv[None, :]) @ selector.T).toarray()

    theta_jac = _expand_rows(theta_free, config)
    gram = theta_jac.T @ weight @ theta_jac
    rank = np.linalg.matrix_rank(gram)
    if rank < gram.shape[0]:
        raise NumericalError(
            f"parameter-direction Gram matrix is singular (rank {rank} of {gram.shape[0]})")
    annihilator = np.eye(rows) - theta_jac @ np.linalg.solve(gram, theta_jac.T @ weight)
    return StabilityObjects(selector=selector, weight=weight, annihilator=annihilator,
                            theta_jacobian=theta_jac, ccp_jacobian=ccp_jac)


def _dominant_pair_estimate(matrix, vec):
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


def _power_estimate(matrix, restarts, tol, max_iter, seed):
    """Power iteration with a two-dimensional Krylov readout per step (test oracle)."""
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
            estimate, av = _dominant_pair_estimate(matrix, vec)
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


def spectral_radius(matrix):
    """Largest absolute eigenvalue, from the dense LAPACK spectrum."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidArgumentError("spectral radius requires a square matrix")
    if not np.any(matrix):
        return 0.0
    return float(np.abs(np.linalg.eigvals(matrix)).max())


@dataclass(frozen=True)
class StabilityReport:
    """Spectral diagnostics of the outer loop at a candidate fixed point.

    ``rho_best_response`` is the spectral radius of the probability
    Jacobian; ``rho_npl_update`` that of the annihilator-projected
    Jacobian, whose value below one guarantees local convergence of the
    nested loop.  ``norm_bound`` is a cheap Frobenius upper bound on the
    latter, logged as a sanity check.
    """

    rho_best_response: float
    rho_npl_update: float
    jacobian_dim: int
    norm_bound: float


def stability_report(theta, ccp, config):
    """Compute both spectral radii at ``(theta, ccp)``."""
    objects = stability_objects(theta, ccp, config)
    jac = objects.ccp_jacobian
    rho_br = spectral_radius(jac)
    # The projected map annihilator @ J acts on full coordinates, but J's
    # columns for the continuation choices are zero (a simplex-tangent
    # perturbation is identified by its action component), so its spectrum
    # is that of the action block plus zeros.
    expanded = _expand_rows(jac, config)
    n, j_total, k_total = config.n_players, config.n_choices, config.n_states
    action = np.arange(n * j_total * k_total).reshape(n, j_total, k_total)[:, 1].reshape(-1)
    rho_npl = spectral_radius(objects.annihilator[action] @ expanded)
    bound = float(np.linalg.norm(objects.annihilator, "fro")
                  * np.linalg.norm(expanded, "fro"))
    if rho_npl > bound * (1 + 1e-8) + 1e-12:
        raise NumericalError(
            f"spectral radius {rho_npl:g} exceeds its norm bound {bound:g}")
    return StabilityReport(rho_best_response=rho_br, rho_npl_update=rho_npl,
                           jacobian_dim=jac.shape[0], norm_bound=bound)


def stability_sweep(config, theta_base, rn_grid, solver_tol=1e-10):
    """Equilibrium stability along a grid of competition-effect values.

    For each value on the grid: solve the equilibrium (retrying with
    damping on non-convergence) and report

    - ``rho``: spectral radius of the annihilator-projected probability
      Jacobian at the fixed point -- the local convergence rate of the
      nested estimation loop (the sweep's headline number);
    - ``rho_br``: raw best-response radius, the contraction rate of plain
      successive approximation (can exceed one where the projected radius
      stays below it);
    - ``avg_active``: steady-state average number of active firms.

    Rows are dicts; failures are recorded under ``error`` and the sweep
    continues.
    """
    tables = game.state_tables(config)
    n_active = tables.activity.sum(axis=1)
    rows = []
    for rn in rn_grid:
        row = {"rn": float(rn)}
        try:
            theta = Theta(fc=theta_base.fc, rs=theta_base.rs, rn=float(rn),
                          ec=theta_base.ec)
            result = None
            for damping in (1.0, 0.5, 0.25):
                try:
                    result = solve_mpe(theta, config, tol=solver_tol, damping=damping)
                    break
                except ConvergenceError:
                    continue
            if result is None:
                raise ConvergenceError("equilibrium solver failed at all dampings")
            report = stability_report(theta, result.ccp, config)
            pi = markov.stationary_distribution(aggregate_generator(result.ccp, config))
            row["rho"] = report.rho_npl_update
            row["rho_br"] = report.rho_best_response
            row["avg_active"] = float(pi @ n_active)
            row["iterations"] = result.iterations
        except (ConvergenceError, NumericalError, InvalidArgumentError) as err:
            row["error"] = str(err)
        rows.append(row)
    return rows
