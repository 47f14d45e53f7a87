"""Convergence diagnostics for the nested estimation loop.

The local behavior of the outer loop is governed by two Jacobians of the
best-response map at a fixed point -- with respect to the choice
probabilities and with respect to the parameters -- combined into an
oblique projector that annihilates the parameter directions.  The loop
contracts locally when the spectral radius of (projector @ probability
Jacobian) is below one; in single-agent models that Jacobian vanishes at
the fixed point, so the loop always converges locally.

All objects live in the free coordinates: one action probability per
(firm, state), row ``i*K + k``; the continuation probability moves
oppositely.  Both Jacobians are exact: `stability_objects` reads them from
`equilibrium.LinearizedPolicy.jacobian_factors` at the candidate fixed
point.  The projector is the full (firm, choice, state) one restricted
exactly, ``A_full E = E A_free`` (see `StabilityObjects`).

The (NK, NK) probability Jacobian has rank at most NK/2: toggling a firm is
an involution, so its rows come in pairs proportional to one row, and it
factors as C = L R, L a sparse (NK, NK/2) array of two entries per column,
and the projector as A = I - J_theta O.  No (NK, NK) array is formed: LR and
RL (and A L R and R A L) share their nonzero eigenvalues, so the radii are
those of R L and its rank-P update R L - (R J_theta)(O L).  `spectral_radius`
takes only the largest-magnitude eigenvalue, by implicitly restarted Arnoldi
(ARPACK) from a fixed start vector; the dense LAPACK spectrum remains for
dimension two or less and where ARPACK fails.  The dense (NK, NK) spectra
and central differences (`best_response_jacobian`) are the tests' oracles.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import ArpackError, eigs

from . import game, markov
from .equilibrium import (LinearizedPolicy, aggregate_generator, best_response_map, check_ccp,
                          solve_mpe)
from .errors import ConvergenceError, InvalidArgumentError, NumericalError
from .estimate import central_difference_gradient
from .game import Theta

DEFAULT_FD_STEP = 1e-6


def best_response_jacobian(theta, ccp, config, wrt="sigma", fd_step=DEFAULT_FD_STEP):
    """Finite-difference Jacobian of the best-response map (the exact route's oracle).

    With ``wrt='sigma'``: an (NK, NK) matrix of central differences of the
    action probabilities with respect to the free probability coordinates
    (entry (row i*K+k, col m*K+k') is the response of firm i's action
    probability in state k to firm m's in state k', the stay probability
    moving oppositely; the step is ``fd_step``).  With ``wrt='theta'``: an
    (NK, P) matrix of derivatives in the parameter vector.  Meaningful as a
    diagnostic near a fixed point, but computable anywhere.
    """
    ccp = check_ccp(ccp, config)
    if wrt == "sigma":
        def actions(free):
            sigma = free.reshape(ccp[:, 1].shape)
            return best_response_map(theta, np.stack([1 - sigma, sigma], axis=1),
                                     config)[:, 1].reshape(-1)

        return central_difference_gradient(actions, ccp[:, 1].reshape(-1), fd_step)
    if wrt == "theta":
        def actions(vec):
            theta_at = Theta.from_vector(vec, config.n_players)
            return best_response_map(theta_at, ccp, config)[:, 1].reshape(-1)

        return central_difference_gradient(actions, theta.as_vector(), fd_step)
    raise InvalidArgumentError(f"wrt must be 'sigma' or 'theta', got {wrt!r}")


class StabilityObjects(NamedTuple):
    """Ingredients of the local convergence condition, in free coordinates.

    The projector weight W = E' S diag(vec P)^-1 S' E holds
    ``1 / P[k, toggle_i(k)]`` on the diagonal plus ``1 / P[k, k]`` on every
    pair of firms sharing state k.  P is the transition matrix at the best
    response, S marks the continuation cell of P of each (firm, choice,
    state), and E maps free to full coordinates (+1 on the action, -1 on
    the stay).  W is applied as an operator and never formed.

    - ``theta_jacobian``: (NK, P) parameter Jacobian J_theta.
    - ``oblique``: (P, NK) matrix O = (J_theta' W J_theta)^-1 J_theta' W,
      so that A = I - J_theta O is the oblique projector killing the
      parameter directions of the best-response map.  The full-coordinate
      projector satisfies ``A_full E = E A_free``, so the action rows of
      the full projected map are ``A_free J_sigma``.
    - ``left_factor``, ``right_factor``: the sparse (NK, NK/2) `csc_array` L,
      two entries per column, and the dense (NK/2, NK) R of the probability
      Jacobian C = L R (see `equilibrium.LinearizedPolicy.jacobian_factors`).
    """

    theta_jacobian: np.ndarray
    oblique: np.ndarray
    left_factor: csc_array
    right_factor: np.ndarray

    @property
    def annihilator(self):
        """The (NK, NK) projector A = I - J_theta O, formed on request."""
        return np.eye(self.theta_jacobian.shape[0]) - self.theta_jacobian @ self.oblique


def stability_objects(theta, ccp, config):
    """Assemble the oblique projector and exact Jacobians at ``(theta, ccp)``.

    The weight uses the transition matrix at the best response to
    ``(theta, ccp)`` over one sampling interval ``config.delta``; every
    continuation probability it reads (staying in k, and each firm's
    toggle from k) must be positive (guaranteed for an irreducible chain).
    """
    n, k_total = config.n_players, config.n_states
    toggle = game.state_tables(config).toggle
    br, left, right, theta_jac = LinearizedPolicy(ccp, config).jacobian_factors(theta)
    p_matrix = markov.transition_matrix(aggregate_generator(br, config), config.delta)
    p_stay = np.diag(p_matrix)
    p_toggle = p_matrix[np.arange(k_total), toggle]  # [i, k]: P[k, toggle_i(k)]
    if np.minimum(p_stay, p_toggle).min() <= 0.0:
        raise InvalidArgumentError(
            "transition matrix vanishes on a continuation state; chain not irreducible")
    blocks = theta_jac.reshape(n, k_total, -1)
    weighted = (blocks.sum(axis=0) / p_stay[:, None]
                + blocks / p_toggle[:, :, None]).reshape(theta_jac.shape).T  # J_theta' W
    gram = weighted @ theta_jac
    if not np.all(np.isfinite(gram)):
        raise NumericalError("parameter-direction Gram matrix is not finite")
    rank = np.linalg.matrix_rank(gram)
    if rank < gram.shape[0]:
        raise NumericalError(
            f"parameter-direction Gram matrix is singular (rank {rank} of {gram.shape[0]})")
    return StabilityObjects(theta_jacobian=theta_jac, oblique=np.linalg.solve(gram, weighted),
                            left_factor=left, right_factor=right)


def spectral_radius(matrix):
    """Largest absolute eigenvalue, by implicitly restarted Arnoldi.

    ARPACK (`scipy.sparse.linalg.eigs`, k = 1, largest magnitude, ``tol=0``
    for machine precision) finds the one extreme eigenvalue from products
    with the matrix, with no QR sweep over the whole spectrum.  Its start
    vector, and any vector it draws to restart after finding an invariant
    subspace, come from a generator seeded with 0 (``rng=0``, SciPy 1.17 or
    later), so a radius does not depend on what ran earlier in the process
    or in another one.  The dense LAPACK spectrum is taken where ARPACK
    cannot answer: dimension two or less (it needs k < n - 1) and any
    `ArpackError`, including no convergence.

    The two routes agree to about 1e-14 relative on the game Jacobians,
    whose largest modulus stands apart from the next.  On a defective,
    strongly non-normal matrix the radius itself is ill-conditioned, and
    ARPACK converges to a Ritz value above it: the 7 x 7 shift matrix
    (nilpotent) reads about 2e-3, not 0, and a 30 x 30 Jordan block with
    eigenvalue 0.7 reads about 0.84.  A 1e-16 corner entry moves that
    block's true radius to about 0.99 while the dense route still reads
    0.70.

    Raises `NumericalError` when the matrix holds a NaN or an infinity.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidArgumentError("spectral radius requires a square matrix")
    if not np.isfinite(matrix).all():
        raise NumericalError("spectral radius of a matrix with non-finite entries")
    if not np.any(matrix):
        return 0.0
    if matrix.shape[0] > 2:
        try:
            return float(abs(eigs(matrix, k=1, which="LM", tol=0, rng=0,
                                  return_eigenvectors=False)[0]))
        except ArpackError:
            pass
    return float(np.abs(np.linalg.eigvals(matrix)).max())


@dataclass(frozen=True)
class StabilityReport:
    """Spectral diagnostics of the outer loop at a candidate fixed point.

    ``rho_best_response`` is the spectral radius of the probability
    Jacobian; ``rho_npl_update`` that of the annihilator-projected
    Jacobian, whose value below one guarantees local convergence of the
    nested loop.
    """

    rho_best_response: float
    rho_npl_update: float


def stability_report(theta, ccp, config):
    """Compute both spectral radii at ``(theta, ccp)``.

    With the probability Jacobian C = L R (`StabilityObjects`), C and R L
    share their nonzero eigenvalues, and so do A C and R A L (Sylvester's
    identity): ``rho_best_response`` is the radius of R L, formed once, and
    ``rho_npl_update`` that of its rank-P update R L - (R J_theta)(O L).
    """
    theta_jac, oblique, left, right = stability_objects(theta, ccp, config)
    right_left = right @ left
    rho_br = spectral_radius(right_left)
    rho_npl = spectral_radius(right_left - (right @ theta_jac) @ (oblique @ left))
    return StabilityReport(rho_best_response=rho_br, rho_npl_update=rho_npl)


def stability_sweep(config, theta_base, rn_grid):
    """Equilibrium stability along a grid of competition-effect values.

    For each value on the grid: solve the equilibrium and report

    - ``rho``: spectral radius of the annihilator-projected probability
      Jacobian at the fixed point -- the local convergence rate of the
      nested estimation loop (the sweep's headline number);
    - ``rho_br``: raw best-response radius, the contraction rate of plain
      successive approximation (can exceed one where the projected radius
      stays below it);
    - ``avg_active``: steady-state average number of active firms;
    - ``iterations``: the solve's best-response evaluations, as in `MpeResult`.

    Rows are dicts; failures are recorded under ``error`` and the sweep
    continues.  A game with one firm or one demand level raises
    `InvalidArgumentError` up front, as the projector needs every parameter:
    rn acts only through rivals, and with one level the rs direction is the
    sum of the fixed-cost directions.
    """
    if config.n_players == 1 or config.market_levels == 1:
        name = "rn" if config.n_players == 1 else "rs"
        raise InvalidArgumentError(
            f"stability sweep needs 2 firms and 2 demand levels: {name} is not identified")
    tables = game.state_tables(config)
    n_active = tables.activity.sum(axis=1)
    rows = []
    for rn in rn_grid:
        row = {"rn": float(rn)}
        try:
            theta = replace(theta_base, rn=float(rn))
            result = solve_mpe(theta, config)
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
