"""Dense linear-algebra kernels for finite Markov jump processes.

A generator (intensity matrix) is a K x K array with nonnegative
off-diagonal rates and rows summing to zero.  The transition matrix over a
horizon ``delta`` is ``expm(delta * Q)``.  Two independent routes to that
matrix are provided -- a Pade approximant (`expm`, `transition_matrix`) and
a Poisson-mixture series (`uniformization_matrix`) -- so each can serve as
an oracle for the other.  The Pade code also yields the Frechet derivative
of the exponential from the same set-up: `transition_matrix_frechet` pushes
a direction in ``Q`` forward to ``exp(delta * Q)``, and
`transition_matrix_pullback` is its adjoint, pulling a gradient in
``exp(delta * Q)`` back to ``Q`` (scipy's ``expm_frechet`` is the test
oracle of both).
"""

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import InvalidArgumentError, NotIrreducibleError, NumericalError

# Coefficients of the degree-13 diagonal Pade approximant to exp(x).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
# Largest 1-norm for which the order-13 approximant attains double precision.
_THETA13 = 5.371920351148152

# Row-sum slack accepted when validating a generator, per state.
GENERATOR_ROWSUM_TOL = 1e-12
# Transition-matrix entries below this are treated as roundoff and clipped.
NEGATIVE_PROB_TOL = 1e-10
# `uniformization_matrix` truncates its series once the Poisson tail mass
# is below this.
UNIFORMIZATION_TAIL = 1e-13


def check_generator(q):
    """Validate that ``q`` is a generator matrix; return it as float array.

    Raises
    ------
    InvalidArgumentError
        If ``q`` is not square, has negative off-diagonal entries, or has
        rows that do not sum to zero within ``GENERATOR_ROWSUM_TOL * K``.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise InvalidArgumentError(f"generator must be square, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise InvalidArgumentError("generator has non-finite entries")
    k = q.shape[0]
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if off.min() < -GENERATOR_ROWSUM_TOL:
        raise InvalidArgumentError("generator has negative off-diagonal rates")
    scale = max(1.0, np.abs(q).max())
    rowsum = np.abs(q.sum(axis=1)).max()
    if rowsum > GENERATOR_ROWSUM_TOL * k * scale:
        raise InvalidArgumentError(f"generator rows must sum to zero, worst residual {rowsum:g}")
    return q


def _pade13(a):
    """``exp(a)`` by degree-13 Pade scaling and squaring, and its Frechet derivative.

    Returns ``(exp(a), frechet)``; ``frechet(e)`` is ``L(a, e)``, the
    derivative of the exponential at ``a`` in the direction ``e``.  It reuses
    the powers of ``a``, the LU factors of ``V - U`` and the squaring iterates
    of the exponential (Al-Mohy & Higham 2009, SIMAX, Alg. 6.4), so one
    set-up serves a direction that depends on ``exp(a)`` itself.
    """
    norm1 = np.linalg.norm(a, 1)
    if norm1 == 0.0:
        return np.eye(a.shape[0]), lambda e: np.array(e, dtype=float)
    squarings = 0
    if norm1 > _THETA13:
        squarings = int(np.ceil(np.log2(norm1 / _THETA13)))
        a = a / (2.0 ** squarings)

    b = _PADE13
    ident = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    w1 = b[13] * a6 + b[11] * a4 + b[9] * a2
    w = a6 @ w1 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    z1 = b[12] * a6 + b[10] * a4 + b[8] * a2
    u = a @ w
    v = a6 @ z1 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    factor = lu_factor(v - u)
    iterates = [lu_solve(factor, v + u)]
    for _ in range(squarings):
        iterates.append(iterates[-1] @ iterates[-1])

    def frechet(e):
        e = np.asarray(e, dtype=float) / (2.0 ** squarings)
        m2 = a @ e + e @ a
        m4 = a2 @ m2 + m2 @ a2
        m6 = a4 @ m2 + m4 @ a2
        lw = a6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2) + m6 @ w1 + (
            b[7] * m6 + b[5] * m4 + b[3] * m2)
        lu = a @ lw + e @ w
        lv = a6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2) + m6 @ z1 + (
            b[6] * m6 + b[4] * m4 + b[2] * m2)
        out = lu_solve(factor, lu + lv + (lu - lv) @ iterates[0])
        for r in iterates[:-1]:
            out = r @ out + out @ r
        return out

    return iterates[-1], frechet


def expm(a):
    """Matrix exponential via scaling-and-squaring with a degree-13 Pade approximant.

    Parameters
    ----------
    a : array_like
        Square real matrix with finite entries.

    Returns
    -------
    ndarray
        ``e**a``, accurate to a relative backward error near machine
        precision for 1-norms up to about 1e6.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"expm requires a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidArgumentError("expm requires finite entries")
    return _pade13(a)[0]


def transition_matrix(q, delta):
    """Transition probability matrix exp(delta * Q) of a jump process.

    Rows are renormalized defensively after exponentiation; entries more
    negative than ``NEGATIVE_PROB_TOL`` raise `NumericalError`, smaller ones
    are clipped to zero.
    """
    return _transition(q, delta, lambda a: (expm(a), None))[0]


def transition_matrix_frechet(q, delta):
    """`transition_matrix` and its derivative in the generator.

    Returns ``(p, forward)``: ``forward(e)`` is the derivative of ``p`` in
    the direction ``e`` of ``q``, ``delta * L(delta Q, e)``, from the Pade
    set-up that gave ``p``.  Clipping and renormalization contribute no
    derivative: the rows of ``exp(delta Q)`` sum to one for every generator.
    """
    p, frechet = _transition(q, delta, _pade13)
    return p, lambda e: delta * frechet(e)


def transition_matrix_pullback(q, delta):
    """`transition_matrix` and the adjoint of its derivative in the generator.

    Returns ``(p, pullback)``: ``pullback(g)`` is the gradient in ``q`` of
    ``sum(g * p)``.  It is the adjoint of `transition_matrix_frechet`'s
    ``forward``, ``delta * L(delta Q^T, g) = delta * L(delta Q, g^T)^T``.
    """
    p, forward = transition_matrix_frechet(q, delta)
    return p, lambda g: forward(np.asarray(g).T).T


def _transition(q, delta, exponential):
    q = check_generator(q)
    if not np.isfinite(delta) or delta < 0:
        raise InvalidArgumentError(f"delta must be nonnegative, got {delta}")
    p, frechet = exponential(delta * q)
    if p.min() < -NEGATIVE_PROB_TOL:
        raise NumericalError(f"transition matrix entry {p.min():g} below -{NEGATIVE_PROB_TOL:g}")
    np.clip(p, 0.0, None, out=p)
    rows = p.sum(axis=1, keepdims=True)
    if not np.all((0.0 < rows) & (rows < np.inf)):
        raise NumericalError("transition matrix has a row without a positive finite sum")
    p /= rows
    return p, frechet


def uniformization_matrix(q, delta):
    """Transition matrix by uniformization (Poisson mixture of jump-chain powers).

    Independent oracle for `transition_matrix`: the series
    ``sum_r Poisson(r; Lambda*delta) Z**r`` with ``Z = I + Q/Lambda`` and
    ``Lambda`` the largest total exit rate, truncated once the Poisson tail
    mass drops below `UNIFORMIZATION_TAIL`.  Long horizons are split in
    halves (exact semigroup property) to keep the Poisson weights in range.
    """
    q = check_generator(q)
    if not np.isfinite(delta) or delta < 0:
        raise InvalidArgumentError(f"delta must be nonnegative, got {delta}")
    k = q.shape[0]
    rate = float(np.max(-np.diag(q)))
    if delta == 0 or rate == 0.0:
        return np.eye(k)

    # Halve the horizon until the Poisson mean is moderate, square afterwards.
    halvings = 0
    mean = rate * delta
    while mean > 64.0:
        mean /= 2.0
        halvings += 1
    step = delta / (2 ** halvings)

    z = np.eye(k) + q / rate
    weight = np.exp(-rate * step)
    covered = weight
    power = np.eye(k)
    total = weight * power
    r = 0
    while 1.0 - covered > UNIFORMIZATION_TAIL:
        r += 1
        power = power @ z
        weight *= rate * step / r
        total += weight * power
        covered += weight
        if r > 100000:
            raise NumericalError("uniformization series failed to converge")
    for _ in range(halvings):
        total = total @ total
    return total


def stationary_distribution(q):
    """Stationary distribution pi of an irreducible generator: pi Q = 0, sum pi = 1.

    Solved as a bordered linear system (one balance equation replaced by the
    normalization).  Raises `NotIrreducibleError` if the off-diagonal
    transition graph is not strongly connected, naming an unreachable state.
    """
    q = check_generator(q)
    k = q.shape[0]
    adjacency = csr_matrix((q > 0).astype(np.int8))
    n_comp, labels = connected_components(adjacency, directed=True, connection="strong")
    if n_comp > 1:
        other = int(np.nonzero(labels != labels[0])[0][0])
        raise NotIrreducibleError(
            f"generator is not irreducible: state {other} and state 0 do not communicate",
            unreachable_state=other,
        )
    a = q.T.copy()
    a[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"stationary system is singular: {err}") from None
    if pi.min() < -NEGATIVE_PROB_TOL:
        raise NumericalError(f"stationary distribution entry {pi.min():g} is negative")
    np.clip(pi, 0.0, None, out=pi)
    pi /= pi.sum()
    residual = np.abs(pi @ q).max()
    if residual > 1e-10:
        raise NumericalError(f"stationary residual {residual:g} exceeds 1e-10")
    return pi
