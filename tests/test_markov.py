import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm_frechet

from ctgames import (
    GameConfig,
    InvalidArgumentError,
    NotIrreducibleError,
    NumericalError,
    expm,
    markov,
    stationary_distribution,
    transition_matrix,
    uniformization_matrix,
)
from ctgames.equilibrium import aggregate_generator, uniform_ccp
from ctgames.markov import (
    UNIFORMIZATION_ROWSUM_TOL,
    _pade13,
    transition_matrix_frechet,
    transition_matrix_pullback,
)

from conftest import EXP_OVERFLOW_GAME, game_from_config, random_generator, run_fresh_python

# An overflowing exit rate: the uniformization oracle once halved its
# infinite Poisson mean forever.
INFINITE_MEAN_PROBE = """
import numpy as np
from ctgames import NumericalError, uniformization_matrix
try:
    uniformization_matrix(np.array([[-1e308, 1e308], [1.0, -1.0]]), 10.0)
except NumericalError as err:
    print("NumericalError:", err)
"""


def two_state_transition(a, b, t):
    """Analytic exp(t*Q) for Q = [[-a, a], [b, -b]] (eigenvalues 0, -(a+b))."""
    s = a + b
    decay = math.exp(-s * t)
    return np.array([
        [(b + a * decay) / s, (a - a * decay) / s],
        [(b - b * decay) / s, (a + b * decay) / s],
    ])


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((4, 4))), np.eye(4))

    def test_nilpotent(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(expm(a), [[1, 1], [0, 1]], atol=1e-15)

    def test_two_state_closed_form(self):
        q = np.array([[-0.3, 0.3], [0.7, -0.7]])
        assert np.allclose(expm(q), two_state_transition(0.3, 0.7, 1.0), atol=1e-14)

    def test_matches_scaled_exponential_of_scalar(self):
        for x in [-3.0, 0.5, 12.0]:
            assert expm(np.array([[x]]))[0, 0] == pytest.approx(math.exp(x), rel=1e-13)

    def test_semigroup_property(self, rng):
        for k in (8, 24, 160):
            q = random_generator(rng, k)
            half = expm(0.5 * q)
            assert np.abs(half @ half - expm(q)).max() < 1e-9

    def test_generator_exponential_is_stochastic(self, rng):
        for k in (8, 24, 160):
            p = expm(random_generator(rng, k, scale=2.0))
            assert p.min() >= -1e-12
            assert np.abs(p.sum(axis=1) - 1).max() < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidArgumentError):
            expm(np.zeros((2, 3)))
        with pytest.raises(InvalidArgumentError):
            expm(np.array([[np.nan, 0], [0, 0]]))


class TestTransitionMatrix:
    def test_zero_horizon_is_identity(self, rng):
        q = random_generator(rng, 6)
        assert np.array_equal(transition_matrix(q, 0.0), np.eye(6))

    def test_rows_stochastic(self, rng):
        p = transition_matrix(random_generator(rng, 24), 1.0)
        assert p.min() >= 0
        assert np.abs(p.sum(axis=1) - 1).max() < 1e-10

    def test_two_state_symmetric_value(self):
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        p = transition_matrix(q, 1.0)
        assert p[0, 0] == pytest.approx((1 + math.exp(-2)) / 2, abs=1e-12)

    def test_rejects_negative_horizon(self, rng):
        with pytest.raises(InvalidArgumentError):
            transition_matrix(random_generator(rng, 4), -0.5)

    def test_huge_horizon_fails_before_the_squarings(self):
        # the paper-size game (K = 160) over delta = 1e300 would take about
        # 1000 squarings, every iterate kept for the Frechet derivative
        config = GameConfig(n_players=5, market_levels=5, q_up=0.2, q_down=0.2)
        q = aggregate_generator(uniform_ccp(config), config)
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match="squarings"):
                transition_matrix(q, 1e300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * q.nbytes

    def test_zero_pivot_of_the_pade_denominator_is_a_numeric_failure(self, rng, monkeypatch):
        # the scaling keeps V - U well conditioned, so a zero pivot is forced by
        # factoring a zero matrix in its place
        getrf = markov.dgetrf
        monkeypatch.setattr(markov, "dgetrf", lambda x, **kw: getrf(np.zeros_like(x), **kw))
        with pytest.raises(NumericalError, match="Pade denominator V - U is singular"):
            transition_matrix(random_generator(rng, 6), 1.0)

    def test_rejects_non_generator(self):
        with pytest.raises(InvalidArgumentError):
            transition_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)

    def test_infinite_scaled_generator_is_a_numeric_failure_on_every_route(self):
        # delta Q overflows to inf: a game the solvers cannot handle, not a bad
        # argument, whichever route forms exp(delta Q)
        config, _ = game_from_config(EXP_OVERFLOW_GAME)
        q = aggregate_generator(uniform_ccp(config), config)
        for route in (transition_matrix, transition_matrix_frechet,
                      transition_matrix_pullback, uniformization_matrix):
            with np.errstate(over="ignore"), pytest.raises(NumericalError, match="squarings"):
                route(q, config.delta)


class TestFrechet:
    @given(k=st.integers(1, 12), scale=st.floats(0.01, 100.0),
           delta=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
    @example(k=10, scale=60.0, delta=2.0, seed=7)
    @settings(max_examples=40)
    def test_matches_scipy_oracle(self, k, scale, delta, seed):
        # random generators, most with 1-norms above the order-13 threshold
        # (the squaring path: the explicit example takes six squarings);
        # scipy's expm_frechet is the independent implementation
        rng = np.random.default_rng(seed)
        q = random_generator(rng, k, scale=scale)
        e = rng.normal(size=(k, k))
        exp_a, frechet = _pade13(delta * q)
        want_exp, want_l = expm_frechet(delta * q, e)
        assert np.abs(exp_a - want_exp).max() <= 1e-12
        assert np.abs(frechet(e) - want_l).max() <= 1e-10 * max(1.0, np.abs(want_l).max())
        # the adjoint: the gradient in q of sum(g * exp(delta q))
        _, pullback = transition_matrix_pullback(q, delta)
        want_grad = delta * expm_frechet(delta * q.T, e)[1]
        assert np.abs(pullback(e) - want_grad).max() <= 1e-10 * max(1.0, np.abs(want_grad).max())
        # the derivative of exp(delta q) in q, and the pullback as its adjoint:
        # <g, forward(e)> = <pullback(g), e>
        p, forward = transition_matrix_frechet(q, delta)
        assert np.array_equal(p, transition_matrix(q, delta))
        moved, want_moved = forward(e), delta * want_l
        assert np.abs(moved - want_moved).max() <= 1e-10 * max(1.0, np.abs(want_moved).max())
        g = rng.normal(size=(k, k))
        lhs, rhs = (g * moved).sum(), (pullback(g) * e).sum()
        assert abs(lhs - rhs) <= 1e-12 * np.abs(g).sum() * np.abs(moved).max()

    def test_transition_matrix_unchanged(self, rng):
        q = random_generator(rng, 24, scale=2.0)
        p, _ = transition_matrix_pullback(q, 1.5)
        assert np.array_equal(p, transition_matrix(q, 1.5))


class TestUniformization:
    def test_zero_horizon_indicator(self, rng):
        q = random_generator(rng, 5)
        p = uniformization_matrix(q, 0.0)
        assert p[2, 2] == 1.0
        assert p[2, 3] == 0.0

    def test_agrees_with_pade_on_random_generators(self, rng):
        for trial in range(50):
            k = int(rng.choice([8, 24, 160]))
            scale = float(rng.choice([0.5, 1.0, 5.0]))
            q = random_generator(rng, k, scale=scale)
            gap = np.abs(uniformization_matrix(q, 1.0) - transition_matrix(q, 1.0)).max()
            assert gap < 1e-10

    def test_two_state_analytic(self):
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        value = uniformization_matrix(q, 1.0)[0, 0]
        assert value == pytest.approx((1 + math.exp(-2)) / 2, abs=1e-12)

    def test_long_horizon(self, rng):
        q = random_generator(rng, 8, scale=40.0)
        gap = np.abs(uniformization_matrix(q, 3.0) - transition_matrix(q, 3.0)).max()
        assert gap < 1e-10

    def test_moderate_scale_keeps_stochastic_rows(self, rng):
        q = random_generator(rng, 8, scale=100.0)
        p = uniformization_matrix(q, 1.0)
        assert np.abs(p.sum(axis=1) - 1).max() <= UNIFORMIZATION_ROWSUM_TOL
        assert np.abs(p - transition_matrix(q, 1.0)).max() < 1e-10

    def test_rows_that_miss_one_raise(self, rng):
        # at 1e16 the series' entries once all fell below 3e-41; squared 52
        # times, its rows no longer sum to one
        q = random_generator(rng, 8) * 1e16
        with pytest.raises(NumericalError, match="rows miss one"):
            uniformization_matrix(q, 1.0)

    def test_infinite_poisson_mean_raises_without_hanging(self):
        # in a subprocess with a timeout, so a regression fails instead of
        # hanging the suite
        done = run_fresh_python(INFINITE_MEAN_PROBE, timeout=30)
        assert done.stdout.startswith("NumericalError: exp of a 1-norm inf")


class TestStationaryDistribution:
    def test_two_state_symmetric(self):
        q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert np.allclose(stationary_distribution(q), [0.5, 0.5], atol=1e-14)

    def test_two_level_birth_death_detailed_balance(self):
        # q_up = 2 * q_down: pi solves pi_0 * q_up = pi_1 * q_down -> (1/3, 2/3)
        q = np.array([[-0.8, 0.8], [0.4, -0.4]])
        assert np.allclose(stationary_distribution(q), [1 / 3, 2 / 3], atol=1e-12)

    def test_residual_bound_on_random_generators(self, rng):
        for k in (8, 24, 160):
            q = random_generator(rng, k)
            pi = stationary_distribution(q)
            assert np.abs(pi @ q).max() < 1e-10
            assert pi.min() >= 0
            assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fixed_point_of_transition_matrix(self, rng):
        q = random_generator(rng, 24)
        pi = stationary_distribution(q)
        for delta in (0.1, 1.0, 7.0):
            p = transition_matrix(q, delta)
            assert np.abs(pi @ p - pi).max() < 1e-9

    def test_reducible_generator_names_state(self):
        q = np.zeros((3, 3))
        q[0, 1] = 1.0
        q[1, 0] = 1.0
        np.fill_diagonal(q, -q.sum(axis=1))
        with pytest.raises(NotIrreducibleError) as excinfo:
            stationary_distribution(q)
        assert excinfo.value.unreachable_state == 2
