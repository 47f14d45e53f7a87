import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_array
from scipy.sparse.linalg import ArpackNoConvergence

from ctgames import GameConfig, InvalidArgumentError, NumericalError, Theta, diagnostics
from ctgames.diagnostics import (
    best_response_jacobian,
    spectral_radius,
    stability_objects,
    stability_report,
    stability_sweep,
)
from ctgames.equilibrium import (
    CCP_FLOOR,
    LinearizedPolicy,
    best_response_map,
    solve_mpe,
    uniform_ccp,
)
from ctgames.experiments import experiment_spec

from conftest import desk_config
from oracles import dense_radii, full_coordinate_projection, power_estimate


@pytest.fixture(scope="module")
def mini_fixed_point():
    config = GameConfig(n_players=2, market_levels=2, lam=1.0, rho=0.05,
                        q_up=0.3, q_down=0.3)
    theta = Theta(fc=(-1.2, -0.9), rs=1.0, rn=1.0, ec=1.0)
    mpe = solve_mpe(theta, config, tol=1e-13)
    return config, theta, mpe.ccp


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_absolute_values(self):
        assert spectral_radius(np.diag([0.3, -0.6])) == pytest.approx(0.6, abs=1e-12)

    def test_rotation_complex_pair(self):
        # eigenvalues +/- i: radius 1 despite no real dominant eigenvector
        assert spectral_radius(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(1.0, abs=1e-10)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((4, 4))) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_is_numerical_error(self, bad):
        with pytest.raises(NumericalError, match="non-finite"):
            spectral_radius(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_matches_dense_spectrum_on_random(self, rng):
        for _ in range(10):
            a = rng.normal(size=(30, 30))
            assert spectral_radius(a) == pytest.approx(
                np.abs(np.linalg.eigvals(a)).max(), rel=1e-10)

    def test_defective_matrices_read_within_documented_range(self):
        # ARPACK converges to a Ritz value above the radius of a defective
        # matrix; the docstring gives about 2e-3 and 0.84 for these two
        assert 0.0 <= spectral_radius(np.eye(7, k=1)) < 1e-2
        jordan = 0.7 * np.eye(30) + np.eye(30, k=1)
        assert 0.7 - 1e-12 <= spectral_radius(jordan) < 1.0

    def test_falls_back_to_dense_when_arpack_does_not_converge(self, rng, monkeypatch):
        calls = []

        def no_convergence(matrix, **kwargs):
            calls.append(matrix.shape)
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(diagnostics, "eigs", no_convergence)
        a = rng.normal(size=(30, 30))
        assert spectral_radius(a) == np.abs(np.linalg.eigvals(a)).max()
        assert calls == [(30, 30)]

    def test_power_route_matches_dense_on_game_jacobians(self, mini_fixed_point):
        # the iterative and dense routes agree to 1e-8 relative on every
        # Jacobian we compute
        config, theta, ccp = mini_fixed_point
        jac = best_response_jacobian(theta, ccp, config)
        estimate, converged = power_estimate(jac, 20, 1e-12, 50000, 0)
        dense = np.abs(np.linalg.eigvals(jac)).max()
        assert converged
        assert estimate == pytest.approx(dense, rel=1e-8)

    @given(dim=st.integers(3, 12), radius=st.floats(0.1, 10.0),
           angle=st.floats(0.2, 3.0), pair=st.sampled_from(["plus-minus", "complex"]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_matches_power_oracle_on_dominant_pairs(self, dim, radius, angle, pair, seed):
        # a dominant +/- pair or complex pair with no real dominant
        # eigenvector, the rest of the spectrum at most half as large
        rng = np.random.default_rng(seed)
        if pair == "plus-minus":
            block = radius * np.array([[0.0, 1.0], [1.0, 0.0]])
        else:
            block = radius * np.array([[np.cos(angle), -np.sin(angle)],
                                       [np.sin(angle), np.cos(angle)]])
        core = np.zeros((dim, dim))
        core[:2, :2] = block
        core[2:, 2:] = np.diag(rng.uniform(-0.5, 0.5, size=dim - 2) * radius)
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        matrix = basis @ core @ basis.T
        estimate, converged = power_estimate(matrix, 20, 1e-12, 50000, 0)
        assert converged
        assert spectral_radius(matrix) == pytest.approx(radius, rel=1e-10)
        assert spectral_radius(matrix) == pytest.approx(estimate, rel=1e-8)


def random_game(n_players, levels, seed):
    """A random game with its choice probabilities drawn in [0.05, 0.95]."""
    rng = np.random.default_rng(seed)
    config = GameConfig(n_players=n_players, market_levels=levels,
                        lam=float(rng.uniform(0.5, 2.0)), rho=float(rng.uniform(0.05, 0.5)),
                        q_up=float(rng.uniform(0.0, 0.5)), q_down=float(rng.uniform(0.0, 0.5)))
    theta = Theta(fc=tuple(rng.uniform(-2.0, 0.0, size=n_players)),
                  rs=rng.uniform(0.0, 1.5), rn=rng.uniform(0.0, 2.0), ec=rng.uniform(0.0, 2.0))
    probs = rng.uniform(0.05, 0.95, size=(n_players, config.n_states))
    return config, theta, np.stack([1 - probs, probs], axis=1)


def clamped_game(rs=1.0, ec=5.0):
    """Firm 0's fixed cost keeps it out: at `uniform_ccp`, 4 of the 16
    best-response entries clamp at CCP_FLOOR, where the slope is zero."""
    config = GameConfig(n_players=2, market_levels=2, lam=1.0, rho=0.05,
                        q_up=0.3, q_down=0.3)
    theta = Theta(fc=(-30.0, -0.9), rs=rs, rn=1.0, ec=ec)
    return config, theta, uniform_ccp(config)


# random games and two clamped ones: at the defaults the parameter-direction
# Gram matrix is singular; at rs = 5, ec = 20 the radii are about 0.11 and 0.008
games = st.one_of(st.sampled_from([clamped_game(), clamped_game(rs=5.0, ec=20.0)]),
                  st.builds(random_game, st.integers(1, 3), st.integers(1, 3),
                            st.integers(0, 2**32 - 1)))


class TestExactJacobians:
    @given(n_players=st.integers(1, 3), levels=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_match_finite_difference_oracle(self, n_players, levels, seed):
        config, theta, ccp = random_game(n_players, levels, seed)
        _, left, right, theta_jac = LinearizedPolicy(ccp, config).jacobian_factors(theta)
        for exact, wrt in ((left @ right, "sigma"), (theta_jac, "theta")):
            oracle = best_response_jacobian(theta, ccp, config, wrt=wrt)
            scale = max(np.abs(oracle).max(), 1e-3)
            assert np.abs(exact - oracle).max() <= 1e-6 * scale

    def test_zero_where_best_response_clamps(self):
        # central differences read exactly 0 where the best response clamps
        config, theta, ccp = clamped_game()
        br, left, right, theta_jac = LinearizedPolicy(ccp, config).jacobian_factors(theta)
        clamped = (br.min(axis=1) <= CCP_FLOOR).reshape(-1)
        assert clamped.sum() == 4
        for exact, wrt in ((left @ right, "sigma"), (theta_jac, "theta")):
            oracle = best_response_jacobian(theta, ccp, config, wrt=wrt)
            assert not np.any(exact[clamped])
            assert np.array_equal(exact[clamped], oracle[clamped])
            scale = max(np.abs(oracle).max(), 1e-3)
            assert np.abs(exact[~clamped] - oracle[~clamped]).max() <= 1e-6 * scale

    @given(game=games)
    @settings(max_examples=25)
    def test_factors_reproduce_finite_difference_oracle(self, game):
        # sparse L has one column per (firm i, state h where i is inactive),
        # storing that row's slope and minus its toggle's, at rows i*K + h and
        # i*K + l_i(h); L @ R is the sigma-Jacobian
        config, theta, ccp = game
        n, k_total = config.n_players, config.n_states
        rows = n * k_total
        br, left, right, _ = LinearizedPolicy(ccp, config).jacobian_factors(theta)
        assert isinstance(left, csc_array)
        assert left.shape == (rows, rows // 2) and right.shape == (rows // 2, rows)
        assert np.all(np.diff(left.indptr) == 2)
        # firm i is active in state k when bit i of k is set; toggling flips it
        expected = [[i * k_total + h, i * k_total + (h ^ (1 << i))]
                    for i in range(n) for h in range(k_total) if not h >> i & 1]
        assert np.sort(left.indices.reshape(-1, 2), axis=1).tolist() == expected
        assert not np.any(left.toarray()[(br.min(axis=1) <= CCP_FLOOR).reshape(-1)])
        oracle = best_response_jacobian(theta, ccp, config, wrt="sigma")
        scale = max(np.abs(oracle).max(), 1e-3)
        assert np.abs(left @ right - oracle).max() <= 1e-6 * scale

    def test_best_response_matches_map(self, mini_fixed_point):
        config, theta, _ = mini_fixed_point
        ccp = uniform_ccp(config)
        br = LinearizedPolicy(ccp, config).jacobian_factors(theta)[0]
        assert np.abs(br - best_response_map(theta, ccp, config)).max() < 1e-12

    def test_single_agent_zero_at_fixed_point(self):
        # criterion 2 through the exact route
        for levels in (1, 5):
            config = GameConfig(n_players=1, market_levels=levels, lam=1.0, rho=0.05,
                                q_up=0.2 if levels > 1 else 0.0,
                                q_down=0.2 if levels > 1 else 0.0)
            theta = Theta(fc=(-1.9,), rs=1.0, rn=0.0, ec=1.0)
            mpe = solve_mpe(theta, config, tol=1e-13)
            _, left, right, _ = LinearizedPolicy(mpe.ccp, config).jacobian_factors(theta)
            assert np.abs(left @ right).max() < 1e-5


class TestJacobians:
    def test_step_halving_second_order(self, mini_fixed_point):
        # away from the fixed point the Jacobian is nonzero; central
        # differences converge at O(h^2), so errors shrink ~4x per halving
        config, theta, _ = mini_fixed_point
        ccp = uniform_ccp(config)
        h = 2e-3
        coarse = best_response_jacobian(theta, ccp, config, fd_step=h)
        mid = best_response_jacobian(theta, ccp, config, fd_step=h / 2)
        fine = best_response_jacobian(theta, ccp, config, fd_step=h / 4)
        err_coarse = np.abs(coarse - fine).max()
        err_mid = np.abs(mid - fine).max()
        ratio = err_coarse / err_mid
        assert 2.5 < ratio < 8.0

    def test_single_agent_zero_at_fixed_point(self):
        config = GameConfig(n_players=1, market_levels=5, lam=1.0, rho=0.05,
                            q_up=0.2, q_down=0.2)
        theta = Theta(fc=(-1.9,), rs=1.0, rn=0.0, ec=1.0)
        mpe = solve_mpe(theta, config, tol=1e-13)
        jac = best_response_jacobian(theta, mpe.ccp, config, wrt="sigma")
        assert np.abs(jac).max() < 1e-5

    def test_no_interaction_game_decouples(self):
        config = desk_config()
        theta = Theta(fc=(-1.9, -1.8, -1.7), rs=1.0, rn=0.0, ec=1.0)
        mpe = solve_mpe(theta, config, tol=1e-13)
        jac = best_response_jacobian(theta, mpe.ccp, config, wrt="sigma")
        assert np.abs(jac).max() < 1e-5

    def test_theta_jacobian_shape_and_magnitude(self, mini_fixed_point):
        config, theta, ccp = mini_fixed_point
        jac = best_response_jacobian(theta, ccp, config, wrt="theta")
        assert jac.shape == (config.n_players * config.n_states, 5)
        assert np.abs(jac).max() > 1e-3  # parameters genuinely move the map


class TestStabilityObjects:
    def test_annihilator_is_projector(self, mini_fixed_point):
        config, theta, ccp = mini_fixed_point
        objects = stability_objects(theta, ccp, config)
        m = objects.annihilator
        assert np.abs(m @ m - m).max() < 1e-8

    def test_annihilator_kills_theta_directions(self, mini_fixed_point):
        config, theta, ccp = mini_fixed_point
        objects = stability_objects(theta, ccp, config)
        product = objects.annihilator @ objects.theta_jacobian
        assert np.abs(product).max() < 1e-8


def dense_frobenius_bound(theta, ccp, config):
    """||A||_F ||L R||_F from the dense projector and probability Jacobian,
    which bounds the projected radius, with room for rounding: times
    1 + 1e-8, plus 1e-12.  Raises as `stability_objects` does."""
    objects = stability_objects(theta, ccp, config)
    bound = (np.linalg.norm(objects.annihilator, "fro")
             * np.linalg.norm(objects.left_factor @ objects.right_factor, "fro"))
    return bound * (1 + 1e-8) + 1e-12


class TestStabilityReport:
    def test_report_at_mini_fixed_point(self, mini_fixed_point):
        config, theta, ccp = mini_fixed_point
        report = stability_report(theta, ccp, config)
        assert 0 <= report.rho_best_response < 1
        assert 0 <= report.rho_npl_update <= dense_frobenius_bound(theta, ccp, config)

    def test_non_finite_ccp_is_invalid_argument(self, mini_fixed_point):
        config, theta, ccp = mini_fixed_point
        bad = ccp.copy()
        bad[0, 1, 2] = np.nan
        with pytest.raises(InvalidArgumentError, match="finite"):
            stability_report(theta, bad, config)

    @given(n_players=st.integers(1, 3), levels=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_action_block_radius_equals_full_map_radius(self, n_players, levels, seed):
        # the free-coordinate projection is the full-coordinate one seen
        # through the +/-1 expansion E: same errors, A_full E = E A_free,
        # O = (J' W J)^-1 J' W with W = E' W_full E, and the same radius
        config, theta, ccp = random_game(n_players, levels, seed)
        try:
            expansion, weight, annihilator, radius = full_coordinate_projection(
                theta, ccp, config)
        except (InvalidArgumentError, NumericalError) as err:
            with pytest.raises(type(err)) as raised:
                stability_report(theta, ccp, config)
            assert str(raised.value) == str(err)
            return
        objects = stability_objects(theta, ccp, config)
        report = stability_report(theta, ccp, config)
        lhs, rhs = annihilator @ expansion, expansion @ objects.annihilator
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(lhs).max()
        projected = expansion.T @ weight @ expansion
        theta_jac = objects.theta_jacobian
        oblique = np.linalg.solve(theta_jac.T @ projected @ theta_jac, theta_jac.T @ projected)
        assert np.abs(objects.oblique - oblique).max() <= 1e-10 * np.abs(oblique).max()
        assert report.rho_npl_update == pytest.approx(radius, rel=1e-10, abs=1e-14)

    @given(game=games)
    @settings(max_examples=40)
    def test_radii_equal_dense_oracle(self, game):
        # Sylvester: the (NK/2, NK/2) products R L and R A L carry the
        # nonzero spectra of the (NK, NK) C = L R and A C
        config, theta, ccp = game
        try:
            rho_br, rho_npl = dense_radii(theta, ccp, config)
        except (InvalidArgumentError, NumericalError) as err:
            with pytest.raises(type(err)) as raised:
                stability_report(theta, ccp, config)
            assert str(raised.value) == str(err)
            return
        report = stability_report(theta, ccp, config)
        assert report.rho_best_response == pytest.approx(rho_br, rel=1e-10, abs=1e-14)
        assert report.rho_npl_update == pytest.approx(rho_npl, rel=1e-10, abs=1e-14)

    @given(game=games)
    @settings(max_examples=40)
    def test_npl_radius_within_dense_frobenius_bound(self, game):
        config, theta, ccp = game
        try:
            bound = dense_frobenius_bound(theta, ccp, config)
        except (InvalidArgumentError, NumericalError) as err:
            with pytest.raises(type(err)) as raised:
                stability_report(theta, ccp, config)
            assert str(raised.value) == str(err)
            return
        assert stability_report(theta, ccp, config).rho_npl_update <= bound

    def test_peak_memory_below_one_and_a_half_dense_arrays(self):
        # N = 4 firms and 5 demand levels: NK = 320.  R holds half an NK x NK
        # array, R L a quarter, and the product with the sparse L copies R
        # once: the peak is about 1.42 arrays.  A dense L (another half) or a
        # dense A L crosses the bound.
        config = GameConfig(n_players=4, market_levels=5, lam=1.0, rho=0.05,
                            q_up=0.2, q_down=0.2)
        theta = Theta(fc=(-1.9, -1.8, -1.7, -1.6), rs=1.0, rn=1.0, ec=1.0)
        ccp = solve_mpe(theta, config).ccp
        stability_report(theta, ccp, config)  # warm the state-table cache
        dim = config.n_players * config.n_states
        tracemalloc.start()
        try:
            stability_report(theta, ccp, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * dim * dim * 8


def radius_matrices(theta, ccp, config):
    """The (NK/2, NK/2) matrices whose radii `stability_report` takes: R L, and
    R (A L) through the dense A L rather than the report's rank-P update."""
    theta_jac, oblique, left, right = stability_objects(theta, ccp, config)
    return right @ left, right @ (left - theta_jac @ (oblique @ left))


@pytest.fixture(scope="module")
def paper_sweep_points():
    """Experiment 1 at paper scale (K = 160, R L of dimension 400) at each
    point of criterion 6's grid rn = 0..5: ``{rn: (config, theta, ccp)}``."""
    spec = experiment_spec(1, scale="paper")
    points = {}
    for rn in range(6):
        theta = replace(spec.theta_true, rn=float(rn))
        points[rn] = spec.config, theta, solve_mpe(theta, spec.config).ccp
    return points


class TestArnoldiRadius:
    """`spectral_radius` against the dense spectrum at the sizes ARPACK serves."""

    @pytest.mark.parametrize("levels", [2, 3, 4, 5])
    @pytest.mark.parametrize("n_players", [4, 5])
    def test_matches_dense_on_large_random_games(self, n_players, levels):
        # dimensions NK/2 = 64 to 400
        config, theta, ccp = random_game(n_players, levels, 1000 * n_players + levels)
        for matrix in radius_matrices(theta, ccp, config):
            assert spectral_radius(matrix) == pytest.approx(
                np.abs(np.linalg.eigvals(matrix)).max(), rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("rn", range(6))
    def test_matches_dense_at_paper_sweep_points(self, paper_sweep_points, rn):
        config, theta, ccp = paper_sweep_points[rn]
        for matrix in radius_matrices(theta, ccp, config):
            assert spectral_radius(matrix) == pytest.approx(
                np.abs(np.linalg.eigvals(matrix)).max(), rel=1e-10, abs=1e-14)

    def test_report_repeats_bit_for_bit(self, paper_sweep_points):
        # ARPACK draws its start and restart vectors from a fixed seed, so
        # calls in between (on the shift matrix it draws restart vectors)
        # leave no trace in a later radius
        config, theta, ccp = paper_sweep_points[5]
        first = stability_report(theta, ccp, config)
        spectral_radius(np.eye(6))
        spectral_radius(np.eye(7, k=1))
        assert stability_report(theta, ccp, config) == first


class TestStabilitySweep:
    def test_zero_interaction_point_has_zero_radius(self):
        config = GameConfig(n_players=2, market_levels=2, lam=1.0, rho=0.05,
                            q_up=0.3, q_down=0.3)
        base = Theta(fc=(-1.2, -0.9), rs=1.0, rn=0.0, ec=1.0)
        rows = stability_sweep(config, base, [0.0, 1.0, 2.0])
        assert rows[0]["rho"] < 1e-4
        assert rows[0]["rho_br"] < 1e-4
        assert all("rho" in row for row in rows)
        assert all(row["rho"] < 1.0 for row in rows)
        # the projected radius never exceeds the raw one in these games
        assert all(row["rho"] <= row["rho_br"] + 1e-9 for row in rows)
        assert rows[0]["avg_active"] > rows[2]["avg_active"]

    def test_failures_recorded_not_raised(self):
        config = GameConfig(n_players=2, market_levels=2, lam=1.0, rho=0.05,
                            q_up=0.3, q_down=0.3)
        base = Theta(fc=(-1.2, -0.9), rs=1.0, rn=0.0, ec=1.0)
        rows = stability_sweep(config, base, [0.0, np.inf])
        assert "rho" in rows[0]
        assert "error" in rows[1]

    def test_non_finite_jacobian_recorded_as_row_error(self, monkeypatch):
        real = diagnostics.stability_objects

        def poisoned(theta, ccp, config):
            objects = real(theta, ccp, config)
            right = objects.right_factor.copy()
            right[0, 0] = np.nan
            return objects._replace(right_factor=right)

        monkeypatch.setattr(diagnostics, "stability_objects", poisoned)
        config = GameConfig(n_players=2, market_levels=2, lam=1.0, rho=0.05,
                            q_up=0.3, q_down=0.3)
        base = Theta(fc=(-1.2, -0.9), rs=1.0, rn=0.0, ec=1.0)
        rows = stability_sweep(config, base, [1.0])
        assert "rho" not in rows[0]
        assert "non-finite" in rows[0]["error"]
