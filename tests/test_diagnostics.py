import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctgames import GameConfig, Theta
from ctgames.diagnostics import (
    _expand_rows,
    _policy_jacobians,
    _power_estimate,
    best_response_jacobian,
    spectral_radius,
    stability_objects,
    stability_report,
    stability_sweep,
)
from ctgames.equilibrium import best_response_map, solve_mpe, uniform_ccp

from conftest import desk_config


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

    def test_matches_dense_spectrum_on_random(self, rng):
        for _ in range(10):
            a = rng.normal(size=(30, 30))
            assert spectral_radius(a) == pytest.approx(
                np.abs(np.linalg.eigvals(a)).max(), rel=1e-10)

    def test_power_route_matches_dense_on_game_jacobians(self, mini_fixed_point):
        # the iterative and dense routes agree to 1e-8 relative on every
        # Jacobian we compute
        config, theta, ccp = mini_fixed_point
        jac = best_response_jacobian(theta, ccp, config)
        estimate, converged = _power_estimate(jac, 20, 1e-12, 50000, 0)
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
        estimate, converged = _power_estimate(matrix, 20, 1e-12, 50000, 0)
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


class TestExactJacobians:
    @given(n_players=st.integers(1, 3), levels=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_match_finite_difference_oracle(self, n_players, levels, seed):
        config, theta, ccp = random_game(n_players, levels, seed)
        _, ccp_jac, theta_jac = _policy_jacobians(theta, ccp, config)
        for exact, wrt in ((ccp_jac, "sigma"), (theta_jac, "theta")):
            oracle = best_response_jacobian(theta, ccp, config, wrt=wrt)
            scale = max(np.abs(oracle).max(), 1e-3)
            assert np.abs(exact - oracle).max() <= 1e-6 * scale

    def test_best_response_matches_map(self, mini_fixed_point):
        config, theta, _ = mini_fixed_point
        ccp = uniform_ccp(config)
        br, _, _ = _policy_jacobians(theta, ccp, config)
        assert np.abs(br - best_response_map(theta, ccp, config)).max() < 1e-12

    def test_single_agent_zero_at_fixed_point(self):
        # criterion 2 through the exact route
        for levels in (1, 5):
            config = GameConfig(n_players=1, market_levels=levels, lam=1.0, rho=0.05,
                                q_up=0.2 if levels > 1 else 0.0,
                                q_down=0.2 if levels > 1 else 0.0)
            theta = Theta(fc=(-1.9,), rs=1.0, rn=0.0, ec=1.0)
            mpe = solve_mpe(theta, config, tol=1e-13)
            _, ccp_jac, _ = _policy_jacobians(theta, mpe.ccp, config)
            assert np.abs(ccp_jac).max() < 1e-5


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
    def test_selector_rows_have_single_one(self, mini_fixed_point):
        config, theta, ccp = mini_fixed_point
        objects = stability_objects(theta, ccp, config)
        dense = objects.selector.toarray()
        assert set(np.unique(dense)) <= {0.0, 1.0}
        assert np.all(dense.sum(axis=1) == 1.0)

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


class TestStabilityReport:
    def test_report_at_mini_fixed_point(self, mini_fixed_point):
        config, theta, ccp = mini_fixed_point
        report = stability_report(theta, ccp, config)
        assert 0 <= report.rho_best_response < 1
        assert 0 <= report.rho_npl_update <= report.norm_bound + 1e-9
        assert report.jacobian_dim == config.n_players * config.n_states

    def test_action_block_radius_equals_full_map_radius(self, mini_fixed_point):
        # the projected map on full coordinates has zero continuation
        # columns, so its radius is the action block's
        config, theta, ccp = mini_fixed_point
        n, j_total, k_total = config.n_players, config.n_choices, config.n_states
        objects = stability_objects(theta, ccp, config)
        rows = _expand_rows(objects.ccp_jacobian, config)
        full = np.zeros((n * j_total * k_total, n * j_total * k_total))
        for m in range(n):
            action_cols = slice((m * j_total + 1) * k_total, (m * j_total + 2) * k_total)
            full[:, action_cols] = rows[:, m * k_total:(m + 1) * k_total]
        dense = np.abs(np.linalg.eigvals(objects.annihilator @ full)).max()
        report = stability_report(theta, ccp, config)
        assert report.rho_npl_update == pytest.approx(dense, rel=1e-10, abs=1e-14)


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
