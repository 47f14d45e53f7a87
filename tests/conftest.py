import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import ctgames
from ctgames import GameConfig, Theta

# Property tests draw the same examples on every run and never time out, so
# tier-1 results repeat run to run; no example database is replayed.
settings.register_profile("ctgames", derandomize=True, deadline=None, database=None)
settings.load_profile("ctgames")

# Benchmark nature rate: the one-period up/down probability of the
# five-level demand matrix taken as the instantaneous rate.  This choice
# reproduces the published steady state of the benchmark game almost
# exactly.
BENCHMARK_Q = 0.2

# Paper-scale benchmark game: five heterogeneous firms, five demand levels.
BENCH_THETA = Theta(fc=(-1.9, -1.8, -1.7, -1.6, -1.5), rs=1.0, rn=0.0, ec=1.0)


def benchmark_config(**overrides):
    base = dict(n_players=5, market_levels=5, lam=1.0, rho=0.05,
                q_up=BENCHMARK_Q, q_down=BENCHMARK_Q, delta=1.0)
    base.update(overrides)
    return GameConfig(**base)


def desk_config(**overrides):
    """Small three-firm game (K=24) used where paper scale is overkill."""
    base = dict(n_players=3, market_levels=3, lam=1.0, rho=0.05,
                q_up=BENCHMARK_Q, q_down=BENCHMARK_Q, delta=1.0)
    base.update(overrides)
    return GameConfig(**base)


DESK_THETA = Theta(fc=(-1.9, -1.8, -1.7), rs=1.0, rn=1.0, ec=1.0)

# Schema-valid config files whose kernels overflow.  Nature's rates near the
# largest float overflow the value solve; a horizon near it makes delta Q
# infinite, so exp(delta Q) cannot be formed.
VALUE_OVERFLOW_GAME = {
    "game": {"n_players": 1, "market_levels": 2, "lambda": 1.0, "rho": 0.05,
             "q_up": 1e307, "q_down": 1e307, "delta": 1.0},
    "theta": {"fc": [-1.0], "rs": 1.0, "rn": 0.0, "ec": 1.0}}
EXP_OVERFLOW_GAME = {
    "game": {"n_players": 2, "market_levels": 2, "lambda": 1.0, "rho": 0.05,
             "q_up": 10.0, "q_down": 10.0, "delta": 1e308},
    "theta": {"fc": [-1.0, -1.1], "rs": 1.0, "rn": 1.0, "ec": 1.0}}


def game_from_config(config):
    """The `GameConfig` and `Theta` of a config file's game and theta blocks."""
    game = dict(config["game"])
    game["lam"] = game.pop("lambda")
    theta = dict(config["theta"], fc=tuple(config["theta"]["fc"]))
    return GameConfig(**game), Theta(**theta)


def run_fresh_python(code, *args, **kwargs):
    """Run ``code`` in a fresh interpreter that imports the ctgames under
    test, whether the checkout's or an installed copy; a nonzero exit raises."""
    package_parent = Path(ctgames.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(package_parent)}, **kwargs)


def random_generator(rng, k, scale=1.0):
    """Random valid intensity matrix with total exit rates of order ``scale``."""
    q = rng.uniform(size=(k, k)) * (2.0 * scale / k)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
