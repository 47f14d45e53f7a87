"""Continuous-time dynamic discrete games: equilibria, simulation, estimation.

The package solves Markov perfect equilibria of an N-firm entry/exit game
whose state follows a finite Markov jump process, simulates event-level and
snapshot data from the solved game, and estimates payoff parameters by
nested pseudo likelihood with either sampling scheme.
"""

from .errors import (
    CTGamesError,
    ConvergenceError,
    InvalidArgumentError,
    NotIrreducibleError,
    NumericalError,
    OptimizationError,
)
from .game import (
    BENCHMARK_DEMAND_MATRIX,
    GameConfig,
    Theta,
    calibrate_nature_rates,
    continuation_state,
    decode_state,
    encode_state,
    flow_payoff,
    flow_payoffs,
    instant_payoff,
    instant_payoffs,
    nature_generator,
    state_tables,
)
from .markov import (
    expm,
    stationary_distribution,
    transition_matrix,
    uniformization_matrix,
    uniformization_probability,
)
from .equilibrium import (
    aggregate_generator,
    best_response,
    best_response_map,
    expected_instant_payoff,
    expected_instant_payoffs,
    solve_mpe,
    uniform_ccp,
    value_function,
)
from .simulate import (
    EventLog,
    Panel,
    descriptive_stats,
    sample_discrete,
    simulate_continuous,
    to_panel,
)
from .likelihood import (
    HazardProfile,
    SpellStats,
    hazard_profile,
    loglik_continuous,
    loglik_continuous_parts,
    loglik_discrete,
)
from .estimate import (
    EstimationResult,
    LinearizedPolicy,
    ctnpl,
    init_ccp,
    maximize_pseudo_likelihood,
    rmse_relative,
)
from .diagnostics import (
    StabilityReport,
    best_response_jacobian,
    spectral_radius,
    stability_objects,
    stability_report,
    stability_sweep,
)
from .experiments import (
    ExperimentSpec,
    counterfactual,
    experiment_spec,
    run_monte_carlo,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
