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
    GameConfig,
    Theta,
    decode_state,
    encode_state,
    instant_payoffs,
    nature_generator,
    state_tables,
)
from .markov import (
    expm,
    stationary_distribution,
    transition_matrix,
    uniformization_matrix,
)
from .equilibrium import (
    LinearizedPolicy,
    aggregate_generator,
    best_response,
    best_response_map,
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
    SpellStats,
    TransitionCounts,
    loglik_discrete,
    sufficient_statistics,
)
from .estimate import (
    EstimationResult,
    ctnpl,
    init_ccp,
    rmse_relative,
)
from .diagnostics import (
    StabilityReport,
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
