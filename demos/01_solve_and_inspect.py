"""Solve the benchmark entry/exit game and inspect its steady state.

Five heterogeneous firms compete in a market whose (log) size drifts over
five levels.  We solve the Markov perfect equilibrium for each benchmark
experiment and look at what the competition and entry-cost parameters do
to the long-run market structure.
"""

import numpy as np

from ctgames.experiments import EXPERIMENT_SETTINGS, experiment_spec, solve_spec
from ctgames.game import state_tables

print(__doc__)

for number in sorted(EXPERIMENT_SETTINGS):
    spec = experiment_spec(number, scale="paper")
    result, pi = solve_spec(spec)
    tables = state_tables(spec.config)
    avg_active = pi @ tables.activity.sum(axis=1)
    activity = pi @ tables.activity
    ec, rn = EXPERIMENT_SETTINGS[number]
    print(f"experiment {number} (entry cost {ec}, competition effect {rn}): "
          f"solved in {result.iterations} iterations, residual {result.residual:.1e}")
    print(f"  average active firms {avg_active:.3f}; "
          f"per-firm activity {np.round(activity, 3)}")

print("""
Notes: raising the competition effect (experiments 1 -> 3) thins the market
from ~3.7 to ~2.0 firms; raising the entry cost (4 -> 6) barely moves the
average but sorts it -- the low-cost firms stay in and the high-cost firms
stay out, which shows in the per-firm activity spread.
""")
