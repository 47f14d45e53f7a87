"""Benchmark experiment presets, Monte Carlo driver, and counterfactuals.

The six benchmark experiments share the heterogeneous fixed costs
(-1.9, ..., -1.5 at paper scale) and a unit demand effect, varying the
entry cost and the competition effect.  Paper scale is the five-firm,
five-level game (K=160) with 400 markets and 100 replications; desk scale
is a three-firm, three-level game (K=24) with 200 markets and 25
replications, sized for laptops and CI.

Monte Carlo runs use a paired design: within a replication every estimator
sees the same simulated dataset, and replication seeds are
``master seed + replication index``.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .equilibrium import aggregate_generator, solve_mpe
from .errors import CTGamesError, InvalidArgumentError, NumericalError
from .estimate import INIT_METHODS, EstimationResult, ctnpl, init_ccp, rmse_relative
from .game import GameConfig, Theta, state_tables
from .likelihood import sufficient_statistics
from .markov import stationary_distribution
from .simulate import sample_discrete, simulate_continuous

ESTIMATOR_NAMES = ("2S-True", "2S-Freq", "2S-Logit", "2S-Random", "CTNPL")

# (entry cost, competition effect) per benchmark experiment.
EXPERIMENT_SETTINGS = {
    1: (1.0, 0.0),
    2: (1.0, 1.0),
    3: (1.0, 2.0),
    4: (0.0, 1.0),
    5: (2.0, 1.0),
    6: (4.0, 1.0),
}

# Demand up/down rate reproducing the benchmark one-period demand matrix at
# first order (the published steady-state table confirms this calibration).
BENCHMARK_NATURE_RATE = 0.2

# (firms, demand levels, markets, replications) per scale; a scale with
# fewer than five firms takes the first fixed costs.
SCALES = {"paper": (5, 5, 400, 100), "desk": (3, 3, 200, 25)}
BENCHMARK_FC = (-1.9, -1.8, -1.7, -1.6, -1.5)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to run one experiment end to end; ``ctnpl_tol`` is a constant."""

    name: str
    theta_true: Theta
    config: GameConfig
    sampling: str = "discrete"
    n_markets: int = 400
    replications: int = 100
    estimators: tuple = ESTIMATOR_NAMES
    seed: int = 20230815
    ctnpl_stages: int = 20
    ctnpl_init: str = "frequency"
    ctnpl_tol = 1e-6  # every fit's stopping tolerance: a class attribute, not a field

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.sampling not in ("continuous", "discrete"):
            raise InvalidArgumentError(f"unknown sampling scheme: {self.sampling!r}")
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown:
            raise InvalidArgumentError(f"unknown estimators: {sorted(unknown)}")
        if self.ctnpl_init not in INIT_METHODS:
            raise InvalidArgumentError(f"unknown CTNPL start: {self.ctnpl_init!r}")
        if self.seed < 0:
            raise InvalidArgumentError(f"seed must be >= 0, got {self.seed}")
        if self.n_markets < 1 or self.replications < 1:
            raise InvalidArgumentError("n_markets and replications must be >= 1")
        if not 1 <= self.ctnpl_stages <= 100:
            raise InvalidArgumentError("ctnpl_stages must be between 1 and 100")


def experiment_spec(experiment, scale="paper", **overrides):
    """Benchmark preset: experiment number 1-6 at paper or desk scale;
    ``overrides`` set any `ExperimentSpec` field but the game and theta."""
    if experiment not in EXPERIMENT_SETTINGS:
        raise InvalidArgumentError(f"experiment must be 1..6, got {experiment}")
    if scale not in SCALES:
        raise InvalidArgumentError(f"scale must be 'paper' or 'desk', got {scale!r}")
    ec, rn = EXPERIMENT_SETTINGS[experiment]
    firms, levels, markets, replications = SCALES[scale]
    config = GameConfig(n_players=firms, market_levels=levels, lam=1.0, rho=0.05,
                        q_up=BENCHMARK_NATURE_RATE, q_down=BENCHMARK_NATURE_RATE, delta=1.0)
    theta = Theta(fc=BENCHMARK_FC[:firms], rs=1.0, rn=rn, ec=ec)
    return ExperimentSpec(theta_true=theta, config=config, **{
        "name": f"exp{experiment}-{scale}", "n_markets": markets,
        "replications": replications, **overrides})


def solve_spec(spec):
    """Solve the experiment's equilibrium; returns (mpe result, stationary pi)."""
    mpe = solve_mpe(spec.theta_true, spec.config)
    pi = stationary_distribution(aggregate_generator(mpe.ccp, spec.config))
    return mpe, pi


def simulate_dataset(spec, ccp_star, rep_seed):
    """One replication's dataset under the spec's sampling scheme."""
    if spec.sampling == "continuous":
        return simulate_continuous(spec.theta_true, ccp_star, spec.config,
                                   spec.n_markets, seed=rep_seed,
                                   events_per_market=1)
    return sample_discrete(spec.theta_true, ccp_star, spec.config,
                           spec.n_markets, periods=1, seed=rep_seed)


def fit_estimators(spec, data, ccp_star, rep_seed):
    """Fit every estimator named in the spec on one dataset, reduced once to
    its statistic: {name: EstimationResult, or the `CTGamesError` that ended
    the fit}, in the spec's order.  Two-step estimators are single-stage
    runs from their initializer.  CTNPL runs first, up to ``spec.ctnpl_stages``
    stages from ``spec.ctnpl_init``; its stage 1 is the two-step estimate
    from that start (a random start's seed differs), refitted only if CTNPL
    fails."""
    data = sufficient_statistics(data, spec.config)
    # (init method, stages, seed of a random start) per estimator
    plans = {"2S-True": ("true", 1, None), "2S-Freq": ("frequency", 1, None),
             "2S-Logit": ("logit", 1, None), "2S-Random": ("random", 1, rep_seed + 101),
             "CTNPL": (spec.ctnpl_init, spec.ctnpl_stages, rep_seed + 103)}
    fits = {}
    for name in sorted(spec.estimators, key=lambda name: name != "CTNPL"):
        method, stages, seed = plans[name]
        nested = fits.get("CTNPL")
        try:
            if method == spec.ctnpl_init != "random" and isinstance(nested, EstimationResult):
                fits[name] = nested.first_stage
            else:
                start = init_ccp(method, data, spec.config, ccp_star=ccp_star, seed=seed)
                fits[name] = ctnpl(data, spec.config, start, max_stages=stages, tol=spec.ctnpl_tol)
        except CTGamesError as err:
            fits[name] = err
    return {name: fits[name] for name in spec.estimators}


def run_estimators(spec, data, ccp_star, rep_seed):
    """{name: EstimationResult} from `fit_estimators`; raises the first failed fit's error."""
    fits = fit_estimators(spec, data, ccp_star, rep_seed)
    for result in fits.values():
        if isinstance(result, CTGamesError):
            raise result
    return fits


@dataclass
class McResults:
    """Replication-level estimates plus failure records."""

    spec: ExperimentSpec
    estimates: dict           # name -> (R_ok, P) array
    replication_ids: dict     # name -> list of replication indices kept
    failures: list = field(default_factory=list)  # (replication, name, message)


def run_monte_carlo(spec, ccp_star=None, verbose=False):
    """Simulate-and-estimate replications under a paired design.

    Each replication is fitted by one `fit_estimators` call.  A failed fit
    is recorded in ``failures`` and drops the replication for that
    estimator only (never silently).  At least two replications are needed
    for the standard deviations.
    """
    if spec.replications < 2:
        raise InvalidArgumentError("a Monte Carlo run needs >= 2 replications")
    if ccp_star is None:
        mpe, _ = solve_spec(spec)
        ccp_star = mpe.ccp
    kept = {name: [] for name in spec.estimators}
    ids = {name: [] for name in spec.estimators}
    failures = []
    for rep in range(spec.replications):
        rep_seed = spec.seed + rep
        data = simulate_dataset(spec, ccp_star, rep_seed)
        for name, result in fit_estimators(spec, data, ccp_star, rep_seed).items():
            if isinstance(result, CTGamesError):
                failures.append((rep, name, str(result)))
            else:
                kept[name].append(result.theta_hat.as_vector())
                ids[name].append(rep)
        if verbose:
            print(f"replication {rep + 1}/{spec.replications} done")
    estimates = {name: np.array(rows) for name, rows in kept.items() if rows}
    return McResults(spec=spec, estimates=estimates, replication_ids=ids,
                     failures=failures)


def parameter_columns(config):
    """CSV column names of the parameter vector (fc_1..fc_N, rs, rn, ec)."""
    return ([f"theta_fc{i + 1}" for i in range(config.n_players)]
            + ["theta_rs", "theta_rn", "theta_ec"])


REPORTED_PARAMETER_NAMES = ("theta_fc1", "theta_rs", "theta_ec", "theta_rn")


def _headline_rows(mc, vectors):
    """One row per entry of ``vectors``, {row name: {suffix: (P,) array}}: the
    name, then each array's headline entries under their names plus its suffix."""
    at = [parameter_columns(mc.spec.config).index(label) for label in REPORTED_PARAMETER_NAMES]
    return [{"estimator": name, **{label + suffix: vec[i] for suffix, vec in by_suffix.items()
                                   for label, i in zip(REPORTED_PARAMETER_NAMES, at)}}
            for name, by_suffix in vectors.items()]


def _reported(mc):
    """The estimates of the estimators that kept the two replications a
    standard deviation needs."""
    return {name: arr for name, arr in mc.estimates.items() if len(arr) >= 2}


def mc_summary_rows(mc):
    """The true values, then one row per reported estimator with the headline
    means and sds."""
    truth = mc.spec.theta_true.as_vector()
    vectors = {"True values": {"": truth, "_sd": np.zeros_like(truth)}}
    for name, arr in _reported(mc).items():
        vectors[name] = {"": arr.mean(axis=0), "_sd": arr.std(axis=0, ddof=1)}
    return _headline_rows(mc, vectors)


def mc_rmse_rows(mc):
    """Relative RMSE rows of the other reported estimators against 2S-True;
    none when 2S-True is not reported.  A ratio that is not a finite number,
    where 2S-True's RMSE is zero, is left empty."""
    reported = _reported(mc)
    if "2S-True" not in reported:
        return []
    ratios = rmse_relative(reported, "2S-True", mc.spec.theta_true)
    return _headline_rows(mc, {name: {"": [r if np.isfinite(r) else "" for r in ratio]}
                               for name, ratio in ratios.items() if name != "2S-True"})


def counterfactual(spec, fc_shift=-0.2, n_draws=50000, seed=0,
                   shift_entry_cost=False):
    """Steady-state impact of a cost subsidy.

    ``fc_shift`` is the policy change in units of the experiment's entry
    cost (the benchmark narrative prices the entry cost at $1M, so -0.2
    is a $200K subsidy): fixed costs change by ``fc_shift * ec`` in flow
    units.  With ``shift_entry_cost=True`` the entry cost itself moves by
    ``fc_shift`` instead.  Both equilibria are re-solved and ``n_draws``
    states are drawn from each steady state.

    Returns a dict with before/after means and sds of the active-firm
    count and the percentage change; a policy that maps to a zero shift
    (entry cost zero) is flagged ``degenerate`` and reports no change.
    At least two draws are needed for the standard deviations, and a
    baseline with no active firm in any draw raises `NumericalError`.
    """
    if n_draws < 2:
        raise InvalidArgumentError(f"n_draws must be >= 2, got {n_draws}")
    theta = spec.theta_true
    config = spec.config
    tables = state_tables(config)
    n_active = tables.activity.sum(axis=1)
    rng = np.random.default_rng(seed)

    def steady_draws(theta_at):
        _, pi = solve_spec(replace(spec, theta_true=theta_at))
        states = rng.choice(config.n_states, size=n_draws, p=pi)
        counts = n_active[states]
        return float(counts.mean()), float(counts.std(ddof=1))

    before_mean, before_sd = steady_draws(theta)
    out = {"experiment": spec.name, "fc_shift": fc_shift,
           "before_mean": before_mean, "before_sd": before_sd}

    if shift_entry_cost:
        shifted = replace(theta, ec=theta.ec + fc_shift)
        effective = fc_shift
    else:
        effective = fc_shift * theta.ec
        shifted = replace(theta, fc=tuple(f - effective for f in theta.fc))
    if abs(effective) < 1e-12:
        out.update({"degenerate": True, "after_mean": float("nan"),
                    "after_sd": float("nan"), "pct_change": float("nan")})
        return out

    if before_mean == 0.0:
        raise NumericalError(
            "no firm is active in the baseline draws; the percentage change is undefined")
    after_mean, after_sd = steady_draws(shifted)
    out.update({"degenerate": False, "after_mean": after_mean,
                "after_sd": after_sd,
                "pct_change": 100.0 * (after_mean - before_mean) / before_mean})
    return out
