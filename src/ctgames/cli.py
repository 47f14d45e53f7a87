"""Command-line front end wiring configuration files to experiments.

Subcommands: solve | simulate | estimate | mc | diagnose | counterfactual.
Every command is deterministic given its spec and seed: re-running writes
byte-identical artifacts.  Exit codes: 0 on success, 2 on invalid
configuration (including a game whose state chain is not irreducible), 3
on any other package error (numeric failure); stderr carries one JSON
diagnostic line on error.
"""

import argparse
import csv
import json
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from .diagnostics import best_response_jacobian, stability_sweep
from .equilibrium import value_function
from .errors import CTGamesError, InvalidArgumentError, NotIrreducibleError
from .estimate import ctnpl, init_ccp
from .experiments import (
    ESTIMATOR_NAMES,
    REPORTED_PARAMETER_NAMES,
    ExperimentSpec,
    counterfactual,
    experiment_spec,
    mc_rmse_rows,
    mc_summary_rows,
    run_monte_carlo,
    simulate_dataset,
    solve_spec,
)
from .game import GameConfig, Theta
from .simulate import EventLog, Panel

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC = 0, 2, 3


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return value


def write_csv(path, rows, fieldnames):
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k, "")) for k in fieldnames})


def markdown_table(rows, fieldnames, digits=4):
    def cell(value):
        if isinstance(value, float):
            return f"{value:.{digits}f}"
        return str(value)

    lines = ["| " + " | ".join(fieldnames) + " |",
             "| " + " | ".join("---" for _ in fieldnames) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(cell(row.get(k, "")) for k in fieldnames) + " |")
    return "\n".join(lines) + "\n"


def load_spec_file(path):
    """Parse and schema-validate a JSON experiment file."""
    with open(path) as handle:
        raw = json.load(handle)
    schema = json.loads(resources.files("ctgames.schemas")
                        .joinpath("experiment.schema.json").read_text())
    try:
        jsonschema.validate(raw, schema)
    except jsonschema.ValidationError as err:
        raise InvalidArgumentError(f"config file invalid: {err.message}") from err
    return raw


def build_spec(args):
    """Assemble an ExperimentSpec from a config file and/or CLI flags."""
    raw = load_spec_file(args.config) if args.config else {}
    scale = args.scale or raw.get("scale", "paper")
    sampling = args.sampling or raw.get("sampling", "discrete")
    seed = args.seed if args.seed is not None else raw.get("seed", 20230815)
    overrides = {}
    for key in ("n_markets", "replications", "ctnpl_stages", "ctnpl_init"):
        if key in raw:
            overrides[key] = raw[key]
    if args.markets is not None:
        overrides["n_markets"] = args.markets
    if args.replications is not None:
        overrides["replications"] = args.replications
    estimators = None
    if args.estimators:
        estimators = tuple(name.strip() for name in args.estimators.split(","))
    elif "estimators" in raw:
        estimators = tuple(raw["estimators"])
    if estimators is not None:
        overrides["estimators"] = estimators

    experiment = args.experiment if args.experiment is not None else raw.get("experiment")
    if "game" in raw and "theta" in raw:
        game_raw = dict(raw["game"])
        game_raw["lam"] = game_raw.pop("lambda")
        config = GameConfig(**game_raw)
        theta = Theta(**raw["theta"])
        if len(theta.fc) != config.n_players:
            raise InvalidArgumentError("theta.fc length must equal n_players")
        return ExperimentSpec(name=raw.get("name", "custom"), theta_true=theta,
                              config=config, sampling=sampling, seed=seed,
                              **overrides)
    if experiment is None:
        raise InvalidArgumentError(
            "specify --experiment 1..6 or a config file with game and theta blocks")
    return experiment_spec(experiment, scale=scale, sampling=sampling,
                           seed=seed, **overrides)


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve(args):
    spec = build_spec(args)
    out = _outdir(args)
    mpe, pi = solve_spec(spec)
    values = value_function(spec.theta_true, mpe.ccp, spec.config)

    n, j_total, k_total = (spec.config.n_players, spec.config.n_choices,
                           spec.config.n_states)
    ccp_rows = [{"player": i, "choice": j, "state": k, "prob": mpe.ccp[i, j, k]}
                for i in range(n) for j in range(j_total) for k in range(k_total)]
    write_csv(out / "ccp.csv", ccp_rows, ["player", "choice", "state", "prob"])
    value_rows = [{"player": i, "state": k, "value": values[i, k]}
                  for i in range(n) for k in range(k_total)]
    write_csv(out / "values.csv", value_rows, ["player", "state", "value"])
    write_csv(out / "stationary.csv",
              [{"state": k, "prob": pi[k]} for k in range(k_total)],
              ["state", "prob"])
    with open(out / "solve_trace.json", "w") as handle:
        json.dump({"iterations": mpe.iterations, "residual": mpe.residual,
                   "residual_trace": mpe.trace}, handle, indent=1)
    print(f"equilibrium solved in {mpe.iterations} iterations, "
          f"residual {mpe.residual:.3e}")
    if spec.config.n_players == 1:
        jac = best_response_jacobian(spec.theta_true, mpe.ccp, spec.config)
        print(f"single-agent zero-Jacobian diagnostic: "
              f"max |dBR/dccp| = {np.abs(jac).max():.3e}")
    return EXIT_OK


def cmd_simulate(args):
    spec = build_spec(args)
    out = _outdir(args)
    mpe, _ = solve_spec(spec)
    data = simulate_dataset(spec, mpe.ccp, spec.seed)
    if spec.sampling == "continuous":
        data.to_csv(out / "events.csv")
        print(f"wrote {data.n_events} events over {data.n_markets} markets")
    else:
        data.to_csv(out / "panel.csv")
        print(f"wrote {data.n_rows} observations over "
              f"{len(np.unique(data.market_id))} markets")
    return EXIT_OK


def _load_data(path, sampling):
    if sampling == "continuous":
        return EventLog.from_csv(path)
    return Panel.from_csv(path)


def cmd_estimate(args):
    spec = build_spec(args)
    out = _outdir(args)
    data = _load_data(args.data, spec.sampling)
    if args.init == "true":
        mpe, _ = solve_spec(spec)
        start = init_ccp("true", None, spec.config, ccp_star=mpe.ccp)
    else:
        start = init_ccp(args.init, data, spec.config, seed=spec.seed)
    stages = args.stages if args.stages is not None else spec.ctnpl_stages
    result = ctnpl(data, spec.config, start, max_stages=stages, tol=spec.ctnpl_tol)

    vec = result.theta_hat.as_vector()
    row = {"experiment": spec.name, "init": args.init, "stages": result.iterations,
           "converged": result.converged, "loglik": result.loglik}
    names = ([f"theta_fc{i + 1}" for i in range(spec.config.n_players)]
             + ["theta_rs", "theta_rn", "theta_ec"])
    row.update({name: vec[i] for i, name in enumerate(names)})
    write_csv(out / "estimate.csv", [row],
              ["experiment", "init", "stages", "converged", "loglik", *names])
    with open(out / "estimate_trace.json", "w") as handle:
        json.dump(result.trace, handle, indent=1)
    print(f"estimate ({args.init} start): converged={result.converged} "
          f"after {result.iterations} stages, loglik {result.loglik:.6f}")
    return EXIT_OK


def cmd_mc(args):
    spec = build_spec(args)
    out = _outdir(args)
    mc = run_monte_carlo(spec, verbose=args.verbose)

    names = ([f"theta_fc{i + 1}" for i in range(spec.config.n_players)]
             + ["theta_rs", "theta_rn", "theta_ec"])
    raw_rows = []
    for estimator, arr in mc.estimates.items():
        for rep, vec in zip(mc.replication_ids[estimator], arr):
            row = {"replication": rep, "estimator": estimator}
            row.update({name: vec[i] for i, name in enumerate(names)})
            raw_rows.append(row)
    write_csv(out / "mc_raw.csv", raw_rows, ["replication", "estimator", *names])

    summary_rows = mc_summary_rows(mc)
    summary_fields = ["estimator"]
    for name in REPORTED_PARAMETER_NAMES:
        summary_fields += [name, name + "_sd"]
    write_csv(out / "mc_means.csv", summary_rows, summary_fields)
    (out / "mc_means.md").write_text(markdown_table(summary_rows, summary_fields))

    if "2S-True" in mc.estimates and len(mc.estimates) > 1:
        rmse_rows = mc_rmse_rows(mc)
        rmse_fields = ["estimator", *REPORTED_PARAMETER_NAMES]
        write_csv(out / "mc_rmse.csv", rmse_rows, rmse_fields)
        (out / "mc_rmse.md").write_text(markdown_table(rmse_rows, rmse_fields))

    if mc.failures:
        write_csv(out / "mc_failures.csv",
                  [{"replication": rep, "estimator": est, "message": msg}
                   for rep, est, msg in mc.failures],
                  ["replication", "estimator", "message"])
        print(f"warning: {len(mc.failures)} replication failures recorded",
              file=sys.stderr)
    print(f"monte carlo complete: {spec.replications} replications, "
          f"{len(mc.failures)} failures")
    return EXIT_OK


def cmd_diagnose(args):
    spec = build_spec(args)
    out = _outdir(args)
    grid = [float(x) for x in args.rn_grid.split(",")]
    rows = stability_sweep(spec.config, spec.theta_true, grid)
    fields = ["rn", "rho", "rho_br", "avg_active", "iterations", "error"]
    write_csv(out / "stability_sweep.csv", rows, fields)
    for row in rows:
        if "error" in row:
            print(f"rn={row['rn']}: FAILED ({row['error']})")
        else:
            print(f"rn={row['rn']}: npl radius {row['rho']:.4f} "
                  f"(best-response {row['rho_br']:.4f}), "
                  f"avg active {row['avg_active']:.3f}")
    return EXIT_OK


def cmd_counterfactual(args):
    spec = build_spec(args)
    out = _outdir(args)
    result = counterfactual(spec, fc_shift=args.fc_shift, n_draws=args.draws,
                            seed=spec.seed, shift_entry_cost=args.entry_cost)
    fields = ["experiment", "fc_shift", "before_mean", "before_sd",
              "after_mean", "after_sd", "pct_change", "degenerate"]
    write_csv(out / "counterfactual.csv", [result], fields)
    (out / "counterfactual.md").write_text(markdown_table([result], fields))
    if result["degenerate"]:
        print("policy maps to a zero shift (entry cost is zero); no counterfactual")
    else:
        print(f"active firms {result['before_mean']:.3f} -> "
              f"{result['after_mean']:.3f} ({result['pct_change']:+.1f}%)")
    return EXIT_OK


def make_parser():
    parser = argparse.ArgumentParser(
        prog="ctgames",
        description="Solve, simulate, and estimate continuous-time entry/exit games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment file (see shipped schema)")
        p.add_argument("--experiment", type=int, choices=range(1, 7),
                       help="benchmark experiment preset")
        p.add_argument("--scale", choices=["paper", "desk"])
        p.add_argument("--sampling", choices=["continuous", "discrete"])
        p.add_argument("--seed", type=int)
        p.add_argument("--markets", type=int, help="override market count")
        p.add_argument("--replications", type=int)
        p.add_argument("--estimators",
                       help=f"comma list from {', '.join(ESTIMATOR_NAMES)}")
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("solve", help="compute the equilibrium and steady state")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="simulate one dataset from the equilibrium")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate parameters from a dataset file")
    common(p)
    p.add_argument("--data", required=True, help="events.csv or panel.csv")
    p.add_argument("--init", default="frequency",
                   choices=["frequency", "logit", "random", "true"])
    p.add_argument("--stages", type=int, help="outer stages (1 = two-step)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("mc", help="Monte Carlo estimator comparison")
    common(p)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("diagnose", help="stability sweep over the competition effect")
    common(p)
    p.add_argument("--rn-grid", default="0,1,2,3,4,5")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("counterfactual", help="cost-subsidy steady-state comparison")
    common(p)
    p.add_argument("--fc-shift", type=float, default=-0.2)
    p.add_argument("--draws", type=int, default=50000)
    p.add_argument("--entry-cost", action="store_true",
                   help="shift the entry cost instead of fixed costs")
    p.set_defaults(func=cmd_counterfactual)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except CTGamesError as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)}),
              file=sys.stderr)
        if isinstance(err, (InvalidArgumentError, NotIrreducibleError)):
            return EXIT_CONFIG
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
