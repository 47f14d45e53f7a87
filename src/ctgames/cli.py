"""Command-line front end wiring configuration files to experiments.

Subcommands: solve | simulate | estimate | mc | diagnose | counterfactual.
Every command takes ``--config --experiment --scale --out`` and only the
other flags it reads (see `make_parser`); a flag its command does not read
is an argument error.  Every command is deterministic given its spec and
seed: re-running writes byte-identical artifacts.  Exit codes: 0 on
success, 2 on invalid arguments or configuration (including a game whose
state chain is not irreducible), 3 on any other package error (numeric
failure); stderr carries one JSON diagnostic line on error.
"""

import argparse
import csv
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .diagnostics import stability_sweep
from .equilibrium import LinearizedPolicy, value_function
from .errors import CTGamesError, InvalidArgumentError, NotIrreducibleError
from .estimate import INIT_METHODS, ctnpl, init_ccp
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
from .likelihood import sufficient_statistics
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


def _reject_constant(name):
    raise ValueError(f"{name} is not a finite number")


def load_spec_file(path):
    """Parse and schema-validate a JSON experiment file."""
    import jsonschema  # loaded only when a command reads a config file
    try:
        with open(path) as handle:
            raw = json.load(handle, parse_constant=_reject_constant)
    except OSError as err:
        raise InvalidArgumentError(f"cannot read config file {path}: {err.strerror}") from err
    except ValueError as err:
        raise InvalidArgumentError(f"config file {path} is not JSON: {err}") from err
    schema = json.loads(resources.files("ctgames.schemas")
                        .joinpath("experiment.schema.json").read_text())
    try:
        jsonschema.validate(raw, schema)
    except jsonschema.ValidationError as err:
        raise InvalidArgumentError(f"config file invalid: {err.message}") from err
    return raw


# the `ExperimentSpec` fields a config file or a flag may set
SPEC_KEYS = ("name", "sampling", "seed", "n_markets", "replications", "estimators",
             "ctnpl_stages", "ctnpl_init")


def build_spec(args):
    """Assemble an ExperimentSpec: a given flag beats the config file, which
    beats the preset."""
    raw = load_spec_file(args.config) if args.config else {}
    merged = {**raw, **{key: value for key, value in vars(args).items() if value is not None}}
    settings = {key: merged[key] for key in SPEC_KEYS if key in merged}
    if "game" in raw:  # the schema admits it only with a theta block
        game_raw = dict(raw["game"])
        game_raw["lam"] = game_raw.pop("lambda")
        config = GameConfig(**game_raw)
        theta = Theta(**raw["theta"])
        if len(theta.fc) != config.n_players:
            raise InvalidArgumentError("theta.fc length must equal n_players")
        return ExperimentSpec(theta_true=theta, config=config, **{"name": "custom", **settings})
    if "experiment" not in merged:
        raise InvalidArgumentError(
            "specify --experiment 1..6 or a config file with game and theta blocks")
    return experiment_spec(merged["experiment"], merged.get("scale", "paper"), **settings)


def cmd_solve(spec, out, args):
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
        _, left, right, _ = LinearizedPolicy(mpe.ccp, spec.config).jacobian_factors(
            spec.theta_true)
        print(f"single-agent zero-Jacobian diagnostic: "
              f"max |dBR/dccp| = {np.abs(left @ right).max():.3e}")
    return EXIT_OK


def cmd_simulate(spec, out, args):
    mpe, _ = solve_spec(spec)
    data = simulate_dataset(spec, mpe.ccp, spec.seed)
    if spec.sampling == "continuous":
        data.to_csv(out / "events.csv")
        print(f"wrote {data.n_events} events over {data.n_markets} markets")
    else:
        data.to_csv(out / "panel.csv")
        print(f"wrote {data.n_rows} observations over {data.n_markets} markets")
    return EXIT_OK


def _load_data(path, sampling):
    if sampling == "continuous":
        return EventLog.from_csv(path)
    return Panel.from_csv(path)


def _parameter_columns(config):
    """CSV column names of the parameter vector (fc_1..fc_N, rs, rn, ec)."""
    return ([f"theta_fc{i + 1}" for i in range(config.n_players)]
            + ["theta_rs", "theta_rn", "theta_ec"])


def cmd_estimate(spec, out, args):
    data = sufficient_statistics(_load_data(args.data, spec.sampling), spec.config)
    ccp_star = solve_spec(spec)[0].ccp if spec.ctnpl_init == "true" else None
    start = init_ccp(spec.ctnpl_init, data, spec.config, ccp_star=ccp_star, seed=spec.seed)
    result = ctnpl(data, spec.config, start, max_stages=spec.ctnpl_stages,
                   tol=spec.ctnpl_tol)

    vec = result.theta_hat.as_vector()
    row = {"experiment": spec.name, "init": spec.ctnpl_init, "stages": result.iterations,
           "converged": result.converged, "loglik": result.loglik}
    names = _parameter_columns(spec.config)
    row.update({name: vec[i] for i, name in enumerate(names)})
    write_csv(out / "estimate.csv", [row],
              ["experiment", "init", "stages", "converged", "loglik", *names])
    with open(out / "estimate_trace.json", "w") as handle:
        json.dump(result.trace, handle, indent=1)
    print(f"estimate ({spec.ctnpl_init} start): converged={result.converged} "
          f"after {result.iterations} stages, loglik {result.loglik:.6f}")
    return EXIT_OK


def cmd_mc(spec, out, args):
    mc = run_monte_carlo(spec, verbose=args.verbose)

    names = _parameter_columns(spec.config)
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


def cmd_diagnose(spec, out, args):
    try:
        grid = [float(x) for x in args.rn_grid.split(",")]
        if not np.isfinite(grid).all():
            raise ValueError
    except ValueError:
        raise InvalidArgumentError(
            f"--rn-grid must be a comma list of finite numbers, got {args.rn_grid!r}") from None
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


def cmd_counterfactual(spec, out, args):
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


class _Parser(argparse.ArgumentParser):
    """Raises `InvalidArgumentError` on an argument error, so that `main`
    prints it as one JSON line instead of the usage text."""

    def error(self, message):
        raise InvalidArgumentError(f"{self.prog}: {message}")


def make_parser():
    parser = _Parser(
        prog="ctgames", allow_abbrev=False,
        description="Solve, simulate, and estimate continuous-time entry/exit games.")
    flags = {
        "--config": dict(help="JSON experiment file (see shipped schema)"),
        "--experiment": dict(type=int, choices=range(1, 7), help="benchmark experiment preset"),
        "--scale": dict(choices=["paper", "desk"]),
        "--out": dict(default="out", help="output directory"),
        "--sampling": dict(choices=["continuous", "discrete"]),
        "--seed": dict(type=int),
        "--markets": dict(type=int, dest="n_markets", help="override market count"),
        "--replications": dict(type=int),
        "--estimators": dict(type=lambda text: tuple(name.strip() for name in text.split(",")),
                             help=f"comma list from {', '.join(ESTIMATOR_NAMES)}"),
        "--data": dict(required=True, help="events.csv or panel.csv"),
        "--init": dict(dest="ctnpl_init", choices=INIT_METHODS),
        "--stages": dict(type=int, dest="ctnpl_stages", help="outer stages (1 = two-step)"),
        "--verbose": dict(action="store_true"),
        "--rn-grid": dict(default="0,1,2,3,4,5"),
        "--fc-shift": dict(type=float, default=-0.2),
        "--draws": dict(type=int, default=50000),
        "--entry-cost": dict(action="store_true",
                             help="shift the entry cost instead of fixed costs"),
    }
    # each command's own flags, after --config --experiment --scale --out
    commands = [
        ("solve", cmd_solve, "compute the equilibrium and steady state", ""),
        ("simulate", cmd_simulate, "simulate one dataset from the equilibrium",
         "--sampling --seed --markets"),
        ("estimate", cmd_estimate, "estimate parameters from a dataset file",
         "--sampling --seed --data --init --stages"),
        ("mc", cmd_mc, "Monte Carlo estimator comparison",
         "--sampling --seed --markets --replications --estimators --verbose"),
        ("diagnose", cmd_diagnose, "stability sweep over the competition effect",
         "--rn-grid"),
        ("counterfactual", cmd_counterfactual, "cost-subsidy steady-state comparison",
         "--seed --fc-shift --draws --entry-cost"),
    ]
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, own in commands:
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in ["--config", "--experiment", "--scale", "--out", *own.split()]:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    try:
        args = make_parser().parse_args(argv)
        spec = build_spec(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with np.errstate(all="ignore"):  # keep NumPy's warnings off stderr: one line per error
            return args.func(spec, out, args)
    except CTGamesError as err:
        print(json.dumps({"error": type(err).__name__, "message": str(err)}),
              file=sys.stderr)
        if isinstance(err, (InvalidArgumentError, NotIrreducibleError)):
            return EXIT_CONFIG
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
