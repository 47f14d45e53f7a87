"""The three benchmark workloads, driven through the public ctgames API.

A workload is set up once (experiment preset and equilibrium solve), then
runs whole passes: one Monte Carlo replication for ``mc-discrete`` and
``events-pipeline``, one sweep over the criterion-6 grid for
``stability-sweep``.  A pass is made of timed operations: estimator fits,
sweep points, and the data steps before the fits.  Output checks run in
`check_pass` and `finish`, after every timed pass, so they are neither
timed nor traced.

Library calls go through module attributes (``experiments.run_estimators``
rather than a name imported here) so the layer tracer sees them.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ctgames import diagnostics, equilibrium, experiments, likelihood, simulate
from ctgames.errors import CTGamesError

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

# The equilibrium every workload starts from must be a fixed point to this.
RESIDUAL_TOL = 1e-10
# Recorded estimates must agree to 1000 x ctnpl's stopping tolerance: the
# rule bounds stage-to-stage moves, not the distance to the optimum, so an
# equally valid optimizer path (another gradient route) lands within it.
ESTIMATE_TOL = 1e3 * experiments.ExperimentSpec.ctnpl_tol
# Recorded spectral radii: the finite-difference Jacobians are accurate to
# about 1e-9, so an exact-derivative route must land within this.
RADIUS_TOL = 1e-6
# The snapshot log likelihood recomputed by uniformization, the package's
# independent route to exp(delta Q), must match the estimator's value.
LOGLIK_TOL = 1e-8
SWEEP_GRID = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)

# Size presets: "paper" is the benchmark, "desk" (K=24) the self-test.
SCALES = {
    "paper": {"markets": 4000, "event_markets": 2000, "events_per_market": 100,
              # CTNPL max |theta_hat - theta| allowed on 200k events.
              "theta_err_bound": 0.15},
    "desk": {"markets": 2000, "event_markets": 200, "events_per_market": 50,
             "theta_err_bound": 1.0},
}
EVENT_FIELDS = [f.name for f in fields(simulate.EventLog)]


def rep_seed(seed, index):
    """Seed of replication ``index`` in a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Op:
    kind: str          # "fit", "point" or "data"
    name: str
    seconds: float
    ok: bool = True
    note: str = ""


@dataclass
class Pass:
    seconds: float
    ops: list
    outputs: list = field(default_factory=list)   # values hashed by `digest`
    pending: dict = field(default_factory=dict)   # inputs of `check_pass`

    def digest(self):
        h = hashlib.sha256()
        for arr in self.outputs:
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        return h.hexdigest()[:16]


def _timed(kind, name, func, *args):
    start = time.perf_counter()
    try:
        result = func(*args)
    except CTGamesError as err:
        return Op(kind, name, time.perf_counter() - start, ok=False,
                  note=f"{type(err).__name__}: {err}"), None
    return Op(kind, name, time.perf_counter() - start), result


class Workload:
    """Set-up, checks and failure bookkeeping shared by the workloads."""

    experiment = 2
    sampling = "discrete"

    def __init__(self, scale, seed):
        self.scale = scale
        self.seed = seed
        self.sizes = SCALES[scale]
        self.checks = 0
        self.failures = []          # messages of failed run-level checks
        self.nested = []            # (stages, max |theta_hat - theta|) per CTNPL fit
        self.event_datasets = 0
        self.points = 0

    def setup(self, **overrides):
        self.spec = experiments.experiment_spec(self.experiment, scale=self.scale,
                                                sampling=self.sampling, **overrides)
        mpe, _ = experiments.solve_spec(self.spec)
        self.ccp_star = mpe.ccp

    def check(self, ok, message):
        """Count one run-level check; a failure counts as a failed operation."""
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def finish(self):
        """Run-level checks, after every pass."""
        theta, config = self.spec.theta_true, self.spec.config
        residual = float(np.abs(equilibrium.best_response_map(theta, self.ccp_star, config)
                                - self.ccp_star).max())
        self.check(residual < RESIDUAL_TOL,
                   f"equilibrium residual {residual:g} >= {RESIDUAL_TOL:g}")

    def check_pass(self, record):
        """Per-pass output checks; mark failing operations."""

    def layer_metrics(self, tracer):
        """Per-layer ratios that need the workload's counts; 0 where the
        workload does no such work."""
        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "likelihood.SpellStats.from_events.calls_per_dataset": (ratio(
                tracer.call_count("likelihood.SpellStats.from_events"),
                self.event_datasets), "count"),
            "estimate.evals_per_fit": (ratio(
                tracer.call_count("estimate.LinearizedPolicy.ccp"),
                tracer.call_count("estimate.ctnpl")), "count"),
            "estimate.ctnpl.stages": (ratio(sum(s for s, _ in self.nested),
                                            len(self.nested)), "count"),
            "estimate.theta_err_max": (max((e for _, e in self.nested), default=0.0), "1"),
            "diagnostics.br_maps_per_point": (ratio(
                tracer.call_count("equilibrium.best_response_map"), self.points), "count"),
        }


class _MonteCarlo(Workload):
    """One replication: a dataset, then all five estimators fit on it."""

    def _fits(self, data, seed, record):
        results = {}
        for name in experiments.ESTIMATOR_NAMES:
            single = replace(self.spec, estimators=(name,))
            op, out = _timed("fit", name, experiments.run_estimators,
                             single, data, self.ccp_star, seed)
            record.ops.append(op)
            if out is not None:
                results[name] = (op, out[name])
                record.outputs += [out[name].theta_hat.as_vector(), [out[name].loglik]]
        record.pending["fits"] = results

    def check_pass(self, record):
        truth = self.spec.theta_true.as_vector()
        for name, (op, result) in record.pending.get("fits", {}).items():
            if not np.isfinite(result.loglik):
                op.ok, op.note = False, f"non-finite log likelihood {result.loglik}"
            if name == "CTNPL":
                err = float(np.abs(result.theta_hat.as_vector() - truth).max())
                self.nested.append((result.iterations, err))


class McDiscrete(_MonteCarlo):
    """Experiment 2, snapshot data: one period of `sample_discrete` markets."""

    name = "mc-discrete"

    def setup(self):
        # The snapshot likelihood reads a K x K count matrix, so its cost
        # does not grow with the market count; at the paper's 400 markets
        # the sampling noise moves optimizer iterations, and so fit times,
        # by about 15% from one dataset to the next.
        super().setup(n_markets=self.sizes["markets"])

    def run_pass(self, index):
        seed = rep_seed(self.seed, index)
        record = Pass(0.0, [])
        start = time.perf_counter()
        op, panel = _timed("data", "sample_discrete", experiments.simulate_dataset,
                           self.spec, self.ccp_star, seed)
        record.ops.append(op)
        if panel is not None:
            self._fits(panel, seed, record)
        record.seconds = time.perf_counter() - start
        record.pending["panel"] = panel
        return record

    def check_pass(self, record):
        super().check_pass(record)
        panel, config = record.pending["panel"], self.spec.config
        if panel is None:
            return
        counts, n_markets = likelihood.transition_counts(panel, config.n_states)
        for op, result in record.pending["fits"].values():
            # The estimator scores transitions against expm; uniformization
            # at the same probabilities must give the same value.
            oracle = likelihood.discrete_loglik_from_counts(
                counts, n_markets, result.ccp_hat, config,
                pmatrix_method="uniformization")
            if abs(oracle - result.loglik) > LOGLIK_TOL * max(1.0, abs(oracle)):
                op.ok = False
                op.note = f"loglik {result.loglik!r} != uniformization {oracle!r}"

    def finish(self):
        super().finish()
        ref = REFERENCE["mc_reference"]
        spec = experiments.experiment_spec(2, scale=ref["scale"], sampling="discrete")
        mpe, _ = experiments.solve_spec(spec)
        panel = experiments.simulate_dataset(spec, mpe.ccp, ref["seed"])
        got = experiments.run_estimators(spec, panel, mpe.ccp, ref["seed"])
        for name, expected in ref["estimates"].items():
            gap = float(np.abs(got[name].theta_hat.as_vector() - expected).max())
            self.check(gap <= ESTIMATE_TOL,
                       f"reference {name} estimate off by {gap:g} > {ESTIMATE_TOL:g}")


class EventsPipeline(_MonteCarlo):
    """Experiment 2, event data: simulate, CSV round trip, describe, fit."""

    name = "events-pipeline"
    sampling = "continuous"

    def __init__(self, scale, seed, workdir):
        super().__init__(scale, seed)
        self.path = os.path.join(workdir, "events.csv")

    def run_pass(self, index):
        seed = rep_seed(self.seed, index)
        config, theta = self.spec.config, self.spec.theta_true
        record = Pass(0.0, [])
        start = time.perf_counter()
        op, events = _timed("data", "simulate", simulate.simulate_continuous,
                            theta, self.ccp_star, config, self.sizes["event_markets"],
                            seed, None, self.sizes["events_per_market"])
        record.ops.append(op)
        loaded = stats = None
        if events is not None:
            op, loaded = _timed("data", "csv_round_trip", self._round_trip, events)
            record.ops.append(op)
        if loaded is not None:
            op, stats = _timed("data", "describe", _describe, loaded, config)
            record.ops.append(op)
            self._fits(loaded, seed, record)
            self.event_datasets += 1
        record.seconds = time.perf_counter() - start
        record.pending.update(events=events, loaded=loaded, stats=stats)
        return record

    def _round_trip(self, events):
        events.to_csv(self.path)
        return simulate.EventLog.from_csv(self.path)

    def check_pass(self, record):
        super().check_pass(record)
        events, loaded, stats = (record.pending[k] for k in ("events", "loaded", "stats"))
        if loaded is None:
            return
        same = all(np.array_equal(getattr(events, f), getattr(loaded, f))
                   and getattr(events, f).dtype == getattr(loaded, f).dtype
                   for f in EVENT_FIELDS)
        self.check(same, "CSV round trip changed the event log")
        self.check(stats is not None and 0 <= stats["avg_active"] <= self.spec.config.n_players,
                   f"descriptive statistics out of range: {stats}")
        fits = record.pending["fits"]
        if "CTNPL" in fits:
            op, _ = fits["CTNPL"]
            err, bound = self.nested[-1][1], self.sizes["theta_err_bound"]
            if err > bound:
                op.ok, op.note = False, f"CTNPL |theta_hat - theta| {err:g} > {bound:g}"


def _describe(events, config):
    return simulate.descriptive_stats(simulate.to_panel(events, config), config)


class StabilitySweep(Workload):
    """Experiment 1, criterion-6 grid: one `stability_sweep` call per point."""

    name = "stability-sweep"
    experiment = 1

    def setup(self):
        super().setup()
        order = np.random.default_rng(self.seed).permutation(len(SWEEP_GRID))
        self.grid = [SWEEP_GRID[i] for i in order]
        self.rows = {}

    def run_pass(self, index):
        config, theta = self.spec.config, self.spec.theta_true
        record = Pass(0.0, [])
        rows = []
        start = time.perf_counter()
        for rn in self.grid:
            op, out = _timed("point", f"rn={rn:g}", diagnostics.stability_sweep,
                             config, theta, [rn])
            record.ops.append(op)
            rows.append((op, out[0] if out else None))
        record.seconds = time.perf_counter() - start
        self.points += len(rows)
        record.pending["rows"] = rows
        for _, row in sorted((r for r in rows if r[1]), key=lambda r: r[1]["rn"]):
            record.outputs.append([row["rn"], row.get("rho", np.nan),
                                   row.get("rho_br", np.nan)])
        return record

    def check_pass(self, record):
        recorded = REFERENCE["sweep"][self.scale]
        for op, row in record.pending["rows"]:
            if row is None:
                continue
            if "error" in row:
                op.ok, op.note = False, row["error"]
                continue
            self.rows[row["rn"]] = row
            want = recorded[f"{row['rn']:g}"]
            gap = max(abs(row["rho"] - want["rho"]), abs(row["rho_br"] - want["rho_br"]))
            if gap > RADIUS_TOL:
                op.ok, op.note = False, f"radii {gap:g} off the recorded values"

    def finish(self):
        super().finish()
        if self.scale != "paper" or len(self.rows) < len(SWEEP_GRID):
            return
        # Criterion-6 bands, stated for the paper-scale game.
        rho = [self.rows[rn]["rho"] for rn in SWEEP_GRID]
        self.check(rho[0] < 1e-4, f"rho at rn=0 is {rho[0]:g}, not below 1e-4")
        self.check(max(rho) < 1.0, f"a radius is not below 1: {rho}")
        self.check(0.3 <= rho[-1] <= 0.9, f"rho at rn=5 is {rho[-1]:g}, not in [0.3, 0.9]")



def make(name, scale, seed, workdir):
    """The workload called ``name``; ``workdir`` holds its scratch files."""
    if name == "mc-discrete":
        return McDiscrete(scale, seed)
    if name == "events-pipeline":
        return EventsPipeline(scale, seed, workdir)
    if name == "stability-sweep":
        return StabilitySweep(scale, seed)
    raise ValueError(f"unknown workload {name!r}")
