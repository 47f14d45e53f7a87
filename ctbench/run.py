"""ctgames benchmark: three workloads, end-to-end metrics or a layer trace.

Run from the root of a checkout:

    python3 ctbench/run.py --workload mc-discrete --seed 1 --seconds 40 --trace 0

The package is imported from the checkout's ``src/``, never from an installed
copy, so each commit measures its own code.  A run sets the workload up,
then runs whole passes (closed loop, one process, each call after the
previous one returns) while the next pass is expected to end within
``--seconds``; at least one pass always runs.  Outputs are checked after
each pass, outside the timed region.  With ``--trace 1`` the public
functions of every layer are wrapped and per-layer numbers are reported
instead of end-to-end ones.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The lines before it
give the run environment and each pass's operations and output digest; the
digest of a pass is the same with and without tracing.  The exit code is
0 when every operation and check passed, 1 when one failed, 2 when the
package cannot be found.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc-discrete", "events-pipeline", "stability-sweep")
# Set-up is measured in the run itself and in fresh processes, so the
# one-off cost of loading the libraries is in every sample.  Host speed
# shifts over tens of seconds, so half the fresh processes run before the
# passes and half after.
SETUP_PROBES_BEFORE = 2
SETUP_PROBES_AFTER = 2
PROBE_TIMEOUT_S = 120

# One BLAS thread: a plain single-threaded run, steadier on a shared host.
# Must be set before NumPy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "desk"), default="paper",
                        help="desk: the K=24 game, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def import_package():
    """Import ctgames from ROOT/src; exit 2 when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ctgames
    except ImportError as err:
        fail(f"cannot import ctgames from {src}: {err}")
    origin = Path(ctgames.__file__).resolve()
    if src.resolve() not in origin.parents:
        fail(f"ctgames was imported from {origin}, not from {src}")
    return ctgames


def fail(message):
    print(f"ctbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment(ctgames):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ctgames": str(Path(ctgames.__file__).resolve().parent.relative_to(ROOT)),
    }


def setup_probe(args):
    """Set-up time of one fresh process running this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale,
           "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(workload, seconds, tracer):
    """Whole passes while the next one is expected to end within ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        record = workload.run_pass(len(passes))
        if tracer is not None:
            tracer.active = False
        workload.check_pass(record)
        record.pending.clear()
        if tracer is not None:
            tracer.active = True
        passes.append(record)
        expected = statistics.median(p.seconds for p in passes)
        if time.perf_counter() - start + expected > seconds:
            return passes


def end_to_end(passes, setup_samples):
    # A pass whose data step failed has no fits; its data step stands in.
    op_means = [statistics.fmean([op.seconds for op in p.ops if op.kind != "data"]
                                 or [op.seconds for op in p.ops])
                for p in passes]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(p.seconds for p in passes), "s"),
        "op_s": (statistics.median(op_means), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    ctgames = import_package()
    import workloads
    from tracer import Tracer

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".ctbench-") as workdir:
        workload = workloads.make(args.workload, args.scale, args.seed, workdir)
        workload.setup()
        setup_s = time.perf_counter() - STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(json.dumps({"environment": environment(ctgames)}), flush=True)

        tracer = None
        setup_samples = [setup_s]
        if args.trace:
            tracer = Tracer()
            tracer.install()
        else:
            setup_samples += [setup_probe(args) for _ in range(SETUP_PROBES_BEFORE)]
        try:
            passes = run_passes(workload, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not args.trace:
            setup_samples += [setup_probe(args) for _ in range(SETUP_PROBES_AFTER)]
        workload.finish()

    for p in passes:
        print(json.dumps({"pass_s": p.seconds, "digest": p.digest(),
                          "ops": [[op.name, op.seconds] + ([op.note] if not op.ok else [])
                                  for op in p.ops]}))
    for message in workload.failures:
        print(json.dumps({"check_failed": message}))

    if tracer is None:
        metrics = end_to_end(passes, setup_samples)
    else:
        traced = [p.seconds for p in passes]
        metrics = tracer.metrics(len(passes), sum(traced))
        metrics.update(workload.layer_metrics(tracer))
        metrics["trace.wall_s"] = (statistics.fmean(traced), "s")
    failed = sum(not op.ok for p in passes for op in p.ops) + len(workload.failures)
    attempted = sum(len(p.ops) for p in passes) + workload.checks
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
