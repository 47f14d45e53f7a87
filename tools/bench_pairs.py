"""Run the benchmark in alternating pairs of a base revision and this checkout.

    python3 tools/bench_pairs.py --base HEAD --first-seed 41 --out BENCH_<n>.json

The committed files of ``--base`` are exported with ``git archive`` into a
temporary directory, and ``ctbench/run.py`` runs unchanged there and in
this checkout (its working tree, uncommitted edits included).  Every
workload that ``BENCHMARK.json`` declares runs ten pairs at its
``run_seconds``, so every file covers the same runs as a claim needs.  Pair
i uses seed ``first-seed + i`` on both sides and runs the base first when
i is even, the checkout first when it is odd, so neither side always meets
the host in the same state.  Each workload's pairs run back to back.  A
base that is the checkout itself (``HEAD`` with no uncommitted edits) is
refused, since it would compare a tree with itself.

The output file holds, for each workload and each end-to-end metric that
``BENCHMARK.json`` declares, every run of each side, its median and
quartiles, and how many pairs the checkout won (ties count for neither
side).  It also keeps each run's correctness and failure counts and the
environment line of run.py (``nproc``, BLAS library and threads, versions).
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
PAIRS = 10


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    return parser.parse_args(argv)


def git(*cmd):
    return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev, directory):
    """Write the committed files of ``rev`` into ``directory``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)


def run_once(spec, root, workload, seed):
    """The result and environment lines of one run of the benchmark in ``root``."""
    seconds = spec["run_seconds"]
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode not in (0, 1) or not lines or "metrics" not in lines[-1]:
        raise RuntimeError(f"{cmd} in {root} exited {done.returncode}: {done.stderr[-2000:]}")
    environment = next(line["environment"] for line in lines if "environment" in line)
    return lines[-1], environment


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def workload_report(spec, runs):
    """Per-metric runs, medians, quartiles and pair wins of one workload;
    ``runs`` holds one dict per pair: its seed, the side run first, and
    each side's result line."""
    metrics = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in SIDES}
        wins = sum(sign * (b - c) > 0 for b, c in zip(values["base"], values["change"]))
        metrics[name] = {"unit": metric["unit"], "better": metric["better"],
                         **{side: summary(values[side]) for side in SIDES},
                         "change_wins": wins, "pairs": len(runs)}
    return {"metrics": metrics,
            "runs": [{"seed": r["seed"], "first": r["first"],
                      **{side: {key: r[side][key] for key in ("correct", "attempted", "failed")}
                         for side in SIDES}} for r in runs]}


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv)
    report = {"base": git("rev-parse", args.base), "change": git("rev-parse", "HEAD"),
              "change_has_uncommitted_edits": bool(git("status", "--porcelain")),
              "seconds": spec["run_seconds"],
              "seeds": [args.first_seed + i for i in range(PAIRS)],
              "environment": {}, "workloads": {}}
    if report["base"] == report["change"] and not report["change_has_uncommitted_edits"]:
        sys.exit(f"--base {args.base} is this checkout with no edits; nothing to compare")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as base_root:
        export(args.base, base_root)
        roots = {"base": base_root, "change": ROOT}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for i, seed in enumerate(report["seeds"]):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side], report["environment"][side] = run_once(
                        spec, roots[side], workload, seed)
                    op_s = run[side]["metrics"]["op_s"]["value"]
                    print(f"{workload} seed {seed} {side}: op_s {op_s:.4g}", file=sys.stderr)
                runs.append(run)
            report["workloads"][workload] = workload_report(spec, runs)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
