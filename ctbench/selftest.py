"""Desk-scale self-test of the benchmark: every workload shape at K=24.

    python3 ctbench/selftest.py

Runs each workload untraced and traced on the K=24 game, and asserts that
the run passes its output checks, that the printed metric names and units
are exactly the ones declared in BENCHMARK.json, that tracing leaves the
outputs bit-identical, and that the benchmark exits with an error and
prints no result in a directory without the package sources.  Prints the
tracing overhead of each workload.  Takes about half a minute.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "desk"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def parse(done):
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    return lines[-1], [line for line in lines if "digest" in line]


def check_declaration():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(SPEC)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert 2 <= len(SPEC["workloads"]) <= 8 and len(SPEC["per_layer"]) <= 128
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def check_workload(workload):
    results = {}
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = run(workload, trace)
        assert done.returncode == 0, (workload, trace, done.stdout[-2000:], done.stderr)
        result, passes = parse(done)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        wanted = {m["name"]: m["unit"] for m in declared}
        assert printed == wanted, (workload, trace,
                                   sorted(set(printed) ^ set(wanted)))
        values = [m["value"] for m in result["metrics"].values()]
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
        if trace == 0:
            assert all(v > 0 for v in values), result["metrics"]
        results[trace] = (result, passes)
    untraced, traced = results[0][1], results[1][1]
    assert untraced[0]["digest"] == traced[0]["digest"], \
        f"{workload}: tracing changed the outputs"
    overhead = (results[1][0]["metrics"]["trace.wall_s"]["value"]
                - results[0][0]["metrics"]["wall_s"]["value"])
    print(f"{workload}: ok, tracing overhead {overhead:+.3f} s per pass at K=24")


def check_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".ctbench-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    assert done.returncode == 2, ("ran without the package sources", done.returncode)
    assert '"correct"' not in done.stdout, "printed a result without the sources"
    print("without sources: exits", done.returncode, "and prints no result")


def main():
    check_declaration()
    for workload in SPEC["workloads"]:
        check_workload(workload["name"])
    check_without_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
