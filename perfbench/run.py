#!/usr/bin/env python3
"""End-to-end benchmark of the rainshine pipeline.

    python3 perfbench/run.py --workload study|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the perfbench package (and the
libraries it links, from this checkout's sources) into .bench_build, runs
the workload in its own process and prints, as the last line of stdout,
one JSON object with "correct", "attempted", "failed" and "metrics".

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 the workload runs twice, untraced and then traced, and the
metrics are the per-layer metrics of the traced run plus, for every
end-to-end metric, trace_overhead.<name> = traced - untraced value.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no rainshine sources under {ROOT / 'src'}; nothing to build")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(1)
    jobs = str(os.cpu_count() or 2)
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)
    return out / "perfbench"


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_once(binary, args, trace):
    """Runs the binary once; returns its parsed result line."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans = build_dir() / "traces" / f"{args.workload}-seed{args.seed}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        log(f"no result from {cmd}")
        sys.exit(1)
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def pick(values, names):
    """The named metrics, each with its declared unit; exits if one is missing."""
    out = {}
    for name, unit in names.items():
        if name not in values or values[name]["unit"] != unit:
            log(f"metric {name} [{unit}] missing or with another unit")
            sys.exit(1)
        out[name] = values[name]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["study", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    binary = build()
    e2e, layers = declared()
    untraced = run_once(binary, args, trace=False)
    runs = [untraced]
    if args.trace:
        traced = run_once(binary, args, trace=True)
        runs.append(traced)
        values = dict(traced["layers"])
        for name, unit in e2e.items():
            values[f"trace_overhead.{name}"] = {
                "value": traced["metrics"][name]["value"]
                - untraced["metrics"][name]["value"],
                "unit": unit}
        metrics = pick(values, layers)
    else:
        metrics = pick(untraced["metrics"], e2e)

    correct = all(r["correct"] and r["exit"] == 0 for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
