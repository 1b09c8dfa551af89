#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Builds the benchmark, runs every workload untraced and traced at tiny
sizes, and checks that:
  * every end-to-end and per-layer metric prints, with its unit;
  * the derived self times (serve.queue_us, net.self_us) are non-negative;
  * the traced layer self times cover study_s and warn_s to within 3%;
  * a deliberately corrupted /score response fails the serve gate;
  * the command fails, printing no result, where only BENCHMARK.json and
    the benchmark's own files exist.
Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build and metric list)

WORKLOADS = ["study", "serve"]
failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny(binary, workload, trace, *extra):
    cmd = [str(binary), "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", "1" if trace else "0", "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def has_all(values, names):
    return all(n in values and values[n]["unit"] == u for n, u in names.items())


def main():
    binary = run.build()
    e2e, layers = run.declared()
    own_layers = {n: u for n, u in layers.items()
                  if not n.startswith("trace_overhead.")}
    expect(set(layers) - set(own_layers) ==
           {f"trace_overhead.{n}" for n in e2e},
           "a trace_overhead metric is declared for every end-to-end metric")

    for w in WORKLOADS:
        code, r = tiny(binary, w, trace=False)
        expect(code == 0 and r["correct"] and r["failed"] == 0,
               f"{w}: untraced run is correct with no failed operation")
        expect(has_all(r["metrics"], e2e), f"{w}: every end-to-end metric, with its unit")
        expect(all(v["value"] > 0 for v in r["metrics"].values()),
               f"{w}: no end-to-end metric reads 0")

        code, r = tiny(binary, w, trace=True)
        values = r["layers"]
        expect(code == 0 and r["correct"], f"{w}: traced run is correct")
        expect(has_all(values, own_layers), f"{w}: every per-layer metric, with its unit")
        for name in ("serve.queue_us", "net.self_us"):
            expect(values[name]["value"] >= 0, f"{w}: {name} is non-negative")
        for name in ("trace.study_cover", "trace.warn_cover"):
            expect(0.97 <= values[name]["value"] <= 1.0,
                   f"{w}: {name} = {values[name]['value']:.4f} within 3% of 1")

    code, r = tiny(binary, "serve", False, "--corrupt-response")
    expect(code != 0 and not r["correct"], "serve: a corrupted response fails the gate")

    bare = run.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=170, env={"PATH": "/usr/bin:/bin"})
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the sources the command fails and prints no result")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
