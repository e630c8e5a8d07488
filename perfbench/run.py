#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload closure|recheck|walk|mutator \
        --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from source with dune, runs it once in
its own process, checks that it reported exactly the metrics that
BENCHMARK.json declares (end_to_end for --trace 0, per_layer for
--trace 1), and passes its output through: the last line is the result
object {"correct", "attempted", "failed", "metrics"}.  Everything it
writes stays under the checkout (_build/ and .bench_out/).  A traced run
leaves its Chrome trace in .bench_out/trace-<workload>-seed<N>.json.

Exits 1 without printing a result when the program cannot be built or
run, e.g. in a directory that holds only the benchmark's own files.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT_DIR = ".bench_out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(env):
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("not at the root of a repository checkout (no dune-project or lib/)")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["closure", "recheck", "walk", "mutator"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    # keep dune's shared cache and every temporary file inside the checkout
    env["DUNE_CACHE"] = "disabled"
    build(env)
    expected = declared_metrics(args.trace)

    work_dir = os.path.join(OUT_DIR, "run-%d" % os.getpid())
    os.makedirs(os.path.join(work_dir, "tmp"), exist_ok=True)
    env["TMPDIR"] = os.path.abspath(os.path.join(work_dir, "tmp"))
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]
    if args.trace:
        cmd += ["--trace-out", os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("perfbench.exe exited with code %d" % proc.returncode)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result object on the last output line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result object has keys %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("reported metrics do not match BENCHMARK.json: %s" % sorted(set(got) ^ set(expected)))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
