#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage (from the root of a checkout):  python3 perfbench/selftest.py

1. Runs every workload once untraced and prints each end-to-end metric
   by name with its unit, with the attempted and failed counts.
2. Runs closure, recheck and walk traced twice and requires identical
   per-layer counts (calls, evals, words/state, bytes/state and the
   reduction counters) between the two runs, plus
   reduce.fingerprint_calls = 0 on walk.  Prints each workload's
   tracing overhead.

Exits 1 on any failed operation, count mismatch or broken rule.
"""

import json
import subprocess
import sys

WORKLOADS = ["closure", "recheck", "walk", "mutator"]
DETERMINISTIC = ["closure", "recheck", "walk"]
EXACT_UNITS = {"count", "words/state", "B/state"}


def run(workload, trace, seed=1, seconds=1):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    problems = []
    print("%-8s %-12s %14s  %s" % ("workload", "metric", "value", "unit"))
    for w in WORKLOADS:
        r = run(w, 0)
        for name, m in r["metrics"].items():
            print("%-8s %-12s %14.6g  %s" % (w, name, m["value"], m["unit"]))
        print("%-8s attempted=%d failed=%d correct=%s" % (w, r["attempted"], r["failed"], r["correct"]))
        if r["failed"] or not r["correct"]:
            problems.append("%s: %d of %d operations failed" % (w, r["failed"], r["attempted"]))

    for w in DETERMINISTIC:
        a, b = run(w, 1), run(w, 1)
        for r in (a, b):
            if r["failed"] or not r["correct"]:
                problems.append("%s traced: %d of %d operations failed" % (w, r["failed"], r["attempted"]))
        exact = [n for n, m in a["metrics"].items() if m["unit"] in EXACT_UNITS]
        diff = [n for n in exact if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        for n in diff:
            problems.append("%s: %s differs between traced runs (%s vs %s)"
                            % (w, n, a["metrics"][n]["value"], b["metrics"][n]["value"]))
        print("%-8s %d exact counts compared, %d differ; tracing overhead %.3f s on %.3f s traced"
              % (w, len(exact), len(diff), a["metrics"]["trace.overhead_s"]["value"],
                 a["metrics"]["trace.result_s"]["value"]))
        if w == "walk" and a["metrics"]["reduce.fingerprint_calls"]["value"] != 0:
            problems.append("walk: reduce.fingerprint_calls is not 0")

    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "OK"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
