#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/selftest.py

Checks three things, building the runner first if needed:

1. Every workload runs at a tiny size on the default and the held-out
   seed, untraced and traced, and passes its oracle gate.
2. Every metric printed carries the unit BENCHMARK.json lists for it,
   every metric BENCHMARK.json lists is printed, and GLOSSARY.md
   defines each one.
3. One deliberately corrupted answer trips the oracle gate: the run
   reports "correct": false and exits non-zero.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
WORKLOADS = ("paper_cold", "watchlist_mix", "live_ingest")

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL " + message)


def run(args):
    """Runs run.py at the tiny size; returns (exit code, stdout lines)."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--tiny"] + args
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            timeout=900, check=False)
    return result.returncode, result.stdout.rstrip("\n").split("\n")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "GLOSSARY.md")) as f:
        glossary = f.read()
    listed = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json lists exactly the three workloads")
    for names in listed.values():
        for name in names:
            check("`%s`" % name in glossary, "GLOSSARY.md defines " + name)

    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                code, lines = run(["--workload", workload, "--seed",
                                   str(seed), "--seconds", "1", "--trace",
                                   str(trace)])
                label = "%s seed %d trace %d" % (workload, seed, trace)
                check(code == 0, label + " exits 0 (got %d)" % code)
                try:
                    result = json.loads(lines[-1])
                except ValueError:
                    check(False, label + " ends with a JSON result")
                    continue
                check(result["correct"] and result["failed"] == 0 and
                      result["attempted"] >= 1,
                      label + " passes the oracle gate with no failures")
                printed = {name: spec["unit"]
                           for name, spec in result["metrics"].items()}
                check(printed == listed[trace],
                      label + " prints exactly the BENCHMARK.json metrics "
                      "with their units")
                print("ok   " + label)

    for workload in WORKLOADS:
        code, lines = run(["--workload", workload, "--seed",
                           str(DEFAULT_SEED), "--seconds", "1", "--trace",
                           "0", "--corrupt-answer"])
        result = json.loads(lines[-1])
        check(code != 0 and not result["correct"] and result["failed"] >= 1,
              workload + " oracle gate trips on a corrupted answer")
        print("ok   %s corrupted answer caught" % workload)

    if failures:
        print("%d check(s) failed" % len(failures))
        sys.exit(1)
    print("all checks passed")


if __name__ == "__main__":
    main()
