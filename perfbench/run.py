#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the library and the benchmark runner from source (into
.bench_build/perfbench under the repository root), runs one workload in
its own process and prints its metrics; the last line of standard output
is one JSON object.

    python3 perfbench/run.py --workload <paper_cold|watchlist_mix|live_ingest>
                             --seed <n> --seconds <s> --trace <0|1>

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload
twice with the same seed, untraced then traced, prints the per-layer
metrics of the traced run, and reports the tracing overhead as the
difference between the two runs' end-to-end results. The traced run
writes its spans to .bench_build/perfbench/traces/.

--tiny and --corrupt-answer are for perfbench/selftest.py: they shrink
the workload to a smoke-test size, and flip one recorded answer before
the oracle gate.

See perfbench/GLOSSARY.md for the workloads, every metric and the seeds.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
WORKLOADS = ("paper_cold", "watchlist_mix", "live_ingest")

# A run (after the build) must exit within 180 s; keep a margin for the
# build check and process start-up.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 850.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quietly(command, timeout):
    """Runs a build step, sending its output to stderr."""
    try:
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))
    if result.returncode != 0:
        fail("failed: " + " ".join(command))


def build():
    sources = os.path.join(ROOT, "src")
    if not os.path.isdir(sources):
        fail("library sources not found at " + sources)
    started = time.monotonic()
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quietly(["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quietly(["cmake", "--build", BUILD_DIR, "-j", jobs], remaining)


def run_workload(args, trace, deadline, extra=()):
    """Runs the workload process once; returns (exit code, stdout lines)."""
    command = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    command += list(extra)
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_answer:
        command.append("--corrupt-answer")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("no time left to run " + args.workload)
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(args.workload + " did not finish within the run budget")
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode not in (0, 1) or not lines[-1].startswith("{"):
        fail("%s exited with %d without a result" %
             (args.workload, result.returncode))
    return result.returncode, lines


def end_to_end_of(lines):
    """End-to-end metrics a runner process printed."""
    for line in lines:
        if line.startswith("end_to_end "):
            return json.loads(line[len("end_to_end "):])
    return json.loads(lines[-1])["metrics"]


def overhead_pct(untraced, traced, name, lower_is_better):
    """Relative slowdown (%) of the traced run on one metric."""
    base = untraced[name]["value"]
    delta = traced[name]["value"] - base
    return 100.0 * (delta if lower_is_better else -delta) / base


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-answer", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace == 0:
        code, lines = run_workload(args, 0, deadline)
        print("\n".join(lines))
        sys.exit(code)

    untraced_code, untraced_lines = run_workload(args, 0, deadline)
    traces = os.path.join(BUILD_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    spans = os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))
    code, lines = run_workload(args, 1, deadline, ["--trace-out", spans])
    untraced = json.loads(untraced_lines[-1])
    traced = end_to_end_of(lines)
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    print("spans written to " + os.path.relpath(spans, ROOT))
    print("tracing overhead on %s (traced vs untraced run, same seed):" %
          args.workload)
    for name, spec in untraced["metrics"].items():
        base = spec["value"]
        value = traced[name]["value"]
        change = 100.0 * (value - base) / base if base else 0.0
        print("overhead %-24s %14.6g -> %-14.6g %+.2f%%" %
              (name, base, value, change))
    metrics = result["metrics"]
    metrics["trace.p50_overhead_pct"] = {
        "value": overhead_pct(untraced["metrics"], traced, "query_p50_ms",
                              lower_is_better=True),
        "unit": "%"}
    metrics["trace.qps_overhead_pct"] = {
        "value": overhead_pct(untraced["metrics"], traced, "queries_per_s",
                              lower_is_better=False),
        "unit": "%"}
    result["correct"] = result["correct"] and untraced["correct"]
    print(json.dumps(result))
    sys.exit(max(code, untraced_code))


if __name__ == "__main__":
    main()
