#!/usr/bin/env python3
"""End-to-end benchmark of the KOLA optimizer: compile and serve.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 15 --trace 0

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench); later runs rebuild
incrementally. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

    python3 perfbench/run.py --self-check [--seconds 2]

plants one wrong answer and one refused request in every workload and checks
that the oracle and the error count see them, then checks that every metric
named in BENCHMARK.json is printed with its unit.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
WORKLOADS = ["compile", "serve"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds kola_perfbench; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(out, "kola_perfbench")


def source_rev():
    """Git revision when available, else a digest of the library sources
    (benchmark checkouts are plain file trees)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_bench(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (stdout lines, parsed result line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--rev", source_rev()] + list(extra)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: kola_perfbench exited with code %d"
                 % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: the last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line: " + lines[-1])
    return lines, result


def tagged(lines, tag):
    """The JSON payload of the last "<tag> {...}" report line."""
    for line in reversed(lines):
        if line.startswith(tag + " {"):
            return json.loads(line[len(tag) + 1:])
    return None


def self_check(binary, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        # 1. The oracle and the error count are not vacuous.
        lines, result = run_bench(binary, workload, 1, seconds, 0,
                                   ["--plant"])
        summary = tagged(lines, "summary") or {}
        if result["correct"] or summary.get("wrong_answers", 0) <= 0:
            problems.append(workload + ": planted wrong answer not caught")
        if result["failed"] <= 0 or summary.get("error_rate", 0) <= 0:
            problems.append(workload + ": planted refused request not counted")
        # 2. Unplanted runs are clean and print every metric with its unit.
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run_bench(binary, workload, 1, seconds, trace)
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s trace %d: correct=%s failed=%d" % (
                    workload, trace, result["correct"], result["failed"]))
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append("%s trace %d: metric %s missing" % (
                        workload, trace, metric["name"]))
                elif got.get("unit") != metric["unit"]:
                    problems.append("%s trace %d: metric %s unit %r != %r" % (
                        workload, trace, metric["name"], got.get("unit"),
                        metric["unit"]))
                elif not math.isfinite(got.get("value", float("nan"))):
                    problems.append("%s trace %d: metric %s not finite" % (
                        workload, trace, metric["name"]))
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("%s trace %d: metrics not in BENCHMARK.json: %s"
                                % (workload, trace, sorted(extra)))
        print("self-check %s done" % workload, flush=True)
    for p in problems:
        print("self-check FAIL: " + p)
    print("self-check " + ("FAILED" if problems else "PASSED"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required (or --self-check)")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in [1, 600]")

    binary = build()
    if args.self_check:
        return self_check(binary, min(args.seconds, 3))
    lines, _ = run_bench(binary, args.workload, args.seed, args.seconds,
                          args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
