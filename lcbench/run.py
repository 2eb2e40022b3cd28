#!/usr/bin/env python3
"""Builds lanecert's benchmark of record and runs one workload.

Run from the root of a checkout:

    python3 lcbench/run.py --workload wire_hot --seed 1 --seconds 20 --trace 0
    python3 lcbench/run.py --probe        # (generator x property) matrix
    python3 lcbench/run.py --self-test    # stats tests + metric table check

The first call configures and builds the library and the benchmark into
.bench_build/ (or $CARGO_TARGET_DIR) under the checkout; later calls only
check the build is current.  Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result.  See README.md beside this file.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire_hot", "wire_cold", "bulk")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds; returns False when either step fails."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    generated = any(os.path.exists(os.path.join(out, f))
                    for f in ("build.ninja", "Makefile"))
    if not generated:
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", out, "-j", jobs,
           "--target", "lcbench", "lcbench_stats_test"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run(cmd):
    """Runs the benchmark binary with stdout passed through; waits for it."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("lcbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def self_test(binary):
    """Runs the stats tests and checks BENCHMARK.json names what the binary
    reports, metric for metric and unit for unit."""
    if run([os.path.join(build_dir(), "lcbench_stats_test")]) != 0:
        return 1
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    table = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        table[kind].append((name, unit))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != table[kind]:
            print("BENCHMARK.json %s differs from lcbench --list-metrics:\n"
                  "  json:   %s\n  binary: %s" % (kind, declared, table[kind]))
            ok = False
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        print("BENCHMARK.json workloads differ from %s" % (WORKLOADS,))
        ok = False
    print("metric table check: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.probe or args.self_test):
        ap.error("one of --workload, --probe or --self-test is required")

    if not build():
        print("lcbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir(), "lcbench")
    if args.self_test:
        return self_test(binary)
    scratch = os.path.join(build_dir(), "scratch")
    os.makedirs(scratch, exist_ok=True)
    if args.probe:
        return run([binary, "--probe", "--seed", str(args.seed),
                    "--scratch", scratch])
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scratch", scratch])


if __name__ == "__main__":
    sys.exit(main())
