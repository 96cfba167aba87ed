#!/usr/bin/env python3
"""Build and run the MIC benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test        # build and run the harness tests

Builds perfbench/ (which compiles the simulator from ../src) as a Release
package under $CARGO_TARGET_DIR (default .bench_build), runs one workload
and passes its output through.  The last line of standard output is the
workload's JSON result.  Build output goes to standard error.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("control_plane", "rpc_small")
RUN_TIMEOUT_S = 170


def build_dir():
    # One build per source tree, so trees sharing a target directory never
    # build each other's sources.
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tree = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    return os.path.join(ROOT, target, "perfbench-release-" + tree)


def results_dir(binary):
    # Outcome records are keyed to the binary: runs of one build must repeat
    # them exactly, a rebuilt program starts a record of its own.
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    return os.path.join(build_dir(), "results", build_id)


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    return isinstance(result["metrics"], dict) and bool(result["metrics"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true",
                        help="build and run the harness tests instead")
    args = parser.parse_args()

    if args.test:
        binary = build("perfbench_tests")
        if binary is None:
            return 1
        return subprocess.run([binary]).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build("micbench")
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    out_dir = results_dir(binary)
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir, "--revision", revision()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: workload exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(run.stdout)
        print("run.py: micbench failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
