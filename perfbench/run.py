#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload eval_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root. The program is built from ../src and this
directory into $CARGO_TARGET_DIR (default .bench_build) with CMake; build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. --workload all runs the four workloads one after another and ends
with one JSON line whose metrics are prefixed by the workload name.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["eval_grid", "long_run", "attack_verdicts", "smp_rpc"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "roload_perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "roload_perfbench")


def run_one(binary, workload, args, build_dir):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data", HERE]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans, "%s-seed%d.json" % (workload, args.seed))]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode, result.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    # The benchmark builds the simulator from the checkout's sources.
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("simulator sources (src/) not found next to perfbench/")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        return fail("build failed: %s" % error)

    if args.workload != "all":
        code, _ = run_one(binary, args.workload, args, build_dir)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, stdout = run_one(binary, workload, args, build_dir)
        lines = stdout.strip().splitlines()
        if code != 0 or not lines:
            return code or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
