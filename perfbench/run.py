#!/usr/bin/env python3
"""Build and run the S-Caffe end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library sources under src/ together with the benchmark (Release, in
.bench_build/perfbench); later calls rebuild only what changed. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 1 the span timeline is also written to
.bench_build/traces/<workload>-seed<n>.json (Chrome trace-event format).

Exit status: 0 on success, 1 when a correctness check fails (the JSON is
still printed), 2 on bad arguments or a failed build, 3 on a crash or timeout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cifar_1x4", "cifar_2x2_store", "mlp_4x1_wide", "des_160")
RUN_TIMEOUT_S = 170  # the measured run itself; building comes before it


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)  # retry from scratch next time
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    step = ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_root = os.path.join(root, ".bench_build")
    binary = build(bench_dir, os.path.join(build_root, "perfbench"))
    if binary is None:
        log("build failed")
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")  # subprocess.run killed and reaped it
        return 3

    if run.returncode not in (0, 1):
        log(f"benchmark exited {run.returncode}")
        return 3
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"unexpected keys {sorted(result)}")
    except (IndexError, ValueError) as error:
        log(f"no result (exit {run.returncode}): {error}")
        return 3
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
