#!/usr/bin/env python3
"""Day-cost benchmark for scent: build the daybench program, run one workload.

Run from the repository root:

    python3 daybench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Builds the scent libraries and the daybench program from source into
.bench_build/ (CMake, RelWithDebInfo like the top-level project; the first
run compiles), runs the workload for --seconds, and prints the program's
JSON result as the last line of standard output. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ledger (and writes the recorded
spans as a Chrome trace under .bench_build/traces/). Exits nonzero without
a result if the build, the run or the result's shape fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("campaign", "resume_join")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"daybench: {message}", file=sys.stderr, flush=True)


def build(build_dir, env):
    """Configures (once) and builds the program; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "daybench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return build_dir / "daybench"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this trace mode, if present."""
    spec_path = Path("BENCHMARK.json")
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"result keys: {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise RuntimeError("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise RuntimeError("failed must be a non-negative integer")
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        raise RuntimeError(
            f"metrics {sorted(result['metrics'])} != {sorted(expected)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path(".bench_build")
    # Compiler and program temporaries stay inside the checkout too.
    tmp = (root / "tmp").resolve()
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(root / "daybench", env)
    work_dir = root / "work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir)]
    if args.trace:
        traces = root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"daybench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("daybench printed no result")
    check_result(lines[-1], args.trace)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log(str(error))
        sys.exit(1)
