#!/usr/bin/env python3
"""Build the SCOUT serving benchmark from source and run one workload.

    python3 scoutbench/run.py --workload vis-sim --seed 7 --seconds 10 --trace 0
    python3 scoutbench/run.py --self-test

The benchmark is the CMake package in this directory; it compiles the
engine from the repository root next to it. The build goes to
$CARGO_TARGET_DIR/scoutbench (default .bench_build/scoutbench, relative to
the repository root), with compiler output on standard error. The run's
own output is relayed unchanged: its last line is the result JSON. The
exit code is the benchmark's (1 when a correctness check failed), or 2
when the sources or the build are missing.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["follow-file", "vis-sim", "shared-n8", "shared-n8-storm"]
# A run measures for --seconds plus set-up; anything past this is a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "scoutbench"


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    if not (ROOT / "src" / "engine" / "query_executor.h").is_file():
        print(f"run.py: no SCOUT sources under {ROOT / 'src'}", file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return None
    return out / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the tests of the benchmark's "
                             "own helpers instead of a workload")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build("scoutbench_test" if args.self_test else "scoutbench")
    if binary is None:
        return 2
    if args.self_test:
        return subprocess.run([str(binary)], timeout=RUN_TIMEOUT_S).returncode

    work = build_dir() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    if args.trace:
        cmd += ["--trace-file",
                str(work / f"trace-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
