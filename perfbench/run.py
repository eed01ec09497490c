#!/usr/bin/env python3
"""Builds and runs the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs it with the given arguments. The benchmark's own output goes
to standard output, ending with one JSON result line; build output goes to standard
error. Traced runs write their spans under the build directory. Exits non-zero,
without a result line, when the build fails or the run does not finish in time.
"""

import os
import subprocess
import sys
import time

RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(root, "perfbench", "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else "none"
    seed = args[args.index("--seed") + 1] if "--seed" in args[:-1] else "none"
    spans = os.path.join(target, "perfbench-spans", f"{workload}-seed{seed}.jsonl")
    binary = os.path.join(target, "release", "perfbench")
    start = time.monotonic()
    try:
        run = subprocess.run([binary, *args, "--spans", spans], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    print(f"perfbench: run took {time.monotonic() - start:.1f} s", file=sys.stderr)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
