#!/usr/bin/env python3
"""Build and run one MPROS benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the repository root. Builds the `perfbench` package (its own
cargo workspace, depending on the repository's crates by path) in
release mode, runs the workload in its own process, and relays its
output; the last line is the JSON result. `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer ledger of a separate
traced run. Exits non-zero, without a result line, when the build, the
run or its result line fails. `--workload all` runs every workload
untraced and then traced, printing each run. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = ["ship8_survey", "pdme_fanin128", "fleet4x32_served"]


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    args = parser.parse_args()
    if args.workload != "all" and args.trace is None:
        parser.error("--trace is required")

    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    if args.workload != "all":
        return run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    failed = 0
    for workload in WORKLOADS:
        for trace in ["0", "1"]:
            failed |= run_one(binary, workload, args.seed, args.seconds, trace)
    return failed


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload in its own process and relay its output."""
    command = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", trace,
        "--git-rev", git_revision(),
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: run failed with code {run.returncode}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: run printed no result line", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
