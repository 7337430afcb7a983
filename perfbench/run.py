#!/usr/bin/env python3
"""Builds and runs the pamr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `pamr` CLI and the benchmark
package (`perfbench/Cargo.toml`) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs one workload. Standard output carries
one line per metric and, as its last line, the JSON result object; build
output goes to standard error.

A bad or missing flag, or a missing source tree, is answered with one JSON
error object on standard error and a nonzero exit code, before anything is
built.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ("paper_campaign", "serve_churn")
USAGE = (
    "python3 perfbench/run.py --workload %s --seed N --seconds S --trace 0|1"
    % "|".join(WORKLOADS)
)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class UsageError(Exception):
    pass


def fail(code, message):
    sys.stderr.write(json.dumps({"error": message, "usage": USAGE}) + "\n")
    sys.exit(code)


def parse_args(argv):
    """Returns the validated flags as a dict; raises UsageError."""
    flags = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            raise UsageError("unknown flag %r" % flag)
        if flag in flags:
            raise UsageError("flag %s given twice" % flag)
        if i + 1 >= len(argv):
            raise UsageError("flag %s needs a value" % flag)
        flags[flag] = argv[i + 1]
        i += 2
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        if flag not in flags:
            raise UsageError("missing required flag %s" % flag)
    if flags["--workload"] not in WORKLOADS:
        raise UsageError(
            "unknown workload %r (expected one of %s)"
            % (flags["--workload"], ", ".join(WORKLOADS))
        )
    seed = flags["--seed"]
    if not (seed.isascii() and seed.isdigit()) or int(seed) >= 2**64:
        raise UsageError("--seed needs a non-negative 64-bit integer, got %r" % seed)
    try:
        seconds = float(flags["--seconds"])
    except ValueError:
        seconds = -1.0
    if not 0 < seconds <= 60:
        raise UsageError("--seconds needs a number in (0, 60], got %r" % flags["--seconds"])
    if flags["--trace"] not in ("0", "1"):
        raise UsageError("--trace needs 0 or 1, got %r" % flags["--trace"])
    return {
        "workload": flags["--workload"],
        "seed": seed,
        "seconds": flags["--seconds"],
        "trace": flags["--trace"],
    }


def build(root, target, manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's own output goes to standard error: standard output is the
    # benchmark's result channel.
    done = subprocess.run(
        cmd + extra, cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S
    )
    if done.returncode != 0:
        fail(3, "build failed: %s" % " ".join(cmd + extra))


def main(argv):
    try:
        args = parse_args(argv)
    except UsageError as e:
        fail(2, str(e))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("Cargo.toml", "Cargo.lock", "src", "crates", "vendor"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(3, "source tree incomplete: %s is missing under %s" % (needed, root))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    try:
        build(root, target, os.path.join(root, "Cargo.toml"), ["--bin", "pamr"])
        build(root, target, os.path.join(root, "perfbench", "Cargo.toml"), [])
    except subprocess.TimeoutExpired:
        fail(3, "build did not finish within %d s" % BUILD_TIMEOUT_S)
    except OSError as e:
        fail(3, "cannot run cargo: %s" % e)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "pamr-perfbench"),
        "--workload", args["workload"],
        "--seed", args["seed"],
        "--seconds", args["seconds"],
        "--trace", args["trace"],
        "--pamr-bin", os.path.join(release, "pamr"),
    ]
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, "workload did not finish within %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
