#!/usr/bin/env python3
"""Self-test of run.py's command-line contract.

    python3 perfbench/selftest.py [--cargo]

Every bad or missing flag must be answered with exactly one JSON error
object on standard error, nothing on standard output and a nonzero exit
code, before anything is built. With `--cargo` the benchmark package's
own unit tests (argument parsing, quantiles) run as well.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOOD = ["--workload", "paper_campaign", "--seed", "1", "--seconds", "5", "--trace", "0"]

BAD = [
    ([], "missing required flag --workload"),
    (GOOD[:6], "missing required flag --trace"),
    (GOOD + ["--bogus", "1"], "unknown flag"),
    (GOOD[:-1], "needs a value"),
    (GOOD + ["--seed", "2"], "given twice"),
    (["--workload", "nope"] + GOOD[2:], "unknown workload"),
    (GOOD[:2] + ["--seed", "-3"] + GOOD[4:], "--seed needs"),
    (GOOD[:2] + ["--seed", "18446744073709551616"] + GOOD[4:], "--seed needs"),
    (GOOD[:4] + ["--seconds", "0"] + GOOD[6:], "--seconds needs"),
    (GOOD[:4] + ["--seconds", "ten"] + GOOD[6:], "--seconds needs"),
    (GOOD[:6] + ["--trace", "yes"], "--trace needs"),
]


def main():
    failures = 0
    for argv, expect in BAD:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py")] + argv,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        lines = done.stderr.strip().splitlines()
        try:
            error = json.loads(lines[-1])["error"] if lines else ""
        except (ValueError, KeyError, TypeError):
            error = ""
        ok = done.returncode != 0 and not done.stdout and len(lines) == 1 and expect in error
        failures += not ok
        print("%s %s -> exit %d %s" % ("ok  " if ok else "FAIL", argv, done.returncode, error))
    if "--cargo" in sys.argv[1:]:
        done = subprocess.run(
            ["cargo", "test", "--offline", "-q", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            cwd=ROOT,
            env=dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")),
        )
        failures += done.returncode != 0
        print("%s cargo test" % ("ok  " if done.returncode == 0 else "FAIL"))
    print("%d failure(s)" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
