#!/usr/bin/env python3
"""Build and run the fleet benchmark.

    python3 fleetbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds, in release mode, the benchmark
package (fleetbench/) and the repository's `aicd` daemon that the
`rpc-churn` workload spawns, then runs the benchmark binary with the given
arguments. Build output goes to stderr; the benchmark's last stdout line is
its JSON result. Cargo's target directory is $CARGO_TARGET_DIR, or
`.bench_build` when unset. The exit status is the benchmark's (non-zero on
a build failure or a correctness failure).
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "fleetbench")


def build(env):
    """Build the benchmark and aicd; exit non-zero if either fails."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "aic-ckpt", "--bin", "aicd"],
    ]
    for cmd in steps:
        if not os.path.exists(cmd[cmd.index("--manifest-path") + 1]):
            sys.exit("fleetbench: %s is missing; run from the repository root"
                     % cmd[cmd.index("--manifest-path") + 1])
        if subprocess.call(cmd, env=env, stdout=sys.stderr) != 0:
            sys.exit("fleetbench: build failed: " + " ".join(cmd))


def commit():
    """The checked-out commit, when this is a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    build(env)
    env["FLEETBENCH_AICD"] = os.path.join(target, "release", "aicd")
    env.setdefault("FLEETBENCH_COMMIT", commit())
    binary = os.path.join(target, "release", "fleetbench")
    return subprocess.call([binary] + sys.argv[1:], env=env)


if __name__ == "__main__":
    sys.exit(main())
