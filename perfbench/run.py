#!/usr/bin/env python3
"""Builds xsynth and the benchmark from source, then runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <fprm-batch|sop-baseline|serve-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Build output goes to $CARGO_TARGET_DIR (default: .bench_build) and to
standard error; standard output carries only the benchmark's report, whose
last line is one JSON object. The exit code is the benchmark's, or the
failing build's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.stderr.write("build failed: %s\n" % " ".join(cmd))
        sys.exit(done.returncode or 1)


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.stderr.write("no xsynth sources next to the benchmark; nothing to measure\n")
        return 3
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    # the daemon binary the serve workload drives, built from the repository's own manifest
    build(["--bin", "xsynth"], target)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target)
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "xsynth-perfbench")] + sys.argv[1:]
    cmd += ["--xsynth", os.path.join(release, "xsynth")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
