#!/usr/bin/env python3
"""Build and run the host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lr-sync --seed 1 --seconds 10 --trace 0

It builds the benchmark (perfbench/, a Go module of its own that uses the
repository through a replace directive) and the ps2serve/ps2worker binaries
from source into .bench_build/, with the Go build cache there too, then runs
one workload. The last line of standard output is the result as JSON; build
output goes to standard error. Traced runs (--trace 1) also write their host
spans and CPU profile to .bench_build/trace/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "go-path"),
        GOMODCACHE=os.path.join(BUILD, "go-path", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",  # never fetch a toolchain
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def build(env):
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    steps = [
        (HERE, ["go", "build", "-o", os.path.join(BIN, "perfbench"), "."]),
        (ROOT, ["go", "build", "-o", BIN + os.sep, "./cmd/ps2serve", "./cmd/ps2worker"]),
    ]
    for cwd, cmd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    env = go_env()
    if not build(env):
        return 1
    cmd = [os.path.join(BIN, "perfbench")] + sys.argv[1:] + [
        "--bin", BIN, "--out", os.path.join(BUILD, "trace")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
