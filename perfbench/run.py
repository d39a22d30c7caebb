#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scale --seed 42 --seconds 25 --trace 0

It builds the Go program in perfbench/ against the simulator sources in
the checkout, then runs one workload. Everything the build and the run
write (Go build cache, binary, CPU profile) stays under .bench_build/ in
the checkout. The program prints its metrics as one JSON object on the
last line of standard output and a readable report on standard error;
see perfbench/NOTES.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("scale", "serving", "paper", "sharded")
BUILD_TIMEOUT_S = 850
# Grace beyond --seconds: the last pass may start just before the
# deadline, and the traced run ends with `go tool pprof`.
RUN_GRACE_S = 150


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def go_env(build):
    env = dict(os.environ)
    for sub in ("gocache", "gopath", "tmp", "home"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home"),
        "XDG_CACHE_HOME": os.path.join(build, "home"),
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    return env


def run(cmd, cwd, env, timeout):
    """Runs cmd to completion, killing and reaping it on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{' '.join(cmd[:1])} exceeded {timeout}s and was stopped")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    for need in ("go.mod", os.path.join("internal", "sim")):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found in {root}: run from a full checkout of the repository", 2)
    if shutil.which("go") is None:
        fail("the go toolchain is not on PATH", 2)

    build = os.path.join(root, ".bench_build")
    env = go_env(build)
    binary = os.path.join(build, "perfbench")
    if run(["go", "build", "-o", binary, "."], bench, env, BUILD_TIMEOUT_S) != 0:
        fail("build failed")

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-scratch", os.path.join(build, "tmp")]
    sys.exit(run(cmd, root, env, args.seconds + RUN_GRACE_S))


if __name__ == "__main__":
    main()
