#!/usr/bin/env python3
"""Build and run the atmem performance benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload epoch-shift --seed 7 --seconds 40 --trace 0

--workload all runs the four workloads one after another and exits 1
if any of them fails or reports "correct": false.

The Go program in this directory is built with the local toolchain into
.bench_build/ at the repository root (its build cache included), then run
with the given arguments. Its last line of output is the JSON result. A
run whose correctness checks fail still exits 0 and reports
"correct": false; a failed build or bad arguments exit non-zero.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

WORKLOADS = ["paper-oneshot", "epoch-shift", "epoch-replay", "tenant-pair"]

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def git_sha():
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    env = go_env()
    rc = run(["go", "build", "-buildvcs=false", "-o", binary, "."],
             BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=sys.stderr)
    if rc != 0:
        print(f"perfbench: build failed ({rc})", file=sys.stderr)
        return rc or 1

    env["PERFBENCH_GIT_SHA"] = git_sha()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if len(names) == 1:
        sys.stdout.flush()
        return run(command(binary, names[0], args), RUN_TIMEOUT_S,
                   cwd=ROOT, env=env)
    status = 0
    for name in names:
        try:
            out = subprocess.run(command(binary, name, args), cwd=ROOT,
                                 env=env, stdout=subprocess.PIPE, text=True,
                                 timeout=RUN_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {name} timed out", file=sys.stderr)
            status = 1
            continue
        sys.stdout.write(out.stdout)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines or '"correct":true' not in lines[-1]:
            status = 1
    return status


def command(binary, name, args):
    cmd = [binary, "-workload", name, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace:
        cmd += ["-spans", os.path.join(BUILD, f"spans-{name}-{args.seed}.json")]
    return cmd


if __name__ == "__main__":
    sys.exit(main())
