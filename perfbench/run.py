#!/usr/bin/env python3
"""Build the pmm benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: alg1-many-ranks, alg1-big-blocks, dpor-alg1, advisor-serve.
The benchmark is a Cargo package of its own (perfbench/Cargo.toml). It is
built in release mode into $CARGO_TARGET_DIR (default .bench_build) and run
in a child process, one process per workload run, so peak RSS does not
carry over between workloads. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Spans of a
traced run are written under .bench_out/.
"""

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["alg1-many-ranks", "alg1-big-blocks", "dpor-alg1", "advisor-serve"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def target_cpu_flag(env):
    """The -C target-cpu flag the build uses, from RUSTFLAGS or .cargo/config.toml."""
    sources = [env.get("RUSTFLAGS", "")]
    config = os.path.join(ROOT, ".cargo", "config.toml")
    if os.path.exists(config):
        with open(config, encoding="utf-8") as f:
            sources.append(f.read())
    for text in sources:
        m = re.search(r"target-cpu=([A-Za-z0-9_-]+)", text)
        if m:
            return m.group(1)
    return "none"


def rustc_version(env):
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, env=env,
                             cwd=ROOT, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # a relative target dir is relative to the root
    env["CARGO_TARGET_DIR"] = target
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_RUSTC"] = rustc_version(env)
    env["PERFBENCH_TARGET_CPU"] = target_cpu_flag(env)
    binary = os.path.join(target, "release", "pmm-perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
